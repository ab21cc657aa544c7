"""Spans around the public functions of each tauforms module, from outside.

`install(tracer)` replaces each traced function or method with a wrapper
and rebinds every name in every loaded ``tauforms.*`` module that refers to
the original, so calls between modules (for example ``cli`` calling
``forms.sigma_table``) are seen too.  Spans stay in memory as
``(name, start_ns, end_ns, parent_index)`` and are written out by `dump`.
Every call runs in one thread and no layer queues work, so a span's
duration is busy time: there is no waiting to record.

A layer's self time is its spans' duration minus the time covered by
their child spans.  Statistics that need a pass over a series (the
operand sizes of a multiplication) are timed in a child span named
``trace.stats`` so that neither the layer nor its caller is charged.
"""

import json
import sys
import time
from collections import Counter

MUL_SMALL = 64  # output coefficients, inclusive
MUL_MID = 2048


class Tracer:
    """Spans and counters recorded in one process."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counters = Counter()
        self.seen = {}

    def wrap(self, fn, name, namer=None, before=None, after=None, errors=()):
        """Return fn wrapped in a span.

        namer(args, kwargs) may pick the span name per call, or return None
        to call through untraced; before(name, args) runs in a
        ``trace.stats`` span; after(name, args, kwargs, result) and
        errors = ((exc_type, counter), ...) update counters.
        """
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        caught = tuple(exc for exc, _ in errors)

        def traced(*args, **kwargs):
            label = namer(args, kwargs) if namer else name
            if label is None:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            if before is not None:
                start = clock()
                before(label, args)
                spans.append(("trace.stats", start, clock(), parent))
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except caught as exc:
                for exc_type, counter in errors:
                    if isinstance(exc, exc_type):
                        self.counters[counter] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (label, start, end, parent)
            if after is not None:
                after(label, args, kwargs, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def count_repeats(self, label, args, kwargs, result):
        key = (args, tuple(sorted(kwargs.items())))
        seen = self.seen.setdefault(label, set())
        if key in seen:
            self.counters[label + ".repeat"] += 1
        else:
            seen.add(key)

    def layers(self):
        """{span name: [calls, self_ns]} over every span recorded."""
        covered = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = {}
        for (name, start, end, _), child in zip(self.spans, covered):
            entry = out.setdefault(name, [0, 0])
            entry[0] += 1
            entry[1] += end - start - child
        return out

    def dump(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start_ns", "end_ns", "parent"],
                    "names": names,
                    "spans": [[index[n], s, e, p] for n, s, e, p in self.spans],
                },
                fh,
                separators=(",", ":"),
            )


def _bits(c):
    if type(c) is int:
        return c.bit_length()
    return c.numerator.bit_length() + c.denominator.bit_length()


def install(tracer):
    """Wrap the traced layers of an imported tauforms; returns the tracer."""
    import tauforms.brackets as brackets
    import tauforms.cli as cli
    import tauforms.expr as expr
    import tauforms.forms as forms
    import tauforms.identities as identities
    import tauforms.qseries as qseries
    import tauforms.quasidecomp as quasidecomp

    counters = tracer.counters
    modules = [m for k, m in sys.modules.items() if k == "tauforms" or k.startswith("tauforms.")]

    def rebind(module, attr, name, **hooks):
        original = getattr(module, attr)
        wrapper = tracer.wrap(original, name, **hooks)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapper)

    def method(cls, attr, name, **hooks):
        setattr(cls, attr, tracer.wrap(getattr(cls, attr), name, **hooks))

    def mul_stats(label, args):
        a, b = args
        n = min(len(a.coefficients), len(b.coefficients))
        ca, cb = a.coefficients[:n], b.coefficients[:n]
        if any(type(c) is not int for c in ca) or any(type(c) is not int for c in cb):
            counters["qseries.mul.rational"] += 1
        counters["qseries.mul.coeffs"] += n
        counters["qseries.mul.operand_bits"] += n * max(
            max(map(_bits, ca)), max(map(_bits, cb))
        )

    def failed(label, args, kwargs, report):
        if report.status == "failed":
            counters[label + ".failed"] += 1

    def nonzero_exit(label, args, kwargs, code):
        if code:
            counters[label + ".nonzero_exit"] += 1

    def cells(label, args):
        rows = args[0]
        counters[label + ".cells"] += len(rows) * (len(rows[0]) if rows else 0)

    def mul_bucket(args, kwargs):
        a, b = args
        if not isinstance(b, qseries.QSeries):
            return None  # scalar product: traced as QSeries.scale
        n = min(len(a.coefficients), len(b.coefficients))
        if n <= MUL_SMALL:
            return "qseries.mul_small"
        return "qseries.mul_mid" if n <= MUL_MID else "qseries.mul_large"

    def tau_range_name(args, kwargs):
        strategy = args[1] if len(args) > 1 else kwargs.get("strategy", "product")
        return f"forms.tau_range.{strategy}"

    repeat = tracer.count_repeats
    qs = qseries.QSeries
    method(qs, "__mul__", "qseries.mul", namer=mul_bucket, before=mul_stats)
    method(qs, "__pow__", "qseries.pow")
    for attr in ("__add__", "__sub__", "scale", "derive", "shift"):
        method(qs, attr, "qseries.linear")

    rebind(forms, "delta_product", "forms.delta_product")
    rebind(forms, "delta_from_eisenstein", "forms.delta_from_eisenstein")
    rebind(forms, "tau_range", "forms.tau_range", namer=tau_range_name)
    rebind(forms, "tau", "forms.tau")
    rebind(forms, "sigma_table", "forms.sigma_table", after=repeat)
    rebind(forms, "eisenstein", "forms.eisenstein", after=repeat)

    rebind(brackets, "rc_bracket", "brackets.rc_bracket")
    rebind(brackets, "quasi_bracket", "brackets.quasi_bracket")

    rebind(quasidecomp, "solve_exact", "quasidecomp.solve_exact", before=cells)
    rebind(
        quasidecomp,
        "decompose",
        "quasidecomp.decompose",
        errors=((quasidecomp.NotInGradedSpace, "quasidecomp.decompose.rejected"),),
    )
    rebind(quasidecomp, "modular_basis", "quasidecomp.modular_basis", after=repeat)
    rebind(quasidecomp, "graded_generators", "quasidecomp.graded_generators", after=repeat)

    rebind(identities, "builtin_registry", "identities.builtin_registry")
    rebind(identities, "make_context", "identities.make_context")
    method(identities.Side, "bulk", "identities.side_bulk")
    method(identities.Side, "value", "identities.side_value")
    method(identities.Side, "series", "identities.side_series")
    rebind(identities, "verify_range", "identities.verify_range", after=failed)
    rebind(identities, "check_congruence", "identities.check_congruence", after=failed)
    rebind(identities, "certify", "identities.certify", after=failed)
    rebind(identities, "fit_identity", "identities.fit_identity")
    rebind(identities, "audit_all", "identities.audit_all")

    rebind(expr, "parse", "expr.parse")
    rebind(expr, "eval_expr", "expr.eval_expr")

    rebind(cli, "main", "cli.main", after=nonzero_exit)
    return tracer
