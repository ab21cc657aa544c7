"""Command-line interface: verification, certification, audit, tables.

Exit codes: 0 success; 1 verification or certification failure that is not
pre-declared audit-flagged; 2 usage or expression parse error (an --out file
that cannot be written and a result too long to print count as usage errors,
and a table too long to print writes no file); 3 internal inconsistency (a
remainder in the Eisenstein route's division by 762048, a catalogue squaring of
the wrong parity or product of the wrong sum, a form-level audit row that does
not check out, or another failed invariant) or a MemoryError (one error line).
"""

import argparse
import json
import sys
from fractions import Fraction

from . import __version__
# each command imports what else it runs, so tau, tau-table and sigma load no more
from .forms import TAU_STRATEGIES, InternalInconsistency, sigma_table, tau, tau_range

DEFAULT_TRUNCATION = 64
DEFAULT_RANGE = 500
# No integer option may exceed this: it is above every size the tests, demos and
# benchmark use (16384), and it stops --n, --max-n and --trunc tables exhausting memory.
MAX_SIZE = 1 << 17

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _rat(x):
    return str(Fraction(x))


def _shown_status(record, report):
    """The report's status; an audit-flagged record's failure is shown as such."""
    from .identities import AUDIT_FLAGGED
    if report.status == "failed" and record.status == AUDIT_FLAGGED:
        return AUDIT_FLAGGED
    return report.status


def _result_entry(record, report):
    first = None
    if report.first_failure is not None:
        n, lhs, rhs = report.first_failure
        first = {"n": n, "lhs": _rat(lhs), "rhs": _rat(rhs)}
    return {
        "id": record.id,
        "anchor": record.anchor,
        "range": [1, report.limit] if report.limit else None,
        "status": _shown_status(record, report),
        "first_failure": first,
    }


def _select_identities(registry, key):
    if key in (None, "all"):
        return list(registry.identities)
    if key not in registry.by_id:
        raise SystemExit(f"unknown identity id {key!r}")
    record = registry.by_id[key]
    if record not in registry.identities:
        raise SystemExit(f"{key!r} is a congruence; use the congruences command")
    return [record]


def _bounded_int(low):
    """argparse type for an integer option in low..MAX_SIZE."""

    def parse_int(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is below the minimum {low}")
        if value > MAX_SIZE:
            raise argparse.ArgumentTypeError(f"{value} is above the maximum {MAX_SIZE}")
        return value

    return parse_int


POSITIVE = _bounded_int(1)
NON_NEGATIVE = _bounded_int(0)


def cmd_tau(args):
    print(tau(args.n, args.strategy))
    return EXIT_OK


def _printable(path, value):
    """Refuse value if it is too long to print (the int/str digit limit):
    a usage error."""
    try:
        str(value)
    except ValueError as exc:
        raise SystemExit(f"cannot write {path}: {exc}") from None


def _write(path, widest, dump):
    """Call dump(fh) on the file at path, opened for writing.  widest, a
    value with as many digits as any that dump writes, is turned into text
    first, so a table too long to print leaves no file; that and a path
    that cannot be written are usage errors."""
    _printable(path, widest)
    try:
        with open(path, "w", newline="") as fh:
            dump(fh)
    except OSError as exc:
        raise SystemExit(f"cannot write {path}: {exc.strerror or exc}") from None


def _write_csv(path, widest, rows):
    """Integer rows (n, value) under the header "n,value", each line ended
    by \r\n: the bytes csv.writer writes, since integers need no quoting."""

    def dump(fh):
        fh.write("n,value\r\n")
        fh.writelines(map("%d,%d\r\n".__mod__, rows))

    _write(path, widest, dump)


def cmd_tau_table(args):
    values = tau_range(args.max_n, args.strategy)
    widest = max(values, key=abs)
    rows = zip(range(1, args.max_n + 1), values[1:])
    if args.format == "csv":
        _write_csv(args.out, widest, rows)
    else:
        payload = {
            "tool-version": __version__,
            "strategy": args.strategy,
            "values": [[n, v] for n, v in rows],
        }
        _write(args.out, widest, lambda fh: json.dump(payload, fh, indent=2))
    print(f"wrote tau(1..{args.max_n}) to {args.out}")
    return EXIT_OK


def cmd_sigma(args):
    limit = sys.get_int_max_str_digits()
    if limit and args.max_n ** args.k >= 10 ** limit:
        # sigma_k(max_n) >= max_n^k is too long to print: refuse before sieving
        _printable(args.out, args.max_n ** args.k)
    table = sigma_table(args.k, args.max_n)
    rows = ((n, table[n]) for n in range(1, args.max_n + 1))
    _write_csv(args.out, max(table.values), rows)
    print(f"wrote sigma_{args.k}(1..{args.max_n}) to {args.out}")
    return EXIT_OK


def cmd_verify(args):
    from .identities import builtin_registry, in_turn, make_context, verify_range
    registry = builtin_registry()
    records = _select_identities(registry, args.identity)
    ctx = make_context(args.max_n)
    reports = [verify_range(r, args.max_n, ctx) for r in in_turn(records, ctx)]
    results = [_result_entry(r, rep) for r, rep in zip(records, reports)]
    if args.format == "json":
        for entry in results:
            entry["failures"] = [entry["first_failure"]] if entry["first_failure"] else []
        payload = {"tool-version": __version__, "truncation": args.max_n, "results": results}
        print(json.dumps(payload, indent=2))
    else:
        for entry in results:
            line = f"{entry['id']}: {entry['status']}"
            if entry["first_failure"]:
                f = entry["first_failure"]
                line += f" (first failure n={f['n']}: lhs={f['lhs']}, rhs={f['rhs']})"
            print(line)
    bad = [e for e in results if e["status"] == "failed"]
    return EXIT_VERIFICATION if bad else EXIT_OK


def cmd_certify(args):
    from .identities import builtin_registry, certification_limit, certify, in_turn, make_context
    registry = builtin_registry()
    records = _select_identities(registry, args.identity)
    ctx = make_context(max(certification_limit(r) for r in records))
    reports = [certify(r, ctx) for r in in_turn(records, ctx)]
    failures = 0
    for record, report in zip(records, reports):
        status = _shown_status(record, report)
        failures += status == "failed"
        line = f"{record.id}: {status} (bound {report.certification_bound})"
        if report.detail:
            line += f" - {report.detail}"
        print(line)
    return EXIT_VERIFICATION if failures else EXIT_OK


def cmd_congruences(args):
    from .identities import builtin_registry, check_congruences
    records = builtin_registry().congruences
    failures = 0
    for record, report in zip(records, check_congruences(records, args.max_n)):
        line = f"{record.id}: {report.status} (mod {record.modulus}"
        if record.gcd_condition != 1:
            line += f", gcd(n,{record.gcd_condition})=1"
        line += ")"
        if report.first_failure:
            n, lhs, rhs = report.first_failure
            line += f" first failure n={n}: lhs={lhs}, rhs={rhs}"
            failures += 1
        print(line)
    return EXIT_VERIFICATION if failures else EXIT_OK


def cmd_audit(args):
    from .identities import audit_all
    report = audit_all(args.max_n)
    for entry in report.entries:
        line = f"{entry.id}: {entry.status}"
        if entry.status != "verified" and entry.fit is not None and entry.fit.success:
            deltas = ", ".join(
                f"{c.description}: stated {c.stated}, fitted {c.fitted}"
                for c in entry.fit.discrepancies
            )
            line += f" [refit: {deltas}]"
        print(line)
    for entry in report.congruences:
        print(f"{entry.id}: {entry.status}")
    print("-- findings --")
    for finding in report.findings:
        print(f"{finding.id}: claimed {finding.claimed}; computed {finding.computed}")
        print(f"  {finding.detail}")
    print(f"audit {'ok' if report.ok else 'FAILED'}")
    return EXIT_OK if report.ok else EXIT_VERIFICATION


def cmd_decompose(args):
    from .expr import EvalError, eval_expr, parse
    from .quasidecomp import NotInGradedSpace, decompose
    try:
        form = eval_expr(parse(args.expr), args.trunc)
        record = decompose(form, args.weight, args.depth)
    except NotInGradedSpace as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except (EvalError, ValueError) as exc:  # ParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    coords = {label: _rat(c) for label, c in record.coordinates if c != 0}
    print(json.dumps(coords, indent=2))
    return EXIT_OK


def cmd_eval(args):
    from .expr import EvalError, eval_expr, parse
    try:
        form = eval_expr(parse(args.expr), args.trunc)
        if args.coeff is not None:
            print(_rat(form.coefficient(args.coeff)))
            return EXIT_OK
        # a coefficient past the int/str digit limit raises ValueError here,
        # before anything is printed
        text = form.series.to_text(max_terms=12)
    except (EvalError, ValueError, IndexError) as exc:  # ParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    weight = "inhomogeneous" if form.weight is None else form.weight
    print(f"weight: {weight}, depth bound: {form.depth}")
    print(text)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tauforms",
        description="exact q-expansion engine: tau identities, brackets, decompositions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tau", help="one tau value")
    p.add_argument("--n", type=POSITIVE, required=True)
    p.add_argument("--strategy", choices=TAU_STRATEGIES, default="product")
    p.set_defaults(func=cmd_tau)

    p = sub.add_parser("tau-table", help="tau(1..N) to CSV or JSON")
    p.add_argument("--max-n", type=POSITIVE, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--strategy", choices=TAU_STRATEGIES, default="product")
    p.set_defaults(func=cmd_tau_table)

    p = sub.add_parser("sigma", help="sigma_k(1..N) to CSV")
    p.add_argument("--k", type=NON_NEGATIVE, required=True)
    p.add_argument("--max-n", type=POSITIVE, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sigma)

    p = sub.add_parser("verify", help="pointwise residual verification")
    p.add_argument("--identity", default="all")
    p.add_argument("--max-n", type=POSITIVE, default=DEFAULT_RANGE)
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("certify", help="series-level certification")
    p.add_argument("--identity", default="all")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("audit", help="verify + certify everything, refit failures")
    p.add_argument("--max-n", type=POSITIVE, default=DEFAULT_RANGE)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("congruences", help="check every catalogued congruence")
    p.add_argument("--max-n", type=POSITIVE, default=DEFAULT_RANGE)
    p.set_defaults(func=cmd_congruences)

    p = sub.add_parser("decompose", help="graded coordinates of an expression")
    p.add_argument("--expr", required=True)
    p.add_argument("--weight", type=NON_NEGATIVE, required=True)
    p.add_argument("--depth", type=NON_NEGATIVE, default=None)
    p.add_argument("--trunc", type=NON_NEGATIVE, default=DEFAULT_TRUNCATION)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("eval", help="evaluate an expression to a q-series")
    p.add_argument("--expr", required=True)
    p.add_argument("--trunc", type=NON_NEGATIVE, default=DEFAULT_TRUNCATION)
    p.add_argument("--coeff", type=NON_NEGATIVE, default=None)
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except InternalInconsistency as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except MemoryError:
        print(f"error: out of memory running {args.command}", file=sys.stderr)
        return EXIT_INTERNAL
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(f"error: {exc.code}", file=sys.stderr)
            return EXIT_USAGE
        return int(exc.code) if exc.code is not None else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
