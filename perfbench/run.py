"""tauforms benchmark: three seeded closed-loop workloads, checked exactly.

    python3 perfbench/run.py --workload {catalogue,tau-tables,session}
                             --seed N --seconds S --trace {0,1}

Run from a checkout of the repository; the program is imported from
``src`` in that checkout, in worker processes started one at a time (one
client, closed loop: the next request goes out when the previous reply is
in).  Every operation's output is checked by the independent oracles in
checks.py; an operation fails when its check fails or its command exits
non-zero.

With --trace 0 the run measures the end-to-end metrics.  Times are graded
at a nominal host speed: each is scaled by a reference loop timed in the
same worker around it (worker.reference_seconds), because the host's
speed drifts by up to half for tens of seconds at a time; the report line
also gives the raw seconds.
With --trace 1 it runs the same seeded operation list once untraced and
once with every public layer wrapped in spans (tracer.py), and reports
the per-layer metrics plus the tracing overhead.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}; the line
before it is a report with every metric, its unit and its sample count.
spec.json says which end-to-end metric each layer metric should move.
"""

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKER = HERE / "worker.py"
TIME_LIMIT = 170.0  # seconds for the whole run, set-up included


@dataclass(frozen=True)
class Sizes:
    """Problem sizes of the workloads (the self-test shrinks them)."""

    verify_n: int = 2000
    congruence_n: int = 10000
    audit_n: int = 500
    tau_table_n: int = 8192
    session_requests: int = 240
    trunc_lo: int = 24
    trunc_hi: int = 256
    trunc_pool: int = 12
    tau_single_max: int = 3000
    coprime_pairs: int = 200
    setup_samples: int = 11


FULL = Sizes()

STRATEGIES = ("product", "eisenstein", "vdp", "niebur")

# --------------------------------------------------------------------------
# metric tables

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_geomean_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
# Times are graded at a nominal host speed: measured seconds times
# REF_NOMINAL_S over the reference loop's time in the same process around
# the measurement (worker.reference_seconds); the report gives raw seconds.
REF_NOMINAL_S = 0.05
SETUPS_PER_PASS = 2

LAYERS = (
    "qseries.mul_small",
    "qseries.mul_mid",
    "qseries.mul_large",
    "qseries.pow",
    "qseries.linear",
    "forms.delta_product",
    "forms.delta_from_eisenstein",
    "forms.tau_range.product",
    "forms.tau_range.eisenstein",
    "forms.tau_range.vdp",
    "forms.tau_range.niebur",
    "forms.tau",
    "forms.sigma_table",
    "forms.eisenstein",
    "brackets.rc_bracket",
    "brackets.quasi_bracket",
    "quasidecomp.solve_exact",
    "quasidecomp.decompose",
    "quasidecomp.modular_basis",
    "quasidecomp.graded_generators",
    "identities.builtin_registry",
    "identities.make_context",
    "identities.side_bulk",
    "identities.side_value",
    "identities.side_series",
    "identities.verify_range",
    "identities.check_congruence",
    "identities.certify",
    "identities.fit_identity",
    "identities.audit_all",
    "expr.parse",
    "expr.eval_expr",
    "cli.main",
)
MUL_LAYERS = ("qseries.mul_small", "qseries.mul_mid", "qseries.mul_large")
REPEAT_LAYERS = (
    "forms.sigma_table",
    "forms.eisenstein",
    "quasidecomp.modular_basis",
    "quasidecomp.graded_generators",
)
COUNTS = (
    ("quasidecomp.solve_exact.cells", "count"),
    ("quasidecomp.decompose.rejected", "count"),
    ("identities.verify_range.failed", "count"),
    ("identities.check_congruence.failed", "count"),
    ("identities.certify.failed", "count"),
    ("cli.main.nonzero_exit", "count"),
)


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for layer in LAYERS:
        out += [(layer + ".calls", "count"), (layer + ".self_s", "s")]
    out += [
        ("qseries.mul.rational_frac", "frac"),
        ("qseries.mul.coeffs", "count"),
        ("qseries.mul.operand_mbit", "Mbit"),
    ]
    out += [(layer + ".repeat_frac", "frac") for layer in REPEAT_LAYERS]
    out += list(COUNTS)
    out.append(("trace.overhead_frac", "frac"))
    return out


# --------------------------------------------------------------------------
# running workers


@dataclass
class Op:
    """One timed operation and its verdict."""

    name: str
    seconds: float
    problems: list
    verdict: object = None  # compared between untraced and traced passes
    rss_kb: int = 0
    cpu_seconds: float | None = None
    ref: float = 0.0  # reference-loop seconds around the operation
    layers: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)


class Runner:
    """Starts workers from the checkout, within the run's time limit."""

    def __init__(self, deadline):
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )

    def remaining(self):
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError("benchmark time limit reached")
        return left

    def worker_argv(self, mode, spans):
        argv = [sys.executable, str(WORKER), mode]
        return argv + (["--spans", str(spans)] if spans else [])

    def setup_seconds(self):
        """(seconds from starting an interpreter until tauforms is imported
        and the catalogue built, that interpreter's reference-loop time)."""
        start = time.perf_counter()
        proc = subprocess.Popen(
            self.worker_argv("setup", None), stdout=subprocess.PIPE, env=self.env, text=True
        )
        watchdog = threading.Timer(self.remaining(), proc.kill)
        watchdog.daemon = True
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            seconds = time.perf_counter() - start
            ref = proc.stdout.readline()
            proc.wait()
        finally:
            watchdog.cancel()
            proc.stdout.close()
        if ready.strip() != "ready" or proc.returncode:
            raise RuntimeError(f"set-up worker failed (exit {proc.returncode})")
        return seconds, float(ref)

    def cli(self, argv, spans=None):
        proc = subprocess.run(
            self.worker_argv("cli", spans) + ["--"] + argv,
            capture_output=True,
            text=True,
            env=self.env,
            timeout=self.remaining(),
        )
        if proc.returncode:
            raise RuntimeError(f"worker for {argv[0]} crashed:\n{proc.stderr}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def session(self, spans=None):
        return Session(self, spans)


class Session:
    """A long-lived session worker answering one request at a time."""

    def __init__(self, runner, spans):
        self.proc = subprocess.Popen(
            runner.worker_argv("session", spans),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=runner.env,
            text=True,
        )
        self.watchdog = threading.Timer(runner.remaining(), self.proc.kill)
        self.watchdog.daemon = True
        self.watchdog.start()
        try:
            self.hello = self._read()
        except BaseException:
            self.stop()
            raise

    def _read(self):
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("session worker stopped answering")
        return json.loads(line)

    def request(self, req):
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self):
        """End the session; returns the worker's final report."""
        try:
            self.proc.stdin.close()
            return self._read()
        finally:
            self.stop()

    def stop(self):
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass  # the worker is gone already
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.watchdog.cancel()
        self.proc.stdout.close()


def _identity(op, output):
    return output


# --------------------------------------------------------------------------
# workloads


class CliWorkload:
    """Commands run one at a time, each in a fresh interpreter."""

    def __init__(self, runner, sizes, tamper=_identity):
        self.runner, self.sizes, self.tamper = runner, sizes, tamper

    def command(self, name, argv, spans_dir, read, check):
        """Run one command; read(result) gives its output, check(output)
        its problems."""
        spans = spans_dir / f"{name}.json" if spans_dir else None
        result = self.runner.cli(argv, spans)
        problems = [] if result["exit"] == 0 else [f"{name} exited {result['exit']}"]
        text = self.tamper(name, read(result))
        try:
            problems += check(text)
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"{name} output unreadable: {exc!r}")
        return Op(
            name,
            result["seconds"],
            problems,
            text,
            result["rss_kb"],
            result["cpu_seconds"],
            result["ref_seconds"],
            result.get("layers", {}),
            result.get("counters", {}),
        )


class Catalogue(CliWorkload):
    """The catalogue commands as a CLI user runs them."""

    def __init__(self, runner, sizes, tamper=_identity):
        super().__init__(runner, sizes, tamper)
        self.commands = {
            "verify": (
                ["verify", "--identity", "all", "--max-n", str(sizes.verify_n), "--format", "json"],
                lambda text: checks.check_verify_json(text, sizes.verify_n),
            ),
            "congruences": (
                ["congruences", "--max-n", str(sizes.congruence_n)],
                checks.check_congruences_text,
            ),
            "certify": (["certify", "--identity", "all"], checks.check_certify_text),
            "audit": (["audit", "--max-n", str(sizes.audit_n)], checks.check_audit_text),
        }

    def run_pass(self, rng, spans_dir=None):
        names = list(self.commands)
        rng.shuffle(names)
        ops = []
        for name in names:
            argv, check = self.commands[name]
            ops.append(self.command(name, argv, spans_dir, lambda r: r["stdout"], check))
        return ops


class TauTables(CliWorkload):
    """tau-table for every strategy."""

    def __init__(self, runner, sizes, tamper=_identity):
        super().__init__(runner, sizes, tamper)
        self.sigma11 = checks.divisor_sums(11, sizes.tau_table_n)

    def check(self, text, pairs):
        values = checks.parse_tau_csv(text)
        if len(values) != self.sizes.tau_table_n + 1:
            return [f"{len(values) - 1} rows, want {self.sizes.tau_table_n}"]
        return checks.check_tau_table(values, self.sigma11, pairs)

    def run_pass(self, rng, spans_dir=None):
        order = list(STRATEGIES)
        rng.shuffle(order)
        pairs = checks.coprime_pairs(rng, self.sizes.tau_table_n, self.sizes.coprime_pairs)
        ops = []
        for strategy in order:
            path = OUT / f"tau_{strategy}.csv"
            argv = ["tau-table", "--max-n", str(self.sizes.tau_table_n)]
            argv += ["--strategy", strategy, "--out", str(path)]

            def read(result, path=path):
                text = path.read_text() if path.exists() else ""
                path.unlink(missing_ok=True)
                return text

            ops.append(
                self.command(
                    f"tau_table_{strategy}", argv, spans_dir, read, lambda t: self.check(t, pairs)
                )
            )
        # all four tables must be identical; the odd ones out fail
        common, _ = Counter(op.verdict for op in ops).most_common(1)[0]
        for op in ops:
            if op.verdict != common:
                op.problems.append(f"{op.name} differs from the other strategies")
        return ops


class SessionLoad:
    """One long-lived process serving a seeded stream of small requests."""

    MODULAR = ("E4", "E6", "E8", "E10", "E12", "Delta")
    WEIGHT = {"E4": 4, "E6": 6, "E8": 8, "E10": 10, "E12": 12, "Delta": 12}
    # factors for homogeneous quasimodular monomials: text, tree, weight
    FACTORS = (
        ("E2", ("E", 2), 2),
        ("E4", ("E", 4), 4),
        ("E6", ("E", 6), 6),
        ("D(E2)", ("D", 1, ("E", 2)), 4),
        ("D(E4)", ("D", 1, ("E", 4)), 6),
        ("D^2(E2)", ("D", 2, ("E", 2)), 6),
        ("D(E6)", ("D", 1, ("E", 6)), 8),
        ("Delta", ("Delta",), 12),
    )
    COEFFS = (Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2), Fraction(5, 7))
    REF_EVERY = 40  # requests between two timings of the reference loop

    def __init__(self, runner, sizes, tamper=_identity):
        self.runner, self.sizes, self.tamper = runner, sizes, tamper
        self.oracle = checks.ModSeries(sizes.trunc_hi)
        self.expected_cache = {}
        self.delta = checks.delta_coefficients(sizes.trunc_hi)
        self.sigma11 = checks.divisor_sums(11, sizes.tau_single_max)

    # ---- request generation

    @staticmethod
    def _atom(name):
        return ("Delta",) if name == "Delta" else ("E", int(name[1:]))

    def _monomial(self, rng, weight):
        texts, tree = [], None
        while weight:
            text, node, w = rng.choice([f for f in self.FACTORS if f[2] <= weight])
            texts.append(text)
            tree = node if tree is None else ("mul", tree, node)
            weight -= w
        return "*".join(texts), tree

    def _homogeneous(self, rng, weight):
        text, tree = "", None
        for i in range(rng.randint(1, 3)):
            c = rng.choice(self.COEFFS)
            mono_text, mono = self._monomial(rng, weight)
            term = ("mul", ("lit", c), mono)
            sign = rng.choice("+-") if i else "+"
            piece = f"{c}*{mono_text}"
            if tree is None:
                text, tree = piece, term
            else:
                text += f" {sign} {piece}"
                tree = ("add" if sign == "+" else "sub", tree, term)
        return text, tree

    def _expression(self, rng, kind):
        if kind == 0:
            a, b = rng.choice(self.MODULAR), rng.choice(self.MODULAR)
            order = rng.randint(0, 3)
            tree = ("br", self._atom(a), self.WEIGHT[a], self._atom(b), self.WEIGHT[b], order)
            return f"[{a},{b}]_{order}", tree
        if kind == 1:
            j = rng.randint(1, 3)
            a, b = rng.choice(("E2", "E4", "E6", "Delta")), rng.choice(("E2", "E4", "E6"))
            head = "D" if j == 1 else f"D^{j}"
            return f"{head}({a})*{b}", ("mul", ("D", j, self._atom(a)), self._atom(b))
        if kind == 2:
            order = rng.randint(1, 3)
            sides = []
            for _ in range(2):
                if rng.random() < 0.6:
                    a = rng.randint(0, 2)
                    head = "E2" if a == 0 else ("D(E2)" if a == 1 else f"D^{a}(E2)")
                    node = ("E", 2) if a == 0 else ("D", a, ("E", 2))
                    sides.append((head, node, 2 + 2 * a, 1 + a))
                else:
                    k = rng.choice((4, 6))
                    sides.append((f"E{k}", ("E", k), k, 0))
            (lt, ln, lw, ld), (rt, rn, rw, rd) = sides
            text = f"Phi({order}; {lt}, {lw}, {ld}; {rt}, {rw}, {rd})"
            return text, ("phi", order, ln, lw, ld, rn, rw, rd)
        return self._homogeneous(rng, rng.randrange(4, 17, 2))

    # share of each request kind in a pass; a tau entry is one n asked of
    # every strategy, so the answers can be compared
    MIX = (
        ("expr", 0.30),
        ("decompose", 0.20),
        ("rc_bracket", 0.125),
        ("e2_family", 0.05),
        ("tau", 0.05),
        ("certify", 0.125),
    )

    def stream(self, rng, ids):
        """A pass's requests.  Kinds, truncations, weights and tau sizes are
        stratified (fixed counts, drawn within strata) so that passes cost
        alike and their medians settle; what is drawn within them is seeded."""
        s = self.sizes
        span = s.trunc_hi + 1 - s.trunc_lo
        edges = [s.trunc_lo + span * i // s.trunc_pool for i in range(s.trunc_pool + 1)]
        pool = [rng.randrange(a, b) for a, b in zip(edges, edges[1:])]
        octaves = [
            (1 << j, min(s.tau_single_max, (2 << j) - 1))
            for j in range(s.tau_single_max.bit_length())
        ]
        reqs = []
        slots = 0
        for kind, share in self.MIX:
            for i in range(max(1, round(share * s.session_requests))):
                trunc = pool[slots % len(pool)]
                slots += 1
                if kind == "expr":
                    text, tree = self._expression(rng, i % 4)
                    reqs.append({"op": kind, "text": text, "trunc": trunc, "_tree": tree})
                elif kind == "decompose":
                    weight = 4 + 2 * (i % 7)
                    text, _ = self._homogeneous(rng, weight)
                    reqs.append({"op": kind, "text": text, "weight": weight, "trunc": trunc})
                elif kind == "rc_bracket":
                    if i % 3 == 0:
                        left, right, order = (("E4", "E6", 1), ("E4", "E4", 2))[i // 3 % 2]
                    else:
                        left, right = rng.choice(self.MODULAR), rng.choice(self.MODULAR)
                        order = rng.randint(0, 3)
                    reqs.append(
                        {"op": kind, "left": left, "right": right, "order": order, "trunc": trunc}
                    )
                elif kind == "e2_family":
                    reqs.append({"op": kind, "trunc": trunc})
                elif kind == "tau":
                    n = rng.randint(*octaves[i % len(octaves)])
                    reqs += [{"op": kind, "n": n, "strategy": st} for st in STRATEGIES]
                else:
                    reqs.append({"op": kind, "id": rng.choice(ids)})
        rng.shuffle(reqs)
        return reqs

    # ---- checks

    def _expected(self, tree, trunc):
        # truncation commutes with the arithmetic: evaluate once, at the top
        if tree not in self.expected_cache:
            self.expected_cache[tree] = self.oracle.evaluate(tree, self.sizes.trunc_hi)
        return self.expected_cache[tree][: trunc + 1]

    def _matches(self, coeffs, tree, trunc):
        if len(coeffs) != trunc + 1:
            return False
        return [checks.to_mod(Fraction(c)) for c in coeffs] == self._expected(tree, trunc)

    def check(self, req, out):
        op, trunc = req["op"], req.get("trunc")
        if op == "expr":
            ok = self._matches(out["coeffs"], req["_tree"], trunc)
            return [] if ok else [f"eval {req['text']!r} at {trunc} wrong"]
        if op == "decompose":
            return [] if out["roundtrip"] else [f"recompose(decompose({req['text']!r})) != input"]
        if op == "rc_bracket":
            a, b, order = req["left"], req["right"], req["order"]
            coeffs = [Fraction(c) for c in out["coeffs"]]
            multiple = {("E4", "E6", 1): -3456, ("E4", "E4", 2): 4800}.get((a, b, order))
            if multiple is not None:
                want = [multiple * t for t in self.delta[: trunc + 1]]
                return [] if coeffs == want else [f"[{a},{b}]_{order} != {multiple}*Delta"]
            tree = ("br", self._atom(a), self.WEIGHT[a], self._atom(b), self.WEIGHT[b], order)
            ok = self._matches(out["coeffs"], tree, trunc)
            return [] if ok else [f"[{a},{b}]_{order} at {trunc} wrong"]
        if op == "e2_family":
            return self._check_e2_family(out, trunc)
        if op == "tau":
            n, value = req["n"], out["value"]
            problems = []
            if (value - self.sigma11[n]) % 691:
                problems.append(f"tau({n}) = {value} not congruent to sigma11 mod 691")
            if n < len(self.delta) and value != self.delta[n]:
                problems.append(f"tau({n}) = {value}, Euler product gives {self.delta[n]}")
            return problems
        if op == "certify":
            want = "failed" if req["id"] in checks.AUDIT_FLAGGED else "certified"
            status = out["status"]
            return [] if status == want else [f"certify {req['id']}: {status} (want {want})"]
        return [f"unknown request {op}"]

    def _check_e2_family(self, out, trunc):
        def e2(a):
            return ("E", 2) if a == 0 else ("D", a, ("E", 2))

        # f_i = Phi(order; D^a E2, 2+2a, 1+a; D^b E2, 2+2b, 1+b)
        shapes = {"f1": (1, 3, 0), "f2": (1, 2, 1), "f3": (2, 2, 0),
                  "f4": (2, 1, 1), "f5": (3, 1, 0), "f6": (4, 0, 0)}
        problems = []
        for key, (order, a, b) in shapes.items():
            tree = ("phi", order, e2(a), 2 + 2 * a, 1 + a, e2(b), 2 + 2 * b, 1 + b)
            if not self._matches(out.get(key, []), tree, trunc):
                problems.append(f"e2 family {key} at {trunc} wrong")
        f = {k: [Fraction(c) for c in v] for k, v in out.items()}
        if f.get("f4") != [-3 * c for c in f.get("f2", [])]:
            problems.append("e2 family: f4 != -3*f2")
        if f.get("f6") != [-2 * c for c in f.get("f5", [])]:
            problems.append("e2 family: f6 != -2*f5")
        return problems

    def run_pass(self, rng, spans_dir=None):
        spans = spans_dir / "session.json" if spans_dir else None
        session = self.runner.session(spans)
        try:
            reqs = self.stream(rng, session.hello["ids"])
            ops, tau_ops = [], {}
            probe = session.request({"op": "ref"})["seconds"]
            for i, req in enumerate(reqs):
                wire = {k: v for k, v in req.items() if not k.startswith("_")}
                reply = session.request(wire)
                out = self.tamper(req["op"], reply["out"])
                ops.append(Op(req["op"], reply["seconds"], self.check(req, out), out))
                if req["op"] == "tau":
                    tau_ops.setdefault(req["n"], []).append(ops[-1])
                if (i + 1) % self.REF_EVERY == 0 or i + 1 == len(reqs):
                    # requests since the last probe get the mean of both probes
                    after = session.request({"op": "ref"})["seconds"]
                    for op in ops[-((i % self.REF_EVERY) + 1) :]:
                        op.ref = (probe + after) / 2
                    probe = after
            final = session.close()
        finally:
            session.stop()
        for n, group in tau_ops.items():
            if len({op.verdict["value"] for op in group}) > 1:
                for op in group:
                    op.problems.append(f"tau({n}) differs between strategies")
        # the session's memory and layer totals belong to the whole pass
        ops[-1].rss_kb = final["rss_kb"]
        ops[-1].layers = final.get("layers", {})
        ops[-1].counters = final.get("counters", {})
        return ops


WORKLOADS = {"catalogue": Catalogue, "tau-tables": TauTables, "session": SessionLoad}

# per-command medians reported beside the end-to-end metrics
COMMAND_METRICS = {
    "catalogue": {f"{c}_s": c for c in ("verify", "congruences", "certify", "audit")},
    "tau-tables": {f"tau_table_{s}_s": f"tau_table_{s}" for s in STRATEGIES},
    "session": {},
}


# --------------------------------------------------------------------------
# measurement


def _quantile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _metric(value, unit, samples):
    return {"value": value, "unit": unit, "samples": samples}


def measure(workload_name, workload, runner, seed, seconds, setup_samples):
    """Untraced run: the end-to-end metrics and the report entries."""
    runner.setup_seconds()  # compiles bytecode once; users pay that once
    setups, passes = [], []
    start = time.monotonic()
    while True:
        pass_start = time.monotonic()
        # set-up samples are spread over the run like the operations
        setups += [runner.setup_seconds() for _ in range(SETUPS_PER_PASS)]
        passes.append(workload.run_pass(random.Random(f"{seed}:{len(passes)}")))
        # another pass only if at least half of it fits in the time left
        elapsed = time.monotonic() - start
        if elapsed + (time.monotonic() - pass_start) / 2 > seconds:
            break
    setups += [runner.setup_seconds() for _ in range(setup_samples - len(setups))]
    ops = [op for p in passes for op in p]
    n, k = len(ops), len(passes)
    raw = [op.seconds for op in ops]
    nominal = [op.seconds * REF_NOMINAL_S / op.ref for op in ops]
    failed = sum(1 for op in ops if op.problems)
    report = {
        "setup_s": _metric(
            statistics.median(t * REF_NOMINAL_S / ref for t, ref in setups), "s", len(setups)
        ),
        # totals over the run per pass: the host's speed drifts for tens of
        # seconds at a time, and a mean weighs those spells by duration
        "wall_s": _metric(sum(nominal) / k, "s", k),
        # each kind of operation (command, strategy, request kind) counts
        # once, whatever its share of the time; a kind's mean, unlike its
        # median, does not jump between the sizes mixed within the kind
        "op_geomean_ms": _metric(
            statistics.geometric_mean(
                statistics.fmean(op.seconds * REF_NOMINAL_S / op.ref for op in ops if op.name == kind)
                for kind in {op.name for op in ops}
            )
            * 1000,
            "ms",
            n,
        ),
        "peak_rss_mb": _metric(max(op.rss_kb for op in ops) / 1024, "MB", n),
        "op_p50_ms": _metric(_quantile(nominal, 50) * 1000, "ms", n),
        "op_p95_ms": _metric(_quantile(nominal, 95) * 1000, "ms", n),
        "failed_frac": _metric(failed / n, "frac", n),
        "setup_raw_s": _metric(statistics.median(t for t, _ in setups), "s", len(setups)),
        "wall_raw_s": _metric(sum(raw) / k, "s", k),
        "op_p50_raw_ms": _metric(_quantile(raw, 50) * 1000, "ms", n),
        "op_p95_raw_ms": _metric(_quantile(raw, 95) * 1000, "ms", n),
        "ref_ms": _metric(statistics.median(op.ref for op in ops) * 1000, "ms", n),
    }
    for metric, command in COMMAND_METRICS[workload_name].items():
        picked = [op for op in ops if op.name == command]
        report[metric] = _metric(
            statistics.median(op.seconds * REF_NOMINAL_S / op.ref for op in picked), "s", len(picked)
        )
        report[metric[:-2] + "_raw_s"] = _metric(
            statistics.median(op.seconds for op in picked), "s", len(picked)
        )
    cpu = [(op.cpu_seconds, op.seconds) for op in ops if op.cpu_seconds is not None]
    if cpu:
        report["cpu_over_wall"] = _metric(
            sum(c for c, _ in cpu) / sum(w for _, w in cpu), "frac", len(cpu)
        )
    metrics = {name: {"value": report[name]["value"], "unit": unit} for name, unit in END_TO_END}
    return ops, metrics, report


def measure_traced(workload_name, workload, runner, seed):
    """One untraced and one traced pass over the same seeded operations."""
    plain = workload.run_pass(random.Random(f"{seed}:0"))
    spans_dir = OUT / "spans" / workload_name
    shutil.rmtree(spans_dir, ignore_errors=True)
    spans_dir.mkdir(parents=True)
    traced = workload.run_pass(random.Random(f"{seed}:0"), spans_dir)
    for a, b in zip(plain, traced):
        if a.verdict != b.verdict:
            b.problems.append(f"{b.name}: traced output differs from untraced")
    layers, counters = {}, {}
    for op in traced:
        for layer, (count, self_ns) in op.layers.items():
            entry = layers.setdefault(layer, [0, 0])
            entry[0] += count
            entry[1] += self_ns
        for counter, value in op.counters.items():
            counters[counter] = counters.get(counter, 0) + value

    def calls(name):
        return layers.get(name, [0, 0])[0]

    values = {}
    for layer in LAYERS:
        values[layer + ".calls"] = calls(layer)
        values[layer + ".self_s"] = layers.get(layer, [0, 0])[1] / 1e9
    mul_calls = sum(calls(m) for m in MUL_LAYERS)
    values["qseries.mul.rational_frac"] = counters.get("qseries.mul.rational", 0) / max(mul_calls, 1)
    values["qseries.mul.coeffs"] = counters.get("qseries.mul.coeffs", 0)
    values["qseries.mul.operand_mbit"] = counters.get("qseries.mul.operand_bits", 0) / 1e6
    for layer in REPEAT_LAYERS:
        values[layer + ".repeat_frac"] = counters.get(layer + ".repeat", 0) / max(calls(layer), 1)
    for name, _ in COUNTS:
        values[name] = counters.get(name, 0)
    # at nominal speed, so that drift of the host's speed between the two
    # passes does not read as tracing cost
    wall_plain = sum(op.seconds / op.ref for op in plain)
    wall_traced = sum(op.seconds / op.ref for op in traced)
    values["trace.overhead_frac"] = wall_traced / wall_plain - 1
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in per_layer_units()}
    report = {name: dict(m, samples=1) for name, m in metrics.items()}
    report["trace.spans"] = _metric(sum(c for c, _ in layers.values()), "count", 1)
    return plain + traced, metrics, report


def run(workload_name, seed, seconds, trace, sizes=FULL, tamper=_identity):
    """Run one workload; returns (report, result) as printed."""
    if not (SRC / "tauforms" / "__init__.py").is_file():
        raise FileNotFoundError(f"no tauforms sources under {SRC}")
    runner = Runner(time.monotonic() + TIME_LIMIT)
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[workload_name](runner, sizes, tamper)
    if trace:
        ops, metrics, report = measure_traced(workload_name, workload, runner, seed)
    else:
        ops, metrics, report = measure(workload_name, workload, runner, seed, seconds, sizes.setup_samples)
    failed = [op for op in ops if op.problems]
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }
    full = {
        "workload": workload_name,
        "seed": seed,
        "trace": trace,
        "metrics": report,
        "problems": [p for op in failed for p in op.problems][:20],
    }
    return full, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        full, result = run(args.workload, args.seed, args.seconds, args.trace)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name, m in full["metrics"].items():
        print(f"# {name:40s} {m['value']:>16.6g} {m['unit']:6s} n={m['samples']}")
    for problem in full["problems"]:
        print(f"# FAILED: {problem}")
    print(json.dumps(full))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
