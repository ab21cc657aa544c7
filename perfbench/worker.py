"""Worker process for the benchmark: one CLI call, or one session.

    worker.py setup
        import tauforms and tauforms.cli, build the catalogue, print
        "ready", then the reference loop's time, and exit
    worker.py cli [--spans FILE] -- ARGV...
        set up as above, then time tauforms.cli.main(ARGV) with its standard
        output captured, between two timings of the reference loop; print
        one JSON result line
    worker.py session [--spans FILE]
        set up, print a hello line with the identity ids, then answer one
        JSON request per input line until end of input; {"op": "ref"}
        times the reference loop

With --spans the traced layers are wrapped (see tracer.py) after the
import, the spans are written to FILE at the end, and the per-layer
totals ride along in the result.  The caller puts ``src`` on PYTHONPATH.
"""

import contextlib
import io
import json
import resource
import sys
import time
from fractions import Fraction

from tracer import Tracer, install


def _reference_work():
    limit = 10000
    sigma = [0] * (limit + 1)
    for d in range(1, limit + 1):
        cube = d * d * d
        for n in range(d, limit + 1, d):
            sigma[n] += cube
    total = Fraction(0)
    for n in range(1, 1200):
        total += Fraction(sigma[n] * n, n + 1)
    packed = int.from_bytes(b"".join(v.to_bytes(16, "little") for v in sigma[:2500]), "little")
    packed *= packed >> 7
    table = {}
    for i in range(35000):
        table[i * 7919 % 2003] = (i, i * i)


def reference_seconds():
    """Time of a fixed stdlib computation, taken in this process.

    The host's speed drifts by up to half over tens of seconds, for every
    process alike, and operation times divided by this loop's time,
    measured just before and after them, drift far less.  It does the kinds
    of work tauforms does (a divisor sieve over lists, Fraction sums,
    packing integers into bytes and one big-integer product, dictionary
    churn, all in little memory, so that it barely moves a worker's peak
    RSS) but calls nothing in it.  The first round warms the allocator,
    so that the heap a process has built does not change the second,
    timed one; about 0.05 s on a quiet host.
    """
    _reference_work()
    start = time.perf_counter()
    _reference_work()
    return time.perf_counter() - start


def _setup(spans_path):
    import tauforms
    import tauforms.cli  # noqa: F401  (what the console entry point loads)

    tracer = install(Tracer()) if spans_path else None
    return tauforms, tauforms.builtin_registry(), tracer


def peak_rss_kb():
    """This process's peak resident set size since it started its program.

    On Linux ru_maxrss also counts the pages of the parent that forked it,
    so the benchmark's own memory would show; VmHWM starts again at exec.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _finish(tracer, spans_path, payload):
    payload["rss_kb"] = peak_rss_kb()
    if tracer is not None:
        tracer.dump(spans_path)
        payload["layers"] = tracer.layers()
        payload["counters"] = dict(tracer.counters)
    return payload


def run_cli(argv, spans_path):
    tauforms, _, tracer = _setup(spans_path)
    main = tauforms.cli.main  # the traced wrapper when tracing
    captured = io.StringIO()
    before = reference_seconds()
    cpu = time.process_time()
    start = time.perf_counter()
    with contextlib.redirect_stdout(captured):
        code = main(argv)
    seconds = time.perf_counter() - start
    cpu = time.process_time() - cpu
    ref = (before + reference_seconds()) / 2
    return _finish(
        tracer,
        spans_path,
        {
            "exit": code,
            "stdout": captured.getvalue(),
            "seconds": seconds,
            "cpu_seconds": cpu,
            "ref_seconds": ref,
        },
    )


def _named_form(tf, name, trunc):
    if name == "Delta":
        return tf.delta_product(trunc)
    return tf.eisenstein(int(name[1:]), trunc)


def _coeffs(form):
    return [str(c) for c in form.series.coefficients]


def handle(tf, registry, req):
    """Serve one request; returns (seconds, output for the checks)."""
    op = req["op"]
    trunc = req.get("trunc")
    clock = time.perf_counter
    if op == "expr":
        start = clock()
        form = tf.eval_expr(tf.parse(req["text"]), trunc)
        seconds = clock() - start
        return seconds, {"coeffs": _coeffs(form), "weight": form.weight}
    if op == "decompose":
        start = clock()
        form = tf.eval_expr(tf.parse(req["text"]), trunc)
        record = tf.decompose(form, req["weight"])
        back = tf.recompose(record, trunc)
        seconds = clock() - start
        return seconds, {"roundtrip": back.series.coefficients == form.series.coefficients}
    if op == "rc_bracket":
        start = clock()
        left = _named_form(tf, req["left"], trunc)
        right = _named_form(tf, req["right"], trunc)
        form = tf.rc_bracket(left, right, req["order"])
        seconds = clock() - start
        return seconds, {"coeffs": _coeffs(form)}
    if op == "e2_family":
        start = clock()
        family = tf.e2_bracket_family(trunc)
        seconds = clock() - start
        return seconds, {key: _coeffs(f) for key, f in family.items()}
    if op == "tau":
        start = clock()
        value = tf.tau(req["n"], req["strategy"])
        seconds = clock() - start
        return seconds, {"value": value}
    if op == "ref":
        return reference_seconds(), {}
    if op == "certify":
        record = registry.by_id[req["id"]]
        start = clock()
        report = tf.certify(record)
        seconds = clock() - start
        return seconds, {"status": report.status}
    raise ValueError(f"unknown request {op!r}")


def run_session(spans_path):
    tf, registry, tracer = _setup(spans_path)
    out = sys.stdout
    out.write(json.dumps({"ids": [r.id for r in registry.identities]}) + "\n")
    out.flush()
    for line in sys.stdin:
        seconds, result = handle(tf, registry, json.loads(line))
        out.write(json.dumps({"seconds": seconds, "out": result}) + "\n")
        out.flush()
    out.write(json.dumps(_finish(tracer, spans_path, {"done": True})) + "\n")


def main(argv):
    mode, rest = argv[0], argv[1:]
    spans_path = None
    if rest[:1] == ["--spans"]:
        spans_path, rest = rest[1], rest[2:]
    if mode == "setup":
        _setup(None)
        print("ready", flush=True)
        print(reference_seconds(), flush=True)
    elif mode == "cli":
        if rest[:1] == ["--"]:
            rest = rest[1:]
        print(json.dumps(run_cli(rest, spans_path)))
    elif mode == "session":
        run_session(spans_path)
    else:
        raise SystemExit(f"unknown worker mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
