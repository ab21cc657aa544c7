"""Mean latency of each request kind in the benchmark's session workload.

perfbench's session workload reports one geometric mean over its request
kinds.  This script replays one pass of the same seeded request stream
(`perfbench/run.py`'s `SessionLoad.stream`) in this process, serves each
request with the benchmark worker's own `handle`, checks each answer with
the workload's oracles, and prints every kind's count, mean latency in
raw milliseconds, and failed checks; tau requests are also split by
strategy, and the exit status is 1 when any answer fails its check.  As
in the benchmark, the pass starts with an empty named-form store and the
catalogue built.  Run from the repository root:

    python3 scripts/session_kinds.py --seed 1 > kinds.json
    python3 scripts/session_kinds.py --src ../parent/src --pass-index 3

--src DIR measures the tauforms package under DIR instead of this tree's
src, so that two trees can be measured alike by the same harness.
"""

import argparse
import json
import platform
import random
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def replay(seed, pass_index):
    """(kind, seconds, problems) for each request of one seeded pass."""
    import tauforms
    import tauforms.cli  # noqa: F401  (what the benchmark worker loads)
    from run import FULL, SessionLoad
    from worker import handle

    registry = tauforms.builtin_registry()
    load = SessionLoad(None, FULL)
    reqs = load.stream(random.Random(f"{seed}:{pass_index}"), [r.id for r in registry.identities])
    for req in reqs:
        wire = {k: v for k, v in req.items() if not k.startswith("_")}
        seconds, out = handle(tauforms, registry, wire)
        kind = req["op"] if req["op"] != "tau" else f"tau.{req['strategy']}"
        yield kind, seconds, load.check(req, out)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pass-index", type=int, default=0)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(args.src), str(ROOT / "perfbench")]
    kinds = {}
    for kind, seconds, problems in replay(args.seed, args.pass_index):
        # the benchmark's kind is "tau", every strategy together
        for name in (kind, "tau") if kind.startswith("tau.") else (kind,):
            entry = kinds.setdefault(name, {"seconds": [], "failed": 0})
            entry["seconds"].append(seconds)
            entry["failed"] += bool(problems)
    result = {
        "src": str(args.src),
        "seed": args.seed,
        "pass_index": args.pass_index,
        "python": platform.python_version(),
        "kinds": {
            kind: {
                "count": len(e["seconds"]),
                "mean_ms": round(statistics.fmean(e["seconds"]) * 1000, 4),
                "failed": e["failed"],
            }
            for kind, e in sorted(kinds.items())
        },
    }
    json.dump(result, sys.stdout, indent=2)
    print()
    return 1 if any(e["failed"] for e in kinds.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
