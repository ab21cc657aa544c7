"""Peak resident memory of each catalogue command and tau-table strategy.

Each command runs through `tauforms.cli.main` in a fresh interpreter, after
importing tauforms and building the catalogue (the set-up every CLI call
pays), with its standard output sent to /dev/null.  The interpreter then
reads its own peak resident set size, VmHWM in /proc/self/status (Linux
only; unlike ru_maxrss it starts again at exec, so the parent does not
show), and reports it with the seconds that main() took.

Without --max-n every command runs at the size of the benchmark's
workloads (verify --format json at 2000, congruences at 10000, audit at
500, tau-table at 8192); with it, every sized command runs at N.  certify
takes no size.  tau-table writes CSV, as in the benchmark, or with
--format json a JSON file.  Run from the repository root:

    PYTHONPATH=src python3 scripts/peak_rss.py > peaks.json
    python3 scripts/peak_rss.py --max-n 50000 --only verify --runs 5
    python3 scripts/peak_rss.py --format json --only tau-table-product

--src DIR measures the tauforms package under DIR instead of this tree's
src, so that two trees can be measured alike.  --without-gmp runs the
kernel as on a host where libgmp does not load.  --runs repeats the whole
list, command after command, and every run is reported.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
STRATEGIES = ("product", "eisenstein", "vdp", "niebur")

CHILD = r"""
import json, os, sys, time
import tauforms, tauforms.cli
if sys.argv[2] == "without-gmp":
    tauforms.qseries._gmp = lambda: None
tauforms.builtin_registry()
argv = json.loads(sys.argv[1])
stdout, sys.stdout = sys.stdout, open(os.devnull, "w")
start = time.perf_counter()
code = tauforms.cli.main(argv)
seconds = time.perf_counter() - start
sys.stdout = stdout
with open("/proc/self/status") as fh:
    kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(json.dumps({"exit": code, "seconds": seconds, "vmhwm_kb": kb}))
"""


def commands(max_n, out, fmt="csv"):
    """(name, argv) of every measured command; max_n None means the
    benchmark's sizes, fmt is tau-table's --format."""

    def size(default):
        return str(default if max_n is None else max_n)

    yield "verify", ["verify", "--identity", "all", "--max-n", size(2000), "--format", "json"]
    yield "congruences", ["congruences", "--max-n", size(10000)]
    yield "certify", ["certify", "--identity", "all"]
    yield "audit", ["audit", "--max-n", size(500)]
    for strategy in STRATEGIES:
        argv = ["tau-table", "--max-n", size(8192), "--strategy", strategy, "--format", fmt]
        argv += ["--out", out]
        yield f"tau-table-{strategy}", argv


def measure(argv, src, without_gmp=False):
    """One fresh interpreter running argv: {"exit", "seconds", "vmhwm_kb"}."""
    env = dict(os.environ, PYTHONPATH=str(src))
    kernel = "without-gmp" if without_gmp else "as-found"
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(argv), kernel],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(proc.stdout)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=None)
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--only", nargs="+", default=None, help="command names to run")
    parser.add_argument("--src", type=Path, default=SRC)
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--without-gmp", action="store_true", help="keep libgmp unloaded")
    args = parser.parse_args(argv)
    result = {
        "max_n": args.max_n,
        "src": str(args.src),
        "format": args.format,
        "without_gmp": args.without_gmp,
        "python": platform.python_version(),
        "commands": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        todo = [
            (name, cmd)
            for name, cmd in commands(args.max_n, os.path.join(tmp, "table.out"), args.format)
            if args.only is None or name in args.only
        ]
        for _ in range(args.runs):
            for name, cmd in todo:
                run = measure(cmd, args.src, args.without_gmp)
                entry = result["commands"].setdefault(
                    name, {"argv": cmd[:-2] if cmd[-2] == "--out" else cmd,
                           "exit": run["exit"], "vmhwm_mb": [], "seconds": []}
                )
                entry["vmhwm_mb"].append(round(run["vmhwm_kb"] / 1024, 2))
                entry["seconds"].append(round(run["seconds"], 3))
    json.dump(result, sys.stdout, indent=2)
    print()


if __name__ == "__main__":
    main()
