"""Time the two packings of `tauforms.qseries`' Kronecker kernel by size.

For sigma_3, sigma_5 and sigma_11 coefficient vectors of 64..16384
coefficients this times the hex route (CPython `int`) and the decimal
route (libmpdec) of `_packed_sum` on the same product, alternating between
them, and keeps the fastest of several runs of each.  It times a product
of two distinct vectors and a squaring (one vector passed twice).  The
crossover it prints is the smallest packed operand size (coefficients
times slot width, in decimal digits) at and above which the decimal route
won every timing; it is what `qseries._DECIMAL_THRESHOLD` is set from.

Run from the repository root:

    PYTHONPATH=src python3 scripts/mul_crossover.py > sweep.json
"""

import json
import platform
import sys
import time

from tauforms.forms import sigma_table
from tauforms.qseries import _packed_sum

SIZES = (64, 96, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048, 3072, 4096, 6144, 8192,
         12288, 16384)
EXPONENTS = (3, 5, 11)


def best_of(terms, n, base, width, runs):
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        _packed_sum(terms, n, 0, base, width)
        times.append(time.perf_counter() - t0)
    return min(times)


def measure(k, size):
    """One row: both routes on sigma_k * sigma_k (two copies, then one
    vector squared) at `size` coefficients, with the kernel's slot widths."""
    a = list(sigma_table(k, size - 1).values)
    b = list(a)
    n = size - 1
    bound = size * max(a) ** 2  # the kernel's span for non-negative operands
    hex_width, width = (bound.bit_length() + 3) // 4, len(str(bound))
    runs = 7 if size <= 2048 else 3
    product, square = [(1, a, 0, b, 0)], [(1, a, 0, a, 0)]
    if _packed_sum(product, n, 0, 16, hex_width) != _packed_sum(product, n, 0, 10, width):
        raise SystemExit(f"routes disagree on sigma_{k} at {size} coefficients")
    times = {}
    for label, terms in (("product", product), ("square", square)):
        t_int, t_dec = [], []
        for _ in range(2):  # alternate the routes, keep each one's best
            t_int.append(best_of(terms, n, 16, hex_width, runs))
            t_dec.append(best_of(terms, n, 10, width, runs))
        times[label] = (min(t_int), min(t_dec))
    return {
        "sigma": k,
        "coefficients": size,
        "slot_digits": width,
        "packed_digits": size * width,
        "int_s": round(times["product"][0], 6),
        "decimal_s": round(times["product"][1], 6),
        "int_square_s": round(times["square"][0], 6),
        "decimal_square_s": round(times["square"][1], 6),
    }


def crossover(rows):
    """Smallest packed size from which on the decimal route always won."""
    rows = sorted(rows, key=lambda r: r["packed_digits"])
    best = None
    for r in reversed(rows):
        if r["decimal_s"] >= r["int_s"] or r["decimal_square_s"] >= r["int_square_s"]:
            break
        best = r["packed_digits"]
    return best


def main():
    rows = []
    for size in SIZES:
        for k in EXPONENTS:
            row = measure(k, size)
            rows.append(row)
            print(json.dumps(row), file=sys.stderr)
    report = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "rows": rows,
        "crossover_packed_digits": crossover(rows),
    }
    json.dump(report, sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
