"""Time the routes of `tauforms.qseries`' product kernel by size.

Both sweeps run on sigma_3, sigma_5 and sigma_11 coefficient vectors and
time a product of two distinct vectors and a squaring (one vector passed
twice).  They alternate between the routes they compare and keep the
fastest of several runs of each.

- Packed routes, 64..16384 coefficients: the byte route (CPython `int`)
  and the decimal route (libmpdec) of `_packed_sum` on the same product.
  The crossover is the smallest packed operand size (coefficients times
  slot width, in decimal digits) at and above which the decimal route lost
  no timing; it is what `qseries._DECIMAL_THRESHOLD` is set from.
- Cutoff, truncations n = 8..64: the whole kernel `_convolve_sum` with its
  schoolbook loop and with its packed route.  The crossover is the
  smallest n at and above which the packed route lost no timing; it is
  what `qseries._PACK_THRESHOLD` is set from.

A route loses a timing only when it is slower by more than `LOSS_MARGIN`:
two sweeps of one tree on an idle host differ by a few percent at a size,
and a single such row would otherwise move the crossover.

Run from the repository root:

    PYTHONPATH=src python3 scripts/mul_crossover.py > sweep.json
"""

import json
import platform
import sys
import time

from tauforms import qseries
from tauforms.forms import sigma_table
from tauforms.qseries import _convolve_sum, _packed_sum

SIZES = (64, 96, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048, 3072, 4096, 6144, 8192,
         12288, 16384)
CUTOFF_SIZES = tuple(range(8, 65, 4))
EXPONENTS = (3, 5, 11)
LOSS_MARGIN = 0.03  # a share of the other route's time


def best_of(call, runs):
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return min(times)


def alternate(first, second, runs):
    """Best times of two calls, timed in turn twice."""
    t_first, t_second = [], []
    for _ in range(2):
        t_first.append(best_of(first, runs))
        t_second.append(best_of(second, runs))
    return min(t_first), min(t_second)


def measure(k, size):
    """One row: both packed routes on sigma_k * sigma_k (two copies, then
    one vector squared) at `size` coefficients, with the kernel's slot
    widths."""
    a = list(sigma_table(k, size - 1).values)
    b = list(a)
    n = size - 1
    bound = size * max(a) ** 2  # the kernel's span for non-negative operands
    byte_width, width = (bound.bit_length() + 7) // 8, len(str(bound))
    runs = 7 if size <= 2048 else 3
    product, square = [(1, a, 0, b, 0)], [(1, a, 0, a, 0)]
    if _packed_sum(product, n, 0, 256, byte_width) != _packed_sum(product, n, 0, 10, width):
        raise SystemExit(f"routes disagree on sigma_{k} at {size} coefficients")
    times = {
        label: alternate(
            lambda: _packed_sum(terms, n, 0, 256, byte_width),
            lambda: _packed_sum(terms, n, 0, 10, width),
            runs,
        )
        for label, terms in (("product", product), ("square", square))
    }
    return {
        "sigma": k,
        "coefficients": size,
        "slot_digits": width,
        "packed_digits": size * width,
        "binary_s": round(times["product"][0], 6),
        "decimal_s": round(times["product"][1], 6),
        "binary_square_s": round(times["square"][0], 6),
        "decimal_square_s": round(times["square"][1], 6),
    }


def kernel(terms, n, threshold):
    """`_convolve_sum(terms, n)` with `_PACK_THRESHOLD` set to threshold."""
    saved = qseries._PACK_THRESHOLD
    qseries._PACK_THRESHOLD = threshold
    try:
        return _convolve_sum(terms, n)
    finally:
        qseries._PACK_THRESHOLD = saved


def measure_cutoff(k, n):
    """One row: the kernel's schoolbook loop and its packed route on
    sigma_k * sigma_k (two copies, then one vector squared) through q^n."""
    a = list(sigma_table(k, n).values)
    b = list(a)
    product, square = [(1, a, b)], [(1, a, a)]
    if kernel(product, n, n + 1) != kernel(product, n, 0):
        raise SystemExit(f"routes disagree on sigma_{k} through q^{n}")
    times = {
        label: alternate(
            lambda: kernel(terms, n, n + 1), lambda: kernel(terms, n, 0), 200
        )
        for label, terms in (("product", product), ("square", square))
    }
    return {
        "sigma": k,
        "n": n,
        "schoolbook_s": round(times["product"][0], 7),
        "packed_s": round(times["product"][1], 7),
        "schoolbook_square_s": round(times["square"][0], 7),
        "packed_square_s": round(times["square"][1], 7),
    }


def crossover(rows, key, slow, fast):
    """Smallest rows[key] from which on the `fast` route lost no timing, of
    the product or of the squaring, at any row: it lost one when it took
    more than 1 + LOSS_MARGIN times as long as the `slow` route."""
    lost = [
        r[key]
        for r in rows
        if any(r[f"{fast}{t}"] > (1 + LOSS_MARGIN) * r[f"{slow}{t}"] for t in ("_s", "_square_s"))
    ]
    won = [r[key] for r in rows if not lost or r[key] > max(lost)]
    return min(won, default=None)


def sweep(measure_row, sizes):
    rows = []
    for size in sizes:
        for k in EXPONENTS:
            row = measure_row(k, size)
            rows.append(row)
            print(json.dumps(row), file=sys.stderr)
    return rows


def main():
    cutoff = sweep(measure_cutoff, CUTOFF_SIZES)
    rows = sweep(measure, SIZES)
    report = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cutoff_rows": cutoff,
        "crossover_pack_n": crossover(cutoff, "n", "schoolbook", "packed"),
        "rows": rows,
        "crossover_packed_digits": crossover(rows, "packed_digits", "binary", "decimal"),
    }
    json.dump(report, sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
