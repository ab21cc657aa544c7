"""Time the routes of `tauforms.qseries`' product kernel by size.

All three sweeps run on sigma_3, sigma_5 and sigma_11 coefficient vectors
and time a product of two distinct vectors and a squaring (one vector
passed twice).  They alternate between the routes they compare and keep
the fastest of several runs of each.

- Packed routes, 64..16384 coefficients: the byte route (CPython `int`)
  and the decimal route (libmpdec) of `_packed_sum` on the same product,
  with libgmp taken away, as on the hosts where the decimal route runs.
  The crossover is the smallest packed operand size (coefficients times
  slot width, in decimal digits) at and above which the decimal route lost
  no timing; it is what `qseries._DECIMAL_THRESHOLD` is set from.
- libgmp, 16..16384 coefficients: the byte route's multiply of the same
  packed operands by CPython `int` and by libgmp through `_multiply`.  The
  crossover is the smallest bit length of the packed operand at and above
  which libgmp lost no timing; it is what `qseries._GMP_MIN_BITS` is set
  from.  The report gives libgmp's version, and no rows where it does not
  load.
- Cutoff, truncations n = 8..64: the whole kernel `_convolve_sum` with its
  schoolbook loop and with its packed route.  The crossover is the
  smallest n at and above which the packed route lost no timing; it is
  what `qseries._PACK_THRESHOLD` is set from.

A route loses a timing only when it is slower by more than `LOSS_MARGIN`:
two sweeps of one tree on an idle host differ by a few percent at a size,
and a single such row would otherwise move the crossover.

Run from the repository root; --sweep names the sweeps to run (cutoff,
bytes, gmp), and without it all three run:

    PYTHONPATH=src python3 scripts/mul_crossover.py > sweep.json
    PYTHONPATH=src python3 scripts/mul_crossover.py --sweep gmp > gmp.json
"""

import argparse
import ctypes
import json
import platform
import sys
import time
from contextlib import contextmanager

from tauforms import qseries
from tauforms.forms import sigma_table
from tauforms.qseries import _convolve_sum, _multiply, _pack, _packed_sum

SIZES = (64, 96, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048, 3072, 4096, 6144, 8192,
         12288, 16384)
CUTOFF_SIZES = tuple(range(8, 65, 4))
GMP_SIZES = (16, 24, 32, 48) + SIZES
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


@contextmanager
def kernel_set(name, value):
    """qseries.<name> set to value inside the block and put back after."""
    saved = getattr(qseries, name)
    setattr(qseries, name, value)
    try:
        yield
    finally:
        setattr(qseries, name, saved)


def measure(k, size):
    """One row: both packed routes on sigma_k * sigma_k (two copies, then
    one vector squared) at `size` coefficients, with the kernel's slot
    widths, and without libgmp."""
    a = list(sigma_table(k, size - 1).values)
    b = list(a)
    n = size - 1
    bound = size * max(a) ** 2  # the kernel's span for non-negative operands
    byte_width, width = (bound.bit_length() + 7) // 8, len(str(bound))
    runs = 7 if size <= 2048 else 3
    product, square = [(1, a, 0, b, 0)], [(1, a, 0, a, 0)]
    with kernel_set("_gmp", lambda: None):
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


def measure_gmp(k, size):
    """One row: the byte route's multiply of packed sigma_k * sigma_k (two
    copies, then one packed operand squared) at `size` coefficients, by
    CPython's `int` and by libgmp."""
    a = list(sigma_table(k, size - 1).values)
    bound = size * max(a) ** 2
    width = (bound.bit_length() + 7) // 8
    x, y = _pack(a, width), _pack(a, width)  # as _packed_sum packs a non-negative vector
    runs = 50 if size <= 256 else 7 if size <= 2048 else 3
    with kernel_set("_GMP_MIN_BITS", 0):
        if _multiply(x, y) != x * y:
            raise SystemExit(f"libgmp disagrees on sigma_{k} at {size} coefficients")
        times = {
            label: alternate(lambda: f * g, lambda: _multiply(f, g), runs)
            for label, (f, g) in (("product", (x, y)), ("square", (x, x)))
        }
    return {
        "sigma": k,
        "coefficients": size,
        "slot_bytes": width,
        "packed_bits": x.bit_length(),
        "int_s": round(times["product"][0], 7),
        "gmp_s": round(times["product"][1], 7),
        "int_square_s": round(times["square"][0], 7),
        "gmp_square_s": round(times["square"][1], 7),
    }


def gmp_version():
    """libgmp's version string, or None where it does not load."""
    gmp = qseries._gmp()
    return None if gmp is None else ctypes.c_char_p.in_dll(gmp[0], "__gmp_version").value.decode()


def kernel(terms, n, threshold):
    """`_convolve_sum(terms, n)` with `_PACK_THRESHOLD` set to threshold."""
    with kernel_set("_PACK_THRESHOLD", threshold):
        return _convolve_sum(terms, n)


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


SWEEPS = ("cutoff", "bytes", "gmp")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sweep", choices=SWEEPS, action="append", help="repeat for several")
    chosen = parser.parse_args(argv).sweep or SWEEPS
    report = {"python": platform.python_version(), "machine": platform.machine()}
    if "cutoff" in chosen:
        cutoff = sweep(measure_cutoff, CUTOFF_SIZES)
        report["cutoff_rows"] = cutoff
        report["crossover_pack_n"] = crossover(cutoff, "n", "schoolbook", "packed")
    if "bytes" in chosen:
        rows = sweep(measure, SIZES)
        report["rows"] = rows
        report["crossover_packed_digits"] = crossover(rows, "packed_digits", "binary", "decimal")
    if "gmp" in chosen:
        version = gmp_version()
        gmp_rows = [] if version is None else sweep(measure_gmp, GMP_SIZES)
        report["gmp_version"] = version
        report["gmp_rows"] = gmp_rows
        report["crossover_gmp_bits"] = crossover(gmp_rows, "packed_bits", "int", "gmp")
    json.dump(report, sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
