"""Exact truncated power series in q over arbitrary-precision rationals.

A :class:`QSeries` holds coefficients a_0 .. a_N exactly, together with the
truncation order N.  Nothing beyond index N is known, so binary operations
truncate to the shorter operand and never invent coefficients.

A series is stored as integer numerators over one positive denominator,
reduced so that gcd(den, *nums) is 1 (den is 1 for an integral series):
its one canonical form, which `==` and `hash` compare.  Arithmetic runs on
the numerators with C-level maps, and a `fractions.Fraction` is built only
when a coefficient is read, by `coefficients` or `coefficient(n)`.

Products hand the numerators to one kernel, `_convolve_sum`, which sums
c * (a * b) over several integer pairs at once, and multiply the
denominators; a product is its one-term case, and a Rankin-Cohen bracket
(`tauforms.brackets`) is one call.  Short vectors use the schoolbook
double loop.  Longer ones use Kronecker substitution: each vector becomes
one big number with a fixed-width slot per coefficient, so a single
big-number product yields every coefficient at once.  Signed vectors are
packed with an offset, taken off again as the packed vector with that
offset in every slot, and the sum is read back shifted up by the least
value a slot of it can take, so every slot is non-negative.  Mid-size
operands are packed as bytes by `_pack`, the package's one slot codec
(slot 0 least significant, 8-byte slots through an `array` of 64-bit
words), multiplied by CPython's `int` (Karatsuba) and read back by
`_unpack`, so no number is turned into text; the congruence check of
`tauforms.identities` packs through the same codec.  A byte-route product
whose smaller packed operand has at least _GMP_MIN_BITS bits goes to
libgmp through `ctypes` where the library loads, its magnitudes as whole
64-bit words: it is looked up by its soname `libgmp.so.10`, then through
`ctypes.util.find_library`, once, at the first such product and never at
import.  libgmp multiplies the same integers exactly, so every result is
identical with it and without it.
On a host without libgmp, large operands are packed in decimal text, most
significant slot first, multiplied by libmpdec through `decimal`, which
switches to a number-theoretic transform on huge operands, and read back
by `struct.iter_unpack`; where libgmp loads, every packed sum takes the
byte route.  All routes are exact.
"""

import sys
from array import array
from decimal import (
    MAX_EMAX, MAX_PREC, MIN_EMIN, ROUND_DOWN, Context, Decimal, Inexact, Rounded, localcontext
)
from fractions import Fraction
from itertools import chain, repeat
from math import gcd, lcm
from numbers import Rational
from operator import add, floordiv, mul, neg, sub
from struct import iter_unpack

__all__ = ["Rational", "QSeries", "as_rational"]


def as_rational(x):
    """Validate that x is an exact rational; normalise Fraction(p, 1) to int.

    >>> as_rational(Fraction(6, 2))
    3
    >>> as_rational(Fraction(1, 3))
    Fraction(1, 3)
    """
    if type(x) is int:
        return x
    if isinstance(x, Rational):
        return x.numerator if x.denominator == 1 else Fraction(x.numerator, x.denominator)
    raise TypeError(f"exact rational coefficient required, got {type(x).__name__}")


# Products cut after q^n with n below this use the schoolbook loop.  In
# both sweeps of scripts/mul_crossover.py in BENCH_binary_pack.json the
# byte route won every product and squaring of sigma_3, sigma_5 and
# sigma_11 vectors from n = 20 on (1.1x and 1.4x faster at n = 20, 1.4-4x
# and 2-5x at n = 32..64), and lost at n = 16.
_PACK_THRESHOLD = 20

# Where libgmp does not load, packed operands of at least this many decimal
# digits (coefficients times slot width, of the shorter operand) go through
# libmpdec; below it the byte packing and CPython's Karatsuba are faster.
# Both sweeps in BENCH_binary_pack.json (scripts/mul_crossover.py) put the
# crossover here; at 24576 digits the byte route still beat libmpdec by
# about 7%.
_DECIMAL_THRESHOLD = 32256

# Integers only, at any size: a result that would need rounding raises.
_DECIMAL = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact, Rounded])

# Byte-route products whose smaller packed operand has at least this many
# bits go through libgmp where it loads; below it CPython's `int` is
# faster, since a product through ctypes costs about 15 us more.  Both
# libgmp sweeps of scripts/mul_crossover.py in BENCH_common_denominator.json
# (libgmp 6.2.1, operands passed as whole words) put the crossover here:
# libgmp lost a timing at 4580 bits and won every one from 6078 on, by
# about 9x at 0.1 Mbit and 30x at 2.5 Mbit.
_GMP_MIN_BITS = 6078

_LIBGMP = []  # after the first call of _gmp: [(libgmp, its mpz type) or None]

# D^k of a series truncated at N multiplies a_m by m^k, about
# k * (N+1) * N.bit_length() bits in all; `QSeries.derive` refuses more than
# this.  On a 2-core host the slowest D^k(E4) it admits took 1.5 s (N = 7;
# 1.1 s at N = 3, at most 0.6 s end to end from N = 256 to 131072); tests,
# demos and benchmark stay below 1.5 * 10^6 bits.
MAX_DERIVE_BITS = 2 ** 25


def _gmp():
    """(libgmp, its mpz_t) through ctypes, or None where it does not load.

    The first call loads the library, by its soname and then by
    `ctypes.util.find_library`, and declares the argument and result types
    of the functions `_multiply` calls; later calls return what it found.
    """
    if not _LIBGMP:
        import ctypes
        from ctypes import POINTER, c_char_p, c_int, c_size_t, c_void_p

        class Mpz(ctypes.Structure):  # mpz_t of gmp.h
            _fields_ = [("alloc", c_int), ("size", c_int), ("limbs", c_void_p)]

        z, words = POINTER(Mpz), [c_size_t, c_int, c_size_t, c_int, c_size_t]
        signatures = {  # words: count, order, size, endian, nails
            "__gmpz_init": ([z], None),
            "__gmpz_clear": ([z], None),
            "__gmpz_import": ([z, *words, c_char_p], None),
            "__gmpz_mul": ([z, z, z], None),
            "__gmpz_export": ([c_void_p, POINTER(c_size_t), *words[1:], z], c_void_p),
        }
        try:
            try:
                lib = ctypes.CDLL("libgmp.so.10")
            except OSError:
                import ctypes.util  # its import alone takes milliseconds

                lib = ctypes.CDLL(ctypes.util.find_library("gmp") or "libgmp.so")
            for name, (argtypes, restype) in signatures.items():
                function = getattr(lib, name)
                function.argtypes, function.restype = argtypes, restype
            _LIBGMP.append((lib, Mpz))
        except (OSError, AttributeError):
            _LIBGMP.append(None)
    return _LIBGMP[0]


# libgmp aborts the process when an allocation fails.  One product through
# _multiply grew the address space by at most 6.6 times the product's bytes
# over the operand shapes measured (2 * 10^4 to 4 * 10^6 words in all, from
# balanced to 1500:1; CPython 3.11, libgmp 6.2.1, x86-64 Linux), so this
# many times the product's bytes must be free before libgmp is called.
_GMP_SPACE = 8


def _gmp_has_room(size):
    """Whether the address space may grow by size bytes: always without a
    finite RLIMIT_AS, else when the limit less the current size (read from
    /proc/self/statm) leaves room; never where that size cannot be read."""
    try:
        import resource
    except ImportError:  # no resource limits on this platform
        return True
    cap = resource.getrlimit(resource.RLIMIT_AS)[0]
    if cap == resource.RLIM_INFINITY:
        return True
    try:
        with open("/proc/self/statm") as fh:
            used = int(fh.read().split()[0]) * resource.getpagesize()
    except OSError:
        return False
    return cap - used >= size


def _multiply(x, y):
    """x * y for ints, exactly; passing one object twice squares it.

    When the smaller factor has at least _GMP_MIN_BITS bits, libgmp loads
    and the address space has room for what it allocates (see
    _gmp_has_room), the magnitudes go to libgmp as whole 64-bit words, it
    multiplies them, and the product comes back through one buffer of the
    factors' words together, with its sign restored; otherwise CPython's
    `int` does, which raises MemoryError where libgmp would abort.
    """
    gmp = _gmp() if min(x.bit_length(), y.bit_length()) >= _GMP_MIN_BITS else None
    if gmp is None or not _gmp_has_room(_GMP_SPACE * (x.bit_length() + y.bit_length()) // 8):
        return x * y
    from ctypes import create_string_buffer

    lib, mpz = gmp
    product, *factors = [mpz() for _ in range(2 if x is y else 3)]
    for z in (product, *factors):
        lib.__gmpz_init(z)
    try:
        words = [(v.bit_length() + 63) // 64 for v in (x, y)]
        for z, v, count in zip(factors, (x, y), words):
            # least significant word first; the bytes are dropped once read
            lib.__gmpz_import(z, count, -1, 8, -1, 0, abs(v).to_bytes(8 * count, "little"))
        lib.__gmpz_mul(product, factors[0], factors[-1])  # one factor: a squaring
        out = create_string_buffer(8 * sum(words))  # zeroed past the product's words
        lib.__gmpz_export(out, None, -1, 8, -1, 0, product)
    finally:
        for z in (product, *factors):
            lib.__gmpz_clear(z)
    value = int.from_bytes(out, "little")
    return -value if (x < 0) != (y < 0) else value


def _schoolbook_convolve(a, b, n):
    out = [0] * (n + 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b[: n + 1 - i]):
                if bj:
                    out[i + j] += ai * bj
    return out


def _pack(values, width):
    """The int whose `width`-byte slot i, slot 0 least significant, holds the
    i-th of values: 8-byte slots through an array of 64-bit words, which is
    faster than joining each value's bytes, and other widths through those
    bytes.  A value below 0 or from 256**width on raises OverflowError."""
    if width == 8:
        words = array("Q", values)
        if sys.byteorder == "big":
            words.byteswap()
        return int.from_bytes(words, "little")
    slots = map(int.to_bytes, values, repeat(width), repeat("little"))
    return int.from_bytes(b"".join(slots), "little")


def _unpack(number, width, count):
    """The slots 0..count - 1 of a _pack integer, lazily, as ints;
    OverflowError unless 0 <= number < 256**(width * count)."""
    slots = iter_unpack(f"{width}s", number.to_bytes(width * count, "little"))
    return map(int.from_bytes, chain.from_iterable(slots), repeat("little"))


def _packed_sum(terms, n, offset, base, width):
    """Kronecker substitution at x = base**width (base 256 or 10).

    terms are (c, a, lo_a, b, lo_b) with lo_v = min(0, v).  Each distinct
    vector v is packed once, as v - lo_v, and the packed vector whose every
    slot holds -lo_v is taken off again, giving sum v_i x^i exactly.  Every
    slot of the sum, plus `offset`, must lie in [0, x), and only the low
    n + 1 slots of the sum are read back.  The byte route packs and reads
    back through _pack and _unpack, slot 0 least significant, and a vector
    whose every slot holds c is c's bytes, repeated; it turns no number into
    text, and raises OverflowError on a slot that does not fit its width.
    The decimal route writes each vector's text, most significant slot
    first, and reads the sum's text back with `struct.iter_unpack`.
    """
    if base == 256:
        multiply, parse = _multiply, lambda vals: _pack(vals, width)

        def filled(c, length):
            return int.from_bytes(c.to_bytes(width, "little") * length, "little")

    else:
        multiply, fmt = mul, f"%0{width}d"

        def parse(vals):
            vals = tuple(vals)[::-1]
            return Decimal((fmt * len(vals)) % vals)

        def filled(c, length):
            # c times the all-ones vector R, built by doubling over the bits
            # of length: R(2k) = R(k) + x**k R(k) and R(k + 1) = x R(k) + 1,
            # far cheaper than parsing its text
            r, k = Decimal(0), 0
            for bit in bin(length)[2:]:
                r, k = r + r.scaleb(width * k), 2 * k
                if bit == "1":
                    r, k = r.scaleb(width) + 1, k + 1
            return c * r

    packed = {}  # id of a vector -> its packed value

    def pack(v, lo):
        x = packed.get(id(v))
        if x is None:
            x = parse(map(sub, v, repeat(lo)) if lo else v)
            if lo:
                x -= filled(-lo, len(v))
            packed[id(v)] = x
        return x

    slots = n + 1
    total = None
    with localcontext(_DECIMAL):
        for c, a, lo_a, b, lo_b in terms:
            # multiply the packed operands first: int, libgmp and libmpdec
            # all square faster when handed one object twice
            product = multiply(pack(a, lo_a), pack(b, lo_b))
            if c != 1:
                product *= c
            total = product if total is None else total + product
            slots = max(slots, len(a) + len(b) - 1)
        # peak memory: drop each big number as soon as it is used
        del product
        packed.clear()
        if offset:
            total += filled(offset, slots)
        # every slot is in [0, x), so the result is total mod x**(n + 1):
        # the upper slots are dropped before any digit or byte is written
        size = (n + 1) * width
        if base == 10:
            high = total.scaleb(-size).to_integral_value(rounding=ROUND_DOWN)
            total -= high.scaleb(size)
            del high
            tail = str(total).zfill(size)
        else:
            if total < 0 or total.bit_length() > 8 * slots * width:
                raise OverflowError("a slot of the packed sum does not fit its width")
            total &= (1 << 8 * size) - 1
            out = _unpack(total, width, n + 1)
    del total
    if base == 10:
        tail = tail.encode()  # the text is dropped as soon as it is encoded
        out = map(int, chain.from_iterable(iter_unpack(f"{width}s", tail)))
    out = list(map(sub, out, repeat(offset)) if offset else out)
    if base == 10:
        out.reverse()  # slot 0 came last
    return out


def _convolve_sum(terms, n):
    """sum of c * (a * b) over (c, a, b) in terms, cut after index n, exactly.

    a and b are integer sequences and c an integer.  Terms over the same
    two operands are merged, since a * b = b * a.  Short results use the
    schoolbook loop; longer ones one Kronecker substitution for the whole
    sum, with slots as wide as the range its coefficients can span, in
    bytes, or, where libgmp does not load, in decimal from
    _DECIMAL_THRESHOLD packed digits on.
    A vector passed more than once (a squaring) is cut and packed once.
    """
    pairs = {}
    for c, a, b in terms:
        key = (id(a), id(b)) if id(a) <= id(b) else (id(b), id(a))
        pairs[key] = (pairs[key][0] + c, a, b) if key in pairs else (c, a, b)
    terms = pairs.values()
    if n < _PACK_THRESHOLD:
        out = [0] * (n + 1)
        for c, a, b in terms:
            if c:
                product = _schoolbook_convolve(a[: n + 1], b[: n + 1], n)
                out = [s + c * v for s, v in zip(out, product)]
        return out
    heads = {}  # id of a vector -> (its first n + 1 entries, min(0, them), max(0, them))

    def cut(v):
        if id(v) not in heads:
            head = v[: n + 1]
            lo, hi = min(head, default=0), max(head, default=0)
            heads[id(v)] = (head, min(lo, 0), max(hi, 0))
        return heads[id(v)]

    # Every slot of the sum lies in [low, high]: a slot of c * (a * b) adds
    # at most `length` products a_i * b_j, each between the least and the
    # greatest product of the ends of the ranges of a and b (both ranges
    # hold 0).  Reading adds `offset` = -low, so every slot is in [0, span].
    live = []
    low = high = short = 0
    for c, a, b in terms:
        (a, lo_a, hi_a), (b, lo_b, hi_b) = cut(a), cut(b)
        ends = (lo_a * lo_b, lo_a * hi_b, hi_a * lo_b, hi_a * hi_b)
        if c and any(ends):
            live.append((c, a, lo_a, b, lo_b))
            length = min(len(a), len(b))
            least, most = c * length * min(ends), c * length * max(ends)
            low, high = low + min(least, most), high + max(least, most)
            short = max(short, length)
    if not live:
        return [0] * (n + 1)
    offset = -low
    # The packed operands' slots, v - min(0, v), fit in [0, span] as well.
    span = high + offset
    bits = span.bit_length()
    digits = bits * 30103 // 100000 + 1  # 10**digits > 2**bits > span
    if 10 ** (digits - 1) > span:  # the estimate can be one digit over
        digits -= 1
    limit = sys.get_int_max_str_digits()
    # A slot wider than the int/str conversion limit cannot be written or
    # read as decimal text, so such sums stay binary; and so does every sum
    # where libgmp loads, since it multiplies large operands faster.
    if (
        short * digits >= _DECIMAL_THRESHOLD
        and (not limit or digits <= limit)
        and _gmp() is None
    ):
        return _packed_sum(live, n, offset, 10, digits)
    return _packed_sum(live, n, offset, 256, (bits + 7) // 8)


def _convolve_int(a, b, n):
    """Truncated convolution of two integer sequences, exactly.

    The one-term case of `_convolve_sum`; passing the same object twice is
    a squaring, which packs its operand once.
    """
    return _convolve_sum([(1, a, b)], n)


def _coefficient_int(a, b, n):
    """The q^n coefficient of a * b for integer sequences, exactly: the dot
    product of a[m] and b[n - m] over m = 0..n, with entries past either
    end taken as 0, as in `_convolve_int`."""
    lo = max(0, n + 1 - len(b))
    return sum(map(mul, a[lo : n + 1], reversed(b[: n + 1 - lo])))


def _ratio(v, den):
    """v / den for integers v and den > 0: an int, or a reduced Fraction."""
    q, r = divmod(v, den)
    return Fraction(v, den) if r else q


def _times(nums, m):
    """The integers nums times m, lazily; nums itself when m is 1."""
    return nums if m == 1 else map(mul, nums, repeat(m))


def _series(nums, den=1):
    """The QSeries nums[i] / den for integers nums and den > 0, reduced so
    that gcd(den, *nums) is 1: the one internal constructor."""
    nums = tuple(nums)
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            den //= g
            nums = tuple(map(floordiv, nums, repeat(g)))
    out = object.__new__(QSeries)
    out._nums, out._den = nums, den
    return out


def _derived(values, k):
    """D^k of a coefficient vector, D: a_m -> m a_m: [m^k * values[m]], and
    values itself when k is 0.  The one place that applies D to a vector."""
    return list(map(mul, map(pow, range(len(values)), repeat(k)), values)) if k else values


def _linear(op, f, g):
    """op(f, g) for op `add` or `sub` over the least common denominator;
    `map` stops at the shorter operand, which is the truncation rule."""
    den = lcm(f._den, g._den)
    return _series(map(op, _times(f._nums, den // f._den), _times(g._nums, den // g._den)), den)


def _product_sum(f, g, terms):
    """sum c * D^i f * D^j g over (c, i, j) in terms, D: a_n -> n a_n, as a
    QSeries cut after the shorter operand.  The kernel gets the operands'
    numerators, equal ones (two objects too) as one vector, so a square
    hands it one vector twice; each D^i is taken once, one `_convolve_sum`
    call sums every product, and the denominators multiply."""
    n = min(f.truncation, g.truncation)
    a, b = f._nums[: n + 1], g._nums[: n + 1]
    b = a if b == a else b
    memo = {}  # (id of a vector, i) -> D^i of it

    def derived(v, i):
        if (id(v), i) not in memo:
            memo[id(v), i] = _derived(v, i)
        return memo[id(v), i]

    total = _convolve_sum([(c, derived(a, i), derived(b, j)) for c, i, j in terms], n)
    return _series(total, f._den * g._den)


class QSeries:
    """A formal power series in q, truncated after the q^N coefficient.

    >>> f = QSeries([1, 2])
    >>> g = QSeries([3, 4])
    >>> (f + g).coefficients
    (4, 6)
    >>> (f * f).coefficients   # (1+2q)^2, q^2 unknown at truncation 1
    (1, 4)
    >>> QSeries([Fraction(1, 2), Fraction(1, 3)]).scale(6).coefficients
    (3, 2)
    """

    __slots__ = ("_nums", "_den")

    def __init__(self, coeffs, truncation=None):
        coeffs = [as_rational(c) for c in coeffs]
        if truncation is None:
            if not coeffs:
                raise ValueError("a series needs at least its constant coefficient")
            truncation = len(coeffs) - 1
        elif truncation < 0:
            raise ValueError("truncation must be non-negative")
        del coeffs[truncation + 1 :]
        # reduced already, since every coefficient is
        den = lcm(*(c.denominator for c in coeffs))
        if den != 1:
            coeffs = [c.numerator * (den // c.denominator) for c in coeffs]
        self._nums = tuple(coeffs) + (0,) * (truncation + 1 - len(coeffs))
        self._den = den

    @classmethod
    def zero(cls, truncation):
        return cls([0], truncation)

    @classmethod
    def one(cls, truncation):
        return cls([1], truncation)

    @classmethod
    def constant(cls, value, truncation):
        return cls([as_rational(value)], truncation)

    @property
    def truncation(self):
        return len(self._nums) - 1

    @property
    def coefficients(self):
        """(a_0, .., a_N) as ints and reduced Fractions, built at each read;
        the numerators themselves when the denominator is 1."""
        if self._den == 1:
            return self._nums
        return tuple(map(_ratio, self._nums, repeat(self._den)))

    def truncate(self, truncation):
        """The series cut after q^truncation, 0 <= truncation <= its own."""
        if not 0 <= truncation <= self.truncation:
            raise ValueError(f"cannot cut a series known to q^{self.truncation} at q^{truncation}")
        return _series(self._nums[: truncation + 1], self._den)

    def coefficient(self, n):
        """The exact coefficient of q^n; IndexError outside 0..truncation."""
        if not 0 <= n <= self.truncation:
            raise IndexError(
                f"coefficient index {n} outside known range 0..{self.truncation}"
            )
        return _ratio(self._nums[n], self._den)

    @property
    def is_zero(self):
        return not any(self._nums)

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return self._den == other._den and self._nums == other._nums

    def __hash__(self):
        return hash((self._nums, self._den))

    def __neg__(self):
        return _series(map(neg, self._nums), self._den)

    def __add__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return _linear(add, self, other)

    def __sub__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return _linear(sub, self, other)

    def scale(self, c):
        """Multiply every coefficient by the exact rational c."""
        c = as_rational(c)
        return _series(_times(self._nums, c.numerator), self._den * c.denominator)

    def __mul__(self, other):
        if isinstance(other, QSeries):
            return _product_sum(self, other, ((1, 0, 0),))
        if isinstance(other, Rational):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, Rational):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("only non-negative integer powers are defined")
        if exponent == 0:
            return QSeries.one(self.truncation)
        base = self
        while not exponent & 1:
            base = base * base
            exponent >>= 1
        result = base
        exponent >>= 1
        while exponent:
            base = base * base
            if exponent & 1:
                result = result * base
            exponent >>= 1
        return result

    def derive(self, times=1):
        """Apply the coefficient-scaling derivation: a_n -> n^times * a_n."""
        if times < 0:
            raise ValueError("cannot integrate, only derive")
        n = self.truncation
        bits = times * (n + 1) * n.bit_length()
        if bits > MAX_DERIVE_BITS:
            raise ValueError(
                f"D^{times} at truncation {n} would take about {bits} bits, "
                f"above the maximum {MAX_DERIVE_BITS}"
            )
        if times == 0:
            return self
        return _series(_derived(self._nums, times), self._den)

    def shift(self, k=1):
        """Multiply by q^k, keeping the truncation (top coefficients drop off)."""
        if k < 0:
            raise ValueError("negative shifts would create a Laurent tail")
        n = self.truncation
        return _series(((0,) * min(k, n + 1) + self._nums)[: n + 1], self._den)

    def to_text(self, max_terms=None):
        """Render as '1 - 24*q + 252*q^2 - ...' for display purposes."""
        pieces = []
        for i, c in enumerate(map(_ratio, self._nums, repeat(self._den))):
            if max_terms is not None and len(pieces) >= max_terms:
                pieces.append("...")
                break
            if c == 0:
                continue
            mag = -c if c < 0 else c
            if i == 0:
                body = str(mag)
            elif i == 1:
                body = "q" if mag == 1 else f"{mag}*q"
            else:
                body = f"q^{i}" if mag == 1 else f"{mag}*q^{i}"
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if c > 0 else f"- {body}")
        if not pieces:
            return "0"
        return " ".join(pieces)

    def __repr__(self):
        head = ", ".join(str(_ratio(v, self._den)) for v in self._nums[:6])
        tail = ", ..." if self.truncation >= 6 else ""
        return f"QSeries(N={self.truncation}; {head}{tail})"
