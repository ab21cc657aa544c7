"""Exact truncated power series in q over arbitrary-precision rationals.

A :class:`QSeries` holds coefficients a_0 .. a_N exactly, as Python ints or
`fractions.Fraction` values, together with the truncation order N.  Nothing
beyond index N is known, so binary operations truncate to the shorter
operand and never invent coefficients.

Coefficients are always kept in canonical form: a `Fraction` with
denominator 1 is stored as a plain int, and every `Fraction` is reduced
(that is what `fractions.Fraction` guarantees).

Products clear denominators and convolve integer vectors.  Short vectors
use the schoolbook double loop.  Longer ones use Kronecker substitution:
each vector becomes one big number with a fixed-width slot per
coefficient, wide enough that no slot of the product overflows, so a
single big-number product yields every coefficient at once.  Mid-size
operands are packed in binary and multiplied by CPython's `int`
(Karatsuba); large ones are packed in decimal digits and multiplied by
libmpdec through `decimal`, which switches to a number-theoretic
transform on huge operands.  Both routes are exact.
"""

from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact, Rounded
from fractions import Fraction
from math import gcd
from numbers import Rational

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


# Below this many coefficients the plain double loop beats both packed
# products.
_PACK_THRESHOLD = 64

# Packed operands of at least this many decimal digits (coefficients times
# slot width, of the shorter operand) go through libmpdec; below it the
# binary packing and CPython's Karatsuba are faster.  Taken from the
# crossover sweep in BENCH_decimal_mul.json (scripts/mul_crossover.py).
_DECIMAL_THRESHOLD = 24576

# Integers only, at any size: a product that would need rounding raises.
_DECIMAL = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact, Rounded])


def _schoolbook_convolve(a, b, n):
    out = [0] * (n + 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b[: n + 1 - i]):
                if bj:
                    out[i + j] += ai * bj
    return out


def _pack_bytes(c, stride):
    buf = bytearray(len(c) * stride)
    for i, v in enumerate(c):
        if v:
            buf[i * stride : i * stride + stride] = v.to_bytes(stride, "little")
    return int.from_bytes(buf, "little")


def _packed_int(a, b, n, bound):
    # Slots of whole bytes in a little-endian integer.
    stride = bound.bit_length() // 8 + 1
    x = _pack_bytes(a, stride)
    y = x if b is a else _pack_bytes(b, stride)
    cbuf = (x * y).to_bytes((len(a) + len(b)) * stride, "little")
    return [
        int.from_bytes(cbuf[k * stride : (k + 1) * stride], "little")
        for k in range(n + 1)
    ]


def _pack_decimal(c, width):
    # Most significant slot first; Decimal(str) reads the digits in linear time.
    return Decimal((f"%0{width}d" * len(c)) % tuple(reversed(c)))


def _packed_decimal(a, b, n, width):
    # Slots of `width` decimal digits; a squaring packs its operand once.
    x = _pack_decimal(a, width)
    product = _DECIMAL.multiply(x, x if b is a else _pack_decimal(b, width))
    del x  # peak memory: drop each big number once it is read
    digits = str(product).zfill((n + 1) * width)
    del product
    end = len(digits)
    return [int(digits[i - width : i]) for i in range(end, end - (n + 1) * width, -width)]


def _packed_convolve_nonneg(a, b, n):
    # Kronecker substitution: every coefficient of the product is at most
    # `bound`, so slots that hold `bound` never carry into each other.
    amax = max(a)
    bmax = amax if b is a else max(b)
    if amax == 0 or bmax == 0:
        return [0] * (n + 1)
    short = min(len(a), len(b))
    bound = short * amax * bmax
    try:
        width = len(str(bound))
    except ValueError:  # wider than sys.get_int_max_str_digits(): stay binary
        return _packed_int(a, b, n, bound)
    if short * width >= _DECIMAL_THRESHOLD:
        return _packed_decimal(a, b, n, width)
    return _packed_int(a, b, n, bound)


def _convolve_int(a, b, n):
    """Truncated convolution of two integer sequences, exactly.

    Schoolbook for short inputs; for longer ones the sequences are packed
    into big numbers (shifted to be non-negative first, with the linear
    correction terms restored afterwards).  Passing the same object twice
    is a squaring, which packs its operand once.
    """
    square = a is b
    a = list(a[: n + 1])
    b = a if square else list(b[: n + 1])
    if n + 1 <= _PACK_THRESHOLD:
        return _schoolbook_convolve(a, b, n)
    mina = min(a)
    minb = mina if square else min(b)
    if mina >= 0 and minb >= 0:
        return _packed_convolve_nonneg(a, b, n)
    a += [0] * (n + 1 - len(a))
    b += [0] * (n + 1 - len(b))
    ca = -mina if mina < 0 else 0
    cb = -minb if minb < 0 else 0
    a2 = [x + ca for x in a]
    b2 = a2 if square else [x + cb for x in b]
    raw = _packed_convolve_nonneg(a2, b2, n)
    out = []
    sa = sb = 0
    for k in range(n + 1):
        sa += a2[k]
        sb += b2[k]
        out.append(raw[k] - cb * sa - ca * sb + ca * cb * (k + 1))
    return out


def _clear_denominators(coeffs):
    den = 1
    for c in coeffs:
        d = c.denominator
        if d != 1:
            den = den * d // gcd(den, d)
    if den == 1:
        return list(coeffs), 1
    return [int(c * den) for c in coeffs], den


class QSeries:
    """A formal power series in q, truncated after the q^N coefficient.

    >>> f = QSeries([1, 2])
    >>> g = QSeries([3, 4])
    >>> (f + g).coefficients
    (4, 6)
    >>> (f * f).coefficients   # (1+2q)^2, q^2 unknown at truncation 1
    (1, 4)
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs, truncation=None):
        coeffs = [as_rational(c) for c in coeffs]
        if truncation is not None:
            if truncation < 0:
                raise ValueError("truncation must be non-negative")
            if len(coeffs) > truncation + 1:
                coeffs = coeffs[: truncation + 1]
            else:
                coeffs += [0] * (truncation + 1 - len(coeffs))
        elif not coeffs:
            raise ValueError("a series needs at least its constant coefficient")
        self._coeffs = tuple(coeffs)

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
        return len(self._coeffs) - 1

    @property
    def coefficients(self):
        return self._coeffs

    def truncate(self, truncation):
        """The series cut after q^truncation, 0 <= truncation <= its own.

        The coefficients are canonical already, so they are shared, not
        validated again.
        """
        if not 0 <= truncation <= self.truncation:
            raise ValueError(f"cannot cut a series known to q^{self.truncation} at q^{truncation}")
        out = object.__new__(QSeries)
        out._coeffs = self._coeffs[: truncation + 1]
        return out

    def coefficient(self, n):
        """The exact coefficient of q^n; IndexError outside 0..truncation."""
        if not 0 <= n <= self.truncation:
            raise IndexError(
                f"coefficient index {n} outside known range 0..{self.truncation}"
            )
        return self._coeffs[n]

    @property
    def is_zero(self):
        return not any(self._coeffs)

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(self._coeffs)

    def __neg__(self):
        return QSeries([-c for c in self._coeffs])

    def __add__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        n = min(self.truncation, other.truncation)
        a, b = self._coeffs, other._coeffs
        return QSeries([a[i] + b[i] for i in range(n + 1)])

    def __sub__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        n = min(self.truncation, other.truncation)
        a, b = self._coeffs, other._coeffs
        return QSeries([a[i] - b[i] for i in range(n + 1)])

    def scale(self, c):
        """Multiply every coefficient by the exact rational c."""
        c = as_rational(c)
        if c == 0:
            return QSeries.zero(self.truncation)
        return QSeries([c * x for x in self._coeffs])

    def __mul__(self, other):
        if isinstance(other, QSeries):
            n = min(self.truncation, other.truncation)
            a, da = _clear_denominators(self._coeffs[: n + 1])
            # a squaring hands _convolve_int one list twice
            b, db = (a, da) if other is self else _clear_denominators(other._coeffs[: n + 1])
            raw = _convolve_int(a, b, n)
            if da == 1 and db == 1:
                return QSeries(raw)
            d = da * db
            return QSeries([Fraction(c, d) for c in raw])
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
        """Apply the coefficient-scaling derivation: a_n -> n^times * a_n.

        times = 0 is the identity, handy when iterating over operator
        powers in bracket formulas.
        """
        if times < 0:
            raise ValueError("cannot integrate, only derive")
        if times == 0:
            return self
        return QSeries([(i ** times) * c for i, c in enumerate(self._coeffs)])

    def shift(self, k=1):
        """Multiply by q^k, keeping the truncation (top coefficients drop off)."""
        if k < 0:
            raise ValueError("negative shifts would create a Laurent tail")
        n = self.truncation
        return QSeries(([0] * k + list(self._coeffs))[: n + 1])

    def to_text(self, max_terms=None):
        """Render as '1 - 24*q + 252*q^2 - ...' for display purposes."""
        pieces = []
        for i, c in enumerate(self._coeffs):
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
        head = ", ".join(str(c) for c in self._coeffs[:6])
        tail = ", ..." if self.truncation >= 6 else ""
        return f"QSeries(N={self.truncation}; {head}{tail})"
