"""Named modular and quasimodular forms, divisor sums and the tau function.

Everything is constructed from scratch: Bernoulli numbers by recurrence,
divisor-power sums by sieving, Eisenstein series of every even weight from
their defining expansions, the discriminant form from Jacobi's identity for
eta^3 (squared over its sparse terms) and, independently, from
E12 - E6^2 = (762048/691) Delta with E6^2 read off one squaring of the
sigma5 table, and tau(n) by four independent strategies that are
required to agree.  Each route multiplies only what its formula needs.
Every named form is held once in `_STORE`, at the largest size asked for;
smaller requests are cut from it, so rising sizes keep one copy of each.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import comb, isqrt

from ._value import Value
from .qseries import (
    QSeries, _coefficient_int, _convolve_int, _derived, _series, as_rational
)

__all__ = [
    "GradedForm",
    "SigmaTable",
    "bernoulli",
    "sigma_table",
    "sigma_series",
    "eisenstein",
    "delta_product",
    "delta_from_eisenstein",
    "tau",
    "tau_range",
    "tau_cross_check",
    "TauStrategyDisagreement",
    "InternalInconsistency",
    "dim_modular",
    "TAU_STRATEGIES",
]


class GradedForm(Value):
    """A q-expansion (a QSeries) tagged with its weight and a depth bound.

    weight None marks a weight-inhomogeneous combination (it can still be
    added and printed, but refuses brackets and decomposition).  depth is
    an upper bound: 0 means plainly modular.
    """

    __slots__ = __match_args__ = ("series", "weight", "depth")

    def __init__(self, series, weight, depth=0):
        if depth < 0:
            raise ValueError("depth bound must be non-negative")
        if weight is not None:
            if weight < 0 or weight % 2:
                raise ValueError(f"weight must be even and non-negative, got {weight}")
            if depth > weight // 2:
                raise ValueError(f"depth bound {depth} exceeds weight/2 = {weight // 2}")
        object.__setattr__(self, "series", series)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "depth", depth)

    @property
    def truncation(self):
        return self.series.truncation

    def truncate(self, truncation):
        return GradedForm(self.series.truncate(truncation), self.weight, self.depth)

    def coefficient(self, n):
        return self.series.coefficient(n)

    @property
    def is_zero(self):
        return self.series.is_zero

    def _merged_weight(self, other):
        if self.is_zero:
            return other.weight
        if other.is_zero:
            return self.weight
        if self.weight == other.weight:
            return self.weight
        return None

    def __add__(self, other):
        if not isinstance(other, GradedForm):
            return NotImplemented
        return GradedForm(
            self.series + other.series,
            self._merged_weight(other),
            max(self.depth, other.depth),
        )

    def __sub__(self, other):
        if not isinstance(other, GradedForm):
            return NotImplemented
        return GradedForm(
            self.series - other.series,
            self._merged_weight(other),
            max(self.depth, other.depth),
        )

    def __neg__(self):
        return GradedForm(-self.series, self.weight, self.depth)

    def __mul__(self, other):
        if not isinstance(other, GradedForm):
            return NotImplemented
        if self.weight is None or other.weight is None:
            w = None
        else:
            w = self.weight + other.weight
        return GradedForm(self.series * other.series, w, self.depth + other.depth)

    def scale(self, c):
        return GradedForm(self.series.scale(c), self.weight, self.depth)

    def derive(self, times=1):
        """Derivation raises weight by 2 and the depth bound by 1 per step."""
        w = None if self.weight is None else self.weight + 2 * times
        return GradedForm(self.series.derive(times), w, self.depth + times)


@lru_cache(maxsize=None)
def bernoulli(m):
    """Exact m-th Bernoulli number, convention x/(e^x - 1), so B_1 = -1/2.

    >>> bernoulli(0), bernoulli(1), bernoulli(2)
    (Fraction(1, 1), Fraction(-1, 2), Fraction(1, 6))
    """
    if m < 0:
        raise ValueError("Bernoulli numbers are indexed by m >= 0")
    if m == 0:
        return Fraction(1)
    # sum_{j=0}^{m} C(m+1, j) B_j = 0 for m >= 1
    acc = Fraction(0)
    for j in range(m):
        acc += comb(m + 1, j) * bernoulli(j)
    return -acc / (m + 1)


# ("E" | "sigma" | "basis" | "generators", k) or ("Delta", route) -> (size, build)
_STORE = {}


def _largest(key, size, build):
    """The stored build for key, replaced first by build(size) if it stops
    short of size."""
    entry = _STORE.get(key)
    if entry is None or entry[0] < size:
        entry = _STORE[key] = (size, build(size))
    return entry[1]


class SigmaTable(Value):
    """sigma_k(1) .. sigma_k(N): sums of k-th powers of divisors, as the
    tuple values indexed by n (values[0] unused, 0)."""

    __slots__ = __match_args__ = ("k", "values")

    @property
    def limit(self):
        return len(self.values) - 1

    def __getitem__(self, n):
        if not 1 <= n <= self.limit:
            raise IndexError(f"sigma_{self.k}({n}) outside tabulated range 1..{self.limit}")
        return self.values[n]


def sigma_table(k, limit):
    """sigma_k(n) for n <= limit, cut from the stored sieve."""
    if limit < 1:
        raise ValueError("limit must be at least 1")
    if k < 0:
        raise ValueError("divisor-power exponent must be non-negative")
    values = _largest(("sigma", k), limit, lambda size: _sigma_sieve(k, size))
    return SigmaTable(k, values[: limit + 1])


def _sigma_sieve(k, limit):
    """Sieve sigma_k(n) for n <= limit multiplicatively.

    With p the smallest prime factor of n = p*m, sigma_k(n) is
    (1 + p^k) * sigma_k(m) when p does not divide m, and
    (1 + p^k) * sigma_k(m) - p^k * sigma_k(m/p) when it does (the divisors
    of n are those of m and p times those of m, and p times those of m/p
    are both); every value is read off smaller n, so no table but the
    smallest prime factors is kept beside the values.
    """
    # smallest prime factors: p runs downwards, so the smallest prime factor
    # writes last (a composite p's multiples are rewritten by its factors)
    spf = list(range(limit + 1))
    for p in range(isqrt(limit), 1, -1):
        spf[p * p :: p] = [p] * len(range(p * p, limit + 1, p))
    values = [0, 1] + [0] * (limit - 1)
    for n in range(2, limit + 1):
        p = spf[n]
        m = n // p
        pk = p ** k
        if spf[m] == p:
            values[n] = (1 + pk) * values[m] - pk * values[m // p]
        else:
            values[n] = (1 + pk) * values[m]
    return tuple(values)


def sigma_series(k, truncation):
    """The generating series sum_{n>=1} sigma_k(n) q^n."""
    return _series(sigma_table(k, max(truncation, 1)).values[: truncation + 1])


def _eisenstein_coefficient(k):
    """-2k/B_k, the q^1 coefficient of E_k = 1 + c_k sum sigma_{k-1}(n) q^n
    (-24 at k = 2, 65520/691 at k = 12)."""
    return as_rational(-2 * k / bernoulli(k))


def eisenstein(k, truncation):
    """Normalised Eisenstein series E_k, for every even k >= 2, as a GradedForm.

    E_2 is quasimodular (depth 1); the others are modular.
    """
    if k < 2 or k % 2:
        raise ValueError(f"unsupported Eisenstein weight {k}; E_k needs an even k >= 2")
    form = _largest(("E", k), truncation, lambda size: _eisenstein(k, size))
    return form.truncate(truncation)


def _eisenstein(k, truncation):
    c = _eisenstein_coefficient(k)
    series = QSeries.one(truncation) + sigma_series(k - 1, truncation).scale(c)
    return GradedForm(series, k, 1 if k == 2 else 0)


def delta_product(truncation):
    """The weight-12 cusp form q * prod_{n>=1} (1 - q^n)^24.

    Jacobi's identity prod(1 - q^n)^3 = sum_{k>=0} (-1)^k (2k+1) q^{k(k+1)/2}
    gives the cube of the product with O(sqrt N) nonzero coefficients.  Its
    square is summed over pairs of those terms, one dense squaring gives
    the 12th power (`_eta_twelve`), and Delta is q times its square.
    """
    if truncation < 0:
        raise ValueError("truncation must be non-negative")
    return _largest(("Delta", "product"), truncation, _delta_product).truncate(truncation)


def _delta_product(truncation):
    twelve = _series(_eta_twelve(truncation))
    return GradedForm((twelve * twelve).shift(1), 12, 0)


def _eta_six(n):
    """prod(1 - q^m)^6 through q^n: the square of Jacobi's cube, summed over
    the pairs j <= k of its O(sqrt n) terms (about 0.8 n products of small
    integers; a pair j < k counts twice)."""
    cube = []
    k = 0
    while (t := k * (k + 1) // 2) <= n:
        cube.append((t, (-1) ** k * (2 * k + 1)))
        k += 1
    six = [0] * (n + 1)
    for j, (s, a) in enumerate(cube):
        if 2 * s > n:
            break
        six[2 * s] += a * a
        for t, b in cube[j + 1 :]:
            if s + t > n:
                break
            six[s + t] += 2 * a * b
    return six


def _eta_twelve(n):
    """prod(1 - q^m)^12 through q^n, one dense squaring of `_eta_six`."""
    six = _eta_six(n)
    return _convolve_int(six, six, n)


def delta_from_eisenstein(truncation):
    """The same cusp form from the Eisenstein series of weight 12.

    E12 - E6^2 = (762048/691) Delta, and E12 = 1 + (65520/691) sum
    sigma11(n) q^n, so for n >= 1
    Delta_n = (65520 sigma11(n) - 691 (E6^2)_n) / 762048.  E6 = 1 - 504 S5,
    S5 = sum sigma5(n) q^n, so (E6^2)_n = 254016 (S5^2)_n - 1008 sigma5(n):
    one squaring of the stored sigma5 table, non-negative and 18 bits
    narrower per packed slot than E6.  sigma11 comes from a sieve of its
    own and is not held in the store.  The division is exact in integers;
    a remainder would contradict the Eisenstein expansions and raises
    InternalInconsistency.  Since 65520 and 762048 are both 566 mod 691,
    an exact quotient is also congruent to sigma11(n) mod 691.
    """
    if truncation < 0:
        raise ValueError("truncation must be non-negative")
    # built from q^1 at least, since the sigma tables start at sigma(1)
    form = _largest(("Delta", "eisenstein"), max(truncation, 1), _delta_from_eisenstein)
    return form.truncate(truncation)


def _delta_from_eisenstein(truncation):
    s5 = sigma_table(5, truncation).values
    s5s5 = _convolve_int(s5, s5, truncation)
    s11 = _sigma_sieve(11, truncation)
    coeffs = map(_delta_coefficient, s11, s5s5, s5, range(truncation + 1))
    return GradedForm(_series(coeffs), 12, 0)


def _delta_coefficient(s11, s5s5, s5, i):
    """Delta_i = (65520 sigma11(i) - 691 (E6^2)_i) / 762048, with
    (E6^2)_i = 254016 (S5^2)_i - 1008 sigma5(i) for i >= 1 (at i = 0 every
    table reads 0, and so does Delta)."""
    c = 65520 * s11 - 691 * (254016 * s5s5 - 1008 * s5)
    quotient, remainder = divmod(c, 762048)
    if remainder:
        raise InternalInconsistency(
            f"691 (E12 - E6^2) has q^{i} coefficient {c}, not divisible by 762048"
        )
    return quotient


def _divisor_sigma(k, n):
    """sigma_k(n) from the divisors of n alone, by trial division to sqrt(n)."""
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return sum(d ** k for d in {*small, *(n // d for d in small)})


def dim_modular(k):
    """Dimension of the space of level-one modular forms of even weight k.

    >>> [dim_modular(k) for k in (0, 2, 4, 10, 12, 14)]
    [1, 0, 1, 1, 2, 1]
    """
    if k % 2:
        raise ValueError(f"odd weight {k} has no level-one modular forms")
    if k < 0 or k == 2:
        return 0
    return k // 12 + (0 if k % 12 == 2 else 1)


class InternalInconsistency(Exception):
    """An exact computation contradicted a fact that holds by construction."""


class TauStrategyDisagreement(InternalInconsistency):
    """Two tau strategies produced different values; carries the smallest n."""

    def __init__(self, n, values):
        self.n = n
        self.values = dict(values)
        detail = ", ".join(f"{name}={v}" for name, v in sorted(values.items()))
        super().__init__(f"tau strategies disagree at n={n}: {detail}")


def _vdp_coefficient(s7, uu, n):
    """tau(n) = n^2 sigma7(n) - 540 sum_{m<n} m(n-m) sigma3(m) sigma3(n-m),
    that sum being uu = (u * u)_n for u = D sigma3."""
    return n * n * s7 - 540 * uu


def _niebur_coefficient(s1, p0, p1, p2, n):
    """tau(n) = n^4 sigma(n) - 24 sum_{m<n} (35m^4 - 52m^3 n + 18m^2 n^2)
    sigma(m) sigma(n-m).  P_e = (u * u)_n, u = D^e sigma, sums
    m^e (n-m)^e sigma(m) sigma(n-m), which m <-> n-m leaves unchanged, and
    averaging the Niebur weight over that swap makes its sum
    n^4 P_0/2 - 10n^2 P_1 + 35 P_2."""
    return n ** 4 * (s1 - 12 * p0) + 240 * n * n * p1 - 840 * p2


def tau(n, strategy="product"):
    """Ramanujan's tau(n), by one of four independent strategies.

    product     coefficient of q^n in q*prod(1-q^m)^24
    eisenstein  (65520 sigma11(n) - 691 (E6^2)_n) / 762048, from E12 - E6^2
    vdp         n^2*sigma7(n) - 540 * sum m(n-m) sigma3(m) sigma3(n-m)
    niebur      n^4*sigma(n) - 24 * sum (35m^4 - 52m^3 n + 18m^2 n^2) sigma(m) sigma(n-m)

    Each reads the q^n coefficient of the products that its `tau_range`
    table is built from, as the dot product of a[m] and b[n-m], so only the
    factors are built, through q^n.  product dots c12 = prod(1-q^m)^12,
    built through q^(n-1) from Jacobi's sparse cube with one dense squaring,
    with itself at q^(n-1).  eisenstein dots S5 = sum sigma5(m) q^m with
    itself for (E6^2)_n = 254016 (S5^2)_n - 1008 sigma5(n), and a remainder
    in the division by 762048 raises InternalInconsistency.  vdp and niebur
    dot each D-weighted sigma table that their table squares (one and
    three).  sigma11(n) and sigma7(n) come from the divisors of n.
    """
    if n < 1:
        raise ValueError("tau(n) is defined for n >= 1")
    if strategy == "product":
        c12 = _eta_twelve(n - 1)
        return _coefficient_int(c12, c12, n - 1)
    if strategy == "eisenstein":
        s5 = sigma_table(5, n).values
        return _delta_coefficient(_divisor_sigma(11, n), _coefficient_int(s5, s5, n), s5[n], n)
    if strategy == "vdp":
        u = _derived(sigma_table(3, n).values, 1)
        return _vdp_coefficient(_divisor_sigma(7, n), _coefficient_int(u, u, n), n)
    if strategy == "niebur":
        s1 = sigma_table(1, n).values
        squares = (_coefficient_int(u, u, n) for u in map(_derived, repeat(s1), range(3)))
        return _niebur_coefficient(s1[n], *squares, n)
    raise ValueError(f"unknown tau strategy {strategy!r}")

TAU_STRATEGIES = ("product", "eisenstein", "vdp", "niebur")


def tau_range(limit, strategy="product"):
    """tau(1..limit) in bulk; returns a list indexed by n with [0] = 0.

    product and eisenstein read the coefficients of `delta_product` (two
    dense squarings) and `delta_from_eisenstein` (one squaring of the
    sigma5 table).  vdp and niebur sieve sigma once per exponent, square
    each D-weighted table that their formula names (one vector passed
    twice to the exact kernel, so it is packed once) and map
    `_vdp_coefficient` or `_niebur_coefficient` over the squares.
    """
    if limit < 1:
        raise ValueError("limit must be at least 1")
    if strategy == "product":
        return list(delta_product(limit).series.coefficients)
    if strategy == "eisenstein":
        return list(delta_from_eisenstein(limit).series.coefficients)
    if strategy == "vdp":
        s7 = sigma_table(7, limit).values
        u = _derived(sigma_table(3, limit).values, 1)
        return list(map(_vdp_coefficient, s7, _convolve_int(u, u, limit), range(limit + 1)))
    if strategy == "niebur":
        s1 = sigma_table(1, limit).values
        squares = [_convolve_int(u, u, limit) for u in map(_derived, repeat(s1), range(3))]
        return list(map(_niebur_coefficient, s1, *squares, range(limit + 1)))
    raise ValueError(f"unknown tau strategy {strategy!r}")


def tau_cross_check(limit):
    """Compute tau(1..limit) with every strategy and insist they agree.

    Disagreement is an internal-consistency failure, raised with the
    smallest offending n.  Returns the agreed table.
    """
    tables = {name: tau_range(limit, name) for name in TAU_STRATEGIES}
    names = list(tables)
    reference = tables[names[0]]
    for n in range(1, limit + 1):
        if any(tables[name][n] != reference[n] for name in names[1:]):
            raise TauStrategyDisagreement(n, {name: tables[name][n] for name in names})
    return reference
