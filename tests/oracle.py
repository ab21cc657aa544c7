"""Naive references for the tests.

Identity sides are evaluated per n by the direct reading of each term's
definition: a closed term c * n^p * sigma_j(n), and a convolution term
as the O(n) sum c / n^d * sum_{m=1}^{n-1} P(m, n) sigma_a(m) sigma_b(n - m),
P(m, n) summed from its monomials at each m, all in `Fraction` arithmetic.
That shares nothing with the library's cleared integer path except the raw
sigma and tau tables of the context.

Delta is expanded as its Euler product, one factor (1 - q^j) at a time,
and raised to the 24th power by schoolbook products on plain lists; the
library builds it from Jacobi's identity and `QSeries` powers instead.

The Rankin-Cohen bracket is summed straight from its binomial formula on
plain coefficient lists, with `math.comb` and schoolbook products.

The van der Pol and Niebur formulas for tau(n) are summed over m as
printed, on divisor sums from the additive sieve; the library reads them
off squarings of D-weighted sigma tables.

A truncated q-series is a plain list of `Fraction` coefficients (the
`plain_*` functions), one `Fraction` per coefficient and no common
denominator; the library keeps integer numerators over one denominator.

Divisor sums come from the additive sieve (every d adds d^k to each of
its multiples); the library sieves multiplicatively over smallest prime
factors.  Linear systems are solved by Gauss-Jordan elimination on
`Fraction` rows; the library eliminates fraction-free on integer rows.
"""

from fractions import Fraction
from math import comb, gcd

from tauforms import InconsistentSystem, RankDeficientSystem


def closed_value(term, n, ctx):
    base = ctx.source(term.sigma)[n]  # key 0 is tau
    v = term.coefficient * base
    p = term.n_power
    if p > 0:
        v *= n ** p
    elif p < 0:
        v = v / Fraction(n ** (-p))
    return Fraction(v)


def convolution_value(term, n, ctx):
    sa = ctx.source(term.left)
    sb = ctx.source(term.right)
    acc = 0
    for m in range(1, n):
        weight = sum(c * m ** a * n ** b for (a, b), c in term.poly)
        acc += weight * sa[m] * sb[n - m]
    v = term.coefficient * acc
    if term.n_divisor:
        v = v / Fraction(n ** term.n_divisor)
    return Fraction(v)


def side_value(side, n, ctx):
    total = Fraction(0)
    for t in side.closed:
        total += closed_value(t, n, ctx)
    for t in side.conv:
        total += convolution_value(t, n, ctx)
    return total


def first_failure(record, limit, ctx):
    """(n, lhs(n), rhs(n)) at the first n <= limit where the sides differ."""
    for n in range(1, limit + 1):
        lhs = side_value(record.lhs, n, ctx)
        rhs = side_value(record.rhs, n, ctx)
        if lhs != rhs:
            return n, lhs, rhs
    return None


def congruence_failure(record, limit, ctx):
    """(n, lhs(n), rhs(n)) at the first n <= limit with gcd(n, g) = 1 where
    the sides, both integers, are not congruent modulo the record's modulus."""
    for n in range(1, limit + 1):
        if gcd(n, record.gcd_condition) != 1:
            continue
        lhs = side_value(record.lhs, n, ctx)
        rhs = side_value(record.rhs, n, ctx)
        if lhs.denominator != 1 or rhs.denominator != 1:
            raise ValueError(f"{record.id}: non-integral side at n={n}")
        if (lhs - rhs) % record.modulus:
            return n, lhs, rhs
    return None


def delta_euler(truncation):
    """Coefficients 0..N of q * prod_{j=1..N} (1 - q^j)^24.

    Factors with j > N cannot touch coefficients <= N and are omitted.
    """
    n = truncation
    base = [0] * (n + 1)
    base[0] = 1
    for j in range(1, n + 1):
        for i in range(n, j - 1, -1):
            base[i] -= base[i - j]
    power = [1] + [0] * n
    for _ in range(24):
        power = [sum(power[i] * base[k - i] for i in range(k + 1)) for k in range(n + 1)]
    return [0] + power[:n]


def tau_vdp_literal(limit):
    """[tau(n) for n = 0..limit] (entry 0 is 0) by van der Pol's sum
    n^2 sigma7(n) - 540 sum_{m=1}^{n-1} m(n-m) sigma3(m) sigma3(n-m)."""
    s3, s7 = sigma_additive(3, limit), sigma_additive(7, limit)
    return [0] + [
        n * n * s7[n] - 540 * sum(m * (n - m) * s3[m] * s3[n - m] for m in range(1, n))
        for n in range(1, limit + 1)
    ]


def tau_niebur_literal(limit):
    """[tau(n) for n = 0..limit] (entry 0 is 0) by Niebur's sum n^4 sigma(n)
    - 24 sum_{m=1}^{n-1} (35m^4 - 52m^3 n + 18m^2 n^2) sigma(m) sigma(n-m)."""
    s1 = sigma_additive(1, limit)
    return [0] + [
        n ** 4 * s1[n]
        - 24 * sum(
            (35 * m ** 4 - 52 * m ** 3 * n + 18 * m ** 2 * n * n) * s1[m] * s1[n - m]
            for m in range(1, n)
        )
        for n in range(1, limit + 1)
    ]


def rc_bracket_direct(f, k, g, l, v):
    """Coefficients of sum_r (-1)^r C(v+k-1, v-r) C(v+l-1, r) D^r f D^(v-r) g.

    f and g are coefficient lists of forms of weights k and l; D is
    a_n -> n*a_n, and the result has the length of the shorter operand.
    """
    n = min(len(f), len(g))
    out = [0] * n
    for r in range(v + 1):
        c = (-1) ** r * comb(v + k - 1, v - r) * comb(v + l - 1, r)
        df = [i ** r * a for i, a in enumerate(f[:n])]
        dg = [i ** (v - r) * b for i, b in enumerate(g[:n])]
        for i in range(n):
            for j in range(n - i):
                out[i + j] += c * df[i] * dg[j]
    return out


def sigma_additive(k, limit):
    """[sigma_k(n) for n = 0..limit] (entry 0 is 0) in O(N log N) additions."""
    values = [0] * (limit + 1)
    for d in range(1, limit + 1):
        dk = d ** k
        for n in range(d, limit + 1, d):
            values[n] += dk
    return values


def solve_fraction(rows, rhs):
    """Gauss-Jordan on Fraction rows, pivoting on the first nonzero entry
    at or below the current rank; the contract of `solve_exact`."""
    nrows = len(rows)
    if nrows == 0:
        return []
    ncols = len(rows[0])
    if nrows < ncols:
        raise ValueError(f"need at least {ncols} rows, got {nrows}")
    aug = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(rows)]
    origin = list(range(nrows))
    rank = 0
    pivot_cols = []
    for col in range(ncols):
        pivot = next((i for i in range(rank, nrows) if aug[i][col] != 0), None)
        if pivot is None:
            continue
        aug[rank], aug[pivot] = aug[pivot], aug[rank]
        origin[rank], origin[pivot] = origin[pivot], origin[rank]
        pv = aug[rank][col]
        aug[rank] = [x / pv for x in aug[rank]]
        for i in range(nrows):
            if i != rank and aug[i][col] != 0:
                factor = aug[i][col]
                aug[i] = [x - factor * y for x, y in zip(aug[i], aug[rank])]
        pivot_cols.append(col)
        rank += 1
    if rank < ncols:
        raise RankDeficientSystem(rank, ncols)
    for i in range(rank, nrows):
        if aug[i][ncols] != 0:
            raise InconsistentSystem(origin[i])
    solution = [Fraction(0)] * ncols
    for i, col in enumerate(pivot_cols):
        solution[col] = aug[i][ncols]
    return solution


def plain_add(a, b):
    """a + b, cut to the shorter series."""
    return [Fraction(x) + y for x, y in zip(a, b)]


def plain_sub(a, b):
    return [Fraction(x) - y for x, y in zip(a, b)]


def plain_neg(a):
    return [-Fraction(x) for x in a]


def plain_scale(a, c):
    return [Fraction(c) * x for x in a]


def plain_mul(a, b):
    """a * b by the schoolbook double loop, cut to the shorter series."""
    n = min(len(a), len(b))
    out = [Fraction(0)] * n
    for i in range(n):
        for j in range(n - i):
            out[i + j] += Fraction(a[i]) * b[j]
    return out


def plain_pow(a, k):
    """a ** k as k products, from the series 1."""
    out = [Fraction(1)] + [Fraction(0)] * (len(a) - 1)
    for _ in range(k):
        out = plain_mul(out, a)
    return out


def plain_derive(a, k):
    """D^k a, D: a_n -> n a_n."""
    return [Fraction(n) ** k * x for n, x in enumerate(a)]


def plain_shift(a, k):
    """q^k a, keeping the length."""
    return ([Fraction(0)] * k + [Fraction(x) for x in a])[: len(a)]
