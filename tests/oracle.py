"""Naive per-n evaluation of identity sides, the reference for the tests.

This is the direct reading of each term's definition: a closed term
c * n^p * (a*n + b) * sigma_j(n), and a convolution term as the O(n) sum
c / n^d * sum_{m=1}^{n-1} P(m, n) sigma_a(m) sigma_b(n - m), all in
`Fraction` arithmetic.  It shares nothing with the library's cleared
integer path except the raw sigma and tau tables of the context.
"""

from fractions import Fraction


def closed_value(term, n, ctx):
    base = ctx.tau[n] if term.sigma == 0 else ctx.tables[term.sigma][n]
    v = term.coefficient * base
    p = term.n_power
    if p > 0:
        v *= n ** p
    elif p < 0:
        v = v / Fraction(n ** (-p))
    if term.affine is not None:
        a, b = term.affine
        v *= a * n + b
    return Fraction(v)


def convolution_value(term, n, ctx):
    sa = ctx.tables[term.left]
    sb = ctx.tables[term.right]
    acc = 0
    for m in range(1, n):
        acc += term.poly(m, n) * sa[m] * sb[n - m]
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
