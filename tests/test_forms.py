from fractions import Fraction
from math import comb, factorial, gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle import delta_euler, sigma_additive, tau_niebur_literal, tau_vdp_literal
from tauforms import (
    TAU_STRATEGIES,
    GradedForm,
    QSeries,
    TauStrategyDisagreement,
    bernoulli,
    delta_from_eisenstein,
    delta_product,
    dim_modular,
    eisenstein,
    sigma_series,
    sigma_table,
    tau,
    tau_cross_check,
    tau_range,
)
from tauforms import forms, qseries
from tauforms.forms import InternalInconsistency
from tauforms.qseries import _PACK_THRESHOLD, _convolve_int


def bernoulli_oracle(limit):
    """Independent route: invert (e^x - 1)/x as a power series."""
    h = [Fraction(1, factorial(j + 1)) for j in range(limit + 1)]
    g = [Fraction(0)] * (limit + 1)
    g[0] = 1 / h[0]
    for k in range(1, limit + 1):
        g[k] = -sum(h[i] * g[k - i] for i in range(1, k + 1)) / h[0]
    return [g[m] * factorial(m) for m in range(limit + 1)]


def test_bernoulli_against_generating_function():
    oracle = bernoulli_oracle(24)
    for m in range(25):
        assert bernoulli(m) == oracle[m]


def test_bernoulli_examples():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(12) == Fraction(-691, 2730)
    with pytest.raises(ValueError):
        bernoulli(-1)


def divisor_sum(n, k):
    return sum(d ** k for d in range(1, n + 1) if n % d == 0)


@pytest.mark.parametrize("k", [0, 1, 2, 3, 5, 7, 9, 11, 13])
def test_sigma_sieve_against_enumeration(k):
    table = sigma_table(k, 200)
    for n in range(1, 201):
        assert table[n] == divisor_sum(n, k)
    # the sieve itself, past the store: each n from its smallest prime factor
    assert forms._sigma_sieve(k, 2000) == tuple(sigma_additive(k, 2000))


@pytest.mark.parametrize("limit", [1, 2, 64, 97, 1000, 4096])
def test_sigma_sieve_matches_additive_oracle(limit):
    for k in range(14):
        assert list(sigma_table(k, limit).values) == sigma_additive(k, limit)


def test_sigma_examples():
    assert sigma_table(1, 1)[1] == 1
    assert sigma_table(3, 4)[4] == 1 + 8 + 64 == 73
    assert sigma_table(5, 2)[2] == 1 + 32 == 33


def test_sigma_structure():
    t = sigma_table(3, 100)
    for p in (2, 3, 5, 7, 11):
        assert t[p] == 1 + p ** 3
    for a, b in ((4, 9), (5, 8), (7, 9)):
        assert gcd(a, b) == 1
        assert t[a * b] == t[a] * t[b]


def test_sigma_table_bounds():
    t = sigma_table(1, 10)
    with pytest.raises(IndexError):
        t[0]
    with pytest.raises(IndexError):
        t[11]
    with pytest.raises(ValueError):
        sigma_table(1, 0)


# the q^1 coefficients -2k/B_k of E2 .. E12, as tabulated in the literature
_LEADING = {2: -24, 4: 240, 6: -504, 8: 480, 10: -264, 12: Fraction(65520, 691)}


def test_eisenstein_leading_coefficients():
    for k, c in _LEADING.items():
        form = eisenstein(k, 6)
        assert form.coefficient(0) == 1
        assert form.coefficient(1) == c
        assert form.weight == k
        assert form.depth == (1 if k == 2 else 0)
    assert eisenstein(8, 4).coefficient(1) == 480
    assert eisenstein(12, 4).coefficient(1) == Fraction(65520, 691)


def test_eisenstein_unsupported_weight():
    for k in (3, 13, 1, 0, -2):
        with pytest.raises(ValueError, match=f"unsupported Eisenstein weight {k}"):
            eisenstein(k, 8)


def test_eisenstein_at_every_even_weight():
    n = 40
    e4, e10 = eisenstein(4, n).series, eisenstein(10, n).series
    assert eisenstein(8, n).series == e4 * e4
    # E14 is the first weight past E2 .. E12: dim M14 = 1, so E14 = E4 E10
    assert eisenstein(14, n).series == e4 * e10
    e16 = eisenstein(16, n)
    assert e16.coefficient(1) == Fraction(16320, 3617) == -32 / bernoulli(16)
    assert e16.weight == 16 and e16.depth == 0
    assert e16.coefficient(7) == Fraction(16320, 3617) * divisor_sum(7, 15)


def test_delta_product_leading_terms():
    d = delta_product(12)
    assert d.coefficient(0) == 0
    assert d.coefficient(1) == 1
    # expand (1-q)^24 (1-q^2)^24 to order 2 independently
    order2 = [0] * 3
    for i in range(3):
        for j in range(0, 3 - i, 2):
            order2[i + j] += (-1) ** i * comb(24, i) * (-1) ** (j // 2) * comb(24, j // 2)
    assert d.coefficient(2) == order2[1] == -24
    assert d.weight == 12 and d.depth == 0


def test_delta_product_matches_euler_oracle():
    # every N up to 300 crosses each triangular-number edge of Jacobi's sum
    # and the top coefficient that shift(1) drops
    reference = delta_euler(300)
    for n in range(1, 301):
        assert list(delta_product(n).series.coefficients) == reference[: n + 1], n
    assert delta_product(2049) == delta_from_eisenstein(2049)


def test_delta_routes_agree_above_the_decimal_crossover(monkeypatch, decimal_route_widths):
    # an empty store, so both constructions multiply here
    monkeypatch.setattr(forms, "_STORE", {})
    product = delta_product(4096)
    assert decimal_route_widths, "Delta at N=4096 should use the decimal route"
    assert product == delta_from_eisenstein(4096)
    assert tau_cross_check(4096) == tau_range(4096, "product")


def test_delta_routes_agree_through_libgmp(monkeypatch, with_gmp):
    # the check above with libgmp loaded: the large products go through it
    # and no sum takes the decimal route, so the four tau strategies are
    # cross-checked on both kernels
    monkeypatch.setattr(forms, "_STORE", {})
    bases, bits = [], []
    packed_sum, multiply = qseries._packed_sum, qseries._multiply

    def spy_sum(terms, n, offset, base, width):
        bases.append(base)
        return packed_sum(terms, n, offset, base, width)

    def spy_multiply(x, y):
        bits.append(min(x.bit_length(), y.bit_length()))
        return multiply(x, y)

    monkeypatch.setattr(qseries, "_packed_sum", spy_sum)
    monkeypatch.setattr(qseries, "_multiply", spy_multiply)
    assert delta_product(4096) == delta_from_eisenstein(4096)
    assert tau_cross_check(4096) == tau_range(4096, "product")
    assert set(bases) == {256} and max(bits) >= qseries._GMP_MIN_BITS


def test_delta_from_eisenstein_rejects_a_remainder(bend_sigma5):
    bend_sigma5(3)
    # sigma5(3) + 1 leaves (S5^2)_3 as it is (sigma5 has no q^0 term) and
    # moves (E6^2)_3 = 254016 (S5^2)_3 - 1008 sigma5(3) by -1008, and so the
    # q^3 coefficient of 691 (E12 - E6^2) by 691 * 1008, which 762048 does
    # not divide
    with pytest.raises(InternalInconsistency, match=r"q\^3 coefficient"):
        delta_from_eisenstein(8)


def test_delta_equals_eisenstein_combination():
    n = 48
    e12 = eisenstein(12, n).series
    e8e4 = eisenstein(8, n).series * eisenstein(4, n).series
    c = Fraction(691, 65520 - 720 * 691)
    assert (e12 - e8e4).scale(c) == delta_product(n).series


def test_tau_small_values():
    # q prod(1-q^n)^24 expanded by hand up to q^6
    known = {1: 1, 2: -24, 3: 252, 4: -1472, 5: 4830, 6: -6048}
    for n, value in known.items():
        assert tau(n) == value


def test_tau_vdp_hand_computation():
    # n=2: 4*sigma7(2) - 540*sigma3(1)^2, sigma7(2) = 129 by enumeration
    assert divisor_sum(2, 7) == 129
    assert tau(2, "vdp") == 4 * 129 - 540 == -24


def test_tau_strategies_agree():
    reference = tau_range(300, "product")
    for strategy in ("eisenstein", "vdp", "niebur"):
        assert tau_range(300, strategy) == reference
    assert tau_cross_check(64) == tau_range(64, "product")


@pytest.mark.parametrize(
    "limit", sorted({1, 2, 63, 64, 65, 300} | {_PACK_THRESHOLD + d for d in (-1, 0, 1)})
)
@pytest.mark.parametrize("strategy", ["vdp", "niebur"])
def test_bulk_convolution_routes_match_the_literal_formulas(strategy, limit):
    # limits on both sides of _PACK_THRESHOLD: schoolbook and packed
    # squarings; the table and every single value against the sum as printed
    literal = {"vdp": tau_vdp_literal, "niebur": tau_niebur_literal}[strategy](limit)
    assert tau_range(limit, strategy) == literal
    assert [0] + [tau(n, strategy) for n in range(1, limit + 1)] == literal
    assert literal == delta_euler(limit)


# signed vectors with v[0] = 0, convolved below and above _PACK_THRESHOLD
_vanishing_at_zero = st.lists(
    st.integers(-(10 ** 12), 10 ** 12), min_size=1, max_size=2 * max(_PACK_THRESHOLD, 64)
).map(lambda tail: [0] + tail)


@settings(max_examples=60, deadline=None)
@given(_vanishing_at_zero)
@example([0] + [(-1) ** m * m ** 3 for m in range(1, _PACK_THRESHOLD + 2)])
def test_niebur_symmetrisation_as_three_squarings(v):
    # sum (35m^4 - 52m^3 n + 18m^2 n^2) v(m) v(n-m) = n^4 P0/2 - 10n^2 P1 + 35 P2
    # with P_e = (m^e v) * (m^e v), the identity tau_range's niebur route uses
    n_max = len(v) - 1
    u1 = [m * x for m, x in enumerate(v)]
    u2 = [m * x for m, x in enumerate(u1)]
    p0, p1, p2 = (_convolve_int(u, u, n_max) for u in (v, u1, u2))
    for n in range(1, n_max + 1):
        literal = sum(
            (35 * m ** 4 - 52 * m ** 3 * n + 18 * m ** 2 * n * n) * v[m] * v[n - m]
            for m in range(1, n)
        )
        assert literal == Fraction(n ** 4 * p0[n], 2) - 10 * n * n * p1[n] + 35 * p2[n], n


@pytest.mark.parametrize("strategy, squarings", [("vdp", 1), ("niebur", 3)])
def test_convolution_routes_are_squarings(monkeypatch, strategy, squarings):
    # each convolution sum is one kernel call of one term over one object
    limit = 100
    expected = tau_range(limit, "product")
    calls = []
    real = qseries._convolve_sum
    monkeypatch.setattr(
        qseries, "_convolve_sum", lambda terms, n: calls.append(list(terms)) or real(terms, n)
    )
    assert tau_range(limit, strategy) == expected
    assert len(calls) == squarings
    for terms in calls:
        assert len(terms) == 1
        _, a, b = terms[0]
        assert a is b


@pytest.mark.parametrize("strategy", ["product", "eisenstein", "vdp", "niebur"])
def test_tau_single_coefficient_routes(strategy):
    # below, at and past _PACK_THRESHOLD and around the powers of two that
    # the tables are sized to
    euler = delta_euler(300)
    assert [tau(n, strategy) for n in range(1, 301)] == euler[1:]
    table = tau_range(4096, "product")
    for n in (63, 64, 65, 2047, 2048, 2049, 3000, 4096):
        assert tau(n, strategy) == table[n], n


def test_tau_single_coefficient_routes_cache_no_table(monkeypatch):
    # no Delta and no E_k: only the sieve of the sigma table that a route
    # dots (sigma5, sigma3, sigma); sigma11(3000) and sigma7(3000) come from
    # the divisors of 3000, with no table
    for strategy, sieved in (("product", []), ("eisenstein", [5]), ("vdp", [3]), ("niebur", [1])):
        monkeypatch.setattr(forms, "_STORE", {})
        tau(3000, strategy)
        assert sorted(forms._STORE) == [("sigma", k) for k in sieved], strategy


@pytest.mark.parametrize("k", [0, 1, 5, 11])
def test_divisor_sigma_matches_the_sieve(k):
    table = sigma_table(k, 400)
    assert [forms._divisor_sigma(k, n) for n in range(1, 401)] == list(table.values[1:])


@pytest.mark.parametrize("n", [3, 100])
def test_tau_eisenstein_rejects_a_remainder(bend_sigma5, n):
    bend_sigma5(n)
    # E6 - 504 q^n moves the q^n coefficient of E6^2 by -1008, and so that
    # of 691 (E12 - E6^2) by 691 * 1008, which 762048 does not divide
    with pytest.raises(InternalInconsistency, match=rf"q\^{n} coefficient"):
        tau(n, "eisenstein")


@pytest.mark.parametrize("n", [3, 100])
def test_eisenstein_routes_reject_a_sigma11_remainder(monkeypatch, n):
    # sigma11(n) + 1 moves the q^n coefficient of 691 (E12 - E6^2) by 65520,
    # which 762048 does not divide; the table route sieves sigma11 itself and
    # the single coefficient sums it over the divisors of n
    real_sieve, real_sum = forms._sigma_sieve, forms._divisor_sigma

    def bent_sieve(k, limit):
        values = real_sieve(k, limit)
        if k != 11:
            return values
        return values[:n] + (values[n] + 1,) + values[n + 1 :]

    def bent_sum(k, m):
        return real_sum(k, m) + (k == 11 and m == n)

    monkeypatch.setattr(forms, "_sigma_sieve", bent_sieve)
    monkeypatch.setattr(forms, "_divisor_sigma", bent_sum)
    monkeypatch.setattr(forms, "_STORE", {})
    with pytest.raises(InternalInconsistency, match=rf"q\^{n} coefficient"):
        tau(n, "eisenstein")
    with pytest.raises(InternalInconsistency, match=rf"q\^{n} coefficient"):
        delta_from_eisenstein(n)


def _kernel_calls(monkeypatch):
    """The term lists of every `_convolve_sum` call from here on."""
    calls = []
    real = qseries._convolve_sum
    monkeypatch.setattr(
        qseries, "_convolve_sum", lambda terms, n: calls.append(list(terms)) or real(terms, n)
    )
    return calls


@pytest.mark.parametrize("n", [0, 1, 2, 19, 20, 1000])
def test_sparse_eta_six_is_the_square_of_jacobis_cube(n):
    cube = [0] * (n + 1)
    k = 0
    while k * (k + 1) // 2 <= n:
        cube[k * (k + 1) // 2] = (-1) ** k * (2 * k + 1)
        k += 1
    assert forms._eta_six(n) == _convolve_int(cube, cube, n)


def test_tau_single_routes_multiply_only_what_they_need(monkeypatch):
    calls = _kernel_calls(monkeypatch)
    for strategy in ("eisenstein", "vdp", "niebur"):
        tau(3000, strategy)
    assert calls == []  # one dot product per squaring, no product of series
    tau(3000, "product")
    [[(_, a, b)]] = calls  # one dense squaring of prod(1-q^m)^6
    assert a is b


def test_delta_product_takes_two_kernel_products(monkeypatch):
    # prod(1-q^m)^6 and ^12 squared
    monkeypatch.setattr(forms, "_STORE", {})
    calls = _kernel_calls(monkeypatch)
    assert delta_product(300).series.coefficients == tuple(delta_euler(300))
    assert [len(terms) for terms in calls] == [1, 1]
    assert sorted(k for k in forms._STORE if k[0] != "Delta") == []


def test_delta_from_eisenstein_takes_one_squaring(monkeypatch):
    # the sigma5 table squared, with no E6 built and sigma11 sieved for the
    # route and not held
    monkeypatch.setattr(forms, "_STORE", {})
    calls = _kernel_calls(monkeypatch)
    assert delta_from_eisenstein(300).series.coefficients == tuple(delta_euler(300))
    [[(_, a, b)]] = calls
    assert a is b
    assert list(a) == list(sigma_table(5, 300).values)
    assert sorted(k for k in forms._STORE if k[0] != "Delta") == [("sigma", 5)]


def test_delta_from_eisenstein_squares_narrower_slots(monkeypatch, decimal_route_widths):
    # one decimal-route product, its slots narrower than those of E6^2
    monkeypatch.setattr(forms, "_STORE", {})
    delta_from_eisenstein(4096)
    [width] = decimal_route_widths
    e6 = list(eisenstein(6, 4096).series.coefficients)
    decimal_route_widths.clear()
    _convolve_int(e6, e6, 4096)
    assert decimal_route_widths and width < decimal_route_widths[0]


def test_tau_single_matches_bulk():
    for strategy in TAU_STRATEGIES:
        bulk = tau_range(300, strategy)
        assert [tau(n, strategy) for n in range(1, 301)] == bulk[1:], strategy


def test_tau_multiplicativity_spot_check():
    assert tau(6) == tau(2) * tau(3)


def test_tau_errors():
    with pytest.raises(ValueError):
        tau(0)
    with pytest.raises(ValueError):
        tau(5, "magic")
    with pytest.raises(ValueError):
        tau_range(0)


def test_tau_disagreement_exception():
    exc = TauStrategyDisagreement(7, {"product": 1, "vdp": 2})
    assert exc.n == 7 and "n=7" in str(exc)


def test_dim_modular_table():
    assert dim_modular(0) == 1
    assert dim_modular(2) == 0
    for k in (4, 6, 8, 10, 14):
        assert dim_modular(k) == 1
    assert dim_modular(12) == 2
    assert dim_modular(16) == 2
    assert dim_modular(26) == 2
    assert dim_modular(-4) == 0
    with pytest.raises(ValueError):
        dim_modular(3)


def test_graded_form_bookkeeping():
    e4 = eisenstein(4, 8)
    e6 = eisenstein(6, 8)
    prod = e4 * e6
    assert prod.weight == 10 and prod.depth == 0
    d = e4.derive(2)
    assert d.weight == 8 and d.depth == 2
    mixed = e4 + e6
    assert mixed.weight is None
    zero = GradedForm(QSeries.zero(8), None, 0)
    assert (zero + e4).weight == 4


def test_graded_form_depth_bound_enforced():
    with pytest.raises(ValueError):
        GradedForm(QSeries.one(4), 4, 3)
    with pytest.raises(ValueError):
        GradedForm(QSeries.one(4), 5, 0)


def test_sigma_series():
    s = sigma_series(1, 6)
    assert s.coefficients == (0, 1, 3, 4, 7, 6, 12)
