import random

import pytest

import tauforms.qseries as qseries
from oracle import rc_bracket_direct
from tauforms import (
    BracketSpec,
    GradedForm,
    QSeries,
    binomial,
    delta_product,
    e2_bracket_family,
    eisenstein,
    is_cuspidal,
    quasi_bracket,
    rc_bracket,
)

MODULAR_WEIGHTS = (4, 6, 8, 10, 12)


def test_binomial_vanishes_outside_range():
    assert binomial(5, -1) == 0
    assert binomial(5, 6) == 0
    assert binomial(5, 2) == 10
    assert binomial(0, 0) == 1


def test_bracket_spec_grading():
    spec = BracketSpec(3, 4, 2, 2, 1)
    assert spec.result_weight == 12
    assert spec.result_depth == 3
    with pytest.raises(ValueError):
        BracketSpec(1, 4, 3, 2, 1)  # depth beyond weight/2
    with pytest.raises(ValueError):
        BracketSpec(-1, 4, 0, 4, 0)


def test_order_zero_is_the_product():
    e4 = eisenstein(4, 16)
    e6 = eisenstein(6, 16)
    assert rc_bracket(e4, e6, 0).series == (e4 * e6).series


def test_e4_e4_order2_is_a_delta_multiple():
    n = 24
    bracket = rc_bracket(eisenstein(4, n), eisenstein(4, n), 2)
    delta = delta_product(n).series
    constant = bracket.coefficient(1)
    assert bracket.series == delta.scale(constant)
    assert constant == 4800
    # the reduced combination carries the 960 constant exactly
    e8 = eisenstein(8, n).series
    de4 = eisenstein(4, n).series.derive(1)
    assert e8.derive(2).scale(2) - (de4 * de4).scale(9) == delta.scale(960)


def test_vanishing_brackets():
    n = 20
    assert rc_bracket(eisenstein(4, n), eisenstein(8, n), 1).is_zero
    assert rc_bracket(eisenstein(4, n), eisenstein(6, n), 2).is_zero


def test_e4_e6_order1_constant():
    n = 20
    bracket = rc_bracket(eisenstein(4, n), eisenstein(6, n), 1)
    assert bracket.series == delta_product(n).series.scale(-3456)


def test_antisymmetry_grading():
    rng = random.Random(7)
    n = 16
    for _ in range(20):
        k = rng.choice(MODULAR_WEIGHTS)
        l = rng.choice(MODULAR_WEIGHTS)
        order = rng.randint(0, 4)
        f, g = eisenstein(k, n), eisenstein(l, n)
        left = rc_bracket(f, g, order)
        right = rc_bracket(g, f, order)
        assert left.series == right.series.scale((-1) ** order)
        assert left.weight == k + l + 2 * order


def test_rc_bracket_matches_direct_binomial_sum():
    n = 16
    for k, l, order in ((4, 6, 1), (4, 4, 2), (6, 8, 3), (4, 10, 0)):
        f, g = eisenstein(k, n), eisenstein(l, n)
        direct = rc_bracket_direct(
            list(f.series.coefficients), k, list(g.series.coefficients), l, order
        )
        assert list(rc_bracket(f, g, order).series.coefficients) == direct


def test_quasi_bracket_expansions_match_direct_construction():
    # order-3 bracket of (D(E2), E2) at grading (4,2),(2,1):
    # 16 D^3E2 DE2 - 18 (D^2E2)^2 - E2 D^4E2
    n = 24
    e2 = eisenstein(2, n).series
    direct = (
        (e2.derive(3) * e2.derive(1)).scale(16)
        - (e2.derive(2) * e2.derive(2)).scale(18)
        - (e2 * e2.derive(4))
    )
    fam = e2_bracket_family(n)
    assert fam["f5"].series == direct
    assert fam["f5"].weight == 12 and fam["f5"].depth == 3
    # order-1 bracket of (D^3E2, E2) at (8,4),(2,1): 4 D^3E2 DE2 - E2 D^4E2
    direct1 = (e2.derive(3) * e2.derive(1)).scale(4) - e2 * e2.derive(4)
    assert fam["f1"].series == direct1


def test_family_proportionalities():
    fam = e2_bracket_family(24)
    delta = delta_product(24).series
    assert fam["f5"].series == delta.scale(24)
    assert fam["f6"].series == fam["f5"].series.scale(-2)
    assert fam["f4"].series == fam["f2"].series.scale(-3)


@pytest.mark.parametrize("n", [0, 1, 19, 20, 64, 256])
def test_e2_family_is_its_six_brackets_from_three_products(monkeypatch, n):
    e2 = eisenstein(2, n)
    d = [e2.derive(i) for i in range(4)]
    expected = {
        "f1": quasi_bracket(1, d[3], d[0]),
        "f2": quasi_bracket(1, d[2], d[1]),
        "f3": quasi_bracket(2, d[2], d[0]),
        "f4": quasi_bracket(2, d[1], d[1]),
        "f5": quasi_bracket(3, d[1], d[0]),
        "f6": quasi_bracket(4, d[0], d[0]),
    }
    calls = []
    real = qseries._convolve_sum
    monkeypatch.setattr(
        qseries, "_convolve_sum", lambda terms, m: calls.append(len(terms)) or real(terms, m)
    )
    fam = e2_bracket_family(n)
    assert calls == [1, 1, 1]  # D^i E2 * D^(4-i) E2 for i = 0, 1, 2
    assert fam == expected
    assert {key: (f.weight, f.depth) for key, f in fam.items()} == {
        key: (f.weight, f.depth) for key, f in expected.items()
    }
    assert fam["f4"].series == fam["f2"].series.scale(-3)
    assert fam["f6"].series == fam["f5"].series.scale(-2)


def test_cuspidality():
    n = 16
    assert is_cuspidal(delta_product(n))
    assert not is_cuspidal(eisenstein(4, n))
    assert is_cuspidal(rc_bracket(eisenstein(4, n), eisenstein(6, n), 1))


def test_modular_bracket_rejects_quasimodular_operands():
    n = 12
    e2 = eisenstein(2, n)
    e4 = eisenstein(4, n)
    with pytest.raises(TypeError):
        rc_bracket(e2, e4, 1)
    with pytest.raises(TypeError):
        rc_bracket(e4, e4 + eisenstein(6, n), 1)  # inhomogeneous


def test_quasi_bracket_depth_validation():
    n = 12
    e2 = eisenstein(2, n)
    with pytest.raises(ValueError):
        quasi_bracket(1, e2, e2, left=(2, 2))  # depth 2 > 2/2


@pytest.mark.parametrize("n", [40, 90])  # schoolbook and packed kernel paths
def test_quasi_bracket_matches_binomial_formula(n):
    # The oracle's modular binomials C(v+k-1, v-r) C(v+l-1, r) become the
    # quasimodular C(k-s+v-1, v-r) C(l-t+v-1, r) when handed k-s and l-t.
    e2 = eisenstein(2, n)
    de2, d2e2 = e2.derive(1), e2.derive(2)
    e4, e6, e12 = (eisenstein(k, n) for k in (4, 6, 12))
    delta = delta_product(n)
    constant = GradedForm(QSeries.one(n), 4, 0)  # D^r of it vanishes for r >= 1
    zero = GradedForm(QSeries.zero(n), 6, 0)
    pairs = [
        (e2, e2),
        (de2, e2),
        (d2e2, de2),
        (e4, de2),
        (e12, e6),  # E12 has Fraction coefficients
        (e12, e12),  # equal Fraction operands, cleared and derived once
        (e12, d2e2),
        (delta, e12),
        (e4, e4),
        (constant, e6),
        (e4, zero),
    ]
    for order in range(5):
        for f, g in pairs:
            f_list, g_list = list(f.series.coefficients), list(g.series.coefficients)
            expected = rc_bracket_direct(
                f_list, f.weight - f.depth, g_list, g.weight - g.depth, order
            )
            bracket = quasi_bracket(order, f, g)
            assert list(bracket.series.coefficients) == expected, (order, f.weight, g.weight)
            assert bracket.weight == f.weight + g.weight + 2 * order
            assert bracket.depth == f.depth + g.depth
        # gradings passed in override the operands' own
        e4_list = list(e4.series.coefficients)
        expected = rc_bracket_direct(e4_list, 3, e4_list, 2, order)
        overridden = quasi_bracket(order, e4, e4, left=(4, 1), right=(4, 2))
        assert list(overridden.series.coefficients) == expected


def test_a_bracket_is_one_kernel_call(monkeypatch):
    # every term's product is summed by one _convolve_sum call; no series
    # product, scaling or sum is built on the way
    n = 80
    e4, e6 = eisenstein(4, n), eisenstein(6, n)
    expected = [rc_bracket(e4, e6, order).series for order in range(5)]
    calls = []
    real = qseries._convolve_sum
    monkeypatch.setattr(
        qseries, "_convolve_sum", lambda terms, m: calls.append(len(terms)) or real(terms, m)
    )
    for name in ("__mul__", "__add__", "scale"):
        monkeypatch.setattr(QSeries, name, lambda *args, name=name: pytest.fail(name))
    assert [quasi_bracket(order, e4, e6).series for order in range(5)] == expected
    assert calls == [1, 2, 3, 4, 5]


def test_a_bracket_of_one_form_derives_each_order_once(monkeypatch):
    # [f, f]_v sums c * D^r f * D^(v-r) f over r: each D^r f is built once
    # and serves both sides, so the one kernel call sees v + 1 vectors
    e4 = eisenstein(4, 80)
    calls = []
    real = qseries._convolve_sum
    monkeypatch.setattr(
        qseries, "_convolve_sum", lambda terms, m: calls.append(list(terms)) or real(terms, m)
    )
    for order in range(5):
        calls.clear()
        quasi_bracket(order, e4, e4)
        [terms] = calls
        assert len({id(v) for _, a, b in terms for v in (a, b)}) == order + 1
