import importlib.util
import itertools
import json
import os
import random
import sys
from fractions import Fraction
from math import gcd
from numbers import Rational
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracle import (
    plain_add,
    plain_derive,
    plain_mul,
    plain_neg,
    plain_pow,
    plain_scale,
    plain_shift,
    plain_sub,
)
from tauforms import GradedForm, QSeries, delta_product, eisenstein, quasi_bracket, sigma_table
from tauforms import qseries
from tauforms.qseries import (
    _DECIMAL_THRESHOLD,
    _GMP_MIN_BITS,
    _PACK_THRESHOLD,
    _coefficient_int,
    _convolve_int,
    _convolve_sum,
    _multiply,
    _pack,
    _schoolbook_convolve,
    _unpack,
    as_rational,
)

# bounded random series per the ring-axiom contract: truncation <= 16,
# coefficients in [-9, 9] (ints or ninths)
coeff = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.fractions(min_value=-9, max_value=9, max_denominator=9),
)
series = st.builds(
    QSeries, st.lists(coeff, min_size=1, max_size=17)
)


def test_addition_examples():
    assert (QSeries([1, 2]) + QSeries([3, 4])).coefficients == (4, 6)
    f = QSeries([5, -1, 7])
    assert f + QSeries.zero(2) == f


def test_addition_truncates_to_shorter_operand():
    f = QSeries([1, 2, 3, 4])
    g = QSeries([1, 1])
    assert (f + g).truncation == 1


def test_eisenstein_sum_coefficient():
    e4 = eisenstein(4, 8).series
    e6 = eisenstein(6, 8).series
    assert (e4 + e6).coefficient(1) == 240 - 504 == -264


def test_multiplication_examples():
    f = QSeries([2, 3, 5])
    assert f * QSeries.one(2) == f
    assert (QSeries([1, 1, 0]) ** 2).coefficients == (1, 2, 1)


def test_e4_squared_is_e8():
    assert eisenstein(4, 24).series ** 2 == eisenstein(8, 24).series


def test_scale_examples():
    f = QSeries([1, 1])
    assert f.scale(0).is_zero
    assert f.scale(2).coefficients == (2, 2)
    assert (Fraction(1, 2) * f).coefficients == (Fraction(1, 2), Fraction(1, 2))


def test_delta_from_eisenstein_combination():
    e4 = eisenstein(4, 32).series
    e6 = eisenstein(6, 32).series
    assert (e4 ** 3 - e6 ** 2).scale(Fraction(1, 1728)) == delta_product(32).series


def test_derive_examples():
    assert QSeries.constant(7, 5).derive(1).is_zero
    # q^2 coefficient of D(E4): 2 * 240 * sigma3(2), sigma3(2) by enumeration
    sigma3_2 = sum(d ** 3 for d in (1, 2))
    assert eisenstein(4, 4).series.derive(1).coefficient(2) == 2 * 240 * sigma3_2 == 4320
    f = QSeries([3, 1, 4, 1, 5])
    assert f.derive(1).derive(1) == f.derive(2)


def test_derive_rejects_negative():
    with pytest.raises(ValueError):
        QSeries([1]).derive(-1)


def test_derive_refuses_more_bits_than_the_maximum(monkeypatch):
    # truncation 3: D^k makes about k * 4 * 2 bits, counted before any power
    monkeypatch.setattr(qseries, "MAX_DERIVE_BITS", 64)
    f = QSeries([3, 1, 4, 1])
    assert f.derive(8).coefficients == (0, 1, 4 * 2 ** 8, 3 ** 8)
    with pytest.raises(ValueError, match="D\\^9 at truncation 3 would take about 72 bits"):
        f.derive(9)
    assert QSeries([5]).derive(10 ** 9) == QSeries([0])


def test_coefficient_range_errors():
    f = QSeries([1, 2, 3])
    assert f.coefficient(2) == 3
    with pytest.raises(IndexError):
        f.coefficient(3)
    with pytest.raises(IndexError):
        f.coefficient(-1)


def test_e2_leading_coefficients():
    e2 = eisenstein(2, 4)
    assert e2.coefficient(0) == 1
    assert e2.coefficient(1) == -24


def test_rejects_floats():
    with pytest.raises(TypeError):
        QSeries([0.5])


def test_shift():
    assert QSeries([1, 2, 3]).shift(1).coefficients == (0, 1, 2)
    with pytest.raises(ValueError):
        QSeries([1]).shift(-1)


def test_truncate():
    f = QSeries([1, Fraction(1, 2), -3, 4])
    cut = f.truncate(2)
    assert cut == QSeries([1, Fraction(1, 2), -3])
    assert cut.coefficients == f.coefficients[:3]
    assert f.truncate(3) == f and f.truncate(0) == QSeries.one(0)
    for bad in (-1, 4):
        with pytest.raises(ValueError):
            f.truncate(bad)


def test_pow_zero_and_negative():
    f = QSeries([2, 1])
    assert f ** 0 == QSeries.one(1)
    with pytest.raises(ValueError):
        f ** -1


@settings(max_examples=100, deadline=None)
@given(series, series)
def test_add_mul_commutative(f, g):
    assert f + g == g + f
    assert f * g == g * f


@settings(max_examples=100, deadline=None)
@given(series, series, series)
def test_associativity_and_distributivity(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@settings(max_examples=100, deadline=None)
@given(series, series)
def test_leibniz_rule(f, g):
    lhs = (f * g).derive(1)
    assert lhs == f.derive(1) * g + f * g.derive(1)


@settings(max_examples=100, deadline=None)
@given(series, series)
def test_derive_is_linear(f, g):
    assert (f + g).derive(1) == f.derive(1) + g.derive(1)


@settings(max_examples=100, deadline=None)
@given(series, series)
def test_results_are_canonical(f, g):
    for result in (f + g, f * g, f.scale(Fraction(3, 7)), f.derive(2)):
        for c in result.coefficients:
            assert isinstance(c, Rational)
            assert c.denominator >= 1
            assert gcd(abs(c.numerator), c.denominator) == 1
            if isinstance(c, Fraction):
                assert c.denominator != 1  # denominator-1 values normalise to int


# halves make sums, scalings, derivatives and products collapse to ints
halves = st.builds(
    QSeries, st.lists(st.integers(-9, 9).map(lambda k: Fraction(k, 2)), min_size=1, max_size=80)
)


def _assert_canonical(s):
    for c in s.coefficients:
        assert type(c) is int or (
            type(c) is Fraction and c.denominator > 1 and gcd(c.numerator, c.denominator) == 1
        ), c


@settings(max_examples=80, deadline=None)
@given(
    st.one_of(series, halves),
    st.one_of(series, halves),
    st.fractions(min_value=-4, max_value=4, max_denominator=4),
    st.integers(0, 3),
)
def test_every_arithmetic_result_is_canonical(f, g, c, k):
    results = [f + g, f - g, -f, f.scale(c), f.derive(k), f.shift(k), f * g, f ** 2, f ** 3]
    results += [
        quasi_bracket(order, GradedForm(f, 4, 1), GradedForm(g, 6, 0)).series
        for order in range(4)
    ]
    results.append(quasi_bracket(2, GradedForm(f, 4, 0), GradedForm(f, 4, 0)).series)
    for result in results:
        _assert_canonical(result)


def _assert_reduced(s):
    """The stored form: integer numerators over one positive denominator,
    gcd(den, *nums) == 1, and den == 1 for the zero series."""
    assert all(type(v) is int for v in s._nums) and type(s._den) is int and s._den > 0
    assert gcd(s._den, *s._nums) == 1
    assert s._den == 1 or not s.is_zero


# mixed ints and Fractions, negative and zero entries, truncations 0..40
_plain = st.lists(
    st.one_of(
        st.just(0),
        st.integers(-50, 50),
        st.fractions(min_value=-50, max_value=50, max_denominator=12),
    ),
    min_size=1,
    max_size=41,
)


@settings(max_examples=150, deadline=None)
@given(
    _plain,
    _plain,
    st.one_of(st.just(0), st.integers(-20, 20), st.fractions(max_denominator=30)),
    st.integers(0, 4),
    st.integers(0, 3),
    st.data(),
)
def test_arithmetic_matches_the_plain_fraction_oracle(a, b, c, power, k, data):
    f, g = QSeries(a), QSeries(b)
    shift = data.draw(st.integers(0, len(a) + 1))
    cut = data.draw(st.integers(0, len(a) - 1))
    cases = [
        (f, [Fraction(x) for x in a]),
        (f + g, plain_add(a, b)),
        (f - g, plain_sub(a, b)),
        (-f, plain_neg(a)),
        (f.scale(c), plain_scale(a, c)),
        (c * f, plain_scale(a, c)),
        (f * g, plain_mul(a, b)),
        (f * f, plain_mul(a, a)),
        (f ** power, plain_pow(a, power)),
        (f.derive(k), plain_derive(a, k)),
        (f.shift(shift), plain_shift(a, shift)),
        (f.truncate(cut), [Fraction(x) for x in a[: cut + 1]]),
    ]
    for result, expected in cases:
        _assert_reduced(result)
        _assert_canonical(result)
        assert result.coefficients == tuple(expected)
        assert [result.coefficient(n) for n in range(len(expected))] == expected
        # the same series built from the oracle's Fractions is equal, and
        # hashes equal
        rebuilt = QSeries(expected)
        assert result == rebuilt and hash(result) == hash(rebuilt)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=-(10 ** 9), max_value=10 ** 9), min_size=1, max_size=90),
    st.lists(st.integers(min_value=-(10 ** 9), max_value=10 ** 9), min_size=1, max_size=90),
)
def test_packed_convolution_matches_schoolbook(a, b):
    n = min(len(a), len(b)) - 1 + 4
    assert _convolve_int(a, b, n) == _schoolbook_convolve(a[: n + 1], b[: n + 1], n)


# Sizes drawn past the packed route's cutoff: at least _PACK_THRESHOLD,
# and never below the 64 the tests were first written for.
_PACKED = max(_PACK_THRESHOLD, 64)

_signed_vector = st.lists(
    st.integers(min_value=-(10 ** 12), max_value=10 ** 12), min_size=1, max_size=2 * _PACKED
)


@settings(max_examples=80, deadline=None)
@given(_signed_vector, _signed_vector, st.integers(0, 4 * _PACKED + 4), st.booleans())
def test_single_coefficient_matches_the_kernel(a, b, n, square):
    # unequal lengths, n on both sides of _PACK_THRESHOLD and past the operands
    if square:
        b = a
    assert _coefficient_int(a, b, n) == _convolve_int(a, b, n)[n]


@st.composite
def _slots(draw):
    """A width in 1..40 bytes, 8 (the array branch) often, and values that
    fill such slots, the largest and zero included."""
    width = draw(st.one_of(st.just(8), st.integers(1, 40)))
    top = 256 ** width - 1
    value = st.one_of(st.sampled_from((0, 1, top)), st.integers(0, top))
    return width, draw(st.lists(value, max_size=40))


@settings(max_examples=200, deadline=None)
@given(_slots())
def test_pack_and_unpack_round_trip(slots):
    width, values = slots
    packed = _pack(values, width)
    # slot 0 is the least significant
    assert packed == sum(v << 8 * width * i for i, v in enumerate(values))
    assert list(_unpack(packed, width, len(values))) == values


@pytest.mark.parametrize("width", [8, 3, 16])  # the array branch and the bytes branch
def test_pack_refuses_a_value_outside_its_slot(width):
    for bad in (256 ** width, -1):
        with pytest.raises(OverflowError):
            _pack([1, bad, 2], width)
    for bad in (256 ** (2 * width), -1):
        with pytest.raises(OverflowError):
            _unpack(bad, width, 2)


def test_packed_convolution_large_prefix():
    a = list(range(-50, 150))
    b = [(-1) ** i * i ** 3 for i in range(180)]
    n = 150
    assert _convolve_int(a, b, n) == _schoolbook_convolve(a[: n + 1], b[: n + 1], n)


def _lengths_around_crossover(digits):
    """Operand lengths on both sides of the decimal route's crossover.

    Coefficients of `digits` digits give slots of about 2*digits + 4
    digits (a signed sum spans twice its bound), so the crossover falls
    near _DECIMAL_THRESHOLD / (2*digits + 4) coefficients.
    """
    cross = _DECIMAL_THRESHOLD // (2 * digits + 4)
    below = st.integers(max(_PACK_THRESHOLD + 1, cross // 2), cross * 3 // 4)
    above = st.integers(cross * 4 // 3, cross * 2)
    return below, above


def _random_ints(rnd, length, digits, signed=True):
    top = 10 ** digits
    return [rnd.randint(-top if signed else 0, top) for _ in range(length)]


@pytest.mark.parametrize("side", [0, 1], ids=["int-route", "decimal-route"])
@settings(
    max_examples=4, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data())
def test_packed_routes_match_schoolbook(side, data, without_gmp):
    digits = 40
    length = _lengths_around_crossover(digits)[side]
    rnd = data.draw(st.randoms(use_true_random=False))
    a = _random_ints(rnd, data.draw(length), digits)
    b = _random_ints(rnd, data.draw(length), digits, signed=data.draw(st.booleans()))
    n = min(len(a), len(b)) - 1 + data.draw(st.integers(0, 3))
    assert _convolve_int(a, b, n) == _schoolbook_convolve(a[: n + 1], b[: n + 1], n)


@pytest.mark.parametrize("side", [0, 1], ids=["int-route", "decimal-route"])
@settings(
    max_examples=3, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data())
def test_rational_products_match_schoolbook(side, data, without_gmp):
    digits = 80
    length = data.draw(_lengths_around_crossover(digits)[side])
    rnd = data.draw(st.randoms(use_true_random=False))
    top = 10 ** digits

    def coefficients():
        return [Fraction(rnd.randint(-top, top), rnd.randint(1, 9)) for _ in range(length)]

    f, g = coefficients(), coefficients()
    expected = tuple(as_rational(c) for c in _schoolbook_convolve(f, g, length - 1))
    assert (QSeries(f) * QSeries(g)).coefficients == expected


@pytest.mark.parametrize("side", [0, 1], ids=["int-route", "decimal-route"])
@settings(
    max_examples=4, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data())
def test_squaring_matches_product_of_copies(side, data, without_gmp):
    digits = 40
    rnd = data.draw(st.randoms(use_true_random=False))
    x = _random_ints(
        rnd,
        data.draw(_lengths_around_crossover(digits)[side]),
        digits,
        signed=data.draw(st.booleans()),
    )
    n = len(x) - 1
    assert _convolve_int(x, x, n) == _convolve_int(x, list(x), n)
    assert _convolve_int(x, x, n) == _schoolbook_convolve(x, x, n)
    f = QSeries(x).scale(Fraction(2, 3))
    assert f * f == f * QSeries(f.coefficients)


def test_route_follows_packed_size(decimal_route_widths):
    top = 10 ** 30

    def width(length):  # digits of the bound length * max(a) * max(b)
        return len(str(length * top * top))

    first = next(
        k for k in itertools.count(_PACK_THRESHOLD) if k * width(k) >= _DECIMAL_THRESHOLD
    )
    for length, taken in ((first - 1, False), (first, True)):
        a = [top] + [1] * (length - 1)
        decimal_route_widths.clear()
        assert _convolve_int(a, a, length - 1) == _schoolbook_convolve(a, a, length - 1)
        assert decimal_route_widths == ([width(length)] if taken else []), length


def test_packed_convolution_edge_cases(without_gmp):
    # 40-digit coefficients give slots of over 80 digits, so `long` packs
    # above the decimal route's crossover.
    long = [(-1) ** i * (10 ** 40 + i) for i in range(_DECIMAL_THRESHOLD // 80 + 100)]
    for a, b, n in (
        ([0] * 200, long, 300),  # all-zero operand
        ([0] * len(long), long, len(long) - 1),
        ([5], long, len(long) - 1),  # length-1 operand
        (long, long[-8::-1], 2 * len(long)),  # n beyond both lengths
    ):
        expected = _schoolbook_convolve(a[: n + 1], b[: n + 1], n)
        assert _convolve_int(a, b, n) == expected
        assert _convolve_int(b, a, n) == expected


def test_coefficients_wider_than_the_str_limit_stay_binary():
    # A slot wider than sys.get_int_max_str_digits() cannot be written or
    # read as decimal text, so such products keep the binary packing.
    digits = (sys.get_int_max_str_digits() or 4300) // 2 + 10
    a = [(-1) ** i * 10 ** digits + i for i in range(_PACKED + 6)]
    b = [10 ** digits - 7 * i for i in range(_PACKED + 2)]
    n = len(a) - 1
    assert _convolve_int(a, b, n) == _schoolbook_convolve(a, b, n)
    assert _convolve_int(b, b, n) == _schoolbook_convolve(b, b, n)


def test_pow_multiplies_only_the_powers_it_needs(monkeypatch):
    products = []
    real = qseries._convolve_sum

    def spy(terms, n):
        [(_, a, b)] = terms
        products.append(a is b)
        return real(terms, n)

    monkeypatch.setattr(qseries, "_convolve_sum", spy)
    f = QSeries([1, -2, 3, 5, 7])
    for exponent, squarings, others in ((1, 0, 0), (2, 1, 0), (3, 1, 1), (8, 3, 0), (13, 3, 2)):
        products.clear()
        expected = QSeries.one(f.truncation)
        for _ in range(exponent):
            expected = QSeries(_schoolbook_convolve(expected.coefficients, f.coefficients, 4))
        assert f ** exponent == expected
        assert (products.count(True), products.count(False)) == (squarings, others), exponent


def test_as_rational_normalises():
    assert as_rational(Fraction(4, 2)) == 2
    assert type(as_rational(Fraction(4, 2))) is int


def _summed_schoolbook(terms, n):
    out = [0] * (n + 1)
    for c, a, b in terms:
        for k, v in enumerate(_schoolbook_convolve(a[: n + 1], b[: n + 1], n)):
            out[k] += c * v
    return out


@st.composite
def _kernel_sums(draw, lengths, values):
    """(terms, n): one to four terms whose operands may repeat, so that a
    term can be a squaring or share an operand with another term."""
    vector = st.one_of(
        st.lists(values, min_size=1, max_size=lengths),
        st.lists(st.just(0), min_size=1, max_size=lengths),
    )
    vectors = draw(st.lists(vector, min_size=1, max_size=3))
    pick = st.sampled_from(vectors)
    terms = draw(st.lists(st.tuples(st.integers(-6, 6), pick, pick), min_size=1, max_size=4))
    n = draw(st.integers(0, lengths + 8))
    return terms, n


@settings(max_examples=120, deadline=None)
@given(
    _kernel_sums(
        2 * _PACKED + 20,
        st.one_of(st.just(0), st.integers(-(10 ** 12), 10 ** 12), st.integers(0, 9)),
    )
)
def test_kernel_matches_summed_schoolbook(case):
    # signed, zero, unequal-length, one-term and squaring inputs; zero
    # multipliers; n on both sides of _PACK_THRESHOLD and past the operands
    terms, n = case
    assert _convolve_sum(terms, n) == _summed_schoolbook(terms, n)


@pytest.mark.parametrize("side", [0, 1], ids=["binary-route", "decimal-route"])
@settings(
    max_examples=3, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data())
def test_kernel_sums_on_both_sides_of_the_decimal_crossover(side, data, decimal_route_widths):
    digits = 40
    rnd = data.draw(st.randoms(use_true_random=False))
    length = data.draw(_lengths_around_crossover(digits)[side])
    # full-size ends fix the slot width, and so the route
    top = 10 ** digits
    x = [-top, top] + _random_ints(rnd, length - 2, digits)
    y = [top] + _random_ints(rnd, length - 1, digits, signed=data.draw(st.booleans()))
    terms = [(3, x, y), (-2, y, y), (5, x, x), (1, y, x)]
    decimal_route_widths.clear()
    assert _convolve_sum(terms, length - 1) == _summed_schoolbook(terms, length - 1)
    assert bool(decimal_route_widths) == bool(side)


def test_kernel_never_writes_a_slot_past_the_str_limit(decimal_route_widths):
    # Slot widths come from bit lengths: under the smallest conversion limit
    # a sum whose slots fit it takes the decimal route, a wider one (even
    # of coefficients wider than the limit) takes the byte route, and none
    # converts a number past the limit to text.
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for digits, decimal in ((300, True), (330, False), (700, False)):
            x = [(-1) ** i * (10 ** digits - i) for i in range(100)]
            y = [10 ** digits + 7 * i for i in range(90)]
            terms = [(1, x, y), (-4, y, y)]
            decimal_route_widths.clear()
            assert _convolve_sum(terms, 99) == _summed_schoolbook(terms, 99)
            assert bool(decimal_route_widths) == decimal, digits
            assert all(w <= 640 for w in decimal_route_widths)
    finally:
        sys.set_int_max_str_digits(old)


_LONG = _PACK_THRESHOLD + 6  # coefficients past the schoolbook cutoff


@pytest.mark.parametrize(
    "terms, width",
    [
        # every slot at 256**w - 1 after the offset: 255 * 1 and 257 * 255
        ([(1, [255], [1] * _LONG)], 1),
        ([(1, [257], [255] * _LONG)], 2),
        # every slot at 0 after the offset: -255 * 1 + 255
        ([(1, [-255], [1] * _LONG)], 1),
        ([(1, [-257], [255] * _LONG)], 2),
    ],
)
def test_byte_route_slots_at_both_ends(byte_route_widths, terms, width):
    n = _LONG - 1
    assert _convolve_sum(terms, n) == _summed_schoolbook(terms, n)
    assert byte_route_widths == [width]


_NEGATIVE = [-(10 ** 12) - 7 * i for i in range(_LONG)]
_MIXED = [(-1) ** i * (10 ** 9 + i) for i in range(_LONG + 3)]


@pytest.mark.parametrize(
    "terms, n",
    [
        # all-negative operands: squared, times each other, times a mixed one
        ([(1, _NEGATIVE, _NEGATIVE)], _LONG - 1),
        ([(1, _NEGATIVE, [-1] * _LONG)], _LONG - 1),
        ([(3, _NEGATIVE, _MIXED)], _LONG - 1),
        # length-1 operands, squared and against a long one
        ([(1, [-5], [-5])], _LONG),
        ([(2, [-5], _MIXED), (1, _NEGATIVE, [7])], _LONG),
        # n past both operands
        ([(1, _MIXED, _NEGATIVE)], 3 * _LONG),
        ([(1, _MIXED[:5], _MIXED[:9])], _LONG + 20),
        # zero multipliers, given and merged, next to a live term
        ([(0, _MIXED, _NEGATIVE), (2, _MIXED, _MIXED), (0, _NEGATIVE, _NEGATIVE)], _LONG),
        ([(1, _MIXED, _NEGATIVE), (-1, _NEGATIVE, _MIXED), (1, [3], [4])], _LONG),
    ],
)
def test_byte_route_edge_cases(byte_route_widths, terms, n):
    assert _convolve_sum(terms, n) == _summed_schoolbook(terms, n)
    assert len(byte_route_widths) == 1


@pytest.mark.parametrize("decimal", [False, True], ids=["byte-route", "decimal-route"])
def test_read_back_drops_a_negative_upper_half(decimal_route_widths, decimal):
    # The kernel drops the slots above q^n before reading the sum back;
    # here every one of them holds a negative sum, and the low slots of
    # both signs must come back exact on either route.
    top = 10 ** 40  # slots of about 85 digits
    length = _DECIMAL_THRESHOLD // 85 * 3 // 2 if decimal else _LONG
    a = [top - i for i in range(length)]
    b = [(-1) ** j * (top + j) if j < length // 2 else -top - j for j in range(length)]
    terms = [(1, a, b), (2, b, [1] * length)]
    n = length - 1
    assert max(_summed_schoolbook(terms, 2 * n)[n + 1 :]) < 0
    low = _summed_schoolbook(terms, n)
    assert min(low) < 0 < max(low)
    assert _convolve_sum(terms, n) == low
    assert bool(decimal_route_widths) == decimal


def test_byte_route_skips_only_zero_sums(byte_route_widths):
    for terms in ([(0, _MIXED, _NEGATIVE)], [(1, _MIXED, _NEGATIVE), (-1, _NEGATIVE, _MIXED)]):
        assert _convolve_sum(terms, _LONG) == [0] * (_LONG + 1)
    assert byte_route_widths == []


# the crossover, and fixed sizes that stay put when it moves: about it
# when it sat at 7133 bits (from byte-sized operands), and five times that
@pytest.mark.parametrize(
    "bits", [_GMP_MIN_BITS - 1, _GMP_MIN_BITS, 5 * _GMP_MIN_BITS + 3, 7132, 7133, 35668]
)
@pytest.mark.parametrize("signs", [(1, 1), (-1, 1), (1, -1), (-1, -1)])
def test_multiply_matches_the_cpython_product(with_gmp, bits, signs):
    # the smaller factor on both sides of _GMP_MIN_BITS and above it, of
    # every sign
    rnd = random.Random(bits)
    x = signs[0] * (rnd.getrandbits(bits) | 1 << bits - 1)
    y = signs[1] * (rnd.getrandbits(bits + 77) | 1 << bits + 76)
    assert _multiply(x, y) == x * y == _multiply(y, x)
    assert _multiply(x, x) == x * x
    assert _multiply(x, 0) == 0 == _multiply(0, y)


@pytest.mark.parametrize("extra", [0, 1, 500])
def test_multiply_fills_every_word_of_its_buffer(with_gmp, extra):
    # magnitudes of all-ones 64-bit words: a product of w and v such words
    # takes all w + v words of the export buffer, and one more bit would not
    # fit; from the fewest words that reach _GMP_MIN_BITS on
    words = -(-_GMP_MIN_BITS // 64) + extra
    x = (1 << 64 * words) - 1
    y = (1 << 64 * (words + 3)) - 1
    for a, b in ((x, y), (-x, y), (y, -x), (x, x), (-y, -y)):
        assert _multiply(a, b) == a * b


_CAPPED_PRODUCT = (
    "import resource, sys\n"
    "from tauforms.qseries import _gmp, _multiply\n"
    "assert _gmp() is not None\n"
    "x = (1 << 64 * 2 ** 21) - 1\n"
    "with open('/proc/self/statm') as fh:\n"
    "    used = int(fh.read().split()[0]) * resource.getpagesize()\n"
    "cap = used + (24 << 20)\n"
    "resource.setrlimit(resource.RLIMIT_AS, (cap, cap))\n"
    "try:\n"
    "    _multiply(x, x)\n"
    "except MemoryError:\n"
    "    print('MemoryError')\n"
)


@pytest.mark.skipif(not Path("/proc/self/statm").exists(), reason="reads /proc/self/statm")
def test_a_product_libgmp_has_no_room_for_raises_memory_error(with_gmp):
    # squaring 2^21 words (16 MB) takes 32 MB for the product alone, past a
    # cap 24 MB above the address space in use: libgmp would abort the
    # interpreter (SIGABRT); CPython's product raises MemoryError
    import subprocess

    src = str(Path(qseries.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    argv = [sys.executable, "-c", _CAPPED_PRODUCT]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "MemoryError\n", "")


@pytest.fixture
def factors(monkeypatch):
    """(bits of the smaller factor, squared as one object, a factor
    negative) for every product of the byte route."""
    seen = []
    real = qseries._multiply

    def spy(x, y):
        seen.append((min(x.bit_length(), y.bit_length()), x is y, x < 0 or y < 0))
        return real(x, y)

    monkeypatch.setattr(qseries, "_multiply", spy)
    return seen


def _lengths_around_gmp_bits(slot_bits):
    """Operand lengths whose packed slots of about slot_bits bits put them
    below and above _GMP_MIN_BITS."""
    cross = _GMP_MIN_BITS // slot_bits
    below = st.integers(_PACK_THRESHOLD + 1, max(_PACK_THRESHOLD + 1, cross * 2 // 3))
    above = st.integers(cross * 3 // 2 + 1, cross * 3 + 1)
    return below, above


@pytest.mark.parametrize("side", [0, 1], ids=["cpython-int", "libgmp"])
@settings(
    max_examples=4, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data())
def test_kernel_sums_through_libgmp(side, data, with_gmp, factors, monkeypatch):
    # a negative packed operand (its top coefficient is negative), squarings
    # passed as one object and terms with multipliers other than 1
    digits = 2 if side == 0 else 12  # slots of about 32 and 96 bits
    length = data.draw(_lengths_around_gmp_bits(32 if side == 0 else 96)[side])
    rnd = data.draw(st.randoms(use_true_random=False))
    top = 10 ** digits
    # full-size top coefficients fix the packed operands' bit lengths
    x = _random_ints(rnd, length - 1, digits) + [-top]
    y = _random_ints(rnd, length - 1, digits, signed=data.draw(st.booleans())) + [top]
    terms = [(3, x, y), (-2, y, y), (5, x, x), (1, y, x)]
    n = length - 1 + data.draw(st.integers(0, 3))
    factors.clear()
    total = _convolve_sum(terms, n)
    assert total == _summed_schoolbook(terms, n)
    assert any(square for _, square, _ in factors) and any(neg for _, _, neg in factors)
    assert all((bits >= _GMP_MIN_BITS) == bool(side) for bits, _, _ in factors)
    with monkeypatch.context() as without:
        without.setattr(qseries, "_gmp", lambda: None)
        assert _convolve_sum(terms, n) == total


def _mul_crossover_script():
    path = Path(__file__).resolve().parents[1] / "scripts" / "mul_crossover.py"
    spec = importlib.util.spec_from_file_location("mul_crossover", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_mul_crossover_script_measures_both_routes(monkeypatch):
    # scripts/mul_crossover.py times the kernel's two packings and its
    # schoolbook cutoff by name; one small row of each keeps it in step
    # with the kernel
    script = _mul_crossover_script()
    loader = qseries._gmp
    row = script.measure(3, 64)  # the decimal sweep takes libgmp away, then back
    assert qseries._gmp is loader
    assert row["coefficients"] == 64 and row["packed_digits"] == 64 * row["slot_digits"]
    keys = ("binary_s", "decimal_s", "binary_square_s", "decimal_square_s")
    assert all(row[key] > 0 for key in keys)
    # the cutoff sweep times the kernel's own routes and puts the constant back
    row = script.measure_cutoff(3, 8)
    assert row["n"] == 8
    keys = ("schoolbook_s", "packed_s", "schoolbook_square_s", "packed_square_s")
    assert all(row[key] > 0 for key in keys)
    assert qseries._PACK_THRESHOLD == _PACK_THRESHOLD
    assert script.crossover([row], "n", "schoolbook", "packed") in (8, None)
    # the libgmp sweep times CPython's int and libgmp on the same packed
    # operands, and puts the threshold back
    if script.gmp_version() is None:
        pytest.skip("libgmp does not load on this host: the script times no libgmp row")
    operands = []
    monkeypatch.setattr(script, "_multiply", lambda x, y: operands.append(x) or _multiply(x, y))
    row = script.measure_gmp(3, 16)
    assert row["coefficients"] == 16 and row["packed_bits"] > 8 * row["slot_bytes"] * 15
    # the kernel's own packing of the operand
    assert operands[0] == _pack(sigma_table(3, 15).values, row["slot_bytes"])
    keys = ("int_s", "gmp_s", "int_square_s", "gmp_square_s")
    assert all(row[key] > 0 for key in keys)
    assert qseries._GMP_MIN_BITS == _GMP_MIN_BITS
    assert script.crossover([row], "packed_bits", "int", "gmp") in (row["packed_bits"], None)


def test_mul_crossover_runs_only_the_named_sweeps(monkeypatch, capsys):
    script = _mul_crossover_script()
    ran = []
    monkeypatch.setattr(script, "sweep", lambda measure_row, sizes: ran.append(measure_row) or [])
    monkeypatch.setattr(script, "gmp_version", lambda: "6.2.1")
    named = {"cutoff": script.measure_cutoff, "bytes": script.measure, "gmp": script.measure_gmp}
    keys = {"cutoff": "cutoff_rows", "bytes": "rows", "gmp": "gmp_rows"}
    for argv, expected in (
        ([], ["cutoff", "bytes", "gmp"]),
        (["--sweep", "gmp"], ["gmp"]),
        (["--sweep", "bytes", "--sweep", "cutoff"], ["cutoff", "bytes"]),
    ):
        ran.clear()
        script.main(argv)
        report = json.loads(capsys.readouterr().out)
        assert ran == [named[name] for name in expected]
        assert {key for key in keys.values() if key in report} == {keys[n] for n in expected}
    with pytest.raises(SystemExit):
        script.main(["--sweep", "decimal"])


def test_mul_crossover_ignores_a_loss_within_its_margin():
    script = _mul_crossover_script()

    def row(n, packed, packed_square=None):
        return {
            "n": n,
            "schoolbook_s": 1.0,
            "packed_s": packed,
            "schoolbook_square_s": 1.0,
            "packed_square_s": packed if packed_square is None else packed_square,
        }

    noisy = 1 + script.LOSS_MARGIN / 2
    rows = [row(8, 1.5), row(12, 0.9), row(16, noisy), row(20, 0.9, noisy), row(24, 0.8)]
    assert script.crossover(rows, "n", "schoolbook", "packed") == 12
    # a real loss, of the product or of the squaring, moves it
    lost = 1 + 2 * script.LOSS_MARGIN
    for late in (row(16, lost), row(20, 0.9, lost)):
        moved = [late if r["n"] == late["n"] else r for r in rows]
        assert script.crossover(moved, "n", "schoolbook", "packed") == late["n"] + 4
    assert script.crossover([row(8, lost)], "n", "schoolbook", "packed") is None
