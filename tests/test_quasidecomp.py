import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import solve_fraction
from tauforms import (
    DecompositionRecord,
    GradedForm,
    InconsistentSystem,
    LinearSolveError,
    NotInGradedSpace,
    QSeries,
    RankDeficientSystem,
    SigmaTable,
    decompose,
    delta_from_eisenstein,
    delta_product,
    e2_bracket_family,
    eisenstein,
    generator_count,
    graded_generators,
    modular_basis,
    quasi_bracket,
    recompose,
    sigma_series,
    sigma_table,
    solve_exact,
)
from tauforms import forms, quasidecomp


def test_modular_basis_dimensions_and_labels():
    assert modular_basis(2, 16) == ()
    (e8,) = modular_basis(8, 16)
    assert e8.label == "E8"
    assert e8.form.series == eisenstein(8, 16).series
    basis12 = modular_basis(12, 16)
    assert [b.label for b in basis12] == ["M12.0", "Delta"]
    assert basis12[0].form.coefficient(0) == 1 and basis12[0].form.coefficient(1) == 0
    assert basis12[1].form.series == delta_product(16).series
    (one,) = modular_basis(0, 8)
    assert one.label == "1" and one.form.series == QSeries.one(8)


def test_modular_basis_echelon_pivots():
    for k in (12, 16, 24):
        basis = modular_basis(k, 20)
        dim = len(basis)
        for i, el in enumerate(basis):
            for j in range(dim):
                assert el.form.coefficient(j) == (1 if i == j else 0)


_MODULAR_BASIS_SHA256 = {
    0: "349ecc4fb0db5a07821fd6c92332f34d6a67830f2493984497e0841d3ce86047",
    2: "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    4: "0cb4b3d4a20dad3fd6b5ce778ffa272e47d735344ec6480f7774c990df86ff30",
    6: "f8c594e68ce9df70ad2ad8815eb70b190483613b3e65684663a956feac7de972",
    8: "6fe2647c611a15a9e6c30ae506811f752676ecf796c085f9c97588e6ade3790d",
    10: "1468313aacddfa440008d510365348cb221933f6f87daee9190e209182bb0917",
    12: "d4011d77cee7e91cccfe1873a8ec8412254d6ee4d9843cde8c1357a3190a87e9",
    14: "cf9aca3211189a00540e5bbfc7949777e5e6ccd795d4844eb368274277169ff9",
    16: "10365b58e3ddb875d5bd96a21ae09ae1d079cd5d2eb7f817a3e8a3f9c7a484ab",
    18: "8279c28d0265050f1152b8ae3a3bbfe6e2b6c278fbe658bf230954a1123e29fe",
    20: "b7f93fe3059b1087d9b930d406f34f0ffef2a2c6e4da9dc49d3dd2bcde1a4fc1",
    22: "7ab2d01f4d10fead0400551dd326df8681fe0f9a7fce30d3b88ac4e07b363e5f",
    24: "cb2392166459adfa9e61cb5be5ee669e28c4713303ba883b8af3a0935422f5d6",
    26: "282ff4ca314d1ba32c7be1450ee264f6b0b5e899bb198863529892733882ebb3",
}


def test_modular_basis_digests():
    # labels, grading and every coefficient to q^64, pinned across rewrites
    # of the elimination that builds the basis
    digests = {}
    for k in _MODULAR_BASIS_SHA256:
        h = hashlib.sha256()
        for el in modular_basis(k, 64):
            form = el.form
            h.update(repr((el.label, form.weight, form.depth, form.series.coefficients)).encode())
        digests[k] = h.hexdigest()
    assert digests == _MODULAR_BASIS_SHA256


def test_generator_count():
    # weight 12: dim 2+1+1+1+1+0 plus the E2 line
    assert generator_count(12) == 7
    assert generator_count(8) == 4
    assert generator_count(16) == 10
    with pytest.raises(ValueError):
        generator_count(7)


def test_generator_labels_weight12():
    labels = [el.label for _, el in graded_generators(12, 16)]
    assert labels == [
        "M12.0",
        "Delta",
        "D(E10)",
        "D^2(E8)",
        "D^3(E6)",
        "D^4(E4)",
        "D^5(E2)",
    ]


def test_solve_exact_identity_and_scalar():
    assert solve_exact([[1, 0], [0, 1], [0, 0]], [3, Fraction(1, 2), 0]) == [
        3,
        Fraction(1, 2),
    ]
    assert solve_exact([[2]], [1]) == [Fraction(1, 2)]


def test_solve_exact_reports_first_inconsistent_row():
    with pytest.raises(InconsistentSystem) as info:
        solve_exact([[1], [1], [1]], [1, 1, 2])
    assert info.value.row == 2
    with pytest.raises(RankDeficientSystem):
        solve_exact([[1, 1], [2, 2], [3, 3]], [1, 2, 3])
    with pytest.raises(ValueError):
        solve_exact([[1, 2]], [1])


def test_solve_exact_overdetermined_from_decomposition():
    n = 24
    f5 = e2_bracket_family(n)["f5"]
    gens = graded_generators(12, n)
    rows = [[el.form.coefficient(i) for _, el in gens] for i in range(len(gens) + 5)]
    rhs = [f5.coefficient(i) for i in range(len(gens) + 5)]
    solution = solve_exact(rows, rhs)
    by_label = dict(zip((el.label for _, el in gens), solution))
    assert by_label["Delta"] == 24
    assert all(c == 0 for label, c in by_label.items() if label != "Delta")


GOLDEN = {
    "f1": {"Delta": Fraction(24, 7), "D^4(E4)": Fraction(3, 35)},
    "f2": {"Delta": Fraction(-24, 7), "D^4(E4)": Fraction(1, 70)},
    "f3": {"Delta": Fraction(-72, 7), "D^4(E4)": Fraction(-2, 35)},
    "f5": {"Delta": Fraction(24)},
}


def test_weight12_family_golden_coordinates():
    fam = e2_bracket_family(32)
    for key, expected in GOLDEN.items():
        assert decompose(fam[key]).nonzero() == expected


def test_weight8_golden_coordinates():
    e2 = eisenstein(2, 32)
    sq = decompose(e2.derive(1) * e2.derive(1), 8, 4)
    assert sq.nonzero() == {"D^2(E4)": Fraction(1, 5), "D^3(E2)": Fraction(2)}
    mixed = decompose(e2 * e2.derive(2), 8, 4)
    assert mixed.nonzero() == {"D^2(E4)": Fraction(3, 10), "D^3(E2)": Fraction(4)}


def test_decompose_zero_form():
    record = decompose(GradedForm(QSeries.zero(24), 12, 6))
    assert all(c == 0 for _, c in record.coordinates)
    assert recompose(record, 24).is_zero


def test_decompose_weight_mismatch_and_small_truncation():
    f = eisenstein(4, 32)
    with pytest.raises(ValueError):
        decompose(f, 6)
    with pytest.raises(ValueError):
        decompose(GradedForm(QSeries.zero(5), 12, 6))


def test_decompose_rejects_non_members():
    # a bare sigma series is not in any single graded weight
    fake = GradedForm(sigma_series(3, 32), 8, 4)
    with pytest.raises(NotInGradedSpace):
        decompose(fake)


def test_decompose_refuses_a_depth_bound_outside_the_weight():
    # a record at depth 9 in weight 8 could not be recomposed, and depth -1
    # is no verdict on the form but a wrong argument
    f = eisenstein(4, 20) * eisenstein(4, 20)
    with pytest.raises(ValueError, match=r"^depth bound 9 exceeds weight/2 = 4$"):
        decompose(f, 8, 9)
    with pytest.raises(ValueError, match="^depth bound must be non-negative$"):
        decompose(f, 8, -1)
    for s in (0, 4):
        assert recompose(decompose(f, 8, s), 20).series == f.series


def test_decompose_depth_bound_assertion():
    e2 = eisenstein(2, 32)
    d3 = e2.derive(3)  # depth 4 in weight 8
    with pytest.raises(NotInGradedSpace):
        decompose(GradedForm(d3.series, 8, 1), 8, 1)


def test_roundtrip_for_bracket_outputs():
    n = 40
    e2 = eisenstein(2, n)
    candidates = [
        e2_bracket_family(n)["f3"],
        quasi_bracket(1, eisenstein(4, n), e2),
        quasi_bracket(2, e2.derive(1), eisenstein(6, n)),
        quasi_bracket(0, e2, e2),
        eisenstein(4, n) * e2.derive(2),
    ]
    for form in candidates:
        assert form.weight <= 16
        record = decompose(form)
        assert recompose(record, n).series == form.series


def test_coordinates_independent_of_truncation():
    for n in (32, 48, 64):
        fam = e2_bracket_family(n)
        assert decompose(fam["f2"]).nonzero() == GOLDEN["f2"]


def test_recompose_golden_matches_bracket():
    record = DecompositionRecord(
        12, 5, (("Delta", Fraction(24, 7)), ("D^4(E4)", Fraction(3, 35)))
    )
    assert recompose(record, 32).series == e2_bracket_family(32)["f1"].series


def test_recompose_unknown_label():
    record = DecompositionRecord(12, 5, (("Nope", Fraction(1)),))
    with pytest.raises(LookupError):
        recompose(record, 24)


def test_recompose_empty_record():
    assert recompose(DecompositionRecord(12, 5, ()), 24).is_zero


def test_e2_differential_identities():
    n = 64
    e2 = eisenstein(2, n).series
    id2 = (
        (e2.derive(1) * e2.derive(1)).scale(3)
        - (e2 * e2.derive(2)).scale(2)
        + e2.derive(3).scale(2)
    )
    id3 = e2.derive(4) - e2 * e2.derive(3) + (e2.derive(1) * e2.derive(2)).scale(2)
    assert id2.is_zero
    assert id3.is_zero
    assert id2.derive(1) == id3.scale(2)


def test_random_combinations_roundtrip():
    rng = random.Random(20240)
    n = 40
    for _ in range(25):
        k = rng.choice((4, 6, 8, 10, 12, 14, 16))
        gens = graded_generators(k, n)
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in gens]
        total = QSeries.zero(n)
        for c, (_, el) in zip(coeffs, gens):
            total = total + el.form.series.scale(c)
        record = decompose(GradedForm(total, k, k // 2))
        assert [c for _, c in record.coordinates] == coeffs


_RATIONAL = st.fractions(min_value=-9, max_value=9, max_denominator=6)


def _matrix(data, nrows, ncols):
    return data.draw(
        st.lists(
            st.lists(_RATIONAL, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows
        )
    )


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_solve_exact_matches_fraction_oracle(data):
    # consistent, inconsistent (one right-hand side entry moved off the
    # column space) and rank-deficient (A = B C through a narrower B)
    ncols = data.draw(st.integers(1, 5), label="ncols")
    nrows = data.draw(st.integers(ncols, ncols + 4), label="nrows")
    kind = data.draw(st.sampled_from(("consistent", "inconsistent", "deficient")), label="kind")
    if kind == "deficient":
        width = data.draw(st.integers(0, ncols - 1), label="rank bound")
        b, c = _matrix(data, nrows, width), _matrix(data, width, ncols)
        cols = list(zip(*c)) if width else [()] * ncols
        rows = [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in cols] for row in b]
    else:
        rows = _matrix(data, nrows, ncols)
    x = data.draw(st.lists(_RATIONAL, min_size=ncols, max_size=ncols), label="x")
    rhs = [sum(a * v for a, v in zip(row, x)) for row in rows]
    if kind == "inconsistent":
        rhs[data.draw(st.integers(0, nrows - 1))] += data.draw(_RATIONAL.filter(bool))
    # mixed int and Fraction entries, as callers pass them
    rows = [[int(v) if v.denominator == 1 else v for v in row] for row in rows]
    try:
        expected = solve_fraction(rows, rhs)
    except LinearSolveError as exc:
        with pytest.raises(type(exc)) as info:
            solve_exact(rows, rhs)
        assert vars(info.value) == vars(exc)
    else:
        solution = solve_exact(rows, rhs)
        assert solution == expected
        assert all(type(v) is Fraction for v in solution)


def _named_forms(n):
    """Every kind of named form in the store, at truncation (or limit) n."""
    out = {
        ("Delta", "product"): delta_product(n),
        ("Delta", "eisenstein"): delta_from_eisenstein(n),
    }
    for k in range(2, 18, 2):
        out["E", k] = eisenstein(k, n)
        out["sigma", k - 1] = sigma_table(k - 1, n)
    for k in range(0, 28, 2):
        out["basis", k] = modular_basis(k, n)
    for k in range(2, 20, 2):
        out["generators", k] = graded_generators(k, n)
    return out


def _sizes(value):
    """The truncations (sigma limits) in a named form, a sigma table or
    sieve, or a tuple of basis elements or of (depth, element) generators."""
    if isinstance(value, GradedForm):
        return {value.truncation}
    if isinstance(value, SigmaTable):
        return {value.limit}
    if value and type(value[0]) is int:  # a stored sieve, values[0] = 0
        return {len(value) - 1}
    return {(el[1] if isinstance(el, tuple) else el).form.truncation for el in value}


def test_store_results_do_not_depend_on_request_order(monkeypatch):
    truncations = (2, 17, 40, 64)
    monkeypatch.setattr(forms, "_STORE", {})
    rising = {n: _named_forms(n) for n in truncations}  # every request rebuilds
    monkeypatch.setattr(forms, "_STORE", {})
    falling = {n: _named_forms(n) for n in reversed(truncations)}  # the later ones are cut
    assert rising == falling
    for n, named in rising.items():
        for key, value in named.items():
            assert _sizes(value) <= {n}, key


def test_store_holds_one_build_per_weight(monkeypatch):
    monkeypatch.setattr(forms, "_STORE", {})
    for n in (24, 40, 64, 100):
        form = e2_bracket_family(n)["f1"]
        assert recompose(decompose(form), n).series == form.series
    # decompose reads the bases of weights 4..12 and the weight-12
    # generators; those builds and the family read E2, E4, E6 and their sieves
    store = forms._STORE
    assert set(store) == (
        {("basis", k) for k in (4, 6, 8, 10, 12)}
        | {("generators", 12)}
        | {("E", k) for k in (2, 4, 6)}
        | {("sigma", k) for k in (1, 3, 5)}
    )
    for key, (n, build) in store.items():
        assert n == 100 and _sizes(build) == {100}, key


def test_rising_session_leaves_one_entry_per_key_at_the_largest_size(monkeypatch):
    monkeypatch.setattr(forms, "_STORE", {})
    for n in (24, 40, 64, 100):
        named = _named_forms(n)
    # M_2 = 0 is not stored
    store = forms._STORE
    assert set(store) == set(named) - {("basis", 2)}
    for key, (n, build) in store.items():
        assert n == 100 and _sizes(build) == {100}, key


def test_too_small_truncation_raises_whatever_the_store_holds(monkeypatch):
    monkeypatch.setattr(forms, "_STORE", {})
    too_small = (
        lambda: modular_basis(24, 1),  # dim 3
        lambda: modular_basis(0, -1),
        lambda: graded_generators(14, 0),  # M12 has dim 2
        lambda: decompose(GradedForm(QSeries.zero(10), 12, 6)),  # needs 0..11
    )
    messages = []
    for _ in range(2):
        for call in too_small:
            with pytest.raises(ValueError) as info:
                call()
            messages.append(str(info.value))
        for k in (0, 12, 14, 24):
            modular_basis(k, 120)
            if k:
                graded_generators(k, 120)
    assert messages[:4] == messages[4:]
    assert messages[2] == "truncation 0 too small: weight 14 needs coefficients 0..1"
    assert messages[3] == "truncation 10 too small: weight 12 needs coefficients 0..11"


@pytest.mark.parametrize("k", [4, 8, 12, 16])
def test_guard_finds_a_perturbed_last_coefficient(k):
    n = 48
    rng = random.Random(k)
    total = QSeries.zero(n)
    for _, el in graded_generators(k, n):
        total = total + el.form.series.scale(Fraction(rng.randint(-9, 9), rng.randint(1, 8)))
    assert decompose(GradedForm(total, k, k // 2)).weight == k
    coeffs = list(total.coefficients)
    coeffs[n] += Fraction(1, 11)
    with pytest.raises(NotInGradedSpace, match=f"first mismatch at coefficient {n}$") as info:
        decompose(GradedForm(QSeries(coeffs), k, k // 2))
    assert info.value.index == n


@pytest.mark.parametrize("n", [9, 16, 41, 100])
def test_recompose_inverts_decompose_for_rational_forms(n):
    e2, e4, e6 = (eisenstein(k, n) for k in (2, 4, 6))
    weight10 = (
        (e4 * e6).scale(Fraction(3, 7))
        + (e2 * e6.derive(1)).scale(Fraction(-5, 12))
        + (e2 * e2 * e6).scale(Fraction(1, 9))
    )
    assert weight10.weight == 10
    forms = [weight10]
    if n >= 11:  # weight 12 needs coefficients 0..11
        forms += [f.scale(Fraction(2, 13)) for f in e2_bracket_family(n).values()]
    for form in forms:
        assert recompose(decompose(form), n).series == form.series


@pytest.mark.parametrize("k", [8, 12, 16])
def test_generators_over_a_denominator_decompose_and_recompose(monkeypatch, k):
    # the stored generators have integer coefficients; scaled ones carry
    # denominators, which decompose and recompose read with the numerators
    n = 40
    rng = random.Random(k)
    gens = graded_generators(k, n)
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in gens]
    total = QSeries.zero(n)
    for c, (_, el) in zip(coeffs, gens):
        total = total + el.form.series.scale(c)
    scales = [Fraction(j + 2, 2 * j + 3) for j in range(len(gens))]
    real = quasidecomp.graded_generators

    def scaled(weight, truncation):
        return tuple(
            (depth, quasidecomp.BasisElement(el.label, el.form.scale(s)))
            for s, (depth, el) in zip(scales, real(weight, truncation))
        )

    monkeypatch.setattr(quasidecomp, "graded_generators", scaled)
    assert any(el.form.series._den > 1 for _, el in scaled(k, n))
    record = decompose(GradedForm(total.scale(Fraction(5, 3)), k, k // 2))
    assert [c for _, c in record.coordinates] == [
        Fraction(5, 3) * c / s for c, s in zip(coeffs, scales)
    ]
    assert recompose(record, n).series == total.scale(Fraction(5, 3))
