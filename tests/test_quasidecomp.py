import hashlib
import random
from fractions import Fraction

import pytest

from tauforms import (
    DecompositionRecord,
    GradedForm,
    InconsistentSystem,
    NotInGradedSpace,
    QSeries,
    RankDeficientSystem,
    decompose,
    delta_product,
    e2_bracket_family,
    eisenstein,
    generator_count,
    graded_generators,
    modular_basis,
    quasi_bracket,
    recompose,
    sigma_series,
    solve_exact,
)


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
