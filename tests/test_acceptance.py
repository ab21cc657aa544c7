"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every assertion is an exact equality (zero tolerance); the two timed
criteria print their wall time.  Entries whose stated constants fail are
expected to be flagged by the audit with their refitted constants - that
path is asserted explicitly, never papered over.
"""

import random
import time
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from tauforms import (
    AUDIT_FLAGGED,
    QSeries,
    audit_all,
    builtin_registry,
    certify,
    check_congruence,
    decompose,
    delta_product,
    e2_bracket_family,
    eisenstein,
    generator_count,
    is_cuspidal,
    make_context,
    rc_bracket,
    tau_cross_check,
    verify_range,
)
from tauforms.identities import (
    ConvolutionTerm,
    Side,
    fit_identity,
)

FLAGGED = {"thm2.7.i", "thm2.9.iv"}


def test_criterion_01_identity_sweep():
    start = time.perf_counter()
    registry = builtin_registry()
    ctx = make_context(500)
    failed = {}
    for record in registry.identities:
        report = verify_range(record, 500, ctx)
        if report.status != "verified":
            failed[record.id] = report
    # only the pre-declared misprinted entries may fail, and each failure
    # must come with an exact refitted constant
    assert set(failed) == FLAGGED
    for key, report in failed.items():
        assert registry.by_id[key].status == AUDIT_FLAGGED
        fit = fit_identity(registry.by_id[key], ctx)
        assert fit.success and fit.discrepancies
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    print(
        f"criterion 1: PASS - 43/45 identities residual-free for n<=500; "
        f"thm2.7.i, thm2.9.iv audit-flagged with refitted constants ({elapsed:.1f}s)"
    )


def test_criterion_02_tau_cross_agreement():
    values = tau_cross_check(2000)
    assert values[1] == 1
    assert values[2] == -24
    assert values[6] == values[2] * values[3]
    print("criterion 2: PASS - product/eisenstein/vdp/niebur agree for n<=2000")


def test_criterion_03_eisenstein_relations():
    n = 2000
    e4 = eisenstein(4, n).series
    e6 = eisenstein(6, n).series
    e8 = eisenstein(8, n).series
    e10 = eisenstein(10, n).series
    e12 = eisenstein(12, n).series
    delta = delta_product(n).series
    assert e4 * e4 == e8
    assert e4 * e6 == e10
    assert e12 - e8 * e4 == delta.scale(Fraction(65520, 691) - 720)
    assert e12 - e6 * e6 == delta.scale(Fraction(65520, 691) + 1008)
    print("criterion 3: PASS - E4^2=E8, E4E6=E10 and both Delta relations at truncation 2000")


def test_criterion_04_decomposition_golden_values():
    fam = e2_bracket_family(32)
    assert decompose(fam["f1"]).nonzero() == {
        "Delta": Fraction(24, 7),
        "D^4(E4)": Fraction(3, 35),
    }
    assert decompose(fam["f2"]).nonzero() == {
        "Delta": Fraction(-24, 7),
        "D^4(E4)": Fraction(1, 70),
    }
    assert decompose(fam["f3"]).nonzero() == {
        "Delta": Fraction(-72, 7),
        "D^4(E4)": Fraction(-2, 35),
    }
    assert decompose(fam["f5"]).nonzero() == {"Delta": Fraction(24)}
    e2 = eisenstein(2, 32)
    sq = decompose(e2.derive(1) * e2.derive(1), 8, 4).nonzero()
    mixed = decompose(e2 * e2.derive(2), 8, 4).nonzero()
    assert sorted(sq.values()) == sorted([Fraction(1, 5), Fraction(2)])
    assert sorted(mixed.values()) == sorted([Fraction(3, 10), Fraction(4)])
    # the coordinates sit on D^2(E4), not D(E6); the audit records this
    assert sq == {"D^2(E4)": Fraction(1, 5), "D^3(E2)": Fraction(2)}
    assert mixed == {"D^2(E4)": Fraction(3, 10), "D^3(E2)": Fraction(4)}
    finding = {f.id for f in audit_all(40).findings}
    assert "weight8-decomposition-generator" in finding
    print(
        "criterion 4: PASS - f1,f2,f3,f5 and the weight-8 products decompose to the "
        "golden coordinates (generator label discrepancy audit-recorded)"
    )


def test_criterion_05_bracket_suite():
    n = 32
    delta = delta_product(n).series
    e4 = eisenstein(4, n)
    e6 = eisenstein(6, n)
    e8 = eisenstein(8, n)
    # stated: [E4,E4]_2 = 960*Delta.  The bracket is an exact Delta multiple;
    # if the multiple is not 960 the audit must record the discrepancy and
    # the reduced 960-relation must hold instead.
    b44 = rc_bracket(e4, e4, 2)
    c44 = b44.coefficient(1)
    assert b44.series == delta.scale(c44)
    holds_as_stated = c44 == 960
    if not holds_as_stated:
        assert c44 == 4800
        reduced = e8.series.derive(2).scale(2) - (
            e4.series.derive(1) * e4.series.derive(1)
        ).scale(9)
        assert reduced == delta.scale(960)
        finding = next(
            f for f in audit_all(40).findings
            if f.id == "bracket-e4-e4-order2"
        )
        assert "960" in finding.claimed and "4800" in finding.computed
    assert rc_bracket(e4, e8, 1).is_zero
    assert rc_bracket(e4, e6, 2).is_zero
    fam = e2_bracket_family(n)
    assert fam["f6"].series == fam["f5"].series.scale(-2)
    assert fam["f4"].series == fam["f2"].series.scale(-3)
    rng = random.Random(5)
    weights = (4, 6, 8, 10, 12)
    for _ in range(20):
        k, l = rng.choice(weights), rng.choice(weights)
        order = rng.randint(0, 4)
        f, g = eisenstein(k, 16), eisenstein(l, 16)
        assert rc_bracket(f, g, order).series == rc_bracket(g, f, order).series.scale(
            (-1) ** order
        )
    print(
        "criterion 5: PASS - [E4,E8]_1 = [E4,E6]_2 = 0, f6 = -2 f5, f4 = -3 f2, "
        "antisymmetry on 20 random pairs; [E4,E4]_2 = 4800*Delta with the stated "
        "960 audit-flagged (the reduced relation 2D^2E8 - 9(DE4)^2 = 960*Delta holds)"
    )


def test_criterion_06_congruence_sweep():
    start = time.perf_counter()
    limit = 10 ** 4
    registry = builtin_registry()
    ctx = make_context(limit)
    for record in registry.congruences:
        report = check_congruence(record, limit, ctx)
        assert report.status == "verified", (record.id, report.first_failure)
    elapsed = time.perf_counter() - start
    assert elapsed < 30
    print(
        f"criterion 6: PASS - all 15 congruences hold for admissible n <= 10^4 "
        f"({elapsed:.1f}s)"
    )


def test_criterion_07_certification():
    registry = builtin_registry()
    ctx = make_context(64)
    for record in registry.identities:
        report = certify(record)
        weight_bound = report.certification_bound
        from tauforms.identities import certification_weight

        k, _ = certification_weight(record)
        assert weight_bound == generator_count(k) + 4
        if record.status != AUDIT_FLAGGED:
            assert report.certified, record.id
        else:
            assert not report.certified
    # a deliberately perturbed coefficient must fail both checks, fast
    base = registry.by_id["thm2.1.i"]
    term = base.rhs.conv[0]
    bad = base._replace(
        id="thm2.1.i-perturbed",
        rhs=Side(
            base.rhs.closed,
            (ConvolutionTerm(term.coefficient + 1, 0, term.poly, 3, 3),),
        ),
    )
    report = verify_range(bad, 64, ctx)
    assert report.status == "failed" and report.first_failure[0] <= 5
    assert not certify(bad).certified
    print(
        "criterion 7: PASS - every verified identity certifies within G(k)+4 "
        "coefficients; the perturbed identity fails verify_range (n=2) and certify"
    )


def test_criterion_08_e2_identity_pair():
    n = 200
    e2 = eisenstein(2, n).series
    id2 = (
        (e2.derive(1) * e2.derive(1)).scale(3)
        - (e2 * e2.derive(2)).scale(2)
        + e2.derive(3).scale(2)
    )
    id3 = e2.derive(4) - e2 * e2.derive(3) + (e2.derive(1) * e2.derive(2)).scale(2)
    assert id2.is_zero and id3.is_zero
    assert id2.derive(1) == id3.scale(2)

    # term-by-term: differentiate the id2 combination symbolically over the
    # product basis D^i(E2)*D^j(E2) and the bare D^k(E2) line
    def leibniz(terms):
        out = {}

        def add(key, c):
            key = tuple(sorted(key, reverse=True)) if len(key) == 2 else key
            out[key] = out.get(key, 0) + c
            if not out[key]:
                del out[key]

        for key, c in terms.items():
            if len(key) == 2:
                i, j = key
                add((i + 1, j), c)
                add((i, j + 1), c)
            else:
                add((key[0] + 1,), c)
        return out

    id2_terms = {(1, 1): 3, (2, 0): -2, (3,): 2}
    id3_terms = {(4,): 1, (3, 0): -1, (2, 1): 2}
    assert leibniz(id2_terms) == {k: 2 * c for k, c in id3_terms.items()}
    print(
        "criterion 8: PASS - both E2 differential identities vanish to truncation 200 "
        "and D(id2) equals 2*id3 term by term"
    )


def test_criterion_09_audit_findings():
    report = audit_all(120)
    assert report.ok
    normal = next(f for f in report.findings if f.id == "eisenstein-leading-coefficient")
    assert "4k/B_k" in normal.claimed
    assert "2k/B_k" in normal.computed
    assert "twice" in normal.detail
    bracket = next(f for f in report.findings if f.id == "bracket-e4-e6-order1")
    assert "3456" in bracket.claimed
    assert "-3456" in bracket.computed
    assert "-3456" in bracket.detail  # the expanded display carries the true sign
    print(
        "criterion 9: PASS - audit records the leading-coefficient factor-2 "
        "discrepancy (correct form 2k/B_k) and the [E4,E6]_1 sign question "
        "(correct constant -3456)"
    )


coeff = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.fractions(min_value=-9, max_value=9, max_denominator=9),
)
series = st.builds(QSeries, st.lists(coeff, min_size=1, max_size=17))


@settings(max_examples=100, deadline=None)
@given(series, series, series)
def test_criterion_10a_ring_axioms(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@settings(max_examples=100, deadline=None)
@given(series, series)
def test_criterion_10b_leibniz(f, g):
    assert (f * g).derive(1) == f.derive(1) * g + f * g.derive(1)


def test_criterion_10c_roundtrip_and_cuspidality():
    from tauforms import GradedForm, graded_generators, recompose

    rng = random.Random(1234)
    n = 40
    for _ in range(100):
        k = rng.choice((4, 6, 8, 10, 12, 14, 16))
        gens = graded_generators(k, n)
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in gens]
        total = QSeries.zero(n)
        for c, (_, el) in zip(coeffs, gens):
            total = total + el.form.series.scale(c)
        record = decompose(GradedForm(total, k, k // 2))
        assert recompose(record, n).series == total
        assert [c for _, c in record.coordinates] == coeffs

    weights = (4, 6, 8, 10, 12)
    for _ in range(100):
        k, l = rng.choice(weights), rng.choice(weights)
        order = rng.randint(1, 4)
        bracket = rc_bracket(eisenstein(k, 12), eisenstein(l, 12), order)
        assert is_cuspidal(bracket)
    print(
        "criterion 10: PASS - ring axioms, Leibniz, decompose/recompose round-trip "
        "and bracket cuspidality: 100 randomised cases each, zero failures"
    )
