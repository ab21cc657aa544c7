import hashlib
import json
import random
import re
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle import congruence_failure, convolution_value, first_failure, side_value
from tauforms import (
    AUDIT_FLAGGED,
    EXPECTED_TRUE,
    ClosedTerm,
    ConvolutionTerm,
    IdentityRecord,
    InternalInconsistency,
    Side,
    VerificationReport,
    audit_all,
    builtin_registry,
    certify,
    check_congruence,
    check_congruences,
    evaluate,
    fit_identity,
    generator_count,
    make_context,
    tau,
    verify_range,
)
from tauforms import qseries
from tauforms.expr import MAX_DEPTH, ParseError
from tauforms.identities import (
    MAX_POWER,
    CongruenceRecord,
    _certification,
    certification_limit,
    certification_weight,
    parse_record,
)


_UNIT_WEIGHT = (((0, 0), 1),)  # the weight 1 of sum sigma_a(m)*sigma_b(n-m)

# E14 = E4*E10 read coefficient-wise: a weight-14 row outside the catalogue
_E14_ROW = (
    "e14-e4-e10",
    "sigma13(n) = -10*sigma3(n) + 11*sigma9(n) + 2640*sum sigma3(m)*sigma9(n-m)",
)


def test_registry_counts(registry):
    assert len(registry.identities) == 45
    assert len(registry.congruences) == 15
    assert len(registry.identities) + len(registry.congruences) >= 45
    assert len({r.id for r in registry}) == 60


def _canonical_dump(record):
    """A record's anchor and evaluated structure as one line of JSON."""

    def side(s):
        closed = [[str(t.coefficient), t.n_power, t.sigma] for t in s.closed]
        conv = [[str(t.coefficient), t.n_divisor, t.poly, t.left, t.right] for t in s.conv]
        return [closed, conv]

    return json.dumps([
        type(record).__name__,
        record.id,
        record.anchor,
        getattr(record, "status", None),
        side(record.lhs),
        side(record.rhs),
        getattr(record, "modulus", None),
        getattr(record, "modulus_factors", None),
        getattr(record, "gcd_condition", None),
    ])


# SHA-256 of the dump of every record, taken while an (a*n+b) prefix was
# still a field of its closed term: each such term dumped as its two
# expanded rows, each weight as its sorted monomials.  The hand-built term
# literals that preceded parsing dumped to the same records.
REGISTRY_DIGEST = "ec3608dce65f60e4962462f63c2f882622af2f06b01057ca76872d2cc4aca13f"


def test_registry_structure_pinned(registry):
    dump = "\n".join(_canonical_dump(r) for r in registry)
    assert hashlib.sha256(dump.encode()).hexdigest() == REGISTRY_DIGEST


@pytest.mark.parametrize(
    "anchor, offset",
    [
        ("tau(n) = sigma3 + sigma5(n)", 16),  # sigma3 without (n)
        ("tau(n) = 60*sum (2n-3m*(n-3m)*sigma3(m)*sigma3(n-m)", 29),  # unbalanced (
        ("tau(n) n^2*sigma7(n)", 7),  # no =
        ("tau(n) = 60*sum m*sigma3(m)", 27),  # no *sigma_b(n-m)
        ("tau(n) = 1/0*sigma(n)", 11),  # a zero denominator, refused at it
        ("tau(n) = sigma0 (n)", 14),  # sigma0, refused at the 0, not the space after it
        # well-formed, but 8*3*5 is not the modulus
        ("12*tau(n) == 5*n*sigma3(n) + 7*n*sigma5(n) mod 840 = 8*3*5", None),
    ],
)
def test_malformed_anchor_is_rejected(anchor, offset):
    if offset is None:
        with pytest.raises(ValueError, match="factorisation") as info:
            parse_record("bad", anchor)
        assert not isinstance(info.value, ParseError)
    else:
        with pytest.raises(ParseError) as info:
            parse_record("bad", anchor)
        assert info.value.offset == offset


def _reparsed(record, anchor):
    """record as parsed from anchor, with record's own anchor text."""
    return parse_record(record.id, anchor, getattr(record, "status", EXPECTED_TRUE))._replace(
        anchor=record.anchor
    )


@pytest.mark.parametrize(
    "spaced, unspaced",
    [
        ("tau(n) = 2*(1 / n)*sigma(n)", "tau(n) = 2*(1/n)*sigma(n)"),
        ("tau(n) = sum_{m = 1}^{n - 1} sigma(m)*sigma(n-m)",
         "tau(n) = sum_{m=1}^{n-1} sigma(m)*sigma(n-m)"),
        ("tau(n) = sum sigma(m) * sigma(n - m)", "tau(n) = sum sigma(m)*sigma(n-m)"),
        ("tau (n) = sigma( n )", "tau(n) = sigma(n)"),
        ("tau(n) == sigma11(n) mod 691, gcd( n, 7 ) = 1",
         "tau(n) == sigma11(n) mod 691, gcd(n,7)=1"),
    ],
)
def test_space_inside_a_multi_character_token_sequence_is_ignored(spaced, unspaced):
    assert _reparsed(parse_record("row", unspaced), spaced) == parse_record("row", unspaced)


# the tokens of an anchor, words whole: "sigma3" is "sigma", "3" and "2n" is "2", "n"
_ANCHOR_TOKENS = re.compile(r"\d+|[a-z]+|==|\S")
_SPACES = st.text(" \t\n", max_size=3)  # a run of spaces, tabs and newlines, or none


def test_every_catalogue_anchor_parses_alike_with_a_space_between_all_its_tokens():
    for record in builtin_registry():
        spaced = " ".join(_ANCHOR_TOKENS.findall(record.anchor))
        assert _reparsed(record, spaced) == record, spaced


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_runs_of_space_between_anchor_tokens_change_no_record(data):
    record = data.draw(st.sampled_from(tuple(builtin_registry())))
    tokens = _ANCHOR_TOKENS.findall(record.anchor) + [""]
    gaps = data.draw(st.lists(_SPACES, min_size=len(tokens), max_size=len(tokens)))
    spaced = "".join(map(str.__add__, gaps, tokens))
    assert _reparsed(record, spaced) == record


@pytest.mark.parametrize(
    "anchor, field",
    [
        ("tau(n) == tau(n) mod 0", "modulus 0"),
        # gcd(n, 0) = n, so only n = 1 would be checked
        ("tau(n) == sigma11(n) mod 691, gcd(n,0)=1", "gcd condition 0"),
    ],
)
def test_congruence_modulus_and_condition_below_one_are_refused(anchor, field):
    with pytest.raises(ValueError, match=f"^bad: .*{field}") as info:
        parse_record("bad", anchor)
    assert not isinstance(info.value, ParseError)


@pytest.mark.parametrize("levels", [1, MAX_DEPTH, MAX_DEPTH + 1, 2000])
def test_anchor_nesting_is_bounded(levels):
    head = "tau(n) = sum "
    anchor = head + "(" * levels + "m" + ")" * levels + "*sigma(m)*sigma(n-m)"
    if levels <= MAX_DEPTH:
        assert parse_record("deep", anchor).rhs.conv[0].poly == (((1, 0), 1),)
    else:
        # refused at the parenthesis that opens level MAX_DEPTH + 1
        with pytest.raises(ParseError) as info:
            parse_record("deep", anchor)
        assert info.value.offset == len(head) + MAX_DEPTH


_P = MAX_POWER


@pytest.mark.parametrize(
    "anchor",
    [
        # "|" marks the offset of the refusal.  Unbounded, m^1000000 would
        # take 0.44 s to multiply out and verify_range of n^100000 would
        # crash the interpreter
        "tau(n) = sum m^|1000000*sigma(m)*sigma(n-m)",
        "n^|100000*sigma(n) = sigma(n)",
        "sigma(n)/|n^100000 = sigma(n)",
        f"tau(n) = (1/n^{_P - 8})*sigma(n)/|n^9",
        f"tau(n) = n^{_P - 7}*|n^8*sigma(n)",
        f"tau(n) = (n^4)^|{_P // 4 + 1}*sigma(n)",
        f"tau(n) = sum (m+n)^{_P - 7}*|(m-n)^8*sigma(m)*sigma(n-m)",
        f"tau(n) = sum (m^2*n)^{_P // 2}*|m*sigma(m)*sigma(n-m)",
        "tau(n) = 2*(|m+1)*sigma(n)",  # a closed term's prefix is in n alone
    ],
)
def test_anchor_powers_are_bounded(anchor):
    with pytest.raises(ParseError) as info:
        parse_record("power", anchor.replace("|", ""))
    assert info.value.offset == anchor.index("|")


@pytest.mark.parametrize(
    "anchor",
    [
        f"n^{_P}*sigma(n) + (1/n^{_P})*sigma3(n) = (n^2)^{_P // 2}*sigma(n) + sigma3(n)/n^{_P}",
        f"sum m^{_P}*sigma(m)*sigma3(n-m) = sum (n-m)^{_P}*sigma3(m)*sigma(n-m)",
        f"sum m^{_P}*sigma(m)*sigma(n-m) = sum (n-m)^{_P}*sigma(m)*sigma(n-m)",
        f"sum (m*n)^{_P}*sigma(m)*sigma3(n-m) = sum m^{_P}*n^{_P}*sigma(m)*sigma3(n-m)",
        f"1/n^{_P}*sum m*sigma(m)*sigma(n-m) = 1/2*(1/n^{_P - 1})*sum sigma(m)*sigma(n-m)",
    ],
)
def test_the_largest_admitted_powers_parse_and_verify(anchor, ctx120):
    assert verify_range(parse_record("largest", anchor), 120, ctx120).status == "verified"


def test_registry_key_contents(registry):
    thm = registry.by_id["thm2.1.i"]
    assert thm.rhs.conv[0].coefficient == -540
    cor = registry.by_id["cor2.10"]
    assert cor.rhs == Side()
    eq = registry.by_id["eq1.1"]
    assert eq.rhs.conv[0].poly == (((0, 2), 2), ((1, 1), -9), ((2, 0), 9))


def test_registry_statuses(registry):
    flagged = {r.id for r in registry.identities if r.status == AUDIT_FLAGGED}
    assert flagged == {"thm2.7.i", "thm2.9.iv"}
    assert all(
        r.status == EXPECTED_TRUE for r in registry.identities if r.id not in flagged
    )


def _expanded_coefficients(prefix):
    """The nonzero coefficients, unsigned, of the product of the (a*n+b)
    factors in prefix (its n^p factors shift them and change none)."""
    poly = [1]  # by power of n
    for factor in re.findall(r"\(([^()]*)\)", prefix):
        a = b = 0
        for c, n in re.findall(r"([+-]?\d*)(n?)", factor):
            if c or n:
                k = int(c + "1" if c in ("", "+", "-") else c)
                a, b = (a + k, b) if n else (a, b + k)
        poly = [b * x + a * y for x, y in zip(poly + [0], [0] + poly)]
    return {abs(x) for x in poly if x}


def test_every_coefficient_appears_in_anchor(registry):
    for record in registry:
        # a closed term of sigma_j(n) in a record with a prefix P(n)*sigma_j(n)
        # may carry c times a coefficient of P expanded, where c is printed
        # in the anchor (or 1); every other term carries c itself
        factors = {}
        for prefix, name in re.findall(
            r"((?:(?:\([\dn+-]*\)|n(?:\^\d+)?)\*)+)(tau|sigma\d*)\(n\)", record.anchor
        ):
            j = 0 if name == "tau" else int(name[5:] or 1)
            factors.setdefault(j, set()).update(_expanded_coefficients(prefix))
        for side in (record.lhs, record.rhs):
            for term in side.closed:
                c = abs(term.coefficient)
                assert any(
                    c / x == 1 or str(c / x) in record.anchor
                    for x in {1, *factors.get(term.sigma, ())}
                ), (record.id, c)
            for term in side.conv:
                c = abs(term.coefficient)
                if c != 1:
                    assert str(c) in record.anchor, (record.id, c)


def test_congruence_modulus_factorisations(registry):
    for record in registry.congruences:
        prod = 1
        for f in record.modulus_factors:
            prod *= f
        assert prod == record.modulus
    assert registry.by_id["cor2.8.i"].modulus == 840
    assert registry.by_id["cor2.8.i"].modulus_factors == (8, 3, 5, 7)


def test_evaluate_examples(registry, ctx120):
    # empty convolution, sigma_k(1) = 1: 65/756 + 691/756 = 1 = tau(1)
    assert evaluate(registry.by_id["thm2.3"], 1, ctx120) == 0
    # tau(2) = 4*sigma7(2) - 540*sigma3(1)^2 = -24, product oracle agrees
    assert tau(2) == -24
    assert evaluate(registry.by_id["thm2.1.i"], 2, ctx120) == 0


def test_evaluate_rejects_n_below_one(registry, ctx120):
    # the identities are stated for n >= 1, as verify_range's range is
    for key, n in (("thm2.3", 0), ("eq1.1", 0), ("eq1.1", -1)):
        with pytest.raises(ValueError, match="at least 1"):
            evaluate(registry.by_id[key], n, ctx120)
        with pytest.raises(ValueError, match="at least 1"):
            registry.by_id[key].rhs.value(n, ctx120)


def test_cor210_brute_force(registry, ctx120):
    record = registry.by_id["cor2.10"]
    s1 = ctx120.source(1)
    for n in (5, 9, 16):
        brute = sum(
            (2 * m ** 3 - 3 * m ** 2 * n + m * n ** 2) * s1[m] * s1[n - m]
            for m in range(1, n)
        )
        assert brute == 0
        assert evaluate(record, n, ctx120) == 0


def test_verify_range_success(registry, ctx500):
    assert verify_range(registry.by_id["thm2.5.i"], 300, ctx500).status == "verified"
    assert verify_range(registry.by_id["thm2.9.iii"], 300, ctx500).status == "verified"


def test_bulk_matches_pointwise(registry, ctx120):
    rng = random.Random(99)
    for record in rng.sample(registry.identities, 8):
        lhs = record.lhs.bulk(ctx120, 60)
        rhs = record.rhs.bulk(ctx120, 60)
        for n in rng.sample(range(1, 61), 12):
            assert lhs[n] == side_value(record.lhs, n, ctx120)
            assert rhs[n] == side_value(record.rhs, n, ctx120)
            assert lhs[n] - rhs[n] == evaluate(record, n, ctx120)


_SIGMAS = (1, 3, 5, 7, 9, 11)
_rationals = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 36))
_closed_terms = st.builds(
    ClosedTerm,
    _rationals,
    st.integers(-2, 4),
    st.sampled_from((0,) + _SIGMAS),
)
_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 2)), st.integers(-5, 5), min_size=1, max_size=3
).map(lambda poly: tuple(sorted((k, c) for k, c in poly.items() if c)))
_conv_terms = st.builds(
    ConvolutionTerm,
    _rationals,
    st.integers(0, 2),
    _polys,
    st.sampled_from(_SIGMAS),
    st.sampled_from(_SIGMAS),
)
_sides = st.builds(
    Side,
    st.lists(_closed_terms, max_size=3).map(tuple),
    st.lists(_conv_terms, max_size=2).map(tuple),
)


def _split(side, parts):
    """The same side with each coefficient c written as (c - x) + x."""

    def split(terms):
        return tuple(
            piece
            for t, x in zip(terms, parts)
            for piece in (t._replace(coefficient=t.coefficient - x), t._replace(coefficient=x))
        )

    return Side(split(side.closed), split(side.conv))


@settings(max_examples=60, deadline=None)
@given(side=_sides)
def test_cleared_path_matches_oracle(side, ctx120):
    limit = 80
    bulk = side.bulk(ctx120, limit)
    expected = [side_value(side, n, ctx120) for n in range(1, limit + 1)]
    assert bulk[1:] == expected
    assert side.value(limit, ctx120) == expected[-1]
    d = side.clearing_power()
    coefficients = side.series(ctx120, limit, d).coefficients
    assert list(coefficients[1:]) == [n ** d * v for n, v in enumerate(expected, 1)]


@settings(max_examples=60, deadline=None)
@given(
    lhs=_sides,
    parts=st.lists(_rationals, min_size=5, max_size=5),
    extra=st.none() | _sides,
)
def test_first_failure_matches_oracle(lhs, parts, extra, ctx120):
    # the right side restates the left with split coefficients (other
    # denominators, same values), sometimes plus extra terms
    rhs = _split(lhs, parts)
    if extra is not None:
        rhs = Side(rhs.closed + extra.closed, rhs.conv + extra.conv)
    record = IdentityRecord("random", "", lhs, rhs)
    report = verify_range(record, 80, ctx120)
    expected = first_failure(record, 80, ctx120)
    assert report.first_failure == expected
    assert report.status == ("verified" if expected is None else "failed")


def _prefix_factor(kind, k, a, b):
    """(text, value at n) of one prefix factor: an integer, n^k, (a*n+b)^k or (1/n^k)."""
    affine = f"({a}n{b:+d})"
    return {
        "int": (str(k), lambda n: k),
        "npow": ("n" if k == 1 else f"n^{k}", lambda n: n**k),
        "affine": (affine if k == 1 else f"{affine}^{k}", lambda n: (a * n + b) ** k),
        "divide": (f"(1/n^{k})", lambda n: Fraction(1, n**k)),
    }[kind]


@st.composite
def _prefixed_terms(draw):
    """A closed anchor term c*F1*...*Fr*sigma_j(n)[/n^k], with c = [-]int[/int
    or /n^k], and its value at n as c*P(n)*sigma_j(n)/n^d.  At most 3 factors,
    each of n-degree at most 3, and at most 5 divisions of at most n^3 each
    keep every power within MAX_POWER."""
    number = draw(st.integers(1, 60))
    sign = draw(st.sampled_from((1, -1)))
    text, scale, divided = ("-" if sign < 0 else "") + str(number), Fraction(sign * number), 0
    lead = draw(st.sampled_from(("", "int", "npow")))
    if lead == "int":
        den = draw(st.integers(1, 36))
        text, scale = f"{text}/{den}", scale / den
    elif lead == "npow":
        divided = draw(st.integers(1, 3))
        text += "/n" if divided == 1 else f"/n^{divided}"
    factors = draw(st.lists(st.builds(
        _prefix_factor,
        st.sampled_from(("int", "npow", "affine", "divide")),
        st.integers(0, 3),
        st.integers(-6, 6),
        st.integers(-6, 6),
    ), max_size=3))
    j = draw(st.sampled_from((0,) + _SIGMAS))
    text = "*".join([text] + [t for t, _ in factors] + [f"sigma{j}(n)" if j else "tau(n)"])
    trail = draw(st.integers(0, 3))
    if trail:
        text += "/n" if trail == 1 else f"/n^{trail}"

    def value(n):
        v = scale / n ** (divided + trail)
        for _, f in factors:
            v *= f(n)
        return v

    return text, j, value


@settings(max_examples=150, deadline=None)
@given(term=_prefixed_terms())
def test_an_affine_prefix_is_expanded_when_parsed(term, ctx120):
    # every factor of a closed term's prefix multiplies out to one polynomial
    # in n, stated as one closed term per nonzero monomial, highest power of
    # n first; e.g. 7*n^4*(12n-5) is 84*n^5 then -35*n^4, and a prefix 0
    # leaves no term
    pinned = parse_record("cor2.11", "tau(n) = 7*n^4*(12n-5)*sigma(n) + 2*(n-n)*tau(n)")
    assert pinned.rhs.closed == (ClosedTerm(84, 5, 1), ClosedTerm(-35, 4, 1))
    text, j, value = term
    side = parse_record("prefix", f"{text} = 0").lhs
    powers = [t.n_power for t in side.closed]
    assert powers == sorted(set(powers), reverse=True)
    assert all(t.coefficient and t.sigma == j for t in side.closed)
    values = ctx120.source(j)
    expected = [value(n) * values[n] for n in range(1, 31)]
    assert [side_value(side, n, ctx120) for n in range(1, 31)] == expected
    assert side.bulk(ctx120, 30)[1:] == expected


def test_flagged_first_failures_pinned(registry, ctx120):
    for limit in (120, 2):  # at 2 the failure is the last n checked
        report = verify_range(registry.by_id["thm2.7.i"], limit, ctx120)
        assert report.first_failure == (2, Fraction(-24), Fraction(58729, 864))
        report = verify_range(registry.by_id["thm2.9.iv"], limit, ctx120)
        assert report.first_failure == (2, Fraction(1), Fraction(13, 10))


def test_context_convolution_without_weight_is_a_squaring(monkeypatch):
    # (3, 0, 3, 0) hands the kernel the sigma3 table itself, twice
    calls = []
    real = qseries._convolve_sum
    monkeypatch.setattr(
        qseries, "_convolve_sum", lambda terms, n: calls.append(list(terms)) or real(terms, n)
    )
    ctx = make_context(100)
    values = ctx.source((3, 0, 3, 0))
    [[(_, a, b)]] = calls
    assert a is b is ctx.source(3)
    term = ConvolutionTerm(1, 0, _UNIT_WEIGHT, 3, 3)
    assert [convolution_value(term, n, ctx) for n in (1, 2, 65, 100)] == [
        values[n] for n in (1, 2, 65, 100)
    ]


def test_context_shares_convolutions(registry):
    ctx = make_context(40)
    assert ctx.source((3, 1, 3, 1)) is ctx.source((3, 1, 3, 1))
    for record in registry.identities:
        verify_range(record, 40, ctx)
    s3, s5 = ctx.source(3), ctx.source(5)
    # (left, a, right, b) is sum m^a sigma_left(m) (n-m)^b sigma_right(n-m)
    assert ctx.source((3, 1, 3, 1)) == [
        sum(m * s3[m] * (n - m) * s3[n - m] for m in range(1, n)) for n in range(41)
    ]
    assert ctx.source((3, 1, 5, 0)) == [
        sum(m * s3[m] * s5[n - m] for m in range(1, n)) for n in range(41)
    ]


@pytest.mark.parametrize("limit", [1, 2, 63, 64, 65, 300])
def test_equal_sigma_sources_match_the_product(limit):
    # sum m^alpha sigma_j(m) sigma_j(n-m) is written through squarings, with
    # Waring's 1/2 in its scale; the product it replaces is
    # (m^alpha sigma_j) * sigma_j
    ctx = make_context(limit)
    for j in (1, 3, 5, 7):
        s = ctx.source(j)
        for alpha in range(5):
            side = Side(conv=(ConvolutionTerm(Fraction(1), 0, (((alpha, 0), 1),), j, j),))
            scale = side.denominator()
            assert scale == (2 if alpha else 1)
            u = [m ** alpha * v for m, v in enumerate(s)]
            product = qseries._convolve_int(u, s, limit)
            assert side.cleared(ctx, limit, scale, 0) == [scale * v for v in product], (j, alpha)


def _first_convolution_off_by_one(monkeypatch, unequal=False):
    """Make the first squaring the context builds (the first product of two
    different vectors, if unequal) off by one at n = 65."""
    import tauforms.identities as identities

    real = identities._convolve_int
    faults = []

    def first_off_by_one(a, b, n):
        out = real(a, b, n)
        if not faults and (a is b) != unequal:
            out[65] += 1
            faults.append(n)
        return out

    monkeypatch.setattr(identities, "_convolve_int", first_off_by_one)


@pytest.mark.parametrize("key", [(1, 0, 1, 0), (1, 1, 1, 1), (5, 1, 5, 1)])
def test_odd_symmetrised_sum_is_an_internal_inconsistency(key, monkeypatch):
    # a squaring is even at odd n, since each term m pairs with n-m; one
    # off by one at n = 65 is odd there
    _first_convolution_off_by_one(monkeypatch)
    with pytest.raises(InternalInconsistency, match="wrong parity at n=65"):
        make_context(100).source(key)


def test_a_squaring_fault_exits_3(monkeypatch, capsys):
    # a fault in the first squaring verify builds is an internal error, not
    # a failed identity
    from tauforms.cli import main

    _first_convolution_off_by_one(monkeypatch)
    assert main(["verify", "--identity", "all", "--max-n", "100"]) == 3
    assert "squared has the wrong parity at n=65" in capsys.readouterr().err


@pytest.mark.parametrize("key", [(3, 0, 5, 0), (1, 2, 3, 0), (0, 0, 1, 1)])
def test_a_wrong_unequal_product_is_an_internal_inconsistency(key, monkeypatch):
    # sum_{n<=N} (u*v)(n) = sum_m u(m) V(N-m) with V the prefix sums of v
    _first_convolution_off_by_one(monkeypatch, unequal=True)
    with pytest.raises(InternalInconsistency, match="has the wrong sum to n=100"):
        make_context(100).source(key)


def test_an_unequal_product_fault_exits_3(monkeypatch, capsys):
    from tauforms.cli import main

    _first_convolution_off_by_one(monkeypatch, unequal=True)
    assert main(["verify", "--identity", "all", "--max-n", "100"]) == 3
    assert "has the wrong sum to n=100" in capsys.readouterr().err


_powered_closed = st.builds(
    ClosedTerm,
    _rationals,
    st.integers(-2, 5),
    st.sampled_from((0,) + _SIGMAS),
)


@settings(max_examples=60, deadline=None)
@given(
    side=st.builds(
        Side,
        st.lists(_powered_closed, max_size=4).map(tuple),
        st.lists(_conv_terms, max_size=2).map(tuple),
    ),
    extra=st.integers(0, 1),
    multiple=st.integers(1, 3),
    limit=st.integers(1, 120),
)
@example(side=Side(), extra=0, multiple=1, limit=120)
@example(side=Side(), extra=1, multiple=2, limit=1)
def test_cleared_is_the_direct_sum(side, extra, multiple, limit, ctx120):
    scale, power = side.denominator() * multiple, side.clearing_power() + extra
    expected = [0] * (limit + 1)
    for source, e, c in side.terms(power):
        values = ctx120.source(source)
        for n in range(limit + 1):
            expected[n] += Fraction(c) * scale * n ** e * values[n]
    assert side.cleared(ctx120, limit, scale, power) == expected


def test_verify_all_builds_equal_sigma_sources_from_seven_squarings(monkeypatch, capsys):
    from tauforms.cli import main

    limit = 200
    calls = []
    real = qseries._convolve_sum
    monkeypatch.setattr(
        qseries, "_convolve_sum", lambda terms, n: calls.append(list(terms)) or real(terms, n)
    )
    assert main(["verify", "--identity", "all", "--max-n", str(limit)]) == 0
    capsys.readouterr()
    ctx = make_context(limit)
    moments = {
        tuple(m ** i * v for m, v in enumerate(ctx.source(j))): (j, i)
        for j in (1, 3, 5, 7, 9, 11)
        for i in range(5)
    }
    equal_sigma = []
    for terms in calls:
        [(_, a, b)] = terms
        left, right = moments.get(tuple(a)), moments.get(tuple(b))
        if left and right and left[0] == right[0]:
            assert a is b and left == right
            equal_sigma.append(left)
    # (1,1,1..4), (3,3,0..3) and (5,5,1..2) from the squarings of m^i sigma_j
    assert sorted(equal_sigma) == [(1, 0), (1, 1), (1, 2), (3, 0), (3, 1), (5, 0), (5, 1)]


def test_streamed_difference_is_the_difference_of_the_cleared_sides(registry):
    from tauforms.identities import _clearing, _difference

    limit = 300
    ctx = make_context(limit)
    failing, powers = [], set()
    for record in registry:
        scale, power = _clearing(record)
        lhs = record.lhs.cleared(ctx, limit, scale, power)
        rhs = record.rhs.cleared(ctx, limit, scale, power)
        diff = list(_difference(record, ctx, limit))
        assert diff == [l - r for l, r in zip(lhs, rhs)], record.id
        powers.add(power)
        if record in registry.identities and any(diff):
            failing.append(record.id)
    # the two flagged rows differ, with their failure reports as before
    assert failing == ["thm2.7.i", "thm2.9.iv"]
    for key in failing:
        record = registry.by_id[key]
        assert verify_range(record, limit, ctx).first_failure == first_failure(record, 4, ctx)
    assert powers == {0, 1, 2}  # rows with 1/n and 1/n^2 prefactors are cleared alike
    with pytest.raises(ValueError, match="beyond context limit"):
        _difference(registry.by_id["thm2.1.iii"], ctx, limit + 1)


def _convolutions_read(record):
    return {
        source
        for side in (record.lhs, record.rhs)
        for source, _, _ in side.terms(0)
        if isinstance(source, tuple)
    }


def _still_needed(records, i):
    """The convolutions records[i:] read."""
    return set().union(*map(_convolutions_read, records[i:]))


def test_catalogue_runs_drop_each_convolution_after_its_last_reader(
    registry, monkeypatch, capsys
):
    import tauforms.cli as cli
    import tauforms.identities as identities

    records = registry.identities
    held, contexts, built = {}, [], []
    real_verify, real_convolve = identities.verify_range, identities._convolve_int

    def verify(record, limit, ctx=None):
        # the convolutions in the context as the record starts
        held.setdefault(record.id, {k for k in ctx._sources if isinstance(k, tuple)})
        contexts.append(ctx)
        return real_verify(record, limit, ctx)

    monkeypatch.setattr(identities, "verify_range", verify)
    monkeypatch.setattr(
        identities, "_convolve_int", lambda a, b, n: built.append(n) or real_convolve(a, b, n)
    )
    reads = _still_needed(records, 0)
    # 19 unequal products and 7 squarings
    assert len(reads) == 26 and sum(k[:2] == k[2:] for k in reads) == 7
    by_id = {record.id: record for record in records}
    for run in (
        lambda: cli.main(["verify", "--identity", "all", "--max-n", "300"]),
        lambda: identities.audit_all(300),
        lambda: identities.audit_all(40),  # one context to T, below T too
    ):
        held.clear(), contexts.clear(), built.clear()
        run()
        ran = [by_id[key] for key in held]  # in the order the records ran
        assert sorted(ran, key=records.index) == list(records)
        for i, record in enumerate(ran):
            assert held[record.id] <= _still_needed(ran, i), record.id
        assert any(held.values())  # records that share a convolution still share it
        assert len(built) == len(reads)  # and none is built twice
        assert not [k for ctx in contexts for k in ctx._sources if isinstance(k, tuple)]
    capsys.readouterr()


def _perturb_conv(record, delta=1):
    term = record.rhs.conv[0]
    bad = ConvolutionTerm(
        term.coefficient + delta, term.n_divisor, term.poly, term.left, term.right
    )
    return record._replace(
        id=record.id + "-perturbed",
        rhs=Side(record.rhs.closed, (bad,) + record.rhs.conv[1:]),
    )


def test_perturbed_identity_fails_fast(registry, ctx120):
    bad = _perturb_conv(registry.by_id["thm2.1.i"])
    report = verify_range(bad, 120, ctx120)
    assert report.status == "failed"
    n, lhs, rhs = report.first_failure
    assert n == 2
    assert lhs == -24
    assert rhs == -24 + (2 - 1) * 1  # one convolution term of weight one


def test_certify_verified_identities(registry):
    report = certify(registry.by_id["thm2.1.i"])
    assert report.certified and report.status == "certified"
    assert report.certification_bound == generator_count(12) + 4 == 11


def test_certify_clears_divisor_powers(registry):
    for key in ("thm2.3", "thm2.6.iii", "thm2.6.v", "thm2.2.iv"):
        report = certify(registry.by_id[key])
        assert report.certified, key


def test_certification_weight_examples(registry):
    # graded over the unmerged terms: cor2.10's cancel to nothing once
    # merged, and it keeps weight 10 (bound 9)
    assert {r.id: certification_weight(r) for r in registry.identities} == {
        "eq1.1": (12, 0), "eq1.2": (12, 0), "thm2.1.i": (12, 0), "thm2.1.ii": (12, 0),
        "thm2.1.iii": (14, 1), "thm2.1.iv": (14, 1), "thm2.2.i": (12, 0),
        "thm2.2.ii": (12, 0), "thm2.2.iii": (14, 1), "thm2.2.iv": (14, 1),
        "thm2.2.v": (14, 1), "thm2.3": (14, 1), "thm2.4.i": (14, 1), "thm2.4.ii": (14, 1),
        "thm2.5.i": (12, 0), "thm2.5.ii": (12, 0), "thm2.5.iii": (12, 0),
        "thm2.5.iv": (12, 0), "thm2.6.i": (12, 0), "thm2.6.ii": (12, 0),
        "thm2.6.iii": (16, 2), "thm2.6.iv": (16, 2), "thm2.6.v": (16, 2),
        "thm2.7.i": (12, 0), "thm2.7.ii": (12, 0), "thm2.7.iii": (12, 0),
        "thm2.7.iv": (12, 0), "thm2.7.v": (12, 0), "thm2.7.vi": (12, 0),
        "thm2.7.vii": (12, 0), "thm2.7.viii": (12, 0), "thm2.7.ix": (12, 0),
        "thm2.9.i": (10, 0), "thm2.9.ii": (8, 0), "thm2.9.iii": (6, 0),
        "thm2.9.iv": (10, 0), "thm2.9.v": (8, 0), "thm2.9.vi": (10, 0),
        "thm2.9.vii": (8, 0), "thm2.9.viii": (10, 0), "cor2.10": (10, 0),
        "cor2.11": (12, 0), "id1": (10, 0), "id4": (8, 0), "id5": (10, 0),
    }
    assert certify(registry.by_id["cor2.10"]).certification_bound == 9


def test_a_record_without_terms_certifies_at_the_least_graded_weight():
    # "0 = 0" reads no source: it holds at every n, and certify grades it at
    # weight 2, the least graded weight, rather than refusing weight 0
    record = parse_record("zero", "0 = 0")
    assert certification_weight(record) == (2, 0)
    assert verify_range(record, 10).status == "verified"
    report = certify(record)
    assert report.certified and report.certification_bound == generator_count(2) + 4


def _merged(side, power):
    """side.terms(power) merged into {(source, e): c}, without zeros."""
    out = {}
    for source, e, c in side.terms(power):
        out[source, e] = out.get((source, e), 0) + c
    return {key: c for key, c in out.items() if c}


def test_equal_statements_merge_to_equal_terms(registry):
    # thm2.1.iii's 1080/n sum m^2 (n-m) sigma3 sigma3 is thm2.1.i's
    # 540 sum m (n-m) sigma3 sigma3 once both are written through squarings
    sides = [
        (_merged(r.lhs, 1), _merged(r.rhs, 1))
        for r in map(registry.by_id.get, ("eq1.2", "thm2.1.i", "thm2.1.iii"))
    ]
    assert sides[0] == sides[1] == sides[2]
    # cor2.10's polynomial is odd under m <-> n-m
    assert _merged(registry.by_id["cor2.10"].lhs, 0) == {}
    # the raw expansion of [E4,E4]_2 = 4800*Delta at q^n, over 4800
    raw = parse_record(
        "raw",
        "tau(n) = n^2*sigma3(n) + sum (240n^2 - 780m*n + 540m^2)*sigma3(m)*sigma3(n-m)",
    )
    eq = registry.by_id["eq1.1"]
    assert raw.rhs != eq.rhs
    assert _merged(raw.rhs, 0) == _merged(eq.rhs, 0)
    assert _merged(raw.lhs, 0) == _merged(eq.lhs, 0)


def test_certify_eisenstein_relation_as_record():
    # E8 = E4^2 written coefficient-wise: 480 sigma7(n) on the left,
    # 480 sigma3(n) + 57600 * conv on the right; weight-8 certificate
    record = IdentityRecord(
        "e8-is-e4-squared",
        "480*sigma7(n) = 480*sigma3(n) + 57600*sum sigma3(m)*sigma3(n-m)",
        Side(closed=(ClosedTerm(Fraction(480), 0, 7),)),
        Side(
            closed=(ClosedTerm(Fraction(480), 0, 3),),
            conv=(ConvolutionTerm(Fraction(57600), 0, _UNIT_WEIGHT, 3, 3),),
        ),
    )
    report = certify(record)
    assert report.certified
    assert report.certification_bound == generator_count(8) + 4 == 8
    # bound 8 means coefficients 0..8: nine in total
    assert report.certification_bound + 1 == 9


def test_certify_perturbed_identity_fails(registry):
    bad = _perturb_conv(registry.by_id["thm2.1.i"])
    report = certify(bad)
    assert not report.certified and report.status == "failed"


def test_certify_reports_nonzero_coordinate(registry):
    # doubling the n^2*sigma7 term shifts the difference by D^2(E8)/480,
    # which stays inside the graded space: the offending coordinate is named
    base = registry.by_id["thm2.1.i"]
    term = base.rhs.closed[0]
    bad = base._replace(
        id="thm2.1.i-closed-perturbed",
        rhs=Side((ClosedTerm(term.coefficient + 1, 2, 7),), base.rhs.conv),
    )
    report = certify(bad)
    assert not report.certified
    assert "D^2(E8)" in report.detail


def test_certify_flagged_entries_fail(registry):
    for key in ("thm2.7.i", "thm2.9.iv"):
        assert not certify(registry.by_id[key]).certified


def test_certify_detail_names_the_graded_space_once(registry):
    detail = certify(registry.by_id["thm2.7.i"]).detail
    assert detail == "difference not in the weight-12 graded space: coefficient 7 is inconsistent"
    detail = certify(registry.by_id["thm2.9.iv"]).detail
    assert detail == "difference not in the weight-10 graded space: coefficient 5 is inconsistent"


def test_certify_decomposes_only_a_failing_difference(registry, monkeypatch):
    import tauforms.identities as identities

    def refuse(*args):
        raise AssertionError("certify built or decomposed a q-series")

    monkeypatch.setattr(identities, "decompose", refuse)
    monkeypatch.setattr(identities.Side, "series", refuse)
    records = [r for r in registry.identities if r.status == EXPECTED_TRUE]
    records.append(parse_record(*_E14_ROW))
    for record in records:
        report = certify(record)
        assert report.certified and report.limit == 64, record.id
    with pytest.raises(TypeError):
        certify(records[0], truncation=64)


def test_certify_rejects_a_failure_that_decomposes_to_zero(registry, monkeypatch):
    import tauforms.identities as identities

    record = registry.by_id["thm2.1.i"]
    failed = VerificationReport(record.id, status="failed", limit=64)
    monkeypatch.setattr(identities, "verify_range", lambda record, limit, ctx: failed)
    with pytest.raises(InternalInconsistency, match="decomposes to 0"):
        certify(record)


def test_certify_makes_one_context_only_when_given_none(registry, monkeypatch):
    # the failing check and its diagnosis read one context
    import tauforms.identities as identities

    record = registry.by_id["thm2.7.i"]
    made = []
    real = identities.make_context
    monkeypatch.setattr(identities, "make_context", lambda limit: made.append(limit) or real(limit))
    report = certify(record)
    assert report.status == "failed" and report.detail
    assert made == [certification_limit(record)]
    made.clear()
    assert certify(record, real(certification_limit(record))) == report
    assert made == []


def test_certify_shares_one_context(registry, monkeypatch):
    import tauforms.cli as cli
    import tauforms.identities as identities

    records = list(registry.identities) + [parse_record(*_E14_ROW)]
    top = max(certification_limit(r) for r in records)
    ctx = make_context(top)
    for record in records:
        assert certify(record, ctx) == certify(record), record.id
    with pytest.raises(ValueError, match="beyond context limit"):
        certify(records[0], make_context(top - 1))
    # the certify command and the audit hand every record one context
    seen = []

    def spy(record, ctx=None):
        seen.append(ctx)
        return certify(record, ctx)

    monkeypatch.setattr(identities, "certify", spy)
    assert cli.main(["certify"]) == 0
    assert len(seen) == len(registry.identities) and len({id(c) for c in seen}) == 1
    assert seen[0].limit == 64
    # the audit walks each record once, to max(limit, T), and reads both
    # the range report at limit and certify's report off that walk
    for limit in (40, top):
        seen.clear()
        report = identities.audit_all(limit)
        assert seen == []
        for entry, record in zip(report.entries, registry.identities):
            assert entry.range_report == verify_range(record, limit), record.id
            assert entry.certify_report == certify(record), record.id


def test_certify_reads_its_report_off_a_longer_walk(registry, ctx120):
    # failing or not, a range walk beyond T gives certify's report, and a
    # first failure past T is none through q^T
    records = list(registry.identities) + [
        _perturb_conv(registry.by_id["thm2.1.i"]),
        parse_record(*_E14_ROW),
    ]
    for record in records:
        walk = verify_range(record, 120, ctx120)
        derived = _certification(record, ctx120, walk, certification_limit(record))
        assert derived == certify(record, ctx120), record.id
    record = registry.by_id["eq1.1"]
    t = certification_limit(record)
    late = VerificationReport(record.id, "failed", 120, (t + 1, 0, 1))
    assert _certification(record, ctx120, late, t) == certify(record)


def test_certification_agrees_with_range(registry, ctx120):
    for record in registry.identities:
        certified = certify(record).certified
        ranged = verify_range(record, 120, ctx120).status == "verified"
        assert certified == ranged, record.id


def test_congruence_examples(registry, ctx120):
    rec = registry.by_id["cor2.8.viii"]
    assert rec.lhs.value(2, ctx120) == 2 * tau(2) == -48
    assert rec.rhs.value(2, ctx120) == 4 * 3 + 4 * 33 == 144
    assert (-48 - 144) % 24 == 0
    assert check_congruence(rec, 120, ctx120).status == "verified"

    rec = registry.by_id["cor2.12.i"]
    assert rec.lhs.value(5, ctx120) == 25 * 6 == 150
    assert rec.rhs.value(5, ctx120) == 126
    assert (150 - 126) % 24 == 0
    assert check_congruence(rec, 120, ctx120).status == "verified"


def test_congruence_rejects_non_integral_side():
    half = Side(closed=(ClosedTerm(Fraction(1, 2), 0, 1),))
    with pytest.raises(ValueError, match=r"half: congruence term .*Fraction\(1, 2\)"):
        CongruenceRecord("half", "", half, Side(), 2, (2,))


def test_congruence_gcd_condition_skips(registry, ctx120):
    base = registry.by_id["cor2.12.i"]
    # without the gcd(n,6)=1 condition the relation already fails at n=2
    unrestricted = CongruenceRecord(
        "cor2.12.i-unrestricted",
        base.anchor,
        base.lhs,
        base.rhs,
        base.modulus,
        base.modulus_factors,
        gcd_condition=1,
    )
    report = check_congruence(unrestricted, 120, ctx120)
    assert report.status == "failed" and report.first_failure[0] == 2
    assert check_congruence(base, 120, ctx120).status == "verified"


@pytest.mark.parametrize(
    "anchor, scale, n",
    [
        # a wrong constant: n^2*sigma(n) stated 13 times over
        ("2*tau(n) == 13*n^2*sigma(n) + n^2*sigma5(n) mod 24", 1, 1),
        # cor2.8.viii at a modulus it does not reach
        ("2*tau(n) == n^2*sigma(n) + n^2*sigma5(n) mod 192 = 64*3", 1, 5),
        # cor2.12.i at twice its modulus: n = 2, 3, 4 fail but are skipped
        ("(6n-5)*sigma(n) == sigma3(n) mod 48 = 16*3, gcd(n,6)=1", 1, 5),
        # an equal-sigma convolution with an odd m-power: Waring's 1/2 makes
        # the scale 2, and the sides hold or fail as at scale 1
        pytest.param(
            "sum m*sigma(m)*sigma(n-m) == n^2*sigma(n) - n*sigma(n) mod 5", 2, None,
            id="scale 2 mod 5 holds",
        ),
        pytest.param(
            "sum m*sigma(m)*sigma(n-m) == n^2*sigma(n) - n*sigma(n) mod 25", 2, 2,
            id="scale 2 mod 25 fails",
        ),
        # lhs - rhs is -5 at n = 2, and 2*(lhs - rhs) is 0 mod 10: the check
        # must reduce mod 2*10
        pytest.param(
            "sum m*sigma(m)*sigma(n-m) == n^2*sigma(n) - n*sigma(n) mod 10 = 2*5", 2, 2,
            id="scale 2 mod 10 fails",
        ),
        pytest.param(
            "sum m*sigma(m)*sigma(n-m) == 5*n*sigma(n) - 2*n^2*sigma(n) + 4*n*sigma3(n) mod 7",
            2, None, id="scale 2 mod 7 holds",
        ),
        pytest.param(
            "sum m*sigma(m)*sigma(n-m) == 5*n*sigma(n) - 2*n^2*sigma(n) + 4*n*sigma3(n)"
            " mod 35 = 5*7", 2, 1, id="scale 2 mod 35 fails",
        ),
    ],
)
def test_congruence_reports_match_the_oracle(anchor, scale, n, ctx120):
    record = parse_record("probe", anchor)
    assert lcm(record.lhs.denominator(), record.rhs.denominator()) == scale
    report = check_congruence(record, 120, ctx120)
    expected = congruence_failure(record, 120, ctx120)
    assert report.first_failure == expected
    assert report.status == ("verified" if expected is None else "failed")
    assert (expected and expected[0]) == n


@pytest.mark.parametrize(
    "anchor",
    [
        "2*tau(n) == 1/2*n^2*sigma(n) + 1/2*n^2*sigma(n) + n^2*sigma5(n) mod 192",
        "tau(n) == 1/2*sigma11(n) + 1/2*sigma11(n) mod 691",
        "sigma3(n)/n == sigma(n) mod 2",
        "2*sum m*sigma(m)*sigma(n-m) == 1/n*sum m^2*sigma(m)*sigma(n-m) mod 3",
    ],
)
def test_congruence_anchor_with_a_non_integral_term_is_refused(anchor):
    # a congruence is a statement about integers, so these are refused when
    # parsed, whatever their values at each n would be
    with pytest.raises(ValueError, match="probe: congruence term"):
        parse_record("probe", anchor)


_integers = st.integers(-40, 40).map(Fraction)
_integral_closed = st.builds(
    ClosedTerm,
    _integers,
    st.integers(0, 4),
    st.sampled_from((0, 1, 3, 5)),
)
# odd coefficients, so that Waring's 1/2 survives in most equal-sigma terms
_integral_conv = st.builds(
    lambda c, poly, sigmas: ConvolutionTerm(c, 0, poly, *sigmas),
    st.integers(-20, 19).map(lambda k: Fraction(2 * k + 1)),
    _polys,
    st.sampled_from(((1, 1), (3, 3), (1, 3))),
)


@st.composite
def _integral_congruences(draw):
    """A congruence row whose right side restates the left's terms, each
    coefficient moved by a multiple of the modulus, plus a closed term t
    that may break it: c*t; (modulus // 2)*t, whose breaks are odd
    multiples of modulus/2, which a scale-2 check must keep; or c*t_j -
    c*t_k on two sigmas, equal at n = 1, so that a break comes later.
    Every term is integral."""
    modulus = draw(st.integers(2, 60))
    closed = draw(st.lists(_integral_closed, max_size=3))
    conv = (draw(_integral_conv),) if draw(st.integers(0, 2)) else ()

    def moved(terms):
        ks = draw(st.lists(st.integers(-2, 2), min_size=len(terms), max_size=len(terms)))
        return tuple(t._replace(coefficient=t.coefficient + modulus * k) for t, k in zip(terms, ks))

    t, kind = draw(_integral_closed), draw(st.sampled_from(("none", "c", "half", "pair")))
    extra = {
        "none": (),
        "c": (t,),
        "half": (t._replace(coefficient=Fraction(modulus // 2)),),
        "pair": (t, t._replace(coefficient=-t.coefficient, sigma=2 * t.sigma + 1)),
    }[kind]
    lhs = Side(tuple(closed), conv)
    rhs = Side(moved(closed) + extra, moved(conv))
    g = draw(st.sampled_from((1, 2, 3, 6, 10)))
    return CongruenceRecord("random", "", lhs, rhs, modulus, (modulus,), g)


@settings(max_examples=80, deadline=None)
@given(record=_integral_congruences())
def test_one_integer_pass_matches_the_oracle(record, ctx120):
    report = check_congruence(record, 60, ctx120)
    expected = congruence_failure(record, 60, ctx120)
    assert report.first_failure == expected
    assert report.status == ("verified" if expected is None else "failed")


_drawn_closed = st.builds(
    ClosedTerm,
    st.integers(-10**6, 10**6).map(Fraction),
    st.integers(0, 3),
    st.sampled_from((0,) + _SIGMAS),
)
_drawn_conv = st.builds(
    lambda c, poly, sigmas: ConvolutionTerm(Fraction(c), 0, poly, *sigmas),
    st.integers(-10**6, 10**6),
    _polys,
    st.sampled_from(((1, 1), (3, 3), (1, 3), (5, 7))),
)


@st.composite
def _drawn_congruences(draw):
    """A congruence row over tau and sigma_1..sigma_11 with n-powers 0..3,
    a modulus from 1 to 10^6, a gcd condition and at most one convolution:
    its right side restates the left's terms, each coefficient moved by a
    multiple of the modulus, plus at most one closed term that may break it."""
    modulus = draw(st.integers(1, 10**6))
    closed = tuple(draw(st.lists(_drawn_closed, max_size=3)))
    conv = tuple(draw(st.lists(_drawn_conv, max_size=1)))

    def moved(terms):
        ks = draw(st.lists(st.integers(-2, 2), min_size=len(terms), max_size=len(terms)))
        return tuple(t._replace(coefficient=t.coefficient + modulus * k) for t, k in zip(terms, ks))

    extra = tuple(draw(st.lists(_drawn_closed, max_size=1)))
    g = draw(st.integers(1, 200))  # past the limit too, where no n > 1 has gcd(n, g) = 1
    lhs, rhs = Side(closed, conv), Side(moved(closed) + extra, moved(conv))
    return CongruenceRecord("drawn", "", lhs, rhs, modulus, (modulus,), g)


# Rows whose modulus alone makes a batch's slots wider than 8 bytes (over
# 128 bits): tau == sigma11 mod 691, restated times P = _FACTOR, holds; tau ==
# sigma11 mod 691 * P fails at n = 2.
_FACTOR = 999983 * 1000003
_WIDE_ROWS = (
    parse_record("wide-holds", f"{_FACTOR}*tau(n) == {_FACTOR}*sigma11(n) mod {691 * _FACTOR}"),
    parse_record("wide-fails", f"tau(n) == sigma11(n) mod {691 * _FACTOR}"),
)


@settings(max_examples=60, deadline=None)
@given(records=st.lists(_drawn_congruences(), min_size=1, max_size=4), wide=st.booleans())
def test_drawn_congruences_match_the_oracle_alone_and_in_one_batch(records, wide, ctx120):
    records = [*records, *(_WIDE_ROWS if wide else ())]
    alone = [check_congruence(record, 60, ctx120) for record in records]
    for record, report in zip(records, alone):
        expected = congruence_failure(record, 60, ctx120)
        assert report.first_failure == expected
        assert report.status == ("verified" if expected is None else "failed")
    assert check_congruences(records, 60, ctx120) == alone


@pytest.mark.parametrize("width", [8, 24])
def test_coprime_mask_keeps_exactly_the_slots_prime_to_g(width):
    from tauforms.identities import _coprime_mask

    full = 256 ** width - 1
    for g in range(1, 61):
        for limit in {g - 1, g + 1, 2 * g + 3, 97} - {0}:  # mostly not multiples of g
            slots = list(qseries._unpack(_coprime_mask(g, limit, width), width, limit + 1 + g))
            expected = [full if gcd(n, g) == 1 else 0 for n in range(limit + 1)]
            assert slots[: limit + 1] == expected, (g, limit)


def test_batches_run_the_item_with_fewest_unread_keys_first():
    from tauforms.identities import _in_order

    needs = [{"a", "b"}, {"c"}, {"a"}, set(), {"b", "c"}]
    assert list(_in_order(needs)) == [
        (3, set()), (1, set()), (2, set()), (0, {"a"}), (4, {"b", "c"})
    ]


def test_a_batch_past_8_byte_slots_matches_each_record_alone(registry, ctx120, monkeypatch):
    from tauforms import identities

    widths, real = [], identities._pack
    monkeypatch.setattr(
        identities, "_pack", lambda values, width: widths.append(width) or real(values, width)
    )
    records = registry.congruences + _WIDE_ROWS
    batch = check_congruences(records, 120, ctx120)
    assert min(widths) == 24
    assert batch == [check_congruence(record, 120, ctx120) for record in records]
    assert [r.status for r in batch] == ["verified"] * 16 + ["failed"]
    assert batch[-1].first_failure == congruence_failure(_WIDE_ROWS[1], 120, ctx120)
    assert batch[-1].first_failure[0] == 2


_non_integers = st.builds(Fraction, st.integers(-60, 60), st.integers(2, 36)).filter(
    lambda c: c.denominator != 1
)
_non_integral_terms = st.one_of(
    st.builds(ClosedTerm, _non_integers, st.integers(-2, 3), st.sampled_from((0, 1, 3))),
    st.builds(ClosedTerm, _integers, st.integers(-3, -1), st.sampled_from((0, 1, 3))),
    st.builds(ConvolutionTerm, _rationals, st.integers(1, 2), _polys, st.just(1), st.just(3)),
    st.builds(ConvolutionTerm, _non_integers, st.just(0), _polys, st.just(1), st.just(1)),
)


@settings(max_examples=60, deadline=None)
@given(
    closed=st.lists(_integral_closed, max_size=2),
    conv=st.lists(_integral_conv, max_size=1),
    bad=_non_integral_terms,
    on_left=st.booleans(),
)
def test_a_non_integral_congruence_term_is_refused(closed, conv, bad, on_left):
    if isinstance(bad, ClosedTerm):
        odd = Side(tuple(closed) + (bad,), tuple(conv))
    else:
        odd = Side(tuple(closed), tuple(conv) + (bad,))
    sides = (odd, Side(tuple(closed))) if on_left else (Side(tuple(closed)), odd)
    with pytest.raises(ValueError, match="random: congruence term"):
        CongruenceRecord("random", "", *sides, 7, (7,))


def test_catalogue_congruences_at_a_wider_modulus_match_the_oracle(registry, ctx120):
    # every catalogue row has scale 1 and power 0; at seven times its
    # modulus each fails somewhere or holds, as the oracle says
    for record in registry.congruences:
        wider = record._replace(
            modulus=7 * record.modulus, modulus_factors=record.modulus_factors + (7,)
        )
        report = check_congruence(wider, 120, ctx120)
        assert report.first_failure == congruence_failure(wider, 120, ctx120), record.id


def test_all_congruences_hold(registry, ctx500):
    for record in registry.congruences:
        assert check_congruence(record, 500, ctx500).status == "verified", record.id


def test_fit_finds_true_convolution_constant(registry, ctx120):
    fit = fit_identity(registry.by_id["thm2.7.i"], ctx120)
    assert fit.success
    deltas = {c.description: (c.stated, c.fitted) for c in fit.discrepancies}
    assert deltas == {
        "sum 1 * sigma(m)*sigma9(n-m)": (Fraction(-3455, 864), Fraction(-3455, 36))
    }


def test_fit_sums_the_stated_coefficients_of_one_convolution(registry, ctx120):
    # thm2.7.i with its convolution written as two equal halves: one unknown
    # whose stated coefficient is their sum, as for closed terms of one shape
    anchor = registry.by_id["thm2.7.i"].anchor.replace(
        "- 3455/864*sum sigma(m)*sigma9(n-m)",
        "- 3455/1728*sum sigma(m)*sigma9(n-m) - 3455/1728*sum sigma(m)*sigma9(n-m)",
    )
    split = parse_record("thm2.7.i-split", anchor, AUDIT_FLAGGED)
    assert len(split.rhs.conv) == 2
    fit = fit_identity(split, ctx120)
    assert fit.success, fit.detail
    assert fit == fit_identity(registry.by_id["thm2.7.i"], ctx120)._replace(identity_id=split.id)


def test_fit_finds_true_npower(registry, ctx120):
    fit = fit_identity(registry.by_id["thm2.9.iv"], ctx120)
    assert fit.success
    deltas = {c.description: (c.stated, c.fitted) for c in fit.discrepancies}
    assert deltas == {
        "n^2*sigma3(n)": (Fraction(-1, 120), Fraction(0)),
        "n^3*sigma3(n)": (Fraction(0), Fraction(-1, 120)),
    }


@pytest.mark.parametrize(
    "key, constant", [("thm2.1.i", -540), ("thm2.5.i", -24), ("cor2.11", -840)]
)
def test_fit_recovers_a_perturbed_equal_sigma_constant(key, constant, registry, ctx120):
    # the unit column of an equal-sigma convolution has Waring's 1/2 in its
    # terms, so it needs a scale of its own
    record = registry.by_id[key]
    fit = fit_identity(_perturb_conv(record), ctx120)
    assert fit.success, fit.detail
    deltas = {c.description: (c.stated, c.fitted) for c in fit.discrepancies}
    assert deltas == {record.rhs.conv[0].describe(): (constant + 1, constant)}


def test_audit_report(registry):
    report = audit_all(120)
    assert report.ok
    statuses = {e.id: e.status for e in report.entries}
    assert statuses["thm2.7.i"] == AUDIT_FLAGGED
    assert statuses["thm2.9.iv"] == AUDIT_FLAGGED
    assert all(
        s == "verified"
        for key, s in statuses.items()
        if key not in ("thm2.7.i", "thm2.9.iv")
    )
    assert all(e.status == "verified" for e in report.congruences)
    flagged = report.entry("thm2.7.i")
    assert flagged.fit is not None and flagged.fit.success
    finding_ids = [f.id for f in report.findings]
    assert finding_ids == [
        "eisenstein-leading-coefficient",
        "bracket-e4-e6-order1",
        "bracket-e4-e4-order2",
        "weight8-decomposition-generator",
    ]


@pytest.mark.parametrize(
    "bend, message",
    [
        (lambda fails, holds: (fails, ("[E4,E6]_1 = -3455*Delta",) + holds[1:]), "fails"),
        (lambda fails, holds: (("[E4,E6]_1 = -3456*Delta",), holds), "holds"),
        (lambda fails, holds: (fails, ("[E4,E6]_1 = -3456*E8",) + holds[1:]), "weight"),
    ],
    ids=["correction-fails", "claim-holds", "unequal-weights"],
)
def test_audit_refuses_a_form_row_that_does_not_check_out(monkeypatch, capsys, bend, message):
    import tauforms.cli as cli
    import tauforms.identities as identities

    rows = identities._FORM_ROWS
    assert rows[0][0] == "bracket-e4-e6-order1"
    bent = rows[0][:4] + bend(*rows[0][4:])
    monkeypatch.setattr(identities, "_FORM_ROWS", (bent,) + rows[1:])
    with pytest.raises(InternalInconsistency, match=f"^bracket-e4-e6-order1: .*{message}"):
        audit_all(40)
    assert cli.main(["audit", "--max-n", "40"]) == 3
    out, err = capsys.readouterr()
    assert "audit ok" not in out and "bracket-e4-e6-order1" in err


def test_substituting_convolution_moments_reproduces_cor211(registry):
    """cor2.11 must equal thm2.5.i after eliminating the m^3 and m^2
    moments through thm2.9.i/ii - checked symbolically on canonical term
    maps (the 500-point residual agreement is the acceptance sweep)."""

    def canonical(record):
        tau_c = Fraction(0)
        closed = {}
        conv = {}
        for sign, side in ((1, record.lhs), (-1, record.rhs)):
            for t in side.closed:
                if t.sigma == 0:
                    tau_c += sign * t.coefficient
                else:
                    key = (t.n_power, t.sigma)
                    closed[key] = closed.get(key, Fraction(0)) + sign * t.coefficient
            for t in side.conv:
                for (a, b), c in t.poly:
                    key = (a, b - t.n_divisor, t.left, t.right)
                    conv[key] = conv.get(key, Fraction(0)) + sign * t.coefficient * c
        return (
            tau_c,
            {k: v for k, v in closed.items() if v},
            {k: v for k, v in conv.items() if v},
        )

    def moments(record):
        """closed-term replacement for the lhs convolution of a 2.9 entry."""
        (conv_term,) = record.lhs.conv
        ((alpha, beta),) = [mono for mono, _ in conv_term.poly]
        assert beta == 0 and conv_term.coefficient == 1
        out = {}
        for t in record.rhs.closed:
            key = (t.n_power, t.sigma)
            out[key] = out.get(key, Fraction(0)) + t.coefficient
        return alpha, out

    tau25, closed25, conv25 = canonical(registry.by_id["thm2.5.i"])
    m3_alpha, m3 = moments(registry.by_id["thm2.9.i"])
    m2_alpha, m2 = moments(registry.by_id["thm2.9.ii"])
    assert (m3_alpha, m2_alpha) == (3, 2)
    replaced_conv = {}
    for (a, b, x, y), c in conv25.items():
        assert (x, y) == (1, 1)
        if a == 3:
            for (p, j), w in m3.items():
                closed25[(p + b, j)] = closed25.get((p + b, j), Fraction(0)) + c * w
        elif a == 2:
            for (p, j), w in m2.items():
                closed25[(p + b, j)] = closed25.get((p + b, j), Fraction(0)) + c * w
        else:
            replaced_conv[(a, b, x, y)] = c
    closed25 = {k: v for k, v in closed25.items() if v}
    assert (tau25, closed25, replaced_conv) == canonical(registry.by_id["cor2.11"])


def test_2_9_iv_true_form_verifies(ctx120):
    """The refitted variant of the flagged entry holds over the range."""
    fixed = IdentityRecord(
        "thm2.9.iv-refit",
        "sum m^2*sigma(m)*sigma3(n-m) = -1/240*n^2*sigma(n) - 1/120*n^3*sigma3(n) + 1/80*n^2*sigma5(n)",
        Side(conv=(ConvolutionTerm(Fraction(1), 0, (((2, 0), 1),), 1, 3),)),
        Side(
            closed=(
                ClosedTerm(Fraction(-1, 240), 2, 1),
                ClosedTerm(Fraction(-1, 120), 3, 3),
                ClosedTerm(Fraction(1, 80), 2, 5),
            )
        ),
    )
    assert verify_range(fixed, 120, ctx120).status == "verified"
    assert certify(fixed).certified


def test_2_7_i_true_form_verifies(ctx120):
    fixed = IdentityRecord(
        "thm2.7.i-refit",
        "tau(n) = 3455/9504*sigma(n) - 691/864*(6n-5)*sigma9(n) + 2275/1584*sigma11(n)"
        " - 3455/36*sum sigma(m)*sigma9(n-m)",
        Side(closed=(ClosedTerm(Fraction(1), 0, 0),)),
        Side(
            closed=(
                ClosedTerm(Fraction(3455, 9504), 0, 1),
                ClosedTerm(Fraction(-691, 144), 1, 9),  # -691/864*(6n-5)*sigma9(n)
                ClosedTerm(Fraction(3455, 864), 0, 9),
                ClosedTerm(Fraction(2275, 1584), 0, 11),
            ),
            conv=(ConvolutionTerm(Fraction(-3455, 36), 0, _UNIT_WEIGHT, 1, 9),),
        ),
    )
    assert parse_record(fixed.id, fixed.anchor) == fixed
    assert verify_range(fixed, 120, ctx120).status == "verified"
    assert certify(fixed).certified


def test_make_context_bounds():
    with pytest.raises(ValueError):
        make_context(0)
    ctx = make_context(8)
    assert ctx.source(0)[:3] == [0, 1, -24]


def test_sigma_exponent_past_eleven():
    # E14 = E4*E10 read coefficient-wise needs a sigma_13 table
    record = parse_record(*_E14_ROW)
    ctx = make_context(500)
    assert verify_range(record, 500, ctx).status == "verified"
    assert certify(record).status == "certified"
    assert certification_weight(record) == (14, 0)
    for n in range(1, 61):
        expected = side_value(record.lhs, n, ctx) - side_value(record.rhs, n, ctx)
        assert evaluate(record, n, ctx) == expected == 0


def test_tau_free_records_build_no_delta(registry, monkeypatch):
    import tauforms.identities as identities

    def no_delta(limit, strategy="product"):
        raise AssertionError("a tau-free record asked for tau")

    monkeypatch.setattr(identities, "tau_range", no_delta)
    record = registry.by_id["thm2.9.iii"]
    assert verify_range(record, 300).status == "verified"
    assert certify(record).status == "certified"


def test_context_builds_only_the_sigma_tables_read(registry, monkeypatch):
    import tauforms.identities as identities

    seen = []
    sigma_table = identities.sigma_table

    def spy(k, limit):
        seen.append(k)
        return sigma_table(k, limit)

    monkeypatch.setattr(identities, "sigma_table", spy)
    ctx = make_context(300)
    for record in registry.congruences:
        assert check_congruence(record, 300, ctx).status == "verified", record.id
    # each table once, and no sigma_11: no congruence reads it
    assert sorted(seen) == [1, 3, 5, 7, 9]


def test_context_tau_comes_from_delta_at_every_limit(registry, monkeypatch):
    # eq1.2 is van der Pol's formula for tau; checked against a tau table
    # built by that same formula, a verdict would be circular
    import tauforms.identities as identities

    tau_range = identities.tau_range

    def product_only(limit, strategy="product"):
        if strategy != "product":
            raise AssertionError(f"evaluation context asked for tau by {strategy!r}")
        return tau_range(limit, strategy)

    monkeypatch.setattr(identities, "tau_range", product_only)
    ctx = make_context(2049)
    assert verify_range(registry.by_id["eq1.2"], 2049, ctx).status == "verified"


def test_cor210_vanishes_to_1000(registry):
    ctx = make_context(1000)
    record = registry.by_id["cor2.10"]
    (term,) = record.lhs.conv
    assert all(convolution_value(term, n, ctx) == 0 for n in range(1, 1001))
    assert all(v == 0 for v in record.lhs.bulk(ctx, 1000))
