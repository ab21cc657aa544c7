import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tauforms import (
    EvalError,
    ParseError,
    delta_product,
    e2_bracket_family,
    eisenstein,
    eval_expr,
    parse,
    print_expr,
)
from tauforms import qseries
from tauforms.expr import MAX_DEPTH, Atom, Bracket, Deriv, Lit, Mul, Phi, Sub


def test_parse_shapes():
    assert parse("E8 - E4*E4") == Sub(Atom("E8"), Mul(Atom("E4"), Atom("E4")))
    assert parse("[E4, E6]_2") == Bracket(Atom("E4"), Atom("E6"), 2)
    assert parse("D^3(E2)") == Deriv(3, Atom("E2"))
    assert parse("1/2 E4") == Mul(Lit(Fraction(1, 2)), Atom("E4"))
    assert parse("2 3") == Mul(Lit(Fraction(2)), Lit(Fraction(3)))  # juxtaposition


def test_parse_whitespace_insensitive():
    assert parse(" E4 * E6 ") == parse("E4*E6")
    assert parse("D ( E2 )") == Deriv(1, Atom("E2"))
    # linear in a run of trailing space: a token pattern that also read the space
    # before each token took 12 s for 20000
    assert parse("E4" + " " * 100000) == Atom("E4")


def test_parse_leading_minus():
    assert parse("-E4") == Sub(Lit(Fraction(0)), Atom("E4"))


def test_parse_phi():
    node = parse("Phi(3; D(E2), 4, 2; E2, 2, 1)")
    assert node == Phi(3, Deriv(1, Atom("E2")), 4, 2, Atom("E2"), 2, 1)


def test_parse_error_offsets():
    with pytest.raises(ParseError) as info:
        parse("D^(E4)")
    assert info.value.offset == 2
    assert "integer" in info.value.expected

    with pytest.raises(ParseError) as info:
        parse("E4 +")
    assert info.value.offset == 4

    with pytest.raises(ParseError) as info:
        parse("E5")
    assert info.value.offset == 0
    assert "E4" in info.value.expected

    with pytest.raises(ParseError) as info:
        parse("[E4, E6]_x")
    assert info.value.offset == 9

    with pytest.raises(ParseError) as info:
        parse("E4 E6)")
    assert info.value.offset == 5

    # an error raised right after a token is read points at that token,
    # not at the space that follows it
    with pytest.raises(ParseError) as info:
        parse("1/0 * E4")
    assert (info.value.offset, info.value.found) == (2, "0")


# expressions k levels deep, by shape: each parenthesis, D, bracket and Phi
# nests a level, and each D, bracket, Phi and operator is a level of the tree
NESTED = {
    "parens": lambda k: "(" * k + "E4" + ")" * k,
    "D": lambda k: "D(" * k + "E4" + ")" * k,
    "bracket": lambda k: "[" * k + "E4" + ", 1]_0" * k,
    "Phi": lambda k: "Phi(0; " * k + "E4" + ", 4, 0; 1, 0, 0)" * k,
    "sum": lambda k: "E4" + " - E4" * k,
    "product": lambda k: "E4" + "*1" * k,
    "juxtaposed": lambda k: "E4" + " 1" * k,
    "negated": lambda k: "(-" * k + "E4" + ")" * k,
    # a high first operand, then a chain over it: k/2 + k/2 tree levels
    "high then chained": lambda k: "D(" * (k // 2) + "E4" + ")" * (k // 2) + "+E4" * (k - k // 2),
    "chained inside": lambda k: "D(" * (k // 2) + "E4" + "*E4" * (k - k // 2) + ")" * (k // 2),
}


def _height(node):
    """Levels of eval_expr's recursion below node, without recursing."""
    deepest, stack = 0, [(node, 0)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        children = [v for v in node._astuple() if hasattr(v, "_astuple")]
        stack.extend((child, depth + 1) for child in children)
    return deepest


@pytest.mark.parametrize("shape", NESTED)
def test_nesting_past_max_depth_is_a_syntax_error(shape):
    assert MAX_DEPTH == 100
    make = NESTED[shape]
    node = parse(make(MAX_DEPTH))
    assert _height(node) == (0 if shape == "parens" else MAX_DEPTH)
    assert parse(print_expr(node)) == node
    with pytest.raises(ParseError) as info:
        parse(make(MAX_DEPTH + 1))
    assert f"at most {MAX_DEPTH} levels" in str(info.value)
    assert info.value.found == f"level {MAX_DEPTH + 1}"
    # far past the bound, the parser stops as soon as it passes it
    with pytest.raises(ParseError) as deeper:
        parse(make(5000))
    assert deeper.value.found == f"level {MAX_DEPTH + 1}"


def test_the_deepest_admitted_expressions_evaluate():
    assert eval_expr(parse(NESTED["parens"](MAX_DEPTH)), 3).coefficient(1) == 240
    assert eval_expr(parse(NESTED["D"](MAX_DEPTH)), 3).coefficient(2) == 2160 * 2**MAX_DEPTH
    assert eval_expr(parse(NESTED["sum"](MAX_DEPTH)), 3).coefficient(1) == 240 * (1 - MAX_DEPTH)
    # a parenthesis is no level of the tree, so a chain inside as many
    # parentheses is admitted, and prints as one nesting per operator
    full = "(" * MAX_DEPTH + "E4" + "-E4" * MAX_DEPTH + ")" * MAX_DEPTH
    assert eval_expr(parse(full), 3).coefficient(1) == 240 * (1 - MAX_DEPTH)
    assert print_expr(parse(full)).startswith("(" * MAX_DEPTH + "E4 - E4)")


def test_depth_is_refused_where_it_is_reached():
    # the offset of the level past MAX_DEPTH: the opening that reaches it on
    # the way down, or the end of the operand that lifts a chain past it
    with pytest.raises(ParseError) as info:
        parse("(" * 101 + "E4" + ")" * 101)
    assert info.value.offset == 100
    with pytest.raises(ParseError) as info:
        parse("E4" + "-E4" * 101)
    assert info.value.offset == 2 + 3 * 101
    with pytest.raises(ParseError) as info:
        parse("[E4, " + "(" * 100 + "E6" + ")" * 100 + "]_1")
    assert info.value.offset == 5 + 99


@pytest.mark.parametrize("digit", ["\u00b2", "\u2460"])  # superscript two, circled one
def test_non_decimal_digits_are_parse_errors(digit):
    # str.isdigit() holds for these, but int() reads decimal digits only
    with pytest.raises(ParseError) as info:
        parse(f"E4 + {digit}")
    assert info.value.offset == 5
    assert "rational" in info.value.expected
    with pytest.raises(ParseError) as info:
        parse(f"D^{digit}(E4)")
    assert info.value.offset == 2
    assert "integer" in info.value.expected


SAMPLES = [
    "E8 - E4*E4",
    "2 D^2(E8) - 9 D(E4)*D(E4)",
    "[E4, E6]_2",
    "[E4, [E6, E8]_1]_0",
    "Phi(4; E2, 2, 1; E2, 2, 1)",
    "1/2 E4 * (E6 - 3 Delta)",
    "-E10 + 7/3 D(Delta)",
    "0",
]


def test_print_parse_roundtrip():
    for text in SAMPLES:
        ast = parse(text)
        assert parse(print_expr(ast)) == ast


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_runs_of_space_between_tokens_change_no_tree(data):
    text = data.draw(st.sampled_from(SAMPLES))
    # a word is kept whole (E4, D, Phi); space may go anywhere else
    tokens = re.findall(r"\d+|[A-Za-z]\w*|\S", text) + [""]
    spaces = st.text(" \t\n", max_size=3)  # a run of spaces, tabs and newlines, or none
    gaps = data.draw(st.lists(spaces, min_size=len(tokens), max_size=len(tokens)))
    assert parse("".join(map(str.__add__, gaps, tokens))) == parse(text)


def test_eval_golden_relations():
    n = 24
    assert eval_expr(parse("E4*E6"), n).series == eisenstein(10, n).series
    combo = eval_expr(parse("E12 - E6*E6"), n)
    expected = delta_product(n).series.scale(Fraction(65520, 691) + 1008)
    assert combo.series == expected
    reduced = eval_expr(parse("2 D^2(E8) - 9 D(E4)*D(E4)"), n)
    assert reduced.series == delta_product(n).series.scale(960)
    assert eval_expr(parse("[E4, E6]_2"), n).is_zero
    assert eval_expr(parse("[E4, E8]_1"), n).is_zero


def test_eval_zero_literal_is_weight_neutral():
    form = eval_expr(parse("0"), 8)
    assert form.is_zero and form.weight is None
    # neutral zero absorbs into any weight
    assert eval_expr(parse("0 + E4"), 8).weight == 4


def test_eval_weight_bookkeeping():
    assert eval_expr(parse("E4*E4"), 8).weight == 8
    assert eval_expr(parse("D^2(E4)"), 8).weight == 8
    assert eval_expr(parse("D^2(E4)"), 8).depth == 2
    inhomogeneous = eval_expr(parse("E4 + E6"), 8)
    assert inhomogeneous.weight is None


def test_nested_derivations_are_one_derivation():
    nested = eval_expr(parse("D^2(D(D^3(E2)))"), 16)
    assert nested == eval_expr(parse("D^6(E2)"), 16)
    assert (nested.weight, nested.depth) == (14, 7)
    # the size bound sees the whole exponent: one D^4000000 is admitted at
    # truncation 3 (4000000 * 4 * 2 bits), two nested are not
    with pytest.raises(ValueError, match=r"D\^8000000 at truncation 3"):
        eval_expr(parse("D^4000000(D^4000000(E4))"), 3)


def test_eval_phi_matches_bracket_family():
    fam = e2_bracket_family(24)
    form = eval_expr(parse("Phi(3; D(E2), 4, 2; E2, 2, 1)"), 24)
    assert form.series == fam["f5"].series
    assert form.series == delta_product(24).series.scale(24)


def test_eval_bracket_type_errors():
    with pytest.raises(EvalError):
        eval_expr(parse("[E2, E4]_1"), 8)  # depth > 0 through the modular bracket
    with pytest.raises(EvalError):
        eval_expr(parse("[E4 + E6, E4]_1"), 8)  # weight-inhomogeneous operand
    with pytest.raises(EvalError):
        eval_expr(parse("Phi(1; E4, 6, 0; E4, 4, 0)"), 8)  # declared weight mismatch


def test_phi_depth_validation():
    with pytest.raises(EvalError):
        eval_expr(parse("Phi(1; E2, 2, 2; E2, 2, 1)"), 8)


@pytest.mark.parametrize("text", ["E4*E4", "E12*E12", "[E4, E4]_2"])
def test_equal_operands_are_shared_by_value(monkeypatch, text):
    # the atom is stored past n, so each is a cut of its own: equal
    # coefficients in two objects, which the kernel still gets as one vector
    n = 40
    k = 12 if "E12" in text else 4
    eisenstein(k, 2 * n)
    left, right = eisenstein(k, n).series, eisenstein(k, n).series
    assert left == right and left.coefficients is not right.coefficients
    calls = []
    real = qseries._convolve_sum

    def spy(terms, m):
        calls.append(list(terms))
        return real(terms, m)

    monkeypatch.setattr(qseries, "_convolve_sum", spy)
    result = eval_expr(parse(text), n).series
    [terms] = calls
    if text == "E4*E4":
        [(_, a, b)] = terms
        assert a is b
        assert result == eisenstein(8, n).series
    elif text == "E12*E12":
        # Fraction coefficients, cleared once: the schoolbook square over Q
        [(_, a, b)] = terms
        assert a is b
        c = left.coefficients
        assert list(result.coefficients) == [
            sum(c[i] * c[m - i] for i in range(m + 1)) for m in range(n + 1)
        ]
    else:
        # D^0, D^1 and D^2 of one vector: (v0, v2), (v1, v1) and (v2, v0)
        (_, v0, v2), (_, v1, w1), (_, w2, w0) = terms
        assert v0 is w0 and v1 is w1 and v2 is w2
        assert result == delta_product(n).series.scale(4800)


@pytest.mark.parametrize(
    "left, right, products",
    [
        (Fraction(3), "E4", 0),
        ("E4", Fraction(3), 0),
        (Fraction(5, 7), "D(E2)*E6", 1),  # the inner product only
        (Fraction(-2), "D^2(E2)", 0),
        (Fraction(1, 2), "E4 + E6", 0),  # weight-inhomogeneous
        (Fraction(2), Fraction(3), 0),
        (Fraction(2, 3), Fraction(0), 0),
        (Fraction(0), "E4", 1),  # a zero literal has no weight: the product
        ("E4", Fraction(0), 1),
    ],
)
def test_a_literal_factor_scales_as_the_product_does(monkeypatch, left, right, products):
    n = 30
    node = Mul(*(Lit(x) if isinstance(x, Fraction) else parse(x) for x in (left, right)))
    # a literal on its own is the constant series of weight 0 (None for 0)
    product = eval_expr(node.left, n) * eval_expr(node.right, n)
    calls = []
    real = qseries._convolve_sum
    monkeypatch.setattr(
        qseries, "_convolve_sum", lambda terms, m: calls.append(terms) or real(terms, m)
    )
    result = eval_expr(node, n)
    assert result.series.coefficients == product.series.coefficients
    assert (result.weight, result.depth) == (product.weight, product.depth)
    assert len(calls) == products
