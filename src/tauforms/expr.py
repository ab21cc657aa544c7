"""A small expression language over the named forms.

Grammar (juxtaposition multiplies):

    expr     := ["-"] term (("+"|"-") term)*
    term     := factor ("*" factor | factor)*
    factor   := rational | atom | "D" ["^" int] "(" expr ")"
              | "(" expr ")" | "[" expr "," expr "]" "_" int
              | "Phi" "(" int ";" expr "," int "," int ";" expr "," int "," int ")"
    rational := int ["/" int]
    atom     := E2 | E4 | E6 | E8 | E10 | E12 | Delta

A token is an integer (a run of decimal digits), a word (a letter, then
letters, digits or "_": E4, D, Phi), "==", or one other character; space
between two tokens is ignored.  Syntax errors carry the character offset
and the set of expected tokens.  A bracket or Phi order above MAX_ORDER is
one, and so is an expression more than MAX_DEPTH levels deep.
"""

import re
import sys
from fractions import Fraction

from ._value import Value
from .brackets import quasi_bracket, rc_bracket
from .forms import GradedForm, delta_product, eisenstein
from .qseries import QSeries

__all__ = [
    "ParseError",
    "EvalError",
    "parse",
    "print_expr",
    "eval_expr",
    "ATOMS",
    "Lit",
    "Atom",
    "Deriv",
    "Add",
    "Sub",
    "Mul",
    "Bracket",
    "Phi",
]

ATOMS = ("E2", "E4", "E6", "E8", "E10", "E12", "Delta")

# Bracket and Phi orders above this are refused: the paper, tests, demos and
# benchmark use at most 4, and a bracket's work grows with its order.
MAX_ORDER = 4

# The parser recurses four times through each nesting (a parenthesis, D,
# bracket or Phi) and eval_expr once through each tree level (a chain of D, a
# bracket, Phi or operator): Python's recursion limit stops them at 248
# nestings or 992 chained operators (3.10-3.13).  The tests, demos and
# benchmark use at most 8.
MAX_DEPTH = 100


class ParseError(ValueError):
    def __init__(self, offset, expected, found):
        self.offset = offset
        self.expected = frozenset(expected)
        self.found = found
        exp = ", ".join(sorted(self.expected))
        super().__init__(f"syntax error at offset {offset}: expected {exp}, found {found!r}")


class EvalError(TypeError):
    """Raised when an expression is structurally inadmissible (e.g. a
    modular bracket over a quasimodular operand)."""


class Lit(Value):
    __slots__ = __match_args__ = ("value",)  # a Fraction


class Atom(Value):
    __slots__ = __match_args__ = ("name",)  # one of ATOMS


class Deriv(Value):
    __slots__ = __match_args__ = ("times", "child")


class _Binary(Value):
    __slots__ = __match_args__ = ("left", "right")


class Add(_Binary):
    __slots__ = ()


class Sub(_Binary):
    __slots__ = ()


class Mul(_Binary):
    __slots__ = ()


class Bracket(Value):
    __slots__ = __match_args__ = ("left", "right", "order")


class Phi(Value):
    __slots__ = __match_args__ = (
        "order", "left", "left_weight", "left_depth", "right", "right_weight", "right_depth"
    )


def _token_pattern(word):
    """A grammar's tokens: an integer, a word, "==", or one other character.
    findall steps over spaces; a pattern that read the spaces before a token
    is quadratic in a trailing run of them (12 s for 20000, 2-core host)."""
    return re.compile(rf"\d+|{word}|==|\S")


class _Parser:
    # a word starts with a letter, so that "]_2" is "]", "_", "2"
    TOKEN = _token_pattern(r"[^\W\d_]\w*")

    def __init__(self, text):
        self.text = text
        self.tokens = (*self.TOKEN.findall(text), "")  # "" stands for the end of input
        self.i = 0  # the next token
        self.looked = False  # whether the next token has been looked at
        self.depth = 0  # nestings open around the node being parsed
        self.height = 0  # tree levels in the node parsed last

    def level(self, height):
        """Note the height of the node just parsed, refusing it or the nesting past MAX_DEPTH."""
        level = max(height, self.depth)
        if level > MAX_DEPTH:
            self.error({f"at most {MAX_DEPTH} levels"}, f"level {level}")
        self.height = height

    def inner(self):
        """An operand of a parenthesis, D, bracket or Phi; keeps the highest sibling's height."""
        height = self.height
        self.depth += 1
        self.level(0)
        node = self.parse_expr()
        self.depth -= 1
        self.height = max(height, self.height)
        return node

    def error(self, expected, found=None, index=None):
        """Raise ParseError at the start of token `index`; by default at the
        next token once it has been looked at, else at the token read last,
        which an error raised right after reading it is about.  Offsets are
        found only here: finding them up front doubles the tokenizing (0.44
        to 0.96 ms for the 60 catalogue anchors, 2-core host)."""
        if index is None:
            index = self.i if self.looked else self.i - 1
        starts = [m.start() for m in self.TOKEN.finditer(self.text)] + [len(self.text)]
        at = starts[index]
        raise ParseError(at, expected, found or self.text[at : at + 1] or "end of input")

    def peek(self):
        self.looked = True
        return self.tokens[self.i]

    def accept(self, token, *rest):
        """Read token and rest if they come next, all of them or none."""
        i = self.i + 1
        if self.tokens[i - 1] != token or rest and self.tokens[i : i + len(rest)] != rest:
            self.looked = True
            return False
        self.i = i + len(rest)
        self.looked = False
        return True

    def expect(self, *tokens):
        if not self.accept(*tokens):
            self.error({repr("".join(tokens))})

    def integer(self):
        digits = self.peek()
        if not digits.isdecimal():
            self.error({"integer"})
        # int() refuses a run past Python's int/str conversion limit
        limit = sys.get_int_max_str_digits()
        if limit and len(digits) > limit:
            found = f"an integer of {len(digits)} digits"
            self.error({f"an integer of at most {limit} digits"}, found)
        self.accept(digits)
        return int(digits)

    def bounded(self, limit, name):
        """An integer of at most limit, refused at its offset as name."""
        start = self.i
        value = self.integer()
        if value > limit:
            self.error({f"{name} of at most {limit}"}, str(value), start)
        return value

    def starts_factor(self):
        token = self.peek()
        return token.isdecimal() or token[:1].isalpha() or token in ("(", "[")

    def parse_expr(self):
        negate = self.accept("-")
        node = self.parse_term()
        if negate:
            node = Sub(Lit(Fraction(0)), node)
            self.level(self.height + 1)
        while (op := Add if self.accept("+") else Sub if self.accept("-") else None):
            height = self.height
            node = op(node, self.parse_term())
            self.level(max(height, self.height) + 1)
        return node

    def parse_term(self):
        node = self.parse_factor()
        while self.accept("*") or self.starts_factor():
            height = self.height
            node = Mul(node, self.parse_factor())
            self.level(max(height, self.height) + 1)
        return node

    def parse_factor(self):
        self.height = 0
        token = self.peek()
        if token.isdecimal():
            num, den = self.integer(), 1
            if self.accept("/") and (den := self.integer()) == 0:
                self.error({"nonzero denominator"})
            return Lit(Fraction(num, den))
        if self.accept("("):
            node = self.inner()
            self.expect(")")
            return node
        if self.accept("["):
            left = self.inner()
            self.expect(",")
            right = self.inner()
            self.expect("]")
            self.expect("_")
            order = self.bounded(MAX_ORDER, "an order")
            self.level(self.height + 1)
            return Bracket(left, right, order)
        if self.accept("D"):
            times = self.integer() if self.accept("^") else 1
            self.expect("(")
            node = self.inner()
            self.expect(")")
            self.level(self.height + 1)
            return Deriv(times, node)
        if self.accept("Phi"):
            self.expect("(")
            fields = [self.bounded(MAX_ORDER, "an order")]
            for _side in ("left", "right"):
                self.expect(";")
                fields.append(self.inner())
                for _field in ("weight", "depth"):
                    self.expect(",")
                    fields.append(self.integer())
            self.expect(")")
            self.level(self.height + 1)
            return Phi(*fields)
        if token in ATOMS:
            self.accept(token)
            return Atom(token)
        if token[:1].isalpha():
            self.error(set(ATOMS) | {"D", "Phi"})
        self.error({"rational", "atom", "D", "(", "[", "Phi"})


def parse(text):
    """Parse an expression; raises ParseError with offset and expectations."""
    parser = _Parser(text)
    node = parser.parse_expr()
    if parser.peek():
        parser.error({"+", "-", "*", "end of input"})
    return node


def print_expr(node):
    """Canonical text for an AST; parse(print_expr(t)) rebuilds t."""
    if isinstance(node, Lit):
        v = node.value
        return str(v) if v >= 0 else f"(0 - {-v})"
    if isinstance(node, Atom):
        return node.name
    if isinstance(node, Deriv):
        head = "D" if node.times == 1 else f"D^{node.times}"
        return f"{head}({print_expr(node.child)})"
    if isinstance(node, _Binary):
        op = {Add: "+", Sub: "-", Mul: "*"}[type(node)]
        return f"({print_expr(node.left)} {op} {print_expr(node.right)})"
    if isinstance(node, Bracket):
        return f"[{print_expr(node.left)}, {print_expr(node.right)}]_{node.order}"
    if isinstance(node, Phi):
        return (
            f"Phi({node.order}; {print_expr(node.left)}, {node.left_weight}, {node.left_depth};"
            f" {print_expr(node.right)}, {node.right_weight}, {node.right_depth})"
        )
    raise TypeError(f"not an expression node: {node!r}")


def eval_expr(node, truncation):
    """Evaluate to a GradedForm with weight/depth bookkeeping.

    Sums of unequal nonzero weights are marked weight-inhomogeneous
    (weight None); such values refuse bracket and decomposition use.
    """
    if isinstance(node, Lit):
        if node.value == 0:
            return GradedForm(QSeries.zero(truncation), None, 0)
        return GradedForm(QSeries.constant(node.value, truncation), 0, 0)
    if isinstance(node, Atom):
        if node.name == "Delta":
            return delta_product(truncation)
        return eisenstein(int(node.name[1:]), truncation)
    if isinstance(node, Deriv):
        # a chain D^a(D^b(...x)) is one D^(a+b+...), so that the size bound
        # of QSeries.derive sees the whole exponent
        times = 0
        while isinstance(node, Deriv):
            times, node = times + node.times, node.child
        return eval_expr(node, truncation).derive(times)
    if isinstance(node, (Add, Sub)):
        left = eval_expr(node.left, truncation)
        right = eval_expr(node.right, truncation)
        return left + right if isinstance(node, Add) else left - right
    if isinstance(node, Mul):
        # a nonzero literal factor scales: same series, weight and depth
        # as the product with the constant series, without the product
        for lit, other in ((node.left, node.right), (node.right, node.left)):
            if isinstance(lit, Lit) and lit.value:
                return eval_expr(other, truncation).scale(lit.value)
        return eval_expr(node.left, truncation) * eval_expr(node.right, truncation)
    if isinstance(node, Bracket):
        left = eval_expr(node.left, truncation)
        right = eval_expr(node.right, truncation)
        try:
            return rc_bracket(left, right, node.order)
        except TypeError as exc:
            raise EvalError(str(exc)) from None
    if isinstance(node, Phi):
        left = eval_expr(node.left, truncation)
        right = eval_expr(node.right, truncation)
        declared = (("left", left, node.left_weight), ("right", right, node.right_weight))
        for side, form, weight in declared:
            if form.weight is not None and form.weight != weight:
                found = f"but the operand has weight {form.weight}"
                raise EvalError(f"declared {side} weight {weight} {found}")
        try:
            return quasi_bracket(
                node.order,
                left,
                right,
                left=(node.left_weight, node.left_depth),
                right=(node.right_weight, node.right_depth),
            )
        except (TypeError, ValueError) as exc:
            raise EvalError(str(exc)) from None
    raise TypeError(f"not an expression node: {node!r}")
