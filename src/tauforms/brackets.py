"""Rankin-Cohen brackets for modular forms and their quasimodular variant.

The modular bracket of weights (k, l) at order v is

    [f, g]_v = sum_{r=0}^{v} (-1)^r C(v+k-1, v-r) C(v+l-1, r) D^r f D^(v-r} g

and lands in weight k + l + 2v; it is cuspidal for v >= 1.  The
quasimodular bracket shifts each binomial by the operand's depth:
C(k-s+n-1, n-r) C(l-t+n-1, r), producing weight k+l+2n with depth bound
s+t.  Binomials C(a, b) vanish outside 0 <= b <= a, keeping both formulas
literal for every r.

A bracket is one `qseries._product_sum` over its v+1 binomial terms: the
operands are cleared of denominators once and every product is summed in
one kernel call, as a series product is.  The six brackets of E2's
derivatives (`e2_bracket_family`) share their products: three in all.
"""

from math import comb
from operator import mul

from ._value import Value
from .forms import GradedForm, eisenstein
from .qseries import _convolve_int, _derived, _from_canonical, _product_sum

__all__ = [
    "BracketSpec",
    "binomial",
    "rc_bracket",
    "quasi_bracket",
    "is_cuspidal",
    "e2_bracket_family",
]


def binomial(a, b):
    """C(a, b), defined as 0 whenever b < 0 or b > a."""
    if b < 0 or b > a:
        return 0
    return comb(a, b)


class BracketSpec(Value):
    """Order and operand grading of a bracket; knows the result grading."""

    __slots__ = __match_args__ = (
        "order", "left_weight", "left_depth", "right_weight", "right_depth"
    )

    def __init__(self, order, left_weight, left_depth, right_weight, right_depth):
        if order < 0:
            raise ValueError("bracket order must be non-negative")
        for w, s, side in ((left_weight, left_depth, "left"), (right_weight, right_depth, "right")):
            if w < 2 or w % 2:
                raise ValueError(f"{side} weight must be even and >= 2, got {w}")
            if not 0 <= s <= w // 2:
                raise ValueError(f"{side} depth {s} outside 0..{w // 2}")
        super().__init__(order, left_weight, left_depth, right_weight, right_depth)

    @property
    def result_weight(self):
        return self.left_weight + self.right_weight + 2 * self.order

    @property
    def result_depth(self):
        return self.left_depth + self.right_depth

    @property
    def terms(self):
        """(c, r, order - r) for each r: the bracket of f and g is the sum
        of c * D^r f * D^(order-r) g."""
        n = self.order
        a = self.left_weight - self.left_depth + n - 1
        b = self.right_weight - self.right_depth + n - 1
        return [((-1) ** r * binomial(a, n - r) * binomial(b, r), r, n - r) for r in range(n + 1)]


def rc_bracket(f, g, order):
    """Order-v Rankin-Cohen bracket of two modular (depth-0) forms.

    At depth 0 the quasimodular bracket's binomials are the modular ones,
    so this validates the operands and returns quasi_bracket(order, f, g).
    Order 0 is permitted and collapses to the plain product.
    """
    if order < 0:
        raise ValueError("bracket order must be non-negative")
    for name, h in (("left", f), ("right", g)):
        if h.weight is None:
            raise TypeError(f"{name} operand is weight-inhomogeneous")
        if h.depth != 0:
            raise TypeError(
                f"{name} operand has depth bound {h.depth}; "
                "the modular bracket needs depth 0 (use the quasimodular bracket)"
            )
        if h.weight < 4 or h.weight % 2:
            raise ValueError(f"{name} operand weight {h.weight} not an even weight >= 4")
    return quasi_bracket(order, f, g)


def quasi_bracket(order, f, g, left=None, right=None):
    """Quasimodular bracket of order n for operands of grading (k,s), (l,t).

    The gradings default to the operands' own tags; pass left=(k, s) or
    right=(l, t) to override, e.g. when treating a form inside a larger
    depth bound.
    """
    if f.weight is None or g.weight is None:
        raise TypeError("bracket operands must be weight-homogeneous")
    k, s = left if left is not None else (f.weight, f.depth)
    l, t = right if right is not None else (g.weight, g.depth)
    spec = BracketSpec(order, k, s, l, t)
    series = _product_sum(f.series, g.series, spec.terms)
    return GradedForm(series, spec.result_weight, spec.result_depth)


def is_cuspidal(h):
    """True iff the constant coefficient vanishes exactly."""
    return h.series.coefficient(0) == 0


# key -> (order, a, b): f_key is the quasimodular bracket of D^a E2 and
# D^b E2, of gradings (2 + 2a, 1 + a) and (2 + 2b, 1 + b)
_E2_FAMILY = {
    "f1": (1, 3, 0),
    "f2": (1, 2, 1),
    "f3": (2, 2, 0),
    "f4": (2, 1, 1),
    "f5": (3, 1, 0),
    "f6": (4, 0, 0),
}


def e2_bracket_family(truncation):
    """The six weight-12 quasimodular brackets built from derivatives of E2.

    Keys f1..f6; f4 = -3*f2 and f6 = -2*f5 hold identically, and the family
    decomposes over the weight-12 graded generators with the golden
    coordinates exercised in the tests.

    In every bracket a + b + order = 4, so each term is c * D^i E2 *
    D^(4-i) E2.  The three products P_i = D^i E2 * D^(4-i) E2, i <= 2, are
    built once, and each bracket is an integer combination of them.
    """
    e2 = eisenstein(2, truncation).series.coefficients
    d = [_derived(e2, i) for i in range(5)]
    products = [_convolve_int(d[i], d[4 - i], truncation) for i in range(3)]
    family = {}
    for key, (order, a, b) in _E2_FAMILY.items():
        spec = BracketSpec(order, 2 + 2 * a, 1 + a, 2 + 2 * b, 1 + b)
        weights = [0, 0, 0]
        for c, r, s in spec.terms:
            weights[min(a + r, b + s)] += c
        series = _from_canonical([sum(map(mul, weights, p)) for p in zip(*products)])
        family[key] = GradedForm(series, spec.result_weight, spec.result_depth)
    return family
