"""Catalogue of tau / divisor-function identities with exact verification.

Each entry is its anchor, the statement as printed, parsed into closed terms
c * n^p * sigma_j(n) (sigma exponent 0 standing for tau itself) and
convolution terms c/n^d * sum_{m=1}^{n-1} P(m, n) sigma_a(m) sigma_b(n-m),
the weight P kept as its monomial tuple.
Anchor grammar (juxtaposition multiplies).  A token is an integer, a keyword
(tau, sigma, sum, mod, gcd, odd), one letter, "==" or one other character; a
quoted string below stands for its tokens, and space between any two tokens
is ignored, inside (1/n), _{m=1}^{n-1}, (n-m) and gcd(n,g)=1 too:

    record := side "=" side | side "==" side "mod" int ["=" int ("*" int)*]
              ["," ("gcd(n," int ")=1" | "n" "odd")]
    side   := "0" | ["-"] term (("+"|"-") term)*
    term   := [int ["/" (int | npow)] "*"] (prefix "*")*
              (("tau" | sigma) "(n)" ["/" npow] | "sum" convolution)
    prefix := "(1/" npow ")" | factor
    convolution := ["_{m=1}^{n-1}"] [mono "*"] sigma "(m)" "*" sigma "(n-m)"
    sigma  := "sigma" [int]                     (sigma alone is sigma_1)
    npow   := "n" ["^" int]
    poly   := ["-"] mono (("+"|"-") mono)*
    mono   := factor (["*"] factor)*
    factor := (int | "m" | "n" | "(" poly ")") ["^" int]

The factors of a closed term's prefix, which hold no m, multiply out when
the anchor is parsed to one polynomial P in n, and c*P(n)*sigma_j(n) is
stated as a closed term per nonzero monomial of P, highest power of n first;
a convolution's prefix only divides by n^k.  Parentheses nest at most
expr.MAX_DEPTH deep, and no exponent, product of factors, or division of a
term by n^k may take a power of m or n past MAX_POWER.  "mod M = f1*...*fk"
states a factorisation that must multiply out to M; "n odd" means
gcd(n,2)=1; M and the g of gcd(n,g)=1 are at least 1, or ValueError is
raised.  A congruence is a statement about integers: each of its terms
must have an integer coefficient and must not divide by n (a closed term's
net power of n is at least 0, a convolution has no 1/n^d), or ValueError
is raised.

Residuals are exact rationals, so "holds" means residual identically 0 - no
tolerances anywhere.  A side expands (Side.terms) into coefficients times
n^e times a source: tau, sigma_k, or one product of weighted sigma tables;
a convolution with equal sigmas is rewritten through squarings by Waring's
formula.  Sides are evaluated as integers after clearing denominators
(L * n^d * side(n), L the lcm of the expanded coefficients' denominators),
and a range check streams L * n^d * (lhs(n) - rhs(n)), so pointwise checks
are integer comparisons; a congruence check packs the values of the same
terms, at d = 0, mod L times its modulus into one integer per term and
decides each row by one division (see check_congruences).

Three checks are available per identity: pointwise residuals over a range
of n; certification, which checks that the same integer vectors agree
through a q-order set by the identity's weight and decomposes only a
failing difference over the graded generators, to name what is wrong; and,
for entries that fail, an exact refit of the constants that reports the
stated value next to the empirically determined one.
"""

from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, chain, compress, count, islice, repeat
from math import comb, gcd, lcm
from operator import add, and_, mod, mul, xor

from ._value import Value
from .expr import _Parser, _token_pattern, eval_expr, parse
from .forms import (
    GradedForm,
    InternalInconsistency,
    bernoulli,
    eisenstein,
    sigma_table,
    tau_range,
)
from .qseries import _coefficient_int, _convolve_int, _derived, _pack, _series, _unpack
from .quasidecomp import (
    GUARD_ROWS,
    LinearSolveError,
    NotInGradedSpace,
    _combine,
    decompose,
    generator_count,
    solve_exact,
)

__all__ = [
    "ClosedTerm",
    "ConvolutionTerm",
    "Side",
    "IdentityRecord",
    "CongruenceRecord",
    "Registry",
    "VerificationReport",
    "AuditFinding",
    "AuditReport",
    "FittedCoefficient",
    "FitResult",
    "IdentityStructureError",
    "EXPECTED_TRUE",
    "AUDIT_FLAGGED",
    "EvalContext",
    "make_context",
    "in_turn",
    "builtin_registry",
    "parse_record",
    "evaluate",
    "verify_range",
    "certify",
    "check_congruence",
    "check_congruences",
    "fit_identity",
    "audit_all",
]

EXPECTED_TRUE = "expected-true"
AUDIT_FLAGGED = "audit-flagged"

# The highest power of m or n an anchor may state or multiply out to.  The
# catalogue needs 4, cusp-form rows of weight 16-26 about 12; certify of a
# failing row at power 16 takes 16-38 ms on a 2-core x86-64 host, at 32 2-5 s.
MAX_POWER = 16

FIT_EXTRA_ROWS = 6  # equations fit_identity solves beyond one per unknown


class IdentityStructureError(Exception):
    """A record has a shape its check cannot take (e.g. a refit of an
    identity whose left side is not a bare tau(n))."""


def _poly_mul(p, q):
    """The product of two polynomials in m and n (weights, closed-term
    prefixes), as {(a, b): c} dicts of the monomials c * m^a * n^b."""
    out = {}
    for (a1, b1), c1 in p.items():
        for (a2, b2), c2 in q.items():
            key = (a1 + a2, b1 + b2)
            out[key] = out.get(key, 0) + c1 * c2
    return out


def _poly_text(poly):
    """A weight written out, highest monomial first: "2*n^2 - 9*m*n + 9*m^2"."""
    pieces = []
    for (a, b), c in reversed(poly):
        parts = [str(abs(c))] if abs(c) != 1 or (a == 0 and b == 0) else []
        if a:
            parts.append("m" if a == 1 else f"m^{a}")
        if b:
            parts.append("n" if b == 1 else f"n^{b}")
        body = "*".join(parts)
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces) if pieces else "0"


def _sigma_name(j):
    return "sigma" if j == 1 else f"sigma{j}"


def _closed_shape_name(p, j):
    name = f"{_sigma_name(j)}(n)" if j else "tau(n)"
    if p == 0:
        return name
    if p > 0:
        return ("n*" if p == 1 else f"n^{p}*") + name
    return name + ("/n" if p == -1 else f"/n^{-p}")


class ClosedTerm(Value):
    """c * n^n_power * sigma_j(n), c a Fraction; sigma exponent 0 denotes tau(n)."""

    __slots__ = __match_args__ = ("coefficient", "n_power", "sigma")


class ConvolutionTerm(Value):
    """c / n^divisor * sum_{m=1}^{n-1} P(m, n) sigma_a(m) sigma_b(n - m), with
    c a Fraction and the weight P its monomials c' * m^a' * n^b', as the
    sorted tuple of ((a', b'), c') with c' a nonzero integer."""

    __slots__ = __match_args__ = ("coefficient", "n_divisor", "poly", "left", "right")

    def describe(self):
        sigmas = f"{_sigma_name(self.left)}(m)*{_sigma_name(self.right)}(n-m)"
        body = f"sum {_poly_text(self.poly)} * {sigmas}"
        if self.n_divisor:
            body += "/n" if self.n_divisor == 1 else f"/n^{self.n_divisor}"
        return body


class Side(Value):
    """A sum of closed terms c * n^p * sigma_j(n) and convolution terms,
    evaluated exactly.

    `terms` expands it into sources, each convolution a product of two
    weighted sigma tables (equal sigmas through squarings).  Every
    evaluation goes through `cleared`: the integers
    scale * n^power * side(n), with scale a multiple of every coefficient
    denominator of `terms` and power at least the largest n-divisor, as
    one list that `value`, `bulk` and `series` divide back out.  The
    expansion is made on first use and kept (in `__dict__`).
    """

    __slots__ = ("closed", "conv", "__dict__")
    __match_args__ = ("closed", "conv")
    _defaults = ((), ())

    def denominator(self):
        """Least common multiple of the coefficient denominators of terms(0)."""
        return lcm(1, *(c.denominator for _, _, c in self.terms(0)))

    def clearing_power(self):
        """Smallest d >= 0 with no negative n-power left in n^d * side(n)."""
        return max([0, *(-t.n_power for t in self.closed), *(t.n_divisor for t in self.conv)])

    def terms(self, power):
        """(source, e, c) triples with n^power * side(n) = sum c * n^e * source[n].

        A source is a sigma exponent (0 for tau) or a convolution key
        (left, a, right, b), the sequence (m^a sigma_left) * (m^b sigma_right)
        that EvalContext.source serves.  A monomial m^alpha n^beta of an
        unequal pair is the key (left, alpha, right, 0).

        With left == right == l the sum is unchanged by m <-> n-m, so
        2 sum m^alpha sigma_l(m) sigma_l(n-m) = sum (m^alpha + (n-m)^alpha)
        sigma_l(m) sigma_l(n-m), and by Waring's formula
        a^alpha + b^alpha = sum_i w_i (a+b)^(alpha-2i) (ab)^i, i <= alpha/2,
        with w_i = (-1)^i alpha/(alpha-i) C(alpha-i, i) (w_0 = 2 when alpha
        is 0), the monomial is sum_i w_i/2 n^(beta+alpha-2i) times the
        squaring (l, i, l, i).  The 1/2 is left in the coefficients, so
        denominator() clears it.
        """
        return ((source, e + power, c) for source, e, c in self._terms)

    @cached_property
    def _terms(self):
        """terms(0) as a tuple, expanded once per side."""
        out = [(t.sigma, t.n_power, t.coefficient) for t in self.closed]
        for t in self.conv:
            l, r = t.left, t.right
            for (alpha, beta), c in t.poly:
                e, c = beta - t.n_divisor, t.coefficient * c
                if l != r:
                    out.append(((l, alpha, r, 0), e, c))
                    continue
                for i in range(alpha // 2 + 1):
                    w = (-1) ** i * alpha * comb(alpha - i, i) // (alpha - i) if alpha else 2
                    out.append(((l, i, l, i), e + alpha - 2 * i, Fraction(c * w, 2)))
        return tuple(out)

    def cleared(self, ctx, limit, scale, power):
        """[scale * n^power * side(n) for n = 0..limit], all exact integers."""
        return list(_horner(ctx, limit, _merged(self.terms(power), scale)))

    def value(self, n, ctx):
        """side(n) as an exact Fraction, for n >= 1."""
        if n < 1:
            raise ValueError("n must be at least 1")
        scale, power = self.denominator(), self.clearing_power()
        return Fraction(self.cleared(ctx, n, scale, power)[n], scale * n ** power)

    def bulk(self, ctx, limit):
        """[side(n) for n = 0..limit] as Fractions, with side(0) taken as 0."""
        scale, power = self.denominator(), self.clearing_power()
        values = self.cleared(ctx, limit, scale, power)
        return [Fraction(0)] + [
            Fraction(values[n], scale * n ** power) for n in range(1, limit + 1)
        ]

    def series(self, ctx, truncation, extra_power):
        """sum n^extra_power * side(n) q^n, truncated after q^truncation."""
        scale = self.denominator()
        values = self.cleared(ctx, truncation, scale, extra_power)
        return _series(values, scale)

    @property
    def has_tau(self):
        return any(t.sigma == 0 for t in self.closed)


class IdentityRecord(Value):
    """lhs(n) = rhs(n), as stated by anchor."""

    __slots__ = __match_args__ = ("id", "anchor", "lhs", "rhs", "status")
    _defaults = (EXPECTED_TRUE,)


class CongruenceRecord(Value):
    """lhs(n) == rhs(n) mod modulus for n prime to gcd_condition, as stated
    by anchor; modulus and gcd_condition are at least 1, and modulus_factors
    multiply out to the modulus.  Every term has an integer coefficient and
    no division by n, so both sides are integers at every n."""

    __slots__ = __match_args__ = (
        "id", "anchor", "lhs", "rhs", "modulus", "modulus_factors", "gcd_condition"
    )

    def __init__(self, id, anchor, lhs, rhs, modulus, modulus_factors, gcd_condition=1):
        if modulus < 1 or gcd_condition < 1:
            raise ValueError(
                f"{id}: modulus {modulus} and gcd condition {gcd_condition} must be at least 1"
            )
        prod = 1
        for f in modulus_factors:
            prod *= f
        if prod != modulus:
            raise ValueError(f"{id}: stated factorisation {modulus_factors} != {modulus}")
        for term in lhs.closed + lhs.conv + rhs.closed + rhs.conv:
            divides = term.n_power < 0 if isinstance(term, ClosedTerm) else term.n_divisor > 0
            if term.coefficient.denominator != 1 or divides:
                raise ValueError(
                    f"{id}: congruence term {term!r} is not integral: a congruence"
                    " takes integer coefficients and no division by n"
                )
        super().__init__(id, anchor, lhs, rhs, modulus, modulus_factors, gcd_condition)


class Registry(Value):
    """The identity and congruence records, and every record by its id."""

    __slots__ = ("identities", "congruences", "by_id")
    __match_args__ = ("identities", "congruences")

    def __init__(self, identities, congruences):
        super().__init__(identities, congruences)
        object.__setattr__(
            self, "by_id", {r.id: r for r in identities} | {r.id: r for r in congruences}
        )

    def __iter__(self):
        return iter(self.identities + self.congruences)


class VerificationReport(Value):
    """The outcome of a range check, a congruence check or certification.

    status is verified, certified or failed; first_failure,
    when there is one, is (n, lhs value, rhs value)."""

    __slots__ = __match_args__ = (
        "identity_id",
        "status",
        "limit",
        "first_failure",
        "certified",
        "certification_bound",
        "detail",
    )
    _defaults = (None, None, None, None, "")


class EvalContext(Value):
    """tau, the sigma tables and the convolutions built from them, for exact
    evaluation up to `limit`; each is built on first use and shared by every
    identity evaluated here until `release` drops it.  Two contexts are
    equal when their limits are: what they have built is left out."""

    __slots__ = ("limit", "_sources")
    __match_args__ = ("limit",)

    def __init__(self, limit):
        super().__init__(limit)
        object.__setattr__(self, "_sources", {})

    def source(self, key):
        """tau (key 0), sigma_k (key k > 0) or the convolution
        (m^a sigma_left) * (m^b sigma_right) (key (left, a, right, b)), that
        is S(n) = sum_{m<n} m^a sigma_left(m) (n-m)^b sigma_right(n-m), as a
        sequence indexed by n = 0..limit.

        tau is read off Delta's product expansion at every limit, so the
        catalogue's tau formulas (van der Pol, Niebur) are never checked
        against themselves.

        A squaring (l, i, l, i) hands the kernel one vector u twice.  Each
        term m of (u*u)(n) pairs with n-m, so (u*u)(n) = [n even] u(n/2)
        mod 2; a value of the other parity raises InternalInconsistency.
        Any other product u*v is checked by its sum: sum_{n<=N} (u*v)(n) is
        sum_m u(m) V(N-m), with V the prefix sums of v, one dot product; a
        different sum raises InternalInconsistency.
        """
        values = self._sources.get(key)
        if values is None:
            if isinstance(key, tuple):
                left, a, right, b = key
                u = _derived(self.source(left), a)
                v = u if key[:2] == key[2:] else _derived(self.source(right), b)
                values = _convolve_int(u, v, self.limit)
                if v is u:
                    halves = chain.from_iterable(zip(u, repeat(0)))
                    wrong = map(and_, map(xor, values, halves), repeat(1))
                    n = next(compress(count(), wrong), None)
                    if n is not None:
                        raise InternalInconsistency(
                            f"(m^{a} sigma{left}) squared has the wrong parity at n={n}"
                        )
                elif sum(values) != _coefficient_int(u, list(accumulate(v)), self.limit):
                    raise InternalInconsistency(
                        f"(m^{a} sigma{left}) * (m^{b} sigma{right}) has the wrong sum"
                        f" to n={self.limit}"
                    )
            elif key == 0:
                values = tau_range(self.limit, "product")
            else:
                values = sigma_table(key, self.limit).values
            self._sources[key] = values
        return values

    def release(self, keys):
        """Drop the sources under keys; a later request builds them again."""
        for key in keys:
            self._sources.pop(key, None)


def make_context(limit):
    """An empty evaluation context for 1 <= n <= limit."""
    if limit < 1:
        raise ValueError("limit must be at least 1")
    return EvalContext(limit)


def _merged(terms, scale):
    """The terms (source, e, c) times scale as {e: {source: k}}, the
    coefficients on one (source, e) summed to the integer k."""
    by_power = {}
    for source, e, c in terms:
        if e < 0:
            raise IdentityStructureError(f"residual n-power {e} after clearing divisors")
        k = Fraction(c) * scale
        if k.denominator != 1:
            raise IdentityStructureError(f"scale {scale} does not clear coefficient {c}")
        merged = by_power.setdefault(e, {})
        merged[source] = merged.get(source, 0) + k.numerator
    return by_power


def _horner(ctx, limit, by_power):
    """sum of k * n^e * source[n] over the integer terms {e: {source: k}}
    (see _merged), for n = 0..limit, as a lazy stream of exact integers.

    By Horner's rule in n: from the highest power of n down, the stream so
    far is multiplied by n and each term k * source with that power is
    added, all as chained C-level maps, so no n^e is formed and no vector
    is built.  The sources are fetched from ctx when the stream is made.
    """
    if limit > ctx.limit:
        raise ValueError(f"limit {limit} beyond context limit {ctx.limit}")
    ns = range(limit + 1)
    out = None
    for e in range(max(by_power, default=0), -1, -1):
        if out is not None:
            out = map(mul, out, ns)
        for source, k in by_power.get(e, {}).items():
            if k:
                values = ctx.source(source)
                term = values if k == 1 else map(mul, repeat(k), values)
                out = islice(term, limit + 1) if out is None else map(add, out, term)
    return repeat(0, limit + 1) if out is None else out


def _in_order(needs):
    """(i, done) for each index i of the sequence needs, each entry the
    collection of keys item i reads, in the order to run them: next the
    item whose keys include the fewest not read by an earlier item (the
    lowest index among equals), so that few keys are held at once, with
    done the keys of item i that no later item reads."""
    todo, read = dict(enumerate(map(set, needs))), set()
    while todo:
        i = min(todo, key=lambda i: (len(todo[i] - read), i))
        keys = todo.pop(i)
        read |= keys
        yield i, keys.difference(*todo.values())


def in_turn(records, ctx, check):
    """[check(r) for r in records], in record order.  The records run in
    the order _in_order gives over the convolutions each reads, and after
    each, every convolution that no later record reads is dropped from ctx,
    so a command over the catalogue holds only what is still to be read.
    records must be a sequence.
    """
    needs = [
        [s for side in (r.lhs, r.rhs) for s, _, _ in side.terms(0) if isinstance(s, tuple)]
        for r in records
    ]
    out = [None] * len(records)
    for i, done in _in_order(needs):
        out[i] = check(records[i])
        ctx.release(done)
    return out


# --------------------------------------------------------------------------
# the built-in catalogue, parsed from its anchor text


class _AnchorParser(_Parser):
    """Recursive descent over the anchor grammar of the module docstring."""

    # a word is a keyword or one letter, so that sigma3, 2n and 13mn split
    TOKEN = _token_pattern(r"tau|sigma|sum|mod|gcd|odd|[^\W\d_]")

    def record(self, key, status):
        lhs = self.side()
        if not self.accept("=="):
            self.expect("=")
            rhs = self.side()
            if self.peek():
                self.error({"+", "-", "end of input"})
            return IdentityRecord(key, self.text, lhs, rhs, status)
        rhs = self.side()
        self.expect("mod")
        modulus = self.integer()
        factors = (modulus,)
        if self.accept("="):
            factors = (self.integer(),)
            while self.accept("*"):
                factors += (self.integer(),)
        g = 1
        if self.accept(","):
            if self.accept("n"):
                self.expect("odd")
                g = 2
            else:
                self.expect("gcd", "(", "n", ",")
                g = self.integer()
                self.expect(")", "=", "1")
        if self.peek():
            self.error({"end of input"})
        return CongruenceRecord(key, self.text, lhs, rhs, modulus, factors, g)

    def signed_sum(self, parse):
        """parse(sign) for each x of ["-"] x (("+"|"-") x)*, in order."""
        sign, out = -1 if self.accept("-") else 1, []
        while sign:
            out.append(parse(sign))
            sign = 1 if self.accept("+") else -1 if self.accept("-") else 0
        return out

    def side(self):
        if self.accept("0"):
            return Side()
        terms = [t for parts in self.signed_sum(self.term) for t in parts]
        return Side(
            tuple(t for t in terms if isinstance(t, ClosedTerm)),
            tuple(t for t in terms if isinstance(t, ConvolutionTerm)),
        )

    def term(self, sign):
        """The terms one anchor term states: a convolution, or a closed term
        per nonzero monomial of its prefix, highest power of n first."""
        self.variables = ("n",)
        numerator, denominator, power, prefix = sign, 1, 0, {(0, 0): 1}
        if self.peek().isdecimal():
            numerator *= self.integer()
            if self.accept("/"):
                if not self.peek().isdecimal():
                    power = self.divide(power)
                elif (denominator := self.integer()) == 0:
                    self.error({"nonzero denominator"})
            self.expect("*")
        while (token := self.peek()).isdecimal() or token in ("(", "n"):
            if self.accept("(", "1", "/"):
                power = self.divide(power)
                self.expect(")")
            else:
                prefix = self.times(prefix)
            self.expect("*")
        parts = sorted(((b, c) for (_, b), c in prefix.items() if c), reverse=True)
        if parts != [(0, 1)] and self.peek() == "sum":
            self.error({"tau", "sigma"})
        if self.accept("sum"):
            return (ConvolutionTerm(Fraction(numerator, denominator), -power, *self.convolution()),)
        if self.accept("tau"):
            j = 0
            self.expect("(", "n", ")")
        elif self.peek().startswith("s"):
            j = self.sigma("(", "n", ")")
        else:
            self.error({"tau", "sigma", "sum", "n", "("})
        if self.accept("/"):
            power = self.divide(power)
        return tuple(
            ClosedTerm(Fraction(numerator * c, denominator), power + b, j) for b, c in parts
        )

    def divide(self, power):
        """power less the k of the n^k read next, refused at that n when the
        term's divisions would pass n^MAX_POWER."""
        start = self.i
        self.expect("n")
        power -= self.integer() if self.accept("^") else 1
        self.bound(start, -power)
        return power

    def bound(self, start, *powers):
        """Refuse, at token start, a power of m or n past MAX_POWER."""
        if max(powers) > MAX_POWER:
            self.error({f"a power of at most {MAX_POWER}"}, f"power {max(powers)}", start)

    def times(self, poly):
        """poly times the factor read next, refused at that factor, before
        the product is formed, when its power of m or n would pass MAX_POWER."""
        start = self.i
        factor = self.poly_factor()
        self.bound(start, *map(add, map(max, zip(*poly)), map(max, zip(*factor))))
        return _poly_mul(poly, factor)

    def sigma(self, *argument):
        """The exponent k of sigma[k] followed by the argument's tokens; sigma is sigma_1."""
        self.expect("sigma")
        k = self.integer() if self.peek().isdecimal() else 1
        if k == 0:
            self.error({"positive sigma exponent"})
        self.expect(*argument)
        return k

    def convolution(self):
        """(P, a, b) of sum[_{m=1}^{n-1}] [P*]sigma_a(m)*sigma_b(n-m), the
        weight P as its sorted nonzero monomials ((a', b'), c')."""
        self.accept("_", "{", "m", "=", "1", "}", "^", "{", "n", "-", "1", "}")
        self.variables = ("m", "n")
        poly = {(0, 0): 1}
        if not self.peek().startswith("s"):
            poly = self.monomial()
            self.expect("*")
        left = self.sigma("(", "m", ")")
        self.expect("*")
        poly = tuple(sorted((k, c) for k, c in poly.items() if c))
        return poly, left, self.sigma("(", "n", "-", "m", ")")

    def polynomial(self):
        out = {}
        for sign, poly in self.signed_sum(lambda sign: (sign, self.monomial())):
            for k, c in poly.items():
                out[k] = out.get(k, 0) + sign * c
        return out

    def monomial(self):
        """Factors joined by "*" or juxtaposition; a "*" that is not followed
        by a factor (the sigma factors of a convolution) is left unread."""
        poly = self.poly_factor()
        while (t := self.tokens[self.i + (self.peek() == "*")]).isdecimal() or t in ("m", "n", "("):
            self.accept("*")
            poly = self.times(poly)
        return poly

    def poly_factor(self):
        """A factor [^k] of a weight or prefix, each "(" counted in the nesting depth."""
        token = self.peek()
        if token.isdecimal():
            base = {(0, 0): self.integer()}
        elif token in self.variables:
            self.accept(token)
            base = {(1, 0) if token == "m" else (0, 1): 1}
        elif self.accept("("):
            self.depth += 1
            self.level(0)
            base = self.polynomial()
            self.depth -= 1
            self.expect(")")
        else:
            self.error({"integer", *self.variables, "("})
        if not self.accept("^"):
            return base
        poly = {(0, 0): 1}
        # k * (the highest power of m or n in base) must not pass MAX_POWER
        for _ in range(self.bounded(MAX_POWER // max(1, *map(max, base)), "a power")):
            poly = _poly_mul(poly, base)
        return poly


def parse_record(key, anchor, status=EXPECTED_TRUE):
    """The IdentityRecord (with `status`) or CongruenceRecord that `anchor`
    states.  Raises ParseError (offset, expected tokens) on malformed text,
    parentheses included that nest past expr.MAX_DEPTH and powers of m or n
    past MAX_POWER, and ValueError on a modulus or gcd condition below 1, a
    factorisation that is not the modulus, or a congruence term that is not
    integral (a coefficient that is not an integer, or a division by n)."""
    return _AnchorParser(anchor).record(key, status)


_CATALOGUE = (
    ("eq1.1",
     "tau(n) = n^2*sigma3(n) + 60*sum_{m=1}^{n-1} (2n-3m)*(n-3m)*sigma3(m)*sigma3(n-m)"),
    ("eq1.2",
     "tau(n) = n^2*sigma7(n) - 540*sum_{m=1}^{n-1} m*(n-m)*sigma3(m)*sigma3(n-m)"),
    ("thm2.1.i",
     "tau(n) = n^2*sigma7(n) - 540*sum_{m=1}^{n-1} m*(n-m)*sigma3(m)*sigma3(n-m)"),
    ("thm2.1.ii",
     "tau(n) = -5/4*n^2*sigma7(n) + 9/4*n^2*sigma3(n) + 540*sum m^2*sigma3(m)*sigma3(n-m)"),
    ("thm2.1.iii",
     "tau(n) = n^2*sigma7(n) - 1080/n*sum m^2*(n-m)*sigma3(m)*sigma3(n-m)"),
    ("thm2.1.iv",
     "tau(n) = -1/2*n^2*sigma7(n) + 3/2*n^2*sigma3(n) + 360/n*sum m^3*sigma3(m)*sigma3(n-m)"),
    ("thm2.2.i",
     "tau(n) = -11/24*n*sigma9(n) + 35/24*n*sigma5(n) + 350*sum (n-m)*sigma3(m)*sigma5(n-m)"),
    ("thm2.2.ii",
     "tau(n) = 11/36*n*sigma9(n) + 25/36*n*sigma3(n) - 350*sum m*sigma3(m)*sigma5(n-m)"),
    ("thm2.2.iii",
     "tau(n) = 1/6*n*sigma9(n) + 5/6*n*sigma3(n) - 420/n*sum m^2*sigma3(m)*sigma5(n-m)"),
    ("thm2.2.iv",
     "tau(n) = n*sigma9(n) - 2100/n*sum m*(n-m)*sigma3(m)*sigma5(n-m)"),
    ("thm2.2.v",
     "tau(n) = -1/4*n*sigma9(n) + 5/4*n*sigma5(n) + 300/n*sum (n-m)^2*sigma3(m)*sigma5(n-m)"),
    ("thm2.3",
     "tau(n) = 65/756*sigma11(n) + 691/756*sigma5(n) - 1382/3*(1/n)*sum m*sigma5(m)*sigma5(n-m)"),
    ("thm2.4.i",
     "tau(n) = -91/600*sigma11(n) + 691/600*sigma3(n) + 2764/5*(1/n)*sum m*sigma3(m)*sigma7(n-m)"),
    ("thm2.4.ii",
     "tau(n) = -91/600*sigma11(n) + 691/600*sigma7(n) + 1382/5*(1/n)*sum (n-m)*sigma3(m)*sigma7(n-m)"),
    ("thm2.5.i",
     "tau(n) = n^4*sigma(n) - 24*sum (35m^4 - 52m^3*n + 18m^2*n^2)*sigma(m)*sigma(n-m)"),
    ("thm2.5.ii",
     "tau(n) = 7*n^4*sigma(n) - 6*n^4*sigma3(n) - 168*sum (5m^4 - 4m^3*n)*sigma(m)*sigma(n-m)"),
    ("thm2.5.iii",
     "tau(n) = n^4*sigma3(n) - 168*sum (5m^4 - 8m^3*n + 3m^2*n^2)*sigma(m)*sigma(n-m)"),
    ("thm2.5.iv",
     "tau(n) = 7/3*n^4*sigma(n) - 4/3*n^4*sigma3(n) - 56*sum (15m^4 - 20m^3*n + 6m^2*n^2)*sigma(m)*sigma(n-m)"),
    ("thm2.6.i",
     "tau(n) = 5/12*n*sigma3(n) + 7/12*n*sigma5(n) + 70*sum (2n-5m)*sigma3(m)*sigma5(n-m)"),
    ("thm2.6.ii",
     "tau(n) = n^2*sigma3(n) + 60*sum (4n^2 - 13mn + 9m^2)*sigma3(m)*sigma3(n-m)"),
    ("thm2.6.iii",
     "tau(n) = 65/756*sigma11(n) + 3455/9072*sigma7(n)/n + 691/1296*sigma5(n)/n"
     " - 3455/54*(1/n^2)*sum (3n-7m)*sigma5(m)*sigma7(n-m)"
     " - 8983/9*(1/n^2)*sum m*(n-m)*sigma5(m)*sigma5(n-m)"),
    ("thm2.6.iv",
     "tau(n) = 65/756*sigma11(n) + 691/1176*sigma3(n) + 3455/10584*sigma7(n)"
     " + 3455/441*(1/n^2)*sum (91m^2 - 65mn + 10n^2)*sigma3(m)*sigma7(n-m)"
     " - 8983/9*(1/n^2)*sum m*(n-m)*sigma5(m)*sigma5(n-m)"),
    ("thm2.6.v",
     "tau(n) = 65/756*sigma11(n) + 17275/27216*sigma3(n)/n + 7601/27216*sigma9(n)/n"
     " - 38005/1134*(1/n^2)*sum (7m-2n)*sigma3(m)*sigma9(n-m)"
     " - 8983/9*(1/n^2)*sum m*(n-m)*sigma5(m)*sigma5(n-m)"),
    # The stated convolution constant 3455/864 fails exact verification;
    # the audit refit determines 3455/36 (see tests).  Shipped flagged.
    ("thm2.7.i",
     "tau(n) = 3455/9504*sigma(n) - 691/864*(6n-5)*sigma9(n) + 2275/1584*sigma11(n)"
     " - 3455/864*sum sigma(m)*sigma9(n-m)",
     AUDIT_FLAGGED),
    ("thm2.7.ii",
     "tau(n) = 15/32*n*sigma(n) - 33/32*n*sigma9(n) + 25/16*n^2*sigma7(n)"
     " + 225*sum m*sigma(m)*sigma7(n-m)"),
    ("thm2.7.iii",
     "tau(n) = 6/7*n^2*sigma(n) - 9/7*n^3*sigma5(n) + 10/7*n^2*sigma7(n)"
     " - 432*sum m^2*sigma(m)*sigma5(n-m)"),
    ("thm2.7.iv",
     "tau(n) = 14/5*n^3*sigma(n) + 12/5*n^4*sigma3(n) - 21/5*n^3*sigma5(n)"
     " + 672*sum m^3*sigma(m)*sigma3(n-m)"),
    ("thm2.7.v",
     "tau(n) = 5/12*n*sigma(n) + 25/24*n*sigma7(n) - 11/24*n*sigma9(n)"
     " + 25*sum (9m-n)*sigma(m)*sigma7(n-m)"),
    ("thm2.7.vi",
     "tau(n) = 9/14*n^2*sigma(n) + 5/14*n^2*sigma7(n) - 108*sum (4m^2-mn)*sigma(m)*sigma5(n-m)"),
    ("thm2.7.vii",
     "tau(n) = 8/5*n^3*sigma(n) - 3/5*n^3*sigma5(n) + 96*sum (7m^3-3m^2*n)*sigma(m)*sigma3(n-m)"),
    ("thm2.7.viii",
     "tau(n) = 1/2*n^2*sigma(n) + 1/2*n^2*sigma5(n) - 12*sum (36m^2-16mn+n^2)*sigma(m)*sigma5(n-m)"),
    ("thm2.7.ix",
     "tau(n) = n^3*sigma(n) - 24*sum (21m^2*n - 28m^3 - 3mn^2)*sigma(m)*sigma3(n-m)"),
    ("thm2.9.i",
     "sum m^3*sigma(m)*sigma(n-m) = 1/12*n^3*sigma3(n) - 1/24*n^3*(3n-1)*sigma(n)"),
    ("thm2.9.ii",
     "sum m^2*sigma(m)*sigma(n-m) = 1/8*n^2*sigma3(n) - 1/24*n^2*(4n-1)*sigma(n)"),
    ("thm2.9.iii",
     "sum m*sigma(m)*sigma(n-m) = 1/24*n*(1-6n)*sigma(n) + 5/24*n*sigma3(n)"),
    # The stated middle term -1/120*n^2*sigma3(n) fails exact verification;
    # the refit finds -1/120*n^3*sigma3(n).  Shipped flagged.
    ("thm2.9.iv",
     "sum m^2*sigma(m)*sigma3(n-m) = -1/240*n^2*sigma(n) - 1/120*n^2*sigma3(n) + 1/80*n^2*sigma5(n)",
     AUDIT_FLAGGED),
    ("thm2.9.v",
     "sum m*sigma(m)*sigma3(n-m) = -1/240*n*sigma(n) - 1/40*n^2*sigma3(n) + 7/240*n*sigma5(n)"),
    ("thm2.9.vi",
     "sum m*sigma(m)*sigma5(n-m) = 1/504*n*sigma(n) - 1/84*n^2*sigma5(n) + 5/504*n*sigma7(n)"),
    ("thm2.9.vii",
     "sum sigma(m)*sigma5(n-m) = 1/504*sigma(n) - 1/12*n*sigma5(n) + 1/24*sigma5(n) + 5/126*sigma7(n)"),
    ("thm2.9.viii",
     "sum sigma(m)*sigma7(n-m) = -1/480*sigma(n) + 1/24*sigma7(n) + 11/480*sigma9(n) - 1/16*n*sigma7(n)"),
    ("cor2.10",
     "sum (2m^3 - 3m^2*n + mn^2)*sigma(m)*sigma(n-m) = 0"),
    ("cor2.11",
     "tau(n) = 50*n^4*sigma3(n) - 7*n^4*(12n-5)*sigma(n) - 840*sum m^4*sigma(m)*sigma(n-m)"),
    ("id1",
     "24*sum (4m^3 - 3m^2*n)*sigma(m)*sigma(n-m) = n^3*sigma(n) - n^3*sigma3(n)"),
    ("id4",
     "12*sum (5m^2 - 3mn)*sigma(m)*sigma(n-m) = n^2*sigma(n) - n^3*sigma(n)"),
    ("id5",
     "24*sum (3m^3 - 2m^2*n)*sigma(m)*sigma(n-m) = n^3*sigma(n) - n^4*sigma(n)"),
    ("cor2.8.i",
     "12*tau(n) == 5*n*sigma3(n) + 7*n*sigma5(n) mod 840 = 8*3*5*7"),
    ("cor2.8.ii",
     "32*tau(n) == 15*n*sigma(n) + 50*n^2*sigma7(n) - 33*n*sigma9(n) mod 7200 = 32*9*25"),
    ("cor2.8.iii",
     "7*tau(n) == 6*n^2*sigma(n) - 9*n^3*sigma5(n) + 10*n^2*sigma7(n) mod 3024 = 16*27*7"),
    ("cor2.8.iv",
     "5*tau(n) == 14*n^3*sigma(n) + 12*n^4*sigma3(n) - 21*n^3*sigma5(n) mod 3360 = 32*3*5*7"),
    ("cor2.8.v",
     "24*tau(n) == 10*n*sigma(n) + 25*n*sigma7(n) - 11*n*sigma9(n) mod 600 = 8*3*25"),
    ("cor2.8.vi",
     "14*tau(n) == 9*n^2*sigma(n) + 5*n^2*sigma7(n) mod 1512 = 8*27*7"),
    ("cor2.8.vii",
     "5*tau(n) == 8*n^3*sigma(n) - 3*n^3*sigma5(n) mod 480 = 32*3*5"),
    ("cor2.8.viii",
     "2*tau(n) == n^2*sigma(n) + n^2*sigma5(n) mod 24 = 8*3"),
    ("cor2.12.i",
     "(6n-5)*sigma(n) == sigma3(n) mod 24, gcd(n,6)=1"),
    ("cor2.12.ii",
     "sigma(n) + 2*n*sigma3(n) == 3*sigma5(n) mod 16, n odd"),
    ("cor2.12.iii",
     "n*sigma(n) + 5*n*sigma7(n) == 6*n^2*sigma5(n) mod 504 = 8*9*7, gcd(n,42)=1"),
    ("cor2.12.iv",
     "20*sigma7(n) + 11*sigma9(n) == sigma(n) + 30*n*sigma7(n) mod 480 = 32*3*5"),
    ("cor2.12.v",
     "5*sigma(n) + 6*n*sigma7(n) == 11*sigma9(n) mod 32, n odd"),
    ("cor2.12.vi",
     "sigma(n) + 2*n*sigma3(n) == 3*sigma5(n) mod 80 = 16*5, gcd(n,10)=1"),
    ("cor2.12.vii",
     "sigma(n) + 10*(3n-2)*sigma7(n) == 11*sigma9(n) mod 120 = 8*3*5, gcd(n,30)=1"),
)


@lru_cache(maxsize=1)
def builtin_registry():
    """Every catalogued identity and congruence, parsed from its anchor.

    Two entries ship audit-flagged: their stated constants fail exact
    verification and the audit reports the refitted form (see audit_all).
    """
    records = [parse_record(*row) for row in _CATALOGUE]
    return Registry(
        tuple(r for r in records if isinstance(r, IdentityRecord)),
        tuple(r for r in records if isinstance(r, CongruenceRecord)),
    )


# --------------------------------------------------------------------------
# evaluation, range verification, certification


def evaluate(record, n, ctx):
    """Exact residual lhs(n) - rhs(n); zero means the identity holds at n."""
    return Fraction(record.lhs.value(n, ctx) - record.rhs.value(n, ctx))


def verify_range(record, limit, ctx=None):
    """Residuals for 1 <= n <= limit, in ctx (a new context to limit when
    None): failed at the first n where L * n^d * (lhs(n) - rhs(n)) (see
    _difference) is not 0, or verified when there is none."""
    if limit < 1:
        raise ValueError("limit must be at least 1")
    if ctx is None:
        ctx = make_context(limit)
    # every source is 0 at n = 0, so the sides can only differ from n = 1 on
    diff = islice(_difference(record, ctx, limit), 1, None)
    n = next(compress(count(1), diff), None)
    if n is None:
        return VerificationReport(record.id, status="verified", limit=limit)
    return _failed(record, limit, ctx, n)


def _failed(record, limit, ctx, n):
    """The report of record failing first at n."""
    first = (n, record.lhs.value(n, ctx), record.rhs.value(n, ctx))
    return VerificationReport(record.id, status="failed", limit=limit, first_failure=first)


def _clearing(record):
    """(L, d): L the lcm of every coefficient denominator, d the clearing power."""
    scale = lcm(record.lhs.denominator(), record.rhs.denominator())
    return scale, max(record.lhs.clearing_power(), record.rhs.clearing_power())


def _difference(record, ctx, limit):
    """L * n^d * (lhs(n) - rhs(n)) for n = 0..limit (L, d from _clearing) as
    one lazy stream over the terms of both sides, so that neither side's
    vector is built."""
    return _horner(ctx, limit, _difference_terms(record))


def _difference_terms(record):
    """The integer terms {e: {source: k}} of L * n^d * (lhs(n) - rhs(n)),
    both sides merged (see _merged)."""
    scale, power = _clearing(record)
    rhs = ((source, e, -c) for source, e, c in record.rhs.terms(power))
    return _merged(chain(record.lhs.terms(power), rhs), scale)


def certification_weight(record):
    """Weight of the graded space certifying the identity, after clearing
    every 1/n and 1/n^2 prefactor by differentiation.  It is graded over
    the unmerged terms, so terms that cancel (all of cor2.10's) still count,
    and is at least 2, the least graded weight, which a record without
    terms takes."""
    d = _clearing(record)[1]
    w = 2
    for side in (record.lhs, record.rhs):
        for source, e, _ in side.terms(d):
            if isinstance(source, tuple):  # D^a(E_{left+1}) * D^b(E_{right+1})
                left, a, right, b = source
                base = left + 1 + 2 * a + right + 1 + 2 * b
            else:
                base = 12 if source == 0 else source + 1
            w = max(w, base + 2 * e)
    return w, d


def certification_limit(record):
    """T = max(64, G + 12), G the generator count of the record's
    certification weight: how far certify checks it."""
    weight, _ = certification_weight(record)
    return max(64, generator_count(weight) + GUARD_ROWS + 8)


def certify(record, ctx=None):
    """Series-level check: n^d * (lhs - rhs), with d the clearing power,
    must vanish through q^T.

    This is verify_range to T = certification_limit(record) on the same
    cleared integer vectors (whose q^0 entries are 0), in ctx when given
    (its limit must reach T), so that records certified together share
    their convolutions.  The graded generators have full rank on
    coefficients 0..G+4, the reported certification bound, so a difference
    that vanishes through q^T decomposes to zero.  Only a failing
    difference is built as a q-series and decomposed over the generators,
    to name the coordinate or coefficient that is wrong.  T is not a
    computed proof bound for the weight space.  Without ctx, one context
    to T serves the check and the diagnosis.
    """
    truncation = certification_limit(record)
    if ctx is None:
        ctx = make_context(truncation)
    return _certification(record, ctx, verify_range(record, truncation, ctx), truncation)


def _certification(record, ctx, walk, truncation):
    """certify's report, read off walk, the verify_range report of record
    in ctx to truncation = certification_limit(record) or beyond: the
    difference vanishes through q^truncation unless walk failed at some
    n <= truncation."""
    weight, d = certification_weight(record)
    late = walk.first_failure is not None and walk.first_failure[0] > truncation
    certified = walk.status == "verified" or late
    return VerificationReport(
        record.id,
        status="certified" if certified else "failed",
        limit=truncation,
        certified=certified,
        certification_bound=generator_count(weight) + GUARD_ROWS,
        detail="" if certified else _failure_detail(record, ctx, truncation, weight, d),
    )


def _failure_detail(record, ctx, truncation, weight, d):
    """Why n^d * (lhs - rhs), which does not vanish through q^truncation,
    is not zero in the weight's graded space."""
    diff = record.lhs.series(ctx, truncation, d) - record.rhs.series(ctx, truncation, d)
    try:
        rec = decompose(GradedForm(diff, weight, weight // 2), weight, weight // 2)
    except NotInGradedSpace as exc:
        return f"difference {exc}"
    offending = {label: str(c) for label, c in rec.coordinates if c != 0}
    if not offending:
        raise InternalInconsistency(
            f"{record.id}: a difference that fails verify_range decomposes to 0"
        )
    return f"nonzero coordinates {offending}"


def check_congruence(record, limit, ctx=None):
    """lhs == rhs mod modulus for every n <= limit with gcd(n, g) = 1, in
    ctx (a new context to limit when None): the one-record case of
    check_congruences, whose docstring gives the method and why it is exact."""
    return check_congruences((record,), limit, ctx)[0]


def check_congruences(records, limit, ctx=None):
    """The report of each record of the sequence records, in order: lhs ==
    rhs mod modulus for every n <= limit with gcd(n, g) = 1, in ctx (a new
    context to limit when None), each record decided by one divisibility
    test on packed integers.

    The sides are integers (see CongruenceRecord) and the clearing power is
    0, so L * (lhs - rhs) is sum k * n^e * source(n) over the record's
    integer terms, L being 2 where Waring's 1/2 enters an equal-sigma
    convolution and 1 otherwise; the sides agree mod the modulus M exactly
    where it is 0 mod S = L * M.  With R the lcm of the batch's S, each
    (source, e) is packed once by qseries._pack, as the integer P whose
    w-byte slot n holds n^e * source(n) mod R for n = 0..limit; the records
    run in the order of _in_order over the pairs each reads, which keeps
    few packed vectors alive, and each P is dropped after its last reader.
    A record's D is sum (k mod S) * P, ANDed, when g > 1, with a mask that
    clears every slot n with gcd(n, g) > 1 (slot 0 is 0 either way, as every
    source is 0 at n = 0).  So every slot d_n of D is congruent to
    L * (lhs(n) - rhs(n)) mod S, and w, the least multiple of 8 bytes that
    bounds every record's slots so, keeps each d_n below 2^(8w - k), S < 2^k.

    With q, r = divmod(D, S), the record holds exactly when r = 0 and no
    slot of q has a bit at or above 8w - k: if S divides every d_n, q's
    slots are the d_n / S; if r = 0 and every slot q_n is below 2^(8w - k),
    S * q_n < 2^(8w), so S * q is D's unique base-2^(8w) expansion and S
    divides every d_n.  A record that fails has its slots of D read back
    once, by qseries._unpack, to find its first failing n.
    """
    if limit < 1:
        raise ValueError("limit must be at least 1")
    if ctx is None:
        ctx = make_context(limit)
    if limit > ctx.limit:
        raise ValueError(f"limit {limit} beyond context limit {ctx.limit}")
    rows = []
    for record in records:
        s = _clearing(record)[0] * record.modulus
        terms = {}
        for e, merged in _difference_terms(record).items():
            for source, k in merged.items():
                if k := k % s:
                    terms[source, e] = k
        rows.append((record, s, terms))
    big = lcm(1, *(s for _, s, _ in rows))
    top = ((sum(terms.values()) * (big - 1)).bit_length() + s.bit_length() for _, s, terms in rows)
    width = 8 * -(-max(top, default=1) // 64)
    ns = range(limit + 1)
    packed, reports = {}, [None] * len(rows)
    for r, done in _in_order([terms for _, _, terms in rows]):
        record, s, terms = rows[r]
        d = 0
        for key, k in terms.items():
            if key not in packed:
                source, e = key
                values = islice(ctx.source(source), limit + 1)
                if e:
                    values = map(mul, values, map(pow, ns, repeat(e)))
                packed[key] = _pack(map(mod, values, repeat(big)), width)
            d += k * (packed.pop(key) if key in done else packed[key])
        if record.gcd_condition != 1:
            d &= _coprime_mask(record.gcd_condition, limit, width)
        q, rem = divmod(d, s)
        del d  # a failing record rebuilds D from q and rem: D is not held beside q
        high = ((1 << 8 * width) - (1 << 8 * width - s.bit_length())).to_bytes(width, "little")
        if not rem and not q & int.from_bytes(high * (limit + 1), "little"):
            reports[r] = VerificationReport(record.id, status="verified", limit=limit)
            continue
        slots = _unpack(q * s + rem, width, limit + 1)
        n = next(n for n, slot in enumerate(slots) if slot % s)
        reports[r] = _failed(record, limit, ctx, n)._replace(detail=f"mod {record.modulus}")
    return reports


def _coprime_mask(g, limit, width):
    """The _pack integer whose `width`-byte slots 0..limit, and maybe some
    past them, are all ones at each n with gcd(n, g) = 1 and 0 elsewhere:
    the bytes of the first period of g slots, repeated."""
    period = min(g, limit + 1)
    slots = (bytes(width) if gcd(n, g) != 1 else b"\xff" * width for n in range(period))
    return int.from_bytes(b"".join(slots) * -(-(limit + 1) // period), "little")


# --------------------------------------------------------------------------
# empirical refitting of failed identities


class FittedCoefficient(Value):
    """A refitted constant: the stated and the fitted value, as Fractions."""

    __slots__ = __match_args__ = ("description", "stated", "fitted")


class FitResult(Value):
    """The outcome of fit_identity: a FittedCoefficient per unknown."""

    __slots__ = __match_args__ = ("identity_id", "success", "coefficients", "detail")
    _defaults = ((), "")

    @property
    def discrepancies(self):
        return tuple(c for c in self.coefficients if c.stated != c.fitted)


_TAU_SIDE = Side(closed=(ClosedTerm(Fraction(1), 0, 0),))


def fit_identity(record, ctx):
    """Refit the scalar constants of a failed identity, exactly.

    The target side (tau, or the stated convolution for pure divisor-sum
    identities) is kept fixed; the closed coefficients - over the stated
    monomial shapes plus their n-shifted variants - and the remaining
    convolution coefficients are solved for by exact elimination and then
    verified over the whole context range.  Terms of one shape or one
    convolution are one unknown, with their stated coefficients summed.
    """
    if record.lhs.has_tau and record.lhs != _TAU_SIDE:
        raise IdentityStructureError("refit expects a bare tau(n) left side")
    limit = ctx.limit
    power = _clearing(record)[1]
    scale = record.lhs.denominator()
    table = {}  # label -> (stated coefficient, unit side), in column order

    def column(label, stated, unit):
        table[label] = (table.get(label, (0,))[0] + stated, unit)

    for shift in (0, 1):  # the stated shapes, then their n-shifted variants
        for t in record.rhs.closed:
            p, j = t.n_power + shift, t.sigma
            unit = Side(closed=(ClosedTerm(Fraction(1), p, j),))
            column(_closed_shape_name(p, j), 0 if shift else t.coefficient, unit)
    for t in record.rhs.conv:
        term = ConvolutionTerm(Fraction(1), t.n_divisor, t.poly, t.left, t.right)
        column(term.describe(), t.coefficient, Side(conv=(term,)))
    # Each vector is its true value times n^power, and times its side's own
    # scale: row n is n^power times the rational one, which keeps
    # solve_exact's pivots; each solution is scaled back by its column's.
    target = record.lhs.cleared(ctx, limit, scale, power)
    columns = [unit.cleared(ctx, limit, unit.denominator(), power) for _, unit in table.values()]
    ncols = len(columns)
    rows_used = min(limit, ncols + FIT_EXTRA_ROWS)
    if rows_used < ncols:
        return FitResult(record.id, False, detail="context range too small to refit")
    rows = list(zip(*(col[1 : rows_used + 1] for col in columns)))
    rhs = [Fraction(target[n], scale) for n in range(1, rows_used + 1)]
    try:
        solution = solve_exact(rows, rhs)
    except LinearSolveError as exc:
        return FitResult(record.id, False, detail=str(exc))
    fitted, den = _combine(solution, columns, limit + 1)
    for n in range(1, limit + 1):
        if fitted[n] * scale != den * target[n]:
            return FitResult(record.id, False, detail=f"refit inconsistent at n={n}")
    fits = tuple(
        FittedCoefficient(label, Fraction(stated), x * unit.denominator())
        for (label, (stated, unit)), x in zip(table.items(), solution)
    )
    return FitResult(record.id, True, fits)


# --------------------------------------------------------------------------
# the audit


class AuditFinding(Value):
    """A stated value next to the one computed, and why they differ."""

    __slots__ = __match_args__ = ("id", "claimed", "computed", "detail")


class AuditEntry(Value):
    """One catalogue record's audit: its VerificationReports, and the
    FitResult of a record that failed.  status is verified, failed or
    audit-flagged."""

    __slots__ = __match_args__ = (
        "id", "anchor", "expected_status", "status", "range_report", "certify_report", "fit"
    )
    _defaults = (None, None)


class AuditReport(Value):
    """audit_all's AuditEntry tuples and AuditFinding tuple."""

    __slots__ = __match_args__ = ("limit", "entries", "congruences", "findings")

    @property
    def ok(self):
        """True iff only pre-declared audit-flagged entries fail."""
        return all(e.status != "failed" for e in self.entries) and all(
            e.status != "failed" for e in self.congruences
        )

    def entry(self, key):
        for e in self.entries + self.congruences:
            if e.id == key:
                return e
        raise KeyError(key)


def _normalization_finding():
    samples = []
    for k in (4, 6, 8, 10, 12):
        display = Fraction(-4 * k) / bernoulli(k)
        listed = eisenstein(k, 1).coefficient(1)
        if display != 2 * listed:
            raise InternalInconsistency(f"E{k}: -4k/B_k = {display}, expansion uses {listed}")
        samples.append(f"k={k}: -4k/B_k gives {display}, expansions use {listed}")
    return AuditFinding(
        id="eisenstein-leading-coefficient",
        claimed="E_k = 1 - (4k/B_k) sum sigma_{k-1}(n) q^n",
        computed="E_k = 1 - (2k/B_k) sum sigma_{k-1}(n) q^n",
        detail=(
            "the -4k/B_k display is exactly twice every tabulated expansion "
            "coefficient; " + "; ".join(samples)
        ),
    )


# Form-level findings: (id, claimed, computed, detail, the statements as
# printed, which must fail, and their corrections, which must hold).  Each
# statement is "lhs = rhs" in the expr language, checked through q^32.
_FORM_ROWS = (
    (
        "bracket-e4-e6-order1",
        "[E4,E6]_1 = 3456*Delta (also stated as 4*E4*D(E6) - 6*E6*D(E4) = -3456*Delta)",
        "[E4,E6]_1 = -3456*Delta",
        "the expanded statement carries the correct sign: "
        "4*E4*D(E6) - 6*E6*D(E4) equals -3456*Delta exactly",
        ("[E4,E6]_1 = 3456*Delta",),
        ("[E4,E6]_1 = -3456*Delta", "4*E4*D(E6) - 6*E6*D(E4) = -3456*Delta"),
    ),
    (
        "bracket-e4-e4-order2",
        "[E4,E4]_2 = 960*Delta",
        "[E4,E4]_2 = 4800*Delta",
        "the bracket is 5 times the stated multiple; the reduced combination "
        "2*D^2(E8) - 9*D(E4)^2 = 960*Delta holds exactly",
        ("[E4,E4]_2 = 960*Delta",),
        ("[E4,E4]_2 = 4800*Delta", "2*D^2(E8) - 9*D(E4)*D(E4) = 960*Delta"),
    ),
    (
        "weight8-decomposition-generator",
        "D(E2)^2 = 1/5*D(E6) + 2*D^3(E2) and E2*D^2(E2) = 3/10*D(E6) + 4*D^3(E2)",
        "D(E2)^2 = 1/5*D^2(E4) + 2*D^3(E2) and E2*D^2(E2) = 3/10*D^2(E4) + 4*D^3(E2)",
        "the stated coefficients 1/5, 2, 3/10, 4 are exactly right but sit on "
        "the D^2(E4) generator: the D(E6) variants already fail at the q^1 "
        "coefficient (1/5*(-504) + 2*(-24) != 0)",
        ("D(E2)*D(E2) = 1/5*D(E6) + 2*D^3(E2)", "E2*D^2(E2) = 3/10*D(E6) + 4*D^3(E2)"),
        ("D(E2)*D(E2) = 1/5*D^2(E4) + 2*D^3(E2)", "E2*D^2(E2) = 3/10*D^2(E4) + 4*D^3(E2)"),
    ),
)


def audit_all(limit=500):
    """Verify and certify every catalogue entry, refit the failures, and
    record the known normalisation/constant discrepancies.

    One context to max(limit, T) serves the whole audit, T the largest
    certification order: each identity is walked once, to max(limit, its
    own T), and both its range report at limit and certify's report are
    read off that walk; a failure is refitted over the context's range.
    The entries run in in_turn's order, and each convolution is dropped
    after the last entry that reads it.  Each form-level finding is checked
    exactly: its printed statements must fail and its corrections hold,
    with both sides of each of equal weight, or InternalInconsistency
    names the finding.

    The audit is successful when only pre-declared flagged entries fail.
    """
    registry = builtin_registry()
    ctx = make_context(max(limit, *map(certification_limit, registry.identities)))

    def entry(record):
        truncation = certification_limit(record)
        walk = verify_range(record, max(limit, truncation), ctx)
        if walk.first_failure is not None and walk.first_failure[0] > limit:
            rr = VerificationReport(record.id, status="verified", limit=limit)
        else:
            rr = walk._replace(limit=limit)
        cr = _certification(record, ctx, walk, truncation)
        passed = rr.status == "verified" and cr.certified
        if passed:
            status = "verified"
        else:
            status = AUDIT_FLAGGED if record.status == AUDIT_FLAGGED else "failed"
        fit = None if passed else fit_identity(record, ctx)
        return AuditEntry(record.id, record.anchor, record.status, status, rr, cr, fit)

    entries = in_turn(registry.identities, ctx, entry)
    reports = check_congruences(registry.congruences, limit, ctx)
    congruences = [
        AuditEntry(record.id, record.anchor, EXPECTED_TRUE, rr.status, rr)
        for record, rr in zip(registry.congruences, reports)
    ]
    findings = [_normalization_finding()]
    for key, claimed, computed, detail, wrong, right in _FORM_ROWS:
        for statements, holds in ((wrong, False), (right, True)):
            for statement in statements:
                lhs, rhs = (eval_expr(parse(side), 32) for side in statement.split("="))
                if lhs.weight is None or lhs.weight != rhs.weight:
                    raise InternalInconsistency(
                        f"{key}: the sides of {statement} are not of one weight"
                    )
                if (lhs.series == rhs.series) != holds:
                    raise InternalInconsistency(
                        f"{key}: {statement} {'fails' if holds else 'holds'} through q^32"
                    )
        findings.append(AuditFinding(key, claimed, computed, detail))
    return AuditReport(limit, tuple(entries), tuple(congruences), tuple(findings))
