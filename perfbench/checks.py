"""Independent oracles for the benchmark's correctness checks.

Nothing here calls tauforms.  Divisor sums come from our own sieve, the
discriminant from Euler's pentagonal-number theorem, and the bracket
formulas are evaluated modulo a large prime by our own schoolbook code, so
a wrong answer from the program cannot be confirmed by the program itself.
"""

import json
from fractions import Fraction
from math import comb, gcd, isqrt

# Products are compared modulo this Mersenne prime: an exact rational
# result that differs from the reference agrees modulo P only if the
# difference is a multiple of P in every coefficient checked.
P = (1 << 61) - 1

# Normalised Eisenstein series E_k = 1 + c_k * sum sigma_{k-1}(n) q^n.
EISENSTEIN_C = {
    2: Fraction(-24),
    4: Fraction(240),
    6: Fraction(-504),
    8: Fraction(480),
    10: Fraction(-264),
    12: Fraction(65520, 691),
}

TAU_HEAD = (1, -24, 252, -1472, 4830)
AUDIT_FLAGGED = frozenset({"thm2.7.i", "thm2.9.iv"})
CONGRUENCE_COUNT = 15


def divisor_sums(k, limit):
    """[0, sigma_k(1), ..., sigma_k(limit)] by a divisor sieve."""
    out = [0] * (limit + 1)
    for d in range(1, limit + 1):
        dk = d ** k
        for n in range(d, limit + 1, d):
            out[n] += dk
    return out


def primes_upto(limit):
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    return [p for p in range(limit + 1) if flags[p]]


def _mul_exact(a, b, n):
    out = [0] * (n + 1)
    for i, x in enumerate(a[: n + 1]):
        if x:
            for j in range(n + 1 - i):
                out[i + j] += x * b[j]
    return out


def delta_coefficients(limit):
    """tau(0..limit) with tau(0) = 0, as q * (prod (1 - q^n))^24.

    The Euler product is taken from the pentagonal-number theorem, so only
    O(sqrt N) of its coefficients are nonzero.
    """
    eta = [0] * (limit + 1)
    k = 0
    while True:
        done = True
        for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if g <= limit:
                eta[g] = -1 if k % 2 else 1
                done = False
        if done:
            break
        k += 1
    power = [1] + [0] * limit
    base = eta
    e = 24
    while e:
        if e & 1:
            power = _mul_exact(power, base, limit)
        e >>= 1
        if e:
            base = _mul_exact(base, base, limit)
    return [0] + power[:limit]


def to_mod(x):
    x = Fraction(x)
    return x.numerator % P * pow(x.denominator, -1, P) % P


class ModSeries:
    """Reference q-series arithmetic modulo P, for expression checks."""

    def __init__(self, limit):
        self.limit = limit
        self._sigma = {}
        self._delta = None

    def eisenstein(self, k):
        if k not in self._sigma:
            self._sigma[k] = divisor_sums(k - 1, self.limit)
        c = to_mod(EISENSTEIN_C[k])
        s = self._sigma[k]
        return [1] + [c * s[n] % P for n in range(1, self.limit + 1)]

    def delta(self):
        if self._delta is None:
            self._delta = [v % P for v in delta_coefficients(self.limit)]
        return self._delta

    @staticmethod
    def derive(a, times):
        return [x * pow(n, times, P) % P for n, x in enumerate(a)]

    @staticmethod
    def mul(a, b):
        return [v % P for v in _mul_exact(a, b, min(len(a), len(b)) - 1)]

    @staticmethod
    def add(a, b, c=1):
        return [(x + c * y) % P for x, y in zip(a, b)]

    def bracket(self, f, k, s, g, l, t, order, quasi):
        """Rankin-Cohen bracket (s = t = 0) or its quasimodular variant."""
        total = [0] * min(len(f), len(g))
        for r in range(order + 1):
            if quasi:
                c = _binom(k - s + order - 1, order - r) * _binom(l - t + order - 1, r)
            else:
                c = _binom(order + k - 1, order - r) * _binom(order + l - 1, r)
            if c:
                term = self.mul(self.derive(f, r), self.derive(g, order - r))
                total = self.add(total, term, -c if r % 2 else c)
        return total

    def evaluate(self, node, trunc):
        """Evaluate a generated expression tree truncated after q^trunc."""
        kind = node[0]
        if kind == "lit":
            return [to_mod(node[1])] + [0] * trunc
        if kind == "E":
            return self.eisenstein(node[1])[: trunc + 1]
        if kind == "Delta":
            return self.delta()[: trunc + 1]
        if kind == "D":
            return self.derive(self.evaluate(node[2], trunc), node[1])
        if kind == "mul":
            return self.mul(self.evaluate(node[1], trunc), self.evaluate(node[2], trunc))
        if kind in ("add", "sub"):
            sign = 1 if kind == "add" else -1
            return self.add(self.evaluate(node[1], trunc), self.evaluate(node[2], trunc), sign)
        if kind == "br":
            _, f, k, g, l, order = node
            return self.bracket(
                self.evaluate(f, trunc), k, 0, self.evaluate(g, trunc), l, 0, order, False
            )
        if kind == "phi":
            _, order, f, k, s, g, l, t = node
            return self.bracket(
                self.evaluate(f, trunc), k, s, self.evaluate(g, trunc), l, t, order, True
            )
        raise ValueError(f"unknown node {kind!r}")


def _binom(a, b):
    return comb(a, b) if 0 <= b <= a else 0


# --------------------------------------------------------------------------
# per-operation verdicts; each returns a list of problems (empty = correct)


def check_tau_table(values, sigma11, pairs):
    """values[n] = tau(n) for n = 1..N (values[0] unused)."""
    problems = []
    limit = len(values) - 1
    head = tuple(values[1 : 1 + len(TAU_HEAD)])
    if head != TAU_HEAD[: len(head)]:
        problems.append(f"tau table starts {head}")
    bad = next((n for n in range(1, limit + 1) if (values[n] - sigma11[n]) % 691), None)
    if bad is not None:
        problems.append(f"tau({bad}) not congruent to sigma11 mod 691")
    for m, n in pairs:
        if m * n <= limit and values[m * n] != values[m] * values[n]:
            problems.append(f"tau({m}*{n}) != tau({m})*tau({n})")
            break
    for p in primes_upto(isqrt(limit)):
        if values[p * p] != values[p] ** 2 - p ** 11:
            problems.append(f"tau({p}^2) != tau({p})^2 - {p}^11")
            break
    return problems


def coprime_pairs(rng, limit, count):
    pairs = []
    while len(pairs) < count and limit >= 6:
        m = rng.randint(2, isqrt(limit))
        n = rng.randint(2, limit // m)
        if gcd(m, n) == 1:
            pairs.append((m, n))
    return pairs


def parse_tau_csv(text):
    lines = text.strip().splitlines()
    if not lines or lines[0] != "n,value":
        raise ValueError("tau-table CSV lacks its header")
    values = [0]
    for i, line in enumerate(lines[1:], start=1):
        n, v = line.split(",")
        if int(n) != i:
            raise ValueError(f"row {i} labelled n={n}")
        values.append(int(v))
    return values


def check_verify_json(text, max_n):
    problems = []
    results = json.loads(text)["results"]
    if not results:
        return ["verify reported no identities"]
    for entry in results:
        want = "audit-flagged" if entry["id"] in AUDIT_FLAGGED else "verified"
        if entry["status"] != want:
            problems.append(f"{entry['id']}: {entry['status']} (want {want})")
        if entry["range"] != [1, max_n]:
            problems.append(f"{entry['id']}: range {entry['range']}")
    missing = AUDIT_FLAGGED - {e["id"] for e in results}
    if missing:
        problems.append(f"verify lacks {sorted(missing)}")
    return problems


def _status_lines(text):
    out = {}
    for line in text.splitlines():
        key, sep, rest = line.partition(": ")
        if sep and not line.startswith(" "):
            out[key] = rest.split(" ", 1)[0]
    return out


def check_certify_text(text):
    statuses = _status_lines(text)
    problems = []
    if not statuses:
        return ["certify printed no verdicts"]
    for key, status in statuses.items():
        want = "audit-flagged" if key in AUDIT_FLAGGED else "certified"
        if status != want:
            problems.append(f"{key}: {status} (want {want})")
    if not AUDIT_FLAGGED <= statuses.keys():
        problems.append("certify lacks an audit-flagged identity")
    return problems


def check_congruences_text(text):
    statuses = _status_lines(text)
    problems = [f"{k}: {s}" for k, s in statuses.items() if s != "verified"]
    if len(statuses) != CONGRUENCE_COUNT:
        problems.append(f"{len(statuses)} congruences reported, want {CONGRUENCE_COUNT}")
    return problems


def check_audit_text(text):
    lines = text.strip().splitlines()
    problems = []
    if not lines or lines[-1] != "audit ok":
        problems.append(f"audit ended with {lines[-1] if lines else 'nothing'!r}")
    if "fitted -3455/36" not in text:
        problems.append("audit lacks the thm2.7.i refit -3455/36")
    if "n^3*sigma3(n): stated 0, fitted -1/120" not in text:
        problems.append("audit lacks the thm2.9.iv n^3*sigma3 refit")
    return problems
