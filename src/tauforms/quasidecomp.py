"""Exact linear algebra on graded spaces of quasimodular forms.

A weight-k quasimodular form of depth <= k/2 decomposes uniquely over

    (+)_{i=0}^{k/2-1} D^i M_{k-2i}  (+)  Q * D^(k/2-1) E2,

where each M_w carries an echelonised monomial basis in E4 and E6.  The
decomposition is deliberately overdetermined: four guard rows beyond the
generator count, plus a final check of every known coefficient, turn
silent truncation bugs into loud inconsistencies.

The linear algebra runs on integers.  A series holds integer numerators
over one denominator, and the systems are set up on the numerators: a
column scaled by its denominator keeps its zero pattern, so the pivots and
the inconsistent row are those of the rational system.  It is solved by
fraction-free elimination (cf. E. H. Bareiss, Math. Comp. 22, 1968), and
only the solution is built as Fractions.  Combinations of generators --
the final check, `recompose`, the echelonised basis -- clear the
coordinates to one common denominator and take one integer multiply-add
pass over the numerators per coordinate.

Each weight's basis and generators are kept in the store of named forms
(`tauforms.forms`), cut from the largest build requested so far.
"""

from fractions import Fraction
from math import gcd, lcm
from operator import add

from ._value import Value
from .forms import GradedForm, InternalInconsistency, _largest, dim_modular, eisenstein
from .qseries import QSeries, _series, _times, as_rational

__all__ = [
    "BasisElement",
    "DecompositionRecord",
    "LinearSolveError",
    "InconsistentSystem",
    "RankDeficientSystem",
    "NotInGradedSpace",
    "modular_basis",
    "graded_generators",
    "generator_count",
    "solve_exact",
    "decompose",
    "recompose",
]

# Rows beyond the generator count in every decomposition system.
GUARD_ROWS = 4


class BasisElement(Value):
    """A labelled form of a modular basis or of the graded generators."""

    __slots__ = __match_args__ = ("label", "form")


class DecompositionRecord(Value):
    """Coordinates of a form over the weight-k graded generators:
    coordinates is ((label, Fraction), ...) in generator order."""

    __slots__ = __match_args__ = ("weight", "depth", "coordinates")

    def nonzero(self):
        return {label: c for label, c in self.coordinates if c != 0}


class LinearSolveError(Exception):
    pass


class InconsistentSystem(LinearSolveError):
    def __init__(self, row):
        self.row = row
        super().__init__(f"inconsistent linear system: row {row} reduces to 0 = nonzero")


class RankDeficientSystem(LinearSolveError):
    def __init__(self, rank, columns):
        self.rank = rank
        self.columns = columns
        super().__init__(f"rank-deficient system: rank {rank} < {columns} unknowns")


class NotInGradedSpace(Exception):
    """The series is not a combination of the graded generators."""

    def __init__(self, message, index=None):
        self.index = index
        super().__init__(message)


def _primitive(row):
    g = gcd(*row)
    return row if g < 2 else [x // g for x in row]


def solve_exact(rows, rhs):
    """Solve an overdetermined rational system A x = b exactly.

    rows is a sequence of equal-length coefficient rows with at least as
    many rows as columns.  Raises InconsistentSystem (with the first
    offending original row index) or RankDeficientSystem.

    Each augmented row is cleared to integers once and eliminated
    fraction-free: row_i becomes (p * row_i - a * row_r) / gcd, with p the
    pivot of row_r and a the entry of row_i under it.  Rows are only ever
    scaled by nonzero rationals, so zero patterns, pivots and the
    inconsistent row are those of Gauss-Jordan elimination over Q; only the
    solution, rhs_i / pivot_i, is built as Fractions.
    """
    nrows = len(rows)
    if nrows == 0:
        return []
    ncols = len(rows[0])
    if nrows < ncols:
        raise ValueError(f"need at least {ncols} rows, got {nrows}")
    aug = []
    for i, row in enumerate(rows):
        row = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in (*row, rhs[i])]
        den = lcm(*(x.denominator for x in row))
        aug.append(_primitive([x.numerator * (den // x.denominator) for x in row]))
    origin = list(range(nrows))
    rank = 0
    pivot_cols = []
    for col in range(ncols):
        pivot = next((i for i in range(rank, nrows) if aug[i][col]), None)
        if pivot is None:
            continue
        aug[rank], aug[pivot] = aug[pivot], aug[rank]
        origin[rank], origin[pivot] = origin[pivot], origin[rank]
        prow = aug[rank]
        pv = prow[col]
        for i in range(nrows):
            a = aug[i][col]
            if a and i != rank:
                aug[i] = _primitive([pv * x - a * y for x, y in zip(aug[i], prow)])
        pivot_cols.append(col)
        rank += 1
    if rank < ncols:
        raise RankDeficientSystem(rank, ncols)
    for i in range(rank, nrows):
        if aug[i][ncols]:
            raise InconsistentSystem(origin[i])
    solution = [Fraction(0)] * ncols
    for i, col in enumerate(pivot_cols):
        solution[col] = Fraction(aug[i][ncols], aug[i][col])
    return solution


def _combine(coords, columns, length):
    """(acc, den) with acc[i] / den = sum_j coords[j] * columns[j][i] for
    i < length, for integer columns and int or Fraction coordinates.

    The coordinates are cleared to one common denominator, then each
    nonzero coordinate takes one integer multiply-add pass.
    """
    terms = [(c, column) for c, column in zip(coords, columns) if c]
    den = lcm(*(c.denominator for c, _ in terms))
    acc = [0] * length
    for c, column in terms:
        acc = list(map(add, acc, _times(column, c.numerator * (den // c.denominator))))
    return acc, den


def _require_truncation(k, truncation, last):
    if truncation < last:
        raise ValueError(
            f"truncation {truncation} too small: weight {k} needs coefficients 0..{last}"
        )


def _cut(element, truncation):
    return BasisElement(element.label, element.form.truncate(truncation))


def _weight12_label(pivot):
    return "Delta" if pivot == 1 else f"M12.{pivot}"


def modular_basis(k, truncation):
    """Echelonised basis of the weight-k modular forms, as monomials in E4, E6.

    Element j is the combination of the E4^a E6^b monomials whose first dim
    coefficients are the j-th unit vector.  Dimension-one spaces keep their
    Eisenstein name as label; the weight-12 cuspidal element is Delta.
    """
    dim = dim_modular(k)
    if dim == 0:
        return ()
    _require_truncation(k, truncation, dim - 1)
    basis = _largest(("basis", k), truncation, lambda size: _echelon_basis(k, size))
    return tuple(_cut(element, truncation) for element in basis)


def _echelon_basis(k, truncation):
    if k == 0:
        return (BasisElement("1", GradedForm(QSeries.one(truncation), 0, 0)),)
    dim = dim_modular(k)
    e4 = eisenstein(4, truncation).series
    e6 = eisenstein(6, truncation).series
    monomials = [
        (e4 ** a * e6 ** ((k - 4 * a) // 6))._nums
        for a in range(k // 4, -1, -1)
        if (k - 4 * a) % 6 == 0
    ]
    rows = list(zip(*(m[:dim] for m in monomials)))
    out = []
    for j in range(dim):
        try:
            x = solve_exact(rows, [int(i == j) for i in range(dim)])
        except LinearSolveError as exc:
            raise InternalInconsistency(f"weight-{k} modular basis: {exc}") from exc
        series = _series(*_combine(x, monomials, truncation + 1))
        if dim == 1:
            label = f"E{k}"
        elif k == 12:
            label = _weight12_label(j)
        else:
            label = f"M{k}.{j}"
        out.append(BasisElement(label, GradedForm(series, k, 0)))
    return tuple(out)


def generator_count(k):
    """Number of graded generators in weight k (the E2 line included)."""
    if k < 2 or k % 2:
        raise ValueError(f"graded decomposition needs even weight >= 2, got {k}")
    return sum(dim_modular(k - 2 * i) for i in range(k // 2)) + 1


def _derivative_label(i, label):
    if i == 0:
        return label
    if i == 1:
        return f"D({label})"
    return f"D^{i}({label})"


def graded_generators(k, truncation):
    """The full weight-k generator list: D^i of each M_{k-2i} basis, then E2."""
    if k < 2 or k % 2:
        raise ValueError(f"graded decomposition needs even weight >= 2, got {k}")
    widest = max(dim_modular(k - 2 * i) for i in range(k // 2))
    _require_truncation(k, truncation, max(widest - 1, 0))
    gens = _largest(("generators", k), truncation, lambda size: _derived_generators(k, size))
    return tuple((depth, _cut(element, truncation)) for depth, element in gens)


def _derived_generators(k, truncation):
    gens = []
    for i in range(k // 2):
        for element in modular_basis(k - 2 * i, truncation):
            gens.append(
                (i, BasisElement(_derivative_label(i, element.label), element.form.derive(i)))
            )
    e2 = eisenstein(2, truncation).derive(k // 2 - 1)
    gens.append((k // 2, BasisElement(_derivative_label(k // 2 - 1, "E2"), e2)))
    return tuple(gens)


def decompose(f, k=None, s=None):
    """Coordinates of a quasimodular form over the weight-k generators.

    The linear system uses coefficients 0..G+4 (G = generator count); the
    solution is then checked against every coefficient up to the form's
    truncation, and coordinates on generators deeper than the declared
    depth bound must vanish.  k defaults to the form's weight and s to its
    depth bound; s outside 0..k//2 raises GradedForm's ValueError.
    """
    if k is None:
        k = f.weight
    if k is None:
        raise ValueError("cannot decompose a weight-inhomogeneous form; pass k explicitly")
    if f.weight is not None and f.weight != k:
        raise ValueError(f"form has weight {f.weight}, asked to decompose in weight {k}")
    if s is None:
        s = f.depth
    count = generator_count(k)
    GradedForm(f.series, k, s)  # refuses a depth bound s outside 0..k//2
    rows_needed = count + GUARD_ROWS  # highest coefficient index used
    _require_truncation(k, f.truncation, rows_needed)
    gens = graded_generators(k, f.truncation)
    # numerators against numerators: solution j is coordinate j times the
    # target's denominator over generator j's
    columns = [g.form.series._nums for _, g in gens]
    rows = [[column[i] for column in columns] for i in range(rows_needed + 1)]
    target, tden = f.series._nums, f.series._den
    try:
        solution = solve_exact(rows, target[: rows_needed + 1])
    except InconsistentSystem as exc:
        raise NotInGradedSpace(
            f"not in the weight-{k} graded space: coefficient {exc.row} is inconsistent",
            index=exc.row,
        ) from exc
    # the guard: the solved combination, acc / den, must reproduce *every*
    # known numerator of the target
    acc, den = _combine(solution, columns, f.truncation + 1)
    expected = list(_times(target, den))
    if acc != expected:
        i = next(i for i, (a, b) in enumerate(zip(acc, expected)) if a != b)
        raise NotInGradedSpace(
            f"not in the weight-{k} graded space: first mismatch at coefficient {i}", index=i
        )
    coordinates = []
    for (depth, element), x in zip(gens, solution):
        c = Fraction(x.numerator * element.form.series._den, x.denominator * tden)
        if depth > s and c != 0:
            raise NotInGradedSpace(
                f"declared depth bound {s} violated: generator {element.label} "
                f"(depth {depth}) carries coordinate {c}"
            )
        coordinates.append((element.label, c))
    return DecompositionRecord(weight=k, depth=s, coordinates=tuple(coordinates))


def recompose(record, truncation):
    """Rebuild the series from a decomposition record at the given truncation."""
    needed = generator_count(record.weight) + GUARD_ROWS
    truncation = max(truncation, needed)
    table = {
        element.label: element.form.series
        for _, element in graded_generators(record.weight, truncation)
    }
    coords, columns = [], []
    for label, c in record.coordinates:
        if label not in table:
            raise LookupError(f"unknown basis label {label!r} in weight {record.weight}")
        # c times a generator is c / (its denominator) times its numerators
        coords.append(Fraction(as_rational(c), table[label]._den))
        columns.append(table[label]._nums)
    series = _series(*_combine(coords, columns, truncation + 1))
    return GradedForm(series, record.weight, record.depth)
