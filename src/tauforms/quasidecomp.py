"""Exact linear algebra on graded spaces of quasimodular forms.

A weight-k quasimodular form of depth <= k/2 decomposes uniquely over

    (+)_{i=0}^{k/2-1} D^i M_{k-2i}  (+)  Q * D^(k/2-1) E2,

where each M_w carries an echelonised monomial basis in E4 and E6.  The
decomposition is computed by exact Gaussian elimination, deliberately
overdetermined: four guard rows beyond the generator count, plus a final
check of every known coefficient, turn silent truncation bugs into loud
inconsistencies.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .forms import GradedForm, InternalInconsistency, dim_modular, eisenstein
from .qseries import QSeries, as_rational

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


@dataclass(frozen=True)
class BasisElement:
    label: str
    form: GradedForm


@dataclass(frozen=True)
class DecompositionRecord:
    """Coordinates of a form over the weight-k graded generators."""

    weight: int
    depth: int
    coordinates: tuple  # ((label, Fraction), ...) in generator order

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


def solve_exact(rows, rhs):
    """Solve an overdetermined rational system A x = b exactly.

    rows is a sequence of equal-length coefficient rows with at least as
    many rows as columns.  Raises InconsistentSystem (with the first
    offending original row index) or RankDeficientSystem.
    """
    nrows = len(rows)
    if nrows == 0:
        return []
    ncols = len(rows[0])
    if nrows < ncols:
        raise ValueError(f"need at least {ncols} rows, got {nrows}")
    aug = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(rows)]
    origin = list(range(nrows))
    rank = 0
    pivot_cols = []
    for col in range(ncols):
        pivot = next((i for i in range(rank, nrows) if aug[i][col] != 0), None)
        if pivot is None:
            continue
        aug[rank], aug[pivot] = aug[pivot], aug[rank]
        origin[rank], origin[pivot] = origin[pivot], origin[rank]
        pv = aug[rank][col]
        aug[rank] = [x / pv for x in aug[rank]]
        for i in range(nrows):
            if i != rank and aug[i][col] != 0:
                factor = aug[i][col]
                aug[i] = [x - factor * y for x, y in zip(aug[i], aug[rank])]
        pivot_cols.append(col)
        rank += 1
    if rank < ncols:
        raise RankDeficientSystem(rank, ncols)
    for i in range(rank, nrows):
        if aug[i][ncols] != 0:
            raise InconsistentSystem(origin[i])
    solution = [Fraction(0)] * ncols
    for i, col in enumerate(pivot_cols):
        solution[col] = aug[i][ncols]
    return solution


def _weight12_label(pivot):
    return "Delta" if pivot == 1 else f"M12.{pivot}"


@lru_cache(maxsize=None)
def modular_basis(k, truncation):
    """Echelonised basis of the weight-k modular forms, as monomials in E4, E6.

    Element j is the combination of the E4^a E6^b monomials whose first dim
    coefficients are the j-th unit vector.  Dimension-one spaces keep their
    Eisenstein name as label; the weight-12 cuspidal element is Delta.
    """
    dim = dim_modular(k)
    if dim == 0:
        return ()
    if k == 0:
        return (BasisElement("1", GradedForm(QSeries.one(truncation), 0, 0)),)
    e4 = eisenstein(4, truncation).series
    e6 = eisenstein(6, truncation).series
    monomials = [
        e4 ** a * e6 ** ((k - 4 * a) // 6) for a in range(k // 4, -1, -1) if (k - 4 * a) % 6 == 0
    ]
    rows = list(zip(*(m.coefficients[:dim] for m in monomials)))
    out = []
    for j in range(dim):
        try:
            x = solve_exact(rows, [int(i == j) for i in range(dim)])
        except LinearSolveError as exc:
            raise InternalInconsistency(f"weight-{k} modular basis: {exc}") from exc
        series = sum((m.scale(c) for m, c in zip(monomials, x)), QSeries.zero(truncation))
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


@lru_cache(maxsize=None)
def graded_generators(k, truncation):
    """The full weight-k generator list: D^i of each M_{k-2i} basis, then E2."""
    if k < 2 or k % 2:
        raise ValueError(f"graded decomposition needs even weight >= 2, got {k}")
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
    depth bound must vanish.
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
    rows_needed = count + GUARD_ROWS  # highest coefficient index used
    if f.truncation < rows_needed:
        raise ValueError(
            f"truncation {f.truncation} too small: weight {k} needs coefficients 0..{rows_needed}"
        )
    gens = graded_generators(k, f.truncation)
    columns = [g.form.series.coefficients for _, g in gens]
    rows = [[columns[j][i] for j in range(count)] for i in range(rows_needed + 1)]
    rhs = [f.series.coefficient(i) for i in range(rows_needed + 1)]
    try:
        solution = solve_exact(rows, rhs)
    except InconsistentSystem as exc:
        raise NotInGradedSpace(
            f"not in the weight-{k} graded space: coefficient {exc.row} is inconsistent",
            index=exc.row,
        ) from exc
    # the guard: the solved combination must reproduce *every* known coefficient
    for i in range(f.truncation + 1):
        combined = sum((c * columns[j][i] for j, c in enumerate(solution)), Fraction(0))
        if combined != f.series.coefficient(i):
            raise NotInGradedSpace(
                f"not in the weight-{k} graded space: first mismatch at coefficient {i}",
                index=i,
            )
    for (depth, element), c in zip(gens, solution):
        if depth > s and c != 0:
            raise NotInGradedSpace(
                f"declared depth bound {s} violated: generator {element.label} "
                f"(depth {depth}) carries coordinate {c}"
            )
    coordinates = tuple((element.label, sol) for (_, element), sol in zip(gens, solution))
    return DecompositionRecord(weight=k, depth=s, coordinates=coordinates)


def recompose(record, truncation):
    """Rebuild the series from a decomposition record at the given truncation."""
    needed = generator_count(record.weight) + GUARD_ROWS
    truncation = max(truncation, needed)
    table = {
        element.label: element.form
        for _, element in graded_generators(record.weight, truncation)
    }
    total = QSeries.zero(truncation)
    for label, c in record.coordinates:
        if label not in table:
            raise LookupError(f"unknown basis label {label!r} in weight {record.weight}")
        if c != 0:
            total = total + table[label].series.scale(as_rational(c))
    return GradedForm(total, record.weight, record.depth)
