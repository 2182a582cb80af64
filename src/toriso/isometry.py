"""Integral equivalence of positive-definite forms by exhaustive
column-candidate backtracking.

A unimodular U with U^T q1 U = q2 must send the j-th unit vector to some
x with x^T q1 x = (q2)_jj, so the candidate set for each column is a
finite exact-norm shell of q1.  Finiteness is certified separately: for
any positive lower bound L on the smallest eigenvalue of q1, every
candidate satisfies |x|^2 <= (q2)_jj / L, and those caps are reported in
the search statistics.  The search assigns columns in ascending order of
candidate-set size (fail first), fixes the sign of the first assigned
column (column sign flips act on solutions), and prunes on every exact
inner product against the already-assigned columns.  Exhaustion is
therefore a proof of inequivalence, and any returned witness is
re-verified against both defining equations before it leaves this
module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .enumeration import enumerate_up_to
from .lattices import GramForm
from .linalg import DimensionError, Mat, _normalize, det, eigenvalue_lower_bound


class SearchBudgetExceeded(RuntimeError):
    """Raised when the node budget runs out before the search finishes."""

    def __init__(self, message: str, stats: "SearchStats"):
        super().__init__(message)
        self.stats = stats


@dataclass(frozen=True)
class SearchStats:
    lambda_bound: Fraction | int | None
    caps: tuple[Fraction | int, ...]
    candidate_counts: tuple[int, ...]
    column_order: tuple[int, ...]
    nodes: int
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class EquivalenceWitness:
    matrix: Mat | None
    stats: SearchStats

    @property
    def found(self) -> bool:
        return self.matrix is not None


def norm_caps(q1: GramForm, q2: GramForm, lambda_bound) -> tuple[Fraction | int, ...]:
    """Per-column caps |x|^2 <= (q2)_jj / lambda_bound certifying that each
    candidate shell is finite."""
    lam = Fraction(lambda_bound)
    if lam <= 0:
        raise ValueError("lambda_bound must be positive")
    return tuple(_normalize(Fraction(q2.matrix.at(j, j)) / lam) for j in range(q2.dimension))


def _verify(q1: GramForm, q2: GramForm, b: Mat) -> None:
    if b.transpose() @ q1.matrix @ b != q2.matrix:
        raise ArithmeticError("witness does not carry q1 to q2")
    if abs(det(b)) != 1:
        raise ArithmeticError("witness is not unimodular")


def integral_equivalence(
    q1: GramForm,
    q2: GramForm,
    *,
    lambda_bound=None,
    node_budget: int | None = None,
) -> EquivalenceWitness:
    """Find a unimodular integer U with U^T q1 U = q2, or prove none exists.

    The returned witness carries the search statistics either way; a None
    matrix after a completed search is a certificate of inequivalence.
    lambda_bound may pass a known positive lower bound on the smallest
    eigenvalue of q1; otherwise one is certified internally to 1/1000.
    node_budget caps the number of candidate placements tried.
    """
    if q1.dimension != q2.dimension:
        raise DimensionError("forms of different dimension")
    if q1.dimension == 0:
        raise DimensionError("cannot search empty forms")
    n = q1.dimension

    if det(q1.matrix) != det(q2.matrix):
        stats = SearchStats(
            lambda_bound=None,
            caps=(),
            candidate_counts=(),
            column_order=(),
            nodes=0,
            notes=("determinants differ",),
        )
        return EquivalenceWitness(None, stats)

    lam = Fraction(lambda_bound) if lambda_bound is not None else eigenvalue_lower_bound(q1.matrix, Fraction(1, 1000))
    caps = norm_caps(q1, q2, lam)

    diag = [q2.matrix.at(j, j) for j in range(n)]
    needed = {Fraction(d) for d in diag}
    shells: dict[Fraction, list] = {}
    for coords, norm in enumerate_up_to(q1, max(diag)):
        key = Fraction(norm)
        if key in needed:
            shells.setdefault(key, []).append(coords)
    # Gram products are shared between columns with equal diagonal targets,
    # and computed in plain integers whenever the form is integral.
    rows = [tuple(_normalize(Fraction(q1.matrix.at(i, j))) for j in range(n)) for i in range(n)]
    pairs: dict[Fraction, list] = {
        key: [(v, tuple(sum(r * c for r, c in zip(row, v)) for row in rows)) for v in vecs]
        for key, vecs in shells.items()
    }
    buckets = [pairs.get(Fraction(diag[j]), []) for j in range(n)]

    order = sorted(range(n), key=lambda j: (len(buckets[j]), j))
    target = q2.matrix
    nodes = 0
    assigned: list[tuple[int, tuple, tuple, int]] = []  # (column, vec, q1*vec, sign)
    solution: list[Mat] = []

    def stats_now(notes=()) -> SearchStats:
        return SearchStats(
            lambda_bound=_normalize(lam),
            caps=caps,
            candidate_counts=tuple(len(buckets[j]) for j in range(n)),
            column_order=tuple(order),
            nodes=nodes,
            notes=tuple(notes),
        )

    def place(depth: int) -> bool:
        nonlocal nodes
        j = order[depth]
        signs = (1,) if depth == 0 else (1, -1)
        for v, qv in buckets[j]:
            for sign in signs:
                nodes += 1
                if node_budget is not None and nodes > node_budget:
                    raise SearchBudgetExceeded(f"node budget {node_budget} exhausted", stats_now(("budget exhausted",)))
                ok = True
                for i, u, qu, s_u in assigned:
                    ip = sum(a * b for a, b in zip(v, qu))
                    if sign * s_u * ip != target.at(j, i):
                        ok = False
                        break
                if not ok:
                    continue
                assigned.append((j, v, qv, sign))
                if depth + 1 == n:
                    cols = [None] * n
                    for i, u, _, s_u in assigned:
                        cols[i] = [s_u * x for x in u]
                    solution.append(Mat.from_columns(cols))
                    return True
                if place(depth + 1):
                    return True
                assigned.pop()
        return False

    found = place(0) if all(buckets[j] for j in range(n)) else False
    if found:
        b = solution[0]
        _verify(q1, q2, b)
        return EquivalenceWitness(b, stats_now())
    notes = () if all(buckets[j] for j in range(n)) else ("some required value is not represented",)
    return EquivalenceWitness(None, stats_now(notes))

