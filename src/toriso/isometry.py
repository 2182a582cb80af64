"""Integral equivalence of positive-definite forms by exhaustive
column-candidate backtracking.

A unimodular U with U^T q1 U = q2 must send the j-th unit vector to some
x with x^T q1 x = (q2)_jj, so the candidate set for each column is a
finite exact-norm shell of q1.  Finiteness is certified separately: for
any positive L strictly below the smallest eigenvalue of q1, every
candidate satisfies |x|^2 <= (q2)_jj / L, and those caps are reported in
the search statistics.  The search assigns columns in ascending order of
candidate-set size (fail first), fixes the sign of the first assigned
column (column sign flips act on solutions), and prunes on every exact
inner product against the already-assigned columns.  Exhaustion is
therefore a proof of inequivalence, and any returned witness is
re-verified against both defining equations before it leaves this
module.  The shells come from the exact-shell walk (enumeration._shells),
and the q1-product of a candidate is computed when it is first assigned,
then cached, so candidates the search never places cost no product.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .enumeration import _shells, enumerate_up_to  # noqa: F401 (bench/test_bench.py traces this binding)
from .lattices import GramForm, _form_det
from .linalg import DimensionError, Mat, _below_spectrum, _integer_rows, _normalize, det, eigenvalue_lower_bound


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
    lambda_bound may pass a positive bound strictly below the smallest
    eigenvalue of q1.  Only the caps rest on it, the shells being exact, so
    a bound not below it is searched too, with a note that the caps certify
    nothing.  Without it one is certified internally to 1/1000.
    node_budget caps the number of candidate placements tried.
    """
    if q1.dimension != q2.dimension:
        raise DimensionError("forms of different dimension")
    if q1.dimension == 0:
        raise DimensionError("cannot search empty forms")
    n = q1.dimension

    if _form_det(q1) != _form_det(q2):
        return EquivalenceWitness(None, SearchStats(None, (), (), (), 0, ("determinants differ",)))

    lam = Fraction(lambda_bound) if lambda_bound is not None else eigenvalue_lower_bound(q1.matrix, Fraction(1, 1000))
    caps = norm_caps(q1, q2, lam)
    sound = lambda_bound is None or _below_spectrum(*_integer_rows(q1.matrix), lam)
    lam_notes = () if sound else ("lambda_bound is not below the smallest eigenvalue of q1, so the caps certify nothing",)

    diag = [q2.matrix.at(j, j) for j in range(n)]
    shells = _shells(q1, diag)
    buckets = [shells.get(diag[j], []) for j in range(n)]
    # q1 * v is computed when v is first assigned and cached for every
    # column with that diagonal target, in plain integers when q1 is integral,
    # and pruned against q2's entries read the same way
    rows, target = ([tuple(_normalize(Fraction(q.matrix.at(i, j))) for j in range(n)) for i in range(n)] for q in (q1, q2))
    products: dict[tuple, tuple] = {}

    order = sorted(range(n), key=lambda j: (len(buckets[j]), j))
    nodes = 0
    assigned: list[tuple[int, tuple, tuple, int]] = []  # (column, vec, q1*vec, sign)

    def stats_now(notes=()) -> SearchStats:
        return SearchStats(_normalize(lam), caps, tuple(map(len, buckets)), tuple(order), nodes, lam_notes + tuple(notes))

    def place(depth: int) -> bool:
        nonlocal nodes
        j = order[depth]
        signs = (1,) if depth == 0 else (1, -1)
        for v in buckets[j]:
            for sign in signs:
                nodes += 1
                if node_budget is not None and nodes > node_budget:
                    raise SearchBudgetExceeded(f"node budget {node_budget} exhausted", stats_now(("budget exhausted",)))
                if any(sign * s_u * sum(map(mul, v, qu)) != target[j][i] for i, _, qu, s_u in assigned):
                    continue
                if v not in products:
                    products[v] = tuple(sum(map(mul, row, v)) for row in rows)
                assigned.append((j, v, products[v], sign))
                if depth + 1 == n or place(depth + 1):
                    return True
                assigned.pop()
        return False

    complete = all(buckets)
    if complete and place(0):
        # the column indices are distinct, so sorting orders by column alone
        witness = Mat.from_columns([s_u * x for x in u] for _, u, _, s_u in sorted(assigned))
        _verify(q1, q2, witness)
        return EquivalenceWitness(witness, stats_now())
    return EquivalenceWitness(None, stats_now(() if complete else ("some required value is not represented",)))

