"""Test oracle for integral_equivalence: the ball-and-filter search it
replaced.

ball_shells enumerates the whole ball up to the largest wanted value with
enumerate_up_to and keeps the vectors whose norm is wanted, where the
library's _shells solves for the last coordinate at each wanted norm.
eager_integral_equivalence is the search as it stood before products
were made lazy: every shell vector gets its q1-product up front.  It
shares the backtracking order with the library, so equal SearchStats and
witnesses are evidence that the exact-shell walk and the lazy products
change nothing a caller sees.
"""

from fractions import Fraction

from toriso.enumeration import enumerate_up_to
from toriso.isometry import EquivalenceWitness, SearchBudgetExceeded, SearchStats, _verify, norm_caps
from toriso.linalg import Mat, _normalize, det, eigenvalue_lower_bound


def ball_shells(q, values):
    """{t: sorted coordinate vectors of norm t} for the wanted values t
    that q represents, filtered out of the ball up to the largest one."""
    needed = {Fraction(t) for t in values if Fraction(t) > 0}
    shells = {}
    if needed:
        for coords, norm in enumerate_up_to(q, max(needed)):
            if Fraction(norm) in needed:
                shells.setdefault(Fraction(norm), []).append(coords)
    return shells


def eager_integral_equivalence(q1, q2, *, lambda_bound=None, node_budget=None):
    n = q1.dimension
    if det(q1.matrix) != det(q2.matrix):
        return EquivalenceWitness(None, SearchStats(None, (), (), (), 0, ("determinants differ",)))
    lam = Fraction(lambda_bound) if lambda_bound is not None else eigenvalue_lower_bound(q1.matrix, Fraction(1, 1000))
    caps = norm_caps(q1, q2, lam)
    diag = [q2.matrix.at(j, j) for j in range(n)]
    shells = ball_shells(q1, diag)
    rows = [tuple(_normalize(Fraction(q1.matrix.at(i, j))) for j in range(n)) for i in range(n)]
    pairs = {
        key: [(v, tuple(sum(r * c for r, c in zip(row, v)) for row in rows)) for v in vecs]
        for key, vecs in shells.items()
    }
    buckets = [pairs.get(Fraction(diag[j]), []) for j in range(n)]
    order = sorted(range(n), key=lambda j: (len(buckets[j]), j))
    target = q2.matrix
    nodes = 0
    assigned = []
    solution = []

    def stats_now(notes=()):
        return SearchStats(
            _normalize(lam), caps, tuple(len(buckets[j]) for j in range(n)), tuple(order), nodes, tuple(notes)
        )

    def place(depth):
        nonlocal nodes
        j = order[depth]
        for v, qv in buckets[j]:
            for sign in (1,) if depth == 0 else (1, -1):
                nodes += 1
                if node_budget is not None and nodes > node_budget:
                    raise SearchBudgetExceeded(f"node budget {node_budget} exhausted", stats_now(("budget exhausted",)))
                if any(sign * s_u * sum(a * b for a, b in zip(v, qu)) != target.at(j, i) for i, _, qu, s_u in assigned):
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

    complete = all(buckets)
    if complete and place(0):
        _verify(q1, q2, solution[0])
        return EquivalenceWitness(solution[0], stats_now())
    return EquivalenceWitness(None, stats_now(() if complete else ("some required value is not represented",)))
