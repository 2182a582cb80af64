"""Exact lattice-point enumeration inside quadratic-form balls.

The walk runs in the form's LLL-reduced basis: GramForm._reduction holds
the change of basis H and the Bareiss data of H^T G H, the integral LLL's
final lambda and d.  Vectors are mapped back to x = H y before their sign
is fixed and they are sorted; counts need no mapping.  In integers end to
end, that data gives row vectors U[i] and minors d_0 = 1, ..., d_n with

    x^T G x = sum_i u_i^2 / (d_i * d_{i+1}),
    u_i     = d_{i+1} * x_i + sum_{j > i} U[i][j] * x_j,

every u_i an integer.  Multiplying the ball constraint through by
P = prod_i d_i d_{i+1} turns each level of the tree walk into

    u_i^2 * w_i <= REM,        w_i = P / (d_i * d_{i+1}),

and the levels above 1 are big-int adds, multiplies and math.isqrt.
Rational forms are pre-scaled by the lcm of their entry denominators;
antipodal pairs are collapsed by forcing the highest-index nonzero
coordinate positive during the walk and re-normalizing emitted vectors
to the first-nonzero-positive convention.

Levels 1 and 0 run as one loop in small integers.  As d_0 = 1,
w_0 = d_2 * w_1 and P = d_1 * d_2 * w_1.  Any integers x_1, x_0 complete
the coordinates above a level-1 visit to a vector whose scaled norm N has
REM = (cap - N) * P + u_1^2 * w_1 + u_0^2 * w_0, cap the scaled bound, so
REM is a multiple of w_1 and V = REM / w_1 - u_1^2 is what level 0 has
left: u_0^2 <= V // d_2.  U[0] is the first row of
the reduced Gram matrix, so along one x_0 run, t = sum_{j >= 1} U[0][j] x_j
being fixed, the scaled norm is the small-integer quadratic

    N(x_0) = N(0) + x_0 * (d_1 * x_0 + 2 t),   N(0) = cap - (V - d_2 t^2) / (d_1 d_2).

The walk checks that w_1 divides REM at each level-1 visit and that
d_1 d_2 divides V - d_2 t^2 once per run: every point of a run differs
from N(0) by an integer, so that is P dividing each point's scaled norm
as the big-int identity has it, and a broken reduction raises
ArithmeticError.  Counting (rep_spectrum) adds 2 at N // grid in a list
of grid values, with no coordinates and no call per point.

Asked for a set of norms (the shells an isometry search needs), the walk
runs to the largest of them and does not loop over x_0.  A vector of
scaled norm N has u_0^2 = V / d_2 - (cap - N) * d_1, so where d_2
divides V it solves for u_0 at each N and keeps x_0 = (+-u_0 - t) / d_1
when u_0^2 is a whole square and x_0 an integer.  Every vector of a
wanted norm lies in the ball of the largest and is reached there, and
nothing else is emitted, so the walk yields exactly the requested shells.

A walk that tries more than _WALK_BUDGET points at x_0 raises ValueError
instead of running on; the points counted are those of the walk actually
run, in the reduced basis, each level-1 visit of the shell walk counting
one.  The count is checked before each x_0 run is looped over, so a
single run past the budget is never walked.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Callable, Iterator, Sequence

from .linalg import DimensionError, Mat, _integer_rows, _normalize, _row_hnf_int
from .lattices import GramForm, Lattice, LatticeError, _reduced_gram, gram


def _canonical_sign(coords: Sequence) -> tuple:
    for c in coords:
        if c != 0:
            if c < 0:
                return tuple(-x for x in coords)
            return tuple(coords)
    return tuple(coords)


@dataclass(frozen=True)
class VectorList:
    """Vectors sharing one value of the ambient squared length."""

    norm: Fraction | int
    vectors: tuple[tuple, ...]

    def __len__(self) -> int:
        return len(self.vectors)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.vectors)


@dataclass(frozen=True)
class RepSpectrum:
    """Representation counts of a form on its full value grid.

    The grid step is the gcd of the diagonal and doubled off-diagonal
    entries (of the denominator-cleared form), divided back by that
    scaling, so every representable value lies on the grid.  counts[k]
    is the count at k * step, zero counts included, for every grid value
    up to bound.
    """

    bound: Fraction | int
    step: Fraction | int
    counts: tuple[int, ...]

    @property
    def entries(self) -> tuple[tuple[Fraction | int, int], ...]:
        """(value, count) for every grid value up to bound."""
        return tuple((_normalize(k * self.step), c) for k, c in enumerate(self.counts))

    def count_at(self, value) -> int:
        value = Fraction(value)
        if value < 0 or value > self.bound:
            raise ValueError(f"value {value} outside enumerated range")
        k, off_grid = divmod(value, self.step)
        return 0 if off_grid else self.counts[k]


_WALK_BUDGET = 2_000_000  # points one walk may try at coordinate 0


def _walk(q: GramForm, bound: Fraction, emit: Callable[[int, list[int]], None] | list[int], values=None, mapped=True, grid=1) -> int:
    """Run the pruned tree walk in the form's LLL-reduced basis, calling
    emit(scaled_norm, coords) once per antipodal pair of nonzero solutions
    of x^T q x <= bound; given values, a set of scaled norms, only for the
    solutions whose norm is one of them.  coords are x in the form's own
    basis, or with mapped=False the reduced coordinates y, x = h y.  Given
    a list for emit, the walk adds 2 at emit[scaled_norm // grid] instead.

    scaled_norm is the integer value against the denominator-cleared form
    s * q; returns s for the caller to map values back.  Raises ValueError
    once the walk has tried more than _WALK_BUDGET points at coordinate 0.
    """
    if q.dimension == 0:
        raise DimensionError("cannot enumerate an empty form")
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    # the Bareiss data of the reduced form h^T (s q) h, from the LLL's lambda and d
    h, (urows, d, s) = q._reduction
    n = q.dimension
    counts = emit if isinstance(emit, list) else None
    if mapped and h is not None and counts is None:
        # x = h y, summed over the nonzero entries of y and of h's columns
        columns, reduced_emit = [[(i, c) for i, c in enumerate(col) if c] for col in h], emit

        def emit(scaled: int, y: list[int]):
            x = [0] * n
            for yj, col in zip(y, columns):
                if yj:
                    for i, c in col:
                        x[i] += c * yj
            reduced_emit(scaled, x)

    p = 1
    for i in range(n):
        p *= d[i] * d[i + 1]
    w = [p // (d[i] * d[i + 1]) for i in range(n)]
    cap = int(s * bound // 1)  # floor of the scaled bound
    total = cap * p
    coords = [0] * n
    # levels 1 and 0 run as one loop in small integers (w_0 = d_2 * w_1); a
    # form of dimension 1 has the one level-1 point x_1 = 0, held in coords[0]
    # until the leaf sets x_0
    u0, d1 = urows[0], d[1]
    u1, u01, d2, w1 = (urows[1], urows[0][1], d[2], w[1]) if n > 1 else ((), 0, 1, w[0])
    d12 = d1 * d2
    # a vector of scaled norm N below has u_0^2 = v // d_2 - (cap - N) * d_1
    wanted = None if values is None else [(N, (cap - N) * d1) for N in sorted(values, reverse=True)]
    tried = 0

    def rec(i: int, rem: int, leading: bool):
        nonlocal tried
        if i > 1:
            ui = urows[i]
            t = 0
            for j in range(i + 1, n):
                cj = coords[j]
                if cj:
                    t += ui[j] * cj
            wi, di = w[i], d[i + 1]
            r = isqrt(rem // wi)
            lo = -((r + t) // di)
            hi = (r - t) // di
            if leading and lo <= 0:
                lo = 0
            for x in range(lo, hi + 1):
                u = di * x + t
                coords[i] = x
                rec(i - 1, rem - u * u * wi, leading and x == 0)
            coords[i] = 0
            return
        # rem = total - N * p + u_1^2 * w_1 + u_0^2 * w_0 for any x_0, x_1: a multiple of w_1
        a1, r = divmod(rem, w1)
        if r:
            raise ArithmeticError("scaled norm is not a multiple of the elimination product")
        t0 = t1 = 0
        for j in range(2, n):
            cj = coords[j]
            if cj:
                t0 += u0[j] * cj
                t1 += u1[j] * cj
        lo1 = hi1 = 0
        if i:
            r = isqrt(a1)
            lo1 = -((r + t1) // d2)
            hi1 = (r - t1) // d2
            if leading and lo1 <= 0:
                lo1 = 0
        u = d2 * lo1 + t1  # u_1, and t0 = sum_{j >= 1} U[0][j] * x_j, both stepped with x_1
        t0 += u01 * lo1
        for x1 in range(lo1, hi1 + 1):
            coords[i] = x1
            v = a1 - u * u  # what is left of rem for level 0, over w_1
            u += d2
            if wanted is not None:
                # solve for u_0 at each wanted norm instead of looping over x_0
                tried += 1
                if tried > _WALK_BUDGET:
                    raise ValueError(f"enumeration budget exceeded: more than {_WALK_BUDGET} points tried")
                a, r = divmod(v, d2)
                if not r:
                    for scaled, k in wanted:
                        if k > a:
                            break  # k grows as the norms fall: u_0^2 < 0 from here on
                        u0abs = isqrt(a - k)
                        if u0abs * u0abs == a - k:
                            for root in (u0abs, -u0abs) if u0abs else (0,):
                                x, r = divmod(root - t0, d1)
                                if not r and (x > 0 or x1 or not leading):
                                    coords[0] = x
                                    emit(scaled, coords)
                t0 += u01
                continue
            r = isqrt(v // d2)
            lo = -((r + t0) // d1)
            hi = (r - t0) // d1
            if leading and not x1 and lo <= 0:
                lo = 1  # the zero vector is never emitted
            tried += hi - lo + 1
            if tried > _WALK_BUDGET:
                raise ValueError(f"enumeration budget exceeded: more than {_WALK_BUDGET} points tried")
            if lo <= hi:
                # N(x_0) = N(0) + x_0 * (d_1 * x_0 + 2 t0): one remainder per run
                k, r = divmod(v - d2 * t0 * t0, d12)
                if r:
                    raise ArithmeticError("scaled norm is not a multiple of the elimination product")
                base, t2 = cap - k, 2 * t0
                if counts is not None:
                    for x in range(lo, hi + 1):
                        counts[(base + x * (d1 * x + t2)) // grid] += 2
                else:
                    for x in range(lo, hi + 1):
                        coords[0] = x
                        emit(base + x * (d1 * x + t2), coords)
            t0 += u01
        coords[i] = coords[0] = 0

    try:
        if cap >= 0:
            rec(n - 1, total, True)
    finally:
        rec = None  # rec holds itself through its closure; the walk's state must not wait for the cyclic GC
    return s


def _shells(q: GramForm, values) -> dict[Fraction, list[tuple[int, ...]]]:
    """The exact-norm shells {t: coordinate vectors x with x^T q x = t} of
    those values t that q represents, one vector per antipodal pair (first
    nonzero coordinate positive), each shell sorted."""
    s = q._elimination[2]
    wanted = {int(t * s): t for t in map(Fraction, values) if t > 0 and (t * s).denominator == 1}
    found: dict[int, list] = {}

    def emit(scaled: int, coords: list[int]):
        found.setdefault(scaled, []).append(_canonical_sign(coords))

    if wanted:
        _walk(q, max(wanted.values()), emit, wanted)
    return {wanted[k]: sorted(vecs) for k, vecs in found.items()}


def enumerate_up_to(q: GramForm, bound) -> list[tuple[tuple[int, ...], Fraction | int]]:
    """All nonzero coordinate vectors with x^T q x <= bound, one
    representative per antipodal pair (first nonzero coordinate positive),
    sorted by norm then coordinates."""
    bound = Fraction(bound)
    found: list[tuple[tuple[int, ...], int]] = []

    def emit(scaled: int, coords: list[int]):
        found.append((_canonical_sign(coords), scaled))

    s = _walk(q, bound, emit)
    return sorted(((c, _normalize(Fraction(scaled, s))) for c, scaled in found), key=lambda item: (item[1], item[0]))


def rep_spectrum(q: GramForm, bound) -> RepSpectrum:
    """Counts of x with x^T q x = t for every grid value t <= bound.

    Both signs of each nonzero vector are counted, and t = 0 always
    counts the zero vector once.  Raises ValueError when the grid alone
    would hold more than _WALK_BUDGET values."""
    bound = Fraction(bound)
    sq, s = _integer_rows(q.matrix)
    # gcd of the diagonal and doubled off-diagonal entries of s * q
    grid = gcd(*((1 if i == j else 2) * sq[i][j] for i in range(len(sq)) for j in range(i, len(sq))))
    cap = int(s * bound // 1)
    if grid and cap // grid > _WALK_BUDGET:
        raise ValueError(f"enumeration budget exceeded: {cap // grid} grid values up to {bound}, over {_WALK_BUDGET}")
    counts = [0] * (cap // (grid or 1) + 1)  # grid is 0 only for the empty form, which _walk refuses
    _walk(q, bound, counts, grid=grid)
    counts[0] = 1  # the zero vector
    return RepSpectrum(bound=_normalize(bound), step=_normalize(Fraction(grid, s)), counts=tuple(counts))


def _ambient_candidates(l: Lattice, pick: Callable):
    """Enumerate lattice vectors as (ambient vector, norm, coordinates),
    walking gram(l) in its LLL-reduced basis up to the bound pick(diagonal
    of the reduced Gram matrix): min reaches every minimal vector, since
    each reduced basis vector is a lattice vector; max reaches a full-rank
    vector set.  The coordinates are the integer ones in l's basis."""
    q = gram(l)
    reduced = _reduced_gram(q)[1]
    bound = pick(reduced.at(i, i) for i in range(q.dimension))
    out = [(_to_ambient(l.basis, c), norm, c) for c, norm in enumerate_up_to(q, bound)]
    out.sort(key=lambda item: (item[1], _lead_index(item[0]), item[0]))
    return out


def _to_ambient(basis: Mat, coords: Sequence) -> tuple:
    """The lattice vector with these coordinates, first nonzero entry
    positive, integral entries as int."""
    return tuple(_normalize(x) for x in _canonical_sign(basis.apply(coords)))


def _lead_index(v: Sequence) -> int:
    for i, x in enumerate(v):
        if x != 0:
            return i
    return len(v)


def shortest_vectors(l: Lattice) -> VectorList:
    """Minimal-norm nonzero vectors in ambient coordinates, one per
    antipodal pair."""
    if l.dimension == 0:
        raise LatticeError("empty lattice has no nonzero vectors")
    cands = _ambient_candidates(l, min)
    m = cands[0][1]
    vecs = tuple(v for v, norm, _ in cands if norm == m)
    return VectorList(norm=m, vectors=vecs)


def independent_ladder(l: Lattice, count: int) -> tuple[VectorList, ...]:
    """Greedy norm ladder: stage k holds the minimal-norm vectors that
    extend the span of the previous stages by one dimension, restricted to
    the single rank-one extension the first such vector selects.

    Vectors of the same norm that head off into a different extension are
    left for a later stage, so each stage is one norm value and one new
    direction.  Ties inside a stage keep every vector that lands in the
    chosen extension.  Spans are tracked on the integer coordinates in l's
    basis, where a rank is the length of a Hermite normal form; span
    membership does not depend on the basis.
    """
    if l.dimension == 0:
        raise LatticeError("empty lattice has no ladder")
    if not 1 <= count <= l.dimension:
        raise LatticeError(f"count must be in 1..{l.dimension}")
    cands = _ambient_candidates(l, max)
    span: list[list[int]] = []  # Hermite rows of the chosen heads
    stages: list[VectorList] = []
    for rank in range(count):
        outside = [(v, norm, c) for v, norm, c in cands if len(_row_hnf_int(span + [c])) > rank]
        _, m, head = outside[0]
        probe = _row_hnf_int(span + [head])
        members = tuple(v for v, norm, c in outside if norm == m and len(_row_hnf_int(probe + [c])) == rank + 1)
        stages.append(VectorList(norm=m, vectors=members))
        span = probe
    return tuple(stages)
