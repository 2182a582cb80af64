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

so the hot loop is big-int adds, multiplies and math.isqrt.  Rational
forms are pre-scaled by the lcm of their entry denominators; antipodal
pairs are collapsed by forcing the highest-index nonzero coordinate
positive during the walk and re-normalizing emitted vectors to the
first-nonzero-positive convention.

Asked for a set of norms (the shells an isometry search needs), the walk
runs to the largest of them and does not loop over x_0.  A vector of
scaled norm N has u_0^2 * w_0 = REM - (N_max - N) * P, so for each N it
solves for u_0 and keeps x_0 = (+-u_0 - t) / d_1 when u_0^2 is a whole
square and x_0 an integer.  Every vector of a wanted norm lies in the
ball of N_max and is reached there, and nothing else is emitted, so the
walk yields exactly the requested shells.  A walk that tries more than
_WALK_BUDGET points at x_0 raises ValueError instead of running on; the
points counted are those of the walk actually run, in the reduced basis.
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
    scaling, so every representable value lies on the grid and zero
    counts are reported rather than skipped.
    """

    bound: Fraction | int
    step: Fraction | int
    entries: tuple[tuple[Fraction | int, int], ...]

    def count_at(self, value) -> int:
        value = Fraction(value)
        if value < 0 or value > self.bound:
            raise ValueError(f"value {value} outside enumerated range")
        for t, c in self.entries:
            if t == value:
                return c
        return 0


_WALK_BUDGET = 2_000_000  # points one walk may try at coordinate 0


def _walk(q: GramForm, bound: Fraction, emit: Callable[[int, list[int]], None], values=None, mapped=True) -> int:
    """Run the pruned tree walk in the form's LLL-reduced basis, calling
    emit(scaled_norm, coords) once per antipodal pair of nonzero solutions
    of x^T q x <= bound; given values, a set of scaled norms, only for the
    solutions whose norm is one of them.  coords are x in the form's own
    basis, or with mapped=False the reduced coordinates y, x = h y.

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
    if mapped and h is not None:
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
    # u_0^2 * w_0 = rem - (total - N * p) for scaled norm N: with rem = a * w_0 + rho
    # and total - N * p = k * w_0 + c, u_0^2 = a - k exactly when rho == c
    solve: dict[int, list[tuple[int, int]]] | None = None if values is None else {}
    for N in sorted(values or (), reverse=True):
        k, c = divmod(total - N * p, w[0])
        solve.setdefault(c, []).append((N, k))
    tried = 0

    def rec(i: int, rem: int, leading: bool):
        nonlocal tried
        ui = urows[i]
        t = 0
        for j in range(i + 1, n):
            cj = coords[j]
            if cj:
                t += ui[j] * cj
        wi, di = w[i], d[i + 1]
        if i == 0 and solve is not None:
            # solve for u_0 at each wanted norm instead of looping over x_0
            tried += 1
            a, rho = divmod(rem, wi)
            for scaled, k in solve.get(rho, ()):
                if k > a:
                    break  # k grows as the norms fall: u_0^2 < 0 from here on
                u = isqrt(a - k)
                if u * u == a - k:
                    for root in (u, -u) if u else (0,):
                        x, r = divmod(root - t, di)
                        if not r and (x > 0 or not leading):
                            coords[0] = x
                            emit(scaled, coords)
            lo, hi = 1, 0  # nothing left to loop over
        else:
            r = isqrt(rem // wi)
            lo = -((r + t) // di)
            hi = (r - t) // di
            if leading and lo <= 0:
                lo = 0 if i else 1  # the zero vector is never emitted
            if i == 0:
                tried += hi - lo + 1
        if tried > _WALK_BUDGET:
            raise ValueError(f"enumeration budget exceeded: more than {_WALK_BUDGET} points tried")
        for x in range(lo, hi + 1):
            u = di * x + t
            coords[i] = x
            if i:
                rec(i - 1, rem - u * u * wi, leading and x == 0)
                continue
            scaled, r = divmod(total - rem + u * u * wi, p)
            if r:
                raise ArithmeticError("scaled norm is not a multiple of the elimination product")
            emit(scaled, coords)
        coords[i] = 0

    if cap >= 0:
        rec(n - 1, total, True)
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
    counts: dict[int, int] = {}

    def emit(scaled: int, coords: list[int]):
        counts[scaled] = counts.get(scaled, 0) + 2

    sq, s = _integer_rows(q.matrix)
    # gcd of the diagonal and doubled off-diagonal entries of s * q
    grid = gcd(*((1 if i == j else 2) * sq[i][j] for i in range(len(sq)) for j in range(i, len(sq))))
    cap = int(s * bound // 1)
    if grid and cap // grid > _WALK_BUDGET:
        raise ValueError(f"enumeration budget exceeded: {cap // grid} grid values up to {bound}, over {_WALK_BUDGET}")
    _walk(q, bound, emit, mapped=False)
    entries = ((_normalize(Fraction(k, s)), counts.get(k, 0)) for k in range(grid, cap + 1, grid))
    return RepSpectrum(bound=_normalize(bound), step=_normalize(Fraction(grid, s)), entries=((0, 1), *entries))


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
