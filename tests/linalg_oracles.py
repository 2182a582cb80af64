"""Test oracles for linalg and enumeration: the Fraction matrix product,
matrix-vector product and Gauss-Jordan inverse, the Sturm eigenvalue
bound, the recompute-everything LLL and the Fraction rank ladder that the
library replaced, and a brute-force box scan of a quadratic-form ball.

fraction_matmul, fraction_apply and fraction_inverse work entry by entry
over Fraction, with no denominator clearing, where Mat's kernels take
integer rows and a fraction-free Gauss-Jordan; equal entries are evidence
that the clearing and the exact divisions lose nothing.

sturm_lower_bound decides each bisection step by counting the roots of
the characteristic polynomial in (0, mid] with a Sturm chain; it shares no
code with the library's Bareiss positive-definiteness test, so equal
bounds are evidence that both decide "lambda_min(q) > mid" alike.
recompute_lll runs the same reductions and swaps as the integral LLL of
the basis's Gram form (linalg._lll) but rebuilds the whole Fraction
Gram-Schmidt data after each of them, so equal bases are evidence that
the integral lambda/d updates are exact.
fraction_ladder tracks spans by Fraction Gauss-Jordan rows over the
ambient vectors, where independent_ladder takes Hermite-form ranks of
integer coordinates.  box_oracle scans every coordinate vector of a
box that contains the ball, with no elimination at all.
"""

import itertools
from fractions import Fraction
from math import isqrt

from toriso.enumeration import VectorList, _ambient_candidates
from toriso.linalg import DimensionError, Mat, RankError, _positive_definite_data


def fraction_matmul(a, b):
    """a @ b with every entry summed over Fraction."""
    if a.cols != b.rows:
        raise DimensionError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    out = []
    for i in range(a.rows):
        ra = a.row(i)
        for j in range(b.cols):
            out.append(sum((x * y for x, y in zip(ra, b.column(j))), Fraction(0)))
    return Mat(a.rows, b.cols, tuple(out))


def fraction_apply(m, v):
    """m times the column vector v, over Fraction."""
    if len(v) != m.cols:
        raise DimensionError("vector length mismatch")
    vv = [Fraction(x) for x in v]
    return tuple(sum((a * b for a, b in zip(m.row(i), vv)), Fraction(0)) for i in range(m.rows))


def fraction_inverse(m):
    """Gauss-Jordan inverse over Fraction, first nonzero pivot."""
    if not m.is_square:
        raise DimensionError("inverse of non-square matrix")
    n = m.rows
    a = [list(m.row(i)) + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise RankError("matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return Mat(n, n, tuple(x for row in a for x in row[n:]))


def char_poly(m):
    """Characteristic polynomial det(xI - m), coefficients leading-first.

    Faddeev-LeVerrier recursion; the only divisions are by 1..n and exact.
    """
    if not m.is_square:
        raise DimensionError("char_poly of non-square matrix")
    n = m.rows
    coeffs = [Fraction(1)]
    mk = Mat.identity(n)
    for k in range(1, n + 1):
        mk = m @ mk
        trace = sum((mk.at(i, i) for i in range(n)), Fraction(0))
        ck = -trace / k
        coeffs.append(ck)
        if k < n:
            mk = Mat(n, n, tuple(x + ck if i % (n + 1) == 0 else x for i, x in enumerate(mk.entries)))
    return tuple(coeffs)


def poly_eval(coeffs, x):
    acc = Fraction(0)
    for c in coeffs:
        acc = acc * x + c
    return acc


def _poly_rem(num, den):
    num = list(num)
    while len(num) >= len(den) and any(num):
        if num[0] == 0:
            num.pop(0)
            continue
        f = num[0] / den[0]
        for i in range(len(den)):
            num[i] -= f * den[i]
        num.pop(0)
    while num and num[0] == 0:
        num.pop(0)
    return num


def sturm_chain(coeffs):
    p0 = [Fraction(c) for c in coeffs]
    n = len(p0) - 1
    p1 = [c * (n - i) for i, c in enumerate(p0[:-1])]
    chain = [p0, p1]
    while any(chain[-1]):
        r = _poly_rem(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-c for c in r])
    return chain


def sign_variations(chain, x):
    signs = []
    for p in chain:
        v = poly_eval(p, x)
        if v != 0:
            signs.append(v > 0)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots_in(coeffs, a, b):
    """Number of distinct real roots in the half-open interval (a, b]."""
    chain = sturm_chain(coeffs)
    return sign_variations(chain, a) - sign_variations(chain, b)


def sturm_lower_bound(q, eps):
    """eigenvalue_lower_bound with each step decided by a Sturm count."""
    eps = Fraction(eps)
    _positive_definite_data(q)  # raises unless q is positive definite
    p = char_poly(q)
    chain = sturm_chain(p)
    lo = Fraction(0)
    hi = min(q.at(i, i) for i in range(q.rows))
    v0 = sign_variations(chain, lo)
    while lo == 0 or hi - lo > eps:
        mid = (lo + hi) / 2
        if poly_eval(p, mid) == 0 or v0 - sign_variations(chain, mid) > 0:
            hi = mid
        else:
            lo = mid
    return lo


def recompute_lll(basis):
    """LLL with delta = 3/4 of the basis columns, recomputing Gram-Schmidt
    after every change of basis."""
    b = [list(basis.column(j)) for j in range(basis.cols)]
    n = len(b)

    def dot(u, v):
        return sum((x * y for x, y in zip(u, v)), Fraction(0))

    def gram_schmidt():
        star = []
        mu = [[Fraction(0)] * n for _ in range(n)]
        norms = []
        for i in range(n):
            v = list(b[i])
            for j in range(i):
                mu[i][j] = dot(b[i], star[j]) / norms[j]
                v = [x - mu[i][j] * y for x, y in zip(v, star[j])]
            star.append(v)
            norms.append(dot(v, v))
            if norms[i] == 0:
                raise RankError("basis is rank-deficient")
        return mu, norms

    if n == 0:
        return basis
    mu, norms = gram_schmidt()
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            if abs(mu[k][j]) > Fraction(1, 2):
                t = round(mu[k][j])
                b[k] = [x - t * y for x, y in zip(b[k], b[j])]
                mu, norms = gram_schmidt()
        if norms[k] >= (Fraction(3, 4) - mu[k][k - 1] * mu[k][k - 1]) * norms[k - 1]:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            mu, norms = gram_schmidt()
            k = max(k - 1, 1)
    return Mat.from_columns(b)


class SpanTracker:
    """Incremental exact rank tracking via reduced row echelon rows."""

    def __init__(self):
        self.rows: list[list[Fraction]] = []
        self._pivots: list[int] = []

    def _residue(self, v):
        v = [Fraction(x) for x in v]
        for row, p in zip(self.rows, self._pivots):
            c = v[p]
            if c != 0:
                v = [a - c * b for a, b in zip(v, row)]
        return v

    def contains(self, v) -> bool:
        return all(x == 0 for x in self._residue(v))

    def add(self, v) -> bool:
        res = self._residue(v)
        pivot = next((i for i, x in enumerate(res) if x != 0), None)
        if pivot is None:
            return False
        inv = 1 / res[pivot]
        res = [x * inv for x in res]
        for row in self.rows:
            c = row[pivot]
            if c != 0:
                row[:] = [a - c * b for a, b in zip(row, res)]
        at = next((k for k, p in enumerate(self._pivots) if p > pivot), len(self._pivots))
        self.rows.insert(at, res)
        self._pivots.insert(at, pivot)
        return True


def fraction_ladder(l, count):
    """independent_ladder with each span kept as Fraction echelon rows of
    ambient vectors."""
    cands = [(v, norm) for v, norm, _ in _ambient_candidates(l, max)]
    span = SpanTracker()
    stages = []
    for _ in range(count):
        outside = [(v, norm) for v, norm in cands if not span.contains(v)]
        m = outside[0][1]
        ties = [v for v, norm in outside if norm == m]
        head = ties[0]
        probe = SpanTracker()
        for row in span.rows:
            probe.add(row)
        probe.add(head)
        stages.append(VectorList(norm=m, vectors=tuple(v for v in ties if probe.contains(v))))
        span.add(head)
    return tuple(stages)


def fraction_shortest_vectors(l):
    """The minimal-norm vectors among the ladder's full-rank candidates."""
    cands = _ambient_candidates(l, max)
    m = cands[0][1]
    return VectorList(norm=m, vectors=tuple(v for v, norm, _ in cands if norm == m))


def box_oracle(q: Mat, bound: Fraction) -> dict[tuple[int, ...], Fraction]:
    """Brute-force reference: scan the coordinate box |x_i|^2 <= C * (q^-1)_ii
    that contains the ball, one canonical representative per +- pair."""
    n = q.rows
    inv = q.inverse()
    lims = [isqrt(int(bound * inv.at(i, i))) for i in range(n)]
    out: dict[tuple[int, ...], Fraction] = {}
    for x in itertools.product(*[range(-l, l + 1) for l in lims]):
        if all(c == 0 for c in x):
            continue
        qx = q.apply(x)
        norm = sum((Fraction(a) * b for a, b in zip(x, qx)), Fraction(0))
        if norm > bound:
            continue
        canon = x
        for c in x:
            if c != 0:
                if c < 0:
                    canon = tuple(-y for y in x)
                break
        out[canon] = norm
    return out
