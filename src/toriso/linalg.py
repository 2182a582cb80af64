"""Exact rational matrices and the small linear-algebra kernel everything
else is built on.

Entries are Fraction; there is deliberately no float path.  Products,
inverses and eliminations clear their rational input to integer rows by
one common denominator (_integer_rows) and work in Python ints: products
sum integer rows and divide by the product of the two denominators once
per entry, and the inverse is a fraction-free Gauss-Jordan elimination
on [s*m | I].  Determinants, positive definiteness and the exact LDL^T
factors all come from one fraction-free Bareiss elimination (Bareiss,
Math. Comp. 22 (1968) 565-578), whose every division is exact.  Lattice
bases come from a column-style Hermite normal form.  A certified
eigenvalue lower bound L is one more positive-definiteness test:
lambda_min(q) > L exactly when q - L*I is positive definite, which
Sylvester's criterion decides on the same Bareiss elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Iterable, Sequence


class LinalgError(ValueError):
    pass


class DimensionError(LinalgError):
    """Operand dimensions do not fit the operation."""


class ShapeError(LinalgError):
    """Structural requirement (symmetry, integrality) violated."""


class RankError(LinalgError):
    """Input is rank-deficient where full rank is required."""


class NotPositiveDefiniteError(LinalgError):
    """A leading principal minor (a Bareiss pivot) failed to be positive."""


def _rat(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"matrix entries must be exact (int, Fraction, or 'a/b' string), got {type(x).__name__}")


@dataclass(frozen=True)
class Mat:
    """Immutable dense matrix with exact rational entries, row-major."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise DimensionError("negative dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise DimensionError("entry count does not match rows*cols")

    @staticmethod
    def from_rows(rows: Iterable[Iterable]) -> "Mat":
        rr = [[_rat(x) for x in row] for row in rows]
        n = len(rr)
        m = len(rr[0]) if rr else 0
        if any(len(r) != m for r in rr):
            raise DimensionError("ragged rows")
        return Mat(n, m, tuple(x for row in rr for x in row))

    @staticmethod
    def from_columns(cols: Iterable[Iterable]) -> "Mat":
        cc = [[_rat(x) for x in col] for col in cols]
        return Mat.from_rows(list(map(list, zip(*cc)))) if cc else Mat(0, 0, ())

    @staticmethod
    def identity(n: int) -> "Mat":
        one, zero = Fraction(1), Fraction(0)
        return Mat(n, n, tuple(one if i == j else zero for i in range(n) for j in range(n)))

    def at(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple[Fraction, ...]:
        return self.entries[j :: self.cols]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_symmetric(self) -> bool:
        return self.is_square and all(
            self.at(i, j) == self.at(j, i) for i in range(self.rows) for j in range(i + 1, self.cols)
        )

    def is_integral(self) -> bool:
        return all(x.denominator == 1 for x in self.entries)

    def transpose(self) -> "Mat":
        return Mat(self.cols, self.rows, tuple(x for j in range(self.cols) for x in self.entries[j :: self.cols]))

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise DimensionError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        a, sa = _integer_rows(self)
        bt, sb = _integer_rows(other.transpose())
        return Mat(self.rows, other.cols, _fractions((sum(map(mul, ra, cb)) for ra in a for cb in bt), sa * sb))

    def scaled(self, s) -> "Mat":
        s = _rat(s)
        return Mat(self.rows, self.cols, tuple(s * x for x in self.entries))

    def apply(self, v: Sequence) -> tuple[Fraction, ...]:
        """Matrix times column vector."""
        if len(v) != self.cols:
            raise DimensionError("vector length mismatch")
        a, sa = _integer_rows(self)
        (iv,), sv = _integer_rows(Mat(1, len(v), tuple(_rat(x) for x in v)))
        return _fractions((sum(map(mul, ra, iv)) for ra in a), sa * sv)

    def inverse(self) -> "Mat":
        """Fraction-free Gauss-Jordan on [s*m | I], first nonzero pivot: the
        right block ends as p * (s*m)^-1 for the last pivot p, so m^-1 is
        s * (right block) / p.  Columns left of a pivot are never read
        again and are not updated."""
        if not self.is_square:
            raise DimensionError("inverse of non-square matrix")
        n = self.rows
        a, s = _integer_rows(self)
        for i, row in enumerate(a):
            row.extend(int(i == j) for j in range(n))
        sign, prev = _pivoting_elimination(a, n, jordan=True)
        if not sign:
            raise RankError("matrix is singular")
        return Mat(n, n, _fractions((s * x for row in a for x in row[n:]), prev))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(min(self.rows, 4)))
        tail = " ..." if self.rows > 4 else ""
        return f"Mat({self.rows}x{self.cols}: {body}{tail})"


@dataclass(frozen=True)
class LdlFactor:
    """Exact factorization q = lower * diag * lower^T with unit lower diagonal."""

    lower: Mat
    diag: tuple[Fraction, ...]


def _normalize(x: Fraction):
    """An integral Fraction as int, anything else unchanged."""
    return int(x) if x.denominator == 1 else x


def _denominator_scale(entries: Iterable[Fraction]) -> int:
    """Least common multiple of the denominators of the entries."""
    return lcm(*(x.denominator for x in entries))


def _integer_rows(m: Mat) -> tuple[list[list[int]], int]:
    """Clear denominators: returns (rows of s * m, s), s least."""
    s = _denominator_scale(m.entries)
    return [[x.numerator * (s // x.denominator) for x in m.row(i)] for i in range(m.rows)], s


def _fractions(values: Iterable[int], d: int) -> tuple[Fraction, ...]:
    """Fraction(x, d) for each x; for d = 1 without the gcd."""
    return tuple(map(Fraction, values)) if d == 1 else tuple(Fraction(x, d) for x in values)


def _bareiss_step(a: list[list[int]], k: int, prev: int, rows: Iterable[int] | None = None) -> None:
    """Eliminate column k from the given rows, by default those below the
    pivot a[k][k], in place; prev is the previous pivot, by which every
    update divides exactly."""
    pk, rk = a[k][k], a[k]
    for i in range(k + 1, len(a)) if rows is None else rows:
        ri = a[i]
        aik = ri[k]
        for j in range(k + 1, len(rk)):
            ri[j] = (ri[j] * pk - aik * rk[j]) // prev
        ri[k] = 0


def _pivoting_elimination(a: list[list[int]], n: int, jordan: bool = False) -> tuple[int, int]:
    """Bareiss elimination of the first n columns of the integer rows a, in
    place, swapping up the first nonzero entry of each column as its
    pivot; jordan clears the rows above each pivot as well.  Returns
    (sign of the row permutation, last pivot), the pivot being the
    determinant of the permuted leading n x n block; sign is 0 when that
    block is singular."""
    sign, prev = 1, 1
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k]), None)
        if piv is None:
            return 0, 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        _bareiss_step(a, k, prev, [i for i in range(n) if i != k] if jordan else None)
        prev = a[k][k]
    return sign, prev


def det(m: Mat) -> Fraction:
    """Determinant by fraction-free Bareiss elimination."""
    if not m.is_square:
        raise DimensionError("determinant of non-square matrix")
    a, s = _integer_rows(m)
    sign, prev = _pivoting_elimination(a, m.rows)
    return Fraction(sign * prev, s**m.rows)


def fraction_free_upper(a: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Bareiss upper-triangular data for a symmetric integer matrix given
    as rows; the rows are overwritten.

    Returns (u, minors) where minors[i] is the i-th leading principal minor
    (minors[0] = 1) and u[i][j] for j >= i carries the fraction-free row
    entries, so the LDL^T factors are d_i = minors[i+1]/minors[i] and
    L[j][i] = u[i][j]/minors[i+1].  Raises NotPositiveDefiniteError as soon
    as a leading minor fails to be positive: this is the library's one
    exact positive-definiteness test.
    """
    minors = [1]
    for k in range(len(a)):
        # the pivot after k elimination steps equals the (k+1)-st leading minor
        if a[k][k] <= 0:
            raise NotPositiveDefiniteError(f"leading minor {k + 1} is not positive")
        _bareiss_step(a, k, minors[-1])
        minors.append(a[k][k])
    return a, minors


def _positive_definite_data(q: Mat) -> tuple[list[list[int]], list[int], int]:
    """(u, minors, s) of fraction_free_upper on the rows of s * q; raises
    unless q is symmetric positive definite."""
    if not q.is_symmetric():
        raise ShapeError("symmetric matrix required")
    rows, s = _integer_rows(q)
    u, minors = fraction_free_upper(rows)
    return u, minors, s


def ldl(q: Mat) -> LdlFactor:
    """Exact LDL^T factorization of a symmetric positive-definite matrix,
    read off the Bareiss data of the denominator-cleared matrix s * q:
    d_i = minors[i+1] / (minors[i] * s) and L[j][i] = u[i][j] / minors[i+1]."""
    if not q.is_square:
        raise DimensionError("ldl of non-square matrix")
    u, minors, s = _positive_definite_data(q)
    n = q.rows
    lower = [
        [Fraction(u[j][i], minors[j + 1]) if j < i else Fraction(int(i == j)) for j in range(n)]
        for i in range(n)
    ]
    diag = tuple(Fraction(minors[i + 1], minors[i] * s) for i in range(n))
    return LdlFactor(Mat.from_rows(lower), diag)


def _row_hnf_int(rows: list[list[int]]) -> list[list[int]]:
    """Row-style Hermite normal form over the integers.

    Output rows have strictly increasing pivot columns, positive pivots,
    zeros below each pivot, and entries above a pivot reduced into
    [0, pivot).  Canonical for the row lattice; zero rows are dropped.
    """
    work = [list(r) for r in rows if any(r)]
    ncols = len(rows[0]) if rows else 0
    out: list[list[int]] = []
    pivots: list[int] = []
    for col in range(ncols):
        active = [r for r in work if r[col] != 0]
        if not active:
            continue
        while len(active) > 1:
            active.sort(key=lambda r: abs(r[col]))
            base = active[0]
            for r in active[1:]:
                t = r[col] // base[col]
                if t:
                    for j in range(col, ncols):
                        r[j] -= t * base[j]
            active = [r for r in active if r[col] != 0]
        pivot_row = active[0]
        work.remove(pivot_row)
        work = [r for r in work if any(r)]
        if pivot_row[col] < 0:
            pivot_row = [-x for x in pivot_row]
        out.append(pivot_row)
        pivots.append(col)
    # reduce entries above each pivot
    for i in range(len(out)):
        p = out[i][pivots[i]]
        for j in range(i):
            t = out[j][pivots[i]] // p
            if t:
                for c in range(pivots[i], ncols):
                    out[j][c] -= t * out[i][c]
    return out


def hnf(m: Mat) -> Mat:
    """Column-style Hermite normal form of an integer matrix.

    The result has one column per pivot (rank many), generates the same
    column lattice as the input, and is the unique canonical basis of that
    lattice, so lattice equality is exactly hnf equality.
    """
    if not m.is_integral():
        raise ShapeError("hnf requires integer entries")
    rows_t = [[int(m.at(i, j)) for i in range(m.rows)] for j in range(m.cols)]
    reduced = _row_hnf_int(rows_t)
    if not reduced:
        return Mat(m.rows, 0, ())
    return Mat.from_rows(reduced).transpose()


def lattices_equal(a: Mat, b: Mat) -> bool:
    """Whether two matrices generate the same column lattice.

    Rational entries are allowed; both matrices are cleared by one common
    denominator first, which leaves the comparison unchanged.
    """
    s = _denominator_scale(a.entries + b.entries)
    return hnf(a.scaled(s)) == hnf(b.scaled(s))


def _lll(u: list[list[int]], d: list[int]) -> tuple[list[list[int]] | None, list[list[int]], list[int]]:
    """Integral LLL with Lovasz constant 3/4 (Cohen, GTM 138, Alg. 2.6.7)
    of an integer Gram matrix G, started from (u, d) =
    fraction_free_upper(G): lam[k][j] = u[j][k] is d[j+1] * mu_kj, so every
    update divides exactly, and the size reductions, in their order, and
    the swaps are those of Gram-Schmidt over Fraction (Cohen Alg. 2.6.3).
    Returns the columns h of the change of basis (None for the identity)
    and the final lam and d as fraction_free_upper(h^T G h); the inputs
    are left unchanged."""
    n = len(d) - 1
    lam = [[u[j][k] for j in range(k)] for k in range(n)]
    d = list(d)
    h = [[int(i == j) for i in range(n)] for j in range(n)]
    k = 1
    while k < n:
        lk = lam[k]
        for j in range(k - 1, -1, -1):
            dj = d[j + 1]
            if 2 * abs(lk[j]) > dj:
                # t = round(mu_kj), half to even as round() on a Fraction
                t, r = divmod(lk[j], dj)
                t += 2 * r > dj or (2 * r == dj and t % 2)
                h[k] = [x - t * y for x, y in zip(h[k], h[j])]
                lj = lam[j]
                for i in range(j):
                    lk[i] -= t * lj[i]
                lk[j] -= t * dj
        m = lk[k - 1]
        # Lovasz: B_k >= (3/4 - mu^2) B_{k-1}, times 4 d_k d_{k-1}
        if 4 * (d[k + 1] * d[k - 1] + m * m) >= 3 * d[k] * d[k]:
            k += 1
            continue
        h[k], h[k - 1] = h[k - 1], h[k]
        # rows k and k-1 trade their first k-1 entries; lam[k][k-1] stays
        lam[k - 1], lam[k] = lk[: k - 1], lam[k - 1] + [m]
        swapped = (d[k - 1] * d[k + 1] + m * m) // d[k]  # the new d_k
        for i in range(k + 1, n):
            li = lam[i]
            t = li[k]
            li[k] = (d[k + 1] * li[k - 1] - m * t) // d[k]
            li[k - 1] = (swapped * t + m * li[k]) // d[k + 1]
        d[k] = swapped
        k = max(k - 1, 1)
    rows = [[0] * j + [d[j + 1]] + [lam[k][j] for k in range(j + 1, n)] for j in range(n)]
    return (None if h == [[int(i == j) for i in range(n)] for j in range(n)] else h), rows, d


def _below_spectrum(sq: list[list[int]], s: int, mid: Fraction) -> bool:
    """Whether mid < lambda_min(q), given the rows sq of s * q (_integer_rows):
    Sylvester's criterion on q - mid*I, by the elimination
    (fraction_free_upper) that gates every form."""
    # with mid = a/b the integer rows of b*s*(q - mid*I) are b*(s*q) - a*s*I
    a, b = mid.numerator, mid.denominator
    rows = [[b * x for x in row] for row in sq]
    for i in range(len(rows)):
        rows[i][i] -= a * s
    try:
        fraction_free_upper(rows)
    except NotPositiveDefiniteError:
        return False
    return True


def eigenvalue_lower_bound(q: Mat, eps: Fraction) -> Fraction:
    """Certified rational lower bound for the smallest eigenvalue.

    Returns L with 0 < L <= lambda_min(q) and lambda_min(q) - L <= eps.
    Bisection starts from the smallest diagonal entry, which is an upper
    bound for lambda_min by the Rayleigh quotient of a unit vector, and
    keeps a midpoint as the lower end exactly when q - mid*I is positive
    definite.  The certificate for L is Sylvester's criterion: every
    leading principal minor of s*(q - L*I) is positive, checked by the
    same Bareiss elimination (fraction_free_upper) that gates every form.
    """
    eps = _rat(eps)
    if eps <= 0:
        raise LinalgError("eps must be positive")
    _positive_definite_data(q)  # raises unless q is positive definite
    sq, s = _integer_rows(q)
    lo = Fraction(0)
    hi = min(q.at(i, i) for i in range(q.rows))
    while lo == 0 or hi - lo > eps:
        mid = (lo + hi) / 2
        if _below_spectrum(sq, s, mid):
            lo = mid
        else:
            hi = mid
    return lo
