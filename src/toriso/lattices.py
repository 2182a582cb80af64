"""Full-rank lattices with exact rational bases, their Gram forms, and the
handful of form-level helpers (dual, doubling, evenness, level, sums,
scaled families) shared by the spectral and search layers.

Convention used repo-wide: the columns of a basis matrix generate the
lattice, so gram(L) = B^T B and the bundled bases reproduce their printed
Gram matrices entry for entry.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Sequence

from .linalg import (
    DimensionError,
    Mat,
    RankError,
    ShapeError,
    _integer_rows,
    _lll,
    _positive_definite_data,
    det,
)


class LatticeError(ValueError):
    pass


@dataclass(frozen=True)
class Lattice:
    """Full-rank lattice; basis columns generate it.  A 0x0 basis is the
    empty lattice, admitted as the identity of direct sums."""

    basis: Mat

    def __post_init__(self):
        if not self.basis.is_square:
            raise DimensionError("lattice basis must be square (full rank)")
        if det(self.basis) == 0:
            raise RankError("lattice basis is singular")

    @property
    def dimension(self) -> int:
        return self.basis.rows


@dataclass(frozen=True)
class GramForm:
    """Symmetric positive-definite matrix of inner products.

    The Bareiss data (u, minors, s) of the positive-definiteness gate is
    kept, and _reduction starts the integral LLL from it, so no form is
    eliminated twice."""

    matrix: Mat
    _elimination: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not self.matrix.is_symmetric():
            raise ShapeError("Gram matrix must be symmetric")
        # raises NotPositiveDefiniteError otherwise
        object.__setattr__(self, "_elimination", _positive_definite_data(self.matrix))

    @cached_property
    def _reduction(self) -> tuple:
        """(h, (u, minors, s)): the change of basis h of the form's LLL
        reduction (_lll) and the Bareiss data of h^T (s q) h."""
        u, minors, s = self._elimination
        h, u, minors = _lll(u, minors)
        return h, (u, minors, s)

    @property
    def dimension(self) -> int:
        return self.matrix.rows


def _reduced_gram(q: GramForm) -> tuple[Mat, Mat]:
    """q's LLL change of basis h as a Mat, the identity when _reduction
    finds none, and the reduced Gram matrix h^T q h."""
    h = q._reduction[0]
    h = Mat.identity(q.dimension) if h is None else Mat.from_columns(h)
    return h, h.transpose() @ q.matrix @ h


def _form_det(q: GramForm) -> Fraction:
    """det q from the gate's elimination of s * q: minors[n] / s^n."""
    _, minors, s = q._elimination
    return Fraction(minors[-1], s**q.dimension)


def gram(l: Lattice) -> GramForm:
    return GramForm(l.basis.transpose() @ l.basis)


def dual(l: Lattice) -> Lattice:
    """Dual lattice, spanned by the inverse-transpose basis."""
    return Lattice(l.basis.inverse().transpose())


def double_form(q: GramForm) -> GramForm:
    return GramForm(q.matrix.scaled(2))


def is_even(q: GramForm) -> bool:
    """Integral with even diagonal, so all represented values are even."""
    m = q.matrix
    return m.is_integral() and all(m.at(i, i) % 2 == 0 for i in range(m.rows))


def level(q: GramForm) -> int:
    """Least N > 0 such that N * q^{-1} is integral with even diagonal."""
    return _level(q.matrix)


def _level(m: Mat) -> int:
    """level of the form with Gram matrix m, which need not be built.

    Computed exactly: N must be a multiple of the lcm d of the entry
    denominators of m^{-1}, and d itself works unless some scaled diagonal
    entry stays odd, in which case 2d is forced.
    """
    if not m.is_integral():
        raise ShapeError("level requires an integral form")
    rows, d = _integer_rows(m.inverse())
    return d if all(rows[i][i] % 2 == 0 for i in range(m.rows)) else 2 * d


def _block_diag(a: Mat, b: Mat) -> Mat:
    n, m = a.rows, b.rows
    rows = []
    for i in range(n):
        rows.append(list(a.row(i)) + [Fraction(0)] * m)
    for i in range(m):
        rows.append([Fraction(0)] * n + list(b.row(i)))
    return Mat.from_rows(rows)


def direct_sum(a: Lattice, b: Lattice) -> Lattice:
    return Lattice(_block_diag(a.basis, b.basis))


def scale(l: Lattice, factor) -> Lattice:
    factor = Fraction(factor)
    if factor == 0:
        raise LatticeError("scale factor must be nonzero")
    return Lattice(l.basis.scaled(factor))


def choir_family(lats: Sequence[Lattice], copies: int) -> list[Lattice]:
    """All direct sums of `copies` slots, slot j scaled by j (1-based),
    with each slot filled by any of the given lattices.

    For k inputs this yields k**copies lattices in lexicographic order of
    the index tuples.  With pairwise isospectral inputs the outputs are
    isospectral in each fixed slot pattern, which is the scaled-sum route
    to larger families.
    """
    if copies < 1:
        raise LatticeError("copies must be at least 1")
    if not lats:
        raise LatticeError("need at least one lattice")
    out: list[Lattice] = []
    for choice in itertools.product(lats, repeat=copies):
        acc = Lattice(Mat(0, 0, ()))
        for slot, lat in enumerate(choice, start=1):
            acc = direct_sum(acc, scale(lat, slot))
        out.append(acc)
    return out
