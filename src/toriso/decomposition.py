"""Orthogonal decomposition of positive-definite forms and lattices.

Every nonzero lattice vector is a sum of indecomposable ones of strictly
smaller norm, and any orthogonal splitting of the lattice must keep each
indecomposable vector on one side and connected pairs (nonzero inner
product) on the same side.  The connected classes of indecomposable
vectors therefore generate the finest orthogonal decomposition.  The
search below enumerates the ball up to the maximal diagonal entry (large
enough for the basis vectors, hence a generating set, to split into
indecomposables inside it), filters decomposables by the exact test

    v decomposable  iff  exists x with 0 < |x|^2 < |v|^2 and
                         |<x, v>| >= |x|^2,

where it suffices to let x range over shorter indecomposables (both
sides scaled by the form's denominator scale s and taken in integers
against s * q), and then
certifies the result: the surviving vectors must generate the full
coordinate lattice, component ranks must sum to the dimension, and the
component bases must be pairwise orthogonal.  A certificate failure
raises instead of returning a wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .enumeration import _to_ambient, enumerate_up_to
from .lattices import GramForm, Lattice
from .linalg import DimensionError, Mat, _integer_rows, hnf, lattices_equal, lll_reduce


class DecompositionError(RuntimeError):
    """An internal certificate failed; the decomposition cannot be trusted."""


@dataclass(frozen=True)
class Component:
    """One orthogonal summand: its indecomposable vectors (one per
    antipodal pair) and a basis of the sublattice they generate."""

    vectors: tuple[tuple, ...]
    rank: int
    basis: Mat


@dataclass(frozen=True)
class Decomposition:
    components: tuple[Component, ...]
    enumeration_bound: Fraction | int

    @property
    def is_irreducible(self) -> bool:
        return len(self.components) == 1


def decompose_form(q: GramForm) -> Decomposition:
    """Finest orthogonal decomposition of the coordinate lattice under q."""
    n = q.dimension
    if n == 0:
        raise DimensionError("cannot decompose an empty form")
    bound = max(q.matrix.at(i, i) for i in range(n))
    qm = q.matrix
    sq, s = _integer_rows(qm)
    indec: list[tuple[tuple, tuple, int]] = []  # (vector, s*q*vector, s*norm)
    for v, norm in enumerate_up_to(q, bound):
        snorm = int(s * norm)
        sqv = tuple(sum(map(mul, row, v)) for row in sq)
        if any(abs(sum(map(mul, x, sqv))) >= xn for x, _, xn in indec if xn < snorm):
            continue
        indec.append((v, sqv, snorm))

    parent = list(range(len(indec)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(indec)):
        for j in range(i + 1, len(indec)):
            if sum(map(mul, indec[i][0], indec[j][1])):
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri

    groups: dict[int, list[int]] = {}
    for i in range(len(indec)):
        groups.setdefault(find(i), []).append(i)

    if not lattices_equal(Mat.from_columns([list(v) for v, _, _ in indec]), Mat.identity(n)):
        raise DecompositionError("indecomposable vectors do not generate the lattice")

    comps = []
    for members in groups.values():
        vecs = [indec[i][0] for i in members]
        basis = hnf(Mat.from_columns([list(v) for v in vecs]))
        key = min((indec[i][2], indec[i][0]) for i in members)
        comps.append((key, Component(vectors=tuple(vecs), rank=basis.cols, basis=basis)))
    comps.sort(key=lambda item: item[0])
    components = tuple(c for _, c in comps)

    if sum(c.rank for c in components) != n:
        raise DecompositionError("component ranks do not sum to the dimension")
    for a in range(len(components)):
        for b in range(a + 1, len(components)):
            cross = components[a].basis.transpose() @ qm @ components[b].basis
            if any(x != 0 for x in cross.entries):
                raise DecompositionError("components are not orthogonal")

    return Decomposition(components=components, enumeration_bound=bound)


def decompose(l: Lattice) -> Decomposition:
    """Orthogonal decomposition of a lattice, components in ambient
    coordinates.  The basis is LLL-reduced first to keep the enumeration
    ball small; the result is mapped back through that change of basis."""
    if l.dimension == 0:
        raise DimensionError("cannot decompose an empty lattice")
    reduced = lll_reduce(l.basis)
    res = decompose_form(GramForm(reduced.transpose() @ reduced))
    components = tuple(
        Component(
            vectors=tuple(sorted(_to_ambient(reduced, v) for v in c.vectors)),
            rank=c.rank,
            basis=reduced @ c.basis,
        )
        for c in res.components
    )
    return Decomposition(components=components, enumeration_bound=res.enumeration_bound)


def is_irreducible(l: Lattice) -> bool:
    """Whether the lattice admits no nontrivial orthogonal splitting."""
    return decompose(l).is_irreducible

