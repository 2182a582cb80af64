"""Orthogonal decomposition of positive-definite forms and lattices.

Every nonzero lattice vector is a sum of indecomposable ones of strictly
smaller norm, and any orthogonal splitting of the lattice must keep each
indecomposable vector on one side and connected pairs (nonzero inner
product) on the same side.  The connected classes of indecomposable
vectors therefore generate the finest orthogonal decomposition.  The
search below walks the form in its LLL-reduced basis, so the ball it
enumerates reaches the largest diagonal entry of the reduced basis (large
enough for the reduced basis vectors, hence a generating set, to split
into indecomposables inside it), and filters decomposables by the exact test

    v decomposable  iff  exists x with 0 < |x|^2 < |v|^2 and
                         |<x, v>| >= |x|^2,

where it suffices to let x range over shorter indecomposables (both
sides scaled by the form's denominator scale s and taken in integers
against the reduced s * q), and then certifies the result: the
surviving vectors must generate the full coordinate lattice, component
ranks must sum to the dimension, and the component bases must be
pairwise orthogonal.  A certificate failure raises instead of returning
a wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .enumeration import _canonical_sign, _to_ambient, _walk
from .lattices import GramForm, Lattice, _reduced_gram, gram
from .linalg import DimensionError, Mat, _integer_rows, hnf, lattices_equal


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
    """Finest orthogonal decomposition of the coordinate lattice under q,
    searched in q's LLL-reduced basis."""
    n = q.dimension
    if n == 0:
        raise DimensionError("cannot decompose an empty form")
    h, reduced = _reduced_gram(q)
    bound = max(reduced.at(i, i) for i in range(n))
    # s * h^T q h: h is unimodular, so s is the walk's scale as well
    sq = _integer_rows(reduced)[0]
    found: list[tuple[int, tuple]] = []  # (s*norm, reduced coordinates y)
    _walk(q, bound, lambda scaled, y: found.append((scaled, _canonical_sign(y))), mapped=False)
    indec: list[tuple[tuple, tuple, int]] = []  # (y, s*(h^T q h)*y, s*norm)
    for snorm, y in sorted(found):
        sqy = tuple(sum(map(mul, row, y)) for row in sq)
        if any(abs(sum(map(mul, x, sqy))) >= xn for x, _, xn in indec if xn < snorm):
            continue
        indec.append((y, sqy, snorm))

    # connected classes: each vector joins every earlier class that holds a
    # vector it has a nonzero inner product with
    groups: list[list[int]] = []
    for i, (_, sqy, _) in enumerate(indec):
        linked = [any(sum(map(mul, indec[j][0], sqy)) for j in g) for g in groups]
        merged = sorted(j for g, link in zip(groups, linked) if link for j in g)
        groups = [g for g, link in zip(groups, linked) if not link] + [merged + [i]]

    if not lattices_equal(Mat.from_columns([list(y) for y, _, _ in indec]), Mat.identity(n)):
        raise DecompositionError("indecomposable vectors do not generate the lattice")

    hrows = _integer_rows(h)[0]
    comps = []
    for members in groups:
        ys = [indec[i][0] for i in members]
        basis = h @ hnf(Mat.from_columns([list(y) for y in ys]))
        vecs = tuple(_canonical_sign([sum(map(mul, row, y)) for row in hrows]) for y in ys)
        key = min((indec[i][2], indec[i][0]) for i in members)
        comps.append((key, Component(vectors=vecs, rank=basis.cols, basis=basis)))
    comps.sort(key=lambda item: item[0])
    components = tuple(c for _, c in comps)

    if sum(c.rank for c in components) != n:
        raise DecompositionError("component ranks do not sum to the dimension")
    for a in range(len(components)):
        for b in range(a + 1, len(components)):
            cross = components[a].basis.transpose() @ q.matrix @ components[b].basis
            if any(x != 0 for x in cross.entries):
                raise DecompositionError("components are not orthogonal")

    return Decomposition(components=components, enumeration_bound=bound)


def decompose(l: Lattice) -> Decomposition:
    """Orthogonal decomposition of a lattice, components in ambient
    coordinates: decompose_form of gram(l), mapped through l's basis."""
    if l.dimension == 0:
        raise DimensionError("cannot decompose an empty lattice")
    res = decompose_form(gram(l))
    components = tuple(
        Component(
            vectors=tuple(sorted(_to_ambient(l.basis, v) for v in c.vectors)),
            rank=c.rank,
            basis=l.basis @ c.basis,
        )
        for c in res.components
    )
    return Decomposition(components=components, enumeration_bound=res.enumeration_bound)
