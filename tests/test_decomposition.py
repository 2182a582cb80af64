import random
from fractions import Fraction

import pytest

from toriso.decomposition import (
    Component,
    Decomposition,
    decompose,
    decompose_form,
)
from toriso.enumeration import enumerate_up_to
from toriso.lattices import GramForm, Lattice, gram
from toriso.linalg import DimensionError, Mat, det
from toriso import triplet


def is_decomposable_vector(q, v):
    # oracle: v is decomposable iff some x with 0 < |x|^2 < |v|^2 has
    # |<x, v>| >= |x|^2, checked over the whole ball of norm |v|^2
    qv = q.matrix.apply(v)
    norm = sum(a * b for a, b in zip(v, qv))
    if norm == 0:
        raise ValueError("zero vector has no decomposition")
    for x, xnorm in enumerate_up_to(q, norm):
        if xnorm != norm and abs(sum(a * b for a, b in zip(x, qv))) >= xnorm:
            return True
    return False


def component_determinants(q, d):
    # det of q restricted to each component
    return tuple(det(c.basis.transpose() @ q.matrix @ c.basis) for c in d.components)


def contains_up_to_sign(vectors, v):
    neg = tuple(-x for x in v)
    return v in vectors or neg in vectors


def test_identity_form_splits_into_unit_axes():
    for n in (1, 2, 3, 4):
        d = decompose_form(GramForm(Mat.identity(n)))
        assert len(d.components) == n
        assert all(c.rank == 1 for c in d.components)
        axes = {c.vectors[0] for c in d.components}
        assert axes == {tuple(int(i == j) for j in range(n)) for i in range(n)}


def test_block_form_splits_into_blocks():
    q = GramForm(Mat.from_rows([[2, 1, 0], [1, 2, 0], [0, 0, 3]]))
    d = decompose_form(q)
    assert len(d.components) == 2
    assert sorted(c.rank for c in d.components) == [1, 2]
    assert component_determinants(q, d) == (3, 3)
    prod = 1
    for x in component_determinants(q, d):
        prod *= x
    assert prod == det(q.matrix)


def test_permuted_block_form_still_splits():
    # same blocks, coordinates interleaved by a permutation
    p = Mat.from_columns([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    base = Mat.from_rows([[2, 1, 0], [1, 2, 0], [0, 0, 3]])
    q = GramForm(p.transpose() @ base @ p)
    d = decompose_form(q)
    assert sorted(c.rank for c in d.components) == [1, 2]


def test_decompose_form_is_stable_on_components():
    q = GramForm(Mat.from_rows([[2, 1], [1, 2]]))
    d = decompose_form(q)
    assert d.is_irreducible
    sub = d.components[0].basis.transpose() @ q.matrix @ d.components[0].basis
    again = decompose_form(GramForm(sub))
    assert again.is_irreducible


def test_unit_diagonal_vector_tests():
    q = GramForm(Mat.identity(2))
    assert is_decomposable_vector(q, (1, 1))
    assert not is_decomposable_vector(q, (1, 0))
    with pytest.raises(ValueError):
        is_decomposable_vector(q, (0, 0))


def test_ladder_vector_is_indecomposable():
    l = triplet.lattice(1)
    q = gram(l)
    assert not is_decomposable_vector(q, l.basis.inverse().apply(triplet.V3))
    # every vector decompose_form keeps passes the full-ball oracle
    for v in decompose_form(q).components[0].vectors:
        assert not is_decomposable_vector(q, v)


def test_bundled_lattices_are_irreducible():
    for i in (1, 2, 3):
        d = decompose(triplet.lattice(i))
        assert d.is_irreducible
        assert d.components[0].rank == 6


def test_ladder_vectors_lie_in_the_single_component():
    d = decompose(triplet.lattice(1))
    vectors = set(d.components[0].vectors)
    for v in (triplet.V1, triplet.V2, triplet.V3, triplet.V4, triplet.W4, triplet.V5, triplet.V6):
        assert contains_up_to_sign(vectors, v)


def test_decompose_lattice_wrapper_maps_to_ambient():
    l = Lattice(Mat.from_rows([[2, 0, 0], [0, 3, 0], [0, 0, 5]]))
    d = decompose(l)
    assert len(d.components) == 3
    assert {c.vectors[0] for c in d.components} == {(2, 0, 0), (0, 3, 0), (0, 0, 5)}


def test_direct_sum_of_bundled_lattices_splits_in_two():
    from toriso.lattices import direct_sum

    l = direct_sum(triplet.lattice(1), triplet.lattice(2))
    d = decompose(l)
    assert len(d.components) == 2
    assert all(c.rank == 6 for c in d.components)


def test_random_block_forms_recover_their_ranks():
    rng = random.Random(5)
    for _ in range(10):
        while True:
            m = Mat.from_rows([[rng.randrange(-2, 3) for _ in range(2)] for _ in range(2)])
            try:
                a = GramForm(m.transpose() @ m)
                break
            except Exception:
                continue
        c = rng.randrange(1, 5)
        q = GramForm(
            Mat.from_rows(
                [list(a.matrix.row(0)) + [0], list(a.matrix.row(1)) + [0], [0, 0, c]]
            )
        )
        d = decompose_form(q)
        assert sum(comp.rank for comp in d.components) == 3
        prod = 1
        for x in component_determinants(q, d):
            prod *= x
        assert prod == det(q.matrix)


def test_empty_inputs_rejected():
    with pytest.raises(DimensionError):
        decompose_form(GramForm(Mat(0, 0, ())))
    with pytest.raises(DimensionError):
        decompose(Lattice(Mat(0, 0, ())))


def test_component_types_are_frozen():
    d = decompose_form(GramForm(Mat.identity(1)))
    assert isinstance(d, Decomposition)
    assert isinstance(d.components[0], Component)
    with pytest.raises(Exception):
        d.components[0].rank = 5
