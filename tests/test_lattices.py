import random
from fractions import Fraction

import pytest

from spectra_oracles import form_direct_sum
from toriso.lattices import (
    GramForm,
    Lattice,
    LatticeError,
    choir_family,
    direct_sum,
    double_form,
    dual,
    gram,
    is_even,
    level,
    scale,
)
from toriso.linalg import (
    DimensionError,
    Mat,
    NotPositiveDefiniteError,
    RankError,
    ShapeError,
    det,
    lattices_equal,
)
from toriso import triplet


def contains(l, v):
    # v lies in L exactly when adding it as a generator keeps the lattice
    columns = [l.basis.column(j) for j in range(l.dimension)]
    return lattices_equal(l.basis, Mat.from_columns(columns + [v]))


def test_gram_of_bundled_bases_matches_bundled_forms():
    for i in (1, 2, 3):
        assert gram(triplet.lattice(i)).matrix == triplet.gram_matrix(i)


def test_lattice_rejects_singular_and_non_square():
    with pytest.raises(RankError):
        Lattice(Mat.from_rows([[1, 2], [2, 4]]))
    with pytest.raises(DimensionError):
        Lattice(Mat.from_rows([[1, 0, 0], [0, 1, 0]]))


def test_gramform_rejects_asymmetric_and_indefinite():
    with pytest.raises(ShapeError):
        GramForm(Mat.from_rows([[1, 2], [0, 1]]))
    with pytest.raises(NotPositiveDefiniteError):
        GramForm(Mat.from_rows([[1, 0], [0, -1]]))
    with pytest.raises(NotPositiveDefiniteError):
        GramForm(Mat.from_rows([[Fraction(1, 2), 1], [1, Fraction(1, 2)]]))


def test_coordinates_round_trip():
    l = triplet.lattice(1)
    inverse = l.basis.inverse()
    assert inverse.apply(triplet.V1) == (0, 0, 1, 0, 0, 0)
    # integer combinations stay inside, and the inverse basis recovers them
    rng = random.Random(7)
    for _ in range(20):
        x = [rng.randrange(-3, 4) for _ in range(6)]
        v = l.basis.apply(x)
        assert inverse.apply(v) == tuple(x)
        assert contains(l, v)


def test_membership_failure():
    l = Lattice(Mat.from_rows([[2, 0], [0, 1]]))
    assert l.basis.inverse().apply((1, 0)) == (Fraction(1, 2), 0)
    assert not contains(l, (1, 0))
    assert contains(l, (2, -1))


def test_dual_of_diagonal():
    l = Lattice(Mat.from_rows([[1, 0], [0, 2]]))
    d = dual(l)
    assert lattices_equal(d.basis, Mat.from_rows([[1, 0], [0, Fraction(1, 2)]]))


def test_dual_determinant_inverts():
    for i in (1, 2, 3):
        l = triplet.lattice(i)
        assert det(gram(dual(l)).matrix) == 1 / det(gram(l).matrix)


def test_dual_is_involution():
    l = triplet.lattice(2)
    assert dual(dual(l)).basis == l.basis


def test_double_form_and_evenness():
    for i in (1, 2, 3):
        q = triplet.gram_form(i)
        assert not is_even(q)
        assert is_even(double_form(q))
    assert not is_even(GramForm(Mat.from_rows([[Fraction(1, 2)]])))


def test_level_of_twice_identity_is_four():
    q = GramForm(Mat.identity(2).scaled(2))
    assert level(q) == 4


def test_level_of_doubled_bundled_forms():
    for i in (1, 2, 3):
        assert level(double_form(triplet.gram_form(i))) == triplet.DOUBLED_LEVEL


def test_level_requires_integral_form():
    with pytest.raises(ShapeError):
        level(GramForm(Mat.from_rows([[Fraction(1, 2)]])))


def test_classify_tags():
    # the class tags of the doubled triplet form: determinant, evenness, level
    q = double_form(triplet.gram_form(1))
    assert (det(q.matrix), is_even(q), level(q)) == (triplet.DOUBLED_DET, True, triplet.DOUBLED_LEVEL)


def test_direct_sum_blocks():
    a = Lattice(Mat.from_rows([[2]]))
    b = Lattice(Mat.from_rows([[1, 1], [0, 1]]))
    s = direct_sum(a, b)
    assert s.dimension == 3
    assert s.basis == Mat.from_rows([[2, 0, 0], [0, 1, 1], [0, 0, 1]])
    # empty lattice is the identity
    empty = Lattice(Mat(0, 0, ()))
    assert direct_sum(empty, b).basis == b.basis


def test_form_direct_sum():
    q = form_direct_sum(triplet.gram_form(1), triplet.gram_form(1))
    assert q.dimension == 12
    assert det(q.matrix) == det(triplet.gram_matrix(1)) ** 2


def test_scale_squares_the_gram():
    l = triplet.lattice(3)
    assert gram(scale(l, 2)).matrix == gram(l).matrix.scaled(4)
    assert gram(scale(l, Fraction(1, 3))).matrix == gram(l).matrix.scaled(Fraction(1, 9))
    with pytest.raises(LatticeError):
        scale(l, 0)


def test_choir_family_orders_index_tuples_lexicographically():
    a = Lattice(Mat.from_rows([[1]]))
    b = Lattice(Mat.from_rows([[3]]))
    fam = choir_family([a, b], 2)
    assert len(fam) == 4
    diags = [[f.basis.at(i, i) for i in range(2)] for f in fam]
    # slot 1 scaled by 1, slot 2 scaled by 2
    assert diags == [[1, 2], [1, 6], [3, 2], [3, 6]]


def test_choir_family_of_triple_has_nine_members():
    fam = choir_family([triplet.lattice(i) for i in (1, 2, 3)], 2)
    assert len(fam) == 9
    assert all(f.dimension == 12 for f in fam)


def test_choir_family_rejects_bad_arguments():
    with pytest.raises(LatticeError):
        choir_family([], 2)
    with pytest.raises(LatticeError):
        choir_family([triplet.lattice(1)], 0)

