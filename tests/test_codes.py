import random

import pytest

from code_oracles import all_codes, monomial_images, sign_canonical, sign_images
from toriso.codes import (
    CodeError,
    LinearCode,
    canonical_monomial_form,
    equal_weight_distribution,
    lift,
    project,
    weight_distribution,
)
from toriso.lattices import LatticeError, Lattice
from toriso.linalg import Mat, det, lattices_equal
from toriso.search import _pack_powers, _partition_ids, _patterns, _representatives, _unpack, run_search
from toriso import triplet


def test_bundled_generators_are_already_canonical():
    c = triplet.code(1)
    assert c.rows == triplet.C1_GENERATOR_ROWS
    assert c.modulus == 5 and c.length == 6


def test_row_operations_do_not_change_the_code():
    r1, r2, r3 = triplet.C1_GENERATOR_ROWS
    mixed = (
        tuple((a + b) % 5 for a, b in zip(r1, r2)),
        tuple((2 * x) % 5 for x in r2),
        r3,
    )
    assert LinearCode(5, 6, mixed) == triplet.code(1)


def test_bundled_codes_have_125_words():
    for i in (1, 2, 3):
        c = triplet.code(i)
        assert c.size == 125
        words = list(c.codewords())
        assert len(words) == 125
        assert len(set(words)) == 125


def test_bundled_codes_are_distinct():
    assert triplet.code(1) != triplet.code(2)
    assert triplet.code(2) != triplet.code(3)
    assert triplet.code(1) != triplet.code(3)


def test_projection_of_bundled_lattices_recovers_the_codes():
    for i in (1, 2, 3):
        assert project(triplet.lattice(i), 5) == triplet.code(i)


def test_lift_of_bundled_codes_spans_the_lattices():
    for i in (1, 2, 3):
        lifted = lift(triplet.code(i))
        assert lattices_equal(lifted.basis, triplet.basis_matrix(i))
        assert det(lifted.basis) * triplet.code(i).size == 5**6


def test_projection_requires_containment():
    with pytest.raises(LatticeError):
        project(Lattice(Mat.from_rows([[1, 0], [0, 7]])), 5)
    from toriso.linalg import ShapeError
    from fractions import Fraction

    with pytest.raises(ShapeError):
        project(Lattice(Mat.from_rows([[Fraction(1, 2), 0], [0, 1]])), 5)


@pytest.mark.parametrize("q,n", [(2, 3), (3, 2), (3, 3)])
def test_lift_project_round_trip_all_small_codes(q, n):
    for k in range(0, n + 1):
        for code in all_codes(q, n, k):
            lat = lift(code)
            assert project(lat, q) == code
            # the lift always sits between qZ^n and Z^n
            assert lat.basis.is_integral()
            assert lat.basis.inverse().scaled(q).is_integral()
            assert det(lat.basis) * code.size == q**n


def scan_codes(q, n, k, family="all"):
    # the generator matrices the scan builds and their weights: one pivot
    # pattern at a time, its whole range of sign-orbit representatives
    powers = _pack_powers(q, k, n)
    for pivots in _patterns(n, k, family):
        ids, weights = _partition_ids(q, n, k, pivots, 0, _representatives(q, n, k, pivots), powers)
        for rows, weight in zip(_unpack(ids, q, n, powers).tolist(), weights.tolist()):
            yield tuple(map(tuple, rows)), weight


def test_enumerate_codes_counts():
    # Gaussian binomials, and the scan counts the same codes
    for q, n, k, count in ((2, 3, 1, 7), (2, 3, 2, 7), (3, 2, 1, 4), (3, 3, 2, 13)):
        assert len(all_codes(q, n, k)) == count
        assert run_search(q, n, k, verify=False).codes_scanned == count
    assert run_search(5, 4, 2, family="systematic", verify=False).codes_scanned == 5**4


def test_enumerate_codes_yields_distinct_canonical_codes():
    # every scanned generator matrix is already canonical and its own
    # sign-orbit representative, weighing its sign orbit, and the sign
    # orbits of the scan meet every code exactly once
    for q, n, k in ((2, 4, 2), (3, 3, 2), (3, 4, 1), (3, 4, 2), (5, 3, 2), (7, 3, 1)):
        scanned = list(scan_codes(q, n, k))
        assert all(LinearCode(q, n, rows).rows == rows for rows, _ in scanned)
        assert all(sign_canonical(LinearCode(q, n, rows)) == (rows, weight) for rows, weight in scanned)
        orbits = sorted(image for rows, _ in scanned for image in sign_images(LinearCode(q, n, rows)))
        assert orbits == [c.rows for c in all_codes(q, n, k)]


def test_enumerate_codes_systematic_have_identity_block():
    assert sum(weight for _, weight in scan_codes(5, 4, 2, family="systematic")) == 5**4
    for rows, _ in scan_codes(5, 4, 2, family="systematic"):
        assert [r[:2] for r in rows] == [(1, 0), (0, 1)]


def test_enumerate_codes_input_validation():
    with pytest.raises(CodeError):
        run_search(4, 3, 1)
    with pytest.raises(CodeError):
        run_search(5, 3, 4)
    with pytest.raises(CodeError):
        run_search(5, 3, 1, family="weird")


def test_non_prime_modulus_codes_work():
    c = LinearCode(4, 2, ((2, 0),))
    assert c.size == 2
    assert set(c.codewords()) == {(0, 0), (2, 0)}
    c2 = LinearCode(4, 2, ((1, 2), (2, 0)))
    assert c2.size == 4  # (2,0) is 2*(1,2) mod 4
    c3 = LinearCode(4, 2, ((1, 2), (0, 2)))
    assert c3.size == 8


def test_weight_signature_folds_residues():
    # each word's signature is its sorted folded residues min(c, q - c)
    assert weight_distribution(LinearCode(5, 5, ((0, 1, 2, 3, 4),))) == ((0,) * 5,) + ((0, 1, 1, 2, 2),) * 4
    assert weight_distribution(LinearCode(2, 3, ((1, 0, 1),))) == ((0, 0, 0), (0, 1, 1))
    assert sum(weight_distribution(LinearCode(2, 4, ((1, 1, 0, 1),)))[1]) == 3  # Hamming weight


def test_weight_distribution_and_cap():
    zero = LinearCode(5, 3, ())
    assert weight_distribution(zero) == ((0, 0, 0),)
    with pytest.raises(CodeError):
        weight_distribution(triplet.code(1), cap=100)


def test_bundled_codes_share_weight_distribution():
    assert equal_weight_distribution(triplet.code(1), triplet.code(2))
    assert equal_weight_distribution(triplet.code(2), triplet.code(3))
    assert not equal_weight_distribution(triplet.code(1), LinearCode(5, 6, ()))


def test_monomial_images_preserve_weight_distribution():
    rng = random.Random(11)
    c = triplet.code(2)
    images = []
    for i, img in enumerate(monomial_images(c)):
        if i > 400:
            break
        images.append(img)
    sample = rng.sample(images, 5)
    for img in sample:
        assert equal_weight_distribution(c, img)


def test_canonical_monomial_form_is_orbit_invariant():
    c = LinearCode(5, 4, ((1, 0, 2, 3), (0, 1, 1, 4)))
    canon = canonical_monomial_form(c)
    for i, img in enumerate(monomial_images(c)):
        if i % 97 == 0:
            assert canonical_monomial_form(img) == canon
        if i > 600:
            break
    assert canonical_monomial_form(canon) == canon


def test_length_cap_for_monomial_orbit():
    c = LinearCode(2, 9, ((1,) * 9,))
    with pytest.raises(CodeError):
        canonical_monomial_form(c)


def test_code_input_validation():
    with pytest.raises(CodeError):
        LinearCode(1, 3, ())
    with pytest.raises(CodeError):
        LinearCode(5, 0, ())
    with pytest.raises(CodeError):
        LinearCode(5, 3, ((1, 2),))
