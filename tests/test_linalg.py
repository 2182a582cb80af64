import random
from collections import Counter
from fractions import Fraction

import pytest

from linalg_oracles import char_poly, count_roots_in, poly_eval, recompute_lll, sturm_lower_bound
from toriso import triplet
from toriso.lattices import GramForm, _reduced_gram, choir_family, dual, gram
from toriso.linalg import (
    DimensionError,
    Mat,
    NotPositiveDefiniteError,
    RankError,
    ShapeError,
    det,
    eigenvalue_lower_bound,
    fraction_free_upper,
    hnf,
    lattices_equal,
    ldl,
)
from toriso.triplet import Q1_ROWS


def fraction_ldl(q):
    # independent oracle: the textbook LDL^T recursion over Fraction, with
    # no fraction-free elimination; returns (lower rows, diagonal)
    n = q.rows
    lower = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    dd = []
    for j in range(n):
        dj = q.at(j, j) - sum((lower[j][k] * lower[j][k] * dd[k] for k in range(j)), Fraction(0))
        if dj <= 0:
            raise NotPositiveDefiniteError(f"pivot {j + 1} is {dj}, not positive")
        dd.append(dj)
        for i in range(j + 1, n):
            num = q.at(i, j) - sum((lower[i][k] * lower[j][k] * dd[k] for k in range(j)), Fraction(0))
            lower[i][j] = num / dj
    return lower, dd


def cofactor_det(rows):
    # independent oracle: Laplace expansion along the first row
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        sign = -1 if j % 2 else 1
        total += sign * Fraction(rows[0][j]) * cofactor_det(minor)
    return total


def random_int_matrix(rng, n, lo=-10, hi=10):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]


def random_spd(rng, n, lo=-10, hi=10):
    while True:
        m = Mat.from_rows(random_int_matrix(rng, n, lo, hi))
        q = m.transpose() @ m
        if det(q) != 0:
            return q


def test_det_matches_cofactor_oracle():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(1, 4)
        rows = random_int_matrix(rng, n)
        assert det(Mat.from_rows(rows)) == cofactor_det(rows)


def test_det_rational_entries():
    m = Mat.from_rows([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 7)]])
    assert det(m) == Fraction(1, 2) * Fraction(1, 7) - Fraction(1, 3) * Fraction(1, 5)


def test_det_non_square_rejected():
    with pytest.raises(DimensionError):
        det(Mat.from_rows([[1, 2, 3], [4, 5, 6]]))


def test_ldl_hand_example():
    f = ldl(Mat.from_rows([[2, 1], [1, 2]]))
    assert f.diag == (Fraction(2), Fraction(3, 2))
    assert f.lower == Mat.from_rows([[1, 0], [Fraction(1, 2), 1]])


def test_ldl_round_trip_random():
    rng = random.Random(23)
    for _ in range(200):
        n = rng.randint(2, 6)
        q = random_spd(rng, n)
        f = ldl(q)
        d = Mat.from_rows([[f.diag[i] if i == j else 0 for j in range(n)] for i in range(n)])
        assert f.lower @ d @ f.lower.transpose() == q
        assert all(x > 0 for x in f.diag)


def test_ldl_rejects_indefinite():
    with pytest.raises(NotPositiveDefiniteError):
        ldl(Mat.from_rows([[1, 2], [2, 1]]))
    with pytest.raises(ShapeError):
        ldl(Mat.from_rows([[1, 2], [3, 4]]))


def test_fraction_free_upper_agrees_with_ldl():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(2, 5)
        q = random_spd(rng, n, -5, 5)
        u, minors = fraction_free_upper([[int(x) for x in q.row(i)] for i in range(n)])
        lower, diag = fraction_ldl(q)
        for i in range(n):
            assert Fraction(minors[i + 1], minors[i]) == diag[i]
            for j in range(i + 1, n):
                assert Fraction(u[i][j], minors[i + 1]) == lower[j][i]
        f = ldl(q)
        assert f.diag == tuple(diag)
        assert f.lower == Mat.from_rows(lower)


def test_ldl_matches_fraction_oracle_on_rational_forms():
    # ldl clears denominators before the fraction-free elimination
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(1, 4)
        q = random_spd(rng, n, -4, 4).scaled(Fraction(rng.randint(1, 9), rng.randint(1, 9)))
        lower, diag = fraction_ldl(q)
        f = ldl(q)
        assert f.diag == tuple(diag)
        assert f.lower == Mat.from_rows(lower)
    with pytest.raises(NotPositiveDefiniteError):
        ldl(Mat.from_rows([[Fraction(1, 2), 1], [1, Fraction(1, 3)]]))


def test_fraction_free_upper_flags_indefinite():
    with pytest.raises(NotPositiveDefiniteError):
        fraction_free_upper([[0, 1], [1, 0]])


def test_hnf_fixed_points_and_rank():
    d = Mat.from_rows([[2, 0], [0, 3]])
    assert hnf(d) == d
    padded = Mat.from_rows([[1, 1], [0, 0]])
    h = hnf(padded)
    assert (h.rows, h.cols) == (2, 1)
    assert h.column(0) == (Fraction(1), Fraction(0))


def test_hnf_idempotent_and_canonical():
    rng = random.Random(37)
    for _ in range(60):
        n = rng.randint(1, 5)
        rows = random_int_matrix(rng, n, -6, 6)
        m = Mat.from_rows(rows)
        h = hnf(m)
        assert hnf(h) == h
        # unimodular column mixes keep the lattice, hence the HNF
        mix = Mat.identity(n)
        for _ in range(4):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                rows_e = [[int(a == b) for b in range(n)] for a in range(n)]
                rows_e[i][j] = rng.choice([-2, -1, 1, 2])
                mix = mix @ Mat.from_rows(rows_e)
        assert hnf(m @ mix) == h


def test_hnf_mutual_membership():
    rng = random.Random(41)
    for _ in range(20):
        n = rng.randint(2, 4)
        rows = random_int_matrix(rng, n, -5, 5)
        m = Mat.from_rows(rows)
        h = hnf(m)
        if h.cols != n:
            continue
        inv = h.inverse()
        for j in range(n):
            coords = inv.apply(m.column(j))
            assert all(c.denominator == 1 for c in coords)


def test_hnf_rejects_rationals():
    with pytest.raises(ShapeError):
        hnf(Mat.from_rows([[Fraction(1, 2)]]))


def test_lattices_equal_detects_difference():
    a = Mat.from_rows([[2, 0], [0, 2]])
    b = Mat.from_rows([[2, 1], [0, 1]])
    assert not lattices_equal(a, b)
    assert lattices_equal(b, Mat.from_rows([[1, 2], [1, 0]]))


def lll_basis(m):
    """m times the change of basis of the LLL reduction of its Gram form."""
    return m @ _reduced_gram(GramForm(m.transpose() @ m))[0]


def test_lll_preserves_lattice_and_det():
    rng = random.Random(59)
    for _ in range(40):
        n = rng.randint(2, 6)
        while True:
            m = Mat.from_rows(random_int_matrix(rng, n, -8, 8))
            if det(m) != 0:
                break
        r = lll_basis(m)
        assert abs(det(r)) == abs(det(m))
        assert lattices_equal(r, m)


def test_lll_shortens_a_skewed_basis():
    skew = Mat.from_columns([[1, 0], [1000001, 1]])
    r = lll_basis(skew)
    norms = sorted(sum(x * x for x in r.column(j)) for j in range(2))
    assert norms[0] <= 2


def test_lll_rejects_rank_deficient_bases():
    # each Gram matrix has a zero leading minor d_k: k = 2, 3 and 2, so the
    # gate of B^T B stops it before any reduction
    for columns in ([[1, 2], [2, 4]], [[1, 0, 2], [0, 1, 0], [1, 1, 2]], [[1, 2, 3], [2, 4, 6]]):
        with pytest.raises(NotPositiveDefiniteError):
            lll_basis(Mat.from_columns(columns))


def test_lll_reduce_takes_no_fraction_products(monkeypatch):
    # the integral LLL runs on integer Gram rows; the reduced Gram matrix
    # and B times the change of basis are integer-kernel Mat products
    bases = [triplet.basis_matrix(i) for i in (1, 2, 3)] + [dual(triplet.lattice(i)).basis for i in (1, 2, 3)]
    expected = [recompute_lll(m) for m in bases]
    calls = Counter()
    for name in ("__mul__", "__rmul__", "__truediv__", "__rtruediv__"):

        def counted(a, b, real=getattr(Fraction, name), name=name):
            calls[name] += 1
            return real(a, b)

        monkeypatch.setattr(Fraction, name, counted)
    assert Fraction(1, 2) * Fraction(1, 3) / 2 == Fraction(1, 12)
    assert calls == {"__mul__": 1, "__truediv__": 1}
    calls.clear()
    got = [lll_basis(m) for m in bases]
    assert not calls
    monkeypatch.undo()
    assert got == expected


def test_char_poly_examples():
    assert char_poly(Mat.identity(2)) == (1, -2, 1)
    assert char_poly(Mat.from_rows([[2, 1], [1, 2]])) == (1, -4, 3)


def test_char_poly_constant_coefficient_is_signed_det():
    rng = random.Random(61)
    for _ in range(30):
        n = rng.randint(1, 5)
        m = Mat.from_rows(random_int_matrix(rng, n, -4, 4))
        p = char_poly(m)
        assert p[-1] == (-1) ** n * det(m)


def test_char_poly_of_q1_frozen():
    # exact coefficients, cross-checked once against an independent CAS
    p = char_poly(Mat.from_rows(Q1_ROWS))
    assert p == (1, -91, 2809, -31703, 70225, -56875, 15625)


def test_sturm_counts():
    # (x-1)(x-2)(x-3) has one root in (0, 3/2] and three in (0, 4]
    p = (Fraction(1), Fraction(-6), Fraction(11), Fraction(-6))
    assert count_roots_in(p, Fraction(0), Fraction(3, 2)) == 1
    assert count_roots_in(p, Fraction(0), Fraction(4)) == 3
    # repeated roots are counted once
    sq = (Fraction(1), Fraction(-2), Fraction(1))
    assert count_roots_in(sq, Fraction(0), Fraction(2)) == 1


def test_eigenvalue_lower_bound_identity():
    lb = eigenvalue_lower_bound(Mat.identity(3), Fraction(1, 100))
    assert Fraction(99, 100) <= lb <= 1


def test_eigenvalue_lower_bound_diag():
    lb = eigenvalue_lower_bound(Mat.from_rows([[2, 0], [0, 8]]), Fraction(1, 4))
    assert Fraction(7, 4) <= lb <= 2


def test_eigenvalue_lower_bound_certificate_property():
    rng = random.Random(71)
    eps = Fraction(1, 64)
    for _ in range(25):
        n = rng.randint(2, 4)
        q = random_spd(rng, n, -4, 4)
        lb = eigenvalue_lower_bound(q, eps)
        p = char_poly(q)
        assert lb > 0
        assert count_roots_in(p, Fraction(0), lb) == 0
        min_diag = min(q.at(i, i) for i in range(n))
        assert count_roots_in(p, lb, lb + 2 * eps) >= 1 or lb + eps >= min_diag


def test_eigenvalue_lower_bound_q1():
    # The published figure 263/400 is a valid lower bound but sits well
    # below the true minimum, which lies in (0.705, 0.706); a certified
    # bound at eps 1/1000 must land in that window.
    q1 = Mat.from_rows(Q1_ROWS)
    lb = eigenvalue_lower_bound(q1, Fraction(1, 1000))
    assert Fraction(263, 400) < lb
    assert Fraction(704, 1000) < lb <= Fraction(706, 1000)
    assert count_roots_in(char_poly(q1), Fraction(0), lb) == 0


def random_rational_matrix(rng, n, lo=-9, hi=9):
    while True:
        m = Mat.from_rows([[Fraction(rng.randint(lo, hi), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)])
        if det(m) != 0:
            return m


def paper_gram_matrices():
    # the triplet's three forms and the nine twelve-dimensional choir forms
    lats = [triplet.lattice(i) for i in (1, 2, 3)]
    return [gram(l).matrix for l in lats + choir_family(lats, copies=2)]


# forms whose smallest eigenvalue is a bisection midpoint of (0, min diagonal]:
# a bound that accepts a singular q - mid*I overshoots on them
MIDPOINT_EIGENVALUE_FORMS = [
    Mat.from_rows([[2, 1], [1, 2]]),
    Mat.from_rows([[4, 1], [1, 4]]),
    Mat.from_rows([[8, -3], [-3, 8]]),
    Mat.from_rows([[2, 1, 0], [1, 2, 0], [0, 0, 5]]),
]


@pytest.mark.parametrize("eps", [Fraction(1, 1000), Fraction(1, 7)], ids=["eps-1/1000", "eps-1/7"])
def test_eigenvalue_lower_bound_matches_sturm_oracle(eps):
    rng = random.Random(89)
    forms = paper_gram_matrices() + MIDPOINT_EIGENVALUE_FORMS
    for _ in range(40):
        m = random_rational_matrix(rng, rng.randint(1, 5), -5, 5)
        forms.append(m.transpose() @ m)
    for q in forms:
        assert eigenvalue_lower_bound(q, eps) == sturm_lower_bound(q, eps)


def test_lll_reduce_matches_recompute_oracle():
    rng = random.Random(97)
    bases = [triplet.basis_matrix(i) for i in (1, 2, 3)]
    bases += [dual(triplet.lattice(i)).basis for i in (1, 2, 3)]
    bases += [random_rational_matrix(rng, rng.randint(1, 6)) for _ in range(40)]
    for m in bases:
        assert lll_basis(m) == recompute_lll(m)


def test_eigenvalue_lower_bound_rejects_indefinite():
    with pytest.raises(NotPositiveDefiniteError):
        eigenvalue_lower_bound(Mat.from_rows([[1, 3], [3, 1]]), Fraction(1, 10))


def test_poly_eval_horner():
    p = (Fraction(2), Fraction(0), Fraction(-1))
    assert poly_eval(p, Fraction(3)) == 17


def test_mat_inverse_round_trip():
    rng = random.Random(83)
    for _ in range(25):
        n = rng.randint(1, 4)
        while True:
            m = Mat.from_rows(random_int_matrix(rng, n, -6, 6))
            if det(m) != 0:
                break
        assert m @ m.inverse() == Mat.identity(n)
