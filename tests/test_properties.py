"""Property tests: enumeration against the box oracle, also in the
LLL-reduced basis of a skewed conjugate, the exact-shell walk against the
filtered ball, squared theta series and the packed squaring against the
convolution loop, certify under
unimodular maps, the monomial orbit of a code, the eigenvalue bound, LLL
and the Mat products and inverse against their oracles, the Hermite
normal form as a canonical lattice basis, lattice decompositions,
minimal vectors and ladders that do not depend on the basis, the scan's
keying of sig rows against np.unique over void rows, and code-search
reports and checkpoints that do not depend on --jobs or on a resume, and
the scan's sign-orbit representatives against a brute-force oracle.

Forms are L L^T for random lower-triangular integer L with nonzero
diagonal, so they are integral and positive definite; entries stay small
to keep each enumeration to milliseconds.  Codes have length at most 4,
so a scalar orbit holds at most 4! * 2**4 images (5 against the full
expansion, with one example of length 6), and generator matrices
checked against the n! permuted reductions length at most 5; codes
brought to their sign-orbit representatives have length at most 6.
"""

import tempfile
from collections import Counter
from math import factorial, isqrt, log2, prod
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from code_oracles import expanded_canonical_form, kruskal_forest, permuted_reductions, sign_canonical, sign_least_orbit, void_row_keys
from isometry_oracles import ball_shells
from linalg_oracles import (
    box_oracle,
    fraction_apply,
    fraction_inverse,
    fraction_matmul,
    recompute_lll,
    sturm_lower_bound,
)
from spectra_oracles import form_direct_sum, loop_squared_counts
from toriso import spectra
from toriso.codes import LinearCode, canonical_monomial_form, weight_distribution
from toriso.enumeration import _canonical_sign, _shells, enumerate_up_to, independent_ladder, rep_spectrum, shortest_vectors
from toriso.decomposition import decompose
from toriso.lattices import GramForm, Lattice, _reduced_gram
from toriso.linalg import (
    DimensionError,
    LinalgError,
    Mat,
    RankError,
    det,
    eigenvalue_lower_bound,
    fraction_free_upper,
    hnf,
    lattices_equal,
)
from toriso.search import (
    _SORT_BLOCK,
    _free_positions,
    _key_rows,
    _label_dtype,
    _orbit_rows,
    _pack,
    _pack_powers,
    _partition_ids,
    _patterns,
    _permuted_rrefs,
    _supports,
    run_search,
)
from toriso.spectra import Verdict, certify

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def forms(draw, max_dim=3):
    n = draw(st.integers(1, max_dim))
    low = [
        [draw(st.integers(1, 3)) if i == j else draw(st.integers(-2, 2)) if j < i else 0 for j in range(n)]
        for i in range(n)
    ]
    l = Mat.from_rows(low)
    return GramForm(l @ l.transpose())


@st.composite
def unimodular(draw, n):
    """A product of signed permutations and elementary column operations."""
    perm = draw(st.permutations(range(n)))
    rows = [[draw(st.sampled_from((1, -1))) if perm[i] == j else 0 for j in range(n)] for i in range(n)]
    steps = draw(st.integers(0, 4)) if n > 1 else 0
    for _ in range(steps):
        i, j = draw(st.sampled_from([(i, j) for i in range(n) for j in range(n) if i != j]))
        c = draw(st.integers(-2, 2))
        for r in rows:
            r[j] += c * r[i]
    return Mat.from_rows(rows)


@SETTINGS
@given(forms(), st.integers(0, 40))
def test_squared_spectrum_is_the_direct_sum_spectrum(q, cap):
    spec, summed = rep_spectrum(q, cap), rep_spectrum(form_direct_sum(q, q), cap)
    assert summed.step == spec.step
    assert spectra._squared_counts(spec.counts) == list(summed.counts)


@SETTINGS
@given(st.lists(st.integers(0, 2**40), max_size=80), st.integers(0, 2**70))
@example([], 0)
@example([0, 0, 0], 0)
def test_packed_squaring_is_the_convolution_loop(counts, big):
    # one huge count widens every slot of the packed integer
    assert spectra._squared_counts(counts + [big]) == loop_squared_counts(counts + [big])


@SETTINGS
@given(st.data())
def test_certify_is_isospectral_under_unimodular_maps(data):
    q = data.draw(forms())
    u = data.draw(unimodular(q.dimension))
    cert = certify(q, GramForm(u.transpose() @ q.matrix @ u))
    assert cert.verdict is Verdict.ISOSPECTRAL
    assert cert.summed is (q.dimension % 2 == 1)


@st.composite
def codes(draw, moduli=(2, 3, 5, 7), max_length=4):
    q = draw(st.sampled_from(moduli))
    n = draw(st.integers(1, max_length))
    k = draw(st.integers(1, n))
    rows = draw(st.lists(st.lists(st.integers(0, q - 1), min_size=n, max_size=n), min_size=k, max_size=k))
    code = LinearCode(q, n, tuple(map(tuple, rows)))
    assume(code.rows)
    return code


@SETTINGS
@given(st.data())
def test_canonical_monomial_form_is_the_numpy_orbit_minimum(data):
    code = data.draw(codes())
    q, n, k = code.modulus, code.length, len(code.rows)
    perm = data.draw(st.permutations(range(n)))
    signs = data.draw(st.lists(st.sampled_from((1, q - 1)), min_size=n, max_size=n))
    image = LinearCode(q, n, tuple(tuple(signs[j] * row[perm[j]] % q for j in range(n)) for row in code.rows))
    canon = canonical_monomial_form(code)
    assert canonical_monomial_form(image) == canon
    # verify_tuple's scalar re-check and the search's packed orbit agree
    powers = _pack_powers(q, k, n)
    assert _pack(np.array([canon.rows]), powers)[0] == _orbit_rows(np.array([image.rows]), q, powers)[0, 0]


@st.composite
def echelon_rows(draw, q, n, k):
    """Canonical rows of a rank-k code: k pivots anywhere, free entries
    after each pivot outside the pivot columns."""
    pivots = sorted(draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True)))
    rows = [[0] * n for _ in range(k)]
    for i, p in enumerate(pivots):
        rows[i][p] = 1
        for j in range(p + 1, n):
            if j not in pivots:
                rows[i][j] = draw(st.integers(0, q - 1))
    return tuple(map(tuple, rows))


@SETTINGS
@given(st.data())
def test_stacked_orbit_rows_are_the_scalar_orbits(data):
    # q = 2 has no signs: each image is its own representative
    q = data.draw(st.sampled_from((2, 3, 5, 7)))
    n = data.draw(st.integers(1, 4))
    k = data.draw(st.integers(1, n))
    reps = data.draw(st.lists(echelon_rows(q, n, k), min_size=1, max_size=4))
    powers = _pack_powers(q, k, n)
    rows = _orbit_rows(np.array(reps), q, powers)
    assert rows.shape == (len(reps), factorial(n))  # one id per column permutation
    for rep, row in zip(reps, rows):
        code = LinearCode(q, n, rep)
        assert row.tolist() == _pack(np.array(sign_least_orbit(code)), powers).tolist()
        assert row[0] == _pack(np.array([expanded_canonical_form(code)]), powers)[0]


@st.composite
def pattern_codes(draw):
    """A code over GF(q), odd q <= 13, of length n <= 6 in reduced echelon
    form with the systematic pivots or a random pivot pattern, each free
    entry 0 half the time, whose packed id fits 62 bits; and its pivots."""
    q = draw(st.sampled_from((3, 5, 7, 11, 13)))
    n = draw(st.integers(1, 6))
    k = draw(st.sampled_from([k for k in range(1, n + 1) if k * n * log2(q) <= 62]))
    pivots = draw(st.sampled_from([tuple(range(k))] + _patterns(n, k, "all")))
    rows = [[int(j == p) for j in range(n)] for p in pivots]
    for i, j in _free_positions(n, k, pivots):
        rows[i][j] = draw(st.one_of(st.just(0), st.integers(1, q - 1)))
    return LinearCode(q, n, tuple(map(tuple, rows))), pivots


@SETTINGS
@given(pattern_codes())
@example((LinearCode(13, 6, ((1, 0, 12, 7, 9, 3), (0, 1, 11, 0, 8, 12))), (0, 1)))
@example((LinearCode(7, 6, ((1, 0, 0, 6, 5, 4), (0, 1, 0, 0, 6, 2), (0, 0, 1, 5, 0, 6))), (0, 1, 2)))
def test_sign_orbit_representative_is_enumerated(drawn):
    # the oracle's representative, found by brute force over all column
    # signs, is the scan's representative at its place: support table
    # offset plus the mixed-radix number of its entries, forest entries in
    # 1..(q - 1)/2 and other support entries in 1..q - 1
    code, pivots = drawn
    q, n, k = code.modulus, code.length, len(pivots)
    rows, size = sign_canonical(code)
    assert sign_canonical(LinearCode(q, n, rows)) == (rows, size)  # idempotent
    free = _free_positions(n, k, pivots)
    forest = kruskal_forest(rows)
    mask, number = 0, 0
    for i, j in free:
        mask = 2 * mask + (rows[i][j] != 0)
        if rows[i][j]:
            number = number * ((q - 1) // 2 if (i, j) in forest else q - 1) + rows[i][j] - 1
    place = int(_supports(q, n, k, pivots)[1][mask]) + number
    powers = _pack_powers(q, k, n)
    ids, weights = _partition_ids(q, n, k, pivots, place, place + 1, powers)
    assert (ids.tolist(), weights.tolist()) == (_pack(np.array([rows]), powers).tolist(), [size])
    rep = LinearCode(q, n, rows)
    assert weight_distribution(rep) == weight_distribution(code)
    assert canonical_monomial_form(rep) == canonical_monomial_form(code)


@st.composite
def rank_k_generators(draw, q, n, k):
    """A k x n generator matrix of rank k over GF(q), M [I | A] P: M = L U
    invertible, each column of A zero, parallel to an earlier column or
    random, and P a column permutation."""
    entry = st.integers(0, q - 1)
    cols = [[int(i == j) for i in range(k)] for j in range(k)]
    for _ in range(n - k):
        kind = draw(st.sampled_from(("zero", "parallel", "random")))
        if kind == "zero":
            cols.append([0] * k)
        elif kind == "parallel":
            scale = draw(st.integers(1, q - 1))
            cols.append([scale * x % q for x in draw(st.sampled_from(cols))])
        else:
            cols.append(draw(st.lists(entry, min_size=k, max_size=k)))
    lower = [[1 if i == j else draw(entry) if j < i else 0 for j in range(k)] for i in range(k)]
    upper = [[draw(st.integers(1, q - 1)) if i == j else draw(entry) if j > i else 0 for j in range(k)] for i in range(k)]
    perm = draw(st.permutations(range(n)))
    return np.array(lower) @ np.array(upper) @ np.array(cols).T[:, perm] % q


@SETTINGS
@given(st.data())
def test_per_basis_reductions_are_the_permuted_reductions(data):
    # k = 1 and k = n are drawn too; a stack of codes shares one call
    q = data.draw(st.sampled_from((2, 3, 5, 7)))
    n = data.draw(st.integers(1, 5))
    k = data.draw(st.integers(1, n))
    gens = data.draw(st.lists(rank_k_generators(q, n, k), min_size=1, max_size=3))
    images = _permuted_rrefs(np.array(gens), q)
    assert images.shape == (len(gens), factorial(n), k, n)
    for g, got in zip(gens, images.tolist()):
        assert [tuple(map(tuple, image)) for image in got] == permuted_reductions(g.tolist(), q)


@st.composite
def sig_rows(draw):
    """Rows of sigs of one dtype, columns shuffled within each row, in one
    of five shapes: random rows over a few values, so that rows repeat; one
    row repeated; pairwise distinct rows; rows that differ only in their
    last byte, the high byte of their greatest sig; and rows that differ
    only in the high byte of one sig between 0s and all-ones sigs."""
    dtype = np.dtype(draw(st.sampled_from(("<u1", "<u2", "<u4", "<u8"))))
    rows, width = draw(st.integers(1, 60)), draw(st.integers(1, 20))
    shape = draw(st.sampled_from(("random", "equal", "distinct", "last byte", "high byte")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    top, shift = np.iinfo(dtype).max, 8 * (dtype.itemsize - 1)
    if shape == "distinct":
        sig = rng.permutation(np.unique(np.sort(rng.integers(0, top, (rows, width), dtype, endpoint=True), axis=1), axis=0))
    elif shape in ("random", "equal"):
        pool = np.array(draw(st.lists(st.integers(0, int(top)), min_size=1, max_size=4)), dtype)
        sig = pool[rng.integers(0, len(pool), (rows if shape == "random" else 1, width))]
        sig = np.repeat(sig, rows // len(sig), axis=0)
    else:
        place = width - 1 if shape == "last byte" else draw(st.integers(0, width - 1))
        low = rng.integers(0, 1 << shift, dtype=dtype, endpoint=False) if shift else dtype.type(0)
        sig = np.full((rows, width), top, dtype)
        sig[:, :place] = 0 if shape == "high byte" else low
        sig[:, place] = low | rng.integers(0, 256, rows).astype(dtype) << shift
    return rng.permuted(sig, axis=1)


@SETTINGS
@given(sig_rows())
@example(np.arange(1, dtype=np.uint64).reshape(1, 1))
@example(np.array([[3, 1, 2]], np.uint8))
@example(np.arange(256, dtype=np.uint8).reshape(256, 1))  # 256 keys: uint8 labels
@example(np.arange(257, dtype=np.uint16).reshape(257, 1))
@example(np.array([[1, 0], [0, 1], [256, 0], [0, 256]], np.uint16))  # bytewise, not numeric, order
@example((np.arange(3 * (2 * _SORT_BLOCK + 5)) * 7 % 11).astype(np.uint8).reshape(-1, 3))  # the last sort block partial
def test_key_rows_are_the_void_row_oracle(sig):
    want_keys, want_labels = void_row_keys(sig)
    keys, labels = _key_rows(sig.copy())
    assert keys.dtype == want_keys.dtype and keys.tobytes() == want_keys.tobytes()
    assert labels.dtype == _label_dtype(len(want_keys)) and labels.tolist() == want_labels.tolist()


@SETTINGS
@given(codes(moduli=range(2, 13), max_length=5))
# codes with a pivot of 4 or 5 whose least image needs the entries above
# that pivot reduced again once the signs are applied
@example(LinearCode(8, 4, ((1, 0, 0, 0), (0, 1, 0, 3), (0, 0, 1, 2), (0, 0, 0, 4))))
@example(LinearCode(10, 4, ((1, 0, 0, 2), (0, 1, 0, 0), (0, 0, 1, 4), (0, 0, 0, 5))))
# unit pivots and entries 3 = -3, which join no sign components: were they
# to join them, the least row found would be (0, 1, 3, 2), not (0, 1, 3, 1)
@example(LinearCode(6, 4, ((1, 0, 3, 5), (0, 1, 5, 3))))
# 46,080 images in the expansion, about 1.4 s
@example(LinearCode(5, 6, ((1, 0, 0, 2, 3, 4), (0, 1, 0, 4, 0, 1), (0, 0, 1, 1, 2, 0))))
def test_canonical_monomial_form_matches_the_full_expansion(code):
    assert canonical_monomial_form(code).rows == expanded_canonical_form(code)


@st.composite
def rational_forms(draw, max_dim=4):
    """L L^T for lower-triangular L with small rational entries."""
    n = draw(st.integers(1, max_dim))
    entry = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    nonzero = st.builds(Fraction, st.integers(1, 3), st.integers(1, 3))
    low = Mat.from_rows([[draw(nonzero) if i == j else draw(entry) if j < i else 0 for j in range(n)] for i in range(n)])
    return low @ low.transpose()


@SETTINGS
@given(rational_forms(), st.sampled_from((Fraction(1, 1000), Fraction(1, 7))))
def test_eigenvalue_lower_bound_is_the_sturm_bound(q, eps):
    assert eigenvalue_lower_bound(q, eps) == sturm_lower_bound(q, eps)


@st.composite
def bases(draw, max_dim=5):
    n = draw(st.integers(1, max_dim))
    entry = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 3))
    m = Mat.from_rows([[draw(entry) for _ in range(n)] for _ in range(n)])
    assume(det(m) != 0)
    return m


@SETTINGS
@given(bases())
def test_lll_reduce_is_the_recompute_lll(basis):
    assert basis @ _reduced_gram(GramForm(basis.transpose() @ basis))[0] == recompute_lll(basis)


@SETTINGS
@given(bases())
def test_lattice_results_do_not_depend_on_the_basis(basis):
    # each lattice is reduced through its Gram form, so starting from an
    # LLL-reduced basis of the same lattice changes nothing
    l, reduced = Lattice(basis), Lattice(recompute_lll(basis))
    assert decompose(l) == decompose(reduced)
    assert shortest_vectors(l) == shortest_vectors(reduced)
    assert independent_ladder(l, l.dimension) == independent_ladder(reduced, l.dimension)


@SETTINGS
@given(st.one_of(forms(max_dim=4).map(lambda f: f.matrix), rational_forms()), st.integers(0, 16))
@example(Mat.from_rows([[4, 1], [1, 4]]), 16)  # grid step 2, half the diagonal
def test_enumerate_up_to_is_the_box_oracle(q, t):
    # the oracle's box has half-widths isqrt(bound * (q^-1)_ii) <= 4
    bound = t / max(q.inverse().at(i, i) for i in range(q.rows))
    expected = box_oracle(q, bound)
    got = enumerate_up_to(GramForm(q), bound)
    assert dict(got) == expected and len(got) == len(expected)
    assert got == sorted(got, key=lambda item: (item[1], item[0]))
    if expected:
        # a bound that the form attains keeps its whole top shell
        assert dict(enumerate_up_to(GramForm(q), max(expected.values()))) == expected
    # every value lies on rep_spectrum's grid and is counted with both signs
    counts = {0: 1, **{t: 2 * c for t, c in Counter(expected.values()).items()}}
    assert {t: c for t, c in rep_spectrum(GramForm(q), bound).entries if c} == counts


@st.composite
def skewing(draw, n):
    """A unimodular matrix of 2 to 6 elementary column operations."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(2, 6)) if n > 1 else 0):
        i, j = draw(st.sampled_from([(i, j) for i in range(n) for j in range(n) if i != j]))
        c = draw(st.sampled_from((-3, -2, -1, 1, 2, 3)))
        for r in rows:
            r[j] += c * r[i]
    return Mat.from_rows(rows)


@SETTINGS
@given(st.one_of(forms(max_dim=5).map(lambda f: f.matrix), rational_forms(max_dim=5)), st.data())
def test_reduced_walk_of_a_skewed_conjugate_is_the_box_oracle(q, data):
    n = q.rows
    u = data.draw(skewing(n))
    m = u.transpose() @ q @ u
    form = GramForm(m)
    h, (reduced_u, reduced_minors, s) = form._reduction
    assume(n == 1 or h is not None)
    # the reduction's Bareiss data is the elimination of h^T (s m) h
    hm = Mat.from_columns(h) if h else Mat.identity(n)
    rows = [[int(x) for x in (hm.transpose() @ m.scaled(s) @ hm).row(i)] for i in range(n)]
    assert (reduced_u, reduced_minors) == fraction_free_upper(rows)
    # the ball of m is u^-1 times the ball of q, whose box the oracle scans
    inv = q.inverse()
    scaled = st.integers(0, 16).map(lambda t: t / max(inv.at(i, i) for i in range(n)))
    bound = data.draw(st.one_of(scaled, st.sampled_from([q.at(i, i) for i in range(n)])))
    assume(prod(2 * isqrt(int(bound * inv.at(i, i))) + 1 for i in range(n)) <= 20000)
    back = u.inverse()
    expected = {_canonical_sign(tuple(int(c) for c in back.apply(x))): v for x, v in box_oracle(q, bound).items()}
    got = enumerate_up_to(form, bound)
    assert dict(got) == expected and len(got) == len(expected)
    assert got == sorted(got, key=lambda item: (item[1], item[0]))
    shells = {t: sorted(x for x, v in expected.items() if v == t) for t in set(expected.values())}
    assert _shells(form, list(shells)) == shells
    counts = {0: 1, **{t: 2 * len(vecs) for t, vecs in shells.items()}}
    assert {t: c for t, c in rep_spectrum(form, bound).entries if c} == counts


@SETTINGS
@given(st.one_of(forms(max_dim=5).map(lambda f: f.matrix), rational_forms(max_dim=5)), st.integers(1, 4), st.integers(0, 24), st.data())
def test_a_scaled_form_has_the_counts_on_a_scaled_grid(q, t, bound, data):
    # certify walks each form as given and reads the counts of c * q, for
    # c a multiple of the form's denominator scale, off them.  A skewed
    # conjugate makes the LLL do some work
    u = data.draw(skewing(q.rows))
    form = GramForm(u.transpose() @ q @ u)
    c = t * form._elimination[2]
    walked, scaled = rep_spectrum(form, Fraction(bound, c)), rep_spectrum(GramForm(form.matrix.scaled(c)), bound)
    assert walked.counts == scaled.counts
    assert scaled.step == c * walked.step


@SETTINGS
@given(rational_forms(), st.sampled_from((1, 2, 7)), st.integers(0, 16), st.data())
def test_count_at_reads_the_entries(q, shrink, t, data):
    # the bound keeps the box half-widths within 4, as for the box oracle
    q = q.scaled(Fraction(1, shrink))
    bound = t / max(q.inverse().at(i, i) for i in range(q.rows))
    spec = rep_spectrum(GramForm(q), bound)
    assume(isinstance(spec.step, Fraction))
    table = dict(spec.entries)
    # every grid value, a point halfway to the next, and drawn values whose
    # denominator is the step's, twice it, 7 or 1
    den = data.draw(st.sampled_from((spec.step.denominator, 2 * spec.step.denominator, 7, 1)))
    drawn = data.draw(st.lists(st.integers(0, int(bound * den)).map(lambda k: Fraction(k, den)), max_size=20))
    for v in [*table, *(v + spec.step / 2 for v in table if v + spec.step / 2 <= bound), *drawn]:
        assert spec.count_at(v) == table.get(v, 0)
    for v in (-spec.step, Fraction(-1, den), bound + spec.step, bound + Fraction(1, den)):
        with pytest.raises(ValueError, match="outside enumerated range"):
            spec.count_at(v)


@SETTINGS
@given(st.one_of(forms(max_dim=4).map(lambda f: f.matrix), rational_forms()), st.data())
def test_shells_are_the_filtered_ball(q, data):
    # the largest drawn value keeps the ball within box half-widths 4
    top = Fraction(16) / max(q.inverse().at(i, i) for i in range(q.rows))
    value = st.sampled_from((1, 2, 3, 7)).flatmap(
        lambda den: st.builds(Fraction, st.integers(-1, int(top * den)), st.just(den))
    )
    values = data.draw(st.lists(value, max_size=6))
    # zero, a duplicate, and a value off every grid (the forms' denominators
    # divide 36) above all the others, which sets the walk's bound
    values += [Fraction(0), values[0] if values else Fraction(1), top + Fraction(1, 11)]
    form = GramForm(q)
    assert _shells(form, values) == ball_shells(form, values)


rationals = st.one_of(st.integers(-9, 9).map(Fraction), st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)))


def matrices(rows, cols, entry=rationals):
    return st.lists(entry, min_size=rows * cols, max_size=rows * cols).map(lambda e: Mat(rows, cols, tuple(e)))


@st.composite
def product_operands(draw):
    """(a, b, v) with a r x c, b c x d and v of length c; any side may be 0."""
    r, c, d = (draw(st.integers(0, 6)) for _ in range(3))
    return draw(matrices(r, c)), draw(matrices(c, d)), draw(st.lists(rationals, min_size=c, max_size=c))


@SETTINGS
@given(product_operands())
@example((Mat(0, 3, ()), Mat.identity(3), [1, 2, 3]))
@example((Mat(2, 0, ()), Mat(0, 3, ()), []))
@example((Mat.identity(2), Mat(2, 0, ()), [1, Fraction(1, 2)]))
def test_products_are_the_fraction_oracles(operands):
    a, b, v = operands
    assert a @ b == fraction_matmul(a, b)
    assert a.apply(v) == fraction_apply(a, v)


@st.composite
def inverse_inputs(draw):
    """Square rational matrices, a fifth of them singular, and non-square ones."""
    n = draw(st.integers(0, 6))
    m = draw(matrices(n, draw(st.one_of(st.just(n), st.integers(0, 6)))))
    if m.is_square and n and draw(st.integers(0, 4)) == 0:
        # the last row a combination of the others
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=n - 1, max_size=n - 1))
        last = [sum((c * x for c, x in zip(coeffs, m.column(j))), Fraction(0)) for j in range(n)]
        m = Mat(n, n, m.entries[: n * (n - 1)] + tuple(last))
    return m


def _inverse_or_error(inverse, m):
    try:
        return inverse(m)
    except LinalgError as e:
        return type(e)


@SETTINGS
@given(inverse_inputs())
@example(Mat(0, 0, ()))
@example(Mat.from_rows([[1, 2], [2, 4]]))
@example(Mat(2, 3, (Fraction(1),) * 6))
def test_inverse_is_the_fraction_oracle(m):
    got = _inverse_or_error(Mat.inverse, m)
    assert got == _inverse_or_error(fraction_inverse, m)
    if not m.is_square:
        assert got is DimensionError
    elif det(m) == 0:
        assert got is RankError


@SETTINGS
@given(st.data())
def test_hnf_is_the_canonical_basis(data):
    r, c = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    m = data.draw(matrices(r, c, st.integers(-9, 9).map(Fraction)))
    h = hnf(m)
    assert hnf(m @ data.draw(unimodular(c))) == h
    # pivots strictly descend the rows, are positive, and reduce the
    # entries of the earlier columns in their row into [0, pivot)
    cols = [h.column(j) for j in range(h.cols)]
    pivots = [next(i for i, x in enumerate(col) if x) for col in cols]
    assert pivots == sorted(set(pivots))
    for j, p in enumerate(pivots):
        assert cols[j][p] > 0
        assert all(0 <= cols[k][p] < cols[j][p] for k in range(j))
    # lattices_equal clears a common denominator without changing the answer
    den = Fraction(1, data.draw(st.integers(1, 6)))
    other = data.draw(matrices(r, data.draw(st.integers(1, 5)), st.integers(-9, 9).map(Fraction)))
    assert lattices_equal(m.scaled(den), (m @ data.draw(unimodular(c))).scaled(den))
    assert lattices_equal(m.scaled(den), other.scaled(den)) == (hnf(other) == h)


class _Stop(Exception):
    pass


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_search_is_byte_identical_across_jobs_and_resume(data):
    q = data.draw(st.sampled_from((2, 3, 5)), label="q")
    n = data.draw(st.integers(2, 4), label="n")
    k = data.draw(st.integers(1, n), label="k")
    kwargs = dict(family=data.draw(st.sampled_from(("all", "systematic"))), verify=False, chunk_size=data.draw(st.integers(3, 40)))
    with tempfile.TemporaryDirectory() as tmp:
        serial, parallel, resumed = (Path(tmp, f"{name}.json.gz") for name in ("serial", "parallel", "resumed"))
        totals = []
        want = run_search(q, n, k, checkpoint_path=serial, progress=lambda done, total: totals.append(total), **kwargs)
        assert run_search(q, n, k, checkpoint_path=parallel, jobs=2, **kwargs) == want
        assert parallel.read_bytes() == serial.read_bytes()
        cut = data.draw(st.integers(1, totals[0]), label="cut")
        jobs = data.draw(st.sampled_from((1, 2)), label="jobs")

        def stop(done, total):
            if done == cut:
                raise _Stop

        with pytest.raises(_Stop):
            run_search(q, n, k, checkpoint_path=resumed, jobs=jobs, progress=stop, **kwargs)
        assert run_search(q, n, k, checkpoint_path=resumed, jobs=jobs, **kwargs) == want
        assert resumed.read_bytes() == serial.read_bytes()
