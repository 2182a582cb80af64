import gc
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest

from linalg_oracles import box_oracle, fraction_ladder, fraction_shortest_vectors
from toriso import enumeration, linalg
from toriso.decomposition import decompose
from toriso.enumeration import (
    RepSpectrum,
    VectorList,
    enumerate_up_to,
    independent_ladder,
    rep_spectrum,
    shortest_vectors,
)
from toriso.isometry import integral_equivalence
from toriso.lattices import GramForm, Lattice, choir_family, double_form, gram
from toriso.linalg import DimensionError, Mat, det
from toriso.spectra import certify
from toriso import triplet


def random_spd(rng: random.Random, n: int) -> Mat:
    while True:
        m = Mat.from_rows([[rng.randrange(-3, 4) for _ in range(n)] for _ in range(n)])
        q = m.transpose() @ m
        try:
            GramForm(q)
        except Exception:
            continue
        return q


def random_unimodular(rng: random.Random, n: int) -> Mat:
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-2, -1, 1, 2])
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return Mat.from_rows(rows)


def test_enumerate_matches_box_oracle_on_random_forms():
    rng = random.Random(20260816)
    for _ in range(40):
        n = rng.choice([2, 2, 3, 3, 4])
        q = random_spd(rng, n)
        bound = Fraction(rng.randrange(1, 26))
        expected = box_oracle(q, bound)
        got = enumerate_up_to(GramForm(q), bound)
        assert dict(got) == expected
        norms = [norm for _, norm in got]
        assert norms == sorted(norms)


def test_enumerate_handles_rational_forms():
    q = GramForm(Mat.from_rows([[Fraction(1, 2)]]))
    got = enumerate_up_to(q, 3)
    assert got == [((1,), Fraction(1, 2)), ((2,), 2)]


def test_enumerate_bound_zero_and_negative():
    q = GramForm(Mat.identity(2))
    assert enumerate_up_to(q, 0) == []
    with pytest.raises(ValueError):
        enumerate_up_to(q, -1)


def test_enumerate_rejects_empty_form():
    with pytest.raises(DimensionError):
        enumerate_up_to(GramForm(Mat(0, 0, ())), 1)


def test_bundled_form_ball_of_radius_three():
    got = enumerate_up_to(triplet.gram_form(1), 3)
    assert got == [((0, 0, 1, 0, 0, 0), 3)]


def test_rep_spectrum_square_lattice():
    spec = rep_spectrum(GramForm(Mat.identity(2)), 25)
    assert spec.count_at(0) == 1
    assert spec.count_at(1) == 4
    assert spec.count_at(2) == 4
    assert spec.count_at(3) == 0
    assert spec.count_at(25) == 12
    assert spec.step == 1
    with pytest.raises(ValueError):
        spec.count_at(26)


def test_rep_spectrum_counts_match_oracle():
    rng = random.Random(99)
    for _ in range(15):
        n = rng.choice([2, 3])
        q = random_spd(rng, n)
        bound = Fraction(rng.randrange(5, 20))
        oracle = box_oracle(q, bound)
        spec = rep_spectrum(GramForm(q), bound)
        tally: dict[Fraction, int] = {}
        for _, norm in oracle.items():
            tally[norm] = tally.get(norm, 0) + 2
        for t, c in spec.entries:
            if t == 0:
                assert c == 1
            else:
                assert c == tally.get(Fraction(t), 0)
        assert sum(tally.values()) + 1 == sum(c for _, c in spec.entries)


def test_rep_spectrum_counts_are_even_above_zero():
    spec = rep_spectrum(triplet.gram_form(2), 12)
    for t, c in spec.entries:
        if t != 0:
            assert c % 2 == 0


def test_rep_spectrum_value_grid_is_complete():
    spec = rep_spectrum(GramForm(Mat.identity(2).scaled(2)), 9)
    assert [t for t, _ in spec.entries] == [0, 2, 4, 6, 8]


def test_rep_spectrum_of_doubled_form_matches_frozen_table():
    spec = rep_spectrum(GramForm(triplet.gram_matrix(1).scaled(2)), triplet.DOUBLED_THRESHOLD)
    table = dict(spec.entries)
    assert table == {t: c for t, c in triplet.REP_TABLE_DOUBLED.items()}
    assert len(spec.entries) == 47


def test_rep_spectrum_scaling_invariance():
    rng = random.Random(3)
    q = random_spd(rng, 3)
    base = rep_spectrum(GramForm(q), 11)
    scaled = rep_spectrum(GramForm(q.scaled(3)), 33)
    assert [(3 * t, c) for t, c in base.entries] == list(scaled.entries)


def test_rep_spectrum_congruence_invariance():
    rng = random.Random(14)
    for _ in range(10):
        q = random_spd(rng, 3)
        u = random_unimodular(rng, 3)
        conj = u.transpose() @ q @ u
        assert rep_spectrum(GramForm(q), 9).entries == rep_spectrum(GramForm(conj), 9).entries


def test_rep_spectrum_rational_grid():
    spec = rep_spectrum(GramForm(Mat.from_rows([[Fraction(1, 2)]])), 3)
    assert spec.step == Fraction(1, 2)
    assert dict(spec.entries) == {
        0: 1,
        Fraction(1, 2): 2,
        1: 0,
        Fraction(3, 2): 0,
        2: 2,
        Fraction(5, 2): 0,
        3: 0,
    }


def _choir_pair_shells():
    members = choir_family((triplet.lattice(1), triplet.lattice(2), triplet.lattice(3)), copies=2)
    q1, q2 = gram(members[0]), gram(members[1])
    return enumeration._shells(q1, [q2.matrix.at(j, j) for j in range(q2.dimension)])


@pytest.mark.parametrize(
    "walk, tried",
    [
        (lambda: enumerate_up_to(triplet.gram_form(1), 12), 40),
        (lambda: rep_spectrum(double_form(triplet.gram_form(1)), 92), 2026),
        (_choir_pair_shells, 164309),
    ],
    ids=["enumerate", "rep_spectrum", "choir-shells"],
)
def test_walk_budget_counts_the_same_points(monkeypatch, walk, tried):
    # tried is the smallest budget each walk passes: the points it tries at
    # x_0, each level-1 point counting one in the shell walk
    monkeypatch.setattr(enumeration, "_WALK_BUDGET", tried)
    walk()
    monkeypatch.setattr(enumeration, "_WALK_BUDGET", tried - 1)
    with pytest.raises(ValueError, match="enumeration budget exceeded"):
        walk()


@pytest.mark.parametrize("matrix", [Mat.from_rows([[1, 0], [0, 10**14]]), Mat.identity(1)], ids=["diag", "1x1"])
def test_one_run_past_the_budget_is_never_walked(matrix):
    # the one x_0 run of either ball holds about 3.2 million points
    emitted = []
    with pytest.raises(ValueError, match="enumeration budget exceeded"):
        enumeration._walk(GramForm(matrix), Fraction(10**13), lambda scaled, coords: emitted.append(scaled))
    assert emitted == []


@pytest.mark.parametrize("walk", [enumerate_up_to, rep_spectrum])
def test_walk_checks_each_norm_against_the_elimination_product(walk):
    q = GramForm(triplet.gram_matrix(1))  # a fresh form, not the shared cached one
    h, (urows, minors, s) = q._reduction
    urows = [list(row) for row in urows]
    urows[0][1] += 1
    q.__dict__["_reduction"] = h, (urows, minors, s)  # where cached_property keeps it
    with pytest.raises(ArithmeticError, match="scaled norm is not a multiple"):
        walk(q, 12)


def test_rep_spectrum_counts_on_the_value_grid():
    # 10**4 grid values up to 10**10: a count per integer up to the bound
    # would be 10**10 slots.  The bound is on what the call holds beyond
    # the spectrum it returns.
    q = GramForm(Mat.identity(2).scaled(10**6))
    tracemalloc.start()
    try:
        spec = rep_spectrum(q, 10**10)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    unit = rep_spectrum(GramForm(Mat.identity(2)), 10**4)
    assert spec.entries == tuple((10**6 * t, c) for t, c in unit.entries)
    assert (spec.step, spec.bound) == (10**6, 10**10)
    assert peak - kept < 10**6


def test_a_spectrum_holds_only_its_counts():
    # the 10,001 counts take about 80 KB as a tuple; keeping each grid value
    # beside its count, as a 2-tuple, took 0.96 MB
    q = GramForm(Mat.identity(2).scaled(10**6))
    tracemalloc.start()
    try:
        spec = rep_spectrum(q, 10**10)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(spec.entries) == 10_001
    assert kept < 300_000


def test_a_walk_leaves_only_its_spectrum():
    # with the cyclic GC off, nothing of the walk outlives rep_spectrum:
    # its count list of 10,001 slots stayed alive, 81 KB, until a collection
    q = GramForm(Mat.identity(2).scaled(10**6))
    rep_spectrum(q, 10**10)  # the form's reduction, cached on it
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        spec = rep_spectrum(q, 10**10)
        assert len(spec.counts) == 10_001
        del spec
        left = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert left < 4096


def test_shortest_vectors_square_lattice():
    vl = shortest_vectors(Lattice(Mat.identity(2)))
    assert vl.norm == 1
    assert vl.vectors == ((1, 0), (0, 1))
    assert len(vl) == 2


def test_shortest_vectors_of_bundled_lattices():
    vl = shortest_vectors(triplet.lattice(1))
    assert vl.norm == 3
    assert vl.vectors == (triplet.V1,)
    for i in (2, 3):
        assert shortest_vectors(triplet.lattice(i)).norm == 3


def test_shortest_vectors_skewed_basis():
    # same lattice as Z^2, heavily skewed basis
    l = Lattice(Mat.from_rows([[1, 7], [0, 1]]))
    vl = shortest_vectors(l)
    assert vl.norm == 1
    assert set(vl.vectors) == {(1, 0), (0, 1)}


def test_independent_ladder_square_lattice_orders_by_leading_index():
    stages = independent_ladder(Lattice(Mat.identity(2)), 2)
    assert [s.norm for s in stages] == [1, 1]
    assert stages[0].vectors == ((1, 0),)
    assert stages[1].vectors == ((0, 1),)


def test_independent_ladder_rejects_bad_count():
    with pytest.raises(Exception):
        independent_ladder(Lattice(Mat.identity(2)), 3)
    with pytest.raises(Exception):
        independent_ladder(Lattice(Mat.identity(2)), 0)


def test_independent_ladder_of_first_bundled_lattice():
    stages = independent_ladder(triplet.lattice(1), 6)
    assert tuple(s.norm for s in stages) == triplet.LADDER_NORMS
    expected_singletons = {
        3: triplet.V1,
        4: triplet.V2,
        5: triplet.V3,
        8: triplet.V5,
        10: triplet.V6,
    }
    for stage in stages:
        if stage.norm == 7:
            assert set(stage.vectors) == {triplet.V4, triplet.W4}
        else:
            assert len(stage) == 1
            assert stage.vectors[0] == expected_singletons[stage.norm]


def test_ladder_stage_five_is_pinned_by_uniqueness():
    # one norm-8 pair, and only one, extends the span of the first four
    # stages; a near-miss variant of it is not even a lattice vector
    l = triplet.lattice(1)
    inverse = l.basis.inverse()
    assert all(x.denominator == 1 for x in inverse.apply(triplet.V5))
    assert not all(x.denominator == 1 for x in inverse.apply((1, 0, 1, 2, 1, -1)))
    stages = independent_ladder(l, 6)
    assert stages[4].vectors == (triplet.V5,)


def test_ladder_and_shortest_vectors_match_fraction_oracle():
    rng = random.Random(20261018)
    lattices = [triplet.lattice(i) for i in (1, 2, 3)]
    while len(lattices) < 43:
        n = rng.randint(1, 5)
        basis = Mat.from_rows([[Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)])
        if det(basis) != 0:
            lattices.append(Lattice(basis))
    for l in lattices:
        assert shortest_vectors(l) == fraction_shortest_vectors(l)
        for count in range(1, l.dimension + 1):
            assert independent_ladder(l, count) == fraction_ladder(l, count)


@pytest.mark.parametrize("walk", [enumerate_up_to, rep_spectrum])
def test_form_and_enumeration_eliminate_once(monkeypatch, walk):
    # the GramForm gate's Bareiss data is the walk's: one elimination in all
    calls = []
    real = linalg.fraction_free_upper

    def counted(rows):
        calls.append(len(rows))
        return real(rows)

    for module in [m for name, m in sys.modules.items() if name.startswith("toriso")]:
        if getattr(module, "fraction_free_upper", None) is real:
            monkeypatch.setattr(module, "fraction_free_upper", counted)
    for matrix in (triplet.gram_matrix(1), Mat.from_rows([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 3), 1]])):
        calls.clear()
        walk(GramForm(matrix), 12)
        assert calls == [matrix.rows]


def test_certify_and_search_read_det_from_the_gate(monkeypatch):
    # det q is minors[n] / s^n of the gate's elimination: neither certify
    # nor the search eliminates a form beyond its GramForm gate (the search
    # is given its eigenvalue bound, whose bisection eliminates, and makes
    # the one elimination of q1 - lambda I that tests that bound), and
    # certify walks the forms it is given, building no doubled form
    q1, q2 = triplet.gram_form(1), triplet.gram_form(2)
    dets = (det(q1.matrix), det(q2.matrix))
    calls = dict.fromkeys(("_positive_definite_data", "fraction_free_upper", "det"), 0)

    def counting(name, real):
        def counted(*args):
            calls[name] += 1
            return real(*args)

        return counted

    reals = {name: getattr(linalg, name) for name in calls}
    for module in [m for name, m in sys.modules.items() if name.startswith("toriso")]:
        for name, real in reals.items():
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counting(name, real))
    assert certify(q1, q2).dets == dets
    assert calls == {"_positive_definite_data": 0, "fraction_free_upper": 0, "det": 0}
    calls.update(dict.fromkeys(calls, 0))
    assert not integral_equivalence(q1, q2, lambda_bound=Fraction(263, 400)).found
    assert calls == {"_positive_definite_data": 0, "fraction_free_upper": 1, "det": 0}


def test_a_lattice_is_eliminated_and_reduced_once(monkeypatch):
    # the lattice's reduced basis is its Gram form's own LLL reduction: one
    # gate elimination and one LLL per call
    calls = dict.fromkeys(("fraction_free_upper", "_lll"), 0)

    def counting(name, real):
        def counted(*args):
            calls[name] += 1
            return real(*args)

        return counted

    reals = {name: getattr(linalg, name) for name in calls}
    for module in [m for name, m in sys.modules.items() if name.startswith("toriso")]:
        for name, real in reals.items():
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counting(name, real))
    l = triplet.lattice(1)
    for call in (decompose, shortest_vectors, lambda l: independent_ladder(l, 6)):
        calls.update(dict.fromkeys(calls, 0))
        call(l)
        assert calls == {"fraction_free_upper": 1, "_lll": 1}


def test_vector_list_is_frozen():
    vl = VectorList(norm=1, vectors=((1, 0),))
    with pytest.raises(Exception):
        vl.norm = 2


def test_rep_spectrum_type_round_trip():
    spec = rep_spectrum(GramForm(Mat.identity(1)), 4)
    assert isinstance(spec, RepSpectrum)
    assert spec.bound == 4
    assert spec.count_at(4) == 2
