import random
import sys
from dataclasses import replace
from collections import Counter
from fractions import Fraction

import pytest

from isometry_oracles import eager_integral_equivalence
from linalg_oracles import fraction_apply
from toriso import enumeration
from toriso.isometry import (
    EquivalenceWitness,
    SearchBudgetExceeded,
    SearchStats,
    _verify,
    integral_equivalence,
    norm_caps,
)
from toriso.lattices import GramForm, double_form, level
from toriso.linalg import Mat, det
from toriso import triplet

PUBLISHED_LAMBDA = Fraction(263, 400)
# below the smallest eigenvalue of each triplet form, about 0.706, 0.560, 0.566
SOUND_LAMBDA = {1: PUBLISHED_LAMBDA, 2: Fraction(1, 2), 3: Fraction(1, 2)}
UNSOUND_NOTE = "lambda_bound is not below the smallest eigenvalue of q1, so the caps certify nothing"


def random_spd(rng: random.Random, n: int) -> GramForm:
    while True:
        m = Mat.from_rows([[rng.randrange(-3, 4) for _ in range(n)] for _ in range(n)])
        q = m.transpose() @ m
        try:
            return GramForm(q)
        except Exception:
            continue


def random_unimodular(rng: random.Random, n: int, ops: int = 6) -> Mat:
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(ops):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-1, 1])
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return Mat.from_rows(rows)


def test_norm_caps_published_bound():
    caps = norm_caps(triplet.gram_form(1), triplet.gram_form(2), PUBLISHED_LAMBDA)
    assert caps == (
        Fraction(5600, 263),
        Fraction(2800, 263),
        Fraction(1200, 263),
        Fraction(10000, 263),
        Fraction(10000, 263),
        Fraction(10000, 263),
    )


def test_norm_caps_rejects_nonpositive_bound():
    with pytest.raises(ValueError):
        norm_caps(triplet.gram_form(1), triplet.gram_form(2), 0)


def test_lambda_bound_only_scales_the_reported_caps():
    # the shells are exact, so no verdict rests on a bound: lambda_min(Q1)
    # is about 0.706, and a bound of 100 changes the caps alone, and says
    # that they certify nothing (the command line rejects it)
    q1, q2 = triplet.gram_form(1), triplet.gram_form(2)
    sound = integral_equivalence(q1, q2, lambda_bound=PUBLISHED_LAMBDA)
    loose = integral_equivalence(q1, q2, lambda_bound=100)
    assert not loose.found and loose.stats.caps == norm_caps(q1, q2, 100)
    assert loose.stats.notes == (UNSOUND_NOTE,) and sound.stats.notes == ()
    assert replace(loose.stats, lambda_bound=PUBLISHED_LAMBDA, caps=sound.stats.caps, notes=()) == sound.stats


def test_published_lambda_certifies_the_caps_of_q1_only():
    # 263/400 lies below lambda_min(Q1), about 0.706, but above those of
    # Q2 and Q3, about 0.560 and 0.566; either search still proves the pair
    # non-isometric, and no note speaks of a budget
    forms = {i: triplet.gram_form(i) for i in (1, 2, 3)}
    for i, j in ((1, 2), (2, 3), (3, 1)):
        w = integral_equivalence(forms[i], forms[j], lambda_bound=PUBLISHED_LAMBDA)
        assert not w.found and w.stats.lambda_bound == PUBLISHED_LAMBDA
        assert w.stats.notes == (() if i == 1 else (UNSOUND_NOTE,))
        assert not any("budget" in note for note in w.stats.notes)
        sound = integral_equivalence(forms[i], forms[j], lambda_bound=SOUND_LAMBDA[i])
        assert replace(w.stats, lambda_bound=SOUND_LAMBDA[i], caps=sound.stats.caps, notes=()) == sound.stats


def test_self_equivalence_found_and_verified():
    q = triplet.gram_form(1)
    w = integral_equivalence(q, q)
    assert w.found
    b = w.matrix
    assert b.transpose() @ q.matrix @ b == q.matrix
    assert abs(det(b)) == 1


def test_bundled_pair_is_inequivalent():
    w = integral_equivalence(
        triplet.gram_form(1), triplet.gram_form(2), lambda_bound=PUBLISHED_LAMBDA
    )
    assert not w.found
    assert w.stats.caps[0] == Fraction(5600, 263)
    assert w.stats.nodes > 0
    assert w.stats.lambda_bound == PUBLISHED_LAMBDA


def test_stats_record_certified_bound_when_not_supplied():
    q = triplet.gram_form(1)
    w = integral_equivalence(q, q)
    lam = w.stats.lambda_bound
    # certified internally: positive, and caps follow from it
    assert 0 < lam
    assert w.stats.caps == norm_caps(q, q, lam)
    assert len(w.stats.candidate_counts) == 6
    assert sorted(w.stats.column_order) == list(range(6))


def test_determinant_gate_short_circuits():
    a = GramForm(Mat.identity(2))
    b = GramForm(Mat.identity(2).scaled(2))
    w = integral_equivalence(a, b)
    assert not w.found
    assert w.stats.nodes == 0
    assert "determinants differ" in w.stats.notes


def test_equal_determinant_inequivalent_pair():
    a = GramForm(Mat.from_rows([[1, 0], [0, 4]]))
    b = GramForm(Mat.from_rows([[2, 0], [0, 2]]))
    w = integral_equivalence(a, b)
    assert not w.found
    assert "some required value is not represented" in w.stats.notes


def test_random_conjugates_are_recovered():
    rng = random.Random(2026)
    for _ in range(12):
        n = rng.choice([2, 3])
        q = random_spd(rng, n)
        u = random_unimodular(rng, n)
        conj = GramForm(u.transpose() @ q.matrix @ u)
        w = integral_equivalence(q, conj)
        assert w.found
        b = w.matrix
        assert b.transpose() @ q.matrix @ b == conj.matrix
        assert abs(det(b)) == 1


def test_search_is_symmetric_on_small_inequivalent_pair():
    a = GramForm(Mat.from_rows([[1, 0], [0, 9]]))
    b = GramForm(Mat.from_rows([[3, 0], [0, 3]]))
    assert not integral_equivalence(a, b).found
    assert not integral_equivalence(b, a).found


def test_node_budget_raises():
    with pytest.raises(SearchBudgetExceeded) as exc:
        integral_equivalence(
            triplet.gram_form(1),
            triplet.gram_form(2),
            lambda_bound=PUBLISHED_LAMBDA,
            node_budget=1,
        )
    assert exc.value.stats.nodes == 2
    assert "budget exhausted" in exc.value.stats.notes


def test_verify_raises_on_non_witness():
    # the witness check is a real exception, so it survives python -O
    q = GramForm(Mat.from_rows([[2, 1], [1, 2]]))
    _verify(q, q, Mat.from_rows([[0, 1], [1, 0]]))
    with pytest.raises(ArithmeticError):
        _verify(q, q, Mat.identity(2).scaled(-2))
    with pytest.raises(ArithmeticError):
        _verify(q, GramForm(Mat.from_rows([[2, -1], [-1, 2]])), Mat.identity(2))


def test_witness_type_is_frozen():
    w = EquivalenceWitness(None, SearchStats(None, (), (), (), 0))
    assert not w.found
    with pytest.raises(Exception):
        w.matrix = Mat.identity(2)


def test_search_matches_the_ball_and_filter_oracle():
    # exact-shell walk and lazy products: the same stats and witnesses as
    # shells filtered out of the whole ball with every product up front
    forms = {i: triplet.gram_form(i) for i in (1, 2, 3)}
    for i, j in ((1, 2), (1, 3), (2, 3), (2, 1), (3, 1), (3, 2)):
        got = integral_equivalence(forms[i], forms[j], lambda_bound=SOUND_LAMBDA[i])
        assert not got.found and got.stats.notes == ()
        assert got == eager_integral_equivalence(forms[i], forms[j], lambda_bound=SOUND_LAMBDA[i])
    rng = random.Random(20261018)
    for q in forms.values():
        for _ in range(20):
            u = random_unimodular(rng, 6)
            conj = GramForm(u.transpose() @ q.matrix @ u)
            got = integral_equivalence(conj, q)
            assert got.found
            assert got == eager_integral_equivalence(conj, q)


def test_search_does_not_enumerate_the_ball(monkeypatch):
    def refuse(q, bound):
        raise RuntimeError("integral_equivalence enumerated a ball")

    real = enumeration.enumerate_up_to
    for module in [m for name, m in sys.modules.items() if name.startswith("toriso")]:
        if getattr(module, "enumerate_up_to", None) is real:
            monkeypatch.setattr(module, "enumerate_up_to", refuse)
    w = integral_equivalence(triplet.gram_form(1), triplet.gram_form(2), lambda_bound=PUBLISHED_LAMBDA)
    assert not w.found and w.stats.nodes > 0
    assert integral_equivalence(triplet.gram_form(3), triplet.gram_form(3)).found


def test_exact_rechecks_take_no_fraction_products(monkeypatch):
    # the witness check, integral products and level run on integer rows
    q = triplet.gram_form(2)
    u = random_unimodular(random.Random(9), 6)
    conj = GramForm(u.transpose() @ q.matrix @ u)
    w = integral_equivalence(conj, q)
    assert w.found
    doubled = [double_form(triplet.gram_form(i)) for i in (1, 2, 3)]
    levels = [level(d) for d in doubled]
    image = fraction_apply(q.matrix, triplet.V1)
    calls = Counter()
    for name in ("__mul__", "__rmul__"):

        def counted(a, b, real=getattr(Fraction, name), name=name):
            calls[name] += 1
            return real(a, b)

        monkeypatch.setattr(Fraction, name, counted)
    assert Fraction(1, 2) * Fraction(1, 3) == 2 * Fraction(1, 12)
    assert calls == {"__mul__": 1, "__rmul__": 1}
    calls.clear()
    _verify(conj, q, w.matrix)
    assert w.matrix.transpose() @ conj.matrix @ w.matrix == q.matrix
    assert q.matrix.apply(triplet.V1) == image
    assert [level(d) for d in doubled] == levels
    assert not calls
