import random
from fractions import Fraction

import pytest

from spectra_oracles import direct_sum_certify
from toriso.codes import LinearCode, lift
from toriso.enumeration import rep_spectrum
from toriso.formats import certificate_text
from toriso.lattices import GramForm, double_form, gram
from toriso.linalg import DimensionError, Mat, ShapeError
from toriso import spectra, triplet
from toriso.spectra import IsoCertificate, Verdict, certify, hecke_threshold, mu0


@pytest.mark.parametrize(
    "n,expected",
    [(1, 1), (2, 3), (4, 6), (9, 12), (30, 72), (100, 180), (97, 98)],
)
def test_mu0_values(n, expected):
    assert mu0(n) == expected


def test_mu0_rejects_nonpositive():
    with pytest.raises(ValueError):
        mu0(0)


def test_threshold_twice_identity():
    assert hecke_threshold(GramForm(Mat.identity(2).scaled(2))) == 3


def test_threshold_of_doubled_bundled_forms():
    for i in (1, 2, 3):
        q = double_form(triplet.gram_form(i))
        assert hecke_threshold(q) == triplet.DOUBLED_THRESHOLD


def test_threshold_is_the_cutoff_not_the_table_size():
    # the frozen table happens to have 47 even entries; the cutoff is 92
    q = double_form(triplet.gram_form(1))
    assert hecke_threshold(q) == 92
    assert len(triplet.REP_TABLE_DOUBLED) == 47


def test_certify_computes_each_level_once(monkeypatch):
    # each level costs a Fraction inverse; the threshold reuses the first
    calls = []
    level = spectra._level
    monkeypatch.setattr(spectra, "_level", lambda m: calls.append(m) or level(m))
    cert = certify(double_form(triplet.gram_form(1)), double_form(triplet.gram_form(2)))
    assert len(calls) == 2
    assert cert.threshold == hecke_threshold(GramForm(calls[0])) == 92


def test_threshold_input_validation():
    with pytest.raises(ShapeError):
        hecke_threshold(triplet.gram_form(1))  # odd entries
    with pytest.raises(DimensionError):
        hecke_threshold(GramForm(Mat.from_rows([[2]])))  # odd dimension
    with pytest.raises(ShapeError):
        hecke_threshold(GramForm(Mat.from_rows([[Fraction(1, 2), 0], [0, 2]])))


def test_certify_bundled_pair_is_isospectral():
    q1 = double_form(triplet.gram_form(1))
    q2 = double_form(triplet.gram_form(2))
    cert = certify(q1, q2)
    assert cert.verdict is Verdict.ISOSPECTRAL
    assert cert.threshold == 92
    assert cert.compared_up_to == 92
    assert cert.levels == (100, 100)
    assert cert.dets == (triplet.DOUBLED_DET, triplet.DOUBLED_DET)
    assert cert.first_difference is None
    assert not cert.doubled and not cert.summed


def test_certify_doubles_odd_forms():
    cert = certify(triplet.gram_form(1), triplet.gram_form(3))
    assert cert.verdict is Verdict.ISOSPECTRAL
    assert cert.doubled
    assert cert.threshold == 92


def test_certify_spot_check_window_beyond_cutoff():
    # extra evidence only: agreement persists past the certified range
    q1 = double_form(triplet.gram_form(1))
    q2 = double_form(triplet.gram_form(2))
    hi = triplet.DOUBLED_THRESHOLD + 20
    assert rep_spectrum(q1, hi).entries == rep_spectrum(q2, hi).entries


def test_certify_detects_determinant_mismatch():
    cert = certify(GramForm(Mat.identity(2)), GramForm(Mat.identity(2).scaled(2)))
    assert cert.verdict is Verdict.NOT_ISOSPECTRAL
    assert "determinants differ" in cert.notes


def test_certify_dimension_mismatch():
    cert = certify(GramForm(Mat.identity(2)), GramForm(Mat.identity(4)))
    assert cert.verdict is Verdict.NOT_ISOSPECTRAL


def test_certify_level_mismatch_falls_back_to_scan():
    a = GramForm(Mat.from_rows([[1, 0], [0, 4]]))
    b = GramForm(Mat.from_rows([[2, 0], [0, 2]]))
    cert = certify(a, b)
    assert cert.verdict is Verdict.NOT_ISOSPECTRAL
    assert cert.first_difference is not None


def test_certify_capped_comparison_is_inconclusive():
    q1 = double_form(triplet.gram_form(1))
    q2 = double_form(triplet.gram_form(2))
    cert = certify(q1, q2, max_compare_t=16)
    assert cert.verdict is Verdict.INCONCLUSIVE
    assert cert.compared_up_to == 16
    assert cert.first_difference is None


def test_certify_detects_perturbed_form():
    rows = [list(r) for r in triplet.Q3_ROWS]
    rows[0][0] += 2
    cert = certify(triplet.gram_form(3), GramForm(Mat.from_rows(rows)))
    assert cert.verdict is Verdict.NOT_ISOSPECTRAL


def test_certify_rational_forms_share_verdict():
    a = GramForm(triplet.gram_matrix(1).scaled(Fraction(1, 3)))
    b = GramForm(triplet.gram_matrix(2).scaled(Fraction(1, 3)))
    cert = certify(a, b)
    assert cert.verdict is Verdict.ISOSPECTRAL
    assert cert.scaled_by == 3


def test_certify_self_is_isospectral_for_random_conjugates():
    rng = random.Random(42)
    for _ in range(8):
        n = 2
        m = Mat.from_rows([[rng.randrange(-3, 4) for _ in range(n)] for _ in range(n)])
        try:
            q = GramForm(m.transpose() @ m)
        except Exception:
            continue
        u_rows = [[1, rng.randrange(-2, 3)], [0, 1]]
        u = Mat.from_rows(u_rows)
        conj = GramForm(u.transpose() @ q.matrix @ u)
        cert = certify(q, conj)
        assert cert.verdict is Verdict.ISOSPECTRAL


def test_certify_odd_dimension_uses_direct_sum():
    a = GramForm(Mat.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    cert = certify(a, a)
    assert cert.verdict is Verdict.ISOSPECTRAL
    assert cert.summed


def test_certify_odd_dimension_detects_difference_cheaply():
    a = GramForm(Mat.from_rows([[1]]))
    b = GramForm(Mat.from_rows([[1]]))
    assert certify(a, b).verdict is Verdict.ISOSPECTRAL
    c = GramForm(Mat.from_rows([[4]]))
    cert = certify(GramForm(Mat.from_rows([[2, 1], [1, 2]])), GramForm(Mat.from_rows([[1, 0], [0, 3]])))
    assert cert.verdict is Verdict.NOT_ISOSPECTRAL


def test_certificate_is_frozen():
    cert = certify(GramForm(Mat.identity(2)), GramForm(Mat.identity(2)))
    assert isinstance(cert, IsoCertificate)
    with pytest.raises(Exception):
        cert.verdict = Verdict.INCONCLUSIVE


# two lifted (5, 5, 2) codes, one image of the first under a signed
# coordinate permutation, and a code with another weight distribution
CODE_5 = LinearCode(5, 5, ((1, 0, 1, 2, 3), (0, 1, 2, 4, 1)))
CODE_5_IMAGE = LinearCode(5, 5, ((1, 0, 2, 4, 4), (0, 1, 4, 3, 3)))
CODE_5_OTHER = LinearCode(5, 5, ((1, 0, 1, 1, 3), (0, 1, 2, 4, 4)))


def _form(rows):
    return GramForm(Mat.from_rows(rows))


def _conjugate(q, u_rows):
    u = Mat.from_rows(u_rows)
    return GramForm(u.transpose() @ q.matrix @ u)


ODD_PAIRS = [
    # (a, b, certify keywords, verdict, route): route names what decides,
    # "raw" a step before any squaring (determinants or the raw n-dim
    # counts), "squared" the counts of q + q, "levels-differ" the scan
    # without a shared cutoff
    pytest.param(_form([[3]]), _form([[3]]), {}, Verdict.ISOSPECTRAL, "squared", id="1-isospectral"),
    pytest.param(_form([["1/3"]]), _form([["1/3"]]), {}, Verdict.ISOSPECTRAL, "squared", id="1-rational"),
    pytest.param(_form([[1]]), _form([[1]]), {"max_compare_t": 2}, Verdict.INCONCLUSIVE, "squared", id="1-capped"),
    pytest.param(_form([[2]]), _form([[3]]), {}, Verdict.NOT_ISOSPECTRAL, "raw", id="1-dets-differ"),
    pytest.param(
        _form([[2, -1, 0], [-1, 3, 0], [0, 0, 2]]),
        _conjugate(_form([[2, -1, 0], [-1, 3, 0], [0, 0, 2]]), [[1, 2, 0], [0, 1, -1], [1, 2, 1]]),
        {},
        Verdict.ISOSPECTRAL,
        "squared",
        id="3-isospectral",
    ),
    pytest.param(
        _form([[1, 0, 0], [0, 1, 0], [0, 0, 4]]),
        _form([[1, 0, 0], [0, 2, 0], [0, 0, 2]]),
        {},
        Verdict.NOT_ISOSPECTRAL,
        "raw",
        id="3-raw-spectra-differ",
    ),
    pytest.param(
        _form([[2, -1, 0], [-1, 3, 0], [0, 0, 2]]),
        _form([[2, -1, -1], [-1, 4, 0], [-1, 0, 2]]),
        {"fallback_scan_cap": 2},
        Verdict.NOT_ISOSPECTRAL,
        "squared",
        id="3-squared-spectra-differ",
    ),
    pytest.param(
        _form([[4, 0, 0], [0, 3, -1], [0, -1, 1]]),
        _form([[1, 0, 1], [0, 3, 1], [1, 1, 4]]),
        {"fallback_scan_cap": 2},
        Verdict.INCONCLUSIVE,
        "levels-differ",
        id="3-levels-differ",
    ),
    pytest.param(gram(lift(CODE_5)), gram(lift(CODE_5_IMAGE)), {}, Verdict.ISOSPECTRAL, "squared", id="5-lifted-isospectral"),
    pytest.param(gram(lift(CODE_5)), gram(lift(CODE_5_OTHER)), {}, Verdict.NOT_ISOSPECTRAL, "raw", id="5-lifted-raw-differ"),
    pytest.param(
        gram(lift(CODE_5)),
        gram(lift(CODE_5_OTHER)),
        {"fallback_scan_cap": 4},
        Verdict.NOT_ISOSPECTRAL,
        "squared",
        id="5-lifted-squared-differ",
    ),
]


@pytest.mark.parametrize("a, b, kwargs, verdict, route", ODD_PAIRS)
def test_odd_dimension_certificate_matches_direct_sum_oracle(a, b, kwargs, verdict, route):
    cert = certify(a, b, **kwargs)
    assert cert.verdict is verdict
    assert cert.summed is (route != "raw")
    assert (cert.levels is not None and cert.levels[0] != cert.levels[1]) is (route == "levels-differ")
    assert certificate_text(cert) == certificate_text(direct_sum_certify(a, b, **kwargs))


def test_odd_certify_stays_in_the_input_dimension(monkeypatch):
    # q + q is never formed: every enumeration and level is n-dimensional,
    # and each form is enumerated once, the raw pre-scan reading a prefix
    calls = []
    for name, size in (("rep_spectrum", lambda q: q.dimension), ("_level", lambda m: m.rows)):
        real = getattr(spectra, name)
        monkeypatch.setattr(spectra, name, lambda q, *rest, real=real, name=name, size=size: calls.append((name, size(q))) or real(q, *rest))
    for a, b in [(CODE_5, CODE_5_IMAGE), (triplet.code(1), triplet.code(2))]:
        calls.clear()
        cert = certify(gram(lift(a)), gram(lift(b)))
        assert cert.verdict is Verdict.ISOSPECTRAL
        assert sorted(calls) == [("_level", a.length)] * 2 + [("rep_spectrum", a.length)] * 2
    assert cert.threshold == triplet.DOUBLED_THRESHOLD and not cert.summed


@pytest.mark.parametrize("case", [6], ids=["3-squared-spectra-differ"])
def test_squares_that_miss_the_raw_difference_raise(monkeypatch, case):
    # the first square gains 2 at value 4, so the squares differ at the raw
    # difference (4 against 6) by 2, not by twice it, and certify raises
    # instead of giving a verdict.  Value 4 is index 4 // step on the first
    # form's grid, in the doubled units
    a, b, kwargs = ODD_PAIRS[case].values[:3]
    step = rep_spectrum(GramForm(a.matrix.scaled(2)), 0).step
    real, calls = spectra._squared_counts, []

    def corrupted(counts):
        out = real(counts)
        calls.append(len(counts))
        if len(calls) == 1:
            out[4 // step] += 2
        return out

    monkeypatch.setattr(spectra, "_squared_counts", corrupted)
    with pytest.raises(ArithmeticError, match="first difference"):
        certify(a, b, **kwargs)
    assert len(calls) == 2


def test_equal_raw_spectra_are_squared_once(monkeypatch):
    # a form against a unimodular conjugate has equal raw counts, which one
    # square serves, with the direct-sum oracle's certificate; raw counts
    # that differ past the pre-scan are squared each
    real, calls = spectra._squared_counts, []
    monkeypatch.setattr(spectra, "_squared_counts", lambda counts: calls.append(len(counts)) or real(counts))
    for case, squares in ((4, 1), (6, 2)):
        a, b, kwargs, verdict, _ = ODD_PAIRS[case].values
        calls.clear()
        cert = certify(a, b, **kwargs)
        assert len(calls) == squares and cert.verdict is verdict
        assert certificate_text(cert) == certificate_text(direct_sum_certify(a, b, **kwargs))


def test_squaring_past_its_budget_raises(monkeypatch):
    # 20 grid values up to the cutoff 38, with counts of at most 8
    a, b, kwargs = ODD_PAIRS[4].values[:3]
    monkeypatch.setattr(spectra, "_SQUARE_BUDGET", 20 * 16 - 1)
    with pytest.raises(ValueError, match="squaring budget exceeded: 20 counts of 16 bits, over 319 bits"):
        certify(a, b, **kwargs)
    monkeypatch.setattr(spectra, "_SQUARE_BUDGET", 20 * 16)
    assert certify(a, b, **kwargs).verdict is Verdict.ISOSPECTRAL
