import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import toriso
from toriso import formats, triplet
from toriso.cli import main
from toriso.codes import lift, weight_distribution
from toriso.decomposition import decompose
from toriso.enumeration import rep_spectrum
from toriso.isometry import integral_equivalence
from toriso.lattices import double_form, dual
from toriso.linalg import Mat
from toriso.spectra import certify


@pytest.fixture
def demo_files(tmp_path):
    files = {}
    files["q1x2"] = tmp_path / "q1x2.txt"
    files["q1x2"].write_text(formats.format_matrix(double_form(triplet.gram_form(1)).matrix, kind="gram"))
    files["q2x2"] = tmp_path / "q2x2.txt"
    files["q2x2"].write_text(formats.format_matrix(double_form(triplet.gram_form(2)).matrix, kind="gram"))
    files["q1"] = tmp_path / "q1.txt"
    files["q1"].write_text(formats.format_matrix(triplet.gram_form(1).matrix, kind="gram"))
    files["a1"] = tmp_path / "a1.txt"
    files["a1"].write_text(formats.format_matrix(triplet.basis_matrix(1), kind="lattice"))
    files["c1"] = tmp_path / "c1.txt"
    files["c1"].write_text(formats.format_code(triplet.code(1)))
    files["id2"] = tmp_path / "id2.txt"
    files["id2"].write_text("2 2\n1 0\n0 1\n")
    return files


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(*argv, flags=(), timeout=15):
    # a fresh interpreter, so a crash shows as a traceback and a hang as a timeout
    src = str(Path(toriso.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, *flags, "-m", "toriso.cli", *argv], env=env, capture_output=True, text=True, timeout=timeout
    )


def test_rep_matches_library_serialization(demo_files, capsys):
    code, out, _ = run(capsys, "rep", str(demo_files["q1x2"]), "--max", "16")
    assert code == 0
    assert out == formats.format_spectrum(rep_spectrum(double_form(triplet.gram_form(1)), 16))
    assert len(out.splitlines()) == 9


def test_rep_identity_bound_zero(demo_files, capsys):
    code, out, _ = run(capsys, "rep", str(demo_files["id2"]), "--max", "0")
    assert code == 0
    assert out == "0\t1\n"


def test_rep_identity_count_at_25(demo_files, capsys):
    code, out, _ = run(capsys, "rep", str(demo_files["id2"]), "--max", "25")
    assert code == 0
    assert "25\t12" in out.splitlines()


def test_rep_json(demo_files, capsys):
    code, out, _ = run(capsys, "rep", str(demo_files["id2"]), "--max", "4", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["entries"][0] == [0, 1]


def test_rep_rejects_bad_input(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("nonsense\n")
    code, _, err = run(capsys, "rep", str(bad), "--max", "4")
    assert code == 2
    assert "error:" in err
    code, _, _ = run(capsys, "rep", str(tmp_path / "missing.txt"), "--max", "4")
    assert code == 2


def test_isospec_affirmative(demo_files, capsys):
    code, out, _ = run(capsys, "isospec", str(demo_files["q1x2"]), str(demo_files["q2x2"]))
    assert code == 0
    want = certify(double_form(triplet.gram_form(1)), double_form(triplet.gram_form(2)))
    assert out == formats.certificate_text(want)


def test_isospec_negative_exit(demo_files, capsys):
    code, out, _ = run(capsys, "isospec", str(demo_files["q1x2"]), str(demo_files["id2"]))
    assert code == 1
    assert out.startswith("verdict: NotIsospectral")


def test_isospec_inconclusive_exit(demo_files, capsys):
    code, out, _ = run(capsys, "isospec", str(demo_files["q1x2"]), str(demo_files["q2x2"]), "--max-t", "16")
    assert code == 1
    assert out.startswith("verdict: Inconclusive")


def test_isometry_found_emits_matrix(demo_files, capsys):
    code, out, _ = run(capsys, "isometry", str(demo_files["q1"]), str(demo_files["q1"]))
    assert code == 0
    witness = integral_equivalence(triplet.gram_form(1), triplet.gram_form(1))
    assert out == formats.format_matrix(witness.matrix)


def test_isometry_not_found_emits_stats(demo_files, capsys):
    code, out, _ = run(capsys, "isometry", str(demo_files["q1x2"]), str(demo_files["q2x2"]))
    assert code == 1
    witness = integral_equivalence(
        double_form(triplet.gram_form(1)), double_form(triplet.gram_form(2))
    )
    assert out == formats.witness_text(witness)


def test_isometry_takes_a_bound_below_the_spectrum(demo_files, capsys):
    # lambda_min(2 * Q1) is about 1.41; the bound is checked, then reported
    code, out, _ = run(capsys, "isometry", str(demo_files["q1x2"]), str(demo_files["q2x2"]), "--lambda-bound", "1")
    assert code == 1
    assert "lambda_bound: 1\n" in out


def test_isometry_budget_exit(demo_files, capsys):
    code, _, err = run(capsys, "isometry", str(demo_files["q1x2"]), str(demo_files["q1x2"]), "--node-budget", "2")
    assert code == 2
    assert "budget" in err


def test_decompose_report(demo_files, capsys):
    code, out, _ = run(capsys, "decompose", str(demo_files["a1"]))
    assert code == 0
    assert out == formats.decomposition_text(decompose(triplet.lattice(1)))


def test_dual_emits_basis(demo_files, capsys):
    code, out, _ = run(capsys, "dual", str(demo_files["a1"]))
    assert code == 0
    assert out == formats.format_matrix(dual(triplet.lattice(1)).basis, kind="lattice")


def test_lift_project_round_trip(demo_files, tmp_path, capsys):
    code, out, _ = run(capsys, "lift", str(demo_files["c1"]))
    assert code == 0
    assert out == formats.format_matrix(lift(triplet.code(1)).basis, kind="lattice")
    lifted = tmp_path / "lifted.txt"
    lifted.write_text(out)
    code, out, _ = run(capsys, "project", str(lifted), "--q", "5")
    assert code == 0
    assert out == formats.format_code(triplet.code(1))


def test_project_accepts_integer_lattice(demo_files, capsys):
    # 5Z^2 lies inside Z^2, so the identity projects to the full code
    code, out, _ = run(capsys, "project", str(demo_files["id2"]), "--q", "5")
    assert code == 0
    assert out.startswith("5 2 2\n")


def test_project_rejects_lattice_without_qzn(tmp_path, capsys):
    skew = tmp_path / "skew.txt"
    skew.write_text("2 2\n7 0\n0 1\n")  # 5*e1 is not in 7Z x Z
    code, _, err = run(capsys, "project", str(skew), "--q", "5")
    assert code == 2
    assert "error:" in err


def test_weightdist_matches_serializer(demo_files, capsys):
    code, out, _ = run(capsys, "weightdist", str(demo_files["c1"]))
    assert code == 0
    assert out == formats.weight_distribution_text(weight_distribution(triplet.code(1)))


def test_codesearch_small_space(tmp_path, capsys):
    out_dir = tmp_path / "results"
    code, out, _ = run(
        capsys, "codesearch", "--q", "2", "--n", "2", "--k", "1", "--min-tuple", "2", "--out", str(out_dir)
    )
    assert code == 0
    assert "codes_scanned: 3" in out
    assert "collisions: 0" in out
    assert (out_dir / "manifest.txt").read_text() == out
    assert json.loads((out_dir / "manifest.json").read_text())["collisions"] == []


def test_codesearch_rejects_min_tuple_one(tmp_path, capsys):
    code, _, err = run(
        capsys, "codesearch", "--q", "2", "--n", "2", "--k", "1", "--min-tuple", "1", "--out", str(tmp_path / "x")
    )
    assert code == 2
    assert "min_tuple" in err


def test_codesearch_cap_exceeded(tmp_path, capsys):
    code, _, err = run(
        capsys, "codesearch", "--q", "5", "--n", "8", "--k", "4", "--out", str(tmp_path / "x")
    )
    assert code == 2
    assert "guard" in err


@pytest.mark.parametrize(
    "q, n, k, problem",
    [
        # one code, but its 6,859 words make a 6,859 x 6,859 table of int64
        # coefficient products (376 MB) before the uint32 term table
        ("19", "3", "3", "-byte table, above the"),
        # (q - 1)**2 = 36,100 would wrap the orbit's int16 row reduction
        ("191", "2", "1", "16-bit words"),
        # one code, but its 14,641 words make a 14,641 x 14,641 term table
        ("11", "4", "4", "-byte table, above the"),
        # 10! monomial images of one code, about 719 MB by the orbit estimate
        ("3", "10", "1", "one monomial orbit needs about"),
    ],
)
def test_codesearch_rejects_oversized_tables(tmp_path, capsys, q, n, k, problem):
    code, _, err = run(capsys, "codesearch", "--q", q, "--n", n, "--k", k, "--family", "systematic", "--out", str(tmp_path / "x"))
    assert code == 2
    assert err.startswith("error:") and problem in err
    assert not (tmp_path / "x").exists()


def test_codesearch_refuses_word_sigs_past_63_bits(tmp_path):
    # the sigs of (83, 2, 1) are 41 base-3 digits, up to 2 * 3**40, a
    # 65-bit number that would wrap the int64 term table
    done = run_process("codesearch", "--q", "83", "--n", "2", "--k", "1", "--family", "all", "--out", str(tmp_path / "x"))
    assert done.returncode == 2
    assert done.stderr.startswith("error:") and "63 bits" in done.stderr and "Traceback" not in done.stderr
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "n, k, problem",
    [
        # k * (n - k) = 4,000,000 free positions: 2**4000000 systematic codes
        ("4000", "2000", "guard"),
        # one code, but k * n = 32767**2 digits cannot be packed into an id
        ("32767", "32767", "64-bit pack"),
    ],
)
def test_codesearch_rejects_huge_spaces_before_building_them(tmp_path, n, k, problem):
    done = run_process("codesearch", "--q", "2", "--n", n, "--k", k, "--family", "systematic", "--out", str(tmp_path / "x"))
    assert done.returncode == 2
    assert done.stderr.startswith("error:") and problem in done.stderr
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "argv, problem",
    [
        (("rep", "id2", "--max", "1/0"), "zero denominator"),
        (("rep", "id2", "--max", "-1"), "nonnegative"),
        (("rep", "id2", "--max", "1e3"), "bad entry"),
        (("isometry", "id2", "id2", "--lambda-bound", "1/0"), "zero denominator"),
        (("isometry", "id2", "id2", "--lambda-bound", "-1"), "positive"),
        (("isometry", "id2", "id2", "--lambda-bound", "2"), "strictly below the smallest eigenvalue"),
        (("isometry", "id2", "id2", "--lambda-bound", "1"), "strictly below the smallest eigenvalue"),
        (("project", "a1", "--q", "0"), "at least 2"),
        (("project", "a1", "--q", "1"), "at least 2"),
        (("isospec", "id2", "id2", "--max-t", "-3"), "nonnegative"),
    ],
    ids=lambda x: " ".join(x) if isinstance(x, tuple) else None,
)
def test_hostile_input_exits_2_without_traceback(demo_files, argv, problem):
    done = run_process(*(str(demo_files.get(a, a)) for a in argv))
    assert done.returncode == 2
    assert done.stderr.startswith("error:") and problem in done.stderr
    assert "Traceback" not in done.stderr


def test_codesearch_jobs_below_one_exits_2(tmp_path, capsys):
    code, out, err = run(capsys, "codesearch", "--q", "3", "--n", "4", "--k", "2", "--jobs", "0", "--out", str(tmp_path / "x"))
    assert code == 2 and out == ""
    assert err == "error: jobs must be at least 1\n"
    assert not (tmp_path / "x").exists()


def test_huge_prime_modulus_does_not_hang(tmp_path):
    # trial division would test about 10**9 divisors of this prime; the
    # expected outputs are written out so that no step here runs in-process
    q = 10**18 + 3
    code = tmp_path / "code.txt"
    code.write_text(f"{q} 3 2\n1 0 5\n0 1 7\n")
    basis = f"# lattice\n3 3\n1 0 0\n0 1 0\n5 7 {q}\n"
    done = run_process("lift", str(code), timeout=30)
    assert (done.returncode, done.stdout) == (0, basis)
    lattice = tmp_path / "lattice.txt"
    lattice.write_text(basis)
    done = run_process("project", str(lattice), "--q", str(q), timeout=30)
    assert (done.returncode, done.stdout) == (0, f"{q} 3 2\n1 0 5\n0 1 7\n")
    done = run_process("weightdist", str(code), timeout=30)
    assert done.returncode == 2 and "above the cap" in done.stderr


@pytest.mark.parametrize(
    "bound, problem",
    [("100000000", "grid values"), ("2000", "points tried")],
    ids=["grid too long to list", "ball too large to walk"],
)
def test_rep_huge_bound_exits_2_instead_of_hanging(tmp_path, bound, problem):
    form = tmp_path / "id4.txt"
    form.write_text(formats.format_matrix(Mat.identity(4), kind="gram"))
    done = run_process("rep", str(form), "--max", bound)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error: enumeration budget exceeded") and problem in done.stderr


def test_forms_skewed_by_huge_unimodular_maps_still_answer(tmp_path):
    # U has entries near 10**9 and U^T Q1 U entries near 10**21; the walk
    # runs in the LLL-reduced basis, so both verbs answer at once
    n = 6
    upper = Mat.from_rows([[int(i == j) or (10**9 - 7 * i - j if j > i else 0) for j in range(n)] for i in range(n)])
    lower = Mat.from_rows([[int(i == j) or (-1) ** (i + j) * (j < i) for j in range(n)] for i in range(n)])
    u = upper @ lower
    q1 = triplet.gram_form(1)
    skewed, plain = tmp_path / "skewed.txt", tmp_path / "q1.txt"
    skewed.write_text(formats.format_matrix(u.transpose() @ q1.matrix @ u, kind="gram"))
    plain.write_text(formats.format_matrix(q1.matrix, kind="gram"))
    done = run_process("rep", str(skewed), "--max", "10", timeout=30)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == formats.format_spectrum(rep_spectrum(q1, 10))
    done = run_process("isometry", str(skewed), str(plain), timeout=30)
    assert (done.returncode, done.stderr) == (0, "")
    witness = formats.parse_matrix(done.stdout)
    assert witness.transpose() @ u.transpose() @ q1.matrix @ u @ witness == q1.matrix


def test_isospec_of_an_odd_form_with_a_large_level_finishes(tmp_path):
    # level 685,584: the squared comparison runs to the cutoff 715,394 over
    # 357,698 grid values, one packed integer square per form
    form = tmp_path / "q.txt"
    form.write_text("3 3\n450 108 -468\n108 728 -208\n-468 -208 656\n")
    done = run_process("isospec", str(form), str(form), timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.startswith("verdict: Isospectral\n")
    assert "compared_up_to: 715394\n" in done.stdout and done.stdout.count("\n") == 357_698 + 15


def test_paper_triplet_passes(capsys):
    code, out, _ = run(capsys, "paper-triplet")
    assert code == 0
    lines = out.splitlines()
    assert "isospectrality: PASS" in lines
    assert "non-isometry: PASS" in lines
    assert "irreducibility: PASS" in lines
    assert "code-correspondence: PASS" in lines


def test_paper_triplet_max_t_inconclusive(capsys):
    code, out, _ = run(capsys, "paper-triplet", "--max-t", "16")
    assert code == 1
    assert "isospectrality: INCONCLUSIVE" in out


def test_paper_triplet_negative_control(capsys):
    code, out, _ = run(capsys, "paper-triplet", "--self-test-negative")
    assert code == 3
    assert "isospectrality: FAIL" in out


def test_paper_triplet_json(capsys):
    code, out, _ = run(capsys, "paper-triplet", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["stages"]["isospectrality"] == "PASS"
    assert doc["stages"]["code-correspondence"] == "PASS"


def test_paper_triplet_passes_under_python_O():
    # verdict checks are real exceptions, not asserts that -O strips
    done = run_process("paper-triplet", flags=("-O",), timeout=600)
    assert done.returncode == 0, done.stderr
    assert "irreducibility: PASS" in done.stdout.splitlines()


def test_unknown_verb_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
