"""Command line front end.

Every verb is a thin wrapper: parse inputs with the shared file formats,
call the one library function it exposes, serialize the result with the
matching formats helper, and translate the outcome into an exit code.

Exit codes: 0 success or affirmative verdict, 1 negative or undecided
verdict, 2 usage or input error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import formats, triplet
from .codes import CodeError, lift, project, weight_distribution
from .decomposition import DecompositionError, decompose
from .enumeration import rep_spectrum
from .formats import FormatError
from .isometry import SearchBudgetExceeded, integral_equivalence
from .lattices import GramForm, Lattice, LatticeError
from .linalg import DimensionError, Mat, ShapeError, lattices_equal
from .search import TupleVerificationError, run_search
from .spectra import Verdict, certify


def _read(path: str) -> str:
    return Path(path).read_text()


def _emit(text: str) -> None:
    sys.stdout.write(text)


def _emit_json(doc) -> None:
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")


def _form_from_file(path: str) -> GramForm:
    return GramForm(formats.parse_matrix(_read(path)))


def _lattice_from_file(path: str) -> Lattice:
    return Lattice(formats.parse_matrix(_read(path)))


def _cmd_rep(args) -> int:
    form = _form_from_file(args.form)
    spectrum = rep_spectrum(form, formats._parse_entry(args.max))
    if args.json:
        _emit_json(formats.json_spectrum(spectrum))
    else:
        _emit(formats.format_spectrum(spectrum))
    return 0


def _cmd_isospec(args) -> int:
    a = _form_from_file(args.form_a)
    b = _form_from_file(args.form_b)
    cert = certify(a, b, max_compare_t=args.max_t)
    if args.json:
        _emit_json(formats.certificate_json(cert))
    else:
        _emit(formats.certificate_text(cert))
    return 0 if cert.verdict is Verdict.ISOSPECTRAL else 1


def _cmd_isometry(args) -> int:
    a = _form_from_file(args.form_a)
    b = _form_from_file(args.form_b)
    lam = formats._parse_entry(args.lambda_bound) if args.lambda_bound else None
    witness = integral_equivalence(a, b, lambda_bound=lam, node_budget=args.node_budget)
    if args.json:
        _emit_json(formats.witness_json(witness))
        return 0 if witness.found else 1
    if witness.found:
        _emit(formats.format_matrix(witness.matrix))
        return 0
    _emit(formats.witness_text(witness))
    return 1


def _cmd_decompose(args) -> int:
    dec = decompose(_lattice_from_file(args.lattice))
    if args.json:
        _emit_json(formats.decomposition_json(dec))
    else:
        _emit(formats.decomposition_text(dec))
    return 0


def _cmd_dual(args) -> int:
    from .lattices import dual

    d = dual(_lattice_from_file(args.lattice))
    if args.json:
        _emit_json(formats.json_matrix(d.basis))
    else:
        _emit(formats.format_matrix(d.basis, kind="lattice"))
    return 0


def _cmd_lift(args) -> int:
    code = formats.parse_code(_read(args.code))
    lat = lift(code)
    if args.json:
        _emit_json(formats.json_matrix(lat.basis))
    else:
        _emit(formats.format_matrix(lat.basis, kind="lattice"))
    return 0


def _cmd_project(args) -> int:
    code = project(_lattice_from_file(args.lattice), args.q)
    if args.json:
        _emit_json(formats.json_code(code))
    else:
        _emit(formats.format_code(code))
    return 0


def _cmd_weightdist(args) -> int:
    dist = weight_distribution(formats.parse_code(_read(args.code)))
    if args.json:
        _emit_json(formats.weight_distribution_json(dist))
    else:
        _emit(formats.weight_distribution_text(dist))
    return 0


def _cmd_codesearch(args) -> int:
    try:
        report = run_search(
            args.q,
            args.n,
            args.k,
            family=args.family,
            min_tuple=args.min_tuple,
            jobs=args.jobs,
            checkpoint_path=args.checkpoint,
        )
    except CodeError as exc:
        where = ""
        if args.checkpoint and Path(args.checkpoint).exists():
            where = f"; checkpoint kept at {args.checkpoint}"
        print(f"error: {exc}{where}", file=sys.stderr)
        return 2
    formats.write_search_results(report, args.out)
    if args.json:
        _emit_json(formats.search_report_json(report))
    else:
        _emit(formats.search_report_text(report))
    return 0


def _paper_forms(negative: bool):
    forms = {i: triplet.gram_form(i) for i in (1, 2, 3)}
    if negative:
        rows = [list(r) for r in triplet.Q3_ROWS]
        rows[0][0] += 2
        forms[3] = GramForm(Mat.from_rows(rows))
    return forms


def _cmd_paper_triplet(args) -> int:
    forms = _paper_forms(args.self_test_negative)
    pairs = ((1, 2), (1, 3), (2, 3))

    certs = {p: certify(forms[p[0]], forms[p[1]], max_compare_t=args.max_t) for p in pairs}
    if all(c.verdict is Verdict.ISOSPECTRAL for c in certs.values()):
        iso_status = "PASS"
    elif any(c.verdict is Verdict.NOT_ISOSPECTRAL for c in certs.values()):
        iso_status = "FAIL"
    else:
        iso_status = "INCONCLUSIVE"

    witnesses = {p: integral_equivalence(forms[p[0]], forms[p[1]]) for p in pairs}
    noniso_status = "PASS" if not any(w.found for w in witnesses.values()) else "FAIL"

    decs = {i: decompose(triplet.lattice(i)) for i in (1, 2, 3)}
    irr_status = "PASS" if all(d.is_irreducible for d in decs.values()) else "FAIL"

    code_ok = True
    for i in (1, 2, 3):
        lat = triplet.lattice(i)
        code_ok = code_ok and project(lat, triplet.CODE_Q) == triplet.code(i)
        code_ok = code_ok and lattices_equal(lift(triplet.code(i)).basis, lat.basis)
    code_status = "PASS" if code_ok else "FAIL"

    stages = (
        ("isospectrality", iso_status),
        ("non-isometry", noniso_status),
        ("irreducibility", irr_status),
        ("code-correspondence", code_status),
    )
    if args.json:
        doc = {
            "stages": {name: status for name, status in stages},
            "isospectrality": {f"{a},{b}": formats.certificate_json(c) for (a, b), c in certs.items()},
            "non_isometry": {f"{a},{b}": formats.witness_json(w) for (a, b), w in witnesses.items()},
            "irreducibility": {str(i): formats.decomposition_json(d) for i, d in decs.items()},
        }
        _emit_json(doc)
    else:
        lines = []
        for name, status in stages:
            lines.append(f"{name}: {status}")
            if name == "isospectrality":
                for (a, b), c in certs.items():
                    extra = ""
                    if c.verdict is not Verdict.ISOSPECTRAL and c.compared_up_to is not None:
                        extra = f" (compared up to {formats.format_value(c.compared_up_to)})"
                    lines.append(f"  pair {a} {b}: {c.verdict.value}{extra}")
            elif name == "non-isometry":
                for (a, b), w in witnesses.items():
                    res = "Equivalent" if w.found else "NotEquivalent"
                    lines.append(f"  pair {a} {b}: {res} (nodes {w.stats.nodes})")
            elif name == "irreducibility":
                for i, d in decs.items():
                    lines.append(f"  lattice {i}: {len(d.components)} component(s)")
            else:
                lines.append(f"  codes 1 2 3 at q = {triplet.CODE_Q}: round trip {'ok' if code_ok else 'failed'}")
        _emit("\n".join(lines) + "\n")

    if any(status == "FAIL" for _, status in stages):
        return 3
    if any(status == "INCONCLUSIVE" for _, status in stages):
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toriso",
        description="Exact tools for isospectral flat tori: spectra, isometry, decomposition, and code searches.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--json", action="store_true", help="emit a JSON document instead of text")
        return p

    p = add("rep", _cmd_rep, "representation numbers of a form up to a bound")
    p.add_argument("form", help="gram matrix file")
    p.add_argument("--max", required=True, help="largest value to report (integer or a/b)")

    p = add("isospec", _cmd_isospec, "certify two forms isospectral or not")
    p.add_argument("form_a")
    p.add_argument("form_b")
    p.add_argument("--max-t", type=int, default=None, help="cap the compared range (certificate may degrade to Inconclusive)")

    p = add("isometry", _cmd_isometry, "search for an integral equivalence between two forms")
    p.add_argument("form_a")
    p.add_argument("form_b")
    p.add_argument("--lambda-bound", default=None, help="positive lower bound for the smallest eigenvalue of form_a (rational)")
    p.add_argument("--node-budget", type=int, default=None, help="abort after this many search nodes")

    p = add("decompose", _cmd_decompose, "orthogonal decomposition of a lattice with certificates")
    p.add_argument("lattice", help="basis matrix file (columns generate)")

    p = add("dual", _cmd_dual, "dual lattice basis")
    p.add_argument("lattice")

    p = add("lift", _cmd_lift, "preimage lattice of a code under reduction mod q")
    p.add_argument("code", help="code file")

    p = add("project", _cmd_project, "reduce a lattice mod q to a code")
    p.add_argument("lattice")
    p.add_argument("--q", type=int, required=True)

    p = add("weightdist", _cmd_weightdist, "folded weight distribution of a code")
    p.add_argument("code")

    p = add("codesearch", _cmd_codesearch, "exhaustive collision search over a code family")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--family", choices=("all", "systematic"), default="all")
    p.add_argument("--min-tuple", type=int, default=2)
    p.add_argument("--out", required=True, help="results directory")
    p.add_argument("--jobs", type=int, default=1, help="worker processes for the scan partitions")
    p.add_argument("--checkpoint", default=None, help="resumable scan state (json.gz)")

    p = add("paper-triplet", _cmd_paper_triplet, "re-verify the bundled triplet end to end")
    p.add_argument("--max-t", type=int, default=None, help="cap the isospectrality comparison range")
    p.add_argument(
        "--self-test-negative",
        action="store_true",
        help="perturb one embedded form; the run must then fail at the isospectrality stage",
    )

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, LatticeError, ShapeError, DimensionError, CodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SearchBudgetExceeded as exc:
        print(f"error: node budget exceeded ({exc.stats.nodes} nodes)", file=sys.stderr)
        return 2
    except (TupleVerificationError, DecompositionError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
