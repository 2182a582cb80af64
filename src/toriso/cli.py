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
from .isometry import SearchBudgetExceeded, integral_equivalence
from .lattices import GramForm, Lattice, dual
from .linalg import Mat, _below_spectrum, _integer_rows, lattices_equal
from .search import TupleVerificationError, run_search
from .spectra import Verdict, certify


def _show(args, value, text, doc) -> None:
    """Write doc(value) as a JSON document under --json, else text(value)."""
    sys.stdout.write(json.dumps(doc(value), indent=2) + "\n" if args.json else text(value))


def _form_from_file(path: str) -> GramForm:
    return GramForm(formats.parse_matrix(Path(path).read_text()))


def _lattice_from_file(path: str) -> Lattice:
    return Lattice(formats.parse_matrix(Path(path).read_text()))


def _lattice_text(basis: Mat) -> str:
    return formats.format_matrix(basis, kind="lattice")


def _cmd_rep(args) -> int:
    spectrum = rep_spectrum(_form_from_file(args.form), formats._parse_entry(args.max))
    _show(args, spectrum, formats.format_spectrum, formats.json_spectrum)
    return 0


def _cmd_isospec(args) -> int:
    cert = certify(_form_from_file(args.form_a), _form_from_file(args.form_b), max_compare_t=args.max_t)
    _show(args, cert, formats.certificate_text, formats.certificate_json)
    return 0 if cert.verdict is Verdict.ISOSPECTRAL else 1


def _cmd_isometry(args) -> int:
    a = _form_from_file(args.form_a)
    b = _form_from_file(args.form_b)
    lam = formats._parse_entry(args.lambda_bound) if args.lambda_bound else None
    if lam is not None and not _below_spectrum(*_integer_rows(a.matrix), lam):
        raise ValueError("--lambda-bound must lie strictly below the smallest eigenvalue of form_a")
    witness = integral_equivalence(a, b, lambda_bound=lam, node_budget=args.node_budget)

    def text(w):
        return formats.format_matrix(w.matrix) if w.found else formats.witness_text(w)

    _show(args, witness, text, formats.witness_json)
    return 0 if witness.found else 1


def _cmd_decompose(args) -> int:
    _show(args, decompose(_lattice_from_file(args.lattice)), formats.decomposition_text, formats.decomposition_json)
    return 0


def _cmd_dual(args) -> int:
    _show(args, dual(_lattice_from_file(args.lattice)).basis, _lattice_text, formats.json_matrix)
    return 0


def _cmd_lift(args) -> int:
    lat = lift(formats.parse_code(Path(args.code).read_text()))
    _show(args, lat.basis, _lattice_text, formats.json_matrix)
    return 0


def _cmd_project(args) -> int:
    _show(args, project(_lattice_from_file(args.lattice), args.q), formats.format_code, formats.json_code)
    return 0


def _cmd_weightdist(args) -> int:
    dist = weight_distribution(formats.parse_code(Path(args.code).read_text()))
    _show(args, dist, formats.weight_distribution_text, formats.weight_distribution_json)
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
    _show(args, report, formats.search_report_text, formats.search_report_json)
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

    def doc(stages):
        return {
            "stages": {name: status for name, status in stages},
            "isospectrality": {f"{a},{b}": formats.certificate_json(c) for (a, b), c in certs.items()},
            "non_isometry": {f"{a},{b}": formats.witness_json(w) for (a, b), w in witnesses.items()},
            "irreducibility": {str(i): formats.decomposition_json(d) for i, d in decs.items()},
        }

    def text(stages):
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
        return "\n".join(lines) + "\n"

    _show(args, stages, text, doc)

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
    p.add_argument("--lambda-bound", default=None, help="positive rational strictly below the smallest eigenvalue of form_a")
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
    except SearchBudgetExceeded as exc:
        print(f"error: node budget exceeded ({exc.stats.nodes} nodes)", file=sys.stderr)
        return 2
    except (TupleVerificationError, DecompositionError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        # every library input error (formats, lattices, linalg, codes) is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
