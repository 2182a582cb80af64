"""Text and JSON serialization shared by the command line verbs.

Matrix files: first significant line "<rows> <cols>", then one line per
row of whitespace-separated entries, each a signed integer or "a/b"
rational.  Lines starting with "#" and blank lines are ignored.  Code
files: first significant line "q n k", then k rows of n integers in
[0, q).  Spectra are TSV "value<TAB>count".  The *_text serializers emit
"key: value" reports; the *_json serializers build the equivalent
document, with every number exact (integers stay integers, rationals
become "a/b" strings).
"""

from __future__ import annotations

import itertools
import json
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

from .codes import CodeError, LinearCode
from .lattices import gram
from .linalg import Mat

_ENTRY_RE = re.compile(r"^[+-]?[0-9]+(?:/[0-9]+)?$")


class FormatError(ValueError):
    pass


def _significant(text: str) -> list[str]:
    out = []
    for line in text.splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            out.append(stripped)
    return out


def _parse_entry(token: str) -> Fraction:
    if not _ENTRY_RE.match(token):
        raise FormatError(f"bad entry {token!r}")
    try:
        return Fraction(token)
    except ZeroDivisionError:
        raise FormatError(f"zero denominator in {token!r}") from None


def json_value(x):
    f = Fraction(x)
    return f.numerator if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def format_value(x) -> str:
    return str(json_value(x))


def parse_matrix(text: str) -> Mat:
    lines = _significant(text)
    if not lines:
        raise FormatError("empty matrix file")
    header = lines[0].split()
    if len(header) != 2 or not all(t.isdigit() for t in header):
        raise FormatError(f"matrix header must be '<rows> <cols>', got {lines[0]!r}")
    rows, cols = int(header[0]), int(header[1])
    if rows < 1 or cols < 1:
        raise FormatError("matrix must have at least one row and column")
    if len(lines) - 1 != rows:
        raise FormatError(f"expected {rows} rows, found {len(lines) - 1}")
    data = []
    for line in lines[1:]:
        tokens = line.split()
        if len(tokens) != cols:
            raise FormatError(f"expected {cols} entries per row, got {len(tokens)}")
        data.append([_parse_entry(t) for t in tokens])
    return Mat.from_rows(data)


def format_matrix(m: Mat, kind: str | None = None) -> str:
    lines = []
    if kind is not None:
        lines.append(f"# {kind}")
    lines.append(f"{m.rows} {m.cols}")
    for i in range(m.rows):
        lines.append(" ".join(format_value(x) for x in m.row(i)))
    return "\n".join(lines) + "\n"


def json_matrix(m: Mat):
    return [[json_value(x) for x in m.row(i)] for i in range(m.rows)]


def parse_code(text: str) -> LinearCode:
    lines = _significant(text)
    if not lines:
        raise FormatError("empty code file")
    header = lines[0].split()
    if len(header) != 3 or not all(t.isdigit() for t in header):
        raise FormatError(f"code header must be 'q n k', got {lines[0]!r}")
    q, n, k = (int(t) for t in header)
    if len(lines) - 1 != k:
        raise FormatError(f"expected {k} generator rows, found {len(lines) - 1}")
    rows = []
    for line in lines[1:]:
        tokens = line.split()
        if len(tokens) != n:
            raise FormatError(f"expected {n} entries per row, got {len(tokens)}")
        if not all(t.isdigit() for t in tokens):
            raise FormatError(f"code entries must be integers in [0, q), got {line!r}")
        row = tuple(int(t) for t in tokens)
        if any(not 0 <= x < q for x in row):
            raise FormatError(f"code entry out of range [0, {q}) in {line!r}")
        rows.append(row)
    try:
        return LinearCode(q, n, tuple(rows))
    except CodeError as exc:
        raise FormatError(str(exc)) from None


def format_code(c: LinearCode) -> str:
    lines = [f"{c.modulus} {c.length} {len(c.rows)}"]
    for row in c.rows:
        lines.append(" ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


def json_code(c: LinearCode):
    return {"q": c.modulus, "n": c.length, "k": len(c.rows), "rows": [list(r) for r in c.rows]}


def format_spectrum(spectrum) -> str:
    return "".join(f"{format_value(t)}\t{count}\n" for t, count in spectrum.entries)


def json_spectrum(spectrum):
    return {
        "bound": json_value(spectrum.bound),
        "step": json_value(spectrum.step),
        "entries": [[json_value(t), count] for t, count in spectrum.entries],
    }


def _opt(x, fmt=format_value):
    return "none" if x is None else fmt(x)


def certificate_text(cert) -> str:
    lines = [
        f"verdict: {cert.verdict.value}",
        f"dimension: {cert.dimension}",
        f"det_a: {format_value(cert.dets[0])}",
        f"det_b: {format_value(cert.dets[1])}",
        f"scaled_by: {cert.scaled_by}",
        f"doubled: {'true' if cert.doubled else 'false'}",
        f"summed: {'true' if cert.summed else 'false'}",
        f"level_a: {_opt(cert.levels[0] if cert.levels else None)}",
        f"level_b: {_opt(cert.levels[1] if cert.levels else None)}",
        f"threshold: {_opt(cert.threshold)}",
        f"compared_up_to: {_opt(cert.compared_up_to)}",
        f"first_difference: {_opt(cert.first_difference)}",
    ]
    for note in cert.notes:
        lines.append(f"note: {note}")
    if cert.table:
        lines.append("table:")
        lines.append("t\tcount_a\tcount_b")
        for t, ra, rb in cert.table:
            lines.append(f"{format_value(t)}\t{ra}\t{rb}")
    return "\n".join(lines) + "\n"


def certificate_json(cert):
    return {
        "verdict": cert.verdict.value,
        "dimension": cert.dimension,
        "det": [json_value(cert.dets[0]), json_value(cert.dets[1])],
        "scaled_by": cert.scaled_by,
        "doubled": cert.doubled,
        "summed": cert.summed,
        "levels": list(cert.levels) if cert.levels else None,
        "threshold": None if cert.threshold is None else json_value(cert.threshold),
        "compared_up_to": None if cert.compared_up_to is None else json_value(cert.compared_up_to),
        "first_difference": None if cert.first_difference is None else json_value(cert.first_difference),
        "notes": list(cert.notes),
        "table": [[json_value(t), ra, rb] for t, ra, rb in cert.table],
    }


def stats_text(stats) -> str:
    lines = [
        f"lambda_bound: {format_value(stats.lambda_bound)}" if stats.lambda_bound is not None else "lambda_bound: none",
        "caps: " + " ".join(format_value(c) for c in stats.caps),
        "candidates: " + " ".join(str(c) for c in stats.candidate_counts),
        "column_order: " + " ".join(str(c) for c in stats.column_order),
        f"nodes: {stats.nodes}",
    ]
    for note in stats.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"


def stats_json(stats):
    return {
        "lambda_bound": None if stats.lambda_bound is None else json_value(stats.lambda_bound),
        "caps": [json_value(c) for c in stats.caps],
        "candidates": list(stats.candidate_counts),
        "column_order": list(stats.column_order),
        "nodes": stats.nodes,
        "notes": list(stats.notes),
    }


def witness_text(witness) -> str:
    if witness.found:
        return "equivalent: true\n" + format_matrix(witness.matrix)
    return "equivalent: false\n" + stats_text(witness.stats)


def witness_json(witness):
    return {
        "equivalent": witness.found,
        "matrix": json_matrix(witness.matrix) if witness.found else None,
        "stats": stats_json(witness.stats),
    }


def decomposition_text(dec) -> str:
    lines = [
        f"components: {len(dec.components)}",
        f"irreducible: {'true' if dec.is_irreducible else 'false'}",
        f"enumeration_bound: {format_value(dec.enumeration_bound)}",
        "certificate: generation ok",
        "certificate: rank sum ok",
        "certificate: orthogonality ok",
    ]
    for idx, comp in enumerate(dec.components):
        lines.append("")
        lines.append(f"component: {idx}")
        lines.append(f"rank: {comp.rank}")
        lines.append(f"vectors: {len(comp.vectors)}")
        lines.append("basis:")
        lines.append(format_matrix(comp.basis).rstrip("\n"))
    return "\n".join(lines) + "\n"


def decomposition_json(dec):
    return {
        "components": [
            {
                "rank": comp.rank,
                "vectors": [[json_value(x) for x in v] for v in comp.vectors],
                "basis": json_matrix(comp.basis),
            }
            for comp in dec.components
        ],
        "irreducible": dec.is_irreducible,
        "enumeration_bound": json_value(dec.enumeration_bound),
        "certificates": {"generation": True, "rank_sum": True, "orthogonality": True},
    }


def weight_distribution_text(dist) -> str:
    return "\n".join(",".join(map(str, sig)) + f"\t{count}" for sig, count in sorted(Counter(dist).items())) + "\n"


def weight_distribution_json(dist):
    return {"signatures": [[list(sig), count] for sig, count in sorted(Counter(dist).items())]}


def search_report_text(report) -> str:
    lines = [
        f"modulus: {report.modulus}",
        f"length: {report.length}",
        f"dimension: {report.dimension}",
        f"family: {report.family}",
        f"min_tuple: {report.min_tuple}",
        f"codes_scanned: {report.codes_scanned}",
        f"distinct_distributions: {report.distinct_distributions}",
        f"collisions: {len(report.collisions)}",
        f"verified: {'true' if report.verified else 'false'}",
    ]
    for idx, tup in enumerate(report.collisions):
        lines.append("")
        lines.append(f"tuple: {idx}")
        lines.append(f"arity: {len(tup.codes)}")
        lines.append(f"bucket_size: {tup.bucket_size}")
        lines.append("class_sizes: " + " ".join(str(s) for s in tup.class_sizes))
        for c in tup.codes:
            lines.append("code: " + " / ".join(" ".join(str(x) for x in row) for row in c.rows))
    return "\n".join(lines) + "\n"


def search_report_json(report):
    return {
        "modulus": report.modulus,
        "length": report.length,
        "dimension": report.dimension,
        "family": report.family,
        "min_tuple": report.min_tuple,
        "codes_scanned": report.codes_scanned,
        "distinct_distributions": report.distinct_distributions,
        "verified": report.verified,
        "collisions": [
            {
                "arity": len(tup.codes),
                "bucket_size": tup.bucket_size,
                "class_sizes": list(tup.class_sizes),
                "codes": [json_code(c) for c in tup.codes],
            }
            for tup in report.collisions
        ],
    }


def write_search_results(report, outdir) -> None:
    """Results directory: manifest plus one subdirectory per tuple with
    code, lattice, and gram files and the pairwise verification reports."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "manifest.txt").write_text(search_report_text(report))
    (out / "manifest.json").write_text(json.dumps(search_report_json(report), indent=2) + "\n")
    for idx, tup in enumerate(report.collisions):
        tdir = out / f"tuple_{idx:03d}"
        tdir.mkdir(exist_ok=True)
        for ci, c in enumerate(tup.codes):
            (tdir / f"code_{ci}.txt").write_text(format_code(c))
        for li, lat in enumerate(tup.lattices):
            (tdir / f"lattice_{li}.txt").write_text(format_matrix(lat.basis, kind="lattice"))
            (tdir / f"gram_{li}.txt").write_text(format_matrix(gram(lat).matrix, kind="gram"))
        for pair, (i, j) in enumerate(itertools.combinations(range(len(tup.codes)), 2)):
            if tup.certificates:
                (tdir / f"certificate_{i}_{j}.txt").write_text(certificate_text(tup.certificates[pair]))
            if tup.pairwise:
                (tdir / f"isometry_{i}_{j}.txt").write_text(witness_text(tup.pairwise[pair]))
