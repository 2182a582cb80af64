"""Write bench/golden.json: the outputs the workloads are checked against.

    python3 bench/make_golden.py

Run from the repository root at a commit whose outputs are trusted (the
golden file was made at the commit that added the benchmark).  Takes
about 20 s: paper-triplet once and the (7, 5, 2) search once,
uninterrupted and without a checkpoint.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

sys.dont_write_bytecode = True
BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from workloads import RESUME_CLI, run_cli, results_digests, sha256  # noqa: E402


def main() -> int:
    code, stdout = run_cli(["paper-triplet", "--json"])
    if code != 0:
        raise SystemExit("paper-triplet failed")
    golden = {"triplet": {"paper_triplet_stdout": sha256(stdout)}}

    out = BENCH.parent / ".bench_work" / "golden-results"
    shutil.rmtree(out, ignore_errors=True)
    try:
        code, stdout = run_cli(RESUME_CLI + ["--out", str(out)])
        if code != 0:
            raise SystemExit("codesearch failed")
        golden["codesearch-resume"] = {"stdout": sha256(stdout), "files": results_digests(out)}
    finally:
        shutil.rmtree(out, ignore_errors=True)

    (BENCH / "golden.json").write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
