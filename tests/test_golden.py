"""certify, derive and fit output pinned byte for byte, apart from `timings`.

The files under tests/data/certify_*.json were written by the version of
snul that still recomputed every operator image (each power of 1/y_j by
repeated series products, each q_n once per use), so they are an oracle
independent of the power table and the per-certify workspace.  The
derive_*.json and fit_*.json files were written by the version whose Poly
and LaurentSeries products were schoolbook loops over Fraction, so they are
an oracle independent of the integer-numerator product kernel.  To
regenerate after an intended change of the output, run
`snul <command> <problem>` and, for certify, delete the "timings" entry; the
file is tests/data/<command>_<problem stem>.json.
"""
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from snul.cli import main

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"
PROBLEMS = sorted((ROOT / "problems").glob("qhermite*.json")) + [DATA / "surd_conic.json"]
CASES = (
    [("certify", p) for p in PROBLEMS]
    + [("derive", p) for p in PROBLEMS if p.stem != "qhermite_recurrence"]
    + [("fit", ROOT / "problems" / "qhermite_recurrence.json")]
)


def _case_id(case):
    command, problem = case
    return problem.stem if command == "certify" else f"{command}-{problem.stem}"


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_certify_output_matches_golden(case):
    command, problem = case
    out = io.StringIO()
    with redirect_stdout(out):
        code = main([command, str(problem)])
    doc = json.loads(out.getvalue())
    if command == "certify":
        assert code == (0 if doc["passed"] else 1)
        assert set(doc.pop("timings")) >= {"total"}
    elif command == "derive":
        assert code == (0 if doc["agreement"] else 1)
    else:
        assert code == 0
    golden = (DATA / f"{command}_{problem.stem}.json").read_text(encoding="utf-8")
    assert json.dumps(doc, indent=2) + "\n" == golden
