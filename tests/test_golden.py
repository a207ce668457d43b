"""certify output pinned byte for byte, apart from `timings`.

The files under tests/data/certify_*.json were written by the version of
snul that still recomputed every operator image (each power of 1/y_j by
repeated series products, each q_n once per use), so they are an oracle
independent of the power table and the per-certify workspace.  To
regenerate after an intended change of the output, run
`snul certify <problem>` and delete the "timings" entry.
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


@pytest.mark.parametrize("problem", PROBLEMS, ids=lambda p: p.stem)
def test_certify_output_matches_golden(problem):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["certify", str(problem)])
    cert = json.loads(out.getvalue())
    assert code == (0 if cert["passed"] else 1)
    assert set(cert.pop("timings")) >= {"total"}
    golden = (DATA / f"certify_{problem.stem}.json").read_text(encoding="utf-8")
    assert json.dumps(cert, indent=2) + "\n" == golden
