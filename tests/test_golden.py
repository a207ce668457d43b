"""certify, derive and fit output pinned byte for byte, apart from `timings`.

The files under tests/data/certify_*.json were written by the version of
snul that still recomputed every operator image (each power of 1/y_j by
repeated series products, each q_n once per use), so they are an oracle
independent of the power table and the per-certify workspace.  The
derive_*.json and fit_qhermite_recurrence.json files were written by the
version whose Poly and LaurentSeries products were schoolbook loops over
Fraction, so they are an oracle independent of the integer-numerator product
kernel.  The cases with extra arguments and fit_random_moments.json were
written by the version whose fit nullspace was Gauss-Jordan over Fraction,
so they are an oracle independent of the integer elimination.  The derive
cases at --n-max 20 were written by the version that formed every shift of
P_n and P1_n by Horner substitution and Theta_hat as a SurdPoly, so they are
an oracle independent of the recurrence walk and the D/M-form structure
stage.  The certify cases at --n-max 12 were written by the version that
formed E1 q_n, E2 q_n and E1 S, E2 S with the sqrt(r) series and the gathered
B term through the product S q_n, so they are an oracle independent of the
rational (R, I) route of the second-kind and gathered relations.  The
co-recursive certify case at --n-max 16 was written by the version whose
Riccati moment solver and Chebyshev algorithm did one Fraction operation per
multiply-add, so it is an oracle independent of the integer moment maps at
trunc 34 and 16 levels.  The surd_conic derive case at --n-max 24 was
written by the version that formed Theta_hat, l and pi from full products of
degree-n polynomials, each a separate Poly operation, so it is an oracle
independent of the fused sum-of-products kernel and the windowed Cramer
solve.  The surd_conic certify case at --n-max 32 was written by the version
that formed each q_n as the full product P_n S - P1_{n-1}, the images of
each q_n from the D/M table and R, I from separately reduced products, so it
is an oracle independent of the recurrence route of the second-kind stage.
The fit cases at --deg-bounds 6,6,6,6 were written by the version whose fit
nullspace was fraction-free elimination alone, so they are an oracle
independent of the modular certificate: on the random moments the
certificate answers, on the recurrence file the exact elimination does.
The co-recursive certify case at --n-max 32 was written by the version that
formed the B term of the second-kind relations from series products of the
images of S and of each q_n, so it is an oracle independent of the
recurrence walk of E1S E2q_n.  The derive cases of
qhermite_corecursive_recurrence.json, Riccati data with its recurrence
supplied, were written by the version that recovered beta_n and gamma_n from
the moments by the Chebyshev algorithm, formed every P_n and P1_n, and
formed each structure residual from whole sides, so they are an oracle
independent of reading the recurrence as given and of the fused residuals.
The same goes for derive_surd_conic_n-max_64.json and
derive_qhermite_corecursive_recurrence_n-max_64.json, which CI diffs
against.  The qhermite_wide derive case at --n-max 20 was written by the
version that solved the structure system by Cramer's rule in a window of low
coefficients, so it is an oracle independent of the recursion route of the
structure stage.  certify_surd_conic_n-max_96.json, which CI diffs against,
was written by the version that walked q_n, (Dq_n, Mq_n) and the second-kind
residuals at every level, so it is an oracle independent of reading the
second-kind and gathered entries off the Riccati residual.
certify_qhermite_corecursive_n-max_96.json, which CI diffs against too,
was written by the version that formed D S and M S from a table of
D x^-k and M x^-k kept on the lattice, so it is an oracle independent of
the kernel columns of the moment solve, at depth and with B != 0.
certify_qhermite_corecursive_recurrence_n-max_64.json, which CI diffs
against too, was written by the version that formed the Riccati residual of
every certify, also on moments it had solved; Riccati data with its
recurrence supplied is the one certify input whose residual is still formed,
so this is the case that holds it to its golden output at depth, with B != 0.
The certify cases of a file with a recurrence, qhermite_recurrence.json
(also at --n-max 20 and --deg-bounds 4,4,4,4) and
certify_qhermite_corecursive_recurrence_n-max_64.json, were written by the
version that recovered beta_n and gamma_n from the recurrence's moments by
the Chebyshev algorithm, so they are an oracle independent of reading the
recurrence as given.
derive_qhermite_wide_n-max_64.json, which CI diffs against as well, was
written by the version whose level recursion formed each step from separate
Poly operations (Theta_n/gamma_{n+1}, m_n m_{n+1}, l_n - l_{n-1} and so on,
each reduced on its own), formed A_n afresh on every read and wrote each
coefficient through a Fraction, so it is an oracle independent of the
weighted sums of products, the stored A_n and the numerator formatter.
The certify cases that fail, FAILING below, were written by the version
whose certify ran each stage through a function of its own and checked
gamma_0 = 1 again in its `liouville` stage, so they are an oracle
independent of the one pass that records every stage now; all but
certify_random_moments.json, which pins the shape a fit that finds nothing
has had since certify took over the fit (a `fit` fail, then a skip for
every stage, and timings), and was written by that version.
The certify case of the recurrence file at --deg-bounds 4,4,4,4 and
--n-max 20 was written by the version that fitted on the moments to the
file's trunc and formed them again to certify's order, so it is an oracle
independent of the one S that the fit and the stages now share.
To regenerate after an intended change of the output, run
`snul <command> <problem> <extra arguments>` and, for certify, delete the
"timings" entry; the file is tests/data/<command>_<name>.json, with <name>
as `_name` builds it.
"""
import io
import json
import re
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from snul.cli import main

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
PROBLEMS = sorted((ROOT / "problems").glob("qhermite*.json")) + [DATA / "surd_conic.json"]
RECURRENCE = ROOT / "problems" / "qhermite_recurrence.json"
# a basis of dimension 3, and the fit inside certify
WIDE_BOUNDS = ["--deg-bounds", "4,4,4,4"]
# certify inputs that fail a stage, exit 1: u_7 of qhermite moved by one
# (riccati), the Dirac moments (1/2)^k of A = 1, B = -1 (quasi-definite,
# failing n = 1), the lattice (1, 2, 0, 0, 1, 1), where y_2 has no inverse
# series (riccati), ten moments for n_max 8 and Riccati data whose residual
# is -1 at x^2 with u_0 alone (moments), and the random moments, whose fit
# finds nothing (fit, then skips)
FAILING = [("certify", DATA / f"{stem}.json", [])
           for stem in ("qhermite_moved_moment", "dirac_moments", "degenerate_lattice",
                        "too_few_moments", "inconsistent_riccati", "random_moments")]
# (command, problem file, extra arguments)
CASES = (
    [("certify", p, []) for p in PROBLEMS]
    + [("derive", p, []) for p in PROBLEMS if p.stem != "qhermite_recurrence"]
    + [("fit", RECURRENCE, []),
       ("fit", RECURRENCE, WIDE_BOUNDS),
       ("certify", RECURRENCE, WIDE_BOUNDS),
       # the fit inside certify on the S of 43 moments, beyond the file's trunc
       ("certify", RECURRENCE, WIDE_BOUNDS + ["--n-max", "20"]),
       # 34 random moments on the reference conic: no relation found
       ("fit", DATA / "random_moments.json", [])]
    # the depth of the derive benchmark
    + [("derive", ROOT / "problems" / f"{stem}.json", ["--n-max", "20"])
       for stem in ("qhermite", "qhermite_corecursive")]
    # twelve levels of the second-kind and gathered relations, B = 0 and B != 0
    + [("certify", ROOT / "problems" / f"{stem}.json", ["--n-max", "12"])
       for stem in ("qhermite", "qhermite_corecursive")]
    # both moment maps at depth, B != 0
    + [("certify", ROOT / "problems" / "qhermite_corecursive.json", ["--n-max", "16"])]
    # the B term of the second-kind stage at depth
    + [("certify", ROOT / "problems" / "qhermite_corecursive.json", ["--n-max", "32"])]
    # the structure stage at depth on the instance with the largest coefficients
    + [("derive", DATA / "surd_conic.json", ["--n-max", "24"])]
    # the second-kind stage at depth on the same instance
    + [("certify", DATA / "surd_conic.json", ["--n-max", "32"])]
    # 28 columns: none fit the random moments, five candidates the recurrence
    + [("fit", problem, ["--deg-bounds", "6,6,6,6"])
       for problem in (DATA / "random_moments.json", RECURRENCE)]
    # Riccati data with its recurrence supplied, the input of the derive
    # benchmark
    + [("derive", DATA / "qhermite_corecursive_recurrence.json", extra)
       for extra in ([], ["--n-max", "20"])]
    # twenty levels of the structure stage on the wide conic
    + [("derive", ROOT / "problems" / "qhermite_wide.json", ["--n-max", "20"])]
    # the Riccati residual of supplied moments at depth, B != 0
    + [("certify", DATA / "qhermite_corecursive_recurrence.json", ["--n-max", "64"])]
    # the deepest certify the shipped 42-entry recurrence allows
    + [("certify", RECURRENCE, ["--n-max", "20"])]
    + FAILING
)


def _name(case):
    """The problem stem, then each extra argument without its dashes and
    commas: qhermite_recurrence_deg-bounds_4444."""
    _, problem, extra = case
    return "_".join([problem.stem] + [a.lstrip("-").replace(",", "") for a in extra])


def _case_id(case):
    command = case[0]
    return _name(case) if command == "certify" else f"{command}-{_name(case)}"


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_certify_output_matches_golden(case):
    command, problem, extra = case
    out = io.StringIO()
    with redirect_stdout(out):
        code = main([command, str(problem)] + extra)
    doc = json.loads(out.getvalue())
    if command == "certify":
        assert (code, doc["passed"]) == ((1, False) if case in FAILING else (0, True))
        assert set(doc.pop("timings")) >= {"total"}
    elif command == "derive":
        assert code == (0 if doc["agreement"] else 1)
    else:
        assert code == 0
    golden = (DATA / f"{command}_{_name(case)}.json").read_text(encoding="utf-8")
    assert json.dumps(doc, indent=2) + "\n" == golden


def _ci_depth_goldens():
    """The golden files the depth steps of the CI workflow diff against:
    certify of each quoted "problem n_max" case, and derive of each problem
    of the loop at the step's --n-max."""
    text = WORKFLOW.read_text(encoding="utf-8")
    certify_step, derive_step = (text[text.index(f"name: {a}"):text.index(f"name: {b}")]
                                 for a, b in (("Certify at depth", "Derive at depth"),
                                              ("Derive at depth", "Benchmark smoke runs")))
    names = {f"certify_{Path(problem).stem}_n-max_{n}.json"
             for problem, n in re.findall(r'"(\S+\.json) (\d+)"', certify_step)}
    depth = re.search(r'derive "\$problem" --n-max (\d+)', derive_step).group(1)
    loop = derive_step[derive_step.index("for problem in"):derive_step.index("; do")]
    names |= {f"derive_{Path(problem).stem}_n-max_{depth}.json"
              for problem in re.findall(r"\S+\.json", loop)}
    return names


def test_every_golden_is_read():
    # a golden file that no case and no CI depth step compares against pins
    # nothing; each one the workflow names must exist
    ci = _ci_depth_goldens()
    assert len(ci) >= 9
    assert all((DATA / name).exists() for name in ci), sorted(ci)
    cases = {f"{case[0]}_{_name(case)}.json" for case in CASES}
    goldens = {p.name for pattern in ("certify_*.json", "derive_*.json", "fit_*.json")
               for p in DATA.glob(pattern)}
    assert goldens - cases - ci == set()
