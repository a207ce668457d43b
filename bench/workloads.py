"""Benchmark workloads: inputs generated from a seed, with known answers.

Every expected answer here is written by hand or computed with `fractions`
alone.  Nothing in this file imports snul, so snul is never its own oracle.

A workload is a list of jobs.  A job is one `snul` command line (the program
receives only the generated problem file) and a check that turns the exit
code and the parsed JSON output into an error message, or None when the
output matches the known answer.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction as F
from pathlib import Path
from typing import Callable

# Reference q-quadratic lattice: p = (5/4)x, r = (9/16)x^2 - 1, field Q.
REFERENCE_CONIC = ["1", "-5/4", "1", "0", "0", "1"]
REFERENCE_P = [F(0), F(5, 4)]
# Genuine quadratic extension: lambda = 9 - 4 = 5, field Q(sqrt 5).
SURD_CONIC = ["2", "-3", "2", "1", "0", "-1"]

# Riccati data (A, B, C, D), ascending coefficients.
QHERMITE = {"A": [8, 0, -9], "B": [], "C": [0, 12], "D": [-6]}
COREC = {"A": [8, 0, -9], "B": [-6, -12], "C": [12, 12], "D": [-6]}
# Laguerre-Hahn by construction: D is the x^0 coefficient of the residual
# A DS - C MS with u_0 alone.
SURD = {"A": [1, 0, 1], "B": [], "C": [0, 1], "D": [F(-5, 2)]}

CERTIFY_STAGES = [
    "moments", "riccati", "quasi-definite", "liouville", "structure-direct",
    "structure-relations-1", "structure-relations-2",
    "second-kind-1", "second-kind-2", "gathered",
    "recursion-corollary", "recursion-magnus", "telescopes",
    "reconstruction",
]

# Projective scales for Riccati data: the equation is homogeneous in
# (A, B, C, D), so the sign changes the numbers but no verdict.  Larger or
# fractional scales would also change the cost (by up to 40% for derive).
SCALES = [F(1), F(-1)]
DELTAS = [F(1), F(-1), F(2), F(-2)]

WORKLOADS = ("certify-reference", "certify-surd", "negative-controls", "derive-deep")


@dataclass
class Job:
    kind: str
    argv: list[str]
    check: Callable[[int | None, dict | None], str | None]


# ---------------------------------------------------------------------------
# exact helpers on ascending coefficient lists
# ---------------------------------------------------------------------------

def _trim(p):
    p = [F(c) for c in p]
    while p and p[-1] == 0:
        p.pop()
    return p


def _add(p, q):
    n = max(len(p), len(q))
    return _trim([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
                  for i in range(n)])


def _scale(p, c):
    return _trim([F(x) * c for x in p])


def _mul(p, q):
    if not p or not q:
        return []
    out = [F(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += F(a) * b
    return _trim(out)


def _strs(p):
    return [str(F(c)) for c in p]


def _poly_of(strs):
    return _trim([F(s) for s in strs])


def gamma_qhermite(n: int) -> F:
    """gamma_n = (4/9)(1 - 4^n) for n >= 1, gamma_0 = 1."""
    return F(1) if n == 0 else F(4, 9) * (1 - 4 ** n)


def jacobi_moments(beta, gamma, count: int) -> list[F]:
    """u_0..u_count as the P_0 component of x^k in the monic basis."""
    v = {0: F(1)}
    out = [F(1)]
    for _ in range(count):
        nxt: dict[int, F] = {}
        for i, c in v.items():
            nxt[i + 1] = nxt.get(i + 1, 0) + c
            nxt[i] = nxt.get(i, 0) + beta[i] * c
            if i > 0:
                nxt[i - 1] = nxt.get(i - 1, 0) + gamma[i] * c
        v = nxt
        out.append(v.get(0, F(0)))
    return out


def _riccati_block(data, lam):
    return {name: _strs(_scale(data[name], lam)) for name in "ABCD"}


# ---------------------------------------------------------------------------
# known-answer checks
# ---------------------------------------------------------------------------

def _expect_certify(stage_verdicts: dict[str, str], rc_expected: int,
                    riccati: dict, options: dict):
    """Every stage verdict is given by hand; the echoed instance must carry
    the input Riccati data exactly."""
    def check(rc, out):
        if rc != rc_expected:
            return f"exit code {rc}, expected {rc_expected}"
        names = [c["name"] for c in out["checks"]]
        if names != CERTIFY_STAGES:
            return f"stages {names}"
        for c in out["checks"]:
            want = stage_verdicts.get(c["name"], "skip")
            if c["verdict"] != want:
                return f"stage {c['name']}: {c['verdict']}, expected {want}"
        if out["passed"] is not (rc_expected == 0):
            return f"passed = {out['passed']}"
        if out["options"] != options:
            return f"options {out['options']}"
        echo = out["instance"]["riccati"]
        for name in "ABCD":
            if _poly_of(echo[name]) != _poly_of(riccati[name]):
                return f"instance {name} echoed as {echo[name]}"
        return None
    return check


def _expect_no_candidates(rc, out):
    if rc != 0:
        return f"exit code {rc}, expected 0"
    if out["count"] != 0 or out["candidates"]:
        return f"{out['count']} candidate(s) on random moments, expected none"
    return None


def _expect_proportional(data):
    def check(rc, out):
        if rc != 0:
            return f"exit code {rc}, expected 0"
        if out["count"] != 1:
            return f"{out['count']} candidates, expected 1"
        cand = out["candidates"][0]
        if cand["verified"] is not True:
            return "candidate not verified"
        got = {name: _poly_of(cand[name]) for name in "ABCD"}
        want = {name: _trim(data[name]) for name in "ABCD"}
        lam = got["A"][0] / want["A"][0] if got["A"] else F(0)
        if lam == 0 or any(got[n] != _scale(want[n], lam) for n in "ABCD"):
            return f"candidate {got} not proportional to {want}"
        return None
    return check


def _expect_derive(riccati, beta0, n_max):
    """Closed forms at levels -1 and 0:  l_-1 = C/2, pi_-1 = 0, Theta_-1 = D,
    A_0 = A, pi_0 = -D/2, l_0 = -(p - beta_0) D - C/2."""
    A, C, D = (_poly_of(riccati[n]) for n in "ACD")
    m0 = _add(REFERENCE_P, [-beta0])
    expected = {
        -1: {"l": _scale(C, F(1, 2)), "pi": [], "theta": D, "A_gathered": A},
        0: {"pi": _scale(D, F(-1, 2)),
            "l": _add(_scale(_mul(m0, D), -1), _scale(C, F(-1, 2)))},
    }

    def check(rc, out):
        if rc != 0:
            return f"exit code {rc}, expected 0"
        if out["agreement"] is not True:
            return "direct and recursion routes disagree"
        levels = out["levels"]
        if [lv["n"] for lv in levels] != list(range(-1, n_max)):
            return f"levels {[lv['n'] for lv in levels]}"
        for lv in levels[:2]:
            for key, want in expected[lv["n"]].items():
                if _poly_of(lv[key]) != want:
                    return f"level {lv['n']} {key} = {lv[key]}, expected {_strs(want)}"
        return None
    return check


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def _write(workdir: Path, name: str, problem: dict) -> str:
    path = workdir / name
    path.write_text(json.dumps(problem), encoding="utf-8")
    return str(path)


def _certify_pass_job(workdir, kind, conic, data, lam, n_max, trunc):
    riccati = _riccati_block(data, lam)
    path = _write(workdir, f"{kind}.json", {
        "lattice": conic, "riccati": riccati,
        "options": {"n_max": n_max, "trunc": trunc, "deg_bounds": [4, 4, 4, 4]},
    })
    check = _expect_certify({s: "pass" for s in CERTIFY_STAGES}, 0, riccati,
                            {"n_max": n_max, "trunc": max(trunc, 2 * n_max + 2)})
    return Job(kind, ["certify", path], check)


def certify_reference(rng: random.Random, workdir: Path) -> list[Job]:
    """The shipped qhermite.json (B = 0) and qhermite_corecursive.json
    (B != 0): n_max 8, trunc 28, reference lattice over Q."""
    jobs = [
        _certify_pass_job(workdir, "certify-qhermite", REFERENCE_CONIC, QHERMITE,
                          rng.choice(SCALES), 8, 28),
        _certify_pass_job(workdir, "certify-corecursive", REFERENCE_CONIC, COREC,
                          rng.choice(SCALES), 8, 28),
    ]
    rng.shuffle(jobs)
    return jobs


def certify_surd(rng: random.Random, workdir: Path) -> list[Job]:
    """The only instance whose field is a genuine extension, Q(sqrt 5)."""
    return [_certify_pass_job(workdir, "certify-surd", SURD_CONIC, SURD,
                              rng.choice(SCALES), 3, 18)]


PERTURBATIONS = 6
RANDOM_FITS = 3


def negative_controls(rng: random.Random, workdir: Path) -> list[Job]:
    """Reject and discover paths: perturbed moments must fail at `riccati`,
    random moments must fit nothing, the recurrence file must fit qhermite."""
    n_rec = 42
    gamma = [gamma_qhermite(n) for n in range(n_rec)]
    moments = jacobi_moments([F(0)] * n_rec, gamma, 16)
    jobs = []
    for i in range(PERTURBATIONS):
        lam = rng.choice(SCALES)
        k = rng.randint(1, len(moments) - 1)
        perturbed = list(moments)
        perturbed[k] += rng.choice(DELTAS)
        riccati = _riccati_block(QHERMITE, lam)
        path = _write(workdir, f"perturbed-{i}.json", {
            "lattice": REFERENCE_CONIC, "riccati": riccati,
            "moments": _strs(perturbed), "options": {"n_max": 4, "trunc": 16},
        })
        check = _expect_certify({"moments": "pass", "riccati": "fail"}, 1, riccati,
                                {"n_max": 4, "trunc": 16})
        jobs.append(Job("certify-perturbed", ["certify", path], check))
    for i in range(RANDOM_FITS):
        random_moments = [F(1)] + [F(rng.randint(-99, 99), rng.randint(1, 20))
                                   for _ in range(33)]
        path = _write(workdir, f"random-{i}.json", {
            "lattice": REFERENCE_CONIC, "moments": _strs(random_moments),
            "options": {"deg_bounds": [4, 4, 4, 4]},
        })
        jobs.append(Job("fit-random", ["fit", path], _expect_no_candidates))
    # problems/qhermite_recurrence.json as shipped
    path = _write(workdir, "recurrence.json", {
        "lattice": REFERENCE_CONIC,
        "recurrence": {"beta": ["0"] * n_rec, "gamma": _strs(gamma)},
        "options": {"n_max": 8, "trunc": 28, "deg_bounds": [2, 0, 1, 0]},
    })
    jobs.append(Job("fit-recurrence", ["fit", path], _expect_proportional(QHERMITE)))
    rng.shuffle(jobs)
    return jobs


DERIVE_N_MAX = 20


def derive_deep(rng: random.Random, workdir: Path) -> list[Job]:
    """derive at n_max 20 with the recurrence supplied (no moment solve):
    beta_n = 0 (beta_0 = -1 for the co-recursive data), gamma_n of q-Hermite."""
    n_rec = 2 * DERIVE_N_MAX + 2
    gamma = _strs(gamma_qhermite(n) for n in range(n_rec))
    jobs = []
    for kind, data, beta0 in (("derive-qhermite", QHERMITE, F(0)),
                              ("derive-corecursive", COREC, F(-1))):
        riccati = _riccati_block(data, rng.choice(SCALES))
        path = _write(workdir, f"{kind}.json", {
            "lattice": REFERENCE_CONIC, "riccati": riccati,
            "recurrence": {"beta": [str(beta0)] + ["0"] * (n_rec - 1), "gamma": gamma},
            "options": {"n_max": DERIVE_N_MAX, "trunc": 28},
        })
        jobs.append(Job(kind, ["derive", path], _expect_derive(riccati, beta0, DERIVE_N_MAX)))
    rng.shuffle(jobs)
    return jobs


GENERATORS = {
    "certify-reference": certify_reference,
    "certify-surd": certify_surd,
    "negative-controls": negative_controls,
    "derive-deep": derive_deep,
}


def generate(workload: str, seed: int, workdir: Path) -> list[Job]:
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"), workdir)


def verdict(rc: int | None, out: dict | None) -> str:
    """A short verdict that must not depend on the seed."""
    if out is None:
        return f"exit {rc}, no JSON output"
    if "checks" in out:
        failing = [c["name"] for c in out["checks"] if c["verdict"] == "fail"]
        return f"exit {rc}, " + (f"fails at {failing[0]}" if failing else "passes")
    if "candidates" in out:
        return f"exit {rc}, {out['count']} candidate(s)"
    return f"exit {rc}, agreement {out.get('agreement')}"
