"""The structure stage against the SurdPoly route it replaced.

`structure_coeffs_direct` takes each level from the level recursion, and
`verify_structure_relations` forms the four residuals as rational pairs,
one `Poly.dot` each, from (D f, M f) = the parts of E2 f.  The reference
below is the earlier route, kept verbatim in substance: every shift
E_j P_n, E_j P1_n by Horner substitution (`apply_shift`) as a SurdPoly,
Theta_hat as a SurdPoly whose sqrt(r)-part is asserted zero, and all four
structure identities checked.  Both routes must give equal coefficients and residuals,
or raise the same exception with the same text, on the shipped instances,
on +/-1 mutations of A, B, C, D and on single-moment perturbations.  With
the degree bound of Theta_hat lifted, they must also agree on random
Riccati data and random recurrences: the reference's exact division and
second-equation check then show that the Cramer solution of the structure
system is always exact.  The gathered polynomial identities are checked
against their formulas from A_{n+1}, l_n and Theta_n, and each step of the
level recursion, one weighted sum of products per stored polynomial,
against the same step formed from separate Poly operations.
"""
import random
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest

from snul import (
    LaurentSeries,
    NotLaguerreHahn,
    NotQuasiDefinite,
    RiccatiData,
    gathered_relations,
    SnulError,
    Workspace,
    build_lattice,
    certify,
    corollary_coeffs,
    recurrence_from_moments,
    smop_from_recurrence,
    solve_moments_from_riccati,
    structure_coeffs_direct,
    verify_structure_relations,
)
from snul.cli import ProblemFile
from snul.errors import DegreeBoundExceeded
import snul.laguerre_hahn as lh
import snul.poly as poly_module
from snul.laguerre_hahn import _CERTIFY_STAGES, HALF, StructureCoeffs
from snul.lattice import apply_shift
from snul.poly import Poly
from snul.surd import SurdPoly, surd_exact_div

from conftest import (
    IMAGINARY_CONIC,
    RATIONAL_CONICS,
    SURD_CONIC,
    random_poly,
    random_quasi_definite_recurrence,
)

ROOT = Path(__file__).resolve().parent.parent
INSTANCES = [ROOT / "problems" / f"{stem}.json"
             for stem in ("qhermite", "qhermite_corecursive", "qhermite_wide")]
INSTANCES.append(Path(__file__).resolve().parent / "data" / "surd_conic.json")
MUTATION_N_MAX = 5


# -- the reference route ---------------------------------------------------------

def _ref_shifts(lattice, f):
    e2 = apply_shift(lattice, f, 2)
    return e2.conjugate(), e2


def reference_structure(ric, data, n_max, sqrt_r_parts):
    """The SurdPoly-form constructive route; appends the sqrt(r)-part of
    every Theta_hat it forms to `sqrt_r_parts`."""
    lattice = ric.lattice
    A, B, C, D = ric.polys()
    half_C = C * HALF
    bound = lh._theta_degree_bound(ric)
    coeffs = StructureCoeffs(ric, data)
    for n in range(1, n_max + 1):
        e1_pn, e2_pn = _ref_shifts(lattice, data.poly(n))
        d_pn = e2_pn.v
        e1_p1, e2_p1 = _ref_shifts(lattice, data.assoc(n - 1))
        d_p1 = e2_p1.v
        e1_pn_prev, e2_pn_prev = _ref_shifts(lattice, data.poly(n - 1))
        e1_p1_prev, e2_p1_prev = _ref_shifts(lattice, data.assoc(n - 2))

        theta_hat_surd = (
            (A * d_pn) * e1_p1
            - (A * d_p1) * e1_pn
            + B * (e1_p1 * e2_p1)
            + half_C * (e1_p1 * e2_pn + e1_pn * e2_p1)
            + D * (e1_pn * e2_pn)
        )
        sqrt_r_parts.append(theta_hat_surd.v)
        if not theta_hat_surd.is_polynomial:
            raise NotLaguerreHahn(
                n, f"theta_hat has sqrt(r)-component {theta_hat_surd.v}"
            )
        theta_hat = theta_hat_surd.u
        if not theta_hat.is_zero and theta_hat.degree > bound:
            raise DegreeBoundExceeded(n - 1, theta_hat.degree, bound)
        theta = theta_hat / data.gamma_product(n - 1)

        numerator = A * d_pn + half_C * e2_pn + B * e2_p1 - theta * e1_pn_prev
        l_surd = surd_exact_div(numerator, e1_pn)
        l_poly = l_surd.u
        pi_poly = l_surd.v * HALF

        lhs2 = A * d_p1 - half_C * e2_p1 - D * e2_pn - theta * e1_p1_prev
        if lhs2 != l_surd * e1_p1:
            raise NotLaguerreHahn(n, "second structure equation (E1 variant) failed")
        l_conj = l_surd.conjugate()
        lhs3 = A * d_pn + half_C * e1_pn + B * e1_p1 - theta * e2_pn_prev
        if lhs3 != l_conj * e2_pn:
            raise NotLaguerreHahn(n, "first structure equation (E2 variant) failed")
        lhs4 = A * d_p1 - half_C * e1_p1 - D * e1_pn - theta * e2_p1_prev
        if lhs4 != l_conj * e2_p1:
            raise NotLaguerreHahn(n, "second structure equation (E2 variant) failed")

        coeffs.append_level(l_poly, pi_poly, theta)
        assert coeffs.theta_hat_at(n - 1) == theta_hat    # the derived form
    return coeffs


def _levels(coeffs):
    """Every level list of `coeffs` by name, Theta_hat and A_n included."""
    levels = range(-1, coeffs.max_level + 1)
    return {"l": coeffs.l, "pi": coeffs.pi, "theta": coeffs.theta,
            "theta_hat": [coeffs.theta_hat_at(n) for n in levels],
            "A_gathered": [coeffs.A_at(n + 1) for n in levels]}


def reference_gathered(ric, data, coeffs, n):
    """The gathered polynomial residuals at level n, from A_{n+1}, l_n and
    Theta_n."""
    half_C = ric.C * HALF
    l_n, theta_n, a_next = coeffs.l_at(n), coeffs.theta_at(n), coeffs.A_at(n + 1)
    m_pn = _ref_shifts(ric.lattice, data.poly(n))[1].u
    e2_pnext = _ref_shifts(ric.lattice, data.poly(n + 1))[1]
    e2_p1 = _ref_shifts(ric.lattice, data.assoc(n))[1]
    m_p1_prev = _ref_shifts(ric.lattice, data.assoc(n - 1))[1].u
    res_p = (a_next * e2_pnext.v - (l_n - half_C) * e2_pnext.u + ric.B * e2_p1.u
             - theta_n * m_pn)
    res_p1 = (a_next * e2_p1.v - (l_n + half_C) * e2_p1.u - ric.D * e2_pnext.u
              - theta_n * m_p1_prev)
    return res_p, res_p1


def reference_relations(ric, data, coeffs, n):
    """All four structure-relation residuals, each formed on its own.  The
    E2 pair must be the sqrt(r)-conjugate of the E1 pair, which is returned
    as rational pairs (u, v) of u + sqrt(r) v."""
    lattice = ric.lattice
    A, B, C, D = ric.polys()
    half_C = C * HALF
    l, pi, theta = coeffs.l_at(n - 1), coeffs.pi_at(n - 1), coeffs.theta_at(n - 1)
    sqrt_r = SurdPoly.sqrt_r(lattice.r)
    l_plus = l + sqrt_r * (pi * 2)
    l_minus = l - sqrt_r * (pi * 2)
    e1_pn, e2_pn = _ref_shifts(lattice, data.poly(n))
    d_pn = e2_pn.v
    e1_p1, e2_p1 = _ref_shifts(lattice, data.assoc(n - 1))
    d_p1 = e2_p1.v
    e1_pn_prev, e2_pn_prev = _ref_shifts(lattice, data.poly(n - 1))
    e1_p1_prev, e2_p1_prev = _ref_shifts(lattice, data.assoc(n - 2))

    res1a = (A * d_pn) - l_plus * e1_pn + half_C * e2_pn + B * e2_p1 - theta * e1_pn_prev
    res1b = (A * d_p1) - l_plus * e1_p1 - half_C * e2_p1 - D * e2_pn - theta * e1_p1_prev
    res2a = (A * d_pn) - l_minus * e2_pn + half_C * e1_pn + B * e1_p1 - theta * e2_pn_prev
    res2b = (A * d_p1) - l_minus * e2_p1 - half_C * e1_p1 - D * e1_pn - theta * e2_p1_prev
    assert (res2a, res2b) == (res1a.conjugate(), res1b.conjugate())
    return (res1a.u, res1a.v), (res1b.u, res1b.v)


# -- inputs --------------------------------------------------------------------

def _instance(path):
    problem = ProblemFile.load(str(path))
    lattice = problem.build_lattice()
    ric = problem.riccati_data(lattice)
    moments = solve_moments_from_riccati(ric, max(problem.trunc, 2 * problem.n_max + 2))
    return ric, moments, problem.n_max


def _data(ric, moments, n_max):
    beta, gamma = recurrence_from_moments(moments, n_max)
    return smop_from_recurrence(beta, gamma, n_max)


def _riccati_mutants(ric):
    """+/-1 on each coefficient of A, B, C and D up to one past its degree."""
    for k, name in enumerate("ABCD"):
        poly = ric.polys()[k]
        for i in range((poly.degree or 0) + 2):
            for delta in (1, -1):
                coeffs = list(poly.coeffs) + [0] * (i + 1 - len(poly.coeffs))
                coeffs[i] += delta
                polys = list(ric.polys())
                polys[k] = Poly(coeffs)
                if not polys[0].is_zero:
                    yield f"{name}[{i}]{delta:+d}", RiccatiData(*polys, ric.lattice)


def _cases():
    """(id, ric, data, n_max): each instance as shipped, then its Riccati
    mutants and single-moment perturbations at MUTATION_N_MAX levels."""
    out = []
    for path in INSTANCES:
        ric, moments, n_max = _instance(path)
        out.append((path.stem, ric, _data(ric, moments, n_max), n_max))
        n_mut = min(n_max, MUTATION_N_MAX)
        data = _data(ric, moments, n_mut)
        for tag, mutant in _riccati_mutants(ric):
            out.append((f"{path.stem}-{tag}", mutant, data, n_mut))
        for k in range(1, 2 * n_mut + 2):
            bad = list(moments)
            bad[k] += 1
            try:
                out.append((f"{path.stem}-u{k}+1", ric, _data(ric, bad, n_mut), n_mut))
            except NotQuasiDefinite:
                pass
    return out


CASES = _cases()


def _outcome(run):
    try:
        return "ok", run()
    except (SnulError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


# -- the oracle tests ---------------------------------------------------------------

def test_routes_agree():
    outcomes = {}
    for case_id, ric, data, n_max in CASES:
        sqrt_r_parts = []
        kind, ref = _outcome(lambda: reference_structure(ric, data, n_max, sqrt_r_parts))
        got_kind, got = _outcome(
            lambda: structure_coeffs_direct(ric, data, n_max))
        assert all(v.is_zero for v in sqrt_r_parts), case_id
        assert got_kind == kind, case_id
        outcomes[case_id] = ref if kind != "ok" else "ok"
        if kind != "ok":
            assert got == ref, case_id
            continue
        for name, polys in _levels(ref).items():
            assert _levels(got)[name] == polys, (case_id, name)
        ws = Workspace(ric.lattice)
        for n in range(1, n_max + 1):
            assert (verify_structure_relations(ws, got, n)
                    == reference_relations(ric, data, ref, n)), (case_id, n)
    # every instance passes, and mutants stop at the degree bound of Theta_hat
    # at level 0 and at later levels.  Past the bound nothing can fail: the
    # structure system has the constant determinant -gamma_0..gamma_{n-1}, so
    # its Cramer solution always divides exactly and meets both equations
    # (test_cramer_solution_is_exact)
    texts = set(outcomes.values())
    assert "ok" in texts
    assert {t[-5:] for t in texts if "exceeds bound" in t} >= {f"n = {n}" for n in range(4)}


DEEP_N_MAX = 20


@pytest.mark.parametrize("path", INSTANCES, ids=lambda p: p.stem)
def test_no_level_falls_back(path, monkeypatch):
    # the structure stage multiplies no two polynomials of degree about n:
    # every product has a factor no longer than the Riccati data, r or the
    # coefficients of one level, whose degrees are bounded
    ric, _, _ = _instance(path)
    moments = solve_moments_from_riccati(ric, 2 * DEEP_N_MAX + 2)
    data = _data(ric, moments, DEEP_N_MAX)
    shorter = []

    def recording(terms, length=None):
        shorter.extend(min(len(xs), len(ys)) for w, xs, ys in terms if w)
        return kernel(terms, length)
    kernel = poly_module._int_dot
    monkeypatch.setattr(poly_module, "_int_dot", recording)
    coeffs = structure_coeffs_direct(ric, data, DEEP_N_MAX)
    assert coeffs.max_level == DEEP_N_MAX - 1
    small = max(len(p.nums) for p in [*ric.polys(), ric.lattice.r, *coeffs.l, *coeffs.pi,
                                      *coeffs.theta])
    assert max(shorter) <= small < DEEP_N_MAX // 2, path.stem


@pytest.mark.parametrize("path", INSTANCES, ids=lambda p: p.stem)
def test_one_reduction_per_stored_level(path, monkeypatch):
    # each of l, pi, Theta is one sum of products with one gcd, and A_{n+1}
    # and s_{n+1} = Theta_n/gamma_{n+1} one more each as the level is
    # stored: no Poly is formed and dropped, and no product, difference or
    # division by gamma is a Poly operation
    ric, _, _ = _instance(path)
    moments = solve_moments_from_riccati(ric, 2 * DEEP_N_MAX + 2)
    data = _data(ric, moments, DEEP_N_MAX)
    counts = Counter()

    def counting(name, method):
        def wrapped(*args):
            counts[name] += 1
            return method(*args)
        return wrapped
    for name in ("__mul__", "__sub__", "__truediv__"):
        monkeypatch.setattr(Poly, name, counting(name, getattr(Poly, name)))
    from_ints = counting("_from_ints", Poly._from_ints)
    monkeypatch.setattr(Poly, "_from_ints", classmethod(lambda cls, *args: from_ints(*args)))
    steps = []

    def per_call(step):
        def wrapped(*args):
            before = Counter(counts)
            out = step(*args)
            steps.append(dict(counts - before))
            return out
        return wrapped
    for name in ("corollary_level_zero", "corollary_recursion"):
        monkeypatch.setattr(lh, name, per_call(getattr(lh, name)))
    counts.clear()
    coeffs = structure_coeffs_direct(ric, data, DEEP_N_MAX)
    assert coeffs.max_level == DEEP_N_MAX - 1
    assert steps == [{"_from_ints": 3}] * DEEP_N_MAX, path.stem
    # plus A_{n+1} and s_{n+1} per level, and C/2 and p^2 - r once
    assert counts == {"_from_ints": 5 * DEEP_N_MAX + 2, "__mul__": 1}, path.stem


def reference_level_zero(coeffs):
    """The level-0 closed forms as separate Poly operations."""
    ric, m0 = coeffs.ric, coeffs.ric.lattice.p - coeffs.data.beta[0]
    A, B, C, D = ric.polys()
    l0 = -(m0 * D) - C * HALF
    theta0 = A - ric.lattice.r * D - (l0 - C * HALF) * m0 + B
    return l0, D * F(-1, 2), theta0


def reference_step(coeffs, n):
    """One step n -> n+1 of the level recursion as the structure stage formed
    it before each level was one weighted sum of products: s_k = Theta_{k-1}
    / gamma_k and m_k = M(x - beta_k) as Polys, and Theta_{n+1} with the
    term (gamma_{n+1} - m_n m_{n+1} - r) s_n + m_{n+1} (l_n - l_{n-1})."""
    ric, gamma, dot, r = coeffs.ric, coeffs.data.gamma, Poly.dot, coeffs.ric.lattice.r
    step, step_prev = coeffs.theta_at(n) / gamma[n + 1], coeffs.theta_at(n - 1) / gamma[n]
    pi_n, pi_prev, l_n = coeffs.pi_at(n), coeffs.pi_at(n - 1), coeffs.l_at(n)
    m_here, m_next = (ric.lattice.p - coeffs.data.beta[k] for k in (n, n + 1))
    pi_next = dot(((pi_prev, 1), (step, -HALF), (step_prev, -HALF)))
    theta_next = dot(((ric.A, 1), (r, (pi_n + pi_prev) * 2),
                      (step_prev, gamma[n + 1] - m_here * m_next - r),
                      (step, m_next * m_next - r), (m_next, l_n - coeffs.l_at(n - 1))))
    return -dot(((l_n, 1), (m_next, step))), pi_next, theta_next


STEP_N_MAX = 8


@pytest.mark.parametrize("conic", RATIONAL_CONICS + [SURD_CONIC, IMAGINARY_CONIC],
                         ids=lambda c: ",".join(str(v) for v in c))
def test_fused_step_matches_reference_step(conic):
    # random (A, B, C, D), B != 0 in half the cases and not Laguerre-Hahn,
    # on a random recurrence whose beta_k and gamma_k have unrelated
    # denominators: every level of the recursion, and A_n, as the separate
    # Poly operations give them
    lattice = build_lattice(*conic)
    rng = random.Random(f"fused step {conic}")
    for trial in range(4):
        B = random_poly(rng, 3) if trial % 2 else Poly.zero()
        ric = RiccatiData(random_poly(rng, 3), B, random_poly(rng, 3), random_poly(rng, 3),
                          lattice)
        beta = [F(rng.randint(-97, 97), rng.randint(1, 97)) for _ in range(STEP_N_MAX + 1)]
        gamma = [F(1)] + [F(rng.choice((-1, 1)) * rng.randint(1, 97), rng.randint(1, 97))
                          for _ in range(STEP_N_MAX)]
        data = smop_from_recurrence(beta, gamma, STEP_N_MAX)
        ref = StructureCoeffs(ric, data)
        ref.append_level(*reference_level_zero(ref))
        assert lh.corollary_level_zero(ref) == (ref.l_at(0), ref.pi_at(0), ref.theta_at(0))
        for n in range(STEP_N_MAX - 1):
            want = reference_step(ref, n)
            assert lh.corollary_recursion(ref, n) == want, (trial, n)
            ref.append_level(*want)
        got = corollary_coeffs(ric, data, STEP_N_MAX)
        assert got.same_as(ref) and got.gathered == ref.gathered, trial
        assert got.gathered == [ric.A + (lattice.r * 2) * pi for pi in got.pi], trial
        assert got.steps == [theta / g for theta, g in zip(got.theta, gamma)], trial
        # no Theta_k, k >= 1, is constant, so every product in the step is exercised
        assert all(theta.degree for theta in got.theta[2:]), trial


def _move_theta(monkeypatch, k, delta):
    """Make the level recursion add `delta` to Theta_k."""
    original = lh.corollary_recursion
    level_zero = lh.corollary_level_zero

    def moved(l, pi, theta, level):
        return (l, pi, theta + delta) if level == k else (l, pi, theta)
    monkeypatch.setattr(lh, "corollary_level_zero",
                        lambda coeffs: moved(*level_zero(coeffs), 0))
    monkeypatch.setattr(lh, "corollary_recursion",
                        lambda coeffs, n: moved(*original(coeffs, n), n + 1))


@pytest.mark.parametrize("path", INSTANCES, ids=lambda p: p.stem)
@pytest.mark.parametrize("k", [0, 1, 2])
def test_moved_theta_fails_the_exact_check(path, k, monkeypatch):
    # the oracle sees a wrong recursion: Theta_k moved by one keeps its
    # degree, and the relations hold below level k + 1 and fail there
    _move_theta(monkeypatch, k, 1)
    ric, moments, n_max = _instance(path)
    data = _data(ric, moments, n_max)
    coeffs = corollary_coeffs(ric, data, n_max)
    ws = Workspace(ric.lattice)
    for n in range(1, k + 1):
        assert not any(res for pair in verify_structure_relations(ws, coeffs, n)
                       for res in pair), n
    first, _ = verify_structure_relations(ws, coeffs, k + 1)
    assert any(first)


@pytest.mark.parametrize("path", INSTANCES, ids=lambda p: p.stem)
@pytest.mark.parametrize("k", [0, 1, 2])
def test_theta_over_the_bound_fails_structure_direct(path, k, monkeypatch):
    # the degree bound of Theta_hat is the stage's one check: Theta_k plus
    # x^(bound + 1) fails structure-direct at level k, and certify stops there
    ric, moments, n_max = _instance(path)
    bound = lh._theta_degree_bound(ric)
    _move_theta(monkeypatch, k, Poly([0] * (bound + 1) + [1]))
    cert = certify(ric, n_max, len(moments) - 1, moments=moments)
    failed = [(c.name, c.verdict, c.detail) for c in cert.checks if c.verdict != "pass"]
    after = _CERTIFY_STAGES[_CERTIFY_STAGES.index("structure-direct") + 1:]
    text = str(DegreeBoundExceeded(k, bound + 1, bound))
    assert text == f"theta_hat degree {bound + 1} exceeds bound {bound} at level n = {k}"
    assert failed == [("structure-direct", "fail", text)] + [(nm, "skip", "") for nm in after]


@pytest.mark.parametrize("path", INSTANCES, ids=lambda p: p.stem)
def test_relations_agree_on_tampered_coefficients(path):
    # nonzero residuals: each of l, pi, Theta at level 0 moved by one
    ric, moments, _ = _instance(path)
    data = _data(ric, moments, 2)
    coeffs = structure_coeffs_direct(ric, data, 2)
    for which in range(3):
        tampered = StructureCoeffs(ric, data)
        level = [coeffs.l_at(0), coeffs.pi_at(0), coeffs.theta_at(0)]
        level[which] = level[which] + 1
        tampered.append_level(*level)
        got = verify_structure_relations(Workspace(ric.lattice), tampered, 1)
        assert got == reference_relations(ric, data, tampered, 1)
        assert not all(res.is_zero for pair in got for res in pair)


@pytest.mark.parametrize("path", INSTANCES, ids=lambda p: p.stem)
def test_gathered_matches_formulas(path):
    ric, moments, n_max = _instance(path)
    data = _data(ric, moments, n_max)
    coeffs = structure_coeffs_direct(ric, data, n_max)
    ws = Workspace(ric.lattice, LaurentSeries.from_moments(moments))
    for n in range(n_max):
        got = gathered_relations(ws, coeffs, n)[:2]
        assert got == reference_gathered(ric, data, coeffs, n), (path.stem, n)
        assert all(res.is_zero for res in got)
    # each of l, pi, Theta at level 0 moved by one, with A_1 = A + 2 r pi_0
    for which in range(3):
        tampered = StructureCoeffs(ric, data)
        level = [coeffs.l_at(0), coeffs.pi_at(0), coeffs.theta_at(0)]
        level[which] = level[which] + 1
        tampered.append_level(*level)
        got = gathered_relations(ws, tampered, 0)[:2]
        assert got == reference_gathered(ric, data, tampered, 0), (path.stem, which)
        assert not all(res.is_zero for res in got)


FUSED_N_MAX = 4


@pytest.mark.parametrize("conic", RATIONAL_CONICS + [SURD_CONIC, IMAGINARY_CONIC],
                         ids=lambda c: ",".join(str(v) for v in c))
def test_fused_residuals_match_reference(conic):
    # random (l, pi, Theta) on random Riccati data and a random recurrence:
    # every residual is nonzero, and from level 3 on every term of each of
    # the four is, so a wrong weight in `verify_structure_relations` shows
    lattice = build_lattice(*conic)
    rng = random.Random(f"fused {conic}")
    for _ in range(3):
        ric = RiccatiData(*(random_poly(rng, 3) for _ in "ABCD"), lattice)
        beta, gamma = random_quasi_definite_recurrence(rng, FUSED_N_MAX + 1)
        data = smop_from_recurrence(beta, gamma, FUSED_N_MAX)
        coeffs = StructureCoeffs(ric, data)
        for _ in range(FUSED_N_MAX):
            coeffs.append_level(*(random_poly(rng, 3) for _ in range(3)))
        ws = Workspace(lattice)
        for n in range(1, FUSED_N_MAX + 1):
            got = verify_structure_relations(ws, coeffs, n)
            assert got == reference_relations(ric, data, coeffs, n), n
            assert all(res for pair in got for res in pair), n


CRAMER_N_MAX = 6


@pytest.mark.parametrize("conic", RATIONAL_CONICS + [SURD_CONIC, IMAGINARY_CONIC],
                         ids=lambda c: ",".join(str(v) for v in c))
def test_cramer_solution_is_exact(conic, monkeypatch):
    # with no degree bound, random (A, B, C, D) on a random recurrence reach
    # the exact division and the second equation of the reference route at
    # every level; the reference raises there if either ever fails
    monkeypatch.setattr(lh, "_theta_degree_bound", lambda ric: 10 ** 6)
    lattice = build_lattice(*conic)
    rng = random.Random(f"cramer {conic}")
    for _ in range(5):
        ric = RiccatiData(random_poly(rng, 3), *(
            random_poly(rng, 3) if rng.random() < 0.75 else Poly.zero()
            for _ in "BCD"), lattice)
        beta, gamma = random_quasi_definite_recurrence(rng, CRAMER_N_MAX + 1)
        data = smop_from_recurrence(beta, gamma, CRAMER_N_MAX)
        got = structure_coeffs_direct(ric, data, CRAMER_N_MAX)
        ref = reference_structure(ric, data, CRAMER_N_MAX, [])
        for name, polys in _levels(ref).items():
            assert _levels(got)[name] == polys, name
        ws = Workspace(lattice)
        for n in range(1, CRAMER_N_MAX + 1):
            assert all(res.is_zero for pair in verify_structure_relations(
                ws, got, n) for res in pair), n


def test_shift_walk_stops_at_n_max(reference_lattice):
    # the oracle reads P_n and P1_n of the recurrence, which ends at n_max:
    # with levels held up to n_max, the relations at n_max + 1 raise
    data = smop_from_recurrence([F(0)] * 5, [F(1)] * 5, 3)
    ric = RiccatiData(Poly([8, 0, -9]), Poly.zero(), Poly([0, 12]), Poly([-6]),
                      reference_lattice)
    coeffs = corollary_coeffs(ric, data, 4)
    assert coeffs.max_level == 3
    ws = Workspace(reference_lattice)
    verify_structure_relations(ws, coeffs, 3)
    with pytest.raises(IndexError):
        verify_structure_relations(ws, coeffs, 4)
