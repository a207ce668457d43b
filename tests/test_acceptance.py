"""Acceptance suite: every criterion at its stated tolerance.

All residual tolerances are exact zero (polynomial identities) or zero
within the computed truncation window (series identities); runtime budgets
are asserted.  Each test prints one PASS line; run with `pytest -s` to see
them.
"""
import random
import time
from fractions import Fraction as F

from snul import (
    LaurentSeries,
    Poly,
    Workspace,
    apply_D,
    apply_M,
    certify,
    fit_riccati,
    moments_from_recurrence,
    recurrence_from_moments,
    riccati_nullspace,
    second_kind_series,
    smop_from_recurrence,
    solve_moments_from_riccati,
)

from conftest import (
    liouville_defect,
    qhermite_corecursive_riccati,
    qhermite_riccati,
    random_poly,
    random_quasi_definite_recurrence,
    random_rational_lattice,
)
from test_laguerre_hahn import _in_span, _vector_of
from test_lattice import check_lemma_identities, check_product_quotient_identities


def _report(number: int, label: str, elapsed: float, detail: str):
    print(f"ACCEPTANCE {number} ({label}): PASS in {elapsed:.2f}s — {detail}")


def test_criterion_1_operator_laws(rational_lattices):
    """Product/quotient rules for D and M with exactly zero residual on
    >= 200 random (lattice, f, g), deg <= 8, >= 3 rational-sqrt(lambda)
    lattices including the reference one.  Budget: 10 s."""
    start = time.monotonic()
    rng = random.Random(2024)
    lattices = list(rational_lattices)
    assert len(lattices) >= 3
    for _ in range(3):
        lattices.append(random_rational_lattice(rng))
    cases = 0
    while cases < 200:
        lat = lattices[cases % len(lattices)]
        f = random_poly(rng, max_degree=8, min_degree=1)
        g = random_poly(rng, max_degree=8)
        check_product_quotient_identities(lat, f, g)
        cases += 1
    # reciprocal rules through honest series arithmetic: D(1/f) and M(1/f)
    for lat in lattices[:4]:
        for _ in range(3):
            f = random_poly(rng, max_degree=3, min_degree=1)
            inv = LaurentSeries.from_poly(f, 12).inverse()
            from snul import apply_D_series, apply_M_series, apply_shift
            e1f, e2f = apply_shift(lat, f, 1), apply_shift(lat, f, 2)
            inv_prod = LaurentSeries.from_poly((e1f * e2f).u, 16).inverse()
            assert apply_D_series(lat, inv).agrees_with(
                -inv_prod.mul_poly(apply_D(lat, f)))
            assert apply_M_series(lat, inv).agrees_with(
                inv_prod.mul_poly(apply_M(lat, f)))
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"operator-law suite took {elapsed:.2f}s (budget 10s)"
    _report(1, "operator laws", elapsed,
            f"{cases} polynomial cases + reciprocal series checks on {len(lattices)} lattices")


def test_criterion_2_lemma_suite(rational_lattices):
    """Polynomiality of E1f E2f, Mf, (E1f)^2+(E2f)^2 and the two mixed
    identities for 100 random polynomials.  Budget: 5 s."""
    start = time.monotonic()
    rng = random.Random(4096)
    lattices = list(rational_lattices)
    cases = 0
    while cases < 100:
        lat = lattices[cases % len(lattices)]
        f = random_poly(rng, max_degree=8, min_degree=1)
        g = random_poly(rng, max_degree=8)
        check_lemma_identities(lat, f, g)
        cases += 1
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"lemma suite took {elapsed:.2f}s (budget 5s)"
    _report(2, "lemma identities", elapsed, f"{cases} random polynomials")


def test_criterion_3_degree_law(rational_lattices):
    """deg Df = deg f - 1 and deg Mf = deg f for every tested f."""
    start = time.monotonic()
    rng = random.Random(8192)
    checked = 0
    for lat in rational_lattices:
        for _ in range(25):
            f = random_poly(rng, max_degree=8, min_degree=1)
            assert apply_D(lat, f).degree == f.degree - 1
            assert apply_M(lat, f).degree == f.degree
            checked += 1
        assert apply_D(lat, Poly.constant(9)).is_zero
    _report(3, "degree law", time.monotonic() - start, f"{checked} polynomials")


def test_criterion_4_orthopoly_suite():
    """liouville_defect == 0 up to n = 12, exact moment/recurrence
    round-trips, and O(x^(-n-1)) decay of q_n up to n = 10."""
    start = time.monotonic()
    rng = random.Random(31337)
    roundtrips = 0
    for _ in range(8):
        beta, gamma = random_quasi_definite_recurrence(rng, 26)
        moments = moments_from_recurrence(beta, gamma, 27)
        data = smop_from_recurrence(beta[:14], gamma[:14], 13)
        for n in range(13):
            assert liouville_defect(data, n).is_zero
        try:
            beta2, gamma2 = recurrence_from_moments(moments, 12)
        except Exception:
            continue
        assert beta2 == beta[:13] and gamma2 == gamma[:13]
        roundtrips += 1
        s = LaurentSeries.from_moments(moments)
        for n in range(11):
            qn = second_kind_series(data, s, n)  # raises if decay fails
            assert qn._effective_top() <= -n - 1
    assert roundtrips >= 5
    _report(4, "orthopoly suite", time.monotonic() - start,
            f"liouville n<=12, {roundtrips} exact round-trips, q_n decay n<=10")


def test_criterion_5_end_to_end(reference_lattice):
    """The frozen instance solved from its Riccati data passes the whole
    certification with n_max = 8 and truncation 28.  Budget: 60 s."""
    start = time.monotonic()
    n_max, order = 8, 2 * 8 + 12
    ric = qhermite_riccati(reference_lattice)
    moments = solve_moments_from_riccati(ric, order)
    cert = certify(ric, n_max=n_max, order=order, moments=moments)
    failing = [c.name for c in cert.checks if c.verdict != "pass"]
    assert cert.passed, f"failing checks: {failing}"
    for name in ("riccati", "structure-direct", "structure-relations-1",
                 "structure-relations-2", "second-kind-1", "second-kind-2",
                 "gathered", "recursion-corollary", "recursion-magnus",
                 "telescopes", "reconstruction"):
        assert cert.check(name).verdict == "pass"
    assert cert.check("riccati").window >= order - 2
    # theta_hat degree discipline: max(deg A - 2, deg B - 2, deg C - 1)
    bound = max(ric.A.degree - 2, ric.C.degree - 1)
    assert all(d is None or d <= bound for d in cert.degrees["theta_hat"])
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"end-to-end took {elapsed:.2f}s (budget 60s)"
    _report(5, "end-to-end equivalence", elapsed,
            f"n_max={n_max}, window={cert.check('riccati').window}, all checks pass")


def test_criterion_6_initial_conditions(reference_lattice):
    """Computed l_{-1}, pi_{-1}, Theta_{-1}, pi_0, l_0, Theta_0 equal the
    closed forms symbolically on every passing instance."""
    start = time.monotonic()
    from snul import structure_coeffs_direct
    for make in (qhermite_riccati, qhermite_corecursive_riccati):
        ric = make(reference_lattice)
        moments = solve_moments_from_riccati(ric, 18)
        beta, gamma = recurrence_from_moments(moments, 4)
        data = smop_from_recurrence(beta, gamma, 4)
        coeffs = structure_coeffs_direct(ric, data, 4)
        half_C = ric.C * F(1, 2)
        m0 = reference_lattice.p - data.beta[0]
        assert coeffs.l_at(-1) == half_C
        assert coeffs.pi_at(-1).is_zero
        assert coeffs.theta_at(-1) == ric.D
        assert coeffs.pi_at(0) == ric.D * F(-1, 2)
        assert coeffs.l_at(0) == -(m0 * ric.D) - half_C
        assert coeffs.theta_at(0) == (
            ric.A - reference_lattice.r * ric.D - (coeffs.l_at(0) - half_C) * m0 + ric.B
        )
    _report(6, "initial conditions", time.monotonic() - start,
            "closed forms match on both fixtures")


def test_criterion_7_reconstruction_and_fit(reference_lattice):
    """reconstruct_riccati recovers (A,B,C,D) up to scalar; fit_riccati's
    nullspace contains the original data."""
    start = time.monotonic()
    from snul import reconstruct_riccati, structure_coeffs_direct
    for make in (qhermite_riccati, qhermite_corecursive_riccati):
        ric = make(reference_lattice)
        moments = solve_moments_from_riccati(ric, 24)
        beta, gamma = recurrence_from_moments(moments, 5)
        data = smop_from_recurrence(beta, gamma, 5)
        coeffs = structure_coeffs_direct(ric, data, 5)
        assert reconstruct_riccati(coeffs).proportional_to(ric)
        bounds = (2, 1, 1, 0)
        basis = riccati_nullspace(Workspace(reference_lattice, LaurentSeries.from_moments(moments)), bounds)
        assert basis
        assert _in_span(basis, _vector_of(ric, bounds))
    _report(7, "reconstruction and fit", time.monotonic() - start,
            "round-trip up to scalar; originals inside the fitted nullspace")


def test_criterion_8_negative_controls(reference_lattice):
    """Single-moment perturbations always fail at the Riccati stage; random
    moments with degree-4 bounds give an empty fit in >= 95% of 50 trials."""
    start = time.monotonic()
    ric = qhermite_riccati(reference_lattice)
    n_max, order = 4, 16
    moments = solve_moments_from_riccati(ric, order)
    for k in range(1, 13):
        perturbed = list(moments)
        perturbed[k] += 1
        cert = certify(ric, n_max=n_max, order=order, moments=perturbed)
        assert not cert.passed
        assert cert.check("riccati").verdict == "fail", f"moment {k}"
        assert cert.check("structure-direct").verdict == "skip"

    rng = random.Random(65537)
    empty = 0
    trials = 50
    for _ in range(trials):
        random_moments = [F(1)] + [
            F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(33)
        ]
        s = LaurentSeries.from_moments(random_moments)
        if not fit_riccati(Workspace(reference_lattice, s), (4, 4, 4, 4)):
            empty += 1
    assert empty >= int(0.95 * trials), f"only {empty}/{trials} empty fits"
    elapsed = time.monotonic() - start
    _report(8, "negative controls", elapsed,
            f"12 single-moment perturbations fail at riccati; {empty}/{trials} empty fits")
