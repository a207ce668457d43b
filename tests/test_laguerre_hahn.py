import random
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest

from snul import (
    Certificate,
    DegreeBoundExceeded,
    FreeMoment,
    Inconsistent,
    InsufficientTruncation,
    InvalidRecurrence,
    LaurentSeries,
    NotLaguerreHahn,
    Poly,
    RiccatiData,
    Underdetermined,
    Workspace,
    build_lattice,
    certify,
    corollary_coeffs,
    corollary_recursion,
    fit_riccati,
    magnus_data_from_coeffs,
    magnus_step,
    reconstruct_riccati,
    riccati_nullspace,
    riccati_residual,
    second_kind_series,
    smop_from_recurrence,
    solve_moments_from_riccati,
    structure_coeffs_direct,
    telescope_residuals,
    verify_second_kind_relations,
    verify_structure_relations,
)
from snul.laguerre_hahn import MagnusRiccatiData, StructureCoeffs

from conftest import (
    IMAGINARY_CONIC,
    RATIONAL_CONICS,
    SURD_CONIC,
    qhermite_corecursive_recurrence,
    qhermite_corecursive_riccati,
    qhermite_recurrence,
    qhermite_riccati,
    random_poly,
    random_quasi_definite_recurrence,
)

DATA = Path(__file__).resolve().parent / "data"
N_MAX = 6
RANDOM_N_MAX = 7
ORDER = 2 * N_MAX + 12


@pytest.fixture(scope="module")
def semiclassical(reference_lattice):
    ric = qhermite_riccati(reference_lattice)
    moments = solve_moments_from_riccati(ric, ORDER)
    from snul import recurrence_from_moments
    beta, gamma = recurrence_from_moments(moments, N_MAX)
    data = smop_from_recurrence(beta, gamma, N_MAX)
    coeffs = structure_coeffs_direct(ric, data, N_MAX)
    return ric, data, coeffs


@pytest.fixture(scope="module")
def corecursive(reference_lattice):
    ric = qhermite_corecursive_riccati(reference_lattice)
    moments = solve_moments_from_riccati(ric, ORDER)
    from snul import recurrence_from_moments
    beta, gamma = recurrence_from_moments(moments, N_MAX)
    data = smop_from_recurrence(beta, gamma, N_MAX)
    coeffs = structure_coeffs_direct(ric, data, N_MAX)
    return ric, data, coeffs


def stieltjes(ric: RiccatiData) -> LaurentSeries:
    """The S of a fixture: u_0..u_ORDER solved from its Riccati data."""
    return LaurentSeries.from_moments(solve_moments_from_riccati(ric, ORDER))


class TestRiccatiResidual:
    def test_pure_A_term(self, reference_lattice):
        lat = reference_lattice
        ric = RiccatiData(Poly.one(), Poly.zero(), Poly.zero(),
                          Poly.zero(), lat)
        s = LaurentSeries.from_moments([F(1), F(0), F(1, 2), F(0), F(1, 3)])
        res = riccati_residual(ric, Workspace(lat, s))
        # residual is exactly D S, nonzero unless D S vanishes
        assert not res.is_zero_within_window()

    def test_fixture_residual_zero(self, semiclassical):
        ric, data, _ = semiclassical
        res = riccati_residual(ric, Workspace(ric.lattice, stieltjes(ric)))
        assert res.is_zero_within_window()
        assert res.truncation_order >= ORDER - 2

    def test_perturbation_detected(self, semiclassical):
        ric, data, _ = semiclassical
        bad = solve_moments_from_riccati(ric, ORDER)
        bad[3] += 1
        res = riccati_residual(ric, Workspace(ric.lattice, LaurentSeries.from_moments(bad)))
        assert not res.is_zero_within_window()


class TestSolveMoments:
    def test_u0_imposed(self, semiclassical):
        ric, _, _ = semiclassical
        assert solve_moments_from_riccati(ric, 0) == [F(1)]

    def test_matches_recurrence_route(self, reference_lattice):
        beta, gamma = qhermite_recurrence(20)
        from snul import moments_from_recurrence
        expect = moments_from_recurrence(beta, gamma, 20)
        ric = qhermite_riccati(reference_lattice)
        assert solve_moments_from_riccati(ric, 20) == expect

    def test_corecursive_matches(self, reference_lattice):
        beta, gamma = qhermite_corecursive_recurrence(16)
        from snul import moments_from_recurrence
        expect = moments_from_recurrence(beta, gamma, 16)
        ric = qhermite_corecursive_riccati(reference_lattice)
        assert solve_moments_from_riccati(ric, 16) == expect

    def test_ds_zero_inconsistent(self, reference_lattice):
        # A = 1, B = C = D = 0 demands D S = 0; already u_0 = 1 makes
        # D(x^-1) = -1/(y1 y2) nonzero, so the pre-constraints fail.
        lat = reference_lattice
        ric = RiccatiData(Poly.one(), Poly.zero(), Poly.zero(),
                          Poly.zero(), lat)
        with pytest.raises(Inconsistent) as exc:
            solve_moments_from_riccati(ric, 4)
        assert exc.value.k == 0

    @pytest.mark.parametrize("count", [-1, -3])
    def test_negative_count_rejected(self, semiclassical, count):
        ric, _, _ = semiclassical
        with pytest.raises(ValueError):
            solve_moments_from_riccati(ric, count)

    def test_free_moment_surfaced(self, reference_lattice):
        # engineered so the u_1 equation is vacuous: with A = 17 x^2,
        # C = -20 x the leading contributions -(5/2) a_2 and (17/8) c_1
        # cancel, and D = 8 satisfies the x^0 pre-constraint.
        lat = reference_lattice
        ric = RiccatiData(Poly([0, 0, 17]), Poly.zero(),
                          Poly([0, -20]), Poly([8]), lat)
        with pytest.raises(FreeMoment) as exc:
            solve_moments_from_riccati(ric, 3)
        assert exc.value.k == 1
        # supplying the free value lets the solve continue past k = 1
        try:
            moments = solve_moments_from_riccati(ric, 3, free_values={1: F(5)})
            assert moments[1] == F(5)
        except Inconsistent as later:
            assert later.k > 1


class TestFit:
    def test_recovers_fixture(self, semiclassical):
        ric, data, _ = semiclassical
        s = stieltjes(ric)
        cands = fit_riccati(Workspace(ric.lattice, s), (2, 0, 1, 0))
        assert len(cands) == 1
        assert cands[0].proportional_to(ric)

    def test_nullspace_contains_original_with_loose_bounds(self, semiclassical):
        ric, data, _ = semiclassical
        s = stieltjes(ric)
        basis = riccati_nullspace(Workspace(ric.lattice, s), (3, 1, 2, 1))
        assert basis, "nullspace should not be empty"
        original = _vector_of(ric, (3, 1, 2, 1))
        assert _in_span(basis, original)

    def test_random_moments_fit_empty(self, reference_lattice):
        rng = random.Random(99)
        moments = [F(1)] + [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(33)]
        s = LaurentSeries.from_moments(moments)
        assert fit_riccati(Workspace(reference_lattice, s), (4, 4, 4, 4)) == []

    def test_recovers_surd_conic_data(self):
        # sqrt(lambda) = sqrt(5) is irrational, the moments are rational
        from snul.cli import ProblemFile
        problem = ProblemFile.load(str(DATA / "surd_conic.json"))
        lattice = problem.build_lattice()
        assert lattice.lam == 5
        ric = problem.riccati_data(lattice)
        moments = solve_moments_from_riccati(ric, problem.trunc)
        s = LaurentSeries.from_moments(moments)
        cands = fit_riccati(Workspace(lattice, s), (2, 0, 1, 0))
        assert len(cands) == 1
        assert cands[0].proportional_to(ric)

    def test_constant_bounds_rejected_by_A_filter(self, reference_lattice):
        moments = [F(1), F(1, 2), F(1, 3), F(2), F(1), F(0), F(1), F(2), F(3)]
        s = LaurentSeries.from_moments(moments)
        assert fit_riccati(Workspace(reference_lattice, s), (0, 0, 0, 0)) == []


def _vector_of(ric: RiccatiData, bounds) -> list:
    vec = []
    for poly, bound in zip(ric.polys(), bounds):
        for i in range(bound + 1):
            vec.append(poly.coefficient(i))
    return vec


def _in_span(basis: list[list], vector: list) -> bool:
    """Rank test over Q: vector in span(basis)?"""
    rows = [[F(v) for v in b] for b in basis]

    def rank(mat):
        mat = [row[:] for row in mat]
        r = 0
        ncols = len(mat[0])
        for col in range(ncols):
            piv = next((i for i in range(r, len(mat)) if mat[i][col]), None)
            if piv is None:
                continue
            mat[r], mat[piv] = mat[piv], mat[r]
            inv = 1 / mat[r][col]
            mat[r] = [v * inv for v in mat[r]]
            for i in range(len(mat)):
                if i != r and mat[i][col]:
                    f = mat[i][col]
                    mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
            r += 1
        return r

    return rank(rows) == rank(rows + [list(vector)])


class TestStructureCoeffs:
    def test_initial_conditions(self, semiclassical):
        ric, data, coeffs = semiclassical
        lat = ric.lattice
        half_C = ric.C * F(1, 2)
        assert coeffs.l_at(-1) == half_C
        assert coeffs.pi_at(-1).is_zero
        assert coeffs.theta_at(-1) == ric.D
        m0 = lat.p - data.beta[0]
        assert coeffs.l_at(0) == -(m0 * ric.D) - half_C
        assert coeffs.pi_at(0) == ric.D * F(-1, 2)
        assert coeffs.theta_at(0) == (
            ric.A - lat.r * ric.D - (coeffs.l_at(0) - half_C) * m0 + ric.B
        )

    def test_initial_conditions_corecursive(self, corecursive):
        ric, data, coeffs = corecursive
        lat = ric.lattice
        half_C = ric.C * F(1, 2)
        m0 = lat.p - data.beta[0]
        assert coeffs.l_at(-1) == half_C
        assert coeffs.pi_at(0) == ric.D * F(-1, 2)
        assert coeffs.theta_at(0) == (
            ric.A - lat.r * ric.D - (coeffs.l_at(0) - half_C) * m0 + ric.B
        )

    def test_theta_hat_degree_bound(self, semiclassical, corecursive):
        for ric, data, coeffs in (semiclassical, corecursive):
            candidates = [ric.A.degree - 2]
            if not ric.B.is_zero:
                candidates.append(ric.B.degree - 2)
            if not ric.C.is_zero:
                candidates.append(ric.C.degree - 1)
            bound = max(candidates)
            for n in range(0, coeffs.max_level + 1):
                th = coeffs.theta_hat_at(n)
                assert th.is_zero or th.degree <= bound

    @pytest.mark.parametrize("conic", RATIONAL_CONICS + [SURD_CONIC, IMAGINARY_CONIC],
                             ids=lambda c: ",".join(str(v) for v in c))
    @pytest.mark.parametrize("with_B", [False, True], ids=["B=0", "B!=0"])
    def test_degree_bound_is_the_one_failure(self, conic, with_B):
        # random (A, B, C, D) on a random recurrence, not Laguerre-Hahn: the
        # structure stage raises at the first level of the recursion whose
        # Theta_hat is over max(deg A - 2, deg B - 2, deg C - 1), B = 0
        # counting for nothing
        lattice = build_lattice(*conic)
        rng = random.Random(f"degree bound {conic} {with_B}")
        for _ in range(2):
            A, C, D = (random_poly(rng, 3) for _ in "ACD")
            B = random_poly(rng, 3) if with_B else Poly.zero()
            ric = RiccatiData(A, B, C, D, lattice)
            beta, gamma = random_quasi_definite_recurrence(rng, RANDOM_N_MAX + 1)
            data = smop_from_recurrence(beta, gamma, RANDOM_N_MAX)
            bound = max([A.degree - 2, C.degree - 1] + ([B.degree - 2] if with_B else []))
            levels = corollary_coeffs(ric, data, RANDOM_N_MAX)
            degrees = [levels.theta_hat_at(n).degree for n in range(RANDOM_N_MAX)]
            over = [(n, d) for n, d in enumerate(degrees) if d is not None and d > bound]
            with pytest.raises(DegreeBoundExceeded) as info:
                structure_coeffs_direct(ric, data, RANDOM_N_MAX)
            assert (info.value.level, info.value.degree, info.value.bound) == (*over[0], bound)

    def test_gathered_A_definition(self, semiclassical):
        ric, data, coeffs = semiclassical
        assert coeffs.A_at(0) == ric.A          # pi_{-1} = 0
        for n in range(1, coeffs.max_level + 2):
            assert coeffs.A_at(n) == ric.A + (ric.lattice.r * 2) * coeffs.pi_at(n - 1)

    def test_non_lh_rejected(self, reference_lattice, tmp_path, capsys):
        # the structure stage reads the Riccati data and the recurrence, not
        # S, so the rejection is the Riccati check's, which `snul derive`
        # runs first
        import json
        from snul.cli import main
        from snul.fieldext import format_rational
        lat = reference_lattice
        ric = qhermite_riccati(lat)
        moments = solve_moments_from_riccati(ric, ORDER)
        bad = list(moments)
        bad[5] += F(1, 7)
        res = riccati_residual(ric, Workspace(lat, LaurentSeries.from_moments(bad)))
        assert not res.is_zero_within_window()
        doc = json.loads((DATA.parent.parent / "problems" / "qhermite.json").read_text())
        doc["moments"] = [format_rational(m) for m in bad]
        doc["options"].update(n_max=N_MAX, trunc=ORDER)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["derive", str(path)]) == 1
        expected = NotLaguerreHahn(0, f"Riccati residual nonzero at x^{res.leading_exponent()}")
        assert capsys.readouterr() == ("", f"error: {expected}\n")


class TestRelations:
    def test_structure_relations_zero(self, semiclassical, corecursive):
        for ric, data, coeffs in (semiclassical, corecursive):
            ws = Workspace(ric.lattice, stieltjes(ric))
            for n in range(1, N_MAX + 1):
                (r1a, r1b), (r2a, r2b) = verify_structure_relations(ws, coeffs, n)
                assert r1a.is_zero and r1b.is_zero
                assert r2a.is_zero and r2b.is_zero

    def test_sensitivity_to_theta(self, semiclassical):
        ric, data, coeffs = semiclassical
        tampered = StructureCoeffs(ric, data)
        tampered.append_level(coeffs.l_at(0), coeffs.pi_at(0), coeffs.theta_at(0) + 1)
        (r1a, _), _ = verify_structure_relations(Workspace(ric.lattice, stieltjes(ric)), tampered, 1)
        assert not r1a.is_zero

    def test_second_kind_zero(self, semiclassical, corecursive):
        for ric, data, coeffs in (semiclassical, corecursive):
            ws = Workspace(ric.lattice, stieltjes(ric))
            for n in range(0, 4):
                R, I = verify_second_kind_relations(ws, coeffs, n)
                assert R.is_zero_within_window()
                assert I.is_zero_within_window()

    def test_second_kind_at_zero_is_riccati(self, semiclassical, corecursive):
        # l_-1 = C/2, pi_-1 = 0, Theta_-1 = D and q_-1 = 1: I vanishes
        # identically and R is A DS - C MS - D - B E1S E2S
        for ric, data, coeffs in (semiclassical, corecursive):
            ws = Workspace(ric.lattice, stieltjes(ric))
            R, I = verify_second_kind_relations(ws, coeffs, 0)
            assert I.is_zero
            res = riccati_residual(ric, Workspace(ric.lattice, stieltjes(ric)))
            assert R.truncation_order == res.truncation_order
            assert R.agrees_with(res)

    def test_second_kind_reads_I(self, corecursive):
        # l_{n-1} moved by 1 and C by -2 leave l + C/2, and so R, unchanged,
        # and move I by 2 Dq_n: R vanishes and I does not, so both relations,
        # whose residuals are R +/- sqrt(r) I, fail on I alone
        ric, data, coeffs = corecursive
        ws = Workspace(ric.lattice, stieltjes(ric))
        for n in range(1, 4):
            moved = StructureCoeffs(replace(ric, C=ric.C - 2), data)
            for k in range(0, n):
                moved.append_level(coeffs.l_at(k) + (1 if k == n - 1 else 0),
                                   coeffs.pi_at(k), coeffs.theta_at(k))
            R, I = verify_second_kind_relations(ws, moved, n)
            assert R.is_zero_within_window(), n
            assert not I.is_zero_within_window(), n

    def test_second_kind_window_guard(self, semiclassical):
        ric, data, coeffs = semiclassical
        short = LaurentSeries.from_moments(solve_moments_from_riccati(ric, ORDER)[:7])
        with pytest.raises(InsufficientTruncation):
            verify_second_kind_relations(Workspace(ric.lattice, short), coeffs, 3)

    def test_gathered_zero(self, semiclassical, corecursive):
        from snul import gathered_relations
        for ric, data, coeffs in (semiclassical, corecursive):
            ws = Workspace(ric.lattice, stieltjes(ric))
            for n in range(0, 4):
                rp, rp1, rq = gathered_relations(ws, coeffs, n)
                assert rp.is_zero and rp1.is_zero
                assert rq.is_zero_within_window()


class TestRecursions:
    def test_corollary_matches_direct(self, semiclassical, corecursive):
        for ric, data, coeffs in (semiclassical, corecursive):
            assert coeffs.same_as(corollary_coeffs(ric, data, N_MAX))

    def test_l0_from_level_minus_one(self, semiclassical):
        # the l and pi recursions already hold from level -1 to level 0
        ric, data, coeffs = semiclassical
        lat = ric.lattice
        m0 = lat.p - data.beta[0]
        assert coeffs.l_at(0) == -coeffs.l_at(-1) - m0 * (coeffs.theta_at(-1) / data.gamma[0])
        assert coeffs.pi_at(0) == -coeffs.pi_at(-1) - coeffs.theta_at(-1) / (2 * data.gamma[0])

    def test_single_step(self, semiclassical):
        ric, data, coeffs = semiclassical
        for n in range(0, N_MAX - 1):
            l_next, pi_next, theta_next = corollary_recursion(coeffs, n)
            assert l_next == coeffs.l_at(n + 1)
            assert pi_next == coeffs.pi_at(n + 1)
            assert theta_next == coeffs.theta_at(n + 1)

    def test_pi_step_matches_tail_formula(self, semiclassical, corecursive):
        # the untelescoped pi recursion, pi_{n+1} = -pi_n - Theta_n/(2 gamma_{n+1})
        # - sum_{k<=n} Theta_{k-1}/gamma_k, as an oracle for the two-term step
        for ric, data, coeffs in (semiclassical, corecursive):
            tail = Poly.zero()
            for n in range(0, N_MAX - 1):
                tail = tail + coeffs.theta_at(n - 1) / data.gamma[n]
                want = (-coeffs.pi_at(n) - coeffs.theta_at(n) / (2 * data.gamma[n + 1])
                        - tail)
                assert corollary_recursion(coeffs, n)[1] == want, n
                assert want == coeffs.pi_at(n + 1), n

    def test_telescopes(self, semiclassical, corecursive):
        for ric, data, coeffs in (semiclassical, corecursive):
            for n, l_res, t_res in telescope_residuals(coeffs):
                assert l_res.is_zero, f"L_{n} nonzero"
                assert t_res.is_zero, f"T_{n + 1} mismatch"

    def test_magnus_consistency(self, semiclassical, corecursive):
        for ric, data, coeffs in (semiclassical, corecursive):
            for n in range(0, coeffs.max_level):
                stepped = magnus_step(
                    magnus_data_from_coeffs(coeffs, n),
                    data.beta[n + 1], data.gamma[n + 1], ric.lattice,
                )
                direct = magnus_data_from_coeffs(coeffs, n + 1)
                assert stepped.as_tuple() == direct.as_tuple()

    @pytest.mark.parametrize("conic", RATIONAL_CONICS + [SURD_CONIC, IMAGINARY_CONIC],
                             ids=lambda c: ",".join(str(v) for v in c))
    @pytest.mark.parametrize("with_B", [False, True], ids=["B=0", "B!=0"])
    def test_oracle_identities_hold_for_any_data(self, conic, with_B):
        # random (A, B, C, D) on a random recurrence with gamma_0 = 1, not
        # Laguerre-Hahn: the level recursion's output still meets the
        # telescope, Magnus and reconstruction identities and both structure
        # relations, so certify records those stages from their proofs
        lattice = build_lattice(*conic)
        rng = random.Random(f"oracle identities {conic} {with_B}")
        for _ in range(2):
            A, C, D = (random_poly(rng, 3) for _ in "ACD")
            B = random_poly(rng, 3) if with_B else Poly.zero()
            ric = RiccatiData(A, B, C, D, lattice)
            beta, gamma = random_quasi_definite_recurrence(rng, RANDOM_N_MAX + 1)
            data = smop_from_recurrence(beta, gamma, RANDOM_N_MAX)
            coeffs = corollary_coeffs(ric, data, RANDOM_N_MAX)
            for n, l_res, t_res in telescope_residuals(coeffs):
                assert l_res.is_zero and t_res.is_zero, n
            for n in range(0, coeffs.max_level):
                stepped = magnus_step(magnus_data_from_coeffs(coeffs, n),
                                      beta[n + 1], gamma[n + 1], lattice)
                direct = magnus_data_from_coeffs(coeffs, n + 1)
                assert stepped.as_tuple() == direct.as_tuple(), n
            assert reconstruct_riccati(coeffs).polys() == ric.polys()
            ws = Workspace(lattice)
            for n in range(1, RANDOM_N_MAX + 1):
                assert not any(res for pair in verify_structure_relations(ws, coeffs, n)
                               for res in pair), n

    def test_magnus_b_update(self, semiclassical):
        # B_{n+1} = D_n / gamma_{n+1}, i.e. Theta_n/gamma_{n+1}
        ric, data, coeffs = semiclassical
        for n in range(0, coeffs.max_level):
            m = magnus_data_from_coeffs(coeffs, n)
            stepped = magnus_step(m, data.beta[n + 1], data.gamma[n + 1], ric.lattice)
            assert stepped.B_n == m.D_n / data.gamma[n + 1]
            assert stepped.B_n == coeffs.theta_at(n) / data.gamma[n + 1]

    def test_magnus_zero_D_specialization(self, reference_lattice):
        lat = reference_lattice
        m = MagnusRiccatiData(
            0,
            Poly([1, 2]),
            Poly([3]),
            Poly([0, 1]),
            Poly.zero(),
        )
        stepped = magnus_step(m, F(1, 2), F(2), lat)
        assert stepped.A_n == m.A_n
        assert stepped.B_n.is_zero

    def test_ratio_riccati_holds_on_series(self, semiclassical):
        # the g_n = q_{n+1}/q_n data actually satisfies its Riccati equation
        ric, data, coeffs = semiclassical
        lat = ric.lattice
        s = stieltjes(ric)
        for n in (0, 1, 2):
            m = magnus_data_from_coeffs(coeffs, n)
            g = second_kind_series(data, s, n + 1) / second_kind_series(data, s, n)
            res = riccati_residual(
                RiccatiData(m.A_n, m.B_n, m.C_n, m.D_n, lat), Workspace(lat, g)
            )
            assert res.is_zero_within_window()


class TestReconstruction:
    def test_roundtrip(self, semiclassical, corecursive):
        for ric, data, coeffs in (semiclassical, corecursive):
            rec = reconstruct_riccati(coeffs)
            assert rec.proportional_to(ric)

    def test_semiclassical_B_recovered_zero(self, semiclassical):
        ric, data, coeffs = semiclassical
        rec = reconstruct_riccati(coeffs)
        assert rec.B.is_zero

    def test_nonzero_pi_minus_one_rejected(self, semiclassical):
        ric, data, coeffs = semiclassical
        tampered = StructureCoeffs(ric, data)
        tampered.pi[0] = Poly.one()
        with pytest.raises(NotLaguerreHahn):
            reconstruct_riccati(tampered)

    def test_underdetermined_without_level_zero(self, semiclassical):
        ric, data, coeffs = semiclassical
        with pytest.raises(Underdetermined, match="level 0 entries unavailable"):
            reconstruct_riccati(StructureCoeffs(ric, data))


class TestCertify:
    def test_all_pass(self, reference_lattice):
        ric = qhermite_riccati(reference_lattice)
        cert = certify(ric, n_max=4, order=20)
        assert isinstance(cert, Certificate)
        assert cert.passed
        assert all(c.verdict == "pass" for c in cert.checks)

    @pytest.mark.parametrize("n_max", [0, -1])
    def test_nonpositive_n_max_rejected_before_any_stage(self, reference_lattice,
                                                         monkeypatch, n_max):
        import snul.laguerre_hahn as lh

        def unreachable(*args, **kwargs):
            raise AssertionError("a stage ran")

        monkeypatch.setattr(lh, "solve_moments_from_riccati", unreachable)
        with pytest.raises(ValueError, match="n_max must be positive"):
            certify(qhermite_riccati(reference_lattice), n_max, 6)

    def test_all_pass_on_wide_lattice(self):
        from snul import build_lattice
        from conftest import qhermite_wide_riccati
        lat = build_lattice(1, F(-5, 2), 4, 0, 0, 1)
        cert = certify(qhermite_wide_riccati(lat), n_max=4, order=20)
        assert cert.passed

    def test_non_lh_gating(self, reference_lattice):
        lat = reference_lattice
        ric = RiccatiData(Poly.one(), Poly.zero(), Poly.zero(),
                          Poly.zero(), lat)
        moments = [F(1)] + [F(1, k + 2) for k in range(19)]
        cert = certify(ric, n_max=4, order=18, moments=moments)
        assert not cert.passed
        assert cert.check("riccati").verdict == "fail"
        assert cert.check("structure-direct").verdict == "skip"

    def test_quasi_definite_gating(self, reference_lattice):
        # moments of a Dirac-type sequence satisfy a Riccati equation but
        # fail quasi-definiteness: certificate records the failing n
        lat = reference_lattice
        # S = 1/(x - t): A = 1, B = -1, C = D = 0 (checked by the residual)
        t = F(1, 2)
        ric = RiccatiData(Poly.one(), Poly.constant(-1),
                          Poly.zero(), Poly.zero(), lat)
        moments = [t ** k for k in range(20)]
        cert = certify(ric, n_max=4, order=18, moments=moments)
        assert not cert.passed
        assert cert.check("riccati").verdict == "pass"
        assert cert.check("quasi-definite").verdict == "fail"
        assert "n = 1" in cert.check("quasi-definite").detail

    def test_stage_timings_are_durations(self, reference_lattice):
        cert = certify(qhermite_riccati(reference_lattice), n_max=3, order=16)
        stages = {k: v for k, v in cert.timings.items() if k != "total"}
        assert set(stages) == {c.name for c in cert.checks}
        assert all(v >= 0 for v in stages.values())
        # durations of consecutive stages add up to at most the whole run
        assert sum(stages.values()) <= cert.timings["total"] + 1e-6

    def test_riccati_stage_errors_recorded_not_raised(self):
        # c = 0: y1 y2 loses its x^2 term and y_2 its x term, so no operator
        # image of S exists; certify records the error instead of raising
        from snul import build_lattice
        lat = build_lattice(1, 2, 0, 0, 1, 1)
        ric = RiccatiData(Poly([1, 0, 1]), Poly.zero(),
                          Poly([0, 1]), Poly.one(), lat)
        cert = certify(ric, 2, 8, moments=[F(1)] + [F(0)] * 9)
        assert not cert.passed
        riccati = cert.check("riccati")
        assert riccati.verdict == "fail"
        assert riccati.detail == ("y_2 has degenerate leading behaviour; "
                                  "1/y_2 expansion impossible")
        assert [c.verdict for c in cert.checks[2:]] == ["skip"] * (len(cert.checks) - 2)

    @pytest.mark.parametrize("stage, module, name", [
        ("quasi-definite", "snul.orthopoly", "recurrence_from_moments"),
        ("quasi-definite", "snul.orthopoly", "smop_from_recurrence"),
        ("structure-direct", "snul.laguerre_hahn", "structure_coeffs_direct"),
    ])
    def test_structural_stage_errors_recorded_not_raised(self, reference_lattice, monkeypatch,
                                                         stage, module, name):
        self._assert_gate_fails(reference_lattice, monkeypatch, stage, module, name)

    def test_recursion_errors_fail_structure_direct(self, reference_lattice, monkeypatch):
        # the level recursion runs inside structure-direct, so its errors
        # are that stage's, and close the gate
        self._assert_gate_fails(reference_lattice, monkeypatch, "structure-direct",
                                "snul.laguerre_hahn", "corollary_recursion")

    @staticmethod
    def _assert_gate_fails(lattice, monkeypatch, stage, module, name):
        import importlib
        from snul.laguerre_hahn import _CERTIFY_STAGES

        def rejecting(*args, **kwargs):
            raise InvalidRecurrence(f"{name} rejected")

        monkeypatch.setattr(importlib.import_module(module), name, rejecting)
        cert = certify(qhermite_riccati(lattice), n_max=3, order=16)
        assert not cert.passed
        failed = [(c.name, c.verdict, c.detail) for c in cert.checks if c.verdict != "pass"]
        # a failed gate skips every later stage
        after = _CERTIFY_STAGES[_CERTIFY_STAGES.index(stage) + 1:]
        assert failed == [(stage, "fail", f"{name} rejected")] + [
            (nm, "skip", "") for nm in after]

    def test_moved_moment_fails_at_riccati(self, reference_lattice):
        # every moment moved by +/-1 fails first at riccati, on both fixtures
        n_max = 3
        for make in (qhermite_riccati, qhermite_corecursive_riccati):
            ric = make(reference_lattice)
            moments = solve_moments_from_riccati(ric, 16)
            for k in range(len(moments)):
                for delta in (1, -1):
                    moved = list(moments)
                    moved[k] += delta
                    cert = certify(ric, n_max=n_max, order=16, moments=moved)
                    first = next(c for c in cert.checks if c.verdict != "pass")
                    assert (first.name, first.verdict) == ("riccati", "fail"), k

    def test_images_of_s_formed_once(self, reference_lattice, monkeypatch):
        # D S and M S are formed once per workspace, and no other series
        # goes through `_operator_series`
        import snul.laguerre_hahn as lh
        original = lh._operator_series
        seen = []

        def counting(lattice, f):
            seen.append(f)
            return original(lattice, f)

        monkeypatch.setattr(lh, "_operator_series", counting)
        for make in (qhermite_riccati, qhermite_corecursive_riccati):
            ric = make(reference_lattice)
            moments = solve_moments_from_riccati(ric, 18)
            s = LaurentSeries.from_moments(moments)
            seen.clear()
            assert certify(ric, n_max=4, order=18, moments=moments).passed
            assert sum(f == s for f in seen) == 1
            assert len(seen) == 1          # S alone

    def test_certify_forms_no_linear_factor(self, reference_lattice, monkeypatch):
        # the level recursion writes M(x - beta_n) = p - beta_n out, and only
        # the oracles certify records from proofs call _m_of_linear
        import snul.laguerre_hahn as lh
        original = lh._m_of_linear
        calls = []

        def counting(lattice, beta):
            calls.append(beta)
            return original(lattice, beta)

        monkeypatch.setattr(lh, "_m_of_linear", counting)
        n_max = 8
        cert = certify(qhermite_corecursive_riccati(reference_lattice), n_max=n_max, order=28)
        assert cert.passed
        assert calls == []

    def test_certificate_json_roundtrip(self, reference_lattice):
        ric = qhermite_riccati(reference_lattice)
        cert = certify(ric, n_max=3, order=16, instance={"tag": "fixture"})
        blob = cert.to_dict()
        assert blob["passed"] is True
        assert blob["instance"] == {"tag": "fixture"}
        assert {c["name"] for c in blob["checks"]} >= {"riccati", "telescopes"}
