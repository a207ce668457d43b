import random
from fractions import Fraction as F
from math import lcm

import pytest

from snul import (
    InsufficientTruncation,
    InvalidRecurrence,
    LaurentSeries,
    NotQuasiDefinite,
    Poly,
    apply_shift,
    moments_from_recurrence,
    recurrence_from_moments,
    second_kind_series,
    smop_from_recurrence,
)
import snul.orthopoly as orthopoly

from conftest import (
    hankel_determinant,
    liouville_defect,
    random_quasi_definite_recurrence,
    second_kind_by_definition,
)


def wide_recurrence(rng, n_top):
    """(beta, gamma) with gamma_0 = 1, nonzero gamma_n and unrelated
    denominators up to 97."""
    def entry():
        return F(rng.randint(-97, 97), rng.randint(1, 97))
    beta = [entry() for _ in range(n_top + 1)]
    gamma = [F(1)]
    while len(gamma) <= n_top:
        g = entry()
        if g:
            gamma.append(g)
    return beta, gamma

def build(beta, gamma, n_max, **kw):
    return smop_from_recurrence(beta, gamma, n_max, **kw)


class TestSMOP:
    def test_first_polynomials(self):
        beta = [F(0)] * 4
        gamma = [F(1), F(1), F(1), F(1)]
        data = build(beta, gamma, 3)
        x = Poly.x()
        assert data.P[1] == x
        assert data.P[2] == x * x - 1

    def test_p1_is_x_minus_beta0(self):
        beta = [F(2, 3), F(1), F(0)]
        gamma = [F(1), F(5), F(1)]
        data = build(beta, gamma, 2)
        assert data.P[1] == Poly.x() - F(2, 3)

    def test_quarter_gammas(self):
        beta = [F(0)] * 5
        gamma = [F(1)] + [F(1, 4)] * 4
        data = build(beta, gamma, 4)
        x = Poly.x()
        assert data.P[3] == x ** 3 - x * F(1, 2)

    def test_monic_degrees(self):
        rng = random.Random(3)
        beta, gamma = random_quasi_definite_recurrence(rng, 8)
        data = build(beta, gamma, 8)
        for n in range(9):
            assert data.P[n].is_monic and data.P[n].degree == n
            assert data.P1[n].is_monic and data.P1[n].degree == n

    def test_associated_recurrence_shift(self):
        beta = [F(0), F(1), F(2), F(3)]
        gamma = [F(1), F(2), F(3), F(4)]
        data = build(beta, gamma, 3)
        x = Poly.x()
        assert data.P1[1] == x - 1                       # uses beta_1
        assert data.P1[2] == (x - 2) * (x - 1) - 3       # beta_2, gamma_2

    def test_zero_gamma_rejected(self):
        with pytest.raises(InvalidRecurrence):
            build([F(0)] * 3, [F(1), F(0), F(1)], 2)
        with pytest.raises(InvalidRecurrence):
            build([F(0)] * 3, [F(2), F(1), F(1)], 2)     # gamma_0 != 1


class TestMoments:
    def test_u0_is_one(self):
        assert moments_from_recurrence([F(1)], [F(1)], 0) == [F(1)]

    def test_odd_moments_vanish_for_symmetric(self):
        rng = random.Random(11)
        gamma = [F(1)] + [F(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(10)]
        beta = [F(0)] * 11
        moments = moments_from_recurrence(beta, gamma, 10)
        assert all(moments[k] == 0 for k in range(1, 11, 2))

    def test_quarter_gamma_moments(self):
        beta = [F(0)] * 6
        gamma = [F(1)] + [F(1, 4)] * 5
        moments = moments_from_recurrence(beta, gamma, 4)
        assert moments[2] == F(1, 4)
        assert moments[4] == F(1, 8)

    def test_jacobi_operator_oracle_varied_denominators(self, monkeypatch):
        # beta_k = 1/(k+2) and gamma_k = (k+1)/(2k+3): the lcm of their
        # denominators has 116 bits.  The oracle applies x P_i = P_{i+1} +
        # beta_i P_i + gamma_i P_{i-1} to the components of x^k in plain
        # Fractions; u_k is the P_0-component.  Each step's denominator must
        # be the lcm of the exact components' denominators, not a power of L
        order = 40
        beta = [F(1, k + 2) for k in range(order)]
        gamma = [F(k + 1, 2 * k + 3) for k in range(order)]
        components, want = [F(1)], [F(1)]
        dens_want = []
        for k in range(1, order + 1):
            nxt = [F(0)] * (len(components) + 1)
            for i, c in enumerate(components):
                nxt[i + 1] += c
                nxt[i] += beta[i] * c
                if i:
                    nxt[i - 1] += gamma[i] * c
            components = nxt
            want.append(components[0])
            # component i reaches u only after i more steps
            dens_want.append(lcm(*(c.denominator for c in components[:order - k + 1])))
        dens = []
        reduced = orthopoly._reduced

        def recording(nums, den):
            out = reduced(nums, den)
            dens.append(out[1])
            return out
        monkeypatch.setattr(orthopoly, "_reduced", recording)
        assert moments_from_recurrence(beta, gamma, order) == want
        assert dens == dens_want

    def test_roundtrip_with_recurrence(self):
        # with every gamma_n != 0 the Hankel determinants H_n = prod_k
        # gamma_k^(n-k) never vanish, so no instance may raise
        rng = random.Random(17)
        for i in range(40):
            n_max = rng.randint(1, 9)
            if i % 2:
                beta, gamma = wide_recurrence(rng, 2 * n_max + 2)
            else:
                beta, gamma = random_quasi_definite_recurrence(rng, 2 * n_max + 2)
            moments = moments_from_recurrence(beta, gamma, 2 * n_max + 1)
            beta2, gamma2 = recurrence_from_moments(moments, n_max)
            assert beta2 == beta[: n_max + 1]
            assert gamma2 == gamma[: n_max + 1]

    def test_hankel_oracle(self):
        # gamma_n = H_{n+1} H_{n-1} / H_n^2 links the Chebyshev route to
        # explicit determinants
        rng = random.Random(19)
        beta, gamma = random_quasi_definite_recurrence(rng, 12)
        moments = moments_from_recurrence(beta, gamma, 11)
        _, gamma2 = recurrence_from_moments(moments, 5)
        h = [hankel_determinant(moments, n) for n in range(7)]
        for n in range(1, 6):
            assert gamma2[n] == h[n + 1] * h[n - 1] / (h[n] ** 2)

    def test_hankel_oracle_unrelated_denominators(self):
        rng = random.Random(29)
        for _ in range(6):
            n_max = rng.randint(2, 6)
            beta, gamma = wide_recurrence(rng, 2 * n_max + 2)
            moments = moments_from_recurrence(beta, gamma, 2 * n_max + 1)
            _, gamma2 = recurrence_from_moments(moments, n_max)
            h = [hankel_determinant(moments, n) for n in range(n_max + 2)]
            for n in range(1, n_max + 1):
                assert gamma2[n] == h[n + 1] * h[n - 1] / (h[n] ** 2)

    @pytest.mark.parametrize("positive", [True, False], ids=["positive", "signed"])
    def test_not_quasi_definite_matches_hankel(self, positive):
        # the moments of a measure with m distinct nodes give a Hankel
        # matrix of rank m: H_{m+1} = 0, and H_1..H_m > 0 for positive
        # weights; with signed weights the last one is chosen in half the
        # cases to make H_2 = sum_{i<j} w_i w_j (x_i - x_j)^2 vanish
        rng = random.Random(31 if positive else 37)
        early = 0
        for _ in range(16):
            m = rng.randint(1, 5)
            nodes = rng.sample(sorted({F(a, b) for a in range(-9, 10) for b in (1, 2, 3, 7)}), m)
            weights = [F(rng.randint(1, 30), rng.randint(1, 30)) for _ in range(m)]
            if not positive:
                weights = [w * rng.choice((-1, 1)) for w in weights]
                if m >= 3 and rng.random() < 0.5:
                    *ws, _ = weights
                    pairs = sum(ws[i] * ws[j] * (nodes[i] - nodes[j]) ** 2
                                for i in range(m - 1) for j in range(i))
                    weights[-1] = -pairs / sum(w * (x - nodes[-1]) ** 2 for w, x in zip(ws, nodes))
            if 0 in weights or sum(weights) == 0:
                continue
            total = sum(weights)
            n_max = m + rng.randint(0, 2)
            moments = [sum(w * x ** j for w, x in zip(weights, nodes)) / total
                       for j in range(2 * n_max + 2)]
            first = next(n for n in range(1, n_max + 1)
                         if hankel_determinant(moments, n + 1) == 0)
            with pytest.raises(NotQuasiDefinite) as exc:
                recurrence_from_moments(moments, n_max)
            assert exc.value.n == first
            if positive:
                assert first == m
            early += first < m
        assert early >= (0 if positive else 3)

    def test_two_periodic_moments(self):
        # u = (1, 0, 1, 0): beta_0 = 0, gamma_1 = 1 from the 2x2 Hankel data
        beta, gamma = recurrence_from_moments([F(1), F(0), F(1), F(0)], 1)
        assert beta[0] == 0 and gamma[1] == 1

    def test_not_quasi_definite(self):
        with pytest.raises(NotQuasiDefinite) as exc:
            recurrence_from_moments([F(1), F(1), F(1), F(1)], 1)
        assert exc.value.n == 1

    def test_job_recurrence_reads_a_supplied_recurrence(self):
        # a supplied recurrence read as it stands against the Chebyshev
        # algorithm on its moments: the same beta and gamma, or the same
        # failing level, the first gamma_k = 0 at k <= n_max
        rng = random.Random(41)
        outcomes = []
        for i in range(48):
            n_max = rng.randint(1, 8)
            make = wide_recurrence if i % 2 else random_quasi_definite_recurrence
            beta, gamma = make(rng, 2 * n_max + 2)
            for k in rng.sample(range(1, 2 * n_max + 2), rng.choice((0, 0, 1, 2))):
                gamma[k] = F(0)
            moments = moments_from_recurrence(beta, gamma, 2 * n_max + 2)

            def outcome(*recurrence):
                try:
                    data = orthopoly.job_recurrence(moments, n_max, *recurrence)
                except NotQuasiDefinite as exc:
                    return str(exc)
                return data.beta, data.gamma, data.n_max
            supplied = outcome((beta, gamma))
            assert supplied == outcome(), i
            outcomes.append(supplied)
        failed = [o for o in outcomes if isinstance(o, str)]
        assert len(failed) >= 8 and len(outcomes) - len(failed) >= 24
        assert len(set(failed)) >= 3

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            moments_from_recurrence([F(0)], [F(1)], -1)
        with pytest.raises(ValueError):
            recurrence_from_moments([F(1), F(0), F(1), F(0)], -1)


class TestSecondKind:
    def setup_method(self):
        rng = random.Random(23)
        self.beta, self.gamma = random_quasi_definite_recurrence(rng, 26)
        self.moments = moments_from_recurrence(self.beta, self.gamma, 26)
        self.data = build(self.beta[:13], self.gamma[:13], 12)
        self.s = LaurentSeries.from_moments(self.moments)

    def test_q0_is_s(self):
        q0 = second_kind_series(self.data, self.s, 0)
        assert q0.agrees_with(self.s)

    def test_q1_closed_form(self):
        q1 = second_kind_series(self.data, self.s, 1)
        x = Poly.x()
        expect = (self.s.mul_poly(x - self.beta[0])
                  - LaurentSeries.constant(1, self.s.truncation_order - 1))
        assert q1.agrees_with(expect)
        assert q1.coefficient(-2) == self.gamma[1]

    def test_decay(self):
        for n in range(0, 11):
            qn = second_kind_series(self.data, self.s, n)
            assert qn._effective_top() <= -n - 1
            for e in range(0, -n - 1, -1):
                assert qn.coefficient(e) == 0

    def test_matches_definition(self):
        # q_n = P_n S - P1_{n-1}, which no job checks at run time: the
        # recurrence against the full product
        for seed in (23, 29, 31):
            beta, gamma = random_quasi_definite_recurrence(random.Random(seed), 26)
            data = build(beta[:13], gamma[:13], 12)
            s = LaurentSeries.from_moments(moments_from_recurrence(beta, gamma, 26))
            for n in range(-1, 13):
                assert second_kind_series(data, s, n) == second_kind_by_definition(data, s, n), (
                    seed, n)

    def test_window_guard(self):
        short = LaurentSeries.from_moments(self.moments[:6])
        with pytest.raises(InsufficientTruncation):
            second_kind_series(self.data, short, 4)

    def test_decay_failure_on_mismatched_moments(self):
        bad = list(self.moments)
        bad[3] += 1
        s_bad = LaurentSeries.from_moments(bad)
        with pytest.raises(InvalidRecurrence):
            second_kind_series(self.data, s_bad, 3)

    def test_inconsistent_smop_moments_typed_error(self):
        # S of moments that the recurrence does not produce
        bad = list(self.moments)
        bad[4] -= F(1, 3)
        with pytest.raises(InvalidRecurrence):
            second_kind_series(self.data, LaurentSeries.from_moments(bad), 5)


class TestLiouville:
    def test_level_zero(self):
        beta = [F(1), F(2)]
        gamma = [F(1), F(3)]
        data = build(beta, gamma, 1)
        assert liouville_defect(data, 0).is_zero

    def test_random_levels(self):
        rng = random.Random(29)
        for _ in range(6):
            beta, gamma = random_quasi_definite_recurrence(rng, 7)
            data = build(beta, gamma, 7)
            for n in range(7):
                assert liouville_defect(data, n).is_zero

    def test_check_fails_where_the_products_do(self):
        # the gamma_0 check of smop_from_recurrence, on which certify records
        # `liouville` (the identity by its proof, `job_recurrence`), against
        # the full products: both pass on a recurrence, both fail at gamma_0 = 2
        rng = random.Random(37)
        beta, gamma = random_quasi_definite_recurrence(rng, 7)
        data = build(beta, gamma, 7)
        assert all(liouville_defect(data, n).is_zero for n in range(7))
        data = build(beta, gamma, 7)
        data.gamma[0] = F(2)
        assert not liouville_defect(data, 0).is_zero
        for make in (lambda g: build(beta, g, 7),
                     lambda g: orthopoly.job_recurrence(None, 7, (beta, g))):
            with pytest.raises(InvalidRecurrence, match="gamma_0 must equal 1"):
                make([F(2)] + gamma[1:])

    def test_shifted_image_is_zero(self, reference_lattice):
        # E_j of the identically-zero defect stays zero in the surd ring
        lat = reference_lattice
        beta = [F(0)] * 6
        gamma = [F(1)] + [F(1, 4)] * 5
        data = smop_from_recurrence(beta, gamma, 5)
        defect = liouville_defect(data, 4)
        for j in (1, 2):
            img = apply_shift(lat, defect, j)
            assert img.is_zero
