"""solve_moments_from_riccati against the full-series solver it replaced.

`reference_solve_moments` is the earlier solver: it forms E_j x^(-k) as
powers of 1/y_j, D and M from E_1 and E_2, and keeps the whole residual
series up to date after each moment.  Here the powers are pairs
u + sqrt(r) v of rational series (`conftest.RootPair`), so E_2 x^(-k) is
the conjugate of E_1 x^(-k), D x^(-k) = -v and M x^(-k) = u.  The solver
under test forms each coefficient of DS and MS once, as a dot product of
the moment numerators with a column of the expansion of the kernel
1/((y1 - t)(y2 - t)) (`lattice._kernel_columns`), and keeps only the
coefficients later equations read over the moments' common denominator.
Both must give the same moments, or raise the same exception with the same
text.

`certify` records its `riccati` entry from the solve when it solves S
itself (the proof in `solve_moments_from_riccati`); the tests at the end
check that entry against the residual formed from the same moments.
"""
import json
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from snul import (
    FreeMoment,
    Inconsistent,
    LaurentSeries,
    Poly,
    RiccatiData,
    Workspace,
    build_lattice,
    certify,
    riccati_residual,
    solve_moments_from_riccati,
)
from snul.laguerre_hahn import solved_riccati_window

from conftest import (
    IMAGINARY_CONIC,
    NEGATIVE_N2_CONIC,
    RATIONAL_CONICS,
    SURD_CONIC,
    inv_y1_pair,
    random_fraction,
    random_poly,
)

ROOT = Path(__file__).resolve().parent.parent
CONICS = list(RATIONAL_CONICS) + [SURD_CONIC, IMAGINARY_CONIC]


def reference_solve_moments(ric, count, free_values=None):
    lattice = ric.lattice
    A, B, C, D = ric.polys()
    deg_terms = [A.degree - 2]
    if not B.is_zero:
        deg_terms.append(B.degree - 2)
    if not C.is_zero:
        deg_terms.append(C.degree - 1)
    m0 = max(deg_terms)
    top_res = max(m0, D.degree if not D.is_zero else m0)
    max_deg = max(d.degree for d in (A, B, C, D) if not d.is_zero)
    depth = count + max_deg + abs(m0) + 8

    # w^k = E_1 x^(-k), k = 1..count+1, by repeated products; E_2 x^(-k)
    # is the conjugate
    w = inv_y1_pair(lattice, depth)
    w1s = [w]
    while len(w1s) < count + 1:
        w1s.append((w1s[-1] * w).restrict(depth))

    def rational(pair):
        # a pair whose sqrt(r)-part must vanish, such as E1 f E2 f
        assert pair.v.is_zero_within_window()
        return pair.u

    def d_and_m(f1):
        # A D f - C M f with E_1 f = M f - sqrt(r) D f
        return (-f1.v).mul_poly(A) - f1.u.mul_poly(C)

    free_values = free_values or {}
    moments = [F(1)]
    e1s = w1s[0]
    base = d_and_m(e1s) - LaurentSeries.from_poly(D, depth)
    if not B.is_zero:
        base = base - rational(e1s * e1s.conjugate()).mul_poly(B)
    for e in range(top_res, m0 - 1, -1):
        c = base.coefficient(e)
        if c:
            raise Inconsistent(
                0, f"residual coefficient at x^{e} is {c} with u_0 alone; "
                   "no moment can repair it",
            )
    for k in range(1, count + 1):
        w1pow = w1s[k]
        target = m0 - k
        beta_k = base.coefficient(target)
        alpha = d_and_m(w1pow)
        if not B.is_zero:
            cross = e1s * w1pow.conjugate() + w1pow * e1s.conjugate()
            alpha = alpha - rational(cross).mul_poly(B)
        alpha_k = alpha.coefficient(target)
        if alpha_k == 0:
            if beta_k == 0:
                if k in free_values:
                    uk = F(free_values[k])
                else:
                    raise FreeMoment(k)
            else:
                raise Inconsistent(k)
        else:
            uk = -beta_k / alpha_k
        moments.append(uk)
        base = base + alpha * uk
        if not B.is_zero:
            base = base - rational(w1pow * w1pow.conjugate()).mul_poly(B) * (uk * uk)
            e1s = e1s + w1pow * uk
    return moments


def outcome(solve, ric, count, free_values=None):
    try:
        return solve(ric, count, free_values)
    except (Inconsistent, FreeMoment) as exc:
        return type(exc), str(exc)


def problem_instances():
    paths = sorted((ROOT / "problems").glob("*.json")) + [ROOT / "tests/data/surd_conic.json"]
    out = []
    for path in paths:
        spec = json.loads(path.read_text(encoding="utf-8"))
        if "riccati" not in spec:
            continue
        lat = build_lattice(*(F(c) for c in spec["lattice"]))
        polys = [Poly([F(c) for c in spec["riccati"][name]])
                 for name in "ABCD"]
        options = spec.get("options", {})
        count = max(options.get("trunc", 0), 2 * options.get("n_max", 0) + 2)
        out.append(pytest.param(RiccatiData(*polys, lat), count, id=path.stem))
    return out


@pytest.mark.parametrize("ric, count", problem_instances())
def test_problem_files(ric, count):
    expect = outcome(reference_solve_moments, ric, count)
    assert isinstance(expect, list)
    assert outcome(solve_moments_from_riccati, ric, count) == expect


def random_instance(rng, lat):
    """Random data; half of it has D chosen so that u_0 = 1 satisfies the
    top equations, which lets the solve run to the end (or to a free or
    inconsistent moment deep down)."""
    A = random_poly(rng, max_degree=3, min_degree=rng.choice((0, 2)))
    B = random_poly(rng, max_degree=2) if rng.random() < 0.6 else Poly.zero()
    C = random_poly(rng, max_degree=2)
    if rng.random() < 0.5:
        # the residual of S = 1/x is (-A - C p - B)/N - D, N = p^2 - r
        N = lat.p * lat.p - lat.r
        D = divmod(-(A + C * lat.p + B), N)[0]
        if rng.random() < 0.3:
            D = D + random_fraction(rng)
    else:
        D = random_poly(rng, max_degree=1)
    return RiccatiData(A, B, C, D, lat)


def test_random_instances():
    rng = random.Random(2026)
    # on the last lattice q2 < 0, and counts of both parities
    lattices = [build_lattice(*conic) for conic in CONICS + [NEGATIVE_N2_CONIC]]
    kinds = []
    for i in range(72):
        ric = random_instance(rng, lattices[i % len(lattices)])
        count = rng.randint(3, 12)
        for free_values in (None, {k: random_fraction(rng) for k in range(1, count + 1)}):
            expect = outcome(reference_solve_moments, ric, count, free_values)
            got = outcome(solve_moments_from_riccati, ric, count, free_values)
            assert got == expect, (i, free_values)
            if isinstance(expect, list):
                kinds.append("solved")
            else:
                kinds.append("u_0" if "u_0 alone" in expect[1] else "deeper")
    # the sample reaches every outcome; on the imaginary conic some u_k
    # equations are vacuous, since y2/y1 tends to a root of unity there
    assert min(kinds.count("solved"), kinds.count("u_0")) >= 20
    assert kinds.count("deeper") >= 2


def test_free_moment_instance(reference_lattice):
    # the u_1 equation is vacuous (see test_free_moment_surfaced)
    ric = RiccatiData(Poly([0, 0, 17]), Poly.zero(),
                      Poly([0, -20]), Poly([8]), reference_lattice)
    results = []
    for free_values in (None, {1: F(5)}, {1: F(0), 2: F(1, 3)}):
        expect = outcome(reference_solve_moments, ric, 6, free_values)
        assert outcome(solve_moments_from_riccati, ric, 6, free_values) == expect
        results.append(expect)
    assert results[0] == (FreeMoment, str(FreeMoment(1)))


def test_random_instances_deep():
    # counts 24..32, where the common denominator L of the moments and the
    # powers of q2 are large: three instances per conic, B = 0 and B != 0
    # at m0 = 0, and B = 0 at m0 = 1, 2 or 3 (times a multiplier g), where
    # L grows at almost every step and the solve moves only the entries from
    # x^-(k + 1 - m0) on to it; each with and without free values
    rng = random.Random(2027)
    solved = 0
    for n, conic in enumerate(CONICS):
        lat = build_lattice(*conic)
        g = MULTIPLIERS[1 + n % 3]
        for with_B, scaled in ((False, False), (True, False), (False, True)):
            ric = u0_instance(rng, lat, with_B)
            if scaled:
                ric = RiccatiData(*(p * g for p in ric.polys()), lat)
            count = rng.randint(24, 32)
            for free_values in (None, {k: random_fraction(rng) for k in range(1, count + 1)}):
                expect = outcome(reference_solve_moments, ric, count, free_values)
                got = outcome(solve_moments_from_riccati, ric, count, free_values)
                assert got == expect, (conic, with_B, scaled, free_values)
                solved += isinstance(expect, list)
    assert solved >= 28


# (A, B, C, D) times g has the solutions of (A, B, C, D) and m0 + deg g
MULTIPLIERS = [Poly([1]), Poly([1, 1]), Poly([2, 0, 1]), Poly([3, -1, 0, 1])]


def u0_instance(rng, lat, with_B):
    """A of degree 2, so m0 = 0, C of degree <= 1, B zero or of degree <= 2,
    and D the polynomial part of the residual of S = 1/x, so that u_0 = 1
    meets the top equations."""
    A = random_poly(rng, max_degree=2, min_degree=2)
    B = random_poly(rng, max_degree=2) if with_B else Poly.zero()
    C = random_poly(rng, max_degree=1)
    N = lat.p * lat.p - lat.r
    return RiccatiData(A, B, C, divmod(-(A + C * lat.p + B), N)[0], lat)


def laguerre_hahn_instance(rng, lat, with_B):
    """A `u0_instance` drawn again until u_1..u_12 solve, so that the data
    is Laguerre-Hahn for the solved S."""
    while True:
        ric = u0_instance(rng, lat, with_B)
        if isinstance(outcome(solve_moments_from_riccati, ric, 12), list):
            return ric


@pytest.mark.parametrize("conic", CONICS, ids=range(len(CONICS)))
def test_recorded_riccati_entry_is_the_residual_one(conic):
    # certify records `riccati` from the solve when it solves S, and forms
    # the residual when the same moments are supplied: the certificates agree
    # from `riccati` on at m0 = 0..3, B = 0 and B != 0, and where the window
    # order - m0 is exhausted
    lat = build_lattice(*conic)
    rng = random.Random(repr(conic))
    runs = [(g, 3, 8) for g in MULTIPLIERS] + [(Poly([1, 0, 0, 0, 1]), 1, 4),
                                               (Poly([-2, 0, 0, 0, 0, 1]), 1, 4)]
    for with_B in (False, True):
        base = laguerre_hahn_instance(rng, lat, with_B)
        for g, n_max, order in runs:
            ric = RiccatiData(*(p * g for p in base.polys()), lat)
            recorded = certify(ric, n_max, order)
            formed = certify(ric, n_max, order, moments=solve_moments_from_riccati(ric, order))
            assert ([c.to_dict() for c in recorded.checks[1:]]
                    == [c.to_dict() for c in formed.checks[1:]]), (with_B, g)
            assert recorded.degrees == formed.degrees
            entry = recorded.check("riccati")
            if order > g.degree:
                assert (entry.verdict, entry.window) == ("pass", order - g.degree)
            else:
                assert entry.verdict == "fail"
                assert entry.detail.startswith("window exhausted before any residual")


@pytest.mark.parametrize("conic", CONICS, ids=range(len(CONICS)))
def test_solved_window_below_m0_minus_one(conic):
    # A constant, B = -A and C = D = 0 give m0 = -2; u_1 is free.  The
    # residual keeps the window of MS, count + 1, not count - m0
    lat = build_lattice(*conic)
    ric = RiccatiData(Poly([3]), Poly([-3]), Poly.zero(), Poly.zero(), lat)
    assert outcome(solve_moments_from_riccati, ric, 10) == (FreeMoment, str(FreeMoment(1)))
    moments = solve_moments_from_riccati(ric, 10, {k: F(k, 3) for k in range(1, 11)})
    res = riccati_residual(ric, Workspace(lat, LaurentSeries.from_moments(moments)))
    assert res.is_zero_within_window()
    assert res.truncation_order == solved_riccati_window(ric, 10) == 11
