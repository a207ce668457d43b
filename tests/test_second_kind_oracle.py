"""The second-kind and gathered relations against the E-image route they
replaced.

`verify_second_kind_relations` returns the rational pair (R, I) with
res1 = R + sqrt(r) I and res2 = R - sqrt(r) I, and `gathered_relations`
reads R as its series residual.  The reference below is the earlier route,
kept in substance: E1 q_n, E2 q_n and E1 S, E2 S, l +/- 2 sqrt(r) pi, and
the two relations written out with the E-images, and the gathered B term
through the product S q_n and its M image.  Every quantity with sqrt(r) in
it is a pair u + sqrt(r) v of rational series (`conftest.RootPair`), so the
route runs on every lattice, the one with sqrt(lambda) = sqrt(5) included.
Both routes must give the same coefficients on the same windows, on the
shipped instances, on structure coefficients moved by +/-1 in one
coefficient at one level, and on the co-recursive instance with its B moved
by +/-1 in its lowest or its top coefficient.

On random (A, B, C, D) and a random recurrence, which are not Laguerre-Hahn,
(R, I) is the Riccati residual rho times (MP_n, DP_n), the identity
`laguerre_hahn.second_kind_checks` proves and `certify` records its
second-kind and gathered stages from.

The oracle forms q_n by the three-term recurrence (`second_kind_series`),
the reference by the definition q_n = P_n S - P1_{n-1} as a full product,
and each takes the images of q_n from `_operator_series`; the two q_n are
checked equal, and their images' windows, on the three conics of `conftest`.
"""
import random
from dataclasses import replace
from pathlib import Path

import pytest

from snul import (
    LaurentSeries,
    RiccatiData,
    Workspace,
    build_lattice,
    corollary_coeffs,
    fit_riccati,
    gathered_relations,
    moments_from_recurrence,
    recurrence_from_moments,
    riccati_residual,
    second_kind_series,
    smop_from_recurrence,
    solve_moments_from_riccati,
    structure_coeffs_direct,
    verify_second_kind_relations,
)
from snul.cli import ProblemFile
from snul.laguerre_hahn import HALF, StructureCoeffs
from snul.lattice import _operator_series, apply_M_series, apply_shift
from snul.poly import Poly

from conftest import (
    IMAGINARY_CONIC,
    RATIONAL_CONICS,
    REFERENCE_CONIC,
    SURD_CONIC,
    RootPair,
    random_poly,
    random_quasi_definite_recurrence,
    second_kind_by_definition,
)

ROOT = Path(__file__).resolve().parent.parent
INSTANCES = sorted((ROOT / "problems").glob("*.json"))
INSTANCES.append(Path(__file__).resolve().parent / "data" / "surd_conic.json")
# levels whose coefficients are tampered with: -1 .. TAMPER_LEVELS - 2
TAMPER_LEVELS = 4


# -- the reference route -------------------------------------------------------

def _surd_coeff_pair(lattice, l, pi, sign, order):
    """l +/- Delta_y pi = l +/- 2 sqrt(r) pi as a pair."""
    return RootPair(LaurentSeries.from_poly(l, order),
                    LaurentSeries.from_poly(pi * (2 * sign), order + 1), lattice.r)


def _images(ws, data, n=None):
    """(D f, M f) for f = S (n None) or f = q_n = P_n S - P1_{n-1}, the
    latter from the definition."""
    if n is None:
        return ws.dm()
    return _operator_series(ws.lattice, second_kind_by_definition(data, ws.s, n))


def _shifted(ws, data, n=None):
    """(E1 f, E2 f) = (M f - sqrt(r) D f, M f + sqrt(r) D f) for f = S
    (n None) or f = q_n."""
    d, m = _images(ws, data, n)
    return RootPair(m, -d, ws.lattice.r), RootPair(m, d, ws.lattice.r)


def reference_second_kind(ric, coeffs, ws, n):
    lattice, data = ric.lattice, coeffs.data
    A, B, C, _ = ric.polys()
    l, pi, theta = coeffs.l_at(n - 1), coeffs.pi_at(n - 1), coeffs.theta_at(n - 1)
    e1_qn, e2_qn = _shifted(ws, data, n)
    d_qn = RootPair.rational(_images(ws, data, n)[0], lattice.r)
    e1_qprev, e2_qprev = _shifted(ws, data, n - 1)
    e1_s, e2_s = _shifted(ws, data)

    w = min(x.window for x in (d_qn, e1_qn, e2_qn, e1_qprev, e2_qprev))
    l_plus = _surd_coeff_pair(lattice, l, pi, +1, w)
    l_minus = _surd_coeff_pair(lattice, l, pi, -1, w)
    c_half = RootPair.rational(LaurentSeries.from_poly(C * HALF, w), lattice.r)
    res1 = (d_qn * A - l_plus * e1_qn
            - (e1_s * B + c_half) * e2_qn - e1_qprev * theta)
    res2 = (d_qn * A - l_minus * e2_qn
            - (e2_s * B + c_half) * e1_qn - e2_qprev * theta)
    return res1, res2


def reference_res_q(ric, coeffs, ws, n):
    B, C = ric.B, ric.C
    d_qn, m_qn = _images(ws, coeffs.data, n)
    m_qprev = _images(ws, coeffs.data, n - 1)[1]
    res_q = (d_qn.mul_poly(coeffs.A_at(n))
             - m_qn.mul_poly(coeffs.l_at(n - 1) + C * HALF)
             - m_qprev.mul_poly(coeffs.theta_at(n - 1)))
    if not B.is_zero:
        m_sq = apply_M_series(ric.lattice, ws.s * second_kind_by_definition(coeffs.data, ws.s, n))
        res_q = res_q - (ws.dm()[1] * m_qn * 2 - m_sq).mul_poly(B)
    return res_q


# -- inputs ----------------------------------------------------------------------

def _instance(path):
    """(ric, data, n_max, S) as `snul certify` builds them; a moments-only file
    certifies its first verified fitted candidate."""
    problem = ProblemFile.load(str(path))
    lattice = problem.build_lattice()
    order = max(problem.trunc, 2 * problem.n_max + 2)
    moments = problem.moment_list(order)
    if problem.riccati is not None:
        ric = problem.riccati_data(lattice)
        if moments is None:
            moments = solve_moments_from_riccati(ric, order)
    else:
        ws = Workspace(lattice, LaurentSeries.from_moments(moments))
        ric = next(c for c in fit_riccati(ws, problem.deg_bounds)
                   if riccati_residual(c, ws).is_zero_within_window())
    beta, gamma = recurrence_from_moments(moments, problem.n_max)
    data = smop_from_recurrence(beta, gamma, problem.n_max)
    return ric, data, problem.n_max, LaurentSeries.from_moments(moments)


def _moved(poly, index, delta):
    """poly with its coefficient of x^index moved by delta."""
    values = list(poly.coeffs) + [0] * (index + 1 - len(poly.coeffs))
    values[index] += delta
    return Poly(values)


def _tampered(ric, coeffs, name=None, level=None, index=None, delta=None):
    """A copy of `coeffs` read with `ric`, with coefficient `index` of `name`
    at `level` moved by delta when a name is given."""
    out = StructureCoeffs(ric, coeffs.data)
    for store in ("l", "pi", "theta"):
        setattr(out, store, list(getattr(coeffs, store)))
    if name is not None:
        polys = getattr(out, name)
        polys[level + 1] = _moved(polys[level + 1], index, delta)
    # A_n = A + 2 r pi_{n-1} from the copied pi, as `append_level` forms it
    out.gathered = [ric.A + (ric.lattice.r * 2) * pi for pi in out.pi]
    return out


def _same(x, y):
    return ((x.truncation_order, x.lowest_power, x.coefficients)
            == (y.truncation_order, y.lowest_power, y.coefficients))


# -- the oracle tests ------------------------------------------------------------------

def _check_level(ric, data, coeffs, ws, n, case):
    re, im = verify_second_kind_relations(ws, coeffs, n)
    res1, res2 = reference_second_kind(ric, coeffs, ws, n)
    assert _same(re, res1.u) and _same(im, res1.v), case
    assert _same(re, res2.u) and _same(-im, res2.v), case
    if n < data.n_max:
        res_q = gathered_relations(ws, coeffs, n)[2]
        assert _same(res_q, reference_res_q(ric, coeffs, ws, n)), case
        assert _same(res_q, re), case
    return re, im


@pytest.mark.parametrize("path", INSTANCES, ids=lambda p: p.stem)
def test_routes_agree(path):
    ric, data, n_max, s = _instance(path)
    coeffs = structure_coeffs_direct(ric, data, n_max)
    ws = Workspace(ric.lattice, s)
    for n in range(0, n_max + 1):
        re, im = _check_level(ric, data, coeffs, ws, n, (path.stem, n))
        assert re.is_zero_within_window() and im.is_zero_within_window()


@pytest.mark.parametrize("path", INSTANCES, ids=lambda p: p.stem)
def test_routes_agree_on_tampered_coefficients(path):
    # one workspace serves the shipped and every tampered set of coefficients,
    # so a pair formed for one set must never be read for another
    ric, data, n_max, s = _instance(path)
    coeffs = structure_coeffs_direct(ric, data, n_max)
    ws = Workspace(ric.lattice, s)
    for n in range(0, TAMPER_LEVELS):
        verify_second_kind_relations(ws, coeffs, n)
    for name in ("l", "pi", "theta"):
        for level in range(-1, TAMPER_LEVELS - 1):
            poly = getattr(coeffs, name)[level + 1]
            for index in sorted({0, max(poly.degree or 0, 0)}):
                for delta in (1, -1):
                    case = (path.stem, name, level, index, delta)
                    tampered = _tampered(ric, coeffs, name, level, index, delta)
                    re, im = _check_level(ric, data, tampered, ws, level + 1, case)
                    # the move shows in I: l and pi through Dq_n and Mq_n,
                    # Theta through Dq_{n-1}, except at n = 0 where q_-1 = 1
                    # and it shows in R alone
                    if name == "theta" and level == -1:
                        assert im.is_zero and not re.is_zero_within_window(), case
                    else:
                        assert not im.is_zero_within_window(), case
    # B enters through E1S E2q_n = U_n + sqrt(r) V_n, formed from the images
    # of S and q_n, against the reference's products E1S B E2q_n at every level
    if path.stem != "qhermite_corecursive":
        return
    assert not ric.B.is_zero
    for index in sorted({0, ric.B.degree}):
        for delta in (1, -1):
            moved = replace(ric, B=_moved(ric.B, index, delta))
            tampered = _tampered(moved, coeffs)
            for n in range(0, n_max + 1):
                case = (path.stem, "B", index, delta, n)
                re, im = _check_level(moved, data, tampered, ws, n, case)
                # the move shows in R, and in I from level 1 on: V_0 = 0
                assert not re.is_zero_within_window(), case
                assert im.is_zero_within_window() == (n == 0), case


# -- q_n and its images against the definition route ------------------------------

@pytest.mark.parametrize("conic", [REFERENCE_CONIC, SURD_CONIC, IMAGINARY_CONIC],
                         ids=["reference", "sqrt5", "sqrt-1"])
def test_images_of_q_match_the_definition(conic):
    lattice = build_lattice(*conic)
    rng = random.Random(4711)
    for _ in range(2):
        beta, gamma = random_quasi_definite_recurrence(rng, 26)
        data = smop_from_recurrence(beta[:13], gamma[:13], 12)
        s = LaurentSeries.from_moments(moments_from_recurrence(beta, gamma, 27))
        for n in range(-1, 13):
            # q_-1 = 1 is known on the window of S, q_n for n >= 0 on it less n
            q, w = second_kind_by_definition(data, s, n), s.truncation_order - max(n, 0)
            assert second_kind_series(data, s, n) == q and q.truncation_order == w, n
            d, m = _operator_series(lattice, q)
            assert (d.truncation_order, m.truncation_order) == (w + 1, w), n
            assert n > -1 or (d.is_zero and m == q)       # (0, 1) at q_-1 = 1


# -- (R, I) from the Riccati residual ---------------------------------------------

@pytest.mark.parametrize("conic", RATIONAL_CONICS + [SURD_CONIC, IMAGINARY_CONIC],
                         ids=lambda c: ",".join(str(v) for v in c))
@pytest.mark.parametrize("with_B", [False, True], ids=["B=0", "B!=0"])
def test_second_kind_pair_is_riccati_residual_times_P(conic, with_B):
    # R_n = MP_n rho and I_n = DP_n rho at levels 0..10 on data that is not
    # Laguerre-Hahn, so rho and R_n are nonzero; the oracle's own window never
    # exceeds w - n, the window rho gives them, so certify's claim of w - n
    # is never deeper than the oracle could have seen
    n_max, lattice = 10, build_lattice(*conic)
    rng = random.Random(f"second kind from rho {conic} {with_B}")
    A, C, D = (random_poly(rng, 3) for _ in "ACD")
    B = random_poly(rng, 3) if with_B else Poly.zero()
    ric = RiccatiData(A, B, C, D, lattice)
    beta, gamma = random_quasi_definite_recurrence(rng, 2 * n_max + 4)
    data = smop_from_recurrence(beta[:n_max + 1], gamma[:n_max + 1], n_max)
    coeffs = corollary_coeffs(ric, data, n_max)
    ws = Workspace(lattice, LaurentSeries.from_moments(
        moments_from_recurrence(beta, gamma, 2 * n_max + 4)))
    rho = riccati_residual(ric, ws)
    w = rho.truncation_order
    assert not rho.is_zero_within_window()
    for n in range(0, n_max + 1):
        re, im = verify_second_kind_relations(ws, coeffs, n)
        e2_p = apply_shift(lattice, data.poly(n), 2)
        d_p, m_p = e2_p.v, e2_p.u
        want_re, want_im = rho.mul_poly(m_p), rho.mul_poly(d_p)
        # deg MP_n <= n and deg DP_n <= n - 1, with less where the leading
        # terms cancel (MP_2 = -1 on the sqrt(-1) conic); DP_0 = 0
        assert want_re.truncation_order >= w - n, n
        assert want_im.truncation_order >= w - n + 1 or n == 0, n
        assert re.agrees_with(want_re) and im.agrees_with(want_im), n
        assert min(re.truncation_order, im.truncation_order - 1) <= w - n, n
        assert not re.is_zero_within_window(), n
