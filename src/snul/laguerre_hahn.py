"""The Laguerre-Hahn characterization engine.

Everything here revolves around the Riccati equation

    A DS = B E1S E2S + C MS + D,          A != 0,

for a formal Stieltjes function S on a q-quadratic lattice.  The module
checks the equation on truncated series, solves for moments sequentially,
fits (A, B, C, D) by exact linear algebra, constructs the structure
coefficients l_n, pi_n, Theta_n by the level recursion, held to the degree
bound of Theta_hat, and bundles the verdicts into a certificate.  The
structure-relation, second-kind, gathered, Magnus, telescope and
reconstruction entries are read off the Riccati check and the proofs in
`structure_coeffs_direct`, `second_kind_checks` and `corollary_recursion`;
the functions that form them directly are kept as the tests' reference,
and take D and M where everything else does: `apply_shift` on
polynomials, `_operator_series` on series.

One job's S and its images are one `Workspace`; every relation residual is
over Q, a rational pair (u, v) of u + sqrt(r) v where sqrt(r) enters.  One
level set is one `StructureCoeffs`: the functions that read l, pi and Theta
take the Riccati data and the recurrence from it.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Sequence

from .errors import (
    DegreeBoundExceeded,
    FreeMoment,
    Inconsistent,
    InsufficientTruncation,
    NotLaguerreHahn,
    NotQuasiDefinite,
    SnulError,
    Underdetermined,
)
from .fieldext import _nullspace
from .lattice import Lattice, _kernel_columns, _operator_series, apply_shift, e1e2_series
from .orthopoly import SMOPData, second_kind_series
from .poly import Poly
from .series import LaurentSeries

HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# data types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RiccatiData:
    """Polynomial coefficients of the Riccati equation, tied to a lattice."""

    A: Poly
    B: Poly
    C: Poly
    D: Poly
    lattice: Lattice

    def __post_init__(self):
        if self.A.is_zero:
            raise ValueError("Riccati data requires A != 0")

    @property
    def is_semiclassical(self) -> bool:
        return self.B.is_zero

    def polys(self) -> tuple[Poly, Poly, Poly, Poly]:
        return self.A, self.B, self.C, self.D

    def proportional_to(self, other: "RiccatiData") -> bool:
        """Projective comparison: equal up to one nonzero scalar."""
        scale = None
        for mine, theirs in zip(self.polys(), other.polys()):
            if mine.is_zero != theirs.is_zero:
                return False
            if not mine.is_zero and scale is None:
                if mine.degree != theirs.degree:
                    return False
                scale = theirs.leading_coefficient() / mine.leading_coefficient()
        if not scale:
            return False
        return all(m * scale == t for m, t in zip(self.polys(), other.polys()))


class StructureCoeffs:
    """l_n, pi_n, Theta_n of `ric` on the recurrence `data`, from level -1 =
    (C/2, 0, D) up, and the gathered A_n = A + (Delta_y^2 / 2) pi_{n-1} =
    A + 2 r pi_{n-1} and the step s_n = Theta_{n-1}/gamma_n of the level
    recursions, each formed once as level n - 1 is appended; Theta_hat_n is
    read off Theta_n.  The lists l, pi and theta are offset by one so index 0
    holds level -1; index n of `gathered` and `steps` holds A_n and s_n, from
    A_0 = A and s_0 = D (gamma_0 = 1)."""

    def __init__(self, ric: RiccatiData, data: SMOPData):
        self.ric = ric
        self.data = data
        self.l: list[Poly] = [ric.C * HALF]
        self.pi: list[Poly] = [Poly.zero()]
        self.theta: list[Poly] = [ric.D]
        self.gathered: list[Poly] = [ric.A]
        self.steps: list[Poly] = [ric.D]
        # p^2 - r = E1E2 x, in which the level recursions write out
        # E1E2(x - beta) = (p^2 - r) - 2 beta p + beta^2
        p = ric.lattice.p
        self._p2_r = Poly.dot(((p, p), (ric.lattice.r, -1)))

    @property
    def max_level(self) -> int:
        return len(self.l) - 2

    def append_level(self, l: Poly, pi: Poly, theta: Poly):
        self.l.append(l)
        self.pi.append(pi)
        self.theta.append(theta)
        self.gathered.append(Poly.dot(((self.ric.A, 1), (self.ric.lattice.r, pi, 2))))
        self.steps.append(Poly.dot(((theta, 1 / self.data.gamma[len(self.steps)]),)))

    def _at(self, store: list[Poly], n: int) -> Poly:
        if n < -1 or n + 1 >= len(store):
            raise IndexError(f"structure coefficients not computed at level {n}")
        return store[n + 1]

    def l_at(self, n: int) -> Poly:
        return self._at(self.l, n)

    def pi_at(self, n: int) -> Poly:
        return self._at(self.pi, n)

    def theta_at(self, n: int) -> Poly:
        return self._at(self.theta, n)

    def theta_hat_at(self, n: int) -> Poly:
        """gamma_0..gamma_n Theta_n."""
        return self.theta_at(n) * self.data.gamma_product(n)

    def A_at(self, n: int) -> Poly:
        """A + 2 r pi_{n-1}; A_0 = A, since pi_{-1} = 0."""
        return self._at(self.gathered, n - 1)

    def degrees(self) -> dict[str, list[int | None]]:
        # deg Theta_hat_n = deg Theta_n: a job's gamma_k are nonzero
        polys = {"l": self.l, "pi": self.pi, "theta": self.theta, "theta_hat": self.theta,
                 "A_gathered": self.gathered}
        return {name: [p.degree for p in ps] for name, ps in polys.items()}

    def same_as(self, other: "StructureCoeffs") -> bool:
        return (self.l, self.pi, self.theta) == (other.l, other.pi, other.theta)


@dataclass
class MagnusRiccatiData:
    """Riccati data of the ratio g_n = q_{n+1}/q_n at one level."""

    level: int
    A_n: Poly
    B_n: Poly
    C_n: Poly
    D_n: Poly

    def as_tuple(self):
        return self.A_n, self.B_n, self.C_n, self.D_n


@dataclass
class CheckResult:
    name: str
    verdict: str                 # "pass" | "fail" | "skip" | "error"
    window: int | None = None
    residual_summary: str = ""
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "verdict": self.verdict,
            "window": self.window,
            "residual_summary": self.residual_summary,
            "detail": self.detail,
        }


@dataclass
class Certificate:
    instance: dict
    options: dict
    checks: list[CheckResult] = dataclass_field(default_factory=list)
    degrees: dict = dataclass_field(default_factory=dict)
    timings: dict = dataclass_field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.verdict == "pass" for c in self.checks if c.verdict != "skip")

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "instance": self.instance,
            "options": self.options,
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
            "degrees": self.degrees,
            "timings": {k: round(v, 6) for k, v in self.timings.items()},
        }


# ---------------------------------------------------------------------------
# the per-job workspace
# ---------------------------------------------------------------------------

class Workspace:
    """One certify, fit or derive job: its lattice, its Stieltjes series S
    and the images of S that the fit and the Riccati residual share, (D S,
    M S) and E1S E2S, each formed on first use.  The structure stage takes
    the recurrence as an argument, and the relation oracles read it from
    the `StructureCoeffs` they check."""

    def __init__(self, lattice: Lattice, s: LaurentSeries | None = None):
        self.lattice = lattice
        self.s = s
        self._memo: dict = {}

    def _get(self, key, make):
        out = self._memo.get(key)
        if out is None:
            out = self._memo[key] = make()
        return out

    def dm(self) -> tuple[LaurentSeries, LaurentSeries]:
        """(D S, M S), on the windows of `_operator_series`."""
        return self._get("dm", lambda: _operator_series(self.lattice, self.s))

    def e1e2(self) -> LaurentSeries:
        """E1S E2S = (MS)^2 - r (DS)^2."""
        return self._get("e1e2", lambda: e1e2_series(self.lattice, self.s, *self.dm()))


# ---------------------------------------------------------------------------
# small helpers
# ---------------------------------------------------------------------------

def _m_of_linear(lattice: Lattice, beta) -> Poly:
    """M(x - beta) = p - beta."""
    return lattice.p - Fraction(beta)


# ---------------------------------------------------------------------------
# the Riccati equation on series
# ---------------------------------------------------------------------------

def riccati_residual(ric: RiccatiData, ws: Workspace) -> LaurentSeries:
    """A DS - B E1S E2S - C MS - D for the S of `ws`, as a series with an
    explicit window.

    The instance is Laguerre-Hahn (relative to the window) iff the result is
    zero within its window.
    """
    ds, ms = ws.dm()
    terms = [(ds, ric.A), (ms, -ric.C)] + ([(ws.e1e2(), -ric.B)] if ric.B else [])
    res = LaurentSeries.dot(terms)
    _checked_window(res.truncation_order)
    return res - LaurentSeries.from_poly(ric.D, res.truncation_order)


def solved_riccati_window(ric: RiccatiData, count: int) -> int:
    """The window of `riccati_residual` on u_0..u_count of
    `solve_moments_from_riccati`, where the proof there makes it zero."""
    return _checked_window(count - max(_theta_degree_bound(ric), -1))


def job_riccati_residual(ric: RiccatiData, order: int, moments: Sequence[Fraction] | None,
                         ws: Workspace | None = None) -> LaurentSeries:
    """The Riccati residual of a certify or derive job on u_0..u_order:
    formed from supplied `moments`, in `ws` when given (a `Workspace` of
    their S, such as the fit's) and else in a new one, and with `moments`
    None, on those `solve_moments_from_riccati` solved, zero on
    `solved_riccati_window`, as each coefficient there is an equation the
    solve imposed."""
    if moments is None:
        return LaurentSeries.zero(solved_riccati_window(ric, order))
    return riccati_residual(ric, ws or Workspace(ric.lattice, LaurentSeries.from_moments(moments)))


def _checked_window(window: int) -> int:
    if window < 1:
        raise InsufficientTruncation(required=1, available=window, message="window "
                                     "exhausted before any residual coefficient is known")
    return window


def solve_moments_from_riccati(ric: RiccatiData, count: int,
                               free_values: dict[int, Fraction] | None = None,
                               ) -> list[Fraction]:
    """Solve the Riccati equation for u_0..u_count by coefficient matching.

    u_0 = 1 is imposed.  Coefficient equations are processed from the top
    power down; each is affine in the newest moment.  Raises Inconsistent(k)
    when an equation cannot be satisfied, FreeMoment(k) when the equation is
    vacuous and no value for u_k was supplied in free_values, ValueError
    when count is negative.

    DS and MS are lists of integer numerators, entry i over g L q2^i, with
    L the lcm of the moment denominators so far and g, q2 those of
    `_kernel_columns`: [x^-i] DS reads u_0..u_{i-2} and [x^-i] MS reads
    u_0..u_{i-1}, so u_k enters the equation of u_k through DS at
    x^-(k+2) and MS at x^-(k+1) alone.  Each entry is formed once, as a
    dot product of a kernel column with the numerators of u_0..u_{k-1},
    and completed by the term of u_k once u_k is known.  E1S E2S enters as
    (MS)^2 - r (DS)^2.  The equation of u_k is two ints, beta_k of
    u_0..u_{k-1} and alpha_k, the coefficient of u_k, so u_k = -beta_k /
    (alpha_k L) is its one Fraction.

    Proof that rho = A DS - B E1S E2S - C MS - D, S = sum u_k x^(-k-1), is
    zero on the window w = count - max(m0, -1) of `riccati_residual`: DS, MS
    and E1S E2S lead at x^-2, x^-1, x^-2 and are known down to x^-(count+2),
    x^-(count+1), x^-(count+2).  Above x^top_res rho is zero; at top_res >= e
    >= m0 it reads u_0 alone (the first checks).  u_j enters A DS and C MS at
    x^(m0-j) and below, u_j u_l enters B E1S E2S at x^(m0-j-l) and below, so
    rho at x^(m0-k) is beta_k + alpha_k u_k, zero or the solve raised, down
    to x^(m0-count), at or below x^-w.
    """
    if count < 0:
        raise ValueError("moment count must be nonnegative")
    lattice = ric.lattice
    A, B, C, D = ric.polys()
    m0 = max(p.degree - drop for p, drop in ((A, 2), (B, 2), (C, 1)) if not p.is_zero)
    top_res = max(m0, D.degree if not D.is_zero else m0)
    max_deg = max(d.degree for d in (A, B, C, D) if not d.is_zero)
    # the equation for u_k sits at x^(m0 - k) and reads DS down to x^-(k+2)
    # and MS down to x^-(k+1)
    _, g, q2, cols, mcols = _kernel_columns(lattice, count + 1)
    c, _, _, r0, r1, r2 = lattice._scaled_coefficients()[:6]
    # over G, coefficient i of A, C and D enters the x^e equation with weight
    # q2^(top - i), that of B with q2^(max_deg - i)
    G, top = lcm(A.den, B.den, C.den, D.den), max_deg + 2 * (not B.is_zero)
    wa, wb, wc, wd = ([(i, a * (G // p.den) * q2 ** (t - i)) for i, a in enumerate(p.nums) if a]
                      for p, t in ((A, top), (B, max_deg), (C, top), (D, top)))
    # [x^-i] DS = -c' q2^(1-i) sum_j C_ij u_j is -c q2 sum_j C_ij U_j over
    # g L q2^i, U_j = L u_j; DS and MS of u_0 = 1 lead at x^-2 and x^-1
    dw = -c * q2
    ds, ms, U, L = [0] * (count + 3), [0] * (count + 2), [1], 1
    ds[2], ms[1] = dw, mcols[1][0]

    def conv(f, h, m, low_f, low_h):
        # the x^-m coefficient of f h; f has no terms above x^-low_f, h none above x^-low_h
        if m < low_f + low_h:
            return 0
        if f is not h:
            return sum(map(mul, f[low_f:m - low_h + 1], h[m - low_f:low_h - 1:-1]))
        # a square (low_f = low_h): each product of two entries once
        mid = (m + 1) // 2
        out = 2 * sum(map(mul, f[low_f:mid], f[m - low_f:m - mid:-1]))
        return out if m % 2 else out + f[mid] * f[mid]

    def equation(e, d, m, low, factor, total=0):
        # total plus the x^e coefficient of A Df - C Mf - factor B (MS Mf - r DS Df)
        # for the lists d, m of Df, Mf over g den q2^i, Mf without terms above
        # x^-low, as one int over G g den q2^(top - e), times c g L when B != 0
        # (r = (r0 + r1 x + r2 x^2) / c); each DS Df coefficient is formed once
        total += sum(w * d[i - e] for i, w in wa if i > e) - sum(w * m[i - e] for i, w in wc if i > e)
        if not wb:
            return total
        js = [(i - e, w) for i, w in wb if i > e]
        dd = {t: conv(ds, d, t, 2, low + 1) for t in {j + s for j, _ in js for s in (0, 1, 2)}}
        return total * c * g * L - factor * sum(
            w * (q2 * (q2 * (c * conv(ms, m, j, 1, low) - r0 * dd[j]) - r1 * dd[j + 1])
                 - r2 * dd[j + 2]) for j, w in js)

    def residual(e):
        return equation(e, ds, ms, 1, 1, -sum(w * g * L for i, w in wd if i == e))

    free_values = free_values or {}
    moments = [Fraction(1)]
    for e in range(top_res, m0 - 1, -1):
        res = residual(e)
        if res:
            res = Fraction(res, G * g * q2 ** (top - e) * (c * g if wb else 1))
            raise Inconsistent(0, f"residual coefficient at x^{e} is {res} with u_0 alone; "
                                  "no moment can repair it")

    for k in range(1, count + 1):
        # DS at x^-(k+2) and MS at x^-(k+1) from u_0..u_{k-1}; the lists of
        # u_k alone, over g q2^i, hold its terms there
        dcol, mcol = cols[k + 2], mcols[k + 1]
        ds[k + 2], ms[k + 1] = dw * sum(map(mul, dcol, U)), sum(map(mul, mcol, U))
        dk, mk = [0] * (k + 3), [0] * (k + 2)
        dk[k + 2], mk[k + 1] = dw * dcol[k], mcol[k]
        beta_k = residual(m0 - k)
        alpha_k = equation(m0 - k, dk, mk, k + 1, 2)
        if not alpha_k:
            if beta_k:
                raise Inconsistent(k)
            if k not in free_values:
                raise FreeMoment(k)
            u = Fraction(free_values[k])
        else:
            u = Fraction(-beta_k, alpha_k * L)
        moments.append(u)
        if L % u.denominator:
            scale = u.denominator // gcd(L, u.denominator)
            L *= scale
            U = [a * scale for a in U]
            # later equations, at x^(m0 - k') for k' > k, read DS and MS from
            # x^-(k' - m0) down when B = 0, and every entry through E1S E2S
            # when B != 0: only those entries move to the new L
            low = 0 if wb else max(k + 1 - m0, 0)
            ds[low:k + 3] = [a * scale for a in ds[low:k + 3]]
            ms[low:k + 2] = [a * scale for a in ms[low:k + 2]]
        U.append(u.numerator * (L // u.denominator))
        ds[k + 2] += dk[k + 2] * U[k]
        ms[k + 1] += mk[k + 1] * U[k]
    return moments


# ---------------------------------------------------------------------------
# exact linear fit of Riccati data from a series
# ---------------------------------------------------------------------------

def riccati_nullspace(ws: Workspace,
                      degree_bounds: tuple[int, int, int, int]) -> list[list[int]]:
    """Nullspace of the linear map (A, B, C, D) -> residual coefficients on
    the S of `ws`.

    Returns the primitive integer basis vectors of `_nullspace`, laid out
    A then B then C then D, ascending degree inside each block.  The row of
    x^e, from the top exponent down, is read off the integer numerators of
    D S, E1S E2S and M S, all put over L, the lcm of their denominators:
    each row is L times the row over Q, so the nullspace is the same.  The
    rows are formed as `_nullspace` reads them, none after it has its answer.
    A window with fewer rows than unknowns raises InsufficientTruncation:
    its nullspace is nonzero whatever the moments, so it would fit anything.
    """
    da, db, dc, dd = degree_bounds
    ds, ms = ws.dm()
    q = ws.e1e2()
    ncols = da + db + dc + dd + 4
    e_top = max(da + ds._effective_top(), db + q._effective_top(), dc + ms._effective_top(), dd)
    e_min = max(da - ds.truncation_order, db - q.truncation_order, dc - ms.truncation_order)
    nrows = max(e_top - e_min + 1, 0)
    if nrows < ncols:
        raise InsufficientTruncation(required=ncols, available=nrows, message=f"the fit window "
                                     f"gives {nrows} equations for {ncols} unknowns: "
                                     f"give more moments or lower the degree bounds")
    L = lcm(ds.den, q.den, ms.den)
    # x^(e - i) of a block with degree bound d sits at e_top - e + i of its
    # numerators over L, padded with zeros down from x^e_top
    blocks = []
    for f, d, sign in ((ds, da, 1), (q, db, -1), (ms, dc, -1)):
        nums = [0] * (e_top - f.lowest_power) + [sign * (L // f.den) * a for a in f.nums]
        blocks.append((d, nums + [0] * (e_top - e_min + d + 1 - len(nums))))
    rows = ([v for d, nums in blocks for v in nums[e_top - e: e_top - e + d + 1]]
            + [-L * (e == i) for i in range(dd + 1)]
            for e in range(e_top, e_min - 1, -1))
    return _nullspace(rows, ncols)


def fit_riccati(ws: Workspace,
                degree_bounds: tuple[int, int, int, int]) -> list[RiccatiData]:
    """Candidate Riccati data on the lattice of `ws` within the degree
    bounds, from the exact nullspace for its S.  Basis vectors whose A-part
    vanishes are dropped (A != 0 is part of the definition); an empty list
    is a valid 'not Laguerre-Hahn within these bounds/window' answer.  Each
    candidate's residual on the same `ws` reuses the images the fit formed."""
    da, db, dc, dd = degree_bounds
    out = []
    for vec in riccati_nullspace(ws, degree_bounds):
        a = Poly(vec[: da + 1])
        b = Poly(vec[da + 1: da + db + 2])
        c = Poly(vec[da + db + 2: da + db + dc + 3])
        d = Poly(vec[da + db + dc + 3:])
        if a.is_zero:
            continue
        out.append(RiccatiData(a, b, c, d, ws.lattice))
    return out


# ---------------------------------------------------------------------------
# structure coefficients, the constructive (a) => (b) route
# ---------------------------------------------------------------------------

def _theta_degree_bound(ric: RiccatiData) -> int:
    """max(deg A - 2, deg B - 2, deg C - 1); a zero B or C counts for nothing."""
    return max(len(ric.A.nums) - 3, len(ric.B.nums) - 3, len(ric.C.nums) - 2)


def structure_coeffs_direct(ric: RiccatiData, data: SMOPData, n_max: int) -> StructureCoeffs:
    """l_n, pi_n, Theta_n for n = -1..n_max-1 on the recurrence `data` from
    the level recursion (`corollary_level_zero`, `corollary_recursion`); the
    one failure is DegreeBoundExceeded, a Theta_hat_{n-1} over its bound.  S
    is not read (the Riccati residual is the caller's).  The levels are the
    unique solution of both structure relations at levels 1..n_max, by the
    proof below; `certify` records `structure-relations` from it.

    Proof.  With sqrt(r) a symbol of square r, E1 f = Mf - sqrt(r) Df and
    E2 f = Mf + sqrt(r) Df are multiplicative, by D(fg) = Df Mg + Mf Dg and
    M(fg) = Mf Mg + r Df Dg.  Let v_k = (P_k, P1_{k-1}), so v_{-1} = (0, -1),
    v_0 = (1, 0) and v_{k+1} = (x - beta_k) v_k - gamma_k v_{k-1}, Lam_k =
    l_k + 2 sqrt(r) pi_k and K = ((C/2, B), (-D, -C/2)).  The E1 variants at
    level n (`verify_structure_relations`, the tests' oracle) are the rows of

        R_n = A Dv_n - Lam_{n-1} E1v_n - Theta_{n-1} E1v_{n-1} + K E2v_n = 0,

    the E2 variants their sqrt(r)-conjugates.  (i) R_n = 0 is linear in (Lam,
    Theta) with matrix (E1v_n, E1v_{n-1}), of determinant E1(P_n P1_{n-2} -
    P_{n-1} P1_{n-1}) = -gamma_0..gamma_{n-1} (`job_recurrence`): one
    solution, in Q[x][sqrt(r)].  By Cramer its Theta is A (MP_n DP1_{n-1} -
    MP1_{n-1} DP_n) - (C/2)(E1P_n E2P1_{n-1} + conjugate) - D E1P_n E2P_n -
    B E1P1_{n-1} E2P1_{n-1} over that constant, each term self-conjugate, so
    it has no sqrt(r) part.  (ii) R_0 = 0 at level -1 = (C/2, 0, D), and
    R_1 = 0 at `corollary_level_zero`: substitute P_1 = x - beta_0, P1_0 = 1.
    (iii) Let R_{n-1} = R_n = 0, n >= 1, m_k and s_k be as in
    `corollary_recursion`, and e1_k, e2_k = m_k -/+ sqrt(r) the images of
    x - beta_k.  The recurrence in R_{n+1}, with D((x - beta_n) f) = m_n Df +
    Mf, R_n and R_{n-1} for A Dv + K E2v and gamma_{n-1} E1v_{n-2} = e1_{n-1}
    E1v_{n-1} - E1v_n, gives R_{n+1} = a E1v_n + b E1v_{n-1} with

        a = A + e2_n Lam_{n-1} - e1_n Lam_n + gamma_n s_{n-1} - Theta_n,
        b = gamma_n (Lam_n - Lam_{n-2} - e1_{n-1} s_{n-1} + e2_n s_n).

    The matrix of (i) is invertible, so R_{n+1} = 0 iff a = b = 0.  The parts
    of b are the pi step and the l step taken twice.  With pi_0 - pi_{-1} =
    -s_0/2 they give pi_n - pi_{n-1} = -s_n/2, so the sqrt(r) part of a,
    l_n + l_{n-1} + 2 m_n (pi_{n-1} - pi_n), is zero, and its rational part,
    Theta_n = A + gamma_n s_{n-1} + m_n (l_{n-1} - l_n) + 2 r (pi_n + pi_{n-1}),
    is the Theta step.  (iv) By induction the recursion's levels solve R_1..
    R_{n_max} for any (A, B, C, D) and any recurrence with gamma_0 = 1 and
    gamma_k != 0, and by (i) nothing else does."""
    bound, coeffs = _theta_degree_bound(ric), StructureCoeffs(ric, data)
    for n in range(1, n_max + 1):
        coeffs.append_level(*(corollary_level_zero(coeffs) if n == 1
                              else corollary_recursion(coeffs, n - 2)))
        theta = coeffs.theta_at(n - 1)
        if len(theta.nums) > bound + 1:
            raise DegreeBoundExceeded(n - 1, theta.degree, bound)
    return coeffs


def verify_structure_relations(ws: Workspace, coeffs: StructureCoeffs, n: int):
    """The residuals ((Ra, Ia), (Rb, Ib)) of the two structure relations at
    level n >= 1 on the lattice of `ws`, the tests' oracle for the proof in
    `structure_coeffs_direct`: both variants hold iff all four vanish.
    Ra + sqrt(r) Ia and Rb + sqrt(r) Ib are the rows of R_n there, each one
    `Poly.dot`, with (D f, M f) the sqrt(r) and rational parts of E2 f
    (`apply_shift`), A_n = A + 2 r pi and (l, pi, Theta) at level n - 1:

        Ra = A_n DP_n - (l - C/2) MP_n + B MP1_{n-1} - Theta MP_{n-1},
        Ia = (l + C/2) DP_n - 2 pi MP_n + B DP1_{n-1} + Theta DP_{n-1},
        Rb = A_n DP1_{n-1} - (l + C/2) MP1_{n-1} - D MP_n - Theta MP1_{n-2},
        Ib = (l - C/2) DP1_{n-1} - 2 pi MP1_{n-1} - D DP_n + Theta DP1_{n-2}.

    Raises IndexError above the n_max of the recurrence."""
    if n < 1:
        raise ValueError("structure relations are stated for n >= 1")
    _, B, C, D = coeffs.ric.polys()
    l, pi, theta = coeffs.l_at(n - 1), coeffs.pi_at(n - 1), coeffs.theta_at(n - 1)
    a_n, dot, half_C, data = coeffs.A_at(n), Poly.dot, C * HALF, coeffs.data
    l_minus, l_plus, pi2 = l - half_C, l + half_C, pi * -2

    def shifts(f: Poly) -> tuple[Poly, Poly]:
        e2 = apply_shift(ws.lattice, f, 2)
        return e2.v, e2.u
    (d_pn, m_pn), (d_pp, m_pp) = shifts(data.poly(n)), shifts(data.poly(n - 1))
    (d_p1, m_p1), (d_pq, m_pq) = shifts(data.assoc(n - 1)), shifts(data.assoc(n - 2))
    return ((dot(((a_n, d_pn), (-l_minus, m_pn), (B, m_p1), (-theta, m_pp))),
             dot(((l_plus, d_pn), (pi2, m_pn), (B, d_p1), (theta, d_pp)))),
            (dot(((a_n, d_p1), (-l_plus, m_p1), (-D, m_pn), (-theta, m_pq))),
             dot(((l_minus, d_p1), (pi2, m_p1), (-D, d_pn), (theta, d_pq)))))


def verify_second_kind_relations(ws: Workspace, coeffs: StructureCoeffs, n: int):
    """The pair (R, I) at level n >= 0 for the S of `ws`: both second-kind
    relations hold iff R and I vanish, on min(window of R, window of I - 1),
    as sqrt(r) leads with x^1.  `certify` reads them off the Riccati residual
    (`second_kind_checks`); this is the tests' oracle.  With E_j f = M f -/+
    sqrt(r) D f and (l, pi, Theta) at level n - 1, the residuals of the two
    relations are res1 = R + sqrt(r) I and res2 = R - sqrt(r) I, where

        R = A_n Dq_n - (l + C/2) Mq_n - Theta Mq_{n-1} - B U_n,
        I = (l - C/2) Dq_n - 2 pi Mq_n + Theta Dq_{n-1} - B V_n,

    A_n = A + 2 r pi, (Dq_k, Mq_k) is `_operator_series` of q_k
    (`second_kind_series`; q_{-1} = 1 has (0, 1)) and E1S E2q_n = U_n +
    sqrt(r) V_n, U_n = MS Mq_n - r DS Dq_n and V_n = MS Dq_n - DS Mq_n, all
    over Q when S is; each of R and I is one `LaurentSeries.dot`."""
    if n < 0:
        raise ValueError("second-kind relations are stated for n >= 0")
    B, half_C = coeffs.ric.B, coeffs.ric.C * HALF
    l, pi, theta = coeffs.l_at(n - 1), coeffs.pi_at(n - 1), coeffs.theta_at(n - 1)
    (d_q, m_q), (d_prev, m_prev) = (
        _operator_series(ws.lattice, second_kind_series(coeffs.data, ws.s, k))
        for k in (n, n - 1))
    re = [(d_q, coeffs.A_at(n)), (m_q, -(l + half_C)), (m_prev, -theta)]
    im = [(d_q, l - half_C), (m_q, pi * -2), (d_prev, theta)]
    if not B.is_zero:
        d_s, m_s = ws.dm()
        re.append((m_s * m_q - (d_s * d_q).mul_poly(ws.lattice.r), -B))
        im.append((m_s * d_q - d_s * m_q, -B))
    return LaurentSeries.dot(re), LaurentSeries.dot(im)


def second_kind_checks(riccati_window: int, n_max: int) -> list[CheckResult]:
    """The `second-kind-1`, `second-kind-2` and `gathered` entries of a
    certify whose `riccati` and `structure-direct` stages passed.  With
    rho = A DS - B E1S E2S - C MS - D, the (R, I) of
    `verify_second_kind_relations` at each level n = 0..n_max are

        R_n = MP_n rho,    I_n = DP_n rho.

    Proof.  With sqrt(r), E1 and E2 as in `structure_coeffs_direct`, Lam =
    Lam_{n-1} and Theta = Theta_{n-1}, the residual of
    `verify_second_kind_relations` is

        R_n + sqrt(r) I_n = A Dq_n - Lam E1q_n - (C/2) E2q_n - Theta E1q_{n-1} - B E1S E2q_n.

    Put q_k = P_k S - P1_{k-1} in it, with Dq_n = DP_n MS + MP_n DS -
    DP1_{n-1}, and let Z1_n, Z2_n be the rows of R_n there.  The terms free
    of S sum to -Z2_n - D E2P_n; those with S to E1S Z1_n plus A (DP_n MS +
    MP_n DS - DP_n E1S) - (C/2) E2P_n (E2S + E1S) - B E1S E2S E2P_n = E2P_n
    (A DS - C MS - B E1S E2S).  So R_n + sqrt(r) I_n = E2P_n rho + E1S Z1_n -
    Z2_n, where Z1_n = Z2_n = 0 at n = 1..n_max by that proof; at n = 0, with
    level -1 = (C/2, 0, D), q_{-1} = 1 and q_0 = S, it is rho itself.
    Compare the parts with and without sqrt(r).

    Windows: rho is known and zero down to x^-w, w = `riccati_window`, the
    window of the `riccati` entry: formed, or `solved_riccati_window`.  As
    deg MP_n <= n and deg DP_n <= n - 1, R_n and sqrt(r) I_n are zero down
    to x^-(w - n), as deep as rho's window carries them, so the stage passes
    on w - n_max.  The gathered relations at n < n_max, R_n and structure
    residuals at level n + 1 (`gathered_relations`), pass on w - n_max + 1.

    The Pade decay q_n = O(x^(-n-1)) that `second_kind_series` checks holds
    by construction: certify's recurrence is `recurrence_from_moments` of
    the same moments, or the supplied one they were formed from, which that
    gives back (`job_recurrence`); its beta_{k-1} and gamma_{k-1} make
    sigma_{k,l} = u(x^l P_k), the x^(-l-1) coefficient of P_k S, vanish for
    l < k, and P1_{k-1} is the polynomial part of P_k S as u_0 = 1.
    """
    window = riccati_window - n_max
    return [CheckResult("second-kind-1", "pass", window=window),
            CheckResult("second-kind-2", "pass", window=window),
            CheckResult("gathered", "pass", window=window + 1)]


def gathered_relations(ws: Workspace, coeffs: StructureCoeffs, n: int):
    """Residuals of the gathered (M-form) relations at level n >= 0: the
    parts Ra and Rb of `verify_structure_relations` at level n + 1, exact
    identities for P_{n+1} and P1_n, and the series A_n Dq_n - (l_{n-1} +
    C/2) Mq_n - Theta_{n-1} Mq_{n-1} - B (2 MS Mq_n - M(S q_n)), the R of
    `verify_second_kind_relations` at level n, as M(S q_n) = MS Mq_n + r DS
    Dq_n.  `certify` records them from `second_kind_checks`."""
    if n < 0:
        raise ValueError("gathered relations are stated for n >= 0")
    (res_p, _), (res_p1, _) = verify_structure_relations(ws, coeffs, n + 1)
    return res_p, res_p1, verify_second_kind_relations(ws, coeffs, n)[0]


# ---------------------------------------------------------------------------
# level recursions: the route of the structure stage, and the Magnus oracle
# ---------------------------------------------------------------------------

def corollary_level_zero(coeffs: StructureCoeffs) -> tuple[Poly, Poly, Poly]:
    """Closed forms of the level-0 coefficients, with m_0 = M(x - beta_0):

        l_0 = -m_0 D - C/2,  pi_0 = -D/2,
        Theta_0 = A - (Delta_y^2/4) D - (l_0 - C/2) m_0 + B = A + B + (m_0^2 - r) D + m_0 C,

    each one `Poly.dot`, with m_0 and m_0^2 - r written out in p and p^2 - r.
    """
    A, B, C, D = coeffs.ric.polys()
    p, p2_r, b, dot = coeffs.ric.lattice.p, coeffs._p2_r, coeffs.data.beta[0], Poly.dot
    l0 = dot(((p, D, -1), (D, b), (C, HALF, -1)))
    theta0 = dot(((A, 1), (B, 1), (p2_r, D), (p, D, -2 * b), (D, b, b), (p, C), (C, b, -1)))
    return l0, dot(((D, HALF, -1),)), theta0


def corollary_recursion(coeffs: StructureCoeffs, n: int) -> tuple[Poly, Poly, Poly]:
    """One step n -> n+1 of the three-term level recursions (n >= 0).  With
    m_k = M(x - beta_k), s_k = Theta_{k-1}/gamma_k and pi_{-1} = 0,
    Theta_{-1} = D at n = 0:

        l_{n+1} = -l_n - m_{n+1} s_{n+1},
        pi_{n+1} = pi_{n-1} - s_{n+1}/2 - s_n/2,
        Theta_{n+1} = A + 2 r (pi_n + pi_{n-1}) + (gamma_{n+1} - r) s_n
                      + (m_{n+1}^2 - r) s_{n+1} + 2 m_{n+1} l_n.

    Levels from `corollary_level_zero` and these steps, with gamma_0 = 1
    (so s_0 = D), meet the identities below for any A, B, C, D and any
    recurrence, and `certify` records the matching stages from this proof:
    - `telescope_residuals`: L_n = l_n + l_{n-1} + m_n s_n is zero by the l
      step for n >= 1 and by l_0 = -m_0 D - C/2 at n = 0.  T_{n+1} - T_n =
      pi_{n+1} - pi_{n-1} + s_{n+1}/2 + s_n/2 is zero by the pi step, and so
      is T_1 = pi_1 + pi_0 + D + s_1/2, as pi_0 = -D/2.
    - `magnus_step` of `magnus_data_from_coeffs(coeffs, n)` against level
      n + 1: B is s_{n+1} on both sides, the two A differ by 2 r (T_{n+1}
      - T_n) and the two C by -L_n (after the l step at n + 1).  The new D
      is a + gamma_{n+1} s_n + m_{n+1} c + (m_{n+1}^2 - r) s_{n+1}, with the
      Magnus a = A + 2 r (pi_n + pi_{n-1}) - r s_n and c = l_n - l_{n-1} -
      m_n s_n = 2 l_n - L_n: the Theta step, as L_n = 0.
    - `reconstruct_riccati` reads C = 2 l_{-1}, D = Theta_{-1}, A = A_0 (as
      pi_{-1} = 0) and B from the level-0 closed forms, which it also
      checks, so it returns (A, B, C, D) itself.

    Each of the three is one `Poly.dot` of the stored s_k and A_k (A + 2 r
    (pi_n + pi_{n-1}) = A_{n+1} + A_n - A), with halves as weights and m_{n+1}
    = p - b, m_{n+1}^2 - r = (p^2 - r) - 2 b p + b^2 written out, b = beta_{n+1}.
    They read s, not Theta, as gamma_{n+1} cancels from s_{n+1}: on surd_conic
    at n = 90, Theta_n has 1010-bit numerators over 760 bits, s_{n+1} 255 over 1."""
    lattice, b, dot = coeffs.ric.lattice, coeffs.data.beta[n + 1], Poly.dot
    p, r, l_n = lattice.p, lattice.r, coeffs.l_at(n)
    step, step_prev = coeffs.steps[n + 1], coeffs.steps[n]
    return (dot(((l_n, -1), (p, step, -1), (step, b))),
            dot(((coeffs.pi_at(n - 1), 1), (step, HALF, -1), (step_prev, HALF, -1))),
            dot(((coeffs.A_at(n + 1), 1), (coeffs.A_at(n), 1), (coeffs.ric.A, -1),
                 (step_prev, coeffs.data.gamma[n + 1]), (r, step_prev, -1),
                 (coeffs._p2_r, step), (p, step, -2 * b), (step, b, b),
                 (p, l_n, 2), (l_n, b, -2))))


def corollary_coeffs(ric: RiccatiData, data: SMOPData, n_max: int) -> StructureCoeffs:
    """Structure coefficients for levels -1..n_max-1 from the level
    recursions alone: `structure_coeffs_direct` without its degree bound."""
    coeffs = StructureCoeffs(ric, data)
    for n in range(-1, n_max - 1):
        coeffs.append_level(*(corollary_level_zero(coeffs) if n < 0
                              else corollary_recursion(coeffs, n)))
    return coeffs


def magnus_data_from_coeffs(coeffs: StructureCoeffs, n: int) -> MagnusRiccatiData:
    """The Riccati data of the ratio g_n = q_{n+1}/q_n, read off the
    structure coefficients:

        A_n = A + (Delta_y^2/2)(pi_n + pi_{n-1} - Theta_{n-1}/(2 gamma_n)),
        B_n = Theta_{n-1}/gamma_n,
        C_n = l_n - l_{n-1} - M(x - beta_n) Theta_{n-1}/gamma_n,
        D_n = Theta_n.
    """
    b_n = coeffs.theta_at(n - 1) / coeffs.data.gamma[n]
    pi_sum = coeffs.pi_at(n) + coeffs.pi_at(n - 1)
    a_n = coeffs.ric.A + coeffs.ric.lattice.r * (pi_sum * 2 - b_n)
    m_n = _m_of_linear(coeffs.ric.lattice, coeffs.data.beta[n])
    c_n = Poly.dot(((coeffs.l_at(n), 1), (coeffs.l_at(n - 1), -1), (m_n, -b_n)))
    return MagnusRiccatiData(n, a_n, b_n, c_n, coeffs.theta_at(n))


def magnus_step(m: MagnusRiccatiData, beta_next, gamma_next,
                lattice: Lattice) -> MagnusRiccatiData:
    """Move the ratio-Riccati data one level up.

    If g_n = f_{n+1}/f_n for any solution family of the three-term
    recurrence satisfies a Riccati equation with data (A_n, B_n, C_n, D_n),
    then g_{n+1} satisfies one with data (A_n - (Delta_y^2/2) D_n/g, D_n/g,
    -C_n - 2 M(x-b) D_n/g, A_n + g B_n + M(x-b) C_n + E1E2(x-b) D_n/g)
    where b = beta_{n+1} and g = gamma_{n+1}.
    """
    if gamma_next == 0:
        raise ValueError("gamma_{n+1} must be nonzero")
    g = Fraction(gamma_next)
    d_over_g = m.D_n / g
    m_lin = _m_of_linear(lattice, beta_next)
    a_next = m.A_n - (lattice.r * 2) * d_over_g
    c_next = -m.C_n - m_lin * d_over_g * 2
    d_next = (m.A_n + m.B_n * g + m_lin * m.C_n
              + (m_lin * m_lin - lattice.r) * d_over_g)
    return MagnusRiccatiData(m.level + 1, a_next, d_over_g, c_next, d_next)


def telescope_residuals(coeffs: StructureCoeffs) -> list[tuple[int, Poly, Poly]]:
    """(n, L_n, T_{n+1} + sum_{k<=n} Theta_{k-1}/gamma_k) for each level.

    Both entries must be identically zero: L_n telescopes to L_0 = 0 and
    T_{n+1} telescopes to -sum Theta_{k-1}/gamma_k.
    """
    data, out, tail = coeffs.data, [], Poly.zero()
    for n in range(0, coeffs.max_level + 1):
        step = coeffs.theta_at(n - 1) / data.gamma[n]
        m_n = _m_of_linear(coeffs.ric.lattice, coeffs.data.beta[n])
        l_tel = Poly.dot(((coeffs.l_at(n), 1), (coeffs.l_at(n - 1), 1), (m_n, step)))
        tail = tail + step
        t_tel = Poly.zero() if n == coeffs.max_level else Poly.dot((
            (coeffs.pi_at(n + 1), 1), (coeffs.pi_at(n), 1), (tail, 1),
            (coeffs.theta_at(n), 1 / (2 * data.gamma[n + 1]))))
        out.append((n, l_tel, t_tel))
    return out


def reconstruct_riccati(coeffs: StructureCoeffs) -> RiccatiData:
    """Read the Riccati data back from structure coefficients ((c) => (a)).

    C and D come from level -1; A from the gathered A_0 (equal to A since
    pi_{-1} = 0 is enforced); B from the Theta_0 closed form rearranged.
    Raises Underdetermined when level 0 is absent, and rejects instances
    whose level-(-1)/0 entries violate the initial-condition closed forms.
    """
    if not coeffs.pi_at(-1).is_zero:
        raise NotLaguerreHahn(-1, "pi_{-1} must be zero")
    lattice = coeffs.ric.lattice
    c = coeffs.l_at(-1) * 2
    d = coeffs.theta_at(-1)
    a = coeffs.A_at(0)
    try:
        l0, theta0, pi0 = coeffs.l_at(0), coeffs.theta_at(0), coeffs.pi_at(0)
    except IndexError as exc:
        raise Underdetermined("level 0 entries unavailable") from exc
    m0 = _m_of_linear(lattice, coeffs.data.beta[0])
    if pi0 * 2 != -d:
        raise NotLaguerreHahn(0, "pi_0 != -D/2")
    if l0 != -(m0 * d) - c * HALF:
        raise NotLaguerreHahn(0, "l_0 does not match its closed form")
    b = theta0 - a + lattice.r * d + (l0 - c * HALF) * m0
    return RiccatiData(a, b, c, d, lattice)


# ---------------------------------------------------------------------------
# certification pipeline
# ---------------------------------------------------------------------------

_CERTIFY_STAGES = [
    "moments", "riccati", "quasi-definite", "liouville", "structure-direct",
    "structure-relations-1", "structure-relations-2",
    "second-kind-1", "second-kind-2", "gathered",
    "recursion-corollary", "recursion-magnus", "telescopes",
    "reconstruction",
]


def certify(ric: RiccatiData, n_max: int, order: int,
            moments: Sequence[Fraction] | None = None, instance: dict | None = None,
            recurrence: tuple[list[Fraction], list[Fraction]] | None = None,
            workspace: Workspace | None = None) -> Certificate:
    """Run the whole equivalence pipeline and aggregate verdicts.

    Four stages compute: `moments`, `riccati`, `quasi-definite` and
    `structure-direct`, in that order, each only if the ones before passed.
    A SnulError one of them raises is recorded as its fail, with the
    exception text (and the failing level of a NotQuasiDefinite), never
    raised past this function; the stages not reached are recorded as
    skips.  The Riccati residual gates everything structural; a moment
    perturbation therefore always surfaces there first.  On moments it
    solves, `riccati` is recorded from the solve and no stage forms an image
    of S (`job_riccati_residual`); on supplied moments the residual reuses
    the images of S in `workspace`, a `Workspace` of their S, when given.
    A supplied `recurrence` (beta, gamma) is
    read as it stands (`job_recurrence`): `moments` must then be the ones
    formed from it, by `moments_from_recurrence`.  The other entries are
    recorded from proofs and form nothing: `liouville` with `quasi-definite`
    (`job_recurrence`), the rest with `structure-direct`
    (`structure_coeffs_direct`, `second_kind_checks`, `corollary_recursion`).
    Each `timings` entry is the duration of its own stage; "total" is the
    whole run.  Raises ValueError, before any stage runs, when n_max < 1.
    """
    if n_max < 1:
        raise ValueError("n_max must be positive")
    from .orthopoly import job_recurrence

    cert = Certificate(instance=instance or {}, options={"n_max": n_max, "trunc": order})
    order, solved = max(order, 2 * n_max + 2), moments is None
    t0 = stage_start = time.perf_counter()

    def record(name: str, verdict: str = "pass", **fields):
        nonlocal stage_start
        cert.checks.append(CheckResult(name, verdict, **fields))
        now = time.perf_counter()
        cert.timings[name] = now - stage_start
        stage_start = now

    stage = "moments"
    try:
        if solved:
            moments = solve_moments_from_riccati(ric, order)
            record(stage, detail=f"solved u_0..u_{order} sequentially")
        else:
            moments = [Fraction(m) for m in moments]
            if len(moments) < 2 * n_max + 2:
                record(stage, "fail", detail=f"need at least {2 * n_max + 2} "
                       f"moments, got {len(moments)}")
            else:
                record(stage, detail=f"supplied u_0..u_{len(moments) - 1}")
        if cert.passed:          # the (a) statement on the honest window
            stage = "riccati"
            res = job_riccati_residual(ric, order, None if solved else moments, workspace)
            window = res.truncation_order
            if res.is_zero_within_window():
                record(stage, window=window, residual_summary=f"zero down to x^-{window}")
            else:
                record(stage, "fail", window=window, residual_summary=f"nonzero at "
                       f"x^{res.leading_exponent()}: {res.leading_coefficient()}")
        if cert.passed:
            stage = "quasi-definite"
            data = job_recurrence(moments, n_max, recurrence)
            record(stage)
            record("liouville")          # gamma_0 = 1 holds: `job_recurrence`
        if cert.passed:          # constructive (a) => (b)
            stage = "structure-direct"
            coeffs = structure_coeffs_direct(ric, data, n_max)
            cert.degrees = coeffs.degrees()
            record(stage, detail=f"levels -1..{coeffs.max_level}")
            # both variants of both relations hold at 1..n_max, and the
            # Magnus, telescope and reconstruction identities for these
            # levels: `structure_coeffs_direct`, `corollary_recursion`
            record("structure-relations-1")
            record("structure-relations-2")
            for result in second_kind_checks(window, n_max):
                record(result.name, window=result.window)
            for name in ("recursion-corollary", "recursion-magnus", "telescopes",
                         "reconstruction"):
                record(name)
    except SnulError as exc:
        failing = f"failing n = {exc.n}: " if isinstance(exc, NotQuasiDefinite) else ""
        record(stage, "fail", detail=f"{failing}{exc}")
    cert.checks.extend(CheckResult(name, "skip") for name in _CERTIFY_STAGES[len(cert.checks):])
    cert.timings["total"] = time.perf_counter() - t0
    return cert
