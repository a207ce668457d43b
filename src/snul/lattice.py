"""Quadratic non-uniform lattices and the operators E1, E2, D, M.

A lattice is built from the conic a y^2 + 2b xy + c x^2 + 2d y + 2e x + f = 0
(hatted coefficients).  Its two branches are y_{1,2}(x) = p(x) -/+ sqrt(r(x)),
and the operators act by

    (E_j f)(x) = f(y_j(x)),
    (D f)(x)   = (E2 f - E1 f)(x) / (y2 - y1)(x),
    (M f)(x)   = (E1 f + E2 f)(x) / 2.

Coefficients are rational (K = Q), and sqrt(r) is never a number.  On
polynomials the images of E_j live in K[x][sqrt(r)]; `apply_shift`, `apply_D`
and `apply_M` read D and M off the two components of a single E2 expansion,
which makes the cancellation of Delta_y = 2 sqrt(r) exact by construction.
No job calls them: a job forms images of its S alone, which has no
nonnegative powers, so they serve the structure-relation oracle of
`laguerre_hahn`, the tests and tracing.  On Laurent series D and M act
through one kernel: S = u_t[1/(x - t)] for the moments u_j, and

    D S = -u_t[1/Q],    M S = u_t[(p - t)/Q],    Q = (y1 - t)(y2 - t),

with Q = t^2 - 2 p t + N and N = y1 y2 = p^2 - r.  The expansion of 1/Q in
1/x has polynomial coefficients in t, the columns of `_kernel_columns`,
formed by one three-term integer recurrence; each coefficient of D S and
M S is one dot product of a column with the numerators of the moments.
E_j s = M s -/+ sqrt(r) D s is the only image that needs
sqrt(r) as a series; the relations of the characterization are checked on
D s and M s alone, so E_j s (with the sqrt(r) and 1/y_j expansions) serves
as an independent oracle, on lattices where the leading coefficient of r
is the square of a rational (elsewhere these three raise ValueError).
"""
from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from operator import mul

from .errors import (
    DegenerateLattice,
    InvalidConic,
    UnsupportedLatticeClass,
)
from .poly import Poly
from .series import LaurentSeries, sqrt_series
from .surd import SurdPoly


class LatticeClass(Enum):
    LINEAR = "linear"
    Q_LINEAR = "q-linear"
    QUADRATIC = "quadratic"
    Q_QUADRATIC = "q-quadratic"

    @property
    def label(self) -> str:
        return self.value


def classify_invariants(lam: Fraction, tau: Fraction) -> LatticeClass:
    """The four primary classes, from the zero pattern of (lambda, tau)."""
    if lam == 0 and tau == 0:
        return LatticeClass.LINEAR
    if lam != 0 and tau == 0:
        return LatticeClass.Q_LINEAR
    if lam == 0:
        return LatticeClass.QUADRATIC
    return LatticeClass.Q_QUADRATIC


class Lattice:
    """Immutable lattice data: conic coefficients, p, r and invariants, and
    the integer form of p and N = y1 y2 that the kernel of D and M on series
    is built from (`_scaled_coefficients`), formed on first use."""

    __slots__ = (
        "a_hat", "b_hat", "c_hat", "d_hat", "e_hat", "f_hat",
        "p", "r", "lam", "tau", "q_trace", "lattice_class", "_ints",
    )

    def __init__(self, a_hat, b_hat, c_hat, d_hat, e_hat, f_hat,
                 p, r, lam, tau, q_trace, lattice_class):
        self.a_hat = a_hat
        self.b_hat = b_hat
        self.c_hat = c_hat
        self.d_hat = d_hat
        self.e_hat = e_hat
        self.f_hat = f_hat
        self.p = p
        self.r = r
        self.lam = lam
        self.tau = tau
        self.q_trace = q_trace
        self.lattice_class = lattice_class
        self._ints = None

    # -- derived objects ------------------------------------------------------
    def y_surd(self, j: int) -> SurdPoly:
        """y_j = p -/+ sqrt(r) as an element of K[x][sqrt(r)]."""
        sign = -1 if j == 1 else 1
        return SurdPoly(self.p, Poly.constant(sign), self.r)

    def sqrt_r_series(self, order: int) -> LaurentSeries:
        """Expansion of sqrt(r) at infinity down to x^(-order).  Raises
        ValueError unless lc(r) is the square of a rational."""
        return sqrt_series(self.r, order)

    def inv_y_series(self, j: int, order: int) -> LaurentSeries:
        """Expansion of 1/y_j at infinity (leading exponent -1), over Q when
        lc(r) is the square of a rational (ValueError otherwise)."""
        s = self.sqrt_r_series(order)
        pser = LaurentSeries.from_poly(self.p, order)
        y = pser - s if j == 1 else pser + s
        if y.is_zero or y.leading_exponent() != 1:
            raise DegenerateLattice(
                f"y_{j} has degenerate leading behaviour; 1/y_{j} expansion impossible"
            )
        return y.inverse()

    def _scaled_coefficients(self) -> tuple:
        """(c, c p0, c p1, c r0, c r1, c r2, c n0, c n1, c n2) as ints, with
        N = y1 y2 = (f_hat + 2 e_hat x + c_hat x^2)/a_hat = n0 + n1 x + n2 x^2
        and c the least common denominator of p, r and N.  Raises
        DegenerateLattice when n2 = 0."""
        ints = self._ints
        if ints is None:
            p0, p1 = (self.p.coefficient(i) for i in (0, 1))
            r0, r1, r2 = (self.r.coefficient(i) for i in (0, 1, 2))
            n0, n1, n2 = (v / self.a_hat for v in (self.f_hat, 2 * self.e_hat, self.c_hat))
            if n2 == 0:
                # y1 y2 has lost its x^2 term, so r2 = p1^2 and one branch,
                # p -/+ sqrt(r), has no x term: y_1 when p1 = +sqrt(r2) > 0
                j = 1 if p1 > 0 else 2
                raise DegenerateLattice(
                    f"y_{j} has degenerate leading behaviour; 1/y_{j} expansion impossible"
                )
            values = (p0, p1, r0, r1, r2, n0, n1, n2)
            c = math.lcm(*(v.denominator for v in values))
            ints = self._ints = (c,) + tuple(v.numerator * (c // v.denominator)
                                                for v in values)
        return ints

    def conic_value(self, x: float, y: float) -> float:
        """Float evaluation of the conic (diagnostics only)."""
        return (
            float(self.a_hat) * y * y
            + 2 * float(self.b_hat) * x * y
            + float(self.c_hat) * x * x
            + 2 * float(self.d_hat) * y
            + 2 * float(self.e_hat) * x
            + float(self.f_hat)
        )

    def __repr__(self):
        return (
            f"Lattice({self.a_hat}, {self.b_hat}, {self.c_hat}, "
            f"{self.d_hat}, {self.e_hat}, {self.f_hat}; {self.lattice_class.label})"
        )


def build_lattice(a_hat, b_hat, c_hat, d_hat, e_hat, f_hat) -> Lattice:
    """Construct and validate a q-quadratic lattice from conic coefficients.

    Computes lambda, tau, q_trace, the class and the branches p -/+ sqrt(r) of
    the conic in y: y1 + y2 = 2p = -2(b x + d)/a, y1 y2 = p^2 - r = (c x^2 + 2 e x + f)/a.
    """
    a = Fraction(a_hat)
    b = Fraction(b_hat)
    c = Fraction(c_hat)
    d = Fraction(d_hat)
    e = Fraction(e_hat)
    f = Fraction(f_hat)
    if a == 0:
        raise InvalidConic("a_hat must be nonzero")
    lam = b * b - a * c
    tau = (lam * (d * d - a * f) - (b * d - a * e) ** 2) / a
    cls = classify_invariants(lam, tau)
    if cls is not LatticeClass.Q_QUADRATIC:
        raise UnsupportedLatticeClass(
            f"lattice class {cls.label} (lambda = {lam}, tau = {tau}) is outside "
            "the supported general case lambda * tau != 0"
        )
    p = Poly([-d / a, -b / a])
    r = Poly.dot([(p, p), (Poly([f, 2 * e, c]), -1 / a)])
    q_trace = Fraction(4) * b * b / (a * c) - 2 if c != 0 else None
    return Lattice(a, b, c, d, e, f, p, r, lam, tau, q_trace, cls)


def classify_lattice(lattice: Lattice) -> LatticeClass:
    return classify_invariants(lattice.lam, lattice.tau)


# -- operators on polynomials ---------------------------------------------------

def apply_shift(lattice: Lattice, f: Poly, j: int) -> SurdPoly:
    """(E_j f)(x) = f(y_j(x)) by Horner substitution in K[x][sqrt(r)]."""
    if j not in (1, 2):
        raise ValueError("shift index must be 1 or 2")
    return f(lattice.y_surd(j))


def apply_D(lattice: Lattice, f: Poly) -> Poly:
    """Divided difference: degree n -> n - 1.  Equals the sqrt(r)-component
    of E2 f, since E2 f - E1 f = 2 v sqrt(r) and Delta_y = 2 sqrt(r)."""
    return apply_shift(lattice, f, 2).v


def apply_M(lattice: Lattice, f: Poly) -> Poly:
    """Averaging companion: degree n -> n.  The polynomial component of E2 f."""
    return apply_shift(lattice, f, 2).u


# -- operators on Laurent series ----------------------------------------------

def _kernel_columns(lattice: Lattice, n: int) -> tuple:
    """(c', g, q2, cols, mcols): the expansion of the kernel 1/Q, Q = (y1 -
    t)(y2 - t), to x^-(n+1), as integer columns.

    With (c, P0, P1, .., N0, N1, N2) of `_scaled_coefficients` and g the
    content of c Q = c t^2 - 2 (P0 + P1 x) t + N0 + N1 x + N2 x^2,

        c Q / g = q2 x^2 + (q1 - e1 t) x + q0 - e0 t + c' t^2,

    and 1/Q = c' sum_(i >= 2) C_i(t) x^(-i) / q2^(i-1), from C_1 = 0,
    C_2 = 1 and

        C_i = -(q1 - e1 t) C_(i-1) - q2 (q0 - e0 t + c' t^2) C_(i-2).

    cols[i] lists the coefficients of C_i (degree i - 2), i <= n + 1, and
    mcols[i] those of P0 q2 C_i + P1 C_(i+1) - c q2 t C_i (degree i - 1),
    i <= n.  On S = u_t[1/(x - t)] they give

        [x^-i] D S = -c' q2^(1-i) sum_j cols[i][j] u_j,
        [x^-i] M S = q2^(-i) / g sum_j mcols[i][j] u_j,

    so D S at x^-i reads u_0..u_(i-2) and M S at x^-i reads u_0..u_(i-1).
    Raises DegenerateLattice when N has no x^2 term.
    """
    c, p0, p1, _, _, _, n0, n1, n2 = lattice._scaled_coefficients()
    g = math.gcd(c, 2 * p0, 2 * p1, n0, n1, n2)
    q0, q1, q2, e0, e1, cg = n0 // g, n1 // g, n2 // g, 2 * p0 // g, 2 * p1 // g, c // g
    a0, a1, a2 = q2 * q0, q2 * e0, q2 * cg
    cols = [[], [], [1]]
    for _ in range(3, n + 2):
        # coefficient j of C_i from those of C_(i-1) at j, j - 1 and of
        # C_(i-2) at j, j - 1, j - 2, zero outside their degrees
        c1, c2 = cols[-1], cols[-2]
        cols.append([e1 * b - q1 * a - a0 * x + a1 * y - a2 * z for a, b, x, y, z in
                     zip(c1 + [0], [0] + c1, c2 + [0, 0], [0] + c2 + [0], [0, 0] + c2)])
    p0q2, cq2 = p0 * q2, c * q2
    mcols = [[]] + [[p0q2 * x + p1 * y - cq2 * z for x, y, z in
                     zip(cols[i] + [0], cols[i + 1], [0] + cols[i])] for i in range(1, n + 1)]
    return cg, g, q2, cols, mcols


def _operator_series(lattice: Lattice, s: LaurentSeries):
    """(D s, M s), the one place where D and M of a series are formed.

    With n the window of s, D s is known down to x^(-(n+1)) and M s down to
    x^(-n): an unknown coefficient of s at x^(-n-1) changes D s from
    x^(-n-2) and M s from x^(-n-1) on.  The negative powers of s are the
    moment series u_t[1/(x - t)], u_j the coefficient of x^(-j-1), read as
    the integer numerators of s over its denominator den: each image
    coefficient x^(-i) is one dot product of a column of `_kernel_columns`
    with them, over den q2^(i-1) for D s and g den q2^i for M s, and each
    image is reduced by one gcd.  Nonnegative powers go through the
    polynomial images.
    """
    n = s.truncation_order
    ds = LaurentSeries.zero(n + 1)
    ms = LaurentSeries.zero(n)
    top, nums, den = s.lowest_power, s.nums, s.den
    bottom = top - len(nums) + 1 if nums else 0
    if bottom <= -1:
        cg, g, q2, cols, mcols = _kernel_columns(lattice, n)
        u = nums[top + 1:] if top >= -1 else (0,) * (-1 - top) + nums

        def assemble(part, total, window):
            # entry i is over total q2^(i-1): bring all over the last one
            scale = 1
            for i in range(window, 0, -1):
                part[i] *= scale
                scale *= q2
            total *= q2 ** (window - 1)
            if total < 0:
                part, total = [-a for a in part], -total
            return LaurentSeries._from_ints(0, part, total, window)

        ds = assemble([0, 0] + [-cg * sum(map(mul, cols[i], u)) for i in range(2, n + 2)],
                      den, n + 1)
        ms = assemble([0] + [sum(map(mul, mcols[i], u)) for i in range(1, n + 1)],
                      g * den * q2, n)
    if top >= 0:
        image = apply_shift(lattice, Poly._from_ints(s._aligned(top, top + 1)[::-1], den), 2)
        ds = ds + LaurentSeries.from_poly(image.v, n + 1)
        ms = ms + LaurentSeries.from_poly(image.u, n)
    return ds, ms


def apply_E_series(lattice: Lattice, s: LaurentSeries, j: int) -> LaurentSeries:
    """Compose a Laurent series with y_j: E_j s = M s -/+ sqrt(r) D s.

    The one place where E_j of a series is formed.  With n the window of s,
    the result is known down to x^(-n), like M s; sqrt(r) D s is too, since
    D s reaches one step deeper and sqrt(r) has leading exponent 1.  Raises ValueError when D s
    is nonzero and lc(r) is not the square of a rational.

    Both branches go through the kernel of `_operator_series`, which needs
    N = y1 y2 to keep its x^2 term: when one branch has no x term (c = 0 in the conic), E_1 and
    E_2 of a series with negative powers both raise DegenerateLattice.
    """
    if j not in (1, 2):
        raise ValueError("shift index must be 1 or 2")
    ds, ms = _operator_series(lattice, s)
    n = ms.truncation_order
    if ds.is_zero_within_window():
        return ms
    # root * ds is known down to x^(-n) once root reaches x^(-(n + L)),
    # L the leading exponent of D s
    root = lattice.sqrt_r_series(max(n + ds.leading_exponent(), 1))
    prod = (root * ds).restrict(n)
    return ms - prod if j == 1 else ms + prod


def apply_D_series(lattice: Lattice, s: LaurentSeries) -> LaurentSeries:
    """(E2 s - E1 s) / (y2 - y1), known one step deeper than s."""
    return _operator_series(lattice, s)[0]


def apply_M_series(lattice: Lattice, s: LaurentSeries) -> LaurentSeries:
    """(E1 s + E2 s) / 2, known as deep as s."""
    return _operator_series(lattice, s)[1]


def e1e2_series(lattice: Lattice, s: LaurentSeries, ds: LaurentSeries,
                ms: LaurentSeries) -> LaurentSeries:
    """E1 s E2 s = (M s)^2 - r (D s)^2, over Q when s is, from the images
    (D s, M s) of `_operator_series`.

    Claimed as deep as the product of the two compositions would be: each
    E_j s is known down to x^(-n) and leads with the exponent L of s, so the
    product is known down to x^(-(n - L)).
    """
    n = ms.truncation_order
    prod = ms * ms - (ds * ds).mul_poly(lattice.r)
    return prod.restrict(n - s._effective_top())


# -- floating-point lattice point diagnostics ----------------------------------

def lattice_points(lattice: Lattice, count: int) -> list[float] | None:
    """x(s) = c1 q^s + c2 q^(-s) + c3 for s = 0..count, floats only.

    Available only for real q and symmetric conics (a = c, d = e), the case
    where this parametrization closes; returns None otherwise.  Never used in
    exact computations.
    """
    if lattice.q_trace is None or abs(lattice.q_trace) < 2:
        return None
    if lattice.a_hat != lattice.c_hat or lattice.d_hat != lattice.e_hat:
        return None
    t = float(lattice.q_trace)
    q = (t + math.sqrt(t * t - 4)) / 2
    rho = -2 * float(lattice.b_hat) / float(lattice.a_hat)  # q^(1/2) + q^(-1/2)
    if abs(rho * rho - (t + 2)) > 1e-9 * max(1.0, abs(t)):
        return None
    denom = rho - 2
    if abs(denom) < 1e-12:
        return None
    c3 = 2 * float(lattice.d_hat) / float(lattice.a_hat) / denom
    c1c2 = (
        2 * float(lattice.e_hat) / float(lattice.a_hat) * c3
        + float(lattice.f_hat) / float(lattice.a_hat)
    ) / (t - 2)
    if c1c2 >= 0:
        c1 = c2 = math.sqrt(c1c2)
    else:
        c1 = math.sqrt(-c1c2)
        c2 = -c1
    sq = math.sqrt(q) if rho > 0 else -math.sqrt(q)

    def x_at(sval: float) -> float:
        return c1 * sq ** (2 * sval) + c2 * sq ** (-2 * sval) + c3

    points = [x_at(s) for s in range(count + 1)]
    scale = max(1.0, max(abs(v) for v in points))
    worst = max(
        abs(lattice.conic_value(x_at(s), x_at(s + 0.5))) for s in range(count + 1)
    )
    if worst > 1e-6 * scale * scale:
        return None
    return points
