"""Quadratic non-uniform lattices and the operators E1, E2, D, M.

A lattice is built from the conic a y^2 + 2b xy + c x^2 + 2d y + 2e x + f = 0
(hatted coefficients).  Its two branches are y_{1,2}(x) = p(x) -/+ sqrt(r(x)),
and the operators act by

    (E_j f)(x) = f(y_j(x)),
    (D f)(x)   = (E2 f - E1 f)(x) / (y2 - y1)(x),
    (M f)(x)   = (E1 f + E2 f)(x) / 2.

On polynomials the images of E_j live in K[x][sqrt(r)]; D and M are read off
the two components of a single E2 expansion, which makes the cancellation of
Delta_y = 2 sqrt(r) exact by construction.  On Laurent series the operators
act through the expansion of 1/y_j at infinity.
"""
from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction

from .errors import (
    DegenerateLattice,
    InvalidConic,
    UnsupportedLatticeClass,
)
from .fieldext import QuadField, Rational
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
    """Immutable lattice data: conic coefficients, p, r, invariants, field.

    The only interior state is memoization of series expansions: 1/y_j per
    window, the expansion of sqrt(r), and for each branch j one table of the
    powers w_j^k = (1/y_j)^k, k = 1, 2, ...  The last two are kept at the
    deepest window asked for so far and read at shallower windows.  Every
    entry is exact within its window, so recomputing one gives the same
    value.  Nothing is changed in place: a longer or deeper table is built
    aside and swapped in by a single assignment.  A reader therefore always
    sees a complete table, two threads that grow the same table at once only
    repeat each other's work, and instances are safe to share across
    threads.
    """

    __slots__ = (
        "a_hat", "b_hat", "c_hat", "d_hat", "e_hat", "f_hat",
        "field", "p", "r", "lam", "tau", "q_trace", "lattice_class",
        "_sqrt_r", "_invy_cache", "_invy_powers",
    )

    def __init__(self, a_hat, b_hat, c_hat, d_hat, e_hat, f_hat, field,
                 p, r, lam, tau, q_trace, lattice_class):
        self.a_hat = a_hat
        self.b_hat = b_hat
        self.c_hat = c_hat
        self.d_hat = d_hat
        self.e_hat = e_hat
        self.f_hat = f_hat
        self.field = field
        self.p = p
        self.r = r
        self.lam = lam
        self.tau = tau
        self.q_trace = q_trace
        self.lattice_class = lattice_class
        self._sqrt_r = None
        self._invy_cache = {}
        self._invy_powers = {}

    # -- derived objects ------------------------------------------------------
    def y_surd(self, j: int) -> SurdPoly:
        """y_j = p -/+ sqrt(r) as an element of K[x][sqrt(r)]."""
        sign = -1 if j == 1 else 1
        return SurdPoly(self.p, Poly.constant(self.field, sign), self.r)

    def delta_sq(self) -> Poly:
        """Delta_y^2 = 4 r."""
        return self.r * 4

    def sqrt_r_series(self, order: int) -> LaurentSeries:
        """Expansion of sqrt(r) at infinity down to x^(-order), read from the
        one expansion kept at the deepest window asked for so far."""
        cached = self._sqrt_r
        if cached is None or cached.truncation_order < order:
            cached = self._sqrt_r = sqrt_series(self.r, order)
        return cached if cached.truncation_order == order else cached.restrict(order)

    def inv_y_series(self, j: int, order: int) -> LaurentSeries:
        """Expansion of 1/y_j at infinity (leading exponent -1)."""
        key = (j, order)
        cached = self._invy_cache.get(key)
        if cached is not None:
            return cached
        s = self.sqrt_r_series(order)
        pser = LaurentSeries.from_poly(self.p, order)
        y = pser - s if j == 1 else pser + s
        if y.is_zero or y.leading_exponent() != 1:
            raise DegenerateLattice(
                f"y_{j} has degenerate leading behaviour; 1/y_{j} expansion impossible"
            )
        w = y.inverse()
        self._invy_cache[key] = w
        return w

    def inv_y_powers(self, j: int, depth: int, count: int) -> tuple[LaurentSeries, ...]:
        """(w, w^2, ..., w^count) or more, w = 1/y_j, each exact down to at
        least x^(-depth).

        Each power is formed as w^(k-1) * w from the expansion of w at the
        table's window and kept down to x^(-window): it is exact there, and
        no reader of the table goes deeper.
        """
        table_depth, powers = self._invy_powers.get(j, (-1, ()))
        if table_depth < depth:
            table_depth, powers = depth, (self.inv_y_series(j, depth),)
        elif len(powers) >= count:
            return powers
        w = powers[0]
        grown = list(powers)
        while len(grown) < count:
            grown.append((grown[-1] * w).restrict(table_depth))
        powers = tuple(grown)
        self._invy_powers[j] = (table_depth, powers)
        return powers

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


def build_lattice(a_hat, b_hat, c_hat, d_hat, e_hat, f_hat,
                  discriminant: Rational | None = None) -> Lattice:
    """Construct and validate a q-quadratic lattice from conic coefficients.

    Computes p, r, lambda, tau, q_trace and the class, re-expands the conic
    from (p, r) as an internal consistency check, and fixes the coefficient
    field to Q(sqrt(lambda)) unless an explicit discriminant override is
    given.
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
    field = QuadField.for_radicand(Fraction(discriminant) if discriminant is not None else lam)
    # p = -(b x + d)/a ; r expanded from the closed form around its vertex.
    p = Poly(field, [-d / a, -b / a])
    shift = (b * d - a * e) / lam
    r2 = lam / (a * a)
    r = Poly(field, [r2 * shift * shift + tau / (a * lam), 2 * r2 * shift, r2])
    q_trace = Fraction(4) * b * b / (a * c) - 2 if c != 0 else None
    # Consistency: a(y - y1)(y - y2) must reproduce the conic restricted to y,
    # i.e. -2p = 2(b x + d)/a ... and p^2 - r = (c x^2 + 2 e x + f)/a.
    sum_check = p * 2 + Poly(field, [2 * d / a, 2 * b / a])
    prod_check = p * p - r - Poly(field, [f / a, 2 * e / a, c / a])
    if not sum_check.is_zero or not prod_check.is_zero:
        raise InvalidConic("internal consistency check failed for (p, r)")
    return Lattice(a, b, c, d, e, f, field, p, r, lam, tau, q_trace, cls)


def classify_lattice(lattice: Lattice) -> LatticeClass:
    return classify_invariants(lattice.lam, lattice.tau)


# -- operators on polynomials ---------------------------------------------------

def apply_shift(lattice: Lattice, f: Poly, j: int) -> SurdPoly:
    """(E_j f)(x) = f(y_j(x)) by Horner substitution in K[x][sqrt(r)]."""
    if j not in (1, 2):
        raise ValueError("shift index must be 1 or 2")
    if f.field != lattice.field:
        raise ValueError("polynomial is over a different field than the lattice")
    return f(lattice.y_surd(j))


def apply_D(lattice: Lattice, f: Poly) -> Poly:
    """Divided difference: degree n -> n - 1.  Equals the sqrt(r)-component
    of E2 f, since E2 f - E1 f = 2 v sqrt(r) and Delta_y = 2 sqrt(r)."""
    return apply_shift(lattice, f, 2).v


def apply_M(lattice: Lattice, f: Poly) -> Poly:
    """Averaging companion: degree n -> n.  The polynomial component of E2 f."""
    return apply_shift(lattice, f, 2).u


# -- operators on Laurent series ----------------------------------------------

def apply_E_series(lattice: Lattice, s: LaurentSeries, j: int,
                   order: int | None = None) -> LaurentSeries:
    """Compose a Laurent series with y_j, honestly windowed.

    Negative powers of x become a linear combination of the rows of the
    lattice's table of powers of 1/y_j; nonnegative powers go through the
    surd powers of y_j.  The result window never exceeds
    the window of s (an unknown tail coefficient of s perturbs the
    composition at its own exponent and below).
    """
    if j not in (1, 2):
        raise ValueError("shift index must be 1 or 2")
    if s.field != lattice.field:
        raise ValueError("series over a different field than the lattice")
    n_s = s.truncation_order
    depth = max(order if order is not None else n_s, n_s) + 2
    field = lattice.field
    acc = LaurentSeries.zero(field, depth)
    top = s._effective_top()
    if top >= 0:
        # polynomial part: sum c_e * y_j^e embedded as a series
        poly_part = Poly(field, [s._padded(e) for e in range(0, top + 1)])
        if not poly_part.is_zero:
            image = apply_shift(lattice, poly_part, j)
            ser = LaurentSeries.from_poly(image.u, depth)
            if not image.v.is_zero:
                ser = ser + lattice.sqrt_r_series(depth).mul_poly(image.v)
            acc = acc + ser
    if s.coefficients:
        bottom = max(-n_s, s.lowest_power - len(s.coefficients) + 1)
    else:
        bottom = 0
    if bottom <= -1:
        # sum of c_k w^k down to x^(-depth)
        powers = lattice.inv_y_powers(j, depth, -bottom)
        out = [field.zero] * depth          # exponents -1 .. -depth
        for k in range(1, -bottom + 1):
            c = s._padded(-k)
            if c.is_zero:
                continue
            wk = powers[k - 1]
            start = -wk.lowest_power - 1
            for i, a in enumerate(wk.coefficients[: depth - start]):
                out[start + i] = out[start + i] + a * c
        acc = acc + LaurentSeries(field, -1, out, depth)
    return acc.restrict(min(acc.truncation_order, n_s))


def _operator_series(lattice: Lattice, s: LaurentSeries, order: int | None = None):
    """(E1 s, E2 s, D s, M s); the one place where D and M are formed from
    the two compositions."""
    e1 = apply_E_series(lattice, s, 1, order)
    e2 = apply_E_series(lattice, s, 2, order)
    diff = e2 - e1
    delta = lattice.sqrt_r_series(diff.truncation_order + 4) * 2
    return e1, e2, diff * delta.inverse(), (e1 + e2) * Fraction(1, 2)


def apply_D_series(lattice: Lattice, s: LaurentSeries,
                   order: int | None = None) -> LaurentSeries:
    """(E2 s - E1 s) / (2 sqrt(r)) with window-aware series division."""
    return _operator_series(lattice, s, order)[2]


def apply_M_series(lattice: Lattice, s: LaurentSeries,
                   order: int | None = None) -> LaurentSeries:
    """(E1 s + E2 s) / 2."""
    return _operator_series(lattice, s, order)[3]


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
