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
`laguerre_hahn`, the tests and tracing.  On
Laurent series D and M act through one table: with N = y1 y2 = p^2 - r,
both take x^(-k) to rational functions over Q, whose expansions the lattice
keeps row by row (`Lattice.dm_table`) as integer numerators over powers of
the leading coefficient of N, scaled to an integer polynomial.  D s and M s
are integer linear combinations of those rows with the numerators of s, each
reduced by one gcd.  E_j s = M s -/+ sqrt(r) D s is the only image that needs
sqrt(r) as a series; the relations of the characterization are checked on
D s and M s alone, so E_j s (with the sqrt(r) and 1/y_j expansions) serves
as an independent oracle, on lattices where the leading coefficient of r
is the square of a rational (elsewhere these three raise ValueError).
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
    """Immutable lattice data: conic coefficients, p, r and invariants.

    The only interior state is one table whose row k holds the expansions
    of D x^(-k) and M x^(-k), k = 0, 1, 2, ..., as integer numerators,
    entry i of row k over n2^(k+i) with n2 the leading coefficient of c N,
    c the least common denominator of p, r and N = p^2 - r.  It is kept at
    the deepest window asked for so far and read at shallower windows.  A
    longer or deeper table is built aside and swapped in by one assignment,
    so instances are safe to share across threads.
    """

    __slots__ = (
        "a_hat", "b_hat", "c_hat", "d_hat", "e_hat", "f_hat",
        "p", "r", "lam", "tau", "q_trace", "lattice_class",
        "_dm_ints", "_dm_table",
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
        self._dm_ints = None
        self._dm_table = (-1, ())

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
        ints = self._dm_ints
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
            ints = self._dm_ints = (c,) + tuple(v.numerator * (c // v.denominator)
                                                for v in values)
        return ints

    def dm_table(self, depth: int, count: int) -> tuple:
        """(n2, rows): rows k = 0..count (or more) of the table of D x^(-k)
        and M x^(-k), and the int n2 their entries are over.

        Row k is a pair of tuples (d, m) of ints, with d[i] / n2^(k+i) and
        m[i] / n2^(k+i) the coefficients of x^(-i) in D x^(-k) and M x^(-k),
        i = 0..table depth, where the table depth is at least `depth`.  With
        N = y1 y2 = p^2 - r,

            D x^(-k-1) = (p D x^(-k) - M x^(-k)) / N,
            M x^(-k-1) = (p M x^(-k) - r D x^(-k)) / N,

        from D 1 = 0, M 1 = 1.  Scaled by c, N becomes the integer
        polynomial n0 + n1 x + n2 x^2, and row k + 1 is f / (n0 + n1 x +
        n2 x^2) for f = c p D x^(-k) - c M x^(-k) or c p M x^(-k) -
        c r D x^(-k).  Dividing by the quadratic is a three-term recurrence
        on the numerators G_j = n2^(k+1+j) g_j of the quotient g,

            G_j = n2^(k+j) f_(j-2) - n1 G_(j-1) - n0 n2 G_(j-2),

        where n2^(k+j) f_(j-2) is an integer combination of the numerators
        of row k.  No Fraction and no gcd is formed, each row costs O(depth)
        integer operations, and a row that is exact down to x^(-depth) gives
        the next one exact there.
        """
        table_depth, rows = self._dm_table
        if table_depth < depth:
            table_depth = max(depth, 2)     # M x^-1 = p/N reaches x^-2
            rows = (((0,) * (table_depth + 1), (1,) + (0,) * table_depth),)
        elif len(rows) > count:
            return self._dm_ints[-1], rows
        c, p0, p1, r0, r1, r2, n0, n1, n2 = self._scaled_coefficients()
        n02 = n0 * n2
        zeros = [0] * (table_depth + 1)
        grown = list(rows)
        while len(grown) <= count:
            # D x^(-k-1) leads at x^(-k-2) at the highest, M x^(-k-1) at
            # x^(-k-1); only p M 1 = p reaches x^1, where M x^-1 = p/N starts
            # with p1/n2 at x^-1.  Entry i of the numerators f of row k + 1
            # is over n2^(k+i+1) for D and n2^(k+i+2) for M.
            k = len(grown) - 1
            d, m = grown[-1]
            gd = zeros[:]
            for j in range(k + 2, table_depth + 1):
                i = j - 2
                f = n2 * (p0 * d[i] - c * m[i]) + p1 * d[i + 1]
                gd[j] = n2 * f - n1 * gd[j - 1] - n02 * gd[j - 2]
            gm = zeros[:]
            if k == 0:
                gm[1] = n2 * p1
            for j in range(max(k + 1, 2), table_depth + 1):
                i = j - 2
                f = (n2 * (n2 * (p0 * m[i] - r0 * d[i]) + p1 * m[i + 1] - r1 * d[i + 1])
                     - r2 * d[i + 2])
                gm[j] = f - n1 * gm[j - 1] - n02 * gm[j - 2]
            grown.append((tuple(gd), tuple(gm)))
        rows = tuple(grown)
        self._dm_table = (table_depth, rows)
        return n2, rows

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

def _add_row(acc_d: list, acc_m: list, w: int, row, k: int) -> None:
    """acc_d += w d and acc_m += w m, in place, for row k = (d, m) of
    `Lattice.dm_table` and integer lists indexed by the power of 1/x.

    D x^(-k) has no term above x^(-k-1) and M x^(-k) none above x^(-k);
    each list is updated as deep as it goes (the row must reach that deep).
    """
    d, m = row
    for i in range(k + 1, len(acc_d)):
        acc_d[i] += w * d[i]
    for i in range(k, len(acc_m)):
        acc_m[i] += w * m[i]


def _row_combination(rows, n2: int, low: int, nums: tuple[int, ...], n: int):
    """Integer numerators of sum_k w_k D x^(-k) (x^0 .. x^-(n+1)) and of
    sum_k w_k M x^(-k) (x^0 .. x^-n) for k = low .. K, where w_k is
    nums[k - low] over a common denominator den; entry i of each is over
    den n2^(K+i)."""
    high = low + len(nums) - 1
    acc_d, acc_m = [0] * (n + 2), [0] * (n + 1)
    for k, num in enumerate(nums, low):
        if num:
            _add_row(acc_d, acc_m, num * n2 ** (high - k), rows[k], k)
    return acc_d, acc_m


def _operator_series(lattice: Lattice, s: LaurentSeries):
    """(D s, M s), the one place where D and M of a series are formed.

    With n the window of s, D s is known down to x^(-(n+1)) and M s down to
    x^(-n): an unknown coefficient of s at x^(-n-1) changes D s from
    x^(-n-2) and M s from x^(-n-1) on.  The images of the negative powers
    x^(-k), k = 1..K, of s are rows of the lattice's D/M table: their
    coefficients are read as the integer numerators of s over its
    denominator den, each image coefficient x^(-i) is one integer
    combination of row entries over den n2^(K+i), and each image is reduced
    by one gcd.  Nonnegative powers go through the polynomial images.
    """
    n = s.truncation_order
    ds = LaurentSeries.zero(n + 1)
    ms = LaurentSeries.zero(n)
    top, nums, den = s.lowest_power, s.nums, s.den
    bottom = top - len(nums) + 1 if nums else 0
    if bottom <= -1:
        low, high = max(1, -top), -bottom
        n2, rows = lattice.dm_table(n + 1, high)

        def assemble(part, window):
            # entry i is over den n2^(high+i): bring all over the last one
            scale = 1
            for i in range(len(part) - 1, -1, -1):
                part[i] *= scale
                scale *= n2
            total = den * n2 ** (high - 1) * scale
            if total < 0:
                part, total = [-a for a in part], -total
            return LaurentSeries._from_ints(0, part, total, window)

        acc_d, acc_m = _row_combination(rows, n2, low, nums[top + low:], n)
        ds = assemble(acc_d, n + 1)
        ms = assemble(acc_m, n)
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

    Both branches go through the D/M table, which needs N = y1 y2 to keep its
    x^2 term: when one branch has no x term (c = 0 in the conic), E_1 and
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
