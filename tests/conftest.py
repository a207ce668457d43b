from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from snul import LaurentSeries, Poly, RiccatiData, apply_shift, build_lattice

# Reference q-quadratic lattice: p = (5/4)x, r = (9/16)x^2 - 1, lambda = 9/16.
REFERENCE_CONIC = (1, F(-5, 4), 1, 0, 0, 1)

# Further q-quadratic lattices with rational sqrt(lambda).
RATIONAL_CONICS = [
    REFERENCE_CONIC,
    (1, F(-13, 6), 4, 1, 1, 1),        # lambda = 25/36
    (1, F(-5, 2), 4, 0, 0, 1),         # lambda = 9/4
    (3, F(-15, 4), 3, F(3, 4), F(3, 2), -3),  # lambda = 81/16
]

# lambda = 5: sqrt(lambda), and the leading coefficient of sqrt(r), irrational.
SURD_CONIC = (2, -3, 2, 1, 0, -1)

# lambda = -1 (Chebyshev-flavoured): sqrt(r) has no real expansion.
IMAGINARY_CONIC = (2, -1, 1, 0, 0, 2)

# c/a = -2/3 < 0: the scaled leading coefficient q2 of N = y1 y2 is negative,
# so the denominators q2^i of the images of a series alternate in sign.
NEGATIVE_N2_CONIC = (3, 1, -2, F(1, 2), F(2, 3), -1)


@pytest.fixture(scope="session")
def reference_lattice():
    return build_lattice(*REFERENCE_CONIC)


@pytest.fixture(scope="session")
def rational_lattices():
    return [build_lattice(*conic) for conic in RATIONAL_CONICS]


@pytest.fixture(scope="session")
def surd_lattice():
    return build_lattice(*SURD_CONIC)


def random_fraction(rng: random.Random, span: int = 4) -> F:
    return F(rng.randint(-span, span), rng.randint(1, span))


def random_poly(rng: random.Random, max_degree: int = 8,
                min_degree: int = 0) -> Poly:
    deg = rng.randint(min_degree, max_degree)
    coeffs = [random_fraction(rng) for _ in range(deg)]
    lead = F(0)
    while lead == 0:
        lead = random_fraction(rng)
    return Poly(coeffs + [lead])


def random_rational_lattice(rng: random.Random):
    """A random q-quadratic lattice whose sqrt(lambda) is rational."""
    while True:
        s = F(rng.randint(1, 5), rng.randint(1, 4))     # sqrt(lambda)
        a = F(rng.randint(1, 3))
        b = random_fraction(rng, 5)
        lam = s * s
        if b * b == lam:
            continue
        c = (b * b - lam) / a
        d, e, f = (random_fraction(rng, 3) for _ in range(3))
        tau = (lam * (d * d - a * f) - (b * d - a * e) ** 2) / a
        if tau == 0 or c == 0:
            continue
        return build_lattice(a, b, c, d, e, f)


def vertex_form_lattice(a_hat, b_hat, c_hat, d_hat, e_hat, f_hat):
    """(p, r, lambda, tau, q_trace) of a conic with lambda * tau != 0, r
    written around its vertex: r = (lambda/a^2)(x + (b d - a e)/lambda)^2
    + tau/(a lambda).  The oracle for `build_lattice`, which forms r as
    p^2 - (c x^2 + 2 e x + f)/a."""
    a, b, c, d, e, f = map(F, (a_hat, b_hat, c_hat, d_hat, e_hat, f_hat))
    lam = b * b - a * c
    tau = (lam * (d * d - a * f) - (b * d - a * e) ** 2) / a
    shift = (b * d - a * e) / lam
    r2 = lam / (a * a)
    p = Poly([-d / a, -b / a])
    r = Poly([r2 * shift * shift + tau / (a * lam), 2 * r2 * shift, r2])
    q_trace = 4 * b * b / (a * c) - 2 if c != 0 else None
    return p, r, lam, tau, q_trace


def random_quasi_definite_recurrence(rng: random.Random, n_top: int):
    """(beta, gamma) with gamma_0 = 1 and nonzero gamma_n, small rationals."""
    beta = [random_fraction(rng, 3) for _ in range(n_top + 1)]
    gamma = [F(1)]
    for _ in range(n_top):
        g = F(0)
        while g == 0:
            g = random_fraction(rng, 3)
        gamma.append(g)
    return beta, gamma


# -- the rational pair oracle for images under E_j ------------------------------

class RootPair:
    """u + sqrt(r) v for Laurent series u, v over Q, with sqrt(r) kept
    symbolic as in SurdPoly:

        (u1 + sqrt(r) v1)(u2 + sqrt(r) v2) = (u1 u2 + r v1 v2) + sqrt(r) (u1 v2 + v1 u2).

    Images under E_j are pairs on every lattice, whether or not sqrt(r) has
    an expansion over Q.  sqrt(r) leads with x^1, so v is read one step
    deeper than u."""

    def __init__(self, u: LaurentSeries, v: LaurentSeries, r: Poly):
        self.u, self.v, self.r = u, v, r

    @classmethod
    def rational(cls, u: LaurentSeries, r: Poly) -> "RootPair":
        return cls(u, LaurentSeries.zero(u.truncation_order + 1), r)

    def __add__(self, other):
        return RootPair(self.u + other.u, self.v + other.v, self.r)

    def __sub__(self, other):
        return RootPair(self.u - other.u, self.v - other.v, self.r)

    def __mul__(self, other):
        if isinstance(other, RootPair):
            return RootPair(self.u * other.u + (self.v * other.v).mul_poly(self.r),
                            self.u * other.v + self.v * other.u, self.r)
        return RootPair(self.u * other, self.v * other, self.r)     # a number or a Poly

    def conjugate(self) -> "RootPair":
        return RootPair(self.u, -self.v, self.r)

    @property
    def window(self) -> int:
        """The window of u + sqrt(r) v."""
        return min(self.u.truncation_order, self.v.truncation_order - 1)

    def restrict(self, order: int) -> "RootPair":
        return RootPair(self.u.restrict(order), self.v.restrict(order + 1), self.r)


def inv_y1_pair(lattice, order: int) -> RootPair:
    """1/y_1 = 1/(p - sqrt(r)) = (p + sqrt(r)) / N, N = y1 y2 = p^2 - r,
    from the expansion of 1/N."""
    inv_n = LaurentSeries.from_poly(lattice.p * lattice.p - lattice.r, order).inverse()
    return RootPair(inv_n.mul_poly(lattice.p), inv_n, lattice.r)


def pair_dm_series(lattice, s: LaurentSeries) -> tuple[LaurentSeries, LaurentSeries]:
    """(D s, M s) read off the pair E_1 s = M s - sqrt(r) D s, formed from
    the polynomial part of s through `apply_shift` and from each x^(-k)
    through (1/y_1)^k by repeated products.  D s is known down to
    x^(-(n+1)) and M s down to x^(-n), n the window of s."""
    n = s.truncation_order
    depth = n + 2
    e1 = RootPair(LaurentSeries.zero(depth), LaurentSeries.zero(depth + 1), lattice.r)
    top = s._effective_top()
    if top >= 0:
        image = apply_shift(lattice, Poly([s._padded(e) for e in range(top + 1)]), 1)
        e1 = e1 + RootPair(LaurentSeries.from_poly(image.u, depth),
                           LaurentSeries.from_poly(image.v, depth + 1), lattice.r)
    bottom = max(-n, s.lowest_power - len(s.coefficients) + 1) if s.coefficients else 0
    w = inv_y1_pair(lattice, depth)
    power = w
    for k in range(1, 1 - bottom):
        if k > 1:
            power = power * w
        c = s._padded(-k)
        if c:
            e1 = e1 + power * c
    e1 = e1.restrict(n)
    return -e1.v, e1.u


# -- oracles for orthopoly -----------------------------------------------------

def hankel_determinant(moments, n: int, shift: int = 0) -> F:
    """det[u_{i+j+shift}] for i, j = 0..n-1, by exact Gaussian elimination,
    the oracle against the Chebyshev algorithm."""
    if n == 0:
        return F(1)
    m = [[F(moments[i + j + shift]) for j in range(n)] for i in range(n)]
    det = F(1)
    for col in range(n):
        pivot = None
        for row in range(col, n):
            if m[row][col] != 0:
                pivot = row
                break
        if pivot is None:
            return F(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for row in range(col + 1, n):
            factor = m[row][col] * inv
            if factor:
                for j in range(col, n):
                    m[row][j] -= factor * m[col][j]
    return det


def liouville_defect(data, n: int) -> Poly:
    """P1_n P_n - P_{n+1} P1_{n-1} - gamma_0 ... gamma_n from the stored
    polynomials, two full products; zero when they follow the recurrence."""
    return (data.assoc(n) * data.poly(n) - data.poly(n + 1) * data.assoc(n - 1)
            - data.gamma_product(n))


def second_kind_by_definition(data, s: LaurentSeries, n: int) -> LaurentSeries:
    """q_n = P_n S - P1_{n-1} from the stored polynomials, a full product,
    on the window of S less n (q_{-1} = 1 on the window of S)."""
    if n == -1:
        return LaurentSeries.constant(1, s.truncation_order)
    return s.mul_poly(data.poly(n)) - LaurentSeries.from_poly(data.assoc(n - 1),
                                                              s.truncation_order - n)


# -- the frozen end-to-end fixtures ------------------------------------------

def qhermite_riccati(lattice) -> RiccatiData:
    """Semiclassical instance on the reference lattice (the D-Appell family
    beta_n = 0, gamma_n = (4/9)(1 - 4^n)); discovered by fit_riccati and
    frozen."""
    return RiccatiData(
        Poly([8, 0, -9]),
        Poly.zero(),
        Poly([0, 12]),
        Poly([-6]),
        lattice,
    )


def qhermite_corecursive_riccati(lattice) -> RiccatiData:
    """Co-recursive companion (beta_0 shifted by -1): B != 0."""
    return RiccatiData(
        Poly([8, 0, -9]),
        Poly([-6, -12]),
        Poly([12, 12]),
        Poly([-6]),
        lattice,
    )


def qhermite_recurrence(n_top: int):
    beta = [F(0)] * (n_top + 1)
    gamma = [F(1)] + [F(4, 9) * (1 - 4 ** n) for n in range(1, n_top + 1)]
    return beta, gamma


def qhermite_corecursive_recurrence(n_top: int):
    beta, gamma = qhermite_recurrence(n_top)
    beta[0] = F(-1)
    return beta, gamma


def qhermite_wide_riccati(lattice) -> RiccatiData:
    """The same recurrence family is Laguerre-Hahn on the wide lattice
    (1, -5/2, 4, 0, 0, 1) too, with its own data; discovered and frozen."""
    return RiccatiData(
        Poly([4, 0, -18]),
        Poly.zero(),
        Poly([0, 12]),
        Poly([-3]),
        lattice,
    )
