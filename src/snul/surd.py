"""Elements u(x) + v(x)*sqrt(r(x)) of the quadratic extension of Q[x].

The modulus r is the lattice's degree-2 polynomial; it is carried on every
element and must match between operands.  Multiplication reduces through
(sqrt r)^2 = r.  `lattice.apply_shift` returns the images of polynomials
under the shift operators in this form.  No relation residual is a SurdPoly:
the characterization is checked on rational pairs (u, v) of u + sqrt(r) v,
so division (`surd_exact_div`) and most of the arithmetic here serve only
the tests' oracles.
"""
from __future__ import annotations

from fractions import Fraction

from .errors import DivisionNotExact
from .poly import Poly


class SurdPoly:
    __slots__ = ("u", "v", "r")

    def __init__(self, u: Poly, v: Poly, r: Poly):
        if r.degree != 2:
            raise ValueError("surd modulus r must have degree 2")
        self.u = u
        self.v = v
        self.r = r

    @classmethod
    def from_poly(cls, p: Poly, r: Poly) -> "SurdPoly":
        return cls(p, Poly.zero(), r)

    @classmethod
    def sqrt_r(cls, r: Poly) -> "SurdPoly":
        return cls(Poly.zero(), Poly.one(), r)

    @property
    def is_zero(self) -> bool:
        return self.u.is_zero and self.v.is_zero

    @property
    def is_polynomial(self) -> bool:
        return self.v.is_zero

    def conjugate(self) -> "SurdPoly":
        return SurdPoly(self.u, -self.v, self.r)

    def norm(self) -> Poly:
        """u^2 - v^2 * r, the product with the conjugate (a plain polynomial)."""
        return self.u * self.u - self.v * self.v * self.r

    def _coerce(self, other) -> "SurdPoly | None":
        if isinstance(other, SurdPoly):
            if other.r != self.r:
                raise ValueError("mismatched surd moduli r")
            return other
        if isinstance(other, Poly):
            return SurdPoly.from_poly(other, self.r)
        if isinstance(other, (int, Fraction)):
            return SurdPoly.from_poly(Poly.constant(other), self.r)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return SurdPoly(self.u + o.u, self.v + o.v, self.r)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return SurdPoly(self.u - o.u, self.v - o.v, self.r)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return SurdPoly(o.u - self.u, o.v - self.v, self.r)

    def __neg__(self):
        return SurdPoly(-self.u, -self.v, self.r)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return SurdPoly(
            self.u * o.u + self.v * o.v * self.r,
            self.u * o.v + self.v * o.u,
            self.r,
        )

    __rmul__ = __mul__

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.u == o.u and self.v == o.v

    def __hash__(self):
        return hash((self.u, self.v, self.r))

    def __repr__(self):
        return f"({self.u}) + ({self.v})*sqrt({self.r})"


def surd_exact_div(f: SurdPoly, g: SurdPoly) -> SurdPoly:
    """Exact quotient h with h*g = f.

    Rationalizes by the conjugate, then divides both components by the norm
    polynomial.  A nonzero remainder in either component raises
    DivisionNotExact: the caller's candidate identity is inconsistent.
    """
    g = f._coerce(g)
    if g is None or not isinstance(g, SurdPoly):
        raise TypeError("surd_exact_div expects SurdPoly operands")
    if g.is_zero:
        raise ZeroDivisionError("surd division by zero")
    norm = g.norm()
    if norm.is_zero:
        raise ZeroDivisionError("divisor is a zero divisor (r is a square)")
    num = f * g.conjugate()
    try:
        return SurdPoly(num.u.exact_div(norm), num.v.exact_div(norm), f.r)
    except DivisionNotExact as exc:
        raise DivisionNotExact(f"surd division not exact: {exc}") from exc
