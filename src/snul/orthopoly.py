"""Monic orthogonal polynomials from three-term recurrences, their moments,
associated polynomials and second-kind functions.

Conventions: u_0 = gamma_0 = 1, P_{-1} = 0, P_0 = 1, and the associated
sequence starts P1_{-1} = 0, P1_0 = 1 with the index-shifted recurrence
P1_n = (x - beta_n) P1_{n-1} - gamma_n P1_{n-2}.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import lcm
from operator import mul
from typing import Sequence

from .errors import InsufficientTruncation, InvalidRecurrence, NotQuasiDefinite
from .fieldext import _reduced
from .poly import Poly
from .series import LaurentSeries

_ZERO_POLY = Poly.zero()


def _check_recurrence(beta: Sequence[Fraction], gamma: Sequence[Fraction], n_max: int):
    if len(beta) < n_max + 1 or len(gamma) < n_max + 1:
        raise InvalidRecurrence(
            f"need beta_0..beta_{n_max} and gamma_0..gamma_{n_max}, "
            f"got lengths {len(beta)}, {len(gamma)}"
        )
    if gamma[0] != 1:
        raise InvalidRecurrence(f"gamma_0 must equal 1 (got {gamma[0]})")
    for n in range(1, n_max + 1):
        if gamma[n] == 0:
            raise InvalidRecurrence(f"gamma_{n} = 0")


@dataclass
class SMOPData:
    """A sequence of monic orthogonal polynomials, as its recurrence to n_max.

    P_0..P_{n_max} and P1_0..P1_{n_max} are formed from beta and gamma on
    first read of `P` and `P1` (P_{n+1} = (x - beta_n) P_n - gamma_n P_{n-1},
    P1_{n+1} = (x - beta_{n+1}) P1_n - gamma_{n+1} P1_{n-1}).  No certify,
    fit or derive stage reads them: only the relation oracles of
    `laguerre_hahn` and the tests form them.
    """

    beta: list[Fraction]
    gamma: list[Fraction]
    n_max: int

    @cached_property
    def P(self) -> list[Poly]:
        return self._polys(0)

    @cached_property
    def P1(self) -> list[Poly]:
        return self._polys(1)

    def _polys(self, offset: int) -> list[Poly]:
        """f_0..f_{n_max} for f_{-1} = 0, f_0 = 1 and f_{k+1} = (x - beta_{k+offset})
        f_k - gamma_{k+offset} f_{k-1}."""
        x, out = Poly.x(), [_ZERO_POLY, Poly.one()]
        for k in range(offset, self.n_max + offset):
            out.append(Poly.dot(((x - self.beta[k], out[-1]), (out[-2], -self.gamma[k]))))
        return out[1:]

    def poly(self, n: int) -> Poly:
        """P_n, with P_{-1} = 0."""
        if n == -1:
            return _ZERO_POLY
        return self.P[n]

    def assoc(self, n: int) -> Poly:
        """P1_n, with P1_{-1} = 0."""
        if n == -1:
            return _ZERO_POLY
        return self.P1[n]

    def gamma_product(self, n: int) -> Fraction:
        """gamma_0 * ... * gamma_n (1 at n = -1), from prefix products formed once."""
        return self._gamma_prefix[n + 1]

    @cached_property
    def _gamma_prefix(self) -> list[Fraction]:
        return list(accumulate(self.gamma, mul, initial=Fraction(1)))


def smop_from_recurrence(beta, gamma, n_max: int) -> SMOPData:
    """The sequence of beta and gamma up to level n_max, whose P_n and P1_n
    are formed on first read (`SMOPData`)."""
    beta = [Fraction(b) for b in beta]
    gamma = [Fraction(g) for g in gamma]
    _check_recurrence(beta, gamma, n_max)
    return SMOPData(beta, gamma, n_max)


def job_recurrence(moments, n_max: int, recurrence=None) -> SMOPData:
    """The recurrence of a certify or derive job up to level n_max, from
    `moments` by `recurrence_from_moments`, or a supplied (beta, gamma) read
    as it stands.  `moments` are then the ones formed from it, on which the
    Chebyshev algorithm would give it back and stop where it does, at the
    first gamma_k = 0, as H_{n+1} = prod_{k<=n} gamma_k^(n+1-k).  Raises
    NotQuasiDefinite naming the first failing level.

    The recurrence returned has gamma_0 = 1: the Chebyshev algorithm sets
    it, and `smop_from_recurrence` refuses a supplied one without it.  So
    the Liouville-Ostrogradsky identity W_n = P1_n P_n - P_{n+1} P1_{n-1} =
    gamma_0 ... gamma_n holds at every level, and `certify` records its
    `liouville` entry with `quasi-definite`.  Proof: W_0 = P1_0 P_0 - P_1
    P1_{-1} = 1 = gamma_0, and substituting P_{n+1} = (x - beta_n) P_n -
    gamma_n P_{n-1} and P1_n = (x - beta_n) P1_{n-1} - gamma_n P1_{n-2} gives
    W_n = gamma_n W_{n-1}."""
    if recurrence is None:
        beta, gamma = recurrence_from_moments(moments, n_max)
    else:
        beta, gamma = (c[:n_max + 1] for c in recurrence)
        if 0 in gamma:
            raise NotQuasiDefinite(gamma.index(0))
    return smop_from_recurrence(beta, gamma, n_max)


def moments_from_recurrence(beta, gamma, order: int) -> list[Fraction]:
    """u_k for k = 0..order via powers of the tridiagonal recurrence operator.

    u_k is the P_0-component of x^k expanded in the monic basis; each step is
    one application of the Jacobi-form operator, O(order^2) exact work in
    total.  With beta and gamma written over one common denominator L, the
    components of x^k are integer numerators over one denominator, which
    each step multiplies by L and then divides, with the numerators, by their
    gcd: one gcd per step and one Fraction per moment.  The gcd keeps the
    numbers at the size of the exact components; L^k would add the size of
    L at every step, and L, the lcm of every coefficient's denominator, has
    thousands of bits when the denominators vary.
    """
    if order < 0:
        raise ValueError("moment order must be nonnegative")
    beta = [Fraction(b) for b in beta[:order]]
    gamma = [Fraction(g) for g in gamma[:order]]
    if order > 0 and (len(beta) < order or len(gamma) < order):
        raise InvalidRecurrence(
            f"need recurrence coefficients up to index {order - 1} for u_0..u_{order}"
        )
    den = lcm(*(c.denominator for c in beta + gamma))
    b = [c.numerator * (den // c.denominator) for c in beta]
    g = [c.numerator * (den // c.denominator) for c in gamma[1:]] + [0]
    v, out, scale = [1], [Fraction(1)], 1
    for k in range(1, order + 1):
        # x P_i = P_{i+1} + beta_i P_i + gamma_i P_{i-1}, and component i
        # reaches u only after i more steps
        nxt = [den * v_down + b_i * v_i + g_i * v_up for v_down, v_i, v_up, b_i, g_i
               in zip([0] + v, v + [0], v[1:] + [0, 0], b, g)]
        v, scale = _reduced(nxt[:order - k + 1], scale * den)
        out.append(Fraction(v[0], scale))
    return out


def recurrence_from_moments(moments, n_max: int) -> tuple[list[Fraction], list[Fraction]]:
    """Invert the moment map with the exact Chebyshev algorithm.

    Returns beta_0..beta_{n_max} and gamma_0..gamma_{n_max} (gamma_0 = 1).
    Raises NotQuasiDefinite naming the first level whose Hankel determinant
    vanishes, ValueError when n_max is negative.  Needs moments
    u_0..u_{2 n_max + 1}.  Each row sigma_k is integer numerators over one
    denominator, reduced by one gcd; only beta_k and gamma_k are Fractions.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    u = [Fraction(m) for m in moments]
    need = 2 * n_max + 2
    if len(u) < need:
        raise InsufficientTruncation(required=need, available=len(u),
                                     message=f"need {need} moments for n_max = {n_max}")
    if u[0] != 1:
        raise InvalidRecurrence(f"u_0 must equal 1 (got {u[0]})")
    den = lcm(*(m.denominator for m in u))
    # sigma_{k-2, l} over den_prev and sigma_{k-1, l} over den, from k = 1
    den_prev, sigma_prev = 1, [0] * len(u)
    sigma = [m.numerator * (den // m.denominator) for m in u]
    beta = [u[1] / u[0]]
    gamma = [Fraction(1)]
    for k in range(1, n_max + 1):
        # sigma_{k,l} = sigma_{k-1,l+1} - beta_{k-1} sigma_{k-1,l} - gamma_{k-1} sigma_{k-2,l}
        b, g = beta[-1], gamma[-1]
        den_next = lcm(den * b.denominator, den_prev * g.denominator)
        w, wg = den_next // den, g.numerator * (den_next // (den_prev * g.denominator))
        wb = b.numerator * (w // b.denominator)
        nxt = [0] * k + [w * sigma[l + 1] - wb * sigma[l] - wg * sigma_prev[l]
                         for l in range(k, len(u) - k)]
        if nxt[k] == 0:
            raise NotQuasiDefinite(k)
        nxt, den_next = _reduced(nxt, den_next)
        gamma.append(Fraction(nxt[k] * den, den_next * sigma[k - 1]))
        beta.append(Fraction(nxt[k + 1] * sigma[k - 1] - sigma[k] * nxt[k],
                             nxt[k] * sigma[k - 1]))
        den_prev, sigma_prev, den, sigma = den, sigma, den_next, nxt
    return beta, gamma


def second_kind_series(data: SMOPData, s: LaurentSeries, n: int) -> LaurentSeries:
    """q_n = P_n S - P1_{n-1} by the three-term recurrence
    q_n = (x - beta_{n-1}) q_{n-1} - gamma_{n-1} q_{n-2}, from q_{-1} = 1 and
    q_0 = S, on the window of S less n; O(window) work per step.

    The recurrence's q_n equals P_n S - P1_{n-1} by induction: both sides
    satisfy the same linear recurrence from the same start, q_{-1} = P_{-1} S
    - P1_{-2} = 1 and q_0 = P_0 S - P1_{-1} = S (P1_{-2} = -1 extends the
    associated recurrence one level down, as gamma_0 = 1).  The Pade decay
    q_n = O(x^(-n-1)) is checked: InvalidRecurrence when it fails,
    InsufficientTruncation when S is too short for level n.  No job calls
    this; `laguerre_hahn.verify_second_kind_relations`, the tests' oracle,
    does (`laguerre_hahn.second_kind_checks` says why certify needs no q_n).
    """
    if n == -1:
        return LaurentSeries.constant(1, s.truncation_order)
    if n > data.n_max:
        raise ValueError(f"n = {n} exceeds n_max = {data.n_max}")
    required = 2 * n + 2
    if s.truncation_order < required:
        raise InsufficientTruncation(required=required, available=s.truncation_order)
    # q_0 is S itself; returning S lets callers share its images
    q_prev, q = LaurentSeries.constant(1, s.truncation_order), s
    x = Poly.x()
    for k in range(n):
        q_prev, q = q, LaurentSeries.dot(((q, x - data.beta[k]), (q_prev, -data.gamma[k])))
    if not q.is_zero and q.lowest_power >= -n:
        raise InvalidRecurrence(
            f"moments inconsistent with recurrence: q_{n} fails "
            f"O(x^-{n + 1}) decay at x^{q.lowest_power}"
        )
    return q

