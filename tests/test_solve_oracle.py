"""solve_moments_from_riccati against the full-series solver it replaced.

`reference_solve_moments` is the earlier solver: it forms E_j x^(-k) as
powers of the expansions of 1/y_j in Q(sqrt(lambda)), D and M by a series
product with 1/(2 sqrt(r)), and keeps the whole residual series up to date
after each moment.  The solver under test reads single coefficients of DS
and MS built from the rational D/M table.  Both must give the same moments,
or raise the same exception with the same text.
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
    build_lattice,
    solve_moments_from_riccati,
)

from conftest import (
    IMAGINARY_CONIC,
    RATIONAL_CONICS,
    SURD_CONIC,
    random_fraction,
    random_poly,
)

ROOT = Path(__file__).resolve().parent.parent
HALF = F(1, 2)


def reference_solve_moments(ric, count, free_values=None):
    lattice = ric.lattice
    field = lattice.field
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

    def powers(j):
        # w_j^k = E_j x^(-k), k = 1..count+1, by repeated products
        w = lattice.inv_y_series(j, depth)
        out = [w]
        while len(out) < count + 1:
            out.append((out[-1] * w).restrict(depth))
        return out

    w1s, w2s = powers(1), powers(2)
    inv_delta = (lattice.sqrt_r_series(depth) * 2).inverse()

    def d_and_m(f1, f2):
        return ((f2 - f1) * inv_delta).mul_poly(A) - ((f1 + f2) * HALF).mul_poly(C)

    free_values = free_values or {}
    moments = [F(1)]
    e1s, e2s = w1s[0], w2s[0]
    base = d_and_m(e1s, e2s) - LaurentSeries.from_poly(D, depth)
    if not B.is_zero:
        base = base - (e1s * e2s).mul_poly(B)
    for e in range(top_res, m0 - 1, -1):
        c = base.coefficient(e)
        if not c.is_zero:
            raise Inconsistent(
                0, f"residual coefficient at x^{e} is {c} with u_0 alone; "
                   "no moment can repair it",
            )
    for k in range(1, count + 1):
        w1pow, w2pow = w1s[k], w2s[k]
        target = m0 - k
        beta_k = base.coefficient(target)
        alpha = d_and_m(w1pow, w2pow)
        if not B.is_zero:
            alpha = alpha - (e1s * w2pow + w1pow * e2s).mul_poly(B)
        alpha_k = alpha.coefficient(target)
        if alpha_k.is_zero:
            if beta_k.is_zero:
                if k in free_values:
                    uk = field.coerce(free_values[k])
                else:
                    raise FreeMoment(k)
            else:
                raise Inconsistent(k)
        else:
            uk = -beta_k / alpha_k
        if not uk.is_rational:
            raise Inconsistent(k, f"moment u_{k} = {uk} is not rational")
        moments.append(uk.rational_value())
        base = base + alpha * uk
        if not B.is_zero:
            base = base - (w1pow * w2pow).mul_poly(B) * (uk * uk)
            e1s = e1s + w1pow * uk
            e2s = e2s + w2pow * uk
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
        polys = [Poly(lat.field, [F(c) for c in spec["riccati"][name]])
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
    field = lat.field
    A = random_poly(rng, field, max_degree=3, min_degree=rng.choice((0, 2)))
    B = random_poly(rng, field, max_degree=2) if rng.random() < 0.6 else Poly.zero(field)
    C = random_poly(rng, field, max_degree=2)
    if rng.random() < 0.5:
        # the residual of S = 1/x is (-A - C p - B)/N - D, N = p^2 - r
        N = lat.p * lat.p - lat.r
        D = divmod(-(A + C * lat.p + B), N)[0]
        if rng.random() < 0.3:
            D = D + random_fraction(rng)
    else:
        D = random_poly(rng, field, max_degree=1)
    return RiccatiData(A, B, C, D, lat)


def test_random_instances():
    rng = random.Random(2026)
    conics = list(RATIONAL_CONICS) + [SURD_CONIC, IMAGINARY_CONIC]
    lattices = [build_lattice(*conic) for conic in conics]
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
    field = reference_lattice.field
    ric = RiccatiData(Poly(field, [0, 0, 17]), Poly.zero(field),
                      Poly(field, [0, -20]), Poly(field, [8]), reference_lattice)
    results = []
    for free_values in (None, {1: F(5)}, {1: F(0), 2: F(1, 3)}):
        expect = outcome(reference_solve_moments, ric, 6, free_values)
        assert outcome(solve_moments_from_riccati, ric, 6, free_values) == expect
        results.append(expect)
    assert results[0] == (FreeMoment, str(FreeMoment(1)))
