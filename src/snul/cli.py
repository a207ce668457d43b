"""Command-line driver: classify lattices, certify instances, fit Riccati
data, derive structure coefficients.

Problem files are JSON with rationals transported as "p/q" strings so no
exactness is ever lost in transit:

    {
      "lattice": ["1", "-5/4", "1", "0", "0", "1"],
      "riccati": {"A": ["8", "0", "-9"], "B": [], "C": ["0", "12"], "D": ["-6"]},
      "moments": ["1", "0", ...],                  # or "recurrence"
      "recurrence": {"beta": [...], "gamma": [...]},
      "options": {"n_max": 8, "trunc": 28, "deg_bounds": [4, 4, 4, 4]}
    }

`riccati` may be combined with one moment source; `moments` and
`recurrence` are mutually exclusive; an unknown key, at the top level or in
`recurrence` or `options`, is an input error.  Exit codes: 0 success,
1 mathematical failure, 2 input or usage error.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    FreeMoment,
    Inconsistent,
    InvalidRecurrence,
    NotLaguerreHahn,
    NotQuasiDefinite,
    ProblemFileError,
    SnulError,
)
from .fieldext import format_rational, parse_rational
from .laguerre_hahn import (
    Certificate,
    CheckResult,
    RiccatiData,
    Workspace,
    certify,
    fit_riccati,
    job_riccati_residual,
    riccati_residual,
    solve_moments_from_riccati,
    structure_coeffs_direct,
)
from .lattice import Lattice, build_lattice, lattice_points
from .orthopoly import job_recurrence, moments_from_recurrence
from .poly import Poly
from .series import LaurentSeries

EXIT_OK = 0
EXIT_MATH_FAIL = 1
EXIT_USAGE = 2

DEFAULT_N_MAX = 8
DEFAULT_TRUNC = 28
DEFAULT_DEG_BOUNDS = (4, 4, 4, 4)
OPTION_KEYS = {"n_max", "trunc", "deg_bounds"}
TOP_KEYS = {"lattice", "riccati", "moments", "recurrence", "options"}
RECURRENCE_KEYS = {"beta", "gamma"}


# ---------------------------------------------------------------------------
# problem files
# ---------------------------------------------------------------------------

@dataclass
class ProblemFile:
    conic: list[Fraction]
    riccati: dict[str, list[Fraction]] | None
    moments: list[Fraction] | None
    recurrence: tuple[list[Fraction], list[Fraction]] | None
    n_max: int
    trunc: int
    deg_bounds: tuple[int, int, int, int]

    @classmethod
    def from_dict(cls, raw: dict) -> "ProblemFile":
        if not isinstance(raw, dict):
            raise ProblemFileError("problem file must be a JSON object")
        _reject_unknown(raw, TOP_KEYS, "key", "a problem file")
        try:
            conic_raw = raw["lattice"]
        except KeyError:
            raise ProblemFileError("missing 'lattice' block") from None
        if not isinstance(conic_raw, list) or len(conic_raw) != 6:
            raise ProblemFileError("'lattice' must be an array of six rationals")
        conic = [_rat(v, f"lattice[{i}]") for i, v in enumerate(conic_raw)]

        riccati = None
        if "riccati" in raw:
            block = raw["riccati"]
            if not isinstance(block, dict) or set(block) - {"A", "B", "C", "D"}:
                raise ProblemFileError("'riccati' must map A, B, C, D to coefficient arrays")
            riccati = {}
            for name in "ABCD":
                arr = block.get(name, [])
                if not isinstance(arr, list):
                    raise ProblemFileError(f"riccati.{name} must be an array")
                riccati[name] = [_rat(v, f"riccati.{name}[{i}]") for i, v in enumerate(arr)]

        moments = None
        if "moments" in raw:
            arr = raw["moments"]
            if not isinstance(arr, list) or not arr:
                raise ProblemFileError("'moments' must be a nonempty array")
            moments = [_rat(v, f"moments[{i}]") for i, v in enumerate(arr)]
            if moments[0] != 1:
                raise ProblemFileError("moments[0] (u_0) must equal 1")

        recurrence = None
        if "recurrence" in raw:
            block = raw["recurrence"]
            if not isinstance(block, dict) or "beta" not in block or "gamma" not in block:
                raise ProblemFileError("'recurrence' must contain 'beta' and 'gamma' arrays")
            _reject_unknown(block, RECURRENCE_KEYS, "recurrence key", "'recurrence'")
            for name in ("beta", "gamma"):
                if not isinstance(block[name], list):
                    raise ProblemFileError(f"recurrence.{name} must be an array")
            beta = [_rat(v, f"recurrence.beta[{i}]") for i, v in enumerate(block["beta"])]
            gamma = [_rat(v, f"recurrence.gamma[{i}]") for i, v in enumerate(block["gamma"])]
            if not gamma or gamma[0] != 1:
                raise ProblemFileError("recurrence.gamma[0] (gamma_0) must equal 1")
            recurrence = (beta, gamma)

        if moments is not None and recurrence is not None:
            raise ProblemFileError("give either 'moments' or 'recurrence', not both")
        if riccati is None and moments is None and recurrence is None:
            raise ProblemFileError(
                "no input flavor: need 'riccati', 'moments' or 'recurrence'"
            )

        options = raw.get("options", {})
        if not isinstance(options, dict):
            raise ProblemFileError("'options' must be an object")
        _reject_unknown(options, OPTION_KEYS, "option", "'options'")
        n_max = options.get("n_max", DEFAULT_N_MAX)
        trunc = options.get("trunc", DEFAULT_TRUNC)
        # type(), not isinstance(): JSON true and false are not 1 and 0
        if type(n_max) is not int or n_max < 1:
            raise ProblemFileError("options.n_max must be a positive integer")
        if type(trunc) is not int or trunc < 2:
            raise ProblemFileError("options.trunc must be an integer >= 2")
        bounds_raw = options.get("deg_bounds", list(DEFAULT_DEG_BOUNDS))
        if (not isinstance(bounds_raw, list) or len(bounds_raw) != 4
                or not all(type(b) is int and b >= 0 for b in bounds_raw)):
            raise ProblemFileError("options.deg_bounds must be four nonnegative integers")
        return cls(conic, riccati, moments, recurrence, n_max, trunc, tuple(bounds_raw))

    @classmethod
    def load(cls, path: str) -> "ProblemFile":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ProblemFileError(f"cannot read {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ProblemFileError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
        return cls.from_dict(raw)

    def echo(self) -> dict:
        """Canonical re-serialization; parsing it back gives an equal ProblemFile."""
        out: dict = {"lattice": [format_rational(v) for v in self.conic]}
        if self.riccati is not None:
            out["riccati"] = {
                name: [format_rational(v) for v in arr]
                for name, arr in self.riccati.items()
            }
        if self.moments is not None:
            out["moments"] = [format_rational(v) for v in self.moments]
        if self.recurrence is not None:
            out["recurrence"] = {
                "beta": [format_rational(v) for v in self.recurrence[0]],
                "gamma": [format_rational(v) for v in self.recurrence[1]],
            }
        out["options"] = {
            "n_max": self.n_max,
            "trunc": self.trunc,
            "deg_bounds": list(self.deg_bounds),
        }
        return out

    def build_lattice(self) -> Lattice:
        return build_lattice(*self.conic)

    def riccati_data(self, lattice: Lattice) -> RiccatiData:
        polys = {name: Poly(arr) for name, arr in self.riccati.items()}
        if polys["A"].is_zero:
            raise ProblemFileError("riccati.A must be a nonzero polynomial")
        return RiccatiData(polys["A"], polys["B"], polys["C"], polys["D"], lattice)

    def moment_list(self, order: int) -> list[Fraction] | None:
        """Moments from the file (as given, or through the recurrence)."""
        if self.moments is not None:
            return list(self.moments)
        if self.recurrence is not None:
            beta, gamma = self.recurrence
            try:
                return moments_from_recurrence(beta, gamma, order)
            except InvalidRecurrence as exc:
                raise ProblemFileError(str(exc)) from exc
        return None


def _rat(value, where: str) -> Fraction:
    try:
        if isinstance(value, bool):         # JSON true and false are not 1 and 0
            raise TypeError
        return parse_rational(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise ProblemFileError(f"bad rational at {where}: {value!r}") from exc


def _reject_unknown(block: dict, allowed: set[str], noun: str, owner: str):
    unknown = sorted(set(block) - allowed)
    if unknown:
        raise ProblemFileError(f"unknown {noun}(s) {', '.join(map(repr, unknown))}; "
                               f"{owner} takes {', '.join(sorted(allowed))}")


def _poly_coeffs(p: Poly) -> list[str]:
    den = p.den
    return [format_rational(a, den) for a in p.nums]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _emit(payload: dict):
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def _load_problem(args) -> ProblemFile:
    """Load the problem file and fold in command-line overrides."""
    if getattr(args, "points", 0) < 0:
        raise ProblemFileError("--points must be nonnegative")
    problem = ProblemFile.load(args.file)
    if getattr(args, "n_max", None) is not None:
        if args.n_max < 1:
            raise ProblemFileError("--n-max must be positive")
        problem.n_max = args.n_max
    if getattr(args, "trunc", None) is not None:
        if args.trunc < 2:
            raise ProblemFileError("--trunc must be >= 2")
        problem.trunc = args.trunc
    if getattr(args, "deg_bounds", None) is not None:
        problem.deg_bounds = args.deg_bounds
    return problem


def cmd_classify(args) -> int:
    problem = _load_problem(args)
    lattice = problem.build_lattice()
    lines = [
        f"class:   {lattice.lattice_class.label}",
        f"p:       {lattice.p}",
        f"r:       {lattice.r}",
        f"lambda:  {format_rational(lattice.lam)}",
        f"tau:     {format_rational(lattice.tau)}",
        "q_trace: " + (format_rational(lattice.q_trace)
                       if lattice.q_trace is not None else "undefined (c_hat = 0)"),
    ]
    print("\n".join(lines))
    if args.points:
        pts = lattice_points(lattice, args.points)
        if pts is None:
            print("points:  parametrization unavailable (complex q or asymmetric conic)")
        else:
            print("points:  " + ", ".join(f"x({s})={v:.6g}" for s, v in enumerate(pts)))
    return EXIT_OK


def _fit_candidates(problem: ProblemFile, lattice: Lattice) -> tuple[list, Workspace, list]:
    """The fitted candidates, the workspace of S in which they were found,
    so that each candidate's residual reuses the images of S, and the
    moments of S."""
    moments = problem.moment_list(problem.trunc)
    if moments is None:
        raise ProblemFileError("fit needs a 'moments' or 'recurrence' flavor")
    ws = Workspace(lattice, LaurentSeries.from_moments(moments))
    return fit_riccati(ws, problem.deg_bounds), ws, moments


def cmd_fit(args) -> int:
    problem = _load_problem(args)
    lattice = problem.build_lattice()
    candidates, ws, _ = _fit_candidates(problem, lattice)
    entries = []
    for cand in candidates:
        res = riccati_residual(cand, ws)
        entries.append({
            "A": _poly_coeffs(cand.A),
            "B": _poly_coeffs(cand.B),
            "C": _poly_coeffs(cand.C),
            "D": _poly_coeffs(cand.D),
            "degrees": [cand.A.degree, cand.B.degree, cand.C.degree, cand.D.degree],
            "semiclassical": cand.is_semiclassical,
            "verified": res.is_zero_within_window(),
            "window": res.truncation_order,
        })
    _emit({
        "instance": problem.echo(),
        "deg_bounds": list(problem.deg_bounds),
        "count": len(entries),
        "candidates": entries,
        "note": "" if entries else "no relation found",
    })
    return EXIT_OK


def cmd_certify(args) -> int:
    problem = _load_problem(args)
    lattice = problem.build_lattice()
    order = max(problem.trunc, 2 * problem.n_max + 2)
    extra_checks: list[CheckResult] = []
    if problem.riccati is not None:
        ric, moments, ws = problem.riccati_data(lattice), problem.moment_list(order), None
    else:
        candidates, ws, moments = _fit_candidates(problem, lattice)
        verified = [c for c in candidates if riccati_residual(c, ws).is_zero_within_window()]
        if not verified:
            _emit(Certificate(
                instance=problem.echo(), options={"n_max": problem.n_max, "trunc": order},
                checks=[CheckResult("riccati", "fail", window=ws.s.truncation_order,
                                    detail=f"no Laguerre-Hahn relation within degree "
                                           f"bounds {list(problem.deg_bounds)}")],
            ).to_dict())
            return EXIT_MATH_FAIL
        ric = verified[0]
        extra_checks.append(CheckResult(
            "fit", "pass",
            detail=f"{len(verified)} verified candidate(s) within bounds "
                   f"{list(problem.deg_bounds)}; certifying the first",
        ))
        if problem.moments is None and order > problem.trunc:
            # a recurrence gives more moments at the larger order, and a
            # longer S than the fit's
            moments, ws = problem.moment_list(order), None
    cert = certify(ric, problem.n_max, order, moments=moments, instance=problem.echo(),
                   recurrence=problem.recurrence, workspace=ws)
    cert.checks[0:0] = extra_checks
    _emit(cert.to_dict())
    return EXIT_OK if cert.passed else EXIT_MATH_FAIL


def cmd_derive(args) -> int:
    problem = _load_problem(args)
    if problem.riccati is None:
        raise ProblemFileError("derive needs the 'riccati' flavor")
    ric = problem.riccati_data(problem.build_lattice())
    n_max = problem.n_max
    order = max(problem.trunc, 2 * n_max + 2)
    supplied = problem.moment_list(order)
    moments = supplied if supplied is not None else solve_moments_from_riccati(ric, order)
    data = job_recurrence(moments, n_max, problem.recurrence)
    res = job_riccati_residual(ric, order, supplied)
    if not res.is_zero_within_window():
        raise NotLaguerreHahn(0, f"Riccati residual nonzero at x^{res.leading_exponent()}")
    direct = structure_coeffs_direct(ric, data, n_max)
    # level n is index n + 1 of l, pi and theta, and A_{n+1} index n + 1 of gathered
    levels = [{"n": n, "l": _poly_coeffs(l), "pi": _poly_coeffs(pi),
               "theta": _poly_coeffs(theta), "A_gathered": _poly_coeffs(a)}
              for n, l, pi, theta, a in zip(range(-1, direct.max_level + 1), direct.l,
                                            direct.pi, direct.theta, direct.gathered)]
    _emit({
        "instance": problem.echo(),
        "levels": levels,
        "degrees": direct.degrees(),
        # the level recursion is the structure relations' unique solution
        # (`structure_coeffs_direct`): the two routes agree whenever it returns
        "agreement": True,
    })
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _parse_deg_bounds(text: str) -> tuple[int, int, int, int]:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("expected four comma-separated integers a,b,c,d")
    try:
        bounds = tuple(int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError("degree bounds must be integers") from None
    if any(b < 0 for b in bounds):
        raise argparse.ArgumentTypeError("degree bounds must be nonnegative")
    return bounds


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The `snul` parser, built on first use and then kept for the process."""
    parser = argparse.ArgumentParser(
        prog="snul",
        description="Exact Laguerre-Hahn toolkit on quadratic non-uniform lattices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="report lattice invariants and class")
    p_classify.add_argument("file")
    p_classify.add_argument("--points", type=int, default=0, metavar="K",
                            help="also print x(0..K) as floats when q is real")
    p_classify.set_defaults(func=cmd_classify)

    p_certify = sub.add_parser("certify", help="run the full equivalence pipeline")
    p_certify.add_argument("file")
    p_certify.set_defaults(func=cmd_certify)

    p_fit = sub.add_parser("fit", help="fit Riccati data from moments")
    p_fit.add_argument("file")
    p_fit.set_defaults(func=cmd_fit)

    p_derive = sub.add_parser("derive", help="tabulate l_n, pi_n, Theta_n, A_n")
    p_derive.add_argument("file")
    p_derive.set_defaults(func=cmd_derive)

    for p in (p_certify, p_fit, p_derive):
        p.add_argument("--n-max", type=int, default=None, help="levels to verify")
        p.add_argument("--trunc", type=int, default=None, help="series truncation order")
        p.add_argument("--deg-bounds", type=_parse_deg_bounds, default=None,
                       metavar="A,B,C,D", help="degree bounds for fitting")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ProblemFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FreeMoment, Inconsistent, NotLaguerreHahn, NotQuasiDefinite) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH_FAIL
    except SnulError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # not a documented failure: one line and the usage exit code, never
        # a traceback or exit 1, which would read as a mathematical verdict
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
