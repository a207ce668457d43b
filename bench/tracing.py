"""Spans around the calls into each snul layer, recorded from outside snul.

`Tracer.install()` replaces selected functions and methods with wrappers
that record a span (name, start, end, parent, job id) in memory;
`uninstall()` puts the originals back.  A module-level function is replaced
under every name that binds it in any loaded snul module, because
`from .lattice import apply_E_series` gives `laguerre_hahn` its own binding
and a call there never looks at `lattice.apply_E_series`.

`layer_metrics()` turns the spans of one pass into the per-layer metrics.
A span's self time is its duration minus the durations of its child spans;
the time of a group of span names counts only the outermost span of the
group, so nested calls are not counted twice.

fieldext operations are not wrapped: there are millions of calls.  Their
cost shows in `series.ns_per_coeff_op` and in poly/surd self time.
"""
from __future__ import annotations

import sys
import time

# (module, attribute) -> span name.  Attributes with a dot are methods.
TARGETS = {
    ("cli", "_load_problem"): "cli.parse",
    ("cli", "_emit"): "cli.emit",
    ("cli", "ProblemFile.moment_list"): "cli.moment_list",
    ("laguerre_hahn", "solve_moments_from_riccati"): "lh.solve_moments",
    ("laguerre_hahn", "riccati_residual"): "lh.riccati_residual",
    ("laguerre_hahn", "fit_riccati"): "lh.fit_riccati",
    ("laguerre_hahn", "riccati_nullspace"): "lh.riccati_nullspace",
    ("laguerre_hahn", "structure_coeffs_direct"): "lh.structure_coeffs_direct",
    ("laguerre_hahn", "verify_structure_relations"): "lh.verify_structure_relations",
    ("laguerre_hahn", "verify_second_kind_relations"): "lh.verify_second_kind_relations",
    ("laguerre_hahn", "gathered_relations"): "lh.gathered_relations",
    ("laguerre_hahn", "corollary_coeffs"): "lh.corollary_coeffs",
    ("laguerre_hahn", "corollary_level_zero"): "lh.corollary_level_zero",
    ("laguerre_hahn", "corollary_recursion"): "lh.corollary_recursion",
    ("laguerre_hahn", "magnus_data_from_coeffs"): "lh.magnus_data_from_coeffs",
    ("laguerre_hahn", "magnus_step"): "lh.magnus_step",
    ("laguerre_hahn", "telescope_residuals"): "lh.telescope_residuals",
    ("laguerre_hahn", "reconstruct_riccati"): "lh.reconstruct_riccati",
    ("lattice", "apply_E_series"): "lattice.apply_E_series",
    ("lattice", "apply_shift"): "lattice.apply_shift",
    ("lattice", "apply_D"): "lattice.apply_D",
    ("lattice", "apply_M"): "lattice.apply_M",
    ("lattice", "Lattice.sqrt_r_series"): "lattice.sqrt_r_series",
    ("lattice", "Lattice.inv_y_series"): "lattice.inv_y_series",
    ("orthopoly", "second_kind_series"): "orthopoly.second_kind_series",
    ("orthopoly", "recurrence_from_moments"): "orthopoly.recurrence_from_moments",
    ("orthopoly", "moments_from_recurrence"): "orthopoly.moments_from_recurrence",
    ("orthopoly", "smop_from_recurrence"): "orthopoly.smop_from_recurrence",
    ("series", "LaurentSeries.__mul__"): "series.mul",
    ("series", "LaurentSeries.mul_poly"): "series.mul_poly",
    ("series", "LaurentSeries.inverse"): "series.inverse",
    ("poly", "Poly.__mul__"): "poly.mul",
    ("surd", "SurdPoly.__mul__"): "surd.mul",
    ("surd", "surd_exact_div"): "surd.exact_div",
}

# Products are traced only when both operands are of the layer's own type;
# scaling by a number is O(n) and stays in the caller's self time.
OPERAND_TYPE = {"series.mul": "LaurentSeries", "poly.mul": "Poly"}

GROUPS = {
    "cli.parse_s": {"cli.parse"},
    "cli.emit_s": {"cli.emit"},
    "lh.moments_s": {"lh.solve_moments"},
    "lh.riccati_s": {"lh.riccati_residual"},
    "lh.structure_s": {"lh.structure_coeffs_direct", "lh.verify_structure_relations"},
    "lh.second_kind_s": {"lh.verify_second_kind_relations"},
    "lh.gathered_s": {"lh.gathered_relations"},
    "lh.oracles_s": {"lh.corollary_coeffs", "lh.corollary_level_zero",
                     "lh.corollary_recursion", "lh.magnus_data_from_coeffs",
                     "lh.magnus_step", "lh.telescope_residuals",
                     "lh.reconstruct_riccati"},
    "lattice.shift_s": {"lattice.apply_shift", "lattice.apply_D", "lattice.apply_M"},
    "orthopoly.q_s": {"orthopoly.second_kind_series"},
    "orthopoly.chebyshev_s": {"orthopoly.recurrence_from_moments"},
    "orthopoly.moments_rec_s": {"orthopoly.moments_from_recurrence"},
    "series.inverse_s": {"series.inverse"},
    "series.mul_poly_s": {"series.mul_poly"},
    "surd.div_s": {"surd.exact_div"},
}
SELF_TIMES = {
    "lh.nullspace_self_s": "lh.riccati_nullspace",
    "lattice.E_series_self_s": "lattice.apply_E_series",
    "series.mul_self_s": "series.mul",
    "poly.mul_self_s": "poly.mul",
    "surd.mul_self_s": "surd.mul",
}
CALLS = {
    "lh.fit_calls": "lh.fit_riccati",
    "lattice.E_series_calls": "lattice.apply_E_series",
    "lattice.shift_calls": "lattice.apply_shift",
    "orthopoly.q_calls": "orthopoly.second_kind_series",
    "series.mul_calls": "series.mul",
    "series.inverse_calls": "series.inverse",
    "poly.mul_calls": "poly.mul",
    "surd.mul_calls": "surd.mul",
}
KERNELS = ("series.mul", "series.mul_poly", "series.inverse")
CACHED = ("lattice.sqrt_r_series", "lattice.inv_y_series")

# Every per-layer metric, in report order, with its unit.
LAYER_UNITS = {
    "cli.parse_s": "s", "cli.emit_s": "s",
    "lh.moments_s": "s", "lh.riccati_s": "s", "lh.structure_s": "s",
    "lh.second_kind_s": "s", "lh.gathered_s": "s", "lh.oracles_s": "s",
    "lh.fit_calls": "count", "lh.nullspace_self_s": "s",
    "lattice.E_series_calls": "count", "lattice.E_series_self_s": "s",
    "lattice.shift_calls": "count", "lattice.shift_s": "s",
    "lattice.cache_hit_ratio": "ratio",
    "orthopoly.q_calls": "count", "orthopoly.q_s": "s",
    "orthopoly.chebyshev_s": "s", "orthopoly.moments_rec_s": "s",
    "series.mul_calls": "count", "series.mul_self_s": "s",
    "series.inverse_calls": "count", "series.inverse_s": "s",
    "series.mul_poly_s": "s", "series.coeff_ops": "count",
    "series.ns_per_coeff_op": "ns",
    "poly.mul_calls": "count", "poly.mul_self_s": "s",
    "surd.mul_calls": "count", "surd.mul_self_s": "s", "surd.div_s": "s",
    "fieldext.max_bits": "bits",
    "trace.overhead_frac": "ratio",
}

# Metrics whose values must repeat exactly between traced runs.
COUNT_METRICS = sorted(CALLS) + ["series.coeff_ops", "fieldext.max_bits"]


# ---------------------------------------------------------------------------
# per-span extras, computed after the span has ended
# ---------------------------------------------------------------------------

def _mul_ops(args, out):
    """Coefficient products the schoolbook product needs inside the result
    window: pairs (i, j) whose exponent is not below -order."""
    a, b = args
    lb = len(b.coefficients)
    if not a.coefficients or not lb:
        return 0
    room = a.lowest_power + b.lowest_power + out.truncation_order + 1
    return sum(min(lb, room - i) for i in range(min(len(a.coefficients), room)))


def _mul_poly_ops(args, out):
    s, p = args
    ls = len(s.coefficients)
    if not ls:
        return 0
    room = s.lowest_power + out.truncation_order + 1
    return sum(max(0, min(ls, room + k)) for k in range(len(p.coeffs)))


def _inverse_ops(args, out):
    s = args[0]
    known = len(s.coefficients) - 1
    depth = s.truncation_order + s.lowest_power
    return sum(min(m, known) for m in range(1, depth + 1))


def _cache_key(args, out):
    return (id(args[0]),) + tuple(args[1:])


EXTRAS = {
    "series.mul": _mul_ops,
    "series.mul_poly": _mul_poly_ops,
    "series.inverse": _inverse_ops,
    "lattice.sqrt_r_series": _cache_key,
    "lattice.inv_y_series": _cache_key,
}

# Outputs whose exact coefficients are measured for fieldext.max_bits.
BITS_OUTPUTS = {
    "cli.moment_list": lambda out: [out or []],
    "lh.solve_moments": lambda out: [out],
    "orthopoly.moments_from_recurrence": lambda out: [out],
    "orthopoly.smop_from_recurrence": lambda out: [c for p in out.P for c in p.coeffs],
    "lh.structure_coeffs_direct": lambda out: _coeffs_of(out),
    "lh.corollary_coeffs": lambda out: _coeffs_of(out),
}


def _coeffs_of(sc):
    return [c for store in (sc.l, sc.pi, sc.theta) for p in store for c in p.coeffs]


def _bits(value) -> int:
    """Largest numerator or denominator bit length in a number or list."""
    if isinstance(value, list):
        return max((_bits(v) for v in value), default=0)
    parts = (value.a, value.b) if hasattr(value, "a") else (value,)
    return max(max(p.numerator.bit_length(), p.denominator.bit_length()) for p in parts)


# ---------------------------------------------------------------------------
# the tracer
# ---------------------------------------------------------------------------

# span record fields
NAME, PARENT, JOB, START, END, CHILD, EXTRA = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.job = -1
        self._stack: list[int] = []
        self._outputs: list = []
        self._undo: list[tuple[object, str, object]] = []

    def reset(self):
        self.spans = []
        self._stack = []
        self._outputs = []

    # -- wrapping ------------------------------------------------------------
    def _wrap(self, name, fn):
        tracer = self
        clock = time.perf_counter
        extra = EXTRAS.get(name)
        keep = name in BITS_OUTPUTS
        operand = OPERAND_TYPE.get(name)

        def wrapper(*args, **kwargs):
            if operand is not None and type(args[1]).__name__ != operand:
                return fn(*args, **kwargs)
            spans, stack = tracer.spans, tracer._stack
            rec = [name, stack[-1] if stack else -1, tracer.job, 0.0, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                rec[START], rec[END] = t0, t1
                if stack:
                    spans[stack[-1]][CHILD] += t1 - t0
            if extra is not None or keep:
                # keep the tracer's own bookkeeping out of the parent's self time
                if extra is not None:
                    rec[EXTRA] = extra(args, out)
                if keep:
                    tracer._outputs.append((name, out))
                if stack:
                    spans[stack[-1]][CHILD] += clock() - t1
            return out

        return wrapper

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        loaded = [m for n, m in sorted(sys.modules.items())
                  if n == "snul" or n.startswith("snul.")]
        for (modname, attr), span in TARGETS.items():
            module = sys.modules["snul." + modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                wrapped = self._wrap(span, orig)
                # aliases such as `__rmul__ = __mul__` share the wrapper
                for key, value in list(vars(cls).items()):
                    if value is orig:
                        self._undo.append((cls, key, orig))
                        setattr(cls, key, wrapped)
                continue
            orig = getattr(module, attr)
            wrapped = self._wrap(span, orig)
            for m in loaded:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._undo.append((m, key, orig))
                        setattr(m, key, wrapped)
            leftover = [m.__name__ for m in loaded for v in vars(m).values() if v is orig]
            if leftover:
                raise RuntimeError(f"{attr} still bound unwrapped in {leftover}")

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo = []

    # -- aggregation -----------------------------------------------------------
    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset()."""
        spans = self.spans
        out: dict[str, float] = {}
        by_name: dict[str, list[list]] = {}
        for rec in spans:
            by_name.setdefault(rec[NAME], []).append(rec)

        def outermost_time(names):
            total = 0.0
            for name in names:
                for rec in by_name.get(name, ()):
                    parent = rec[PARENT]
                    while parent >= 0 and spans[parent][NAME] not in names:
                        parent = spans[parent][PARENT]
                    if parent < 0:
                        total += rec[END] - rec[START]
            return total

        for metric, names in GROUPS.items():
            out[metric] = outermost_time(names)
        for metric, name in SELF_TIMES.items():
            out[metric] = sum((r[END] - r[START] - r[CHILD] for r in by_name.get(name, ())), 0.0)
        for metric, name in CALLS.items():
            out[metric] = len(by_name.get(name, ()))

        calls = keys = 0
        for name in CACHED:
            recs = by_name.get(name, ())
            calls += len(recs)
            keys += len({(r[JOB], r[EXTRA]) for r in recs})
        out["lattice.cache_hit_ratio"] = (calls - keys) / calls if calls else 0.0

        ops = sum(r[EXTRA] for name in KERNELS for r in by_name.get(name, ()))
        kernel_s = sum(r[END] - r[START] - r[CHILD]
                       for name in KERNELS for r in by_name.get(name, ()))
        out["series.coeff_ops"] = ops
        out["series.ns_per_coeff_op"] = kernel_s / ops * 1e9 if ops else 0.0
        out["fieldext.max_bits"] = max(
            (_bits(v) for name, o in self._outputs for v in BITS_OUTPUTS[name](o)),
            default=0,
        )
        return out

    def span_dump(self) -> list[list]:
        """Spans as [name, parent, job, start, end] rows."""
        return [rec[:5] for rec in self.spans]
