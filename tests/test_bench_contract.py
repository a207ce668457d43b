"""What `bench/` needs of the library, read without changing `bench/`.

`bench/tracing.py` wraps snul functions by name, and its install fails when
a name has left `src/`; `bench/workloads.py` expects certify's stages, in
order.  Both would otherwise show only in the benchmark's own runs.
"""
import importlib.util
import sys
from pathlib import Path

import snul.cli  # noqa: F401  (the tracer wraps names in every snul module)
from snul.laguerre_hahn import _CERTIFY_STAGES

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def snul_bindings():
    """Every name bound in a loaded snul module or in a class it defines."""
    owners = [module for name, module in sys.modules.items()
              if name == "snul" or name.startswith("snul.")]
    owners += [value for module in owners for value in vars(module).values()
               if isinstance(value, type) and value.__module__.startswith("snul.")]
    return {(owner, key): value for owner in owners for key, value in vars(owner).items()}


def test_tracer_installs_and_uninstalls(monkeypatch):
    tracing = load_bench("tracing", monkeypatch)
    before = snul_bindings()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        wrapped = {key for key, value in snul_bindings().items() if before[key] is not value}
        assert (sys.modules["snul.laguerre_hahn"], "structure_coeffs_direct") in wrapped
    finally:
        tracer.uninstall()
    assert snul_bindings() == before


def test_certify_stages_match_workloads(monkeypatch):
    assert _CERTIFY_STAGES == load_bench("workloads", monkeypatch).CERTIFY_STAGES
