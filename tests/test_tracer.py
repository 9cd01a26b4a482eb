"""The benchmark's tracer finds the package's functions by name.

A rename or a removal in the package breaks ``perfbench/run.py --trace 1``
at install, so installing it here guards those names.
"""
import importlib
import importlib.util
from pathlib import Path

import quasikernel

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_the_package():
    tracer_module = load_tracer()
    modules = [quasikernel]
    modules += [importlib.import_module(f"quasikernel.{name}") for name in tracer_module.MODULES]
    before = [dict(vars(module)) for module in modules]
    classes = [quasikernel.Digraph, quasikernel.SplitDigraph, quasikernel.QkCertificate]
    methods = [dict(vars(cls)) for cls in classes]
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        assert quasikernel.Digraph.__dict__["induced"] is not methods[0]["induced"]
    finally:
        tracer.uninstall()
    assert [dict(vars(module)) for module in modules] == before
    assert [dict(vars(cls)) for cls in classes] == methods
