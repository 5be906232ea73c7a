"""The benchmark's tracer must still find every function it names in the package.

A refactor that deletes or renames a traced function would otherwise not fail:
its per-layer metric would quietly read 0.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # The package loads its modules on first use; the tracer patches every layer.
    for layer in module.LAYERS:
        importlib.import_module(f"speccor.{layer}")
    return module


def _package_bindings():
    return {(name, attr): obj for name, mod in list(sys.modules.items())
            if name == "speccor" or name.startswith("speccor.")
            for attr, obj in vars(mod).items()}


def test_every_traced_name_is_a_function_of_its_module(tracer):
    for name in sorted({*tracer.COUNTERS, *tracer.REDUCE}):
        layer, attr = name.split(".")
        obj = getattr(sys.modules[f"speccor.{layer}"], attr, None)
        # An alias would make the tracer name its spans after another binding.
        assert inspect.isfunction(obj) and obj.__module__ == f"speccor.{layer}", name
        assert obj.__name__ == attr, name


def test_install_wraps_the_traced_functions_and_uninstall_restores_them(tracer):
    before = _package_bindings()
    cli = sys.modules["speccor.cli"]
    traced = tracer.Tracer()
    traced.install()
    try:
        assert cli._map_ordered is not before["speccor.cli", "_map_ordered"]
        for name in {*tracer.COUNTERS, *tracer.REDUCE}:
            layer, attr = name.split(".")
            module = f"speccor.{layer}"
            assert getattr(sys.modules[module], attr) is not before[module, attr], name
    finally:
        traced.uninstall()
    after = _package_bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
