"""The package's public names, checked in a fresh interpreter: ``import speccor``
loads no submodule, so what an earlier test imported must not hide a name that
fails to resolve on its own."""

import os
import subprocess
import sys
from pathlib import Path

import speccor as sc

SRC = Path(sc.__file__).resolve().parents[1]

PUBLIC_API_CHECKS = r"""
import ast
import sys
from pathlib import Path

import speccor as sc

package = Path(sc.__file__).parent
submodules = sorted(p.stem for p in package.glob("*.py") if not p.stem.startswith("_"))

# A submodule attribute resolves before anything has imported that submodule.
assert sc.fir is sys.modules["speccor.fir"], sc.fir
for name in submodules:
    assert getattr(sc, name) is sys.modules[f"speccor.{name}"], name


def defined_names(name):
    # Top-level names a module defines itself; an imported name is not among them.
    tree = ast.parse((package / f"{name}.py").read_text())
    found = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found.update(t.id for t in targets if isinstance(t, ast.Name))
    return found


definers = {name: defined_names(name) for name in submodules}
for name in sc.__all__:
    homes = [module for module, names in definers.items() if name in names]
    assert len(homes) == 1, (name, homes)
    assert getattr(sc, name) is getattr(sys.modules[f"speccor.{homes[0]}"], name), name

star = {}
exec("from speccor import *", star)
assert sorted(set(star) - {"__builtins__"}) == sorted(sc.__all__)
assert all(star[name] is getattr(sc, name) for name in sc.__all__)
listed = dir(sc)
assert set(sc.__all__) | set(submodules) <= set(listed), sorted(set(sc.__all__) - set(listed))
assert listed == sorted(listed)

try:
    sc.no_such_name
except AttributeError as exc:
    assert "'no_such_name'" in str(exc), exc
else:
    raise AssertionError("sc.no_such_name resolved")
print("ok")
"""


def test_every_public_name_resolves_to_the_object_its_module_defines():
    result = subprocess.run([sys.executable, "-c", PUBLIC_API_CHECKS], capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert result.returncode == 0, result.stderr
    assert result.stdout == "ok\n"
