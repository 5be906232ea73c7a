"""The package's public names, checked in a fresh interpreter: ``import speccor``
loads no submodule, so what an earlier test imported must not hide a name that
fails to resolve on its own."""

import ast
import inspect
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


# Calls that publish or remove a file: os.replace and its kin, and the Path
# methods unlink, write_text and rename on any object (str.replace shares
# Path.replace's name, so only os.replace is caught).
_PUBLISHING_OS_CALLS = {"replace", "rename", "remove", "unlink"}
_PUBLISHING_METHODS = {"unlink", "write_text", "rename"}


def _publishing_calls(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            owner, name = node.func.value, node.func.attr
            if isinstance(owner, ast.Name) and owner.id == "os":
                if name in _PUBLISHING_OS_CALLS:
                    yield node
            elif name in _PUBLISHING_METHODS:
                yield node


def test_only_the_files_helper_publishes_or_removes_a_file():
    """Every output goes through ``files.staged``: no other code renames a
    file into place, removes one or writes one whole with ``write_text``."""
    package = SRC / "speccor"
    found = {}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = set()
        if path.name == "files.py":
            helper = [node for node in tree.body
                      if isinstance(node, ast.FunctionDef) and node.name == "staged"]
            assert len(helper) == 1
            allowed = {id(node) for node in _publishing_calls(helper[0])}
            assert len(allowed) == 2, "staged renames its parts and removes them"
        for node in _publishing_calls(tree):
            if id(node) not in allowed:
                found.setdefault(path.name, []).append((node.lineno, ast.unparse(node.func)))
    assert found == {}


# Every option of these callables, and every field of the two grids, with its
# default. An option that no caller sets is a constant in the code instead (one
# Hann window, one full-band unit-height mel bank, one float32 WAV writer), so
# one comes back only with an edit here.
PINNED_PARAMETERS = {
    sc.stft: "w n_fft=2048 hop=512",
    sc.apply_gains: "w curves n_fft=2048 hop=512",
    sc.dsp.shaped_blocks: "audio curves n_fft=2048 hop=512",
    sc.band_bins: "n_fft sample_rate",
    sc.geometric_mean: "values",
    sc.mel_filterbank: "sample_rate n_fft n_mels=256",
    sc.create_wav: "path sample_rate samples",
    sc.write_wav: "path w",
    sc.design_ls: "c num_taps=1025",
    sc.dsp.Spectrogram: "matrix n_fft hop sample_rate",
    sc.MelFilterbank: "weights n_mels n_fft sample_rate center_frequencies",
}


def test_options_no_caller_sets_stay_constants():
    def parameters(obj):
        return " ".join(p.name if p.default is p.empty else f"{p.name}={p.default!r}"
                        for p in inspect.signature(obj).parameters.values())
    assert {obj.__name__: parameters(obj) for obj in PINNED_PARAMETERS} == \
        {obj.__name__: pinned for obj, pinned in PINNED_PARAMETERS.items()}
