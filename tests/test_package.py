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


def _grid_rules(tree):
    """The kind of each piece of an STFT grid rule in ``tree``: ``n_fft`` compared
    with 16, ``n_fft % 2``, or a sample rate compared with 0 or 1."""
    def name(node):
        return getattr(node, "id", None) or getattr(node, "attr", None)

    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
            if name(node.left) == "n_fft" and getattr(node.right, "value", None) == 2:
                yield "n_fft % 2"
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            names = {name(operand) for operand in operands}
            values = {operand.value for operand in operands if isinstance(operand, ast.Constant)}
            if "n_fft" in names and 16 in values:
                yield "n_fft vs 16"
            if names & {"sample_rate", "rate"} and values & {0, 1}:
                yield "sample rate vs 0 or 1"


def test_only_dsp_holds_the_stft_grid_rule():
    """``dsp.check_grid`` is the one place that says what an STFT grid is;
    every other module calls it, so no second rule can drift from it."""
    found = {path.name: sorted(set(_grid_rules(ast.parse(path.read_text()))))
             for path in sorted((SRC / "speccor").glob("*.py"))}
    assert found.pop("dsp.py") == ["n_fft % 2", "n_fft vs 16", "sample rate vs 0 or 1"]
    assert {name: kinds for name, kinds in found.items() if kinds} == {}


def test_only_dsp_writes_a_mismatch_message():
    """``dsp.check_match`` is the one rule of two grids that meet: no other
    module holds a string that says "mismatch", so no second wording of the
    rule can drift from it, and ``check_applies_to`` is gone."""
    holders = sorted({path.name for path in (SRC / "speccor").glob("*.py")
                      for node in ast.walk(ast.parse(path.read_text()))
                      if isinstance(node, ast.Constant) and "mismatch" in str(node.value)})
    assert holders == ["dsp.py"]
    assert not hasattr(sc.CorrectionCoefficients, "check_applies_to")


def _named(tree):
    """Every name that ``tree`` reads, imports or reaches as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.asname or node.name


def test_only_correction_estimate_turns_statistics_into_coefficients():
    """``cmd_estimate`` hands each device's statistics to ``correction.estimate``
    and names no estimator itself; the aligned frame check lives in ``estimate``
    alone, so the CLI and the library cannot estimate two ways."""
    cli_names = set(_named(ast.parse((SRC / "speccor" / "cli.py").read_text())))
    assert "estimate" in cli_names
    assert cli_names & {"simplified_coefficients", "estimate_unaligned", "aligned_from_sums",
                        "merge_stats"} == set()
    holders = sorted((path.name, func.name)
                     for path in sorted((SRC / "speccor").glob("*.py"))
                     for func in ast.walk(ast.parse(path.read_text()))
                     if isinstance(func, ast.FunctionDef) and any(
                         isinstance(node, ast.Constant) and "unaligned pairs" in str(node.value)
                         for node in ast.walk(func)))
    assert holders == [("correction.py", "estimate")]


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
