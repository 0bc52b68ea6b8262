"""Every layer hook the repository benchmark installs names live code.

``perfbench/layers.py`` wraps program functions by dotted name, and the
benchmark refuses to start when one is missing.  This reads the hook
targets from that file's source (nothing under ``perfbench/`` is
imported) and resolves each against ``repro``, so deleting or renaming
a hooked function fails here first.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _hook_targets():
    tree = ast.parse(LAYERS.read_text(encoding="utf-8"))
    return [
        node.args[0].value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "Hook"
        and node.args
        and isinstance(node.args[0], ast.Constant)
    ]


def test_layers_declare_hooks():
    assert len(_hook_targets()) >= 10


@pytest.mark.parametrize("target", _hook_targets())
def test_hook_target_resolves(target):
    module_name, _, qualname = target.partition(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    assert callable(inspect.getattr_static(owner, attr))
