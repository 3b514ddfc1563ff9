"""The package's modules import one another in one order: graphs, then
autodiff and eig, then config, cells, exits, training, diagnostics and cli.
So the key table in config stays importable by the builders that read it,
and no import cycle comes back."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "eegnn"
# a module may import, by a relative import, only modules of a lower rank
RANKS = {"graphs": 0, "autodiff": 1, "eig": 1, "config": 2, "cells": 3, "exits": 4,
         "training": 5, "diagnostics": 6, "cli": 7}


def relative_imports(path: Path) -> set[str]:
    """The package modules a file imports, as `from .a import x` or
    `from . import a, b`, at any depth of its code."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            names.update([node.module] if node.module else [a.name for a in node.names])
    return names


def test_every_module_has_a_rank():
    assert {p.stem for p in SRC.glob("*.py")} - {"__init__"} == set(RANKS)


# a fresh interpreter, so that no module an earlier test imported counts
LOADED = """
import sys
import eegnn
print(sorted(m for m in ("eegnn.cli", "argparse") if m in sys.modules))
"""


def test_importing_the_package_leaves_the_cli_unloaded():
    # the benchmark's setup time is a cold `import eegnn`, which compiles
    # every module it loads; cli and argparse serve the command alone
    path = [str(SRC.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run([sys.executable, "-c", LOADED], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("module", sorted(RANKS))
def test_relative_imports_follow_the_layer_order(module):
    imported = relative_imports(SRC / f"{module}.py")
    assert {m: RANKS[m] for m in imported if RANKS[m] >= RANKS[module]} == {}
