"""Design guards: no config key that nothing reads, one atomic artifact
writer, one owner of the singular time, no reads of mesh's private names
outside mesh, the removed config keys and values rejected by name, and no
import that only a rarely used path needs."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from replidyn import config
from replidyn.config import ConfigError, parse_config

SRC = Path(config.__file__).resolve().parent


def _sources():
    return {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}


def test_every_config_key_is_read_outside_config():
    others = [text for name, text in _sources().items() if name != "config"]
    unread = [key for key in config._SCHEMA
              if not any(f'"{key}"' in text for text in others)]
    assert unread == []


def _replace_calls(tree):
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and ast.unparse(node.func) in ("os.replace", "os.rename")]


def test_one_function_replaces_files():
    sites = []
    for name, text in _sources().items():
        tree = ast.parse(text)
        assert len(_replace_calls(tree)) == sum(
            len(_replace_calls(f)) for f in tree.body if isinstance(f, ast.FunctionDef))
        sites += [f"{name}.{f.name}" for f in tree.body
                  if isinstance(f, ast.FunctionDef) for _ in _replace_calls(f)]
    assert sites == ["experiment.atomic_write_text"]


def test_solver_imports_nothing_from_blowup():
    imported = [ast.unparse(node) for node in ast.walk(ast.parse(_sources()["solver"]))
                if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not [line for line in imported if "blowup" in line]


def test_one_function_estimates_the_singular_time():
    sites = [f"{name}.{f.name}" for name, text in _sources().items()
             for f in ast.walk(ast.parse(text)) if isinstance(f, ast.FunctionDef)
             for node in ast.walk(f) if isinstance(node, ast.Call)
             and ast.unparse(node.func).split(".")[-1] == "estimate_tmax"]
    assert sites == ["blowup.blowup_metrics"]


def test_only_mesh_reads_private_mesh_names():
    # the discrete gradient is public (mesh.edge_differences, mesh.edge_means);
    # no other module reaches into mesh's private helpers
    reads = []
    for name, text in _sources().items():
        if name == "mesh":
            continue
        for node in ast.walk(ast.parse(text)):
            if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                    and ast.unparse(node.value) == "mesh"):
                reads.append(f"{name}: mesh.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "mesh":
                reads += [f"{name}: {alias.name}" for alias in node.names
                          if alias.name.startswith("_")]
    assert reads == []


@pytest.mark.parametrize("key, value", [
    ("seed", "0"),
    ("replicator.enabled", "true"),
    ("solver.scheme", "explicit"),
    ("solver.cfl_c", "0.9"),
    ("replicator.payoff", "identity"),
])
def test_removed_keys_and_values_are_rejected(key, value):
    with pytest.raises(ConfigError, match=rf"line 2: .*{re.escape(key)}"):
        parse_config(f"grid.n = 51\n{key} = {value}\n")


def test_cli_import_leaves_scipy_ndimage_unloaded():
    # only the constructed profile's mollifier convolves; the default torsion
    # profile must not pay for importing scipy.ndimage
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    code = "import sys, replidyn.cli; print('scipy.ndimage' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.strip() == "False"
