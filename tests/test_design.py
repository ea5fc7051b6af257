"""Design guards: no config key that nothing reads, one atomic artifact
writer, one owner of the singular time, one assembly of the Laplacian, no
reads of mesh's private names outside mesh, the removed config keys and
values rejected by name, README's key table in step with the schema, no
import that only a rarely used path needs, a time step on plain arrays, and
no dead private helper or unused import."""

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


def test_solver_step_builds_no_field_and_reads_no_interior_mask():
    # the step carries plain arrays and addresses the interior by slices
    tree = ast.parse(_sources()["solver"])
    step, = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "step"]
    calls = {ast.unparse(node.func) for node in ast.walk(step) if isinstance(node, ast.Call)}
    assert "Field" not in calls
    attributes = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert "interior_mask" not in attributes


def test_one_function_estimates_the_singular_time():
    sites = [f"{name}.{f.name}" for name, text in _sources().items()
             for f in ast.walk(ast.parse(text)) if isinstance(f, ast.FunctionDef)
             for node in ast.walk(f) if isinstance(node, ast.Call)
             and ast.unparse(node.func).split(".")[-1] == "estimate_tmax"]
    assert sites == ["blowup.blowup_metrics"]


def _laplacian_assembly_calls(tree):
    """Calls that build the stencil's sparse blocks or their tensor product:
    any kron, and diags with offsets [-1, 0, 1]."""
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = ast.unparse(node.func).split(".")[-1]
        offsets = [ast.unparse(a) for a in node.args[1:2]]
        offsets += [ast.unparse(k.value) for k in node.keywords if k.arg == "offsets"]
        if name == "kron" or (name == "diags" and "[-1, 0, 1]" in offsets):
            calls.append(ast.unparse(node))
    return calls


def test_only_mesh_assembles_the_laplacian():
    # the torsion solve, the time step, laplacian() and the init-data check
    # all use mesh.dirichlet_laplacian; a second assembly could drift from it
    sites = {name: _laplacian_assembly_calls(ast.parse(text))
             for name, text in _sources().items()}
    assert sites.pop("mesh")
    assert {name: calls for name, calls in sites.items() if calls} == {}


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


RETIRED = {
    "init.mollify_radius": "0.02", "init.margin_rho": "0.02",
    "init.margin_theta": "0.2", "init.bound_l": "1.0",
    "solver.decay_threshold": "0.05", "diagnostics.enabled": "false",
    "diagnostics.q": "0.5", "diagnostics.mass_ode_tol": "0.05",
    "diagnostics.h_identity_tol": "0.05", "diagnostics.bound_slack": "0.1",
    "diagnostics.phi_norm_slack": "0.05", "replicator.strategies": "3",
    "replicator.sigma": "0.05", "replicator.grid_n": "201",
}


@pytest.mark.parametrize("key, value", [
    ("seed", "0"),
    ("replicator.enabled", "true"),
    ("solver.scheme", "explicit"),
    ("solver.cfl_c", "0.9"),
    ("replicator.payoff", "identity"),
    *RETIRED.items(),
])
def test_removed_keys_and_values_are_rejected(key, value):
    with pytest.raises(ConfigError, match=rf"line 2: .*{re.escape(key)}"):
        parse_config(f"grid.n = 51\n{key} = {value}\n")


def _readme_table(header: str) -> dict:
    """The rows of the README table under ``header``: first cell -> second."""
    lines = (SRC.parents[1] / "README.md").read_text().splitlines()
    start = lines.index(header) + 2
    rows = {}
    for line in lines[start:]:
        if not line.startswith("| `"):
            break
        key, value = re.match(r"\| `([^`]+)` \| (.*?) \|", line).groups()
        rows[key] = value.strip().strip("`")
    return rows


def test_readme_lists_the_config_keys_with_their_defaults():
    table = _readme_table("| key | default | meaning |")
    assert list(table) == list(config._SCHEMA)
    for key, raw in table.items():
        kind, default = config._SCHEMA[key]
        assert config._convert(key, kind, raw, 0) == default, key
    retired = _readme_table("| retired key | value now |")
    assert sorted(retired) == sorted(RETIRED)


def _loaded_names(node) -> set:
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def test_every_private_helper_is_used_elsewhere_in_src():
    # a module-level private function or class that no other top-level
    # statement of the package names is dead code
    statements = [(name, stmt) for name, text in _sources().items()
                  for stmt in ast.parse(text).body]
    unused = []
    for name, stmt in statements:
        if (isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                and stmt.name.startswith("_")
                and not any(stmt.name in _loaded_names(other)
                            for _, other in statements if other is not stmt)):
            unused.append(f"{name}.{stmt.name}")
    assert unused == []


def test_every_imported_name_is_used():
    # __init__ imports only to re-export
    unused = []
    for name, text in _sources().items():
        if name == "__init__":
            continue
        tree = ast.parse(text)
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{name}: {bound}")
    assert unused == []


def test_cli_import_leaves_scipy_ndimage_unloaded():
    # only the constructed profile's mollifier convolves; the default torsion
    # profile must not pay for importing scipy.ndimage
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    code = "import sys, replidyn.cli; print('scipy.ndimage' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.strip() == "False"
