"""Flat key=value experiment configuration with dotted section prefixes.

The format is intentionally minimal so sweep summaries stay diffable:

    grid.n = 201
    init.mass = 1.5
    solver.epsilon = 1e-3

Unknown keys, type mismatches, and invariant violations raise ConfigError
carrying the key name and line number.  Defaults are applied for everything
not mentioned.

The grid, solver, mass and sub-box rules are stated here once: each
``*_problems`` function yields (key, reason) for each value no run can use,
``refuse`` raises the first, and the library's entry points apply them too.
The interior box of the estimate checks and of the blow-up core lies
SUBBOX_MARGIN inside the boundary, a property of the harness, not of a run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# the rule functions are public but not listed, as in mesh
__all__ = ["ConfigError", "ExperimentConfig", "SweepSpec", "parse_config",
           "SWEEP_AXES"]


class ConfigError(ValueError):
    pass


# key -> (type kind, default).  Kinds: int, float, str, ints, floats.
_SCHEMA: dict[str, tuple[str, object]] = {
    "grid.dimension": ("int", 1),
    "grid.extents": ("floats", [1.0]),
    "grid.n": ("ints", [201]),
    "init.mass": ("float", 1.0),
    "solver.epsilon": ("float", 1e-3),
    "solver.dt_init": ("float", 1e-3),
    "solver.dt_max": ("float", 5e-2),
    "solver.t_end": ("float", 5.0),
    "solver.sup_cap": ("float", 0.0),        # 0 = auto
    "solver.snapshot_stride": ("int", 10),
    "solver.reaction_cap_c": ("float", 0.5),
    "replicator.payoff": ("str", "coordination"),
    "replicator.t_end": ("float", 10.0),
    "replicator.dt": ("float", 0.01),
    "replicator.p0": ("floats", []),
    "output.dir": ("str", "out"),
}

SWEEP_AXES = {
    "initial_mass": "init.mass",
    "epsilon": "solver.epsilon",
    "dt_init": "solver.dt_init",
}


@dataclass
class ExperimentConfig:
    values: dict

    def __getitem__(self, key: str):
        return self.values[key]

    def with_value(self, key: str, value) -> "ExperimentConfig":
        if key not in _SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        new = dict(self.values)
        new[key] = value
        refuse(_problems(new))
        return ExperimentConfig(new)


def sweep_tag(value) -> str:
    """The tag of a sweep value in its run directory, run_<axis>_<tag>."""
    return f"{value:g}" if isinstance(value, float) else str(value)


@dataclass
class SweepSpec:
    base: ExperimentConfig
    axis: str
    values: list
    parallelism: int = 1

    def __post_init__(self):
        if self.axis not in SWEEP_AXES:
            raise ConfigError(
                f"unknown sweep axis {self.axis!r}; valid axes: {sorted(SWEEP_AXES)}"
            )
        if not self.values:
            raise ConfigError("sweep values list must be nonempty")
        if self.parallelism < 1:
            raise ConfigError("parallelism must be >= 1")
        by_tag: dict[str, list] = {}
        for v in self.values:
            by_tag.setdefault(sweep_tag(v), []).append(v)
        shared = [f"sweep values {', '.join(map(repr, vs))} share the run "
                  f"directory run_{self.axis}_{tag}"
                  for tag, vs in by_tag.items() if len(vs) > 1]
        if shared:
            raise ConfigError("; ".join(shared))

    def configs(self) -> list[ExperimentConfig]:
        key = SWEEP_AXES[self.axis]
        return [self.base.with_value(key, float(v)) for v in self.values]


def _convert(key: str, kind: str, raw: str, lineno: int):
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "str":
            return raw
        if kind == "ints":
            return [int(tok) for tok in raw.split()]
        if kind == "floats":
            return [float(tok) for tok in raw.split()]
    except ValueError:
        raise ConfigError(
            f"line {lineno}: value {raw!r} for key {key!r} is not a valid {kind}"
        ) from None
    raise ConfigError(f"line {lineno}: unhandled kind {kind}")


def grid_problems(dimension: int, extents, n):
    """Yield (key, reason) for each grid setting no run can use."""
    if dimension not in (1, 2):
        yield "grid.dimension", f"must be 1 or 2, got {dimension}"
        return
    for key, values in (("grid.extents", extents), ("grid.n", n)):
        if len(values) != dimension:
            yield key, f"expected {dimension} entries, got {len(values)}"
    if not all(0 < e < math.inf for e in extents):
        yield "grid.extents", f"must be finite and positive, got {extents}"
    if any(k < 3 for k in n):
        yield "grid.n", "need at least 3 nodes per axis"


def solver_default(name: str):
    """SolverParams' default of ``name``: its solver.* key's; for dt_min, the
    step floor that only library callers set, 1e-12."""
    return 1e-12 if name == "dt_min" else _SCHEMA[f"solver.{name}"][1]


def epsilon_problems(eps: float):
    """Yield (key, reason) unless ``eps`` lies in (0, 1)."""
    if not 0.0 < eps < 1.0:
        yield "solver.epsilon", f"must lie in (0,1), got {eps}"


def mass_problems(mass: float):
    """Yield (key, reason) unless the corrected mass is finite and positive."""
    if not 0.0 < mass < math.inf:
        yield "init.mass", f"must be finite and positive, got {mass}"


def solver_settings(values: dict) -> dict:
    """The solver.* keys of ``values`` by their SolverParams field names."""
    return {key.removeprefix("solver."): value for key, value in values.items()
            if key.startswith("solver.")}


def solver_problems(params: dict):
    """Yield (key, reason) for each solver setting no run can use; ``params``
    maps every field of SolverParams to its value."""
    for name, value in params.items():  # NaN fails no comparison
        if not math.isfinite(value):
            yield f"solver.{name}", f"must be finite, got {value}"
    eps, cap = params["epsilon"], params["sup_cap"]
    yield from epsilon_problems(eps)
    if not 0 < params["dt_min"] <= params["dt_init"] <= params["dt_max"]:
        yield "solver.dt_init", "need 0 < dt_min <= dt_init <= dt_max"
    if params["t_end"] <= 0:
        yield "solver.t_end", "must be positive"
    if cap < 0 or 0 < cap <= eps:
        yield "solver.sup_cap", ("must exceed solver.epsilon, or be 0 to select "
                                 "the automatic cap")
    if params["snapshot_stride"] < 1:
        yield "solver.snapshot_stride", "must be a positive integer"
    if not 0 < params["reaction_cap_c"] <= 0.5:
        yield "solver.reaction_cap_c", "must lie in (0, 0.5]"


SUBBOX_MARGIN = 0.25


def subbox_nodes(extents, n, margin: float) -> list[list[int]]:
    """Per axis, the nodes of the uniform grid (n nodes on [0, extent]) that
    lie in the concentric box shrunk by ``margin`` per side."""
    return [[i for i in range(k)
             if margin - 1e-12 <= i * (e / (k - 1)) <= e - margin + 1e-12]
            for e, k in zip(extents, n)]


def margin_problem(extents, n, margin: float) -> str | None:
    """Why ``margin`` leaves no sub-box to solve on, or None if it leaves one."""
    kept = min(map(len, subbox_nodes(extents, n, margin)))
    if margin <= 0 or kept < 3:
        return (f"need at least 3 nodes per axis of the box {margin} inside "
                f"the boundary (a positive margin); it keeps {kept}")
    return None


def _problems(v: dict, keys=()):
    """(key, reason) for each value of a config no run can use, up to the
    first: the rules after grid_problems assume a usable grid.  Too few
    sub-box nodes are blamed on grid.n, unless ``keys`` (those the config
    sets) hold grid.extents and not grid.n."""
    for key, (kind, _) in _SCHEMA.items():
        if kind in ("float", "floats") and not key.startswith(("grid.", "solver.")):
            if not all(map(math.isfinite, v[key] if kind == "floats" else [v[key]])):
                yield key, f"must be finite, got {v[key]}"
    yield from grid_problems(v["grid.dimension"], v["grid.extents"], v["grid.n"])
    yield from solver_problems({"dt_min": solver_default("dt_min"), **solver_settings(v)})
    yield from mass_problems(v["init.mass"])
    if reason := margin_problem(v["grid.extents"], v["grid.n"], SUBBOX_MARGIN):
        yield next((k for k in ("grid.n", "grid.extents") if k in keys), "grid.n"), reason
    if len(v["replicator.p0"]) == 1:
        yield "replicator.p0", "need at least 2 strategies"
    if v["replicator.payoff"] not in ("coordination", "laplacian"):
        yield "replicator.payoff", f"unknown payoff {v['replicator.payoff']!r}"
    for key in ("replicator.dt", "replicator.t_end"):
        if v[key] <= 0:
            yield key, "must be positive"


def refuse(problems, lines: dict | None = None) -> None:
    """Raise the first (key, reason) of ``problems`` as a ConfigError (a
    ValueError), with the key's line if ``lines`` has it."""
    for key, reason in problems:
        where = f"line {lines[key]}: " if lines and key in lines else ""
        raise ConfigError(f"{where}key {key!r}: {reason}")


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a flat key=value configuration."""
    values = {k: (list(d) if isinstance(d, list) else d) for k, (_, d) in _SCHEMA.items()}
    lines_seen: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        kind, _ = _SCHEMA[key]
        values[key] = _convert(key, kind, raw, lineno)
        lines_seen[key] = lineno
    for key in ("grid.extents", "grid.n"):  # one value serves both axes of 2D
        if len(values[key]) == 1 and values["grid.dimension"] == 2:
            values[key] = values[key] * 2
    refuse(_problems(values, lines_seen), lines_seen)
    return ExperimentConfig(values)
