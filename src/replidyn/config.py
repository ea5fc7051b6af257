"""Flat key=value experiment configuration with dotted section prefixes.

The format is intentionally minimal so sweep summaries stay diffable:

    grid.n = 201
    init.mass = 1.5
    solver.epsilon = 1e-3

Unknown keys, type mismatches, and invariant violations raise ConfigError
carrying the key name and line number.  Defaults are applied for everything
not mentioned.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ConfigError", "ExperimentConfig", "SweepSpec", "parse_config",
           "SWEEP_AXES", "config_to_text"]


class ConfigError(ValueError):
    pass


# key -> (type kind, default).  Kinds: int, float, str, ints, floats.
_SCHEMA: dict[str, tuple[str, object]] = {
    "grid.dimension": ("int", 1),
    "grid.extents": ("floats", [1.0]),
    "grid.n": ("ints", [201]),
    "init.profile": ("str", "torsion"),
    "init.mass": ("float", 1.0),
    "solver.epsilon": ("float", 1e-3),
    "solver.dt_init": ("float", 1e-3),
    "solver.dt_min": ("float", 1e-12),
    "solver.dt_max": ("float", 5e-2),
    "solver.t_end": ("float", 5.0),
    "solver.sup_cap": ("float", 0.0),        # 0 = auto
    "solver.snapshot_stride": ("int", 10),
    "solver.trace_stride": ("int", 1),
    "solver.reaction_cap_c": ("float", 0.5),
    "diagnostics.margin": ("float", 0.25),
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
    "margin": "diagnostics.margin",
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
        cfg = ExperimentConfig(new)
        _validate(cfg)
        return cfg


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


def _fail(key: str, msg: str, lineno: int | None = None):
    where = f"line {lineno}: " if lineno is not None else ""
    raise ConfigError(f"{where}key {key!r}: {msg}")


def _validate(cfg: ExperimentConfig, lines: dict | None = None) -> None:
    lines = lines or {}
    v = cfg.values

    def ln(key):
        return lines.get(key)

    dim = v["grid.dimension"]
    if dim not in (1, 2):
        _fail("grid.dimension", f"must be 1 or 2, got {dim}", ln("grid.dimension"))
    for key in ("grid.extents", "grid.n"):
        vals = v[key]
        if len(vals) == 1 and dim == 2:
            v[key] = vals * 2
        elif len(vals) != dim:
            _fail(key, f"expected {dim} entries, got {len(vals)}", ln(key))
    if any(e <= 0 for e in v["grid.extents"]):
        _fail("grid.extents", "extents must be positive", ln("grid.extents"))
    if any(n < 3 for n in v["grid.n"]):
        _fail("grid.n", "need at least 3 nodes per axis", ln("grid.n"))
    if not (0.0 < v["solver.epsilon"] < 1.0):
        _fail("solver.epsilon", f"must lie in (0,1), got {v['solver.epsilon']}",
              ln("solver.epsilon"))
    if v["init.mass"] <= 0:
        _fail("init.mass", "must be positive", ln("init.mass"))
    if v["init.profile"] not in ("torsion", "constructed"):
        _fail("init.profile", f"unknown profile {v['init.profile']!r}",
              ln("init.profile"))
    if not (0 < v["solver.dt_min"] <= v["solver.dt_init"] <= v["solver.dt_max"]):
        _fail("solver.dt_init", "need 0 < dt_min <= dt_init <= dt_max",
              ln("solver.dt_init"))
    if v["solver.t_end"] <= 0:
        _fail("solver.t_end", "must be positive", ln("solver.t_end"))
    if v["solver.sup_cap"] < 0 or 0 < v["solver.sup_cap"] <= v["solver.epsilon"]:
        _fail("solver.sup_cap", "must exceed solver.epsilon, or be 0 to select "
              "the automatic cap", ln("solver.sup_cap"))
    for key in ("solver.snapshot_stride", "solver.trace_stride"):
        if v[key] < 1:
            _fail(key, "must be a positive integer", ln(key))
    if not (0 < v["solver.reaction_cap_c"] <= 0.5):
        _fail("solver.reaction_cap_c", "must lie in (0, 0.5]",
              ln("solver.reaction_cap_c"))
    if v["diagnostics.margin"] <= 0:
        _fail("diagnostics.margin", "must be positive", ln("diagnostics.margin"))
    if len(v["replicator.p0"]) == 1:
        _fail("replicator.p0", "need at least 2 strategies", ln("replicator.p0"))
    if v["replicator.payoff"] not in ("coordination", "kernel"):
        _fail("replicator.payoff", f"unknown payoff {v['replicator.payoff']!r}",
              ln("replicator.payoff"))
    for key in ("replicator.dt", "replicator.t_end"):
        if v[key] <= 0:
            _fail(key, "must be positive", ln(key))


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
    cfg = ExperimentConfig(values)
    _validate(cfg, lines_seen)
    return cfg


def config_to_text(cfg: ExperimentConfig) -> str:
    """Serialize back to the flat format (stable key order)."""
    out = []
    for key in _SCHEMA:
        val = cfg.values[key]
        if isinstance(val, list):
            rendered = " ".join(repr(x) if isinstance(x, float) else str(x) for x in val)
        elif isinstance(val, float):
            rendered = repr(val)
        else:
            rendered = str(val)
        out.append(f"{key} = {rendered}")
    return "\n".join(out) + "\n"
