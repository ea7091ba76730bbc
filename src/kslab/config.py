"""Flat key=value run and sweep configuration files.

Sections with one level of keys, parseable by configparser, emitted in a
normalized order so that parse(emit(parse(text))) == parse(text).  Example:

    [domain]
    kind = disk

    [grid]
    radial_n = 1024
    radial_ratio = 1.0

    [regularization]
    kind = nonlinear_diffusion
    epsilon = 1e-3

    [initial]
    kind = gaussian
    mass = 12.566
    width = 0.1

    [time]
    t_end = 0.05
    dt_policy = cfl
    snapshot_dt = 1e-3

    [output]
    seed = 1

Parsing and emission both walk the key tables ``_RUN_KEYS`` and
``_SWEEP_KEYS``.  A key they do not list for the config's domain is a
``ConfigError``; ``SolverConfig`` checks the solver values and
``SweepPlanConfig`` that a sweep plan can run.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from pathlib import Path

from .solver import RegKind, SolverConfig

__all__ = ["RunConfig", "SweepPlanConfig", "parse_run_config", "emit_run_config", "parse_sweep_plan", "emit_sweep_plan", "ConfigError"]


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    domain: str = "disk"  # "disk" | "rectangle"
    solver: SolverConfig = field(default_factory=SolverConfig)
    reg: RegKind = field(default_factory=lambda: RegKind("nonlinear_diffusion", 1e-3))
    initial_kind: str = "gaussian"
    initial_params: dict = field(default_factory=lambda: {"mass": 4.0, "width": 0.1})
    out_dir: str | None = None
    seed: int = 0


# per domain, the initial kinds its catalog builds and the [initial] keys of each
_INITIAL_PARAM_KEYS = {
    "disk": {
        "gaussian": ["mass", "width"],
        "annulus": ["mass", "r0", "width"],
        "constant": ["value"],
    },
    "rectangle": {
        "gaussian": ["mass", "width", "center_x", "center_y"],
        "constant": ["value"],
        "two_bump": ["mass", "center1_x", "center1_y", "width1", "center2_x", "center2_y", "width2", "ratio"],
    },
}
# the [initial] keys a kind may leave out; every other listed key is required
_OPTIONAL_INITIAL_KEYS = ("center_x", "center_y", "ratio")
# the [grid] keys each domain reads
_GRID_KEYS = {"disk": ("radial_n", "radial_ratio"), "rectangle": ("nx", "ny", "lx", "ly")}


# a key's type: (text -> value, value -> text); a key whose value is None is not emitted
_INT = (int, str)
_FLOAT = (float, lambda x: repr(float(x)))
_WORD = (str, str)
_WORD_OR_NONE = (lambda text: text or None, str)
_FLOAT_OR_NONE = (lambda text: float(text) if text else None, _FLOAT[1])
_WORDS = (str.split, " ".join)
_FLOATS = (lambda text: [float(tok) for tok in text.split()], lambda xs: " ".join(map(_FLOAT[1], xs)))
_FLOAT_TUPLE = (lambda text: tuple(_FLOATS[0](text)), _FLOATS[1])

# (section, key, field, type); a dotted field is an attribute of
# RunConfig.solver or RunConfig.reg, or an entry of RunConfig.initial_params
_RUN_KEYS = (
    ("domain", "kind", "domain", _WORD),
    ("grid", "radial_n", "solver.radial_n", _INT),
    ("grid", "radial_ratio", "solver.radial_ratio", _FLOAT),
    ("grid", "nx", "solver.nx", _INT),
    ("grid", "ny", "solver.ny", _INT),
    ("grid", "lx", "solver.lx", _FLOAT),
    ("grid", "ly", "solver.ly", _FLOAT),
    ("regularization", "kind", "reg.variant", _WORD),
    ("regularization", "epsilon", "reg.epsilon", _FLOAT),
    ("initial", "kind", "initial_kind", _WORD),  # then the domain's _INITIAL_PARAM_KEYS for the kind
    ("time", "t_end", "solver.t_end", _FLOAT),
    ("time", "dt_policy", "solver.dt_policy", _WORD),
    ("time", "dt", "solver.dt_fixed", _FLOAT),
    ("time", "cfl_safety", "solver.cfl_safety", _FLOAT),
    ("time", "snapshot_dt", "solver.snapshot_dt", _FLOAT_OR_NONE),
    ("stopping", "dt_min", "solver.dt_min", _FLOAT),
    ("stopping", "flag_factor", "solver.flag_umax_factor", _FLOAT),
    ("stopping", "stop_factor", "solver.stop_umax_factor", _FLOAT),
    ("output", "dir", "out_dir", _WORD_OR_NONE),
    ("output", "seed", "seed", _INT),
)
# a sweep plan is a [sweep] section followed by the run config it varies
_SWEEP_KEYS = (
    ("sweep", "epsilons", "epsilons", _FLOATS),
    ("sweep", "regs", "regs", _WORDS),
    ("sweep", "matched_offsets", "matched_offsets", _FLOAT_TUPLE),
    ("sweep", "rho_ladder", "rho_ladder", _FLOAT_TUPLE),
    ("sweep", "seed", "seed", _INT),
    ("sweep", "dir", "out_dir", _WORD_OR_NONE),
)


def _run_keys(domain: str, initial_kind: str) -> list:
    """The rows of ``_RUN_KEYS`` a config of this domain and initial kind takes."""
    rows = []
    for row in _RUN_KEYS:
        if row[0] != "grid" or row[1] in _GRID_KEYS[domain]:
            rows.append(row)
        if row[2] == "initial_kind":
            rows += [("initial", k, f"initial_params.{k}", _FLOAT) for k in _INITIAL_PARAM_KEYS[domain][initial_kind]]
    return rows


def _parser(path, text: str | None) -> configparser.ConfigParser:
    cp = configparser.ConfigParser()
    try:
        cp.read_string(Path(path).read_text() if text is None else text, source=str(path or "<string>"))
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc
    return cp


def _read(cp: configparser.ConfigParser, rows) -> dict:
    """Field -> value of each key the file sets; a key the rows' sections do not list is an error."""
    sections: dict[str, list] = {}
    for section, key, _, _ in rows:
        sections.setdefault(section, []).append(key)
    for section, keys in sections.items():
        for key in cp[section] if cp.has_section(section) else ():
            if key not in keys:
                raise ConfigError(f"unknown key {key!r} in [{section}]; it takes {', '.join(keys)}")
    values = {}
    for section, key, name, (parse, _) in rows:
        if cp.has_option(section, key):
            try:
                values[name] = parse(cp.get(section, key))
            except (ValueError, configparser.Error) as exc:
                raise ConfigError(f"[{section}] {key}: {exc}") from exc
    return values


def _emit(obj, rows) -> str:
    blocks: dict[str, list] = {}
    for section, key, name, (_, fmt) in rows:
        value = obj
        for attr in name.split("."):
            value = value.get(attr) if isinstance(value, dict) else getattr(value, attr)
        lines = blocks.setdefault(section, [f"[{section}]"])
        if value is not None:
            lines.append(f"{key} = {fmt(value)}")
    return "\n\n".join("\n".join(lines) for lines in blocks.values()) + "\n"


def parse_run_config(path, text: str | None = None) -> RunConfig:
    return _run_config(_parser(path, text))


def _run_config(cp: configparser.ConfigParser) -> RunConfig:
    try:
        dom = cp.get("domain", "kind", fallback="disk")
        kind = cp.get("initial", "kind")
    except configparser.Error as exc:
        raise ConfigError(f"missing required field: {exc}") from exc
    if dom not in _INITIAL_PARAM_KEYS:
        raise ConfigError(f"unknown domain kind {dom!r}")
    if kind not in _INITIAL_PARAM_KEYS[dom]:
        raise ConfigError(f"initial kind {kind!r} is not available on domain {dom!r}")
    rows = _run_keys(dom, kind)
    unknown = set(cp.sections()) - {row[0] for row in rows}
    if unknown:
        raise ConfigError(f"unknown section [{min(unknown)}]")
    values = _read(cp, rows)
    missing = [k for k in _INITIAL_PARAM_KEYS[dom][kind] if k not in _OPTIONAL_INITIAL_KEYS and k not in cp["initial"]]
    if missing:
        raise ConfigError(f"[initial] kind = {kind} needs {', '.join(missing)}")
    if "reg.variant" not in values or "reg.epsilon" not in values:
        raise ConfigError("missing required field: [regularization] needs kind and epsilon")
    parts: dict[str, dict] = {"": {}, "solver": {}, "reg": {}, "initial_params": {}}
    for name, value in values.items():
        owner, _, attr = name.rpartition(".")
        parts[owner][attr] = value
    try:
        reg = RegKind(**parts["reg"])
        solver = SolverConfig(**parts["solver"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if not reg.epsilon > 0:
        raise ConfigError(f"epsilon must be positive, got {reg.epsilon}")
    return RunConfig(solver=solver, reg=reg, initial_params=parts["initial_params"], **parts[""])


def emit_run_config(cfg: RunConfig) -> str:
    return _emit(cfg, _run_keys(cfg.domain, cfg.initial_kind))


@dataclass
class SweepPlanConfig:
    epsilons: list = field(default_factory=list)
    regs: list = field(default_factory=lambda: ["cutoff_flux", "nonlinear_diffusion"])
    base: RunConfig = field(default_factory=RunConfig)
    matched_offsets: tuple = (0.01, 0.02, 0.05)
    rho_ladder: tuple = (0.02, 0.03, 0.05, 0.08, 0.12)
    seed: int = 0
    out_dir: str | None = None

    def __post_init__(self):
        eps = list(self.epsilons)
        if len(eps) < 2:
            raise ConfigError(f"trend fitting needs at least two epsilons, got {len(eps)}")
        if not all(e > 0 for e in eps):
            raise ConfigError("epsilons must be positive")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ConfigError("epsilon list must be strictly decreasing")
        if not self.regs:
            raise ConfigError("regs must name at least one regularization")
        for rg in self.regs:
            if rg not in ("cutoff_flux", "nonlinear_diffusion"):
                raise ConfigError(f"unknown regularization {rg!r} in sweep plan")
        if self.base.domain != "disk":
            raise ConfigError("sweeps run on the radial disk backend; the base domain must be disk")
        if len(self.rho_ladder) < 3:
            # atom_estimate takes the flattest window of three ladder radii
            raise ConfigError(f"rho_ladder needs at least three radii, got {len(self.rho_ladder)}")


def parse_sweep_plan(path, text: str | None = None) -> SweepPlanConfig:
    cp = _parser(path, text)
    if not cp.has_section("sweep"):
        raise ConfigError("missing [sweep] section")
    values = _read(cp, _SWEEP_KEYS)
    cp.remove_section("sweep")
    if not cp.has_section("regularization"):
        # each run sets its own; the base needs only a valid one
        cp.read_dict({"regularization": {"kind": "nonlinear_diffusion", "epsilon": "1.0e-3"}})
    return SweepPlanConfig(base=_run_config(cp), **values)


def emit_sweep_plan(plan: SweepPlanConfig) -> str:
    return _emit(plan, _SWEEP_KEYS) + emit_run_config(plan.base)
