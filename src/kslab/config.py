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
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field

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


_INITIAL_PARAM_KEYS = {
    "gaussian": ["mass", "width", "center_x", "center_y"],
    "annulus": ["mass", "r0", "width"],
    "constant": ["value"],
    "two_bump": ["mass", "center1_x", "center1_y", "width1", "center2_x", "center2_y", "width2", "ratio"],
}
# the [initial] keys a kind may leave out; every other listed key is required
_OPTIONAL_INITIAL_KEYS = ("center_x", "center_y", "ratio")
# initial kinds each domain's catalog builds
_DOMAIN_INITIAL_KINDS = {
    "disk": ("gaussian", "annulus", "constant"),
    "rectangle": ("gaussian", "constant", "two_bump"),
}


def _parser(path_or_text: str, is_text: bool) -> configparser.ConfigParser:
    cp = configparser.ConfigParser()
    try:
        if is_text:
            cp.read_string(path_or_text)
        else:
            with open(path_or_text) as fh:
                cp.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc
    return cp


def _positive(name: str, value: float) -> float:
    if value <= 0:
        raise ConfigError(f"{name} must be positive, got {value}")
    return value


def parse_run_config(path, text: str | None = None) -> RunConfig:
    cp = _parser(text if text is not None else path, text is not None)
    cfg = RunConfig()
    try:
        dom = cp.get("domain", "kind", fallback="disk")
        if dom not in ("disk", "rectangle"):
            raise ConfigError(f"unknown domain kind {dom!r}")
        cfg.domain = dom
        if cp.has_section("probes"):
            raise ConfigError("[probes] is not supported")
        sol = SolverConfig()
        if cp.has_section("grid"):
            g = cp["grid"]
            sol.radial_n = int(g.get("radial_n", sol.radial_n))
            sol.radial_ratio = float(g.get("radial_ratio", sol.radial_ratio))
            sol.nx = int(g.get("nx", sol.nx))
            sol.ny = int(g.get("ny", sol.ny))
            sol.lx = _positive("lx", float(g.get("lx", sol.lx)))
            sol.ly = _positive("ly", float(g.get("ly", sol.ly)))
        if cp.has_section("time"):
            tsec = cp["time"]
            sol.t_end = _positive("t_end", float(tsec.get("t_end", sol.t_end)))
            sol.dt_policy = tsec.get("dt_policy", sol.dt_policy)
            if sol.dt_policy not in ("cfl", "fixed"):
                raise ConfigError(f"dt_policy must be cfl or fixed, got {sol.dt_policy!r}")
            sol.dt_fixed = _positive("dt", float(tsec.get("dt", sol.dt_fixed)))
            sol.cfl_safety = float(tsec.get("cfl_safety", sol.cfl_safety))
            snap = tsec.get("snapshot_dt", "")
            sol.snapshot_dt = _positive("snapshot_dt", float(snap)) if snap else None
        if cp.has_section("stopping"):
            ssec = cp["stopping"]
            sol.dt_min = float(ssec.get("dt_min", sol.dt_min))
            sol.flag_umax_factor = float(ssec.get("flag_factor", sol.flag_umax_factor))
            sol.stop_umax_factor = float(ssec.get("stop_factor", sol.stop_umax_factor))
        cfg.solver = sol
        reg_kind = cp.get("regularization", "kind")
        eps = float(cp.get("regularization", "epsilon"))
        cfg.reg = RegKind(reg_kind, _positive("epsilon", eps))
        ini = cp["initial"]
        cfg.initial_kind = ini.get("kind")
        if cfg.initial_kind not in _INITIAL_PARAM_KEYS:
            raise ConfigError(f"unknown initial kind {cfg.initial_kind!r}")
        if cfg.initial_kind not in _DOMAIN_INITIAL_KINDS[dom]:
            raise ConfigError(f"initial kind {cfg.initial_kind!r} is not available on domain {dom!r}")
        keys = _INITIAL_PARAM_KEYS[cfg.initial_kind]
        missing = [k for k in keys if k not in ini and k not in _OPTIONAL_INITIAL_KEYS]
        if missing:
            raise ConfigError(f"[initial] kind = {cfg.initial_kind} needs {', '.join(missing)}")
        cfg.initial_params = {k: float(ini[k]) for k in keys if k in ini}
        if cp.has_section("output"):
            cfg.out_dir = cp["output"].get("dir", None)
            cfg.seed = int(cp["output"].get("seed", 0))
    except (configparser.NoSectionError, configparser.NoOptionError, KeyError) as exc:
        raise ConfigError(f"missing required field: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def emit_run_config(cfg: RunConfig) -> str:
    sol = cfg.solver
    lines = ["[domain]", f"kind = {cfg.domain}", "", "[grid]"]
    if cfg.domain == "disk":
        lines += [f"radial_n = {sol.radial_n}", f"radial_ratio = {_r(sol.radial_ratio)}"]
    else:
        lines += [f"nx = {sol.nx}", f"ny = {sol.ny}", f"lx = {_r(sol.lx)}", f"ly = {_r(sol.ly)}"]
    lines += [
        "",
        "[regularization]",
        f"kind = {cfg.reg.variant}",
        f"epsilon = {_r(cfg.reg.epsilon)}",
        "",
        "[initial]",
        f"kind = {cfg.initial_kind}",
    ]
    for k in _INITIAL_PARAM_KEYS[cfg.initial_kind]:
        if k in cfg.initial_params:
            lines.append(f"{k} = {_r(cfg.initial_params[k])}")
    lines += [
        "",
        "[time]",
        f"t_end = {_r(sol.t_end)}",
        f"dt_policy = {sol.dt_policy}",
        f"dt = {_r(sol.dt_fixed)}",
        f"cfl_safety = {_r(sol.cfl_safety)}",
    ]
    if sol.snapshot_dt is not None:
        lines.append(f"snapshot_dt = {_r(sol.snapshot_dt)}")
    lines += [
        "",
        "[stopping]",
        f"dt_min = {_r(sol.dt_min)}",
        f"flag_factor = {_r(sol.flag_umax_factor)}",
        f"stop_factor = {_r(sol.stop_umax_factor)}",
    ]
    lines += ["", "[output]"]
    if cfg.out_dir:
        lines.append(f"dir = {cfg.out_dir}")
    lines.append(f"seed = {cfg.seed}")
    return "\n".join(lines) + "\n"


def _r(x: float) -> str:
    return repr(float(x))


@dataclass
class SweepPlanConfig:
    epsilons: list
    regs: list
    base: RunConfig
    matched_offsets: tuple = (0.01, 0.02, 0.05)
    rho_ladder: tuple = (0.02, 0.03, 0.05, 0.08, 0.12)
    seed: int = 0
    out_dir: str | None = None

    def __post_init__(self):
        eps = list(self.epsilons)
        if not eps:
            raise ConfigError("epsilon list must not be empty")
        if any(e <= 0 for e in eps):
            raise ConfigError("epsilons must be positive")
        if any(b >= a for a, b in zip(eps, eps[1:])) and len(eps) > 1:
            if not all(b < a for a, b in zip(eps, eps[1:])):
                raise ConfigError("epsilon list must be strictly decreasing")


def parse_sweep_plan(path, text: str | None = None) -> SweepPlanConfig:
    cp = _parser(text if text is not None else path, text is not None)
    try:
        sw = cp["sweep"]
        eps = [float(tok) for tok in sw.get("epsilons", "").split()]
        regs = sw.get("regs", "cutoff_flux nonlinear_diffusion").split()
        offsets = tuple(float(t) for t in sw.get("matched_offsets", "0.01 0.02 0.05").split())
        ladder = tuple(float(t) for t in sw.get("rho_ladder", "0.02 0.03 0.05 0.08 0.12").split())
        seed = int(sw.get("seed", 0))
        out = sw.get("dir", None)
    except KeyError as exc:
        raise ConfigError(f"missing [sweep] section: {exc}") from exc
    for rg in regs:
        if rg not in ("cutoff_flux", "nonlinear_diffusion"):
            raise ConfigError(f"unknown regularization {rg!r} in sweep plan")
    base_text_lines = []
    for section in cp.sections():
        if section == "sweep":
            continue
        base_text_lines.append(f"[{section}]")
        for key, value in cp[section].items():
            base_text_lines.append(f"{key} = {value}")
        base_text_lines.append("")
    base_text = "\n".join(base_text_lines)
    if "[regularization]" not in base_text:
        base_text += "\n[regularization]\nkind = nonlinear_diffusion\nepsilon = 1.0e-3\n"
    base = parse_run_config(None, text=base_text)
    return SweepPlanConfig(
        epsilons=eps, regs=regs, base=base, matched_offsets=offsets, rho_ladder=ladder, seed=seed, out_dir=out
    )


def emit_sweep_plan(plan: SweepPlanConfig) -> str:
    lines = [
        "[sweep]",
        "epsilons = " + " ".join(_r(e) for e in plan.epsilons),
        "regs = " + " ".join(plan.regs),
        "matched_offsets = " + " ".join(_r(o) for o in plan.matched_offsets),
        "rho_ladder = " + " ".join(_r(r) for r in plan.rho_ladder),
        f"seed = {plan.seed}",
    ]
    if plan.out_dir:
        lines.append(f"dir = {plan.out_dir}")
    lines.append("")
    return "\n".join(lines) + emit_run_config(plan.base)
