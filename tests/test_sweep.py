import numpy as np
import pytest

from kslab import solver as S
from kslab import sweep as SW
from kslab.config import ConfigError, RunConfig, SweepPlanConfig, parse_sweep_plan


def _mini_plan(tmp_path, epsilons=(3e-3, 1e-3), mass=12 * np.pi, t_end=3e-3, regs=None):
    base = RunConfig()
    base.domain = "disk"
    base.solver = S.SolverConfig(
        radial_n=256,
        radial_ratio=1.0,
        t_end=t_end,
        snapshot_dt=t_end / 10,
        stop_umax_factor=1e30,
    )
    base.initial_kind = "gaussian"
    base.initial_params = {"mass": mass, "width": 0.08}
    return SweepPlanConfig(
        epsilons=list(epsilons),
        regs=regs or ["cutoff_flux", "nonlinear_diffusion"],
        base=base,
        matched_offsets=(5e-4, 1e-3),
        rho_ladder=(0.05, 0.08, 0.12, 0.18, 0.25),
        seed=3,
        out_dir=None,
    )


def test_single_epsilon_plan_rejected(tmp_path):
    with pytest.raises(ConfigError):
        plan = _mini_plan(tmp_path, epsilons=(1e-3,))
        SW.run_sweep(plan, tmp_path / "out")


def test_nondecreasing_epsilons_rejected(tmp_path):
    with pytest.raises(ConfigError):
        _mini_plan(tmp_path, epsilons=(1e-3, 3e-3))


def test_subcritical_sweep_no_atoms(tmp_path):
    plan = _mini_plan(tmp_path, mass=4.0, t_end=2e-3)
    report = SW.run_sweep(plan, tmp_path / "out")
    assert report.verdicts["all_ok"]
    assert not report.verdicts["any_concentrated"]
    assert (tmp_path / "out" / "sweep_report.csv").exists()


def test_supercritical_sweep_detects_atoms(tmp_path):
    plan = _mini_plan(tmp_path, epsilons=(3e-4, 1e-4), t_end=4e-3)
    report = SW.run_sweep(plan, tmp_path / "out")
    conc = [row for row in report.rows if row.concentrated]
    assert conc, "supercritical runs should raise the concentration flag"
    offs = [od for row in report.rows for od in row.offsets]
    assert offs and all(np.isfinite(od["alpha"]) for od in offs)


def test_sweep_determinism(tmp_path):
    plan = _mini_plan(tmp_path, mass=4.0, t_end=1.5e-3)
    SW.run_sweep(plan, tmp_path / "a")
    SW.run_sweep(plan, tmp_path / "b")
    for name in ("sweep_report.csv", "sweep_manifest.ini"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def _tree(root):
    return {str(path.relative_to(root)): path.read_bytes() for path in sorted(root.rglob("*")) if path.is_file()}


def test_threaded_sweep_writes_the_serial_artifacts(tmp_path):
    # the runs of a threaded sweep share no workspace or grid: every file,
    # snapshots and per-step diagnostics included, has the serial bytes
    plan = _mini_plan(tmp_path, epsilons=(1e-2, 3e-3, 1e-3), t_end=1.5e-3)
    SW.run_sweep(plan, tmp_path / "serial", threads=1)
    SW.run_sweep(plan, tmp_path / "threaded", threads=2)
    serial, threaded = _tree(tmp_path / "serial"), _tree(tmp_path / "threaded")
    assert sum(name.endswith("diagnostics.csv") for name in serial) == 6
    assert threaded == serial


def test_trend_fit_recovers_offset():
    eps = np.array([1e-2, 3e-3, 1e-3, 3e-4])
    vals = 1.07 + 2.0 * np.sqrt(eps)
    fit = SW.fit_trend(eps, vals)
    assert fit["q_best"] == "sqrt"
    assert fit["r0"] == pytest.approx(1.07, abs=1e-6)


def test_partition_and_moduli_constant_data():
    grid = S.make_radial_grid(256, 1.0)
    u0 = S.RadialField(grid, np.full(256, 1.0))
    traj = S.radial_run(
        S.SolverConfig(t_end=5e-4, snapshot_dt=1e-4), S.RegKind("cutoff_flux", 1e-2), u0
    )
    cover = SW.build_radial_partition(grid, 8)
    out = SW.mass_change_modulus(traj, cover)
    assert out["max_modulus"] <= 1e-9


def test_partition_with_hole_rejected():
    grid = S.make_radial_grid(128, 1.0)
    u0 = S.RadialField(grid, np.full(128, 1.0))
    traj = S.radial_run(S.SolverConfig(t_end=1e-4), S.RegKind("cutoff_flux", 1e-2), u0)
    holey = SW.build_radial_partition(grid, 8, spacing_factor=0.2)  # supports too narrow
    with pytest.raises(ValueError):
        SW.mass_change_modulus(traj, holey)


def test_supercritical_moduli_bounded_across_eps(tmp_path):
    # the measurable content of the uniform local mass-change bound
    grid = S.make_radial_grid(384, 1.0)
    maxima = []
    for eps in (3e-4, 1e-4):
        u0 = S.initial_condition_radial(grid, "gaussian", mass=12 * np.pi, width=0.08)
        cfg = S.SolverConfig(t_end=2.5e-3, snapshot_dt=1.25e-4, stop_umax_factor=1e30)
        traj = S.radial_run(cfg, S.RegKind("cutoff_flux", eps), u0)
        cover = SW.build_radial_partition(grid, 10)
        maxima.append(SW.mass_change_modulus(traj, cover)["max_modulus"])
    ratio = max(maxima) / min(maxima)
    assert ratio <= 2.0


def test_stationary_track_modulus_zero():
    times = [0.0, 0.01, 0.02, 0.03]
    centers = [[np.zeros(2)]] * 4
    out = SW.singular_set_continuity_check(times, centers)
    assert out["modulus"] == 0.0
    assert out["flagged"] == []


def test_jump_flagged_as_reidentification():
    times = [0.0, 0.01, 0.02, 0.03, 0.04, 0.05]
    base = [np.array([0.1, 0.0])]
    centers = [base, base, base, base, [np.array([0.9, 0.0])], [np.array([0.9, 0.0])]]
    # small genuine motion so the median modulus is positive
    centers = [[c + 1e-4 * k for c in cs] for k, cs in enumerate(centers)]
    out = SW.singular_set_continuity_check(times, centers)
    assert out["flagged"]
