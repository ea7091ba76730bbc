import copy
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kslab
from kslab import io
from kslab.cli import main
from kslab.config import (
    ConfigError,
    emit_run_config,
    emit_sweep_plan,
    parse_run_config,
    parse_sweep_plan,
)
from kslab.solver import RegKind


RUN_TEXT = """
[domain]
kind = disk

[grid]
radial_n = 256
radial_ratio = 1.0

[regularization]
kind = cutoff_flux
epsilon = 1e-3

[initial]
kind = gaussian
mass = 4.0
width = 0.2

[time]
t_end = 5e-4
dt_policy = cfl
snapshot_dt = 1e-4

[output]
seed = 7
"""

SUPERCRITICAL_TEXT = """
[domain]
kind = disk

[grid]
radial_n = 384
radial_ratio = 1.0

[regularization]
kind = cutoff_flux
epsilon = 3e-4

[initial]
kind = gaussian
mass = 37.699
width = 0.05

[time]
t_end = 6e-3
snapshot_dt = 5e-4

[stopping]
stop_factor = 1.2

[output]
seed = 1
"""


def test_config_round_trip_is_identity():
    cfg = parse_run_config(None, text=RUN_TEXT)
    text1 = emit_run_config(cfg)
    cfg2 = parse_run_config(None, text=text1)
    assert emit_run_config(cfg2) == text1
    assert cfg2.reg == RegKind("cutoff_flux", 1e-3)
    assert cfg2.solver.t_end == 5e-4


def test_config_missing_field_errors():
    with pytest.raises(ConfigError):
        parse_run_config(None, text="[domain]\nkind = disk\n")
    with pytest.raises(ConfigError):
        parse_run_config(None, text=RUN_TEXT.replace("epsilon = 1e-3", "epsilon = -1"))


TWO_BUMP_TEXT = """
[domain]
kind = rectangle

[grid]
nx = 24
ny = 16
lx = 1.5
ly = 1.0

[regularization]
kind = nonlinear_diffusion
epsilon = 1e-2

[initial]
kind = two_bump
mass = 6.0
center1_x = 0.5
center1_y = 0.4
width1 = 0.1
center2_x = 1.0
center2_y = 0.6
width2 = 0.12
ratio = 0.5

[time]
t_end = 2e-4
snapshot_dt = 1e-4

[output]
seed = 3
"""


def test_config_rejects_probes_section():
    with pytest.raises(ConfigError, match="probes"):
        parse_run_config(None, text=RUN_TEXT + "\n[probes]\nprobe1 = 0.0 0.0 0.05\n")


def test_config_rejects_initial_kind_off_its_domain():
    parse_run_config(None, text=TWO_BUMP_TEXT)
    with pytest.raises(ConfigError, match="two_bump"):
        parse_run_config(None, text=TWO_BUMP_TEXT.replace("kind = rectangle", "kind = disk"))
    annulus = RUN_TEXT.replace("width = 0.2", "r0 = 0.5\nwidth = 0.1").replace("kind = gaussian", "kind = annulus")
    parse_run_config(None, text=annulus)
    with pytest.raises(ConfigError, match="annulus"):
        parse_run_config(None, text=annulus.replace("kind = disk", "kind = rectangle"))


# kind: (a domain that builds it, required keys, optional keys)
INITIAL_KEYS = {
    "gaussian": ("rectangle", ("mass", "width"), ("center_x", "center_y")),
    "annulus": ("disk", ("mass", "r0", "width"), ()),
    "constant": ("disk", ("value",), ()),
    "two_bump": (
        "rectangle",
        ("mass", "center1_x", "center1_y", "width1", "center2_x", "center2_y", "width2"),
        ("ratio",),
    ),
}


def _initial_config(kind, keys):
    domain = INITIAL_KEYS[kind][0]
    grid = "radial_n = 32\nradial_ratio = 1.0" if domain == "disk" else "nx = 12\nny = 12"
    initial = "\n".join(f"{k} = 0.3" for k in keys)
    return (
        f"[domain]\nkind = {domain}\n\n[grid]\n{grid}\n\n"
        "[regularization]\nkind = cutoff_flux\nepsilon = 1e-2\n\n"
        f"[initial]\nkind = {kind}\n{initial}\n\n[time]\nt_end = 1e-5\n"
    )


@pytest.mark.parametrize("kind", sorted(INITIAL_KEYS))
def test_config_requires_each_initial_key(kind):
    _, required, optional = INITIAL_KEYS[kind]
    cfg = parse_run_config(None, text=_initial_config(kind, required + optional))
    assert set(cfg.initial_params) == set(required + optional)
    for key in optional:
        cfg = parse_run_config(None, text=_initial_config(kind, [k for k in required + optional if k != key]))
        assert key not in cfg.initial_params
    for key in required:
        with pytest.raises(ConfigError, match=key):
            parse_run_config(None, text=_initial_config(kind, [k for k in required + optional if k != key]))


def test_cmd_run_missing_initial_key_fails_at_parse(tmp_path, capsys):
    cfg = tmp_path / "two_bump.ini"
    cfg.write_text(TWO_BUMP_TEXT.replace("width2 = 0.12\n", ""))
    assert main(["--out", str(tmp_path / "out"), "run", str(cfg)]) == 1
    assert "needs width2" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cmd_run_leaves_numpy_error_state(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(RUN_TEXT)
    before = np.geterr()
    assert main(["run", str(cfg)]) == 0
    assert np.geterr() == before


def test_cmd_run_two_bump_rectangle(tmp_path):
    cfg = tmp_path / "two_bump.ini"
    cfg.write_text(TWO_BUMP_TEXT)
    assert main(["--out", str(tmp_path / "out"), "run", str(cfg)]) == 0
    snap = io.read_snapshot(tmp_path / "out" / "snapshots" / "snap_00000.ksw")
    assert snap["nx"] == 24 and snap["ny"] == 16
    assert snap["values"].sum() * snap["hx"] * snap["hy"] == pytest.approx(6.0, rel=1e-12)


def test_sweep_plan_round_trip():
    text = (
        "[sweep]\nepsilons = 0.003 0.001\nregs = cutoff_flux\nseed = 2\n\n"
        + RUN_TEXT.replace("[regularization]\nkind = cutoff_flux\nepsilon = 1e-3\n\n", "")
    )
    plan = parse_sweep_plan(None, text=text)
    assert plan.epsilons == [0.003, 0.001]
    text2 = emit_sweep_plan(plan)
    plan2 = parse_sweep_plan(None, text=text2)
    assert plan2.epsilons == plan.epsilons
    assert emit_sweep_plan(plan2) == text2


# each config below fails in the parse call itself, with a message naming the key
BAD_RUN_CONFIGS = {
    "misspelled key": ("radial_nn", RUN_TEXT.replace("radial_n = 256", "radial_nn = 64")),
    "unknown section": ("[solver]", RUN_TEXT + "\n[solver]\nt_end = 1.0\n"),
    "rectangle key on the disk": ("nx", RUN_TEXT.replace("radial_ratio = 1.0", "radial_ratio = 1.0\nnx = 64")),
    "cfl_safety 0": ("cfl_safety", RUN_TEXT.replace("dt_policy = cfl", "dt_policy = cfl\ncfl_safety = 0")),
    "cfl_safety 1.5": ("cfl_safety", RUN_TEXT.replace("dt_policy = cfl", "dt_policy = cfl\ncfl_safety = 1.5")),
    "radial_n 0": ("radial_n", RUN_TEXT.replace("radial_n = 256", "radial_n = 0")),
    "radial_n 1": ("radial_n", RUN_TEXT.replace("radial_n = 256", "radial_n = 1")),
    "radial_ratio ** radial_n overflows": (
        "radial_ratio",
        RUN_TEXT.replace("radial_n = 256", "radial_n = 2000").replace("radial_ratio = 1.0", "radial_ratio = 1.5"),
    ),
    "radial_ratio -1": ("radial_ratio", RUN_TEXT.replace("radial_ratio = 1.0", "radial_ratio = -1")),
    # ratio ** n is finite, but the finest cells have no volume or no spacing
    "first cell without volume": (
        "radial_ratio",
        RUN_TEXT.replace("radial_n = 256", "radial_n = 1700").replace("radial_ratio = 1.0", "radial_ratio = 1.5"),
    ),
    "outer cells without spacing": (
        "radial_ratio",
        RUN_TEXT.replace("radial_n = 256", "radial_n = 2000").replace("radial_ratio = 1.0", "radial_ratio = 0.5"),
    ),
    "nx 1": ("nx", TWO_BUMP_TEXT.replace("nx = 24", "nx = 1")),
    "dt_policy": ("dt_policy", RUN_TEXT.replace("dt_policy = cfl", "dt_policy = adaptive")),
    "initial key off its kind": ("r0", RUN_TEXT.replace("width = 0.2", "width = 0.2\nr0 = 0.5")),
    "disk gaussian center": ("center_x", RUN_TEXT.replace("width = 0.2", "width = 0.2\ncenter_x = 0.1")),
}
SWEEP_HEAD = "[sweep]\nepsilons = 0.003 0.001\n"
BAD_SWEEP_PLANS = {
    "epsilon token": ("epsilons", "[sweep]\nepsilons = 1e-3 abc\n\n" + RUN_TEXT),
    "seed token": ("seed", SWEEP_HEAD + "seed = x\n\n" + RUN_TEXT),
    "unknown [sweep] key": ("epsilon", SWEEP_HEAD + "epsilon = 1e-3\n\n" + RUN_TEXT),
    "unknown base key": ("stop_factr", SWEEP_HEAD + "\n" + RUN_TEXT + "\n[stopping]\nstop_factr = 2.0\n"),
    "empty regs": ("regs", SWEEP_HEAD + "regs =\n\n" + RUN_TEXT),
    "single epsilon": ("epsilon", "[sweep]\nepsilons = 1e-3\n\n" + RUN_TEXT),
    "rectangle base": ("domain", SWEEP_HEAD + "\n" + TWO_BUMP_TEXT),
    "two-radius ladder": ("rho_ladder", SWEEP_HEAD + "rho_ladder = 0.05 0.1\n\n" + RUN_TEXT),
}


@pytest.mark.parametrize("case", sorted(BAD_RUN_CONFIGS))
def test_config_rejects_invalid_run_config_at_parse(case):
    name, text = BAD_RUN_CONFIGS[case]
    with pytest.raises(ConfigError, match=re.escape(name)):
        parse_run_config(None, text=text)


@pytest.mark.parametrize("case", sorted(BAD_SWEEP_PLANS))
def test_config_rejects_invalid_sweep_plan_at_parse(case):
    name, text = BAD_SWEEP_PLANS[case]
    with pytest.raises(ConfigError, match=re.escape(name)):
        parse_sweep_plan(None, text=text)


def test_cmd_sweep_bad_epsilon_token_is_an_error_line(tmp_path, capsys):
    plan = tmp_path / "plan.ini"
    plan.write_text(BAD_SWEEP_PLANS["epsilon token"][1])
    assert main(["--out", str(tmp_path / "s"), "sweep", str(plan)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "abc" in err and "Traceback" not in err
    assert not (tmp_path / "s").exists()


RUN_TEXT_EMITTED = """\
[domain]
kind = disk

[grid]
radial_n = 256
radial_ratio = 1.0

[regularization]
kind = cutoff_flux
epsilon = 0.001

[initial]
kind = gaussian
mass = 4.0
width = 0.2

[time]
t_end = 0.0005
dt_policy = cfl
dt = 1e-06
cfl_safety = 0.9
snapshot_dt = 0.0001

[stopping]
dt_min = 1e-12
flag_factor = 0.8
stop_factor = 16.0

[output]
seed = 7
"""


@pytest.mark.parametrize(
    "name, digest",
    [("RUN_TEXT", "ffe8a817e180269b"), ("TWO_BUMP_TEXT", "f195f3207f4626fe"), ("SUPERCRITICAL_TEXT", "f83c0f9ab433c611")],
)
def test_emitted_run_config_and_hash_are_pinned(name, digest):
    # the hash names run directories and manifests, so emission must not move
    cfg = parse_run_config(None, text=globals()[name])
    text = emit_run_config(cfg)
    if name == "RUN_TEXT":
        assert text == RUN_TEXT_EMITTED
    if name == "TWO_BUMP_TEXT":
        assert "[grid]\nnx = 24\nny = 16\nlx = 1.5\nly = 1.0\n\n" in text
        assert "[initial]\nkind = two_bump\nmass = 6.0\ncenter1_x = 0.5\ncenter1_y = 0.4\nwidth1 = 0.1\n" in text
    assert io.config_hash(text + f"|seed={cfg.seed}") == digest
    assert io.run_config_hash(cfg) == digest


def test_emitted_sweep_plan_and_run_hashes_are_pinned():
    text = (
        "[sweep]\nepsilons = 0.003 0.001\nregs = cutoff_flux nonlinear_diffusion\nseed = 2\ndir = sweeps\n\n"
        + RUN_TEXT.replace("[regularization]\nkind = cutoff_flux\nepsilon = 1e-3\n\n", "")
    )
    plan = parse_sweep_plan(None, text=text)
    emitted = emit_sweep_plan(plan)
    head = (
        "[sweep]\nepsilons = 0.003 0.001\nregs = cutoff_flux nonlinear_diffusion\n"
        "matched_offsets = 0.01 0.02 0.05\nrho_ladder = 0.02 0.03 0.05 0.08 0.12\nseed = 2\ndir = sweeps\n"
    )
    base = RUN_TEXT_EMITTED.replace("kind = cutoff_flux", "kind = nonlinear_diffusion")
    assert emitted == head + base
    assert io.config_hash(emitted) == "2c55655a729e1b42"
    # the per-run hashes name the sweep's run directories
    digests = {}
    for reg in plan.regs:
        for eps in plan.epsilons:
            cfg = copy.deepcopy(plan.base)
            cfg.reg, cfg.seed = RegKind(reg, eps), plan.seed
            digests[(reg, eps)] = io.run_config_hash(cfg)
    assert digests == {
        ("cutoff_flux", 0.003): "c8690f05fb4575c4",
        ("cutoff_flux", 0.001): "d1be1a0647165364",
        ("nonlinear_diffusion", 0.003): "66983ec3d709a628",
        ("nonlinear_diffusion", 0.001): "066640f3b0c88ed3",
    }


def test_readme_minimal_config_parses_and_round_trips():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```ini\n(.*?)```", readme, re.S)
    assert blocks
    for block in blocks:
        text = emit_run_config(parse_run_config(None, text=block))
        assert emit_run_config(parse_run_config(None, text=text)) == text


def test_snapshot_round_trip(tmp_path):
    vals = np.arange(12.0).reshape(3, 4)
    path = tmp_path / "s.ksw"
    io.write_snapshot(path, vals, 0.1, 0.2, 1.5, RegKind("nonlinear_diffusion", 2e-3))
    out = io.read_snapshot(path)
    assert np.array_equal(out["values"], vals)
    assert out["hx"] == 0.1 and out["hy"] == 0.2 and out["t"] == 1.5
    assert out["reg"] == RegKind("nonlinear_diffusion", 2e-3)
    raw = path.read_bytes()
    assert raw[:4] == b"KSW1"


def test_csv_schema_sidecar(tmp_path):
    p = tmp_path / "x.csv"
    io.write_csv(p, ["a", "b"], [{"a": 1.0, "b": 2.0}], {"a": "first", "b": "second"})
    assert p.exists()
    schema = (tmp_path / "x.csv.schema.txt").read_text()
    assert "a: first" in schema


def test_csv_writes_numpy_floats_as_numbers(tmp_path):
    p = tmp_path / "x.csv"
    io.write_csv(p, ["a", "b"], [{"a": np.float64(0.1), "b": 0.1}])
    assert p.read_text() == "a,b\n0.1,0.1\n"


def test_cmd_run_subcritical_exit0(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(RUN_TEXT)
    rc = main(["--out", str(tmp_path / "out"), "run", str(cfg)])
    assert rc == 0
    assert (tmp_path / "out" / "diagnostics.csv").exists()
    assert (tmp_path / "out" / "manifest.ini").exists()
    lines = (tmp_path / "out" / "diagnostics.csv").read_text().strip().splitlines()
    assert len(lines) > 1  # header plus per-step rows


def test_cmd_run_concentration_exit2(tmp_path):
    cfg = tmp_path / "super.ini"
    cfg.write_text(SUPERCRITICAL_TEXT)
    rc = main(["--out", str(tmp_path / "out2"), "run", str(cfg)])
    assert rc == 2
    man = io.read_manifest(tmp_path / "out2" / "manifest.ini")
    assert man["concentrated"] == "True"


FIXED_DT_TEXT = """
[domain]
kind = rectangle

[grid]
nx = 64
ny = 64

[regularization]
kind = cutoff_flux
epsilon = 1e-2

[initial]
kind = gaussian
mass = 200.0
width = 0.05

[time]
t_end = 5e-2
dt_policy = fixed
dt = 2e-5

[stopping]
stop_factor = 1e30
"""


def test_cmd_run_fixed_dt_reaching_t_end_exit0(tmp_path, capsys):
    # 2,500 fixed steps leave t_end - t = 1.7e-15, below dt_min: that is
    # the end of the run, not a dt_min stop
    cfg = tmp_path / "fixed.ini"
    cfg.write_text(FIXED_DT_TEXT)
    assert main(["--out", str(tmp_path / "out"), "run", str(cfg)]) == 0
    assert "with 2500 steps" in capsys.readouterr().out
    assert io.read_manifest(tmp_path / "out" / "manifest.ini")["stop_reason"] == "t_end"


def test_cmd_run_missing_field_exit1(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[domain]\nkind = disk\n")
    assert main(["run", str(cfg)]) == 1


def test_cmd_sweep_empty_epsilons_exit1(tmp_path):
    plan = tmp_path / "plan.ini"
    plan.write_text("[sweep]\nepsilons =\n\n" + RUN_TEXT)
    assert main(["--out", str(tmp_path / "s"), "sweep", str(plan)]) == 1


def test_cmd_sweep_minimal_and_report(tmp_path):
    plan = tmp_path / "plan.ini"
    plan.write_text(
        "[sweep]\nepsilons = 0.003 0.001\nregs = cutoff_flux nonlinear_diffusion\n"
        "matched_offsets = 0.0005\nrho_ladder = 0.05 0.08 0.12\n\n" + RUN_TEXT
    )
    rc = main(["--out", str(tmp_path / "s"), "sweep", str(plan)])
    assert rc == 0
    report = tmp_path / "s" / "sweep_report.csv"
    assert report.exists()
    header = report.read_text().splitlines()[0]
    for col in ("reg", "epsilon", "alpha", "beta"):
        assert col in header
    assert main(["report", str(tmp_path / "s")]) == 0


def test_cmd_sweep_report_does_not_name_the_out_dir(tmp_path):
    plan = tmp_path / "plan.ini"
    plan.write_text(
        "[sweep]\nepsilons = 0.01 0.003\nregs = cutoff_flux\nmatched_offsets = 0.0002\n\n"
        + SUPERCRITICAL_TEXT.replace("radial_n = 384", "radial_n = 128")
    )
    reports = []
    for tag in ("a", "b"):
        assert main(["--out", str(tmp_path / tag), "sweep", str(plan)]) == 0
        reports.append((tmp_path / tag / "sweep_report.csv").read_text())
    assert reports[0] == reports[1]
    run_dirs = [line.rsplit(",", 1)[1] for line in reports[0].splitlines()[1:]]
    assert run_dirs and all((tmp_path / "a" / d / "manifest.ini").exists() for d in run_dirs)


def test_cmd_check_unknown_suite_exits_nonzero():
    with pytest.raises(SystemExit):
        main(["check", "nonsense"])


@pytest.mark.parametrize(
    "argv",
    [
        ["greens", "--mesh", "-0.01"],  # the inward Neumann stencil would sample outside the disk
        ["greens", "--mesh", "0.25"],
        ["greens", "--mesh", "nan"],
        ["greens", "--mesh", "inf"],
        ["testfn", "--mesh", "0"],
        ["testfn", "--mesh", "0.2"],  # no core sample lies a mesh inside the wall
        ["testfn", "--rho", "0"],
        ["testfn", "--rho", "-0.02"],
        ["testfn", "--rho", "5"],
        ["weak-residual", "--levels", "abc"],
        ["weak-residual", "--levels", "1 4"],
        ["weak-residual", "--levels", "0 4"],
        ["weak-residual", "--levels", "-4 8"],
        ["weak-residual", "--levels", "64"],
        ["weak-residual", "--levels", "64 12.5"],
        ["sobolev", "--rho", "0"],
    ],
)
def test_cmd_check_rejects_out_of_range_options(tmp_path, capsys, argv):
    assert main(["--out", str(tmp_path), "check", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: --"), captured.err
    assert not any(tmp_path.iterdir())


def test_cmd_check_sobolev(tmp_path):
    rc = main(["--out", str(tmp_path), "check", "sobolev"])
    assert rc == 0
    assert (tmp_path / "check_sobolev.csv").exists()


def test_cmd_check_prints_elapsed_last_and_keeps_it_out_of_the_csv(tmp_path, capsys):
    csvs = []
    for name in ("a", "b"):
        assert main(["--out", str(tmp_path / name), "check", "sobolev"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert re.fullmatch(r"elapsed \d+\.\d{3} s", lines[-1])
        assert all(not line.startswith("elapsed") for line in lines[:-1])
        csvs.append((tmp_path / name / "check_sobolev.csv").read_bytes())
    assert csvs[0] == csvs[1]
    assert b"elapsed" not in csvs[0]


def test_manifest_reexecution_identity(tmp_path):
    # identical config + seed produce identical manifests and diagnostics
    cfg = tmp_path / "run.ini"
    cfg.write_text(RUN_TEXT)
    main(["--out", str(tmp_path / "a"), "run", str(cfg)])
    main(["--out", str(tmp_path / "b"), "run", str(cfg)])
    assert (tmp_path / "a" / "manifest.ini").read_bytes() == (tmp_path / "b" / "manifest.ini").read_bytes()
    assert (tmp_path / "a" / "diagnostics.csv").read_bytes() == (tmp_path / "b" / "diagnostics.csv").read_bytes()


DEFERRED_MODULES = ("scipy.signal", "scipy.stats", "scipy.fft", "scipy.special", "concurrent.futures")


def _fresh_python(code, cwd):
    """Run ``code`` in a new interpreter that imports kslab from this tree;
    return its last stdout line."""
    src = str(Path(kslab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, cwd=cwd, timeout=300)
    assert res.returncode == 0, res.stderr
    return res.stdout.strip().splitlines()[-1]


def test_import_leaves_out_scipy_signal_and_stats(tmp_path):
    # every CLI start imports these modules; scipy.signal drags in scipy.stats
    # and scipy.interpolate, which only concentration detection needs;
    # scipy.fft drags in scipy.special, which only rectangle runs and the
    # Sobolev check need; only threaded sweeps and runs on large grids need
    # concurrent.futures
    code = f"import sys, kslab, kslab.cli, kslab.checks, kslab.sweep; print(sorted(m for m in {DEFERRED_MODULES!r} if m in sys.modules))"
    assert _fresh_python(code, tmp_path) == "[]"


def test_disk_run_and_sweep_leave_out_scipy_fft(tmp_path):
    (tmp_path / "run.ini").write_text(RUN_TEXT)
    (tmp_path / "plan.ini").write_text("[sweep]\nepsilons = 0.003 0.001\nregs = cutoff_flux\n\n" + RUN_TEXT)
    code = (
        "import sys; from kslab.cli import main; "
        "rcs = [main(['--out', 'run', 'run', 'run.ini']), main(['--out', 'sweep', 'sweep', 'plan.ini'])]; "
        "print(rcs, 'scipy.fft' in sys.modules)"
    )
    assert _fresh_python(code, tmp_path) == "[0, 0] False"
    assert (tmp_path / "run" / "diagnostics.csv").exists() and (tmp_path / "sweep" / "sweep_report.csv").exists()


def test_rectangle_run_loads_scipy_fft_inside_the_step(tmp_path):
    # the first Poisson solve imports scipy.fft inside the run's np.errstate
    (tmp_path / "run.ini").write_text(TWO_BUMP_TEXT)
    code = (
        "import sys; from kslab.cli import main; "
        "before = 'scipy.fft' in sys.modules; rc = main(['--out', 'out', 'run', 'run.ini']); "
        "print(before, rc, 'scipy.fft' in sys.modules)"
    )
    assert _fresh_python(code, tmp_path) == "False 0 True"


def test_oracle_checks_and_rectangle_detection_load_no_scipy(tmp_path):
    # numpy's real FFT low-passes the Sobolev fields and convolves the
    # ball-mass map; scipy serves only the rectangle's cosine transform,
    # which test_rectangle_run_loads_scipy_fft_inside_the_step sees load
    code = (
        "import sys, numpy as np; from kslab import checks, diagnostics; from kslab.solver import Field; "
        "oks = [checks.check_sobolev()[1], checks.check_greens()[1], checks.check_testfn()[1]]; "
        "x = (np.arange(96) + 0.5) / 96; "
        "u = Field(1 / 96, 1 / 96, 2e3 * np.exp(-((x[:, None] - 0.3) ** 2 + (x[None, :] - 0.6) ** 2) / 1e-3)); "
        "found = diagnostics.detect_concentrations(u, diagnostics.M0_CUTOFF, 0.05); "
        "print(oks, len(found), sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    assert _fresh_python(code, tmp_path) == "[True, True, True] 1 []"


# the rectangle run is taken to 2e-3: to 2e-4 it is one step, one row
@pytest.mark.parametrize(
    "text", [RUN_TEXT, TWO_BUMP_TEXT.replace("t_end = 2e-4", "t_end = 2e-3")], ids=["disk", "rectangle"]
)
def test_cmd_report_shows_dt_over_diffusive_cfl(tmp_path, capsys, text):
    # the explicit step is at most cfl_safety of the pure-diffusion bound;
    # the median dt comes from consecutive row times
    cfg = tmp_path / "run.ini"
    cfg.write_text(text)
    assert main(["--out", str(tmp_path / "out"), "run", str(cfg)]) == 0
    artifacts = _tree_bytes(tmp_path / "out")
    capsys.readouterr()
    assert main(["report", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out.splitlines()
    line = next(ln for ln in out if "diffusive CFL" in ln)
    ratio = float(line.rsplit("=", 1)[1])
    median_dt = float(line.split("median dt = ", 1)[1].split(",", 1)[0])
    assert median_dt > 0.0
    assert 0.0 < ratio <= parse_run_config(cfg).solver.cfl_safety
    # D_n is step n's own energy rate, so the energy law holds to O(dt);
    # the disk's Gaussian spans 50 cells, the rectangle's bumps under two
    law = next(ln for ln in out if "energy law" in ln)
    residual = float(law.split(" = ", 1)[1].split()[0])
    assert 0.0 < residual < (1e-2 if text is RUN_TEXT else 0.1)
    assert _tree_bytes(tmp_path / "out") == artifacts  # reporting writes nothing


def _tree_bytes(root):
    return {str(path.relative_to(root)): path.read_bytes() for path in sorted(root.rglob("*")) if path.is_file()}
