"""Artifact formats: binary snapshots, CSV with schema sidecars, manifests.

Snapshot layout (little endian):

    magic "KSW1" | u32 nx | u32 ny | f64 hx | f64 hy | f64 t
    | u8 reg_kind (0 = cutoff_flux, 1 = nonlinear_diffusion) | f64 epsilon
    | nx*ny f64 values, row major.

For radial runs ny = 1; hx carries the first cell width and hy the
geometric growth ratio, which together reconstruct the grid.

Every CSV gets a ``<name>.schema.txt`` sidecar listing its columns.  All
artifacts are timestamp-free so byte-identical reruns stay byte-identical.
"""

from __future__ import annotations

import hashlib
import struct
from pathlib import Path

import numpy as np

from .config import RunConfig, emit_run_config
from .solver import RadialGrid, RegKind, Trajectory

__all__ = [
    "write_snapshot",
    "read_snapshot",
    "write_csv",
    "write_manifest",
    "read_manifest",
    "save_trajectory",
    "save_run",
    "config_hash",
    "run_config_hash",
    "DIAG_SCHEMA",
]

_MAGIC = b"KSW1"
_HEADER = "<4sIIdddBd"
_REG_CODE = {"cutoff_flux": 0, "nonlinear_diffusion": 1}
_REG_NAME = {v: k for k, v in _REG_CODE.items()}

DIAG_SCHEMA = {
    "t": "time of the state; row n is the state before step n: rows start at t = 0, the final state is "
    "only in the snapshots",
    "mass": "total mass of u (conserved)",
    "min_u": "minimum cell value of u",
    "max_u": "maximum cell value of u",
    "entropy": "free energy E of the state, with its own potential",
    "dissipation": "the step's own energy rate D = -sum xi (u_next - u) |cell| / dt, xi = log u + 7 eps u^{1/6} - v: "
    "(E_next - E) / dt + D = O(dt); past the cutoff knee the identity carries int (1 - f_eps'(u)) v u_t too",
    "h_t": "mean of the chemoattractant source",
    "int_u76": "integral of u^{7/6}",
}


def write_snapshot(path, values: np.ndarray, hx: float, hy: float, t: float, reg: RegKind) -> None:
    values = np.ascontiguousarray(values, dtype="<f8")
    nx, ny = (values.shape[0], 1) if values.ndim == 1 else values.shape
    header = struct.pack(_HEADER, _MAGIC, nx, ny, hx, hy, t, _REG_CODE[reg.variant], reg.epsilon)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(values.tobytes(order="C"))


def read_snapshot(path) -> dict:
    with open(path, "rb") as fh:
        raw = fh.read(struct.calcsize(_HEADER))
        magic, nx, ny, hx, hy, t, reg_code, eps = struct.unpack(_HEADER, raw)
        if magic != _MAGIC:
            raise ValueError(f"{path}: not a KSW1 snapshot")
        values = np.frombuffer(fh.read(8 * nx * ny), dtype="<f8").reshape(nx, ny)
    return {
        "values": values.copy(),
        "hx": hx,
        "hy": hy,
        "t": t,
        "reg": RegKind(_REG_NAME[reg_code], eps),
        "nx": nx,
        "ny": ny,
    }


def _column(values):
    """The text of one column, cell by cell: a float as its repr (a numpy
    float as the Python float it holds: its own repr is "np.float64(...)"),
    anything else as its str."""
    if set(map(type, values)) <= {float}:
        return map(repr, values)
    return (repr(float(x)) if isinstance(x, float) else str(x) for x in values)


def write_csv(path, columns, rows, descriptions: dict | None = None) -> None:
    """Rows are dicts keyed by column name, or sequences in column order;
    each column's values are formatted by one map, a line at a time."""
    path = Path(path)
    rows = list(rows)
    if rows and isinstance(rows[0], dict):
        cells = [[row[c] for row in rows] for c in columns]
    else:
        cells = list(zip(*rows))
    lines = map(",".join, zip(*map(_column, cells)))
    path.write_text("\n".join([",".join(columns), *lines]) + "\n")
    desc = descriptions or {}
    schema = [f"{c}: {desc.get(c, '')}".rstrip() for c in columns]
    Path(str(path) + ".schema.txt").write_text("\n".join(schema) + "\n")


def write_manifest(path, entries: dict) -> None:
    lines = ["[manifest]"]
    for key in sorted(entries):
        lines.append(f"{key} = {entries[key]}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_manifest(path) -> dict:
    out = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("["):
            continue
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def config_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_config_hash(cfg: RunConfig) -> str:
    """Content address of one run: its normalized config text plus its seed."""
    return config_hash(emit_run_config(cfg) + f"|seed={cfg.seed}")


def _radial_header(grid: RadialGrid):
    widths = grid.widths
    ratio = float(widths[1] / widths[0]) if grid.n > 1 else 1.0
    if np.allclose(widths, widths[0]):
        ratio = 1.0
    return float(widths[0]), ratio


def save_trajectory(traj: Trajectory, out_dir, manifest_extra: dict | None = None) -> None:
    """Persist snapshots, the per-step diagnostics CSV, and a manifest."""
    out = Path(out_dir)
    (out / "snapshots").mkdir(parents=True, exist_ok=True)
    if traj.backend == "radial":
        hx, hy = _radial_header(traj.grid)
    else:
        hx, hy = traj.hx, traj.hy
    for k, (t, snap) in enumerate(zip(traj.times, traj.snapshots)):
        write_snapshot(out / "snapshots" / f"snap_{k:05d}.ksw", snap, hx, hy, t, traj.reg)
    cols = list(DIAG_SCHEMA)
    write_csv(out / "diagnostics.csv", cols, traj.diag, DIAG_SCHEMA)
    entries = {
        "backend": traj.backend,
        "reg": traj.reg.variant,
        "epsilon": repr(traj.reg.epsilon),
        "concentrated": traj.concentrated,
        "concentrated_time": repr(traj.concentrated_time) if traj.concentrated_time else "",
        "stop_reason": traj.stop_reason,
        "failed": traj.failed,
        "failure_message": traj.failure_message,
        "n_snapshots": len(traj.times),
        "version": "kslab-0.1.0",
    }
    entries.update(manifest_extra or {})
    write_manifest(out / "manifest.ini", entries)


def save_run(traj: Trajectory, out_dir, cfg: RunConfig) -> None:
    """``save_trajectory`` with the run's config hash and seed in the
    manifest, plus the normalized config as ``config.ini``."""
    save_trajectory(traj, out_dir, {"config_hash": run_config_hash(cfg), "seed": cfg.seed})
    Path(out_dir, "config.ini").write_text(emit_run_config(cfg))
