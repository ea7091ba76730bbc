import numpy as np
import pytest

from kslab import greens, solver


@pytest.fixture(scope="session")
def decomp():
    return greens.build_greens_decomposition()


@pytest.fixture(scope="session")
def subcritical_radial_traj():
    """Short smooth subcritical disk run shared across test modules."""
    grid = solver.make_radial_grid(256, 1.0)
    u0 = solver.initial_condition_radial(grid, "gaussian", mass=4.0, width=0.2)
    cfg = solver.SolverConfig(t_end=0.01, snapshot_dt=0.01 / 24)
    return solver.radial_run(cfg, solver.RegKind("cutoff_flux", 1e-2), u0)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)
