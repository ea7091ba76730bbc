"""The kslab names that the benchmark harness depends on exist.

``perfbench/run.py`` wraps each function in its ``TRACED`` table by module
attribute, and a traced run is the only other place where a deleted or
renamed name shows.  The table is read from the harness's source with
``ast``; the harness is not imported.
"""

import ast
import importlib
import inspect
from pathlib import Path

from kslab import cli, solver, sweep

RUN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def _traced() -> dict:
    for node in ast.parse(RUN_PY.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED table in {RUN_PY}")


def test_every_traced_name_exists():
    traced = _traced()
    assert "solver" in traced and "radial_run" in traced["solver"]
    missing = [
        f"kslab.{layer}.{name}"
        for layer, names in traced.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"kslab.{layer}"), name, None))
    ]
    assert missing == []


def test_run_entry_points_are_the_solver_functions():
    # a span wraps every module attribute bound to the traced function, so
    # the CLI's and the sweep's runs are traced only while they are the same
    # objects as the solver's
    assert cli.radial_run is solver.radial_run
    assert cli.rect_run is solver.run
    assert sweep.radial_run is solver.radial_run
    assert "threads" in inspect.signature(sweep.run_sweep).parameters
    # the harness's gate reads the positivity tolerance off a run's config
    assert solver.SolverConfig().positivity_tol == 1e-13
