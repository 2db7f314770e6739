import contextlib
import io
import os
import shutil
import tempfile
import time

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir
from oracles import collect_reference

from vslab.cli import cli_dispatch
from vslab.reference import StepperConfig
from vslab.spectral import Grid, taylor_green_vorticity

# every run draws the same examples and writes no example database
settings.register_profile("vslab", derandomize=True, database=None)
settings.load_profile("vslab")


def pytest_configure(config):
    # as it collects, the hypothesis plugin caches the constants of the sources
    # under its home directory, ./.hypothesis unless told otherwise
    config.hypothesis_home = tempfile.mkdtemp(prefix="hypothesis-")
    set_hypothesis_home_dir(config.hypothesis_home)


def pytest_unconfigure(config):
    shutil.rmtree(config.hypothesis_home, ignore_errors=True)


@pytest.fixture(scope="session")
def grid4():
    return Grid(4)


@pytest.fixture(scope="session")
def grid8():
    return Grid(8)


@pytest.fixture(scope="session")
def grid16():
    return Grid(16)


@pytest.fixture(scope="session")
def grid32():
    return Grid(32)


@pytest.fixture(scope="session")
def tg16_run(grid16):
    """Taylor-Green 16^3 reference run over (0, 0.5), the workhorse oracle."""
    w0 = taylor_green_vorticity(grid16)
    start = time.perf_counter()
    traj = collect_reference(
        grid16, w0, 0.5, StepperConfig(dt=1e-3, nu=1.0), scalar_every=1, field_every=10
    )
    traj.elapsed = time.perf_counter() - start
    return traj


@pytest.fixture(scope="session")
def tg32_run(grid32):
    """Taylor-Green 32^3 reference run over (0, 1), shared by the acceptance suite."""
    w0 = taylor_green_vorticity(grid32)
    start = time.perf_counter()
    traj = collect_reference(
        grid32, w0, 1.0, StepperConfig(dt=1e-3, nu=1.0), scalar_every=1, field_every=10
    )
    traj.elapsed = time.perf_counter() - start
    return traj


@pytest.fixture(scope="session")
def tg16_nu001_run(tmp_path_factory):
    """`vslab run-ref` of Taylor-Green 16^3 at nu = 0.01 over (0, 1.5), 6 slabs, eps0 = 0.9.

    The enstrophy grows there, so the ledger's per-slab recursion fails on
    the last three slabs while the global cap holds.  The run is the
    shipped sample config with every difference given as a ``--set``
    override.  Returns (output directory, exit code, stdout).
    """
    outdir = tmp_path_factory.mktemp("tg16-nu001")
    sample = os.path.join(os.path.dirname(os.path.dirname(__file__)), "configs", "sample.cfg")
    overrides = {"n": 16, "nu": 0.01, "T": 1.5, "dt": 2e-3, "slabs": 6, "epsilon0": 0.9}
    argv = ["run-ref", "--config", sample, "--set", f"outdir={outdir}"]
    for key, value in overrides.items():
        argv += ["--set", f"{key}={value}"]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli_dispatch(argv)
    return outdir, code, stdout.getvalue()


def l2_relative(grid, got, want):
    denom = np.sqrt(grid.l2sq(want))
    if denom == 0.0:
        return np.sqrt(grid.l2sq(got))
    return np.sqrt(grid.l2sq(got - want)) / denom
