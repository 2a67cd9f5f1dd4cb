import importlib.util
import pathlib

import numpy as np
import pytest

from centroflow.grids import CircleGrid, CubedSphereGrid
from centroflow.support import SupportField, ellipsoid_support, fourier_support


@pytest.fixture(scope="session")
def circle64():
    return CircleGrid(64)


@pytest.fixture(scope="session")
def circle192():
    return CircleGrid(192)


@pytest.fixture(scope="session")
def circle256():
    return CircleGrid(256)


@pytest.fixture(scope="session")
def sphere17():
    return CubedSphereGrid(17)


@pytest.fixture(scope="session")
def sphere33():
    return CubedSphereGrid(33)


@pytest.fixture(scope="session")
def flower256(circle256):
    # 1 + 0.1 cos(3 theta): convex (b in [0.2, 1.8]) but strongly aspherical
    return fourier_support(circle256, 1.0, a=[0.0, 0.0, 0.1])


@pytest.fixture(scope="session")
def unit_circle256(circle256):
    return SupportField(circle256, s=np.ones(circle256.N))


@pytest.fixture(scope="session")
def unit_sphere33(sphere33):
    return SupportField(sphere33, s=np.ones((6, sphere33.M, sphere33.M)))


def random_spd(rng, dim, cond_max=16.0):
    """Random SPD matrix with condition number <= cond_max."""
    Qmat, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    lo = 1.0
    hi = rng.uniform(1.0, cond_max)
    eigs = np.concatenate([[lo, hi], rng.uniform(lo, hi, size=dim - 2)])
    return (Qmat * eigs) @ Qmat.T


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


def load_tool(name):
    """tools/<name>.py as a module: the tools are scripts, run against any tree."""
    path = pathlib.Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool
