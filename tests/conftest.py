import numpy as np
import pytest
from hypothesis import settings

from torustutte import gen_grid, gen_k7, perturb

# Property tests replay the same examples on every run and stay bounded.
settings.register_profile("torustutte", derandomize=True, max_examples=25, deadline=None)
settings.load_profile("torustutte")


@pytest.fixture(scope="session")
def grid3():
    return gen_grid(3)


@pytest.fixture(scope="session")
def grid4():
    return gen_grid(4)


@pytest.fixture(scope="session")
def grid5():
    return gen_grid(5)


@pytest.fixture(scope="session")
def grid6():
    return gen_grid(6)


@pytest.fixture(scope="session")
def k7():
    return gen_k7()


@pytest.fixture(scope="session")
def bumpy3(grid3):
    mesh, placement = grid3
    return mesh, perturb(mesh, placement, 0.1, seed=5)


@pytest.fixture(scope="session")
def bumpy4(grid4):
    mesh, placement = grid4
    return mesh, perturb(mesh, placement, 0.075, seed=7)


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)
