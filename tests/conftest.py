import pytest

from conwaymoonshine.cliffordcm import golay_lift_section
from conwaymoonshine.lattice import build_golay, build_leech, coordinate_frame


@pytest.fixture(scope="session")
def golay():
    return build_golay()


@pytest.fixture(scope="session")
def leech(golay):
    return build_leech(golay)


@pytest.fixture(scope="session")
def frame(leech):
    return coordinate_frame(leech)


@pytest.fixture(scope="session")
def lift(golay):
    return golay_lift_section(golay)
