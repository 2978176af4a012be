import pytest

from lammos import defaults
from lammos.mechlib import ScrewSpec


@pytest.fixture
def motor():
    return defaults.default_motor()


@pytest.fixture
def screw():
    return ScrewSpec()


@pytest.fixture
def fsm():
    return defaults.default_latch_fsm()
