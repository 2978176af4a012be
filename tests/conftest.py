import pytest

from lammos import defaults


@pytest.fixture
def motor():
    return defaults.default_motor()


@pytest.fixture
def fsm():
    return defaults.default_latch_fsm()
