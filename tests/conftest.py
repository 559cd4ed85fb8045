"""Shared fixtures: measured-device parameters and standard registers."""
import pytest

from drcz import DeviceConfig, ModeRegister


@pytest.fixture(scope="session")
def table_params():
    return DeviceConfig.default().system_params()


@pytest.fixture()
def register2():
    return ModeRegister.standard(2)
