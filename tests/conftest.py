import pytest

from minisol import memory as gm
from minisol.stdlib import fresh_memory
from minisol.values import BlockInfo, initial_env


@pytest.fixture
def sigma():
    return fresh_memory(100)


@pytest.fixture
def names():
    return gm.reserved_addresses(100)


@pytest.fixture
def env(names):
    return initial_env(10_000, names["0xglobal"])


@pytest.fixture
def binfo():
    return BlockInfo(now=0, sender=gm.Address(1), msg_value=0)
