"""Shared fixtures for the test suite."""

import pytest

from repro.sim.engine import Simulator


@pytest.fixture(params=[Simulator], ids=["pure"])
def make_sim(request):
    """The simulator class the kernel-contract tests construct: the
    pure-Python tuple-heap kernel, whose name the test ids carry."""
    return request.param
