"""Shared fixtures."""

import pytest

from rollcast import diffcore as dc


@pytest.fixture
def float64():
    """Run the test in float64, for oracles that compare to float64 rounding."""
    with dc.float64():
        yield
