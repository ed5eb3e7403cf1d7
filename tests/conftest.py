"""Shared fixtures."""

import os

# one BLAS/OpenMP thread, set before numpy loads: more threads reorder BLAS sums
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import pytest  # noqa: E402

from rollcast import diffcore as dc  # noqa: E402


@pytest.fixture
def float64():
    """Run the test in float64, for oracles that compare to float64 rounding."""
    with dc.float64():
        yield
