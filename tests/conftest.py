"""Suite-wide setup: BLAS on one thread.

OpenBLAS reads its thread count once, when numpy loads it, so the
variables are set here, before any test module imports numpy.  A value
already in the environment wins.  On a 2-core machine the default two
threads make the scipy reference exponentials of ``test_oracle.py``
about twice as slow as one.
"""

import os

import pytest

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


@pytest.fixture
def operators_made(monkeypatch):
    """A list that grows by one entry per Operator constructed."""
    from iontrap import Operator  # after the BLAS variables are set

    made = []
    post_init = Operator.__post_init__

    def counting(self):
        made.append(1)
        post_init(self)

    monkeypatch.setattr(Operator, "__post_init__", counting)
    return made
