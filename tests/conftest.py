import pytest
from hypothesis import settings

from scanvar.kernels import Observable

import helpers

# Property tests draw the same examples on every run and have no deadline,
# so the suite is reproducible and timing noise cannot fail it.
settings.register_profile("scanvar", derandomize=True, deadline=None, max_examples=60)
settings.load_profile("scanvar")


@pytest.fixture
def e1():
    return helpers.e1_family()


@pytest.fixture
def e1_f():
    return Observable(helpers.E1_F)
