import pytest
from hypothesis import settings

from helpers import make_calibrated, make_toy

# fixed examples, no example database: every run checks the same cases
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture
def toy():
    return make_toy()


@pytest.fixture
def calibrated():
    return make_calibrated()
