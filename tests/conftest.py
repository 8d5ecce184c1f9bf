import pytest

from polyfin import gen


@pytest.fixture
def rng():
    return gen.Draws(20240817)
