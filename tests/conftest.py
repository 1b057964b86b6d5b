import pytest

from conekit import bump


@pytest.fixture(scope="session")
def reference_profile():
    """The default construction at the reference neck slope exp(-100)."""
    return bump.build_profile()


@pytest.fixture(scope="session")
def lab_profile():
    """Moderate-slope profile used by the sampling experiments."""
    return bump.build_profile(0.05)
