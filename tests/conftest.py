import hypothesis
import pytest

from tegkit.presets import annealed_design, as_deposited_design, cu_ni_design

# Diffusion property cases can exceed hypothesis' default per-example
# deadline on slow machines; correctness is what matters here.
hypothesis.settings.register_profile("tegkit", deadline=None)
hypothesis.settings.load_profile("tegkit")


@pytest.fixture(scope="session")
def annealed():
    return annealed_design()


@pytest.fixture(scope="session")
def asdep():
    return as_deposited_design()


@pytest.fixture(scope="session")
def cuni():
    return cu_ni_design()
