import numpy as np
import pytest
import yaml

from beamctl import config
from beamctl.semigroup import ModelParams
from beamctl.spectral import SpatialGrid


@pytest.fixture
def p8():
    return ModelParams(c=1.0, d=1.0, k=1.0, n_modes=8, T=1.0, r=0.3)


@pytest.fixture
def p4():
    return ModelParams(c=1.0, d=1.0, k=1.0, n_modes=4, T=1.0, r=0.25)


@pytest.fixture
def grid129():
    return SpatialGrid(129)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(params=["c", "python"])
def yaml_loader(request, monkeypatch):
    """Load configs through libyaml, then through PyYAML's pure-Python parser."""
    if request.param == "python":
        from oracles import PythonLoader

        monkeypatch.setattr(config, "_Loader", PythonLoader)
    elif not yaml.__with_libyaml__:
        pytest.skip("PyYAML without libyaml")
