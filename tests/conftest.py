import numpy as np
import pytest
from hypothesis import settings

from jumplab.models import (
    LatticeModel,
    MuConstant,
    PolynomialKernel,
    TabulatedKernel,
)

# Every run draws the same Hypothesis examples (derandomize implies no
# example database), so two runs of one tree give the same results.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture
def z1():
    """Z^1 with the stable-like kernel at alpha = 1."""
    return LatticeModel(d=1, kernel=PolynomialKernel(1.0))


@pytest.fixture
def z2():
    return LatticeModel(d=2, kernel=PolynomialKernel(1.0))


@pytest.fixture
def two_state():
    """Two vertices joined by a single rate-j edge; fully solvable."""
    j = 0.7
    return LatticeModel(kind="explicit", vertices=("a", "b"),
                        edges=(("a", "b"),),
                        kernel=TabulatedKernel(entries=((("a", "b"), j),)),
                        mu_rule=MuConstant(1.0)), j


@pytest.fixture
def rng():
    return np.random.default_rng(0)
