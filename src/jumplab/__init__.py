"""jumplab: a numerical laboratory for long-range jump processes on graphs.

Modules:
  models      lattice/graph models, jump kernels, certified row sums, windows
  semigroup   certified heat kernels, killed semigroups, exit times
  conditions  fitted constants and witnesses for the named conditions
  harnack     parabolic/elliptic Harnack constants via the cone generators
  montecarlo  exact trajectory sampling on the infinite lattice
  io / cli    experiment configs, report bundles, `lab` command line
"""

from .models import (
    EXTERIOR_TRACKED,
    FiniteModel,
    KILLED,
    LadderKernel,
    LatticeModel,
    MuAlternating,
    MuConstant,
    MuTable,
    PolynomialKernel,
    REFLECTED,
    SuppressedPairKernel,
    TabulatedKernel,
    model_from_dict,
    truncate,
)
from .semigroup import expected_exit_time, heat_kernel
from .harnack import HarnackBox, ehi_constant, phi_constant
from .montecarlo import TrajectorySampler, hit_before_exit, sample_exit_time, sample_position_sup
from .io import ExperimentConfig, load_config, run_experiment

__version__ = "0.1.0"
