"""Speed limits and uncertainty relations for non-Hermitian quantum dynamics.

The package simulates dynamics generated by non-Hermitian Hamiltonians
(closed form and continuous-measurement form), and numerically evaluates
and verifies mean-based and deviation-based quantum speed limits and
thermodynamic-uncertainty-style inequalities, including the classical
Markov special case.  hbar = 1 throughout.
"""

from .bounds import (
    BoundReport,
    JumpCountObservable,
    SLACK_TOL,
    commutator_check,
    fid_ml,
    fid_ml_open,
    fid_mt,
    fid_mt_open,
    ground_energy,
    qsl_classical,
    qsl_ml,
    qsl_ml_open,
    qsl_mt,
    qsl_mt_open,
    sweep,
    tur_classical,
    tur_ml,
    tur_ml_open,
    tur_mt,
    tur_mt_open,
)
from .errors import (
    BadParameter,
    CommutatorViolation,
    DegenerateObservable,
    HermiticityViolation,
    IntegratorDiverged,
    NonPositiveGamma,
    NormUnderflow,
    NotDistribution,
    NotPSD,
    NumericalOverflow,
    QuadratureDiverged,
    ShapeError,
    SimulationError,
)
from .metrics import (
    fidelity,
    generalized_std,
    renyi_half,
)
from .models import (
    ClassicalMarkovModel,
    classical_initial_density,
    make_classical,
    make_dephasing,
    make_refrigerator,
    random_commuting,
    random_density,
    random_diagonal_jump_lindblad,
    random_pure_state,
)
from .propagation import (
    LindbladModel,
    NonHermitianModel,
    Trajectory,
    TrajectoryEnsemble,
    evolve_lindblad,
    jump_count_moments,
    liouvillian,
    propagator,
    sample_trajectory,
    trajectory_ensemble,
)
from .states import DensityOperator, StateVector, normalize, pure_density

__all__ = [name for name in dir() if not name.startswith("_")]
