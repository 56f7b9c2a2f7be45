"""Exception types shared across the package."""


class SimulationError(Exception):
    """Base class for all nhbounds errors."""


class ShapeError(SimulationError):
    """Array dimensions are inconsistent with the requested operation."""


class HermiticityViolation(SimulationError):
    """A matrix required to be Hermitian is not, beyond tolerance."""


class NotPSD(SimulationError):
    """A matrix required to be positive semidefinite has a materially negative eigenvalue."""


class NumericalOverflow(SimulationError):
    """A numerical result overflowed to inf/nan."""


class NormUnderflow(SimulationError):
    """A state norm (or survival weight) decayed below the representable floor.

    Signals that the no-jump / decaying branch is essentially gone and any
    normalized quantity derived from it is meaningless.
    """


class NotDistribution(SimulationError):
    """A vector that should be a probability distribution is not."""


class DegenerateObservable(SimulationError):
    """Both standard deviations vanish while the means differ; the scaled
    ratio is infinite and the corresponding bound is vacuous."""


class CommutatorViolation(SimulationError):
    """Two operators required to commute do not, beyond tolerance."""


class NonPositiveGamma(SimulationError):
    """The Hermitian decay operator has a materially negative eigenvalue."""


class IntegratorDiverged(SimulationError):
    """A propagated density operator failed its trace/positivity checks."""


class BadParameter(SimulationError):
    """A model or configuration parameter is out of range."""


class QuadratureDiverged(SimulationError):
    """The adaptive quadrature needed more bisections than its cap allows."""
