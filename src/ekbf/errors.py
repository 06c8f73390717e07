"""Exception taxonomy shared across the package."""


class EkbfError(Exception):
    """Base class for all errors raised by this package."""


class InvalidMatrix(EkbfError):
    """Matrix input is malformed: non-finite entries, wrong rank, or asymmetric."""


class DimensionMismatch(EkbfError):
    """Operands have incompatible shapes."""


class NotPSD(EkbfError):
    """Matrix required to be positive semi-definite is not."""


class NotPD(EkbfError):
    """Matrix required to be positive definite is not."""


class ModelNotContractive(EkbfError):
    """Signal model fails the negative-curvature requirement on its drift."""


class NotReducible(EkbfError):
    """Basis change is not conformal, so regularity constants do not transport."""


class UnstableStep(EkbfError):
    """Step size too large for the model's stiffness (dt * jac_decay >= 0.5)."""


class NotStable(EkbfError):
    """Requested bound needs a strictly positive decay rate."""


class InvalidArgument(EkbfError, ValueError):
    """Scalar argument outside its admissible range."""


class ConfigError(EkbfError):
    """Experiment configuration file is malformed or inconsistent."""
