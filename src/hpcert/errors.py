"""Exception hierarchy shared by every hpcert module."""


class VerificationError(Exception):
    """Base class for all errors raised by the engine itself."""


class NonconvergenceError(VerificationError):
    """An iterative scheme exhausted its budget before meeting its target."""


class DomainError(VerificationError):
    """An evaluator returned a non-finite value at a point that was not
    flagged singular, or a scheme refused an integrand it cannot handle."""


class PreconditionError(VerificationError):
    """Series coefficients failed the positivity/monotonicity scan."""


class CatalogError(VerificationError):
    """A check referenced an integrand or check id that is not registered."""


class BasisError(VerificationError):
    """An operation would produce a closed form outside the seven-constant basis."""
