"""Exception hierarchy shared by all ergokit modules."""


class ErgokitError(Exception):
    """Base class for all errors raised by this package."""


class CapacityError(ErgokitError):
    """An array the operation would build exceeds core.DENSE_BYTES_MAX bytes."""


class ShapeError(ErgokitError):
    """Operands have incompatible dimensions."""


class ValidityError(ErgokitError):
    """An operator violates a structural invariant (hermiticity, trace, positivity, unitarity)."""


class NumericalError(ErgokitError):
    """An iterative numerical routine failed to converge."""


class DomainError(ErgokitError):
    """A parameter lies outside the domain an operation is defined on."""


class UnsupportedError(ErgokitError):
    """The operation is only implemented for a restricted system class (e.g. qubits)."""


class InfeasibilityError(ErgokitError):
    """No state with the requested properties exists in the searched family."""


class UnreachableBiasError(DomainError):
    """The requested local bias exceeds what the protocol can produce."""
