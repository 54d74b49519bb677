"""Exception hierarchy.

Validation errors carry the offending magnitude so callers (and the CLI)
can report what failed, not just that something failed.
"""

from __future__ import annotations


class EstimationError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(EstimationError):
    """An input object violates one of its invariants."""


class NotHermitian(ValidationError):
    def __init__(self, deviation: float):
        self.deviation = float(deviation)
        super().__init__(f"matrix is not Hermitian: max |A - A^dag| = {deviation:.3e}")


class NotUnitTrace(ValidationError):
    def __init__(self, trace: complex):
        self.trace = complex(trace)
        super().__init__(f"matrix does not have unit trace: tr = {trace:.12g}")


class NotPSD(ValidationError):
    def __init__(self, min_eigenvalue: float):
        self.min_eigenvalue = float(min_eigenvalue)
        super().__init__(f"matrix is not positive semidefinite: min eigenvalue = {min_eigenvalue:.6g}")


class EffectBoundExceeded(ValidationError):
    def __init__(self, max_eigenvalue: float):
        self.max_eigenvalue = float(max_eigenvalue)
        super().__init__(f"effect exceeds the identity: max eigenvalue = {max_eigenvalue:.12g}")


class InvalidPovm(ValidationError):
    def __init__(self, message: str, deviation: float | None = None):
        self.deviation = deviation
        super().__init__(message)


class WrongDimension(ValidationError):
    pass


class DimensionMismatch(ValidationError):
    pass


class WrongShape(ValidationError):
    pass


class VectorTooLong(ValidationError):
    def __init__(self, norm: float):
        self.norm = float(norm)
        super().__init__(f"Bloch vector norm {norm:.12g} exceeds 1")


class NotCommuting(EstimationError):
    def __init__(self, commutator_norm: float):
        self.commutator_norm = float(commutator_norm)
        super().__init__(f"states do not commute: max |[rho1, rho2]| = {commutator_norm:.3e}")


class NonPositiveParameter(EstimationError):
    pass


class SingularDenominator(EstimationError):
    pass


class DegenerateProblem(EstimationError):
    """The estimation problem carries no information (e.g. rho1 = rho2)."""


class SupportTooLarge(EstimationError):
    def __init__(self, rank: int, third_eigenvalue: float):
        self.rank = int(rank)
        self.third_eigenvalue = float(third_eigenvalue)
        super().__init__(
            f"joint support has rank {rank} (third eigenvalue {third_eigenvalue:.3e}); "
            "a two-dimensional subspace is required"
        )


class BasisAlignmentFailed(EstimationError):
    def __init__(self, residual: float):
        self.residual = float(residual)
        super().__init__(f"states are not expressible over the first two generators: residual {residual:.3e}")


class ParseError(EstimationError):
    pass


class BadParameter(EstimationError):
    pass


class UnsolvedCase(EstimationError):
    """No reduction produced a valid measurement; no optimality claim is made."""
