"""Exception hierarchy shared by the whole package."""
from __future__ import annotations


class SnulError(Exception):
    """Base class for every library-specific error."""


class InvalidConic(SnulError):
    """The conic coefficients do not define a lattice (e.g. a_hat = 0)."""


class UnsupportedLatticeClass(SnulError):
    """The lattice is not q-quadratic (lambda * tau = 0)."""


class DegenerateLattice(SnulError):
    """A branch y_j has zero leading coefficient; series composition impossible."""


class DivisionNotExact(SnulError):
    """Exact division left a nonzero remainder."""


class InvalidRecurrence(SnulError):
    """Recurrence coefficients violate gamma_n != 0 (n >= 1) or gamma_0 = 1."""


class NotQuasiDefinite(SnulError):
    """A leading principal Hankel determinant vanished."""

    def __init__(self, n: int, message: str | None = None):
        self.n = n
        super().__init__(message or f"Hankel determinant degenerate at n = {n}")


class InsufficientTruncation(SnulError):
    """The requested coefficients lie outside the valid truncation window."""

    def __init__(self, required: int, available: int | None = None, message: str | None = None):
        self.required = required
        self.available = available
        if message is None:
            message = f"truncation window too small: need order >= {required}"
            if available is not None:
                message += f", have {available}"
        super().__init__(message)


class NotLaguerreHahn(SnulError):
    """A structural assertion of the characterization failed at some level."""

    def __init__(self, level: int, reason: str):
        self.level = level
        self.reason = reason
        super().__init__(f"not Laguerre-Hahn at level n = {level}: {reason}")


class DegreeBoundExceeded(SnulError):
    """deg(theta_hat) exceeded max(deg A - 2, deg B - 2, deg C - 1)."""

    def __init__(self, level: int, degree: int, bound: int):
        self.level = level
        self.degree = degree
        self.bound = bound
        super().__init__(
            f"theta_hat degree {degree} exceeds bound {bound} at level n = {level}"
        )


class Inconsistent(SnulError):
    """Sequential moment solving hit an unsatisfiable coefficient equation."""

    def __init__(self, k: int, message: str | None = None):
        self.k = k
        super().__init__(message or f"Riccati coefficient equations inconsistent at moment u_{k}")


class FreeMoment(SnulError):
    """A moment is not pinned by the Riccati equation and no value was supplied."""

    def __init__(self, k: int):
        self.k = k
        super().__init__(f"moment u_{k} is a free parameter; supply a value or abort")


class Underdetermined(SnulError):
    """Reconstruction cannot separate A from B with the data at hand."""


class ProblemFileError(SnulError):
    """A problem file failed validation; message carries field context."""
