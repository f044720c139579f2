"""Exception types shared across the package."""


class QCForgeError(Exception):
    """Base class for all package errors."""


class OrientationError(QCForgeError):
    """An affine map or triangle is not positively oriented."""


class GeometryError(QCForgeError):
    """Degenerate or otherwise invalid geometric input."""


class DomainError(QCForgeError, ValueError):
    """A parameter lies outside its admissible range."""


class ValidationError(QCForgeError, ValueError):
    """Structured input (gauge table, scale list, ...) fails validation."""


class DepthLimitError(QCForgeError):
    """Requested construction depth exceeds the materialization guard."""
