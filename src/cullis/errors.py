"""Exception types shared across the package."""


class CullisError(Exception):
    """Base class for every error raised by this package."""


class ShapeError(CullisError):
    """A matrix shape violates an operation's requirements."""


class ShapeMismatch(ShapeError):
    """Two operands have incompatible shapes."""


class FieldMismatch(CullisError):
    """Two operands live over different ground fields."""


class IndexOutOfRange(CullisError):
    """A 1-based row or column index falls outside the matrix."""


class EmptyResult(CullisError):
    """Striking out rows or columns left nothing behind."""


class LengthMismatch(CullisError):
    """A flat vector has the wrong length for the requested shape."""


class ZeroInverse(CullisError):
    """Attempted to invert the zero element."""


class BudgetExceeded(CullisError):
    """A count made before any work exceeded the budget: the one over-budget
    error, raised by `determinant._guard(cost, budget, default, what)`."""


ResourceGuard = BudgetExceeded  # the same class, importable under its older name


class ParityError(CullisError):
    """The row/column parity does not admit the requested construction."""
