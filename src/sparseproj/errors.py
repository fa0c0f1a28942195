"""Exception types shared across the package."""


class SparseProjError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(SparseProjError):
    """Array shapes are inconsistent with each other or with the declared p."""


class NonFiniteInput(SparseProjError):
    """Input data contains NaN or infinite entries."""


class SingularSystem(SparseProjError):
    """Posterior precision matrix is not positive definite."""


class NoConvergence(SparseProjError):
    """A solve ran projection.MAX_SWEEPS coordinate-descent sweeps and left a
    row's KKT residual above projection.TOL; the message names the worst rows."""


class DegenerateDiagonal(SparseProjError):
    """Quadratic term has a nonpositive diagonal entry."""


class InsufficientData(SparseProjError):
    """Not enough rows or statistics for the requested operation (e.g. fewer
    rows than folds, or cross-validation on a dataset built without folds)."""
