"""Dense nonsymmetric eigenvalues, from LAPACK through numpy.linalg."""

import numpy as np

__all__ = ["eigvals"]


def eigvals(A) -> np.ndarray:
    """All eigenvalues of a real square matrix, as a complex array in no set
    order (LAPACK's real result for an all-real spectrum is cast to complex).
    A stack of shape (..., m, m) gives shape (..., m) in one call, each
    matrix's eigenvalues equal to those of its own call bit for bit.
    Non-square or non-finite input raises LinAlgError, a ValueError."""
    return np.linalg.eigvals(np.asarray(A, dtype=np.float64)).astype(np.complex128)
