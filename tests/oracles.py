"""Independent density-matrix oracles the tests check the package against.

They work on 4x4 matrices, with the first-qubit index varying slowest
as in ``blochpair.quantum.tensor``, so the two partial traces are the
unique linear maps with ``partial_trace_a(tensor(m, n)) == n * trace(m)``
(and symmetrically for ``partial_trace_b``).  Nothing in the package
calls them.
"""

from __future__ import annotations

import numpy as np

from blochpair.quantum import (
    HERMITICITY_TOL,
    hermiticity_defect,
    lindblad_apply,
    validate_density_matrix,
)

IDENTITY_4 = np.eye(4, dtype=complex)


def partial_trace_a(rho: np.ndarray) -> np.ndarray:
    """Trace out the first qubit of a 4x4 operator, returning 2x2."""
    r = np.asarray(rho, dtype=complex).reshape(2, 2, 2, 2)
    return np.einsum("abad->bd", r)


def partial_trace_b(rho: np.ndarray) -> np.ndarray:
    """Trace out the second qubit of a 4x4 operator, returning 2x2."""
    r = np.asarray(rho, dtype=complex).reshape(2, 2, 2, 2)
    return np.einsum("abcb->ac", r)


def purity(rho: np.ndarray) -> float:
    """Return ``Tr(rho @ rho)`` as a real number."""
    rho = np.asarray(rho, dtype=complex)
    return float(np.einsum("ij,ji->", rho, rho).real)


def is_density_matrix(rho: np.ndarray) -> bool:
    """Boolean companion of :func:`blochpair.quantum.validate_density_matrix`."""
    try:
        validate_density_matrix(rho)
    except ValueError:
        return False
    return True


def gksl_rhs(rho: np.ndarray, h: np.ndarray, jumps=()) -> np.ndarray:
    """Right-hand side of the GKSL master equation for a state ``rho``.

    Parameters
    ----------
    rho : (4, 4) array
        Density matrix of the composite system.
    h : (4, 4) array
        Hamiltonian; must be Hermitian within
        :data:`blochpair.quantum.HERMITICITY_TOL`.
    jumps : iterable of (4, 4) arrays
        Jump operators.  An empty list gives closed (unitary) dynamics.

    Returns
    -------
    (4, 4) array
        Hermitian, traceless time derivative of ``rho``.
    """
    h = np.asarray(h, dtype=complex)
    defect = hermiticity_defect(h)
    if defect > HERMITICITY_TOL:
        raise ValueError(f"Hamiltonian is not Hermitian (defect {defect:.3e})")
    return lindblad_apply(np.asarray(rho, dtype=complex), h, jumps)


def ab_slot(i: int, j: int) -> int:
    """Flat 0-based index into ``vAB`` of the sigma_i x sigma_j slot."""
    if i not in (1, 2, 3) or j not in (1, 2, 3):
        raise ValueError("correlation-slot subscripts must be in {1, 2, 3}")
    return 3 * (i - 1) + (j - 1)
