"""Exact linear algebra for a qubit pair.

Matrices on the composite system are indexed with the first-qubit index
varying slowest, so ``tensor(a, b)`` equals ``np.kron(a, b)`` and the two
partial traces below are the unique linear maps with
``partial_trace_a(tensor(m, n)) == n * trace(m)`` (and symmetrically for
``partial_trace_b``).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "HERMITICITY_TOL",
    "TRACE_TOL",
    "EIGENVALUE_FLOOR",
    "IDENTITY_2",
    "IDENTITY_4",
    "SIGMA_PLUS",
    "SIGMA_MINUS",
    "pauli",
    "tensor",
    "partial_trace_a",
    "partial_trace_b",
    "purity",
    "hermiticity_defect",
    "is_density_matrix",
    "validate_density_matrix",
    "lindblad_apply",
    "gksl_rhs",
]

# Validation tolerances.  The eigenvalue floor is loose on purpose:
# states coming out of a fixed-step integrator carry tiny negative
# eigenvalues that are numerical, not physical.
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10

_SIGMA = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)

IDENTITY_2 = np.eye(2, dtype=complex)
IDENTITY_4 = np.eye(4, dtype=complex)

# Raising/lowering combinations sigma_1 +/- i*sigma_2, without a 1/2
# prefactor.  Used as amplitude-damping jump operators; any rate scaling
# is left to the caller.
SIGMA_PLUS = _SIGMA[0] + 1.0j * _SIGMA[1]
SIGMA_MINUS = _SIGMA[0] - 1.0j * _SIGMA[1]


def pauli(i: int) -> np.ndarray:
    """Return the Pauli matrix ``sigma_i``, ``i`` in {1, 2, 3}."""
    if i not in (1, 2, 3):
        raise ValueError(f"Pauli index must be 1, 2 or 3, got {i!r}")
    return _SIGMA[i - 1].copy()


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the first factor's index varying slowest."""
    return np.kron(np.asarray(a), np.asarray(b))


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


def hermiticity_defect(m: np.ndarray) -> float:
    """Max-abs-entry distance between ``m`` and its conjugate transpose."""
    m = np.asarray(m)
    return float(np.max(np.abs(m - m.conj().T)))


def validate_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Validate a density matrix and return it as a complex array.

    Raises
    ------
    ValueError
        If ``rho`` is not square, not Hermitian within
        :data:`HERMITICITY_TOL`, has trace away from one by more than
        :data:`TRACE_TOL`, or has an eigenvalue below
        :data:`EIGENVALUE_FLOOR`.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")
    defect = hermiticity_defect(rho)
    if defect > HERMITICITY_TOL:
        raise ValueError(f"density matrix is not Hermitian (defect {defect:.3e})")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"density matrix trace {tr} differs from 1")
    eigs = np.linalg.eigvalsh(rho)
    if eigs.min() < EIGENVALUE_FLOOR:
        raise ValueError(f"density matrix has negative eigenvalue {eigs.min():.3e}")
    return rho


def is_density_matrix(rho: np.ndarray) -> bool:
    """Boolean companion of :func:`validate_density_matrix`."""
    try:
        validate_density_matrix(rho)
    except ValueError:
        return False
    return True


def lindblad_apply(x: np.ndarray, h: np.ndarray | None, jumps=()) -> np.ndarray:
    """Apply the GKSL generator to an arbitrary square matrix.

    Computes ``-i[h, x] + sum_k (L_k x L_k^+ - {L_k^+ L_k, x} / 2)``
    without validating the inputs, so it can be used on basis elements
    as well as on states.  ``h`` may be ``None`` for a purely
    dissipative generator, and ``jumps`` may be empty for coherent
    evolution.
    """
    x = np.asarray(x, dtype=complex)
    out = np.zeros_like(x)
    if h is not None:
        h = np.asarray(h, dtype=complex)
        out += -1.0j * (h @ x - x @ h)
    for ell in jumps:
        ell = np.asarray(ell, dtype=complex)
        ell_dag = ell.conj().T
        k = ell_dag @ ell
        out += ell @ x @ ell_dag - 0.5 * (k @ x + x @ k)
    return out


def gksl_rhs(rho: np.ndarray, h: np.ndarray, jumps=()) -> np.ndarray:
    """Right-hand side of the GKSL master equation for a state ``rho``.

    Parameters
    ----------
    rho : (4, 4) array
        Density matrix of the composite system.
    h : (4, 4) array
        Hamiltonian; must be Hermitian within :data:`HERMITICITY_TOL`.
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
