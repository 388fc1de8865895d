"""Exact linear algebra for a qubit pair.

Pauli matrices, density-matrix validation and the GKSL generator.
Matrices on the composite system are indexed with the first-qubit index
varying slowest, the order of ``np.kron(a, b)``.
"""

from __future__ import annotations

import numpy as np

# Validation tolerances, for input states only: integrator output meets
# the norm gate of ``dynamics`` instead.  The eigenvalue floor absorbs
# the rounding of states built numerically, as by ``from_coherence``.
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10

_SIGMA = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)

IDENTITY_2 = np.eye(2, dtype=complex)

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


def hermiticity_defect(m: np.ndarray) -> float:
    """Max-abs-entry distance between ``m`` and its conjugate transpose."""
    m = np.asarray(m)
    return float(np.max(np.abs(m - m.conj().T)))


def validate_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Validate a density matrix and return it as a complex array.

    The package's one test of what a state is, run by ``to_coherence``
    on its input and by the start gate on every command's start state.

    Raises
    ------
    ValueError
        If ``rho`` is not square, not Hermitian within
        :data:`HERMITICITY_TOL`, has trace away from one by more than
        :data:`TRACE_TOL`, or has an eigenvalue below
        :data:`EIGENVALUE_FLOOR`.  A non-finite entry fails too: its
        Hermiticity defect is NaN or infinite, and every test is written
        ``not x <= tol``, which NaN fails.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")
    defect = hermiticity_defect(rho)
    if not defect <= HERMITICITY_TOL:
        raise ValueError(f"density matrix is not Hermitian (defect {defect:.3e})")
    tr = complex(np.trace(rho))
    if not abs(tr - 1.0) <= TRACE_TOL:
        raise ValueError(f"density matrix trace {tr} differs from 1")
    eigs = np.linalg.eigvalsh(rho)
    if not eigs.min() >= EIGENVALUE_FLOOR:
        raise ValueError(f"density matrix has negative eigenvalue {eigs.min():.3e}")
    return rho


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
