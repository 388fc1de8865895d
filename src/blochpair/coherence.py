"""Coherence-vector (Bloch) representation of two-qubit states.

A state ``rho`` is expanded in the orthonormal Hermitian basis

* ``L_0  = I_4 / 2``
* ``L_i  = sigma_i x I_2 / 2``          for i = 1..3
* ``L_3i+j = sigma_i x sigma_j / 2``    for i, j = 1..3
* ``L_12+j = I_2 x sigma_j / 2``        for j = 1..3

giving a real 16-vector ``(c0, vA, vAB, vB)`` with ``c0 = 1/2``.  The
map is an isometry: ``Tr(rho^2)`` equals the squared Euclidean norm of
the full 16-vector.  The correlation block ``vAB`` is flattened with the
first-qubit index varying slowest: slot ``3*(i-1) + j`` holds the
``sigma_i x sigma_j`` coefficient.

A state is a plain float array, ``(16,)`` for one state or ``(..., 16)``
for a stack, and its blocks are read through the slices ``VA``, ``VAB``
and ``VB``.
"""

from __future__ import annotations

import numpy as np

from .quantum import IDENTITY_2, pauli, validate_density_matrix

# Index layout of the flat 16-vector.
IDX_C0 = 0
VA = slice(1, 4)
VAB = slice(4, 13)
VB = slice(13, 16)


def _build_lambda_basis() -> np.ndarray:
    mats = [np.eye(4, dtype=complex) / 2.0]
    for i in (1, 2, 3):
        mats.append(np.kron(pauli(i), IDENTITY_2) / 2.0)
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            mats.append(np.kron(pauli(i), pauli(j)) / 2.0)
    for j in (1, 2, 3):
        mats.append(np.kron(IDENTITY_2, pauli(j)) / 2.0)
    out = np.array(mats)
    out.setflags(write=False)
    return out


_LAMBDA = _build_lambda_basis()


def lambda_basis() -> np.ndarray:
    """Return the 16 basis matrices as a read-only (16, 4, 4) array."""
    return _LAMBDA


def _as_flat(v) -> np.ndarray:
    """One state in: a float (16,) array, or ``ValueError`` on any other size."""
    return np.asarray(v, dtype=float).reshape(16)


def to_coherence(rho: np.ndarray) -> np.ndarray:
    """Validate a density matrix and expand it in the Lambda basis.

    The trace component is pinned to exactly ``1/2`` (its value for any
    unit-trace state); the remaining 15 components are the Frobenius
    projections onto the traceless basis elements.
    """
    rho = validate_density_matrix(rho)
    coeffs = np.einsum("ikl,lk->i", _LAMBDA, rho).real
    coeffs[IDX_C0] = 0.5
    return coeffs


def from_coherence(v) -> np.ndarray:
    """Reassemble the 4x4 Hermitian matrix with the given coordinates.

    Its trace is ``2 c0`` and it need not be positive semi-definite;
    :func:`~blochpair.quantum.validate_density_matrix` tests both.
    """
    flat = _as_flat(v)
    return np.einsum("i,ikl->kl", flat, _LAMBDA)


def _square_norm(x) -> np.ndarray:
    return np.einsum("...i,...i->...", x, x)


def _purity_of(square_norm) -> np.ndarray:
    """One-qubit purity ``Tr(rho^2) = 1/2 + 2|x|^2`` of Bloch blocks ``x`` with ``|x|^2 = square_norm``."""
    return 0.5 + 2.0 * square_norm


def factorization_residual(v) -> float:
    """Euclidean distance of ``vAB`` from the product form ``2 vA (x) vB``.

    Zero exactly on product states, and in particular whenever the
    reduced state of the second qubit is pure.
    """
    flat = _as_flat(v)
    prod = embed_factorized(flat[VA], flat[VB])[VAB]
    return float(np.linalg.norm(flat[VAB] - prod))


def embed_factorized(va, vb) -> np.ndarray:
    """States ``(1/2, vA, 2 vA (x) vB, vB)`` of blocks ``(..., 3)``, as ``(..., 16)``.

    ``va`` and ``vb`` broadcast against each other over the leading axes.
    """
    va, vb = np.broadcast_arrays(np.asarray(va, dtype=float), np.asarray(vb, dtype=float))
    lead = va.shape[:-1]
    out = np.empty(lead + (16,))
    out[..., IDX_C0] = 0.5
    out[..., VA] = va
    out[..., VAB] = np.einsum("...i,...j->...ij", va, 2.0 * vb).reshape(lead + (9,))
    out[..., VB] = vb
    return out


def _square_norms(states) -> tuple:
    """``(|v|^2, |vA|^2, |vB|^2)`` of one 16-vector or of each state of a stack."""
    arr = np.asarray(states, dtype=float)
    return _square_norm(arr), _square_norm(arr[..., VA]), _square_norm(arr[..., VB])


def _norm_defect(full, a, b) -> np.ndarray:
    """Per state the maximum of ``full - 1``, ``a - 1/4`` and ``b - 1/4``; a numpy scalar for one state."""
    return np.maximum(np.maximum(full - 1.0, a - 0.25), b - 0.25)[()]


def physicality_defect(states) -> np.ndarray:
    """Worst violation of the norm constraints, per state.

    A 16-vector gives a scalar and an (n, 16) stack an (n,) array: per
    state the maximum of ``|v|^2 - 1``, ``|vA|^2 - 1/4`` and
    ``|vB|^2 - 1/4``.  Values at or below zero mean all bounds hold.
    """
    return _norm_defect(*_square_norms(states))
