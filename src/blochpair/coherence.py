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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quantum import (
    EIGENVALUE_FLOOR,
    IDENTITY_2,
    pauli,
    tensor,
    validate_density_matrix,
)

__all__ = [
    "IDX_C0",
    "VA",
    "VAB",
    "VB",
    "ab_slot",
    "lambda_basis",
    "BlochVector",
    "to_coherence",
    "from_coherence",
    "reduced_bloch_a",
    "reduced_bloch_b",
    "reduced_purity",
    "factorization_residual",
    "is_factorized",
    "embed_factorized",
    "physicality_defect",
    "is_density_image",
]

# Index layout of the flat 16-vector.
IDX_C0 = 0
VA = slice(1, 4)
VAB = slice(4, 13)
VB = slice(13, 16)

#: default threshold below which a state counts as factorized
FACTORIZATION_TOL = 1e-8


def ab_slot(i: int, j: int) -> int:
    """Flat 0-based index into ``vAB`` of the sigma_i x sigma_j slot."""
    if i not in (1, 2, 3) or j not in (1, 2, 3):
        raise ValueError("correlation-slot subscripts must be in {1, 2, 3}")
    return 3 * (i - 1) + (j - 1)


def _build_lambda_basis() -> np.ndarray:
    mats = [np.eye(4, dtype=complex) / 2.0]
    for i in (1, 2, 3):
        mats.append(tensor(pauli(i), IDENTITY_2) / 2.0)
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            mats.append(tensor(pauli(i), pauli(j)) / 2.0)
    for j in (1, 2, 3):
        mats.append(tensor(IDENTITY_2, pauli(j)) / 2.0)
    out = np.array(mats)
    out.setflags(write=False)
    return out


_LAMBDA = _build_lambda_basis()


def lambda_basis() -> np.ndarray:
    """Return the 16 basis matrices as a read-only (16, 4, 4) array."""
    return _LAMBDA


@dataclass(frozen=True, eq=False)
class BlochVector:
    """Structured view of a coherence vector.

    Attributes
    ----------
    c0 : float
        Trace component; always ``1/2`` for a unit-trace state.
    va, vb : (3,) arrays
        Single-qubit blocks of the first and second qubit.
    vab : (9,) array
        Two-qubit correlation block, first-qubit index slowest.
    """

    c0: float
    va: np.ndarray
    vab: np.ndarray
    vb: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "va", np.asarray(self.va, dtype=float).reshape(3))
        object.__setattr__(self, "vab", np.asarray(self.vab, dtype=float).reshape(9))
        object.__setattr__(self, "vb", np.asarray(self.vb, dtype=float).reshape(3))

    @classmethod
    def from_array(cls, v: np.ndarray) -> "BlochVector":
        v = np.asarray(v, dtype=float).reshape(16)
        return cls(float(v[IDX_C0]), v[VA].copy(), v[VAB].copy(), v[VB].copy())

    def as_array(self) -> np.ndarray:
        out = np.empty(16)
        out[IDX_C0] = self.c0
        out[VA] = self.va
        out[VAB] = self.vab
        out[VB] = self.vb
        return out

    @property
    def purity_full(self) -> float:
        v = self.as_array()
        return float(v @ v)

    @property
    def purity_a(self) -> float:
        return float(reduced_purity(self.va))

    @property
    def purity_b(self) -> float:
        return float(reduced_purity(self.vb))


def _as_flat(v) -> np.ndarray:
    if isinstance(v, BlochVector):
        return v.as_array()
    return np.asarray(v, dtype=float).reshape(16)


def to_coherence(rho: np.ndarray, *, validate: bool = True) -> BlochVector:
    """Expand a density matrix in the Lambda basis.

    The trace component is pinned to exactly ``1/2`` (its value for any
    unit-trace state); the remaining 15 components are the Frobenius
    projections onto the traceless basis elements.
    """
    if validate:
        rho = validate_density_matrix(rho)
    else:
        rho = np.asarray(rho, dtype=complex)
    coeffs = np.einsum("ikl,lk->i", _LAMBDA, rho).real
    coeffs[IDX_C0] = 0.5
    return BlochVector.from_array(coeffs)


def from_coherence(v) -> np.ndarray:
    """Reassemble the 4x4 Hermitian matrix with the given coordinates.

    The result has unit trace but is *not* guaranteed positive
    semi-definite; use :func:`is_density_image` to test that separately.
    """
    flat = _as_flat(v)
    return np.einsum("i,ikl->kl", flat, _LAMBDA)


def reduced_bloch_a(v) -> np.ndarray:
    """Single-qubit block of the first qubit; ``Tr(rho_A^2) = 1/2 + 2|vA|^2``."""
    return _as_flat(v)[VA].copy()


def reduced_bloch_b(v) -> np.ndarray:
    """Single-qubit block of the second qubit; ``Tr(rho_B^2) = 1/2 + 2|vB|^2``."""
    return _as_flat(v)[VB].copy()


def _square_norm(x) -> np.ndarray:
    return np.einsum("...i,...i->...", x, x)


def reduced_purity(block) -> np.ndarray:
    """One-qubit purity ``Tr(rho^2) = 1/2 + 2|x|^2`` of Bloch blocks ``x`` (last axis)."""
    return 0.5 + 2.0 * _square_norm(block)


def factorization_residual(v) -> float:
    """Euclidean distance of ``vAB`` from the product form ``2 vA (x) vB``.

    Zero exactly on product states, and in particular whenever the
    reduced state of the second qubit is pure.
    """
    flat = _as_flat(v)
    prod = 2.0 * np.outer(flat[VA], flat[VB]).reshape(9)
    return float(np.linalg.norm(flat[VAB] - prod))


def is_factorized(v, tol: float = FACTORIZATION_TOL) -> bool:
    """Whether the correlation block is within ``tol`` of product form."""
    return factorization_residual(v) <= tol


def embed_factorized(va: np.ndarray, vb: np.ndarray) -> BlochVector:
    """Coherence vector of the state with blocks ``(vA, 2 vA (x) vB, vB)``."""
    va = np.asarray(va, dtype=float).reshape(3)
    vb = np.asarray(vb, dtype=float).reshape(3)
    return BlochVector(0.5, va, 2.0 * np.outer(va, vb).reshape(9), vb)


def physicality_defect(states) -> np.ndarray:
    """Worst violation of the norm constraints, per state.

    Accepts a single 16-vector, a :class:`BlochVector` or an (n, 16)
    stack and returns the (broadcast) maximum of the positive parts of
    ``|v|^2 - 1``, ``|vA|^2 - 1/4`` and ``|vB|^2 - 1/4``.  Values at or
    below zero mean all bounds hold.
    """
    if isinstance(states, BlochVector):
        states = states.as_array()
    arr = np.atleast_2d(np.asarray(states, dtype=float))
    full = _square_norm(arr) - 1.0
    norm_a = _square_norm(arr[:, VA]) - 0.25
    norm_b = _square_norm(arr[:, VB]) - 0.25
    defect = np.maximum(np.maximum(full, norm_a), norm_b)
    return defect if defect.size > 1 else defect[0]


def is_density_image(v, eig_floor: float = EIGENVALUE_FLOOR) -> bool:
    """Whether the coordinates correspond to a positive semi-definite state."""
    eigs = np.linalg.eigvalsh(from_coherence(v))
    return bool(eigs.min() >= eig_floor)
