"""Assembly of the 16x16 generator of the coherence-vector flow.

The master equation becomes a linear ODE ``d/dt v = M(u) v`` on the
16-vector ``(c0, vA, vAB, vB)``.  ``M`` is built here along two
independent routes:

* :func:`assemble_generator` places closed-form 3x3 / 3x9 blocks
  (rotation generators, coupling blocks, dissipation blocks) into the
  16x16 layout;
* :func:`numeric_generator` projects the GKSL generator column by
  column onto the Lambda basis, with no block-structure assumptions.

The two must agree to machine precision; the test suite certifies this
on randomized models, which pins every sign and orientation convention
used below.

Block conventions.  For a traceless 2x2 Hamiltonian ``h`` with
``alpha_j = Tr(h sigma_j)``, the single-qubit rotation generator is
``sum_j alpha_j T_j`` where ``T_j`` represents ``-i [sigma_j / 2, . ]``
on the span of the Pauli matrices.  Dissipation enters through a 3x3
matrix ``d_hat`` and a drive vector ``v0`` computed from the one-qubit
dissipator; in the 16x16 layout ``d_hat`` acts on ``vA``, ``d_hat x I_3``
on ``vAB``, ``v0`` sits in the ``c0`` column of the ``vA`` rows and
``v0 x I_3`` couples ``vB`` into the ``vAB`` rows.  The first row is
identically zero (trace preservation), so ``c0`` stays at ``1/2``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .coherence import VA, VAB, VB, lambda_basis
from .model import TwoQubitModel
from .quantum import lindblad_apply, pauli

#: largest imaginary entry that :func:`numeric_generator`'s projection may leave
_COMPLEX_ENTRY_TOL = 1e-12

_T = np.array(
    [
        [[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]],
        [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]],
        [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
    ]
)
_T.setflags(write=False)

_I3 = np.eye(3)


def t_matrices() -> np.ndarray:
    """The so(3) generators ``T_j`` representing ``-i [sigma_j / 2, . ]``.

    Returned as a read-only (3, 3, 3) array; ``[T_i, T_j] = eps_ijk T_k``.
    """
    return _T


def _pauli_coefficients(h: np.ndarray) -> np.ndarray:
    """Coefficients ``alpha_j = Tr(h sigma_j)`` of a 2x2 matrix; its identity part drops out.

    They are read off the entries as ``Re(h01 + h10)``, ``Im(h10) - Im(h01)`` and
    ``Re(h00 - h11)``.  The read is exact: every product in ``Tr(h @ sigma_j)`` is
    by 0, +-1 or +-i, and the products by 0 add only signed zeros.  The trace's sums
    start from +0, so adding +0 here gives a zero coefficient the trace's sign, and
    for finite ``h`` the result is the trace's to the bit (``tests/oracles.py``
    keeps the trace to check it).
    """
    (h00, h01), (h10, h11) = np.asarray(h, dtype=complex).tolist()
    return np.array([(h01 + h10).real + 0.0, -h01.imag + h10.imag + 0.0, (h00 - h11).real + 0.0])


def _rotation_generator(h: np.ndarray) -> np.ndarray:
    """3x3 antisymmetric generator of the Bloch rotation induced by ``h``."""
    alpha = _pauli_coefficients(h)
    return np.einsum("j,jkl->kl", alpha, _T)


def dissipator_blocks(jumps) -> tuple[np.ndarray, np.ndarray]:
    """One-qubit dissipation blocks ``(d_hat, v0)``.

    ``d_hat[i, j] = Tr(sigma_i D(sigma_j)) / 2`` is the action of the
    dissipator on the Bloch components, and
    ``v0[i] = Tr(sigma_i D(I_2)) / 2`` is the affine drive, so that the
    single-qubit Bloch equation reads ``d/dt vA = v0 / 2 + d_hat vA``
    (the 1/2 is the ``c0`` component the drive multiplies).
    """
    images = [lindblad_apply(x, None, jumps) for x in (pauli(1), pauli(2), pauli(3), np.eye(2))]
    coef = 0.5 * np.array([_pauli_coefficients(img) for img in images])  # row k: image of x_k
    return coef[:3].T, coef[3]


@dataclass(frozen=True, eq=False)
class GeneratorBlocks:
    """Closed-form blocks of the 16x16 generator.

    ``h_a`` and ``h_b`` are the 3x3 rotation generators of the two
    qubits, ``h_it`` (3x9) and ``h_ib`` (3x9) the coupling blocks acting
    on the correlation coordinates from the ``vA`` and ``vB`` rows; their
    partners in the ``vAB`` rows, ``-h_it.T`` and ``-h_ib.T``, are fixed by
    antisymmetry of the Hamiltonian part and placed by
    :func:`assemble_generator`.  ``d_hat`` and ``v0`` are the dissipation
    blocks of :func:`dissipator_blocks`.
    """

    h_a: np.ndarray
    h_b: np.ndarray
    h_it: np.ndarray
    h_ib: np.ndarray
    d_hat: np.ndarray
    v0: np.ndarray


def assemble_blocks(model: TwoQubitModel, u) -> GeneratorBlocks:
    """Compute all generator blocks for a model at control value ``u``.

    The coupling blocks are ``h_it = sum_j T_j x lam[j, :]`` and
    ``h_ib = sum_j lam[:, j] x T_j`` (rows of ``lam`` against the
    A rotation generators, columns against the B ones).
    """
    h_a = _rotation_generator(model.hamiltonian_a(u))
    h_b = _rotation_generator(model.hamiltonian_b())
    lam = model.lam
    # the T_j have disjoint supports, so each entry is a single product
    h_it = np.einsum("jab,jc->abc", _T, lam).reshape(3, 9)
    h_ib = np.einsum("bj,jac->abc", lam, _T).reshape(3, 9)
    d_hat, v0 = dissipator_blocks(model.jumps)
    return GeneratorBlocks(h_a=h_a, h_b=h_b, h_it=h_it, h_ib=h_ib, d_hat=d_hat, v0=v0)


def assemble_generator(blocks: GeneratorBlocks) -> np.ndarray:
    """Place the blocks into the 16x16 layout ``(c0, vA, vAB, vB)``."""
    m = np.zeros((16, 16))
    m[VA, 0] = blocks.v0
    m[VA, VA] = blocks.h_a + blocks.d_hat
    m[VA, VAB] = blocks.h_it
    m[VAB, VA] = -blocks.h_it.T
    m[VAB, VAB] = (
        np.kron(blocks.h_a, _I3)
        + np.kron(_I3, blocks.h_b)
        + np.kron(blocks.d_hat, _I3)
    )
    m[VAB, VB] = -blocks.h_ib.T + np.kron(blocks.v0.reshape(3, 1), _I3)
    m[VB, VAB] = blocks.h_ib
    m[VB, VB] = blocks.h_b
    return m


def generator(model: TwoQubitModel, u) -> np.ndarray:
    """Shorthand for ``assemble_generator(assemble_blocks(model, u))``."""
    return assemble_generator(assemble_blocks(model, u))


def numeric_generator(model: TwoQubitModel, u) -> np.ndarray:
    """16x16 generator obtained by projecting the GKSL map onto the basis.

    Column ``j`` holds the coherence coordinates of the generator
    applied to the basis element ``L_j``; no block structure is assumed,
    which makes this the reference implementation the closed-form
    assembly is checked against.
    """
    h = model.hamiltonian(u)
    jumps = model.full_jumps()
    lam_basis = lambda_basis()
    images = np.array([lindblad_apply(lam_basis[j], h, jumps) for j in range(16)])
    m = np.einsum("ikl,jlk->ij", lam_basis, images)
    if np.max(np.abs(m.imag)) > _COMPLEX_ENTRY_TOL:
        raise AssertionError("generator projection produced complex entries")
    return m.real


def control_generators(model: TwoQubitModel) -> tuple[np.ndarray, np.ndarray]:
    """Bilinear decomposition ``M(u) = M0 + sum_j u_j Mc[j]``.

    Returns the drift-plus-dissipation generator ``M0`` and a (3, 16, 16)
    stack of control generators, each independent of drift and noise.
    """
    blocks = assemble_blocks(model, np.zeros(3))  # only h_a depends on u
    m0 = assemble_generator(blocks)
    h_as = (_rotation_generator(model.hamiltonian_a(e)) for e in _I3)
    return m0, np.array([assemble_generator(replace(blocks, h_a=h)) for h in h_as]) - m0
