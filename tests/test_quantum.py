import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from blochpair.coherence import to_coherence
from blochpair.quantum import (
    IDENTITY_2,
    SIGMA_MINUS,
    hermiticity_defect,
    pauli,
    validate_density_matrix,
)
from conftest import random_density_matrix, random_pure_state
from oracles import (
    IDENTITY_4,
    gksl_rhs,
    is_density_matrix,
    partial_trace_a,
    partial_trace_b,
    purity,
)

KET00 = np.zeros((4, 4), dtype=complex)
KET00[0, 0] = 1.0


def test_pauli_matrices_exact():
    assert np.array_equal(pauli(1), np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.array_equal(pauli(2), np.array([[0, -1j], [1j, 0]], dtype=complex))
    assert np.array_equal(pauli(3), np.array([[1, 0], [0, -1]], dtype=complex))


@pytest.mark.parametrize("i", [1, 2, 3])
def test_pauli_squares_to_identity(i):
    assert np.array_equal(pauli(i) @ pauli(i), IDENTITY_2)


@pytest.mark.parametrize("i", [0, 4, -1])
def test_pauli_rejects_bad_index(i):
    with pytest.raises(ValueError):
        pauli(i)


def test_tensor_identities():
    assert np.array_equal(np.kron(IDENTITY_2, IDENTITY_2), IDENTITY_4)
    assert np.array_equal(
        np.diag(np.kron(pauli(3), pauli(3))), np.array([1, -1, -1, 1], dtype=complex)
    )


def test_tensor_trace_multiplicative(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    assert np.trace(np.kron(a, b)) == pytest.approx(np.trace(a) * np.trace(b))


def test_partial_trace_on_products(rng):
    rho_a = random_density_matrix(rng, 2)
    rho_b = random_density_matrix(rng, 2)
    composite = np.kron(rho_a, rho_b)
    np.testing.assert_allclose(partial_trace_a(composite), rho_b, atol=1e-14)
    np.testing.assert_allclose(partial_trace_b(composite), rho_a, atol=1e-14)


def test_partial_trace_maximally_mixed():
    np.testing.assert_allclose(partial_trace_a(IDENTITY_4 / 4), IDENTITY_2 / 2, atol=1e-15)


def test_partial_trace_projector():
    np.testing.assert_allclose(
        partial_trace_b(KET00), np.array([[1, 0], [0, 0]], dtype=complex), atol=1e-15
    )


def test_partial_trace_linear(rng):
    r1 = random_density_matrix(rng)
    r2 = random_density_matrix(rng)
    lhs = partial_trace_a(0.3 * r1 + 0.7 * r2)
    rhs = 0.3 * partial_trace_a(r1) + 0.7 * partial_trace_a(r2)
    np.testing.assert_allclose(lhs, rhs, atol=1e-15)


def test_purity_values(rng):
    assert purity(IDENTITY_4 / 4) == pytest.approx(0.25, abs=1e-15)
    assert purity(KET00) == pytest.approx(1.0, abs=1e-15)
    assert purity(np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)) == pytest.approx(0.5)
    rho = random_density_matrix(rng)
    assert 0.25 <= purity(rho) <= 1.0


def test_pure_iff_projector(rng):
    rho = random_pure_state(rng, 4)
    assert purity(rho) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(rho @ rho, rho, atol=1e-10)


def test_density_matrix_validation(rng):
    rho = random_density_matrix(rng)
    assert is_density_matrix(rho)
    assert not is_density_matrix(rho + 0.1 * np.kron(pauli(1), IDENTITY_2) * 1j)
    assert not is_density_matrix(2.0 * rho)
    # a small negative eigenvalue within the floor is tolerated
    eigvals, eigvecs = np.linalg.eigh(rho)
    eigvals[0] = -5e-11
    eigvals /= eigvals.sum()
    nudged = (eigvecs * eigvals) @ eigvecs.conj().T
    assert is_density_matrix(nudged)


def test_gksl_zero_inputs(rng):
    rho = random_density_matrix(rng)
    np.testing.assert_allclose(gksl_rhs(rho, np.zeros((4, 4))), np.zeros((4, 4)), atol=1e-15)
    h = random_density_matrix(rng)  # any Hermitian works
    np.testing.assert_allclose(gksl_rhs(IDENTITY_4 / 4, h), np.zeros((4, 4)), atol=1e-15)


def test_gksl_rejects_non_hermitian(rng):
    rho = random_density_matrix(rng)
    with pytest.raises(ValueError, match="Hermitian"):
        gksl_rhs(rho, np.array([[0, 1], [0, 0]]).repeat(2, 0).repeat(2, 1))


def test_gksl_damping_decreases_purity():
    # ground-state projector under a lowering jump: purity must decay
    rhs = gksl_rhs(KET00, np.zeros((4, 4)), [np.kron(SIGMA_MINUS, IDENTITY_2)])
    rate = 2.0 * np.trace(KET00 @ rhs).real
    assert rate == pytest.approx(-8.0, abs=1e-12)


def test_gksl_output_traceless_hermitian(rng):
    for _ in range(20):
        rho = random_density_matrix(rng)
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = h + h.conj().T
        jumps = [rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) for _ in range(2)]
        out = gksl_rhs(rho, h, jumps)
        assert abs(np.trace(out)) < 1e-12
        assert hermiticity_defect(out) < 1e-12


@settings(max_examples=30, deadline=None)
@given(
    entries=arrays(np.float64, (2, 4, 4), elements=st.floats(-2, 2, allow_nan=False)),
    shift=st.floats(-3, 3, allow_nan=False),
)
def test_gksl_invariant_under_identity_shift(entries, shift):
    h = entries[0] + 1j * entries[1]
    h = h + h.conj().T
    rho = np.eye(4, dtype=complex) / 4 + 0.05 * (h / max(1.0, np.abs(h).max()))
    rho /= np.trace(rho).real
    base = gksl_rhs(rho, h, [SIGMA_MINUS_FULL])
    shifted = gksl_rhs(rho, h + shift * IDENTITY_4, [SIGMA_MINUS_FULL])
    np.testing.assert_allclose(base, shifted, atol=1e-12)


SIGMA_MINUS_FULL = np.kron(SIGMA_MINUS, IDENTITY_2)


def test_validate_reports_reason():
    with pytest.raises(ValueError, match="trace"):
        validate_density_matrix(np.eye(4, dtype=complex))


def test_validate_rejects_non_square():
    with pytest.raises(ValueError, match=r"must be square, got shape \(4, 3\)"):
        validate_density_matrix(np.zeros((4, 3)))


def test_validate_rejects_negative_eigenvalue():
    rho = np.diag([1.5, -0.5, 0.0, 0.0])  # Hermitian with unit trace
    with pytest.raises(ValueError, match="negative eigenvalue -5.000e-01"):
        validate_density_matrix(rho)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("where", ["diagonal", "off-diagonal"])
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_non_finite_entries_rejected(where, bad):
    rho = IDENTITY_4 / 4
    if where == "diagonal":
        rho[0, 0], rho[1, 1] = bad, -bad  # the trace is NaN, as for a NaN entry
    else:
        rho[0, 1] = rho[1, 0] = bad
    for gate in (validate_density_matrix, to_coherence):
        with pytest.raises(ValueError, match="density matrix") as info:
            gate(rho)
        assert not isinstance(info.value, np.linalg.LinAlgError)
