import numpy as np
import pytest

from blochpair.coherence import VA, VAB, VB, lambda_basis
from blochpair.generator import (
    _pauli_coefficients,
    assemble_blocks,
    assemble_generator,
    control_generators,
    dissipator_blocks,
    generator,
    numeric_generator,
    t_matrices,
)
from blochpair.model import TwoQubitModel, load_model, save_model
from blochpair.quantum import SIGMA_MINUS, SIGMA_PLUS, lindblad_apply, pauli
from conftest import random_model
from oracles import pauli_coefficients

T_EXPECTED = {
    0: [[0, 0, 0], [0, 0, -1], [0, 1, 0]],
    1: [[0, 0, 1], [0, 0, 0], [-1, 0, 0]],
    2: [[0, -1, 0], [1, 0, 0], [0, 0, 0]],
}


def test_t_matrices_exact():
    t = t_matrices()
    for j, expected in T_EXPECTED.items():
        np.testing.assert_array_equal(t[j], np.array(expected, dtype=float))
        np.testing.assert_array_equal(t[j], -t[j].T)


def test_t_matrices_so3_commutators():
    t = t_matrices()
    np.testing.assert_allclose(t[0] @ t[1] - t[1] @ t[0], t[2], atol=1e-15)
    np.testing.assert_allclose(t[1] @ t[2] - t[2] @ t[1], t[0], atol=1e-15)
    np.testing.assert_allclose(t[2] @ t[0] - t[0] @ t[2], t[1], atol=1e-15)


def test_t_matrices_represent_half_pauli_commutators():
    # entry (i, k) of T_j is Tr(sigma_i * (-i)[sigma_j/2, sigma_k]) / 2
    t = t_matrices()
    for j in (1, 2, 3):
        rep = np.zeros((3, 3))
        for k in (1, 2, 3):
            img = lindblad_apply(pauli(k), pauli(j) / 2.0)
            for i in (1, 2, 3):
                rep[i - 1, k - 1] = 0.5 * np.trace(pauli(i) @ img).real
        np.testing.assert_allclose(rep, t[j - 1], atol=1e-14)


def test_pauli_coefficients_are_the_traces_to_the_bit():
    # normal entries with exact and signed zeros, and entries drawn from a set of edge values
    rng = np.random.default_rng(33)
    edges = np.array([0.0, -0.0, 1.0, -1.0, 2.5, 5e-324, -1e-300, 1e300, -1e300])
    for k in range(6000):
        if k % 2:
            h = rng.choice(edges, (2, 2)) + 1j * rng.choice(edges, (2, 2))
        else:
            parts = rng.normal(size=(2, 2, 2)) * (rng.random((2, 2, 2)) < 0.7) * rng.choice([1.0, -1.0], (2, 2, 2))
            h = parts[0] + 1j * parts[1]
        assert _pauli_coefficients(h).tobytes() == pauli_coefficients(h).tobytes(), h


def test_zero_model_gives_zero_generator():
    model = TwoQubitModel(0.0, 0.0, np.zeros((3, 3)))
    blocks = assemble_blocks(model, np.zeros(3))
    assert np.all(blocks.h_it == 0) and np.all(blocks.h_ib == 0)
    assert np.all(blocks.d_hat == 0) and np.all(blocks.v0 == 0)
    np.testing.assert_array_equal(generator(model, np.zeros(3)), np.zeros((16, 16)))


def test_dispersive_coupling_block_pattern():
    g = 1.7
    lam = np.zeros((3, 3))
    lam[2, 2] = g
    model = TwoQubitModel(0.0, 0.0, lam)
    blocks = assemble_blocks(model, np.zeros(3))
    expected = g * np.kron(t_matrices()[2], np.array([[0.0, 0.0, 1.0]]))
    np.testing.assert_allclose(blocks.h_it, expected, atol=1e-15)
    np.testing.assert_allclose(assemble_generator(blocks)[VAB, VA], -expected.T, atol=1e-15)


def test_coupling_blocks_match_the_kron_sum(rng):
    # h_it = sum_j T_j x lam[j, :] and h_ib = sum_j lam[:, j] x T_j, summed from +0
    # as a loop; the T_j have disjoint supports, so the blocks agree bit for bit
    t = t_matrices()
    for k in range(200):
        lam = rng.uniform(-2.0, 2.0, (3, 3))
        lam[rng.random((3, 3)) < 0.3] = 0.0
        lam *= -1.0 if k % 2 else 1.0  # all-negative columns give -0 products
        h_it, h_ib = np.zeros((3, 9)), np.zeros((3, 9))
        for j in range(3):
            h_it += np.kron(t[j], lam[j][None])
            h_ib += np.kron(lam[:, j][None], t[j])
        blocks = assemble_blocks(TwoQubitModel(0.3, 0.7, lam), np.zeros(3))
        for got, want in ((blocks.h_it, h_it), (blocks.h_ib, h_ib)):
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def test_amplitude_damping_blocks():
    d_hat, v0 = dissipator_blocks([SIGMA_MINUS])
    np.testing.assert_allclose(d_hat, np.diag([-2.0, -2.0, -4.0]), atol=1e-14)
    np.testing.assert_allclose(v0, [0.0, 0.0, -4.0], atol=1e-14)
    # the pole vA3 = -1/2 is the fixed point: v0_3/2 + vA3 * d33 = 0
    assert 0.5 * v0[2] + (-0.5) * d_hat[2, 2] == pytest.approx(0.0, abs=1e-14)
    _, v0_plus = dissipator_blocks([SIGMA_PLUS])
    assert 0.5 * v0_plus[2] + (0.5) * d_hat[2, 2] == pytest.approx(0.0, abs=1e-14)


def test_dephasing_blocks():
    d_hat, v0 = dissipator_blocks([pauli(3) / np.sqrt(2)])
    np.testing.assert_allclose(d_hat, np.diag([-1.0, -1.0, 0.0]), atol=1e-14)
    np.testing.assert_allclose(v0, np.zeros(3), atol=1e-14)


def test_analytic_matches_numeric(rng):
    worst = 0.0
    for _ in range(30):
        model = random_model(rng)
        u = rng.uniform(-2, 2, 3)
        diff = np.max(np.abs(generator(model, u) - numeric_generator(model, u)))
        worst = max(worst, diff)
    assert worst < 1e-11


def test_first_row_always_zero(rng):
    for _ in range(10):
        model = random_model(rng)
        m = numeric_generator(model, rng.uniform(-2, 2, 3))
        assert np.max(np.abs(m[0])) < 1e-13


def test_closed_system_antisymmetric(rng):
    model = TwoQubitModel(
        rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2, (3, 3))
    )
    m = generator(model, rng.uniform(-2, 2, 3))[1:, 1:]
    np.testing.assert_allclose(m, -m.T, atol=1e-12)


def test_dissipation_never_touches_b_rows(rng):
    jumps = tuple(
        np.array([[a, b], [c, -a]])
        for a, b, c in (rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3)))
    )
    quiet = TwoQubitModel(0.3, -0.7, rng.uniform(-2, 2, (3, 3)))
    noisy = TwoQubitModel(0.3, -0.7, quiet.lam, jumps)
    dissipative = generator(noisy, np.zeros(3)) - generator(quiet, np.zeros(3))
    assert np.max(np.abs(dissipative[VB, :])) == 0.0
    assert np.max(np.abs(dissipative[:, 0][VB])) == 0.0


def test_control_only_enters_a_blocks(rng):
    model = random_model(rng)
    u1, u2 = rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 3)
    b1 = assemble_blocks(model, u1)
    b2 = assemble_blocks(model, u2)
    np.testing.assert_array_equal(b1.h_b, b2.h_b)
    np.testing.assert_array_equal(b1.h_it, b2.h_it)
    np.testing.assert_array_equal(b1.h_ib, b2.h_ib)
    np.testing.assert_array_equal(b1.d_hat, b2.d_hat)
    np.testing.assert_array_equal(b1.v0, b2.v0)
    assert np.max(np.abs(b1.h_a - b2.h_a)) > 0


def test_generator_bilinear_in_control(rng):
    model = random_model(rng)
    bare = TwoQubitModel(0.0, 0.0, np.zeros((3, 3)))
    _, mc_bare = control_generators(bare)
    u1, u2 = rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 3)
    diff = generator(model, u1) - generator(model, u2)
    expected = np.einsum("j,jkl->kl", u1 - u2, mc_bare)
    np.testing.assert_allclose(diff, expected, atol=1e-12)


def test_generator16_structure(rng):
    model = random_model(rng)
    m = generator(model, rng.uniform(-2, 2, 3))
    blocks = assemble_blocks(model, np.zeros(3))
    # dissipative correlation block is d_hat x I_3, vB columns carry v0 x I_3
    lam0_column = m[:, 0]
    np.testing.assert_allclose(lam0_column[VA], blocks.v0, atol=1e-14)
    assert np.max(np.abs(lam0_column[VAB])) < 1e-14
    assert np.max(np.abs(lam0_column[VB])) < 1e-14


def test_numeric_generator_single_qubit_drift():
    lam = np.zeros((3, 3))
    model = TwoQubitModel(0.5, 0.0, lam)  # H = 0.5 * sigma3 x I
    m = numeric_generator(model, np.zeros(3))
    # vA block rotates with generator 2*omega_a*T3; vB block untouched
    np.testing.assert_allclose(m[VA, VA], 2 * 0.5 * t_matrices()[2], atol=1e-13)
    assert np.max(np.abs(m[VB, :])) < 1e-13
    middle = m[VAB, VAB]
    np.testing.assert_allclose(middle, np.kron(2 * 0.5 * t_matrices()[2], np.eye(3)), atol=1e-13)


def test_model_rejects_bad_inputs():
    with pytest.raises(ValueError, match="traceless"):
        TwoQubitModel(0.0, 0.0, np.zeros((3, 3)), (np.eye(2),))
    with pytest.raises(ValueError, match="3x3"):
        TwoQubitModel(0.0, 0.0, np.zeros((2, 2)))
    with pytest.raises(ValueError, match="Hermitian"):
        TwoQubitModel(
            0.0, 0.0, np.zeros((3, 3)), (), (np.array([[0, 1], [0, 0]]),) * 3
        )


@pytest.mark.parametrize(
    "operators, message",
    [
        ({"jumps": (np.eye(3),)}, r"jump operator 0 must be 2x2, got \(3, 3\)"),
        ({"control_hams": (pauli(1), pauli(2))}, "exactly three control Hamiltonians are required"),
        ({"control_hams": (pauli(1), np.zeros((3, 3)), pauli(3))}, r"control Hamiltonian 1 must be 2x2, got \(3, 3\)"),
        ({"control_hams": (pauli(1), pauli(2), np.eye(2))}, "control Hamiltonian 2 is not traceless"),
    ],
    ids=["3x3-jump", "two-controls", "3x3-control", "control-with-trace"],
)
def test_model_rejects_each_malformed_operator(operators, message):
    with pytest.raises(ValueError, match=message):
        TwoQubitModel(0.3, 0.9, np.eye(3), **operators)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["omega_a", "omega_b", "lam", "jump operator 0", "control Hamiltonian 1"])
def test_model_rejects_non_finite_entries(field, bad):
    kwargs = {"omega_a": 0.3, "omega_b": 0.9, "lam": np.eye(3), "jumps": (SIGMA_MINUS,)}
    if field in ("omega_a", "omega_b"):
        kwargs[field] = bad
    elif field == "lam":
        kwargs["lam"] = np.diag([1.0, bad, 1.0])
    elif field.startswith("jump"):
        kwargs["jumps"] = (np.array([[0.0, bad], [0.0, 0.0]]),)
    else:
        kwargs["control_hams"] = (pauli(1), np.array([[0.0, bad], [bad, 0.0]]), pauli(3))
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        TwoQubitModel(**kwargs)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("slot", [0, 1, 2])
@pytest.mark.parametrize("route", [assemble_blocks, generator, numeric_generator])
def test_generator_refuses_a_non_finite_control(route, slot, bad):
    # a NaN u gave 90 non-finite entries through generator and 256 through numeric_generator, without an error
    model = TwoQubitModel(0.3, 0.9, np.eye(3), jumps=(SIGMA_MINUS,))
    u = np.zeros(3)
    u[slot] = bad
    with pytest.raises(ValueError, match=r"control value u must be finite, got \["):
        route(model, u)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("slot", [0, 1, 2])
@pytest.mark.parametrize("method", ["hamiltonian_a", "hamiltonian"])
def test_model_hamiltonians_refuse_a_non_finite_control(method, slot, bad):
    # a NaN u gave NaN Hamiltonian entries, and an infinite one gave them with a RuntimeWarning
    model = TwoQubitModel(0.3, 0.9, np.eye(3), jumps=(SIGMA_MINUS,))
    u = np.zeros(3)
    u[slot] = bad
    with pytest.raises(ValueError, match=r"control value u must be finite, got \["):
        getattr(model, method)(u)


@pytest.mark.parametrize("entry", [1j, 1 + 1e-300j, complex(0, np.nan)], ids=["1j", "tiny-imag", "nan-imag"])
def test_model_refuses_a_complex_coupling(entry):
    # a float cast kept only the real part, with a ComplexWarning, so lam = diag(1j, 0, 0) became 0
    with pytest.raises(ValueError, match=r"lam must be real, got imaginary parts \[\["):
        TwoQubitModel(0.0, 0.0, np.diag([entry, 0, 0]))


def test_model_keeps_a_complex_coupling_with_zero_imaginary_parts():
    model = TwoQubitModel(0.0, 0.0, np.diag([1 + 0j, 0, 0]))
    assert model.lam.dtype == float
    np.testing.assert_array_equal(model.lam, np.diag([1.0, 0, 0]))


def test_model_json_round_trip(tmp_path, rng):
    model = random_model(rng)
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    assert back.omega_a == model.omega_a
    assert back.omega_b == model.omega_b
    np.testing.assert_array_equal(back.lam, model.lam)
    assert len(back.jumps) == len(model.jumps)
    for j1, j2 in zip(back.jumps, model.jumps):
        np.testing.assert_array_equal(j1, j2)
    assert back.hash_hex() == model.hash_hex()
    np.testing.assert_allclose(
        generator(back, np.ones(3)), generator(model, np.ones(3)), atol=1e-15
    )


def test_model_json_custom_controls_round_trip(tmp_path):
    custom = (
        (pauli(1) + pauli(3)) / np.sqrt(2),
        pauli(2),
        (pauli(1) - pauli(3)) / np.sqrt(2),
    )
    model = TwoQubitModel(0.4, -0.2, np.eye(3) * 0.3, (SIGMA_MINUS,), custom)
    path = tmp_path / "custom.json"
    save_model(model, path)
    back = load_model(path)
    assert not back.has_default_controls()
    for h1, h2 in zip(back.control_hams, model.control_hams):
        np.testing.assert_array_equal(h1, h2)
    u = np.array([0.3, -0.7, 0.2])
    np.testing.assert_allclose(generator(back, u), generator(model, u), atol=1e-15)
    np.testing.assert_allclose(
        generator(model, u), numeric_generator(model, u), atol=1e-12
    )


def test_generator_accepts_controls_traceless_within_model_tolerance():
    # traces of 1e-13 pass the model's check; at u1 = 50 the Hamiltonian's
    # trace is 5e-12, which the closed-form route must shed like the identity
    custom = tuple(pauli(i) + np.diag([1e-13, 0.0]) for i in (1, 2, 3))
    model = TwoQubitModel(0.4, -0.2, np.eye(3) * 0.3, (SIGMA_MINUS,), custom)
    u = np.array([50.0, 0.0, 0.0])
    m = generator(model, u)
    m0, mc = control_generators(model)
    np.testing.assert_allclose(m, m0 + 50.0 * mc[0], atol=1e-12)
    np.testing.assert_allclose(m, numeric_generator(model, u), atol=1e-12)


def test_numeric_generator_refuses_complex_projection_entries():
    # an anti-Hermitian part of 4e-13 passes the model's Hermiticity check; at u1 = 1e3 the
    # projection's imaginary entries exceed 1e-12, at u1 = 1 they do not
    custom = (pauli(1) + 4e-13j * pauli(3), pauli(2), pauli(3))
    model = TwoQubitModel(0.4, -0.2, np.eye(3) * 0.3, (SIGMA_MINUS,), custom)
    numeric_generator(model, [1.0, 0.0, 0.0])
    with pytest.raises(AssertionError, match="generator projection produced complex entries"):
        numeric_generator(model, [1e3, 0.0, 0.0])


def test_lambda_column_projection_definition(rng):
    # column j of the numeric generator is the basis projection of the
    # generator applied to basis element j
    model = random_model(rng)
    u = rng.uniform(-1, 1, 3)
    m = numeric_generator(model, u)
    lam = lambda_basis()
    h = model.hamiltonian(u)
    jumps = model.full_jumps()
    j = int(rng.integers(0, 16))
    img = lindblad_apply(lam[j], h, jumps)
    col = np.einsum("ikl,lk->i", lam, img).real
    np.testing.assert_allclose(m[:, j], col, atol=1e-13)


# -- each model tolerance at its edge: the documented value in, one double past it out


def test_control_hermiticity_tolerance_edge():
    # [[0, x], [0, 0]] is traceless and differs from its conjugate transpose by exactly x;
    # the control Hamiltonians' Hermiticity test shares _TRACELESS_TOL = 1e-12 with the trace test
    def controls(x):
        return (pauli(1), pauli(2), np.array([[0.0, x], [0.0, 0.0]]))

    TwoQubitModel(0.3, 0.9, np.eye(3), control_hams=controls(1e-12))
    with pytest.raises(ValueError, match="control Hamiltonian 2 is not Hermitian"):
        TwoQubitModel(0.3, 0.9, np.eye(3), control_hams=controls(np.nextafter(1e-12, 1.0)))


@pytest.mark.parametrize("name", ["jump operator", "control Hamiltonian"])
def test_traceless_tolerance_edge(name):
    # diag(x, 0) is Hermitian with trace exactly x; _TRACELESS_TOL = 1e-12
    def operators(x):
        m = np.diag([x, 0.0])
        return {"jumps": (m,)} if name == "jump operator" else {"control_hams": (m, pauli(2), pauli(3))}

    TwoQubitModel(0.3, 0.9, np.eye(3), **operators(1e-12))
    with pytest.raises(ValueError, match=f"{name} 0 is not traceless"):
        TwoQubitModel(0.3, 0.9, np.eye(3), **operators(np.nextafter(1e-12, 1.0)))
