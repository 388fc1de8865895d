import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from blochpair import dynamics, protection
from blochpair.coherence import VA, VAB, embed_factorized, factorization_residual
from blochpair.dynamics import ControlLaw, integrate
from blochpair.generator import control_generators, dissipator_blocks, generator, t_matrices
from blochpair.model import TwoQubitModel
from blochpair.protection import (
    Coupling,
    IncompatibleDissipationError,
    _drift_coefficients,
    _monomials,
    axis1_escape_report,
    closed_form_drift,
    compatibility,
    dispersive_invariant_report,
    dispersive_zero_pattern,
    drift_batch,
    make_model,
    protected_run,
    protecting_control,
    random_factorized_states,
    reduced_b_generator,
    resonant_obstruction_report,
    transcription_report,
)
from blochpair.quantum import SIGMA_MINUS, SIGMA_PLUS, pauli
from conftest import NON_PAULI_CONTROLS, random_model
from oracles import drift_rows

ZERO_U = np.zeros(3)
PAULIS = np.array([pauli(1), pauli(2), pauli(3)])


def compatible_sigma31_model(g=0.9, x=0.4, y=0.3, omega_a=0.7, omega_b=1.1):
    """Damping toward the lower pole plus a rotated component, so the
    protecting control is nontrivial: (u1, u2) = (y, x) at vA3 = -1/2."""
    ell = SIGMA_MINUS + (x + 1j * y) * pauli(3)
    return make_model(Coupling("sigma3-sigma1", g), omega_a, omega_b, (ell,))


# -- coupling cases -----------------------------------------------------------


def test_coupling_lambda_matrices():
    g = 1.4
    disp = Coupling("dispersive", g).lambda_matrix()
    assert disp[2, 2] == g and np.count_nonzero(disp) == 1
    res = Coupling("resonant", g).lambda_matrix()
    assert res[0, 0] == g and res[1, 1] == g and np.count_nonzero(res) == 2
    s31 = Coupling("sigma3-sigma1", g).lambda_matrix()
    assert s31[2, 0] == g and np.count_nonzero(s31) == 1
    with pytest.raises(ValueError, match="unknown coupling"):
        Coupling("xy", g)


@pytest.mark.parametrize("g", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("tag", ["dispersive", "resonant", "sigma3-sigma1"])
def test_coupling_rejects_non_finite_strength(tag, g):
    with pytest.raises(ValueError, match="g must be finite"):
        Coupling(tag, g)


def test_protected_run_requires_b_on_its_sphere():
    model = compatible_sigma31_model()
    coupling = Coupling("sigma3-sigma1", 0.9)
    protected_run(model, coupling, -0.5, [0.0, 0.0, 0.5], 0.01, 1e-3)
    with pytest.raises(ValueError, match="vB"):
        protected_run(model, coupling, -0.5, [0.0, 0.0, 0.4], 0.01, 1e-3)
    assert factorization_residual(embed_factorized([0.1, 0.0, 0.2], [0.3, 0.4, 0.0])) == 0.0


# -- factorization drift ------------------------------------------------------


def test_drift_vanishes_without_coupling(rng):
    model = TwoQubitModel(0.8, -1.1, np.zeros((3, 3)), (SIGMA_MINUS,))
    vas, vbs = random_factorized_states(rng, 20)
    w = drift_batch(generator(model, np.array([1.0, -0.5, 0.3])), vas, vbs)
    assert np.max(np.abs(w)) < 1e-14


def test_dispersive_drift_on_invariant_configurations():
    c = Coupling("dispersive", 1.3)
    model = make_model(c)
    for va3 in (0.5, -0.5):
        for vb3 in (0.5, -0.5):
            w = drift_batch(generator(model, ZERO_U), [0.0, 0.0, va3], [0.0, 0.0, vb3])
            assert np.max(np.abs(w)) < 1e-14


def test_dispersive_drift_example_state():
    # vA = (0, 1/4, 0), vB = (1/2, 0, 0): third component is -g/4 and
    # the eighth is g/2; the sign conventions follow the generator route
    g = 1.0
    model = make_model(Coupling("dispersive", g))
    w = drift_batch(generator(model, ZERO_U), [0.0, 0.25, 0.0], [0.5, 0.0, 0.0])[0]
    assert w[2] == pytest.approx(-g / 4.0, abs=1e-13)
    assert abs(w[2]) == pytest.approx(g * 0.25 * (1 - 4 * 0.0**2), abs=1e-13)
    assert w[7] == pytest.approx(g / 2.0, abs=1e-13)


def test_dispersive_components_on_pinned_branches(rng):
    # pinning either qubit at a sigma_3 pole kills the whole drift
    m = generator(make_model(Coupling("dispersive", 0.9)), ZERO_U)
    for _ in range(20):
        va = rng.normal(size=3)
        va *= 0.5 * rng.uniform() ** (1 / 3) / np.linalg.norm(va)
        assert np.max(np.abs(drift_batch(m, va, [0.0, 0.0, 0.5]))) < 1e-14
        phi = rng.uniform(0, 2 * np.pi)
        vb = 0.5 * np.array([np.cos(phi), np.sin(phi), 0.0])
        assert np.max(np.abs(drift_batch(m, [0.0, 0.0, -0.5], vb))) < 1e-14


def test_resonant_drift_vanishes_at_aligned_poles():
    model = make_model(Coupling("resonant", 1.3))
    va = vb = np.array([[0.0, 0.0, 0.5]])
    assert np.max(np.abs(drift_batch(generator(model, [0.5, -0.3, 0.2]), va, vb))) < 1e-14
    assert np.max(np.abs(closed_form_drift(Coupling("resonant", 1.3), va, vb))) < 1e-14


@pytest.mark.parametrize("tag", ["dispersive", "resonant"])
def test_closed_form_matches_generator_route(tag, rng):
    coupling = Coupling(tag, 0.8)
    report = transcription_report(coupling, n_samples=200, seed=17)
    assert report["max_residual"] < 1e-11


def test_transcription_report_takes_the_model_it_checks():
    coupling = Coupling("resonant", 1.0)
    with pytest.raises(ValueError, match="resonant"):
        transcription_report(coupling, model=make_model(Coupling("dispersive", 1.0), 0.7, 1.3))
    default = make_model(coupling, 0.7, 1.3, (0.5 * SIGMA_MINUS,))
    assert transcription_report(coupling, model=default) == transcription_report(coupling)


def test_closed_form_rejects_sigma31():
    va = vb = np.array([[0.0, 0.0, 0.5]])
    with pytest.raises(ValueError, match="closed-form"):
        closed_form_drift(Coupling("sigma3-sigma1", 1.0), va, vb)


def test_drift_batch_matches_hand_built_states(rng):
    m = generator(random_model(rng), rng.uniform(-1, 1, 3))
    vas, vbs = random_factorized_states(rng, 50)
    states = np.array(
        [np.concatenate([[0.5], va, 2.0 * np.outer(va, vb).ravel(), vb]) for va, vb in zip(vas, vbs)]
    )
    rates = states @ m.T
    coupled = np.einsum("ni,nj->nij", rates[:, 1:4], vbs) + np.einsum("ni,nj->nij", vas, rates[:, 13:16])
    np.testing.assert_array_equal(drift_batch(m, vas, vbs), rates[:, 4:13] - 2.0 * coupled.reshape(-1, 9))


def test_drift_independent_of_locals_controls_noise(rng):
    coupling = Coupling("resonant", 1.1)
    vas, vbs = random_factorized_states(rng, 40)
    reference = drift_batch(generator(make_model(coupling), ZERO_U), vas, vbs)
    variants = [
        (make_model(coupling, omega_a=1.9), ZERO_U),
        (make_model(coupling, omega_b=-1.3), ZERO_U),
        (make_model(coupling, jumps=(SIGMA_MINUS,)), ZERO_U),
        (make_model(coupling, jumps=(SIGMA_PLUS, pauli(3) / np.sqrt(2))), ZERO_U),
        (make_model(coupling), np.array([2.0, -1.5, 0.7])),
        (
            make_model(coupling, omega_a=0.4, omega_b=0.9, jumps=(0.7 * SIGMA_MINUS,)),
            np.array([-1.0, 0.5, 2.0]),
        ),
    ]
    for model, u in variants:
        w = drift_batch(generator(model, u), vas, vbs)
        assert np.max(np.abs(w - reference)) < 1e-12


# -- control independence: the structural certificate -------------------------


def random_control_model(rng):
    """Random model with generic jumps and non-Pauli control Hamiltonians."""
    base = random_model(rng)
    controls = tuple(np.einsum("i,ikl->kl", rng.normal(size=3), PAULIS) for _ in range(3))
    return TwoQubitModel(base.omega_a, base.omega_b, base.lam, base.jumps, controls)


def test_control_generators_leave_b_pinned_block_and_drift_exactly_zero(rng):
    pinned = [4, 5, 7, 8, 10, 11, 13, 14]
    rest = [c for c in range(16) if c not in pinned]
    vas, _ = random_factorized_states(rng, 50)
    for _ in range(8):
        model = random_control_model(rng)
        assert not model.has_default_controls()
        _, mc = control_generators(model)
        assert np.any(mc)
        assert not np.any(mc[:, 13:16])  # the vB rows
        assert not np.any(mc[:, pinned][:, :, rest])
        for j in range(3):
            assert not np.any(_drift_coefficients(mc[j], vas))


def test_reports_see_a_control_that_reaches_b(monkeypatch):
    def leaky(model):
        m0, mc, model_hash = dynamics._split(model)
        mc = mc.copy()
        mc[1, 14, 2] = 1e-3  # vB2 row, vA2 column: pinned against the rest
        return m0, mc, model_hash

    monkeypatch.setattr(protection, "_split", leaky)
    with pytest.raises(AssertionError, match="vB rows"):
        axis1_escape_report(compatible_sigma31_model())
    assert dispersive_zero_pattern(make_model(Coupling("dispersive", 0.8))) == 1e-3


def test_reports_and_integrate_build_the_split_once_per_model(monkeypatch):
    builds = []

    def counted(model):
        builds.append(model)
        return control_generators(model)

    dynamics._split.cache_clear()
    monkeypatch.setattr(dynamics, "control_generators", counted)
    monkeypatch.setattr(protection, "control_generators", counted, raising=False)
    model = compatible_sigma31_model()
    dispersive_zero_pattern(model)
    axis1_escape_report(model)
    axis1_escape_report(model, seed=1)
    start = embed_factorized([0.0, 0.0, -0.5], [0.0, 0.0, 0.5])
    integrate(model, start, ControlLaw.constant([0, 0, 0]), 0.1, 1e-2)
    assert builds == [model]


# -- dispersive invariant submanifold ----------------------------------------


def test_dispersive_zero_pattern_structural():
    model = make_model(Coupling("dispersive", 0.8), 0.9, 1.2, (SIGMA_MINUS,))
    assert dispersive_zero_pattern(model) == 0.0


def test_pinned_indices_are_the_b_index_1_2_slots():
    # vAB slots with second subscript 1 or 2, plus vB1 and vB2; the columns are the rest
    assert protection._Z2_INDICES.tolist() == [4, 5, 7, 8, 10, 11, 13, 14]
    assert protection._NON_Z2_COLUMNS.tolist() == [0, 1, 2, 3, 6, 9, 12, 15]


@pytest.mark.parametrize("tag", ["dispersive", "resonant"])
def test_dispersive_zero_pattern_matches_per_sample_loop(tag):
    model = make_model(Coupling(tag, 0.8), 0.9, 1.2, (SIGMA_MINUS, pauli(3) / 3))
    u_samples = ([0.0, 0.0, 0.0], [1.3, -0.7, 0.4], [-2.0, 2.0, 1.0])
    pinned = [4, 5, 7, 8, 10, 11, 13, 14]
    rest = [c for c in range(16) if c not in pinned]
    expected = max(
        np.max(np.abs(generator(model, np.array(u))[np.ix_(pinned, rest)])) for u in u_samples
    )
    assert (expected == 0.0) == (tag == "dispersive")
    assert dispersive_zero_pattern(model) == pytest.approx(expected, rel=0, abs=1e-15)


def test_dispersive_invariance_under_control_and_damping(rng):
    model = make_model(Coupling("dispersive", 0.8), 0.9, 1.2, (SIGMA_MINUS,))
    law = ControlLaw.piecewise_constant(
        [0.0, 2.0, 5.0], rng.uniform(-1, 1, (3, 3)), bound=1.0
    )
    for sign in (1, -1):
        report = dispersive_invariant_report(
            model, [0.2, -0.1, 0.3], sign, law, horizon=10.0, step=1e-3
        )
        assert report["max_z2"] <= 1e-8
        assert report["max_vb3_deviation"] <= 1e-8
        assert report["structure_defect"] == 0.0


def test_dispersive_invariant_report_rejects_zero_sign():
    model = make_model(Coupling("dispersive", 0.8), 0.9, 1.2, (SIGMA_MINUS,))
    with pytest.raises(ValueError, match=r"sign must be \+1 or -1"):
        dispersive_invariant_report(model, [0.2, -0.1, 0.3], 0, ControlLaw.constant(ZERO_U), 1.0, 1e-2)


def test_affine_solution_set_reports_an_inconsistent_system():
    # d_hat vA has no third component, so v0 / 2 + d_hat vA = 0 has no solution for v0 = (0, 0, 1)
    solve = protection._affine_solution_set(np.diag([1.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0]))
    assert solve == {"kind": "empty", "dimension": None, "min_norm": None, "has_norm_half": False}


# -- compatibility and the protecting control ---------------------------------


def test_compatibility_cases():
    disp = Coupling("sigma3-sigma1", 1.0)
    damping = make_model(disp, jumps=(SIGMA_MINUS,))
    ok_minus, res_minus = compatibility(damping, -0.5)
    ok_plus, res_plus = compatibility(damping, +0.5)
    assert ok_minus and res_minus <= 1e-12
    assert not ok_plus and res_plus == pytest.approx(4.0, abs=1e-12)

    raising = make_model(disp, jumps=(SIGMA_PLUS,))
    assert compatibility(raising, +0.5)[0]
    assert not compatibility(raising, -0.5)[0]

    free = make_model(disp)
    assert compatibility(free, +0.5) == (True, 0.0)
    assert compatibility(free, -0.5) == (True, 0.0)

    dephasing = make_model(disp, jumps=(pauli(3) / np.sqrt(2),))
    assert compatibility(dephasing, +0.5)[0]
    assert compatibility(dephasing, -0.5)[0]


def test_protecting_control_without_dissipation():
    model = make_model(Coupling("sigma3-sigma1", 1.0), 0.3, 0.8)
    assert protecting_control(model, 0.5) == (0.0, 0.0)
    assert protecting_control(model, -0.5) == (0.0, 0.0)


def test_protecting_control_values():
    x, y = 0.4, 0.3
    model = compatible_sigma31_model(x=x, y=y)
    u1, u2 = protecting_control(model, -0.5)
    assert u1 == pytest.approx(y, abs=1e-12)
    assert u2 == pytest.approx(x, abs=1e-12)


@pytest.mark.parametrize("va3", [np.nan, np.inf, -np.inf])
def test_protecting_control_rejects_non_finite_va3(va3):
    model = make_model(Coupling("sigma3-sigma1", 1.0), jumps=(SIGMA_MINUS,))
    with pytest.raises(ValueError, match=r"va3 must be \+/- 1/2"):
        protecting_control(model, va3)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_protected_run_rejects_non_finite_vb0(bad):
    model = compatible_sigma31_model()
    with pytest.raises(ValueError, match=r"\|vB\|\^2 must be 1/4"):
        protected_run(model, Coupling("sigma3-sigma1", 0.9), -0.5, [bad, 0.0, 0.5], 0.01, 1e-3)


def test_protecting_control_rejects_incompatible():
    model = make_model(Coupling("sigma3-sigma1", 1.0), jumps=(SIGMA_MINUS,))
    with pytest.raises(IncompatibleDissipationError, match="d33"):
        protecting_control(model, +0.5)
    with pytest.raises(ValueError, match="va3"):
        protecting_control(model, 0.3)


def test_protected_run_keeps_b_pure_and_rotating():
    model = compatible_sigma31_model()
    traj, rot = protected_run(
        model, Coupling("sigma3-sigma1", 0.9), -0.5, [0.0, 0.0, 0.5], 20.0, 1e-3
    )
    assert traj.purity_b.min() >= 1.0 - 1e-7
    # vA frozen at the pole
    pole_dev = np.abs(traj.states[:, 1:4] - np.array([0.0, 0.0, -0.5]))
    assert np.max(pole_dev) < 1e-9
    # realized vB follows the reduced rotation generator
    sample = slice(0, len(traj), 911)
    predicted = np.stack(
        [expm(t * rot) @ np.array([0.0, 0.0, 0.5]) for t in traj.times[sample]]
    )
    np.testing.assert_allclose(traj.states[sample, 13:16], predicted, atol=1e-6)


def test_reduced_b_generator_forms():
    t3 = t_matrices()[2]
    t1 = t_matrices()[0]
    np.testing.assert_allclose(
        reduced_b_generator(Coupling("dispersive", 0.0), 0.5, 1.2), 2.4 * t3, atol=1e-15
    )
    disp = reduced_b_generator(Coupling("dispersive", 1.0), 0.5, 1.0)
    np.testing.assert_allclose(disp, (2.0 + 1.0) * t3, atol=1e-15)
    s31 = reduced_b_generator(Coupling("sigma3-sigma1", 1.0), -0.5, 1.0)
    np.testing.assert_allclose(s31, 2.0 * t3 - 1.0 * t1, atol=1e-15)
    with pytest.raises(ValueError, match="resonant"):
        reduced_b_generator(Coupling("resonant", 1.0), 0.5, 1.0)


@pytest.mark.parametrize("tag,va3", [("dispersive", 0.5), ("sigma3-sigma1", -0.5)])
def test_reduced_b_generator_matches_full_generator(tag, va3, rng):
    # on the protected manifold the vB rows of the full generator reduce
    # to the closed 3x3 rotation
    g, omega_b = 0.8, 1.3
    coupling = Coupling(tag, g)
    model = make_model(coupling, omega_a=0.5, omega_b=omega_b)
    m = generator(model, rng.uniform(-1, 1, 3))
    rot = reduced_b_generator(coupling, va3, omega_b)
    for _ in range(10):
        vb = rng.normal(size=3)
        vb *= 0.5 / np.linalg.norm(vb)
        state = embed_factorized([0.0, 0.0, va3], vb)
        vb_rate = (m @ state)[13:16]
        np.testing.assert_allclose(vb_rate, rot @ vb, atol=1e-12)


# -- resonant obstruction ------------------------------------------------------


def test_resonant_obstruction_small_sweep():
    report = resonant_obstruction_report(
        0.7, grid_step=0.125, n_random=2000, seed=5
    )
    assert report["n_drift_zero_points"] > 0
    assert report["min_va_norm_at_zero"] >= 0.5 - 1e-6
    assert report["min_drift_off_sphere"] > 1e-9
    fixed = report["purity_fixed_point"]
    assert fixed["kind"] == "point"
    assert fixed["has_norm_half"]
    np.testing.assert_allclose(fixed["solution"], [0.0, 0.0, -0.5], atol=1e-9)


@pytest.mark.parametrize("tag", ["dispersive", "resonant", "sigma3-sigma1"])
def test_drift_coefficients_match_drift_batch_on_product_grids(tag, rng):
    # coefficients x vB monomials against the per-pair route; float64
    # rounding of O(1) drift entries stays far below 1e-14
    model = make_model(Coupling(tag, 0.8), 0.7, 1.3, (SIGMA_MINUS, 0.3 * pauli(3)))
    m = generator(model, np.array([0.4, -0.9, 1.2]))
    inputs = []
    for n_va, n_vb in [(1, 1), (7, 50), (40, 13)]:
        vas, _ = random_factorized_states(rng, n_va)
        _, vbs = random_factorized_states(rng, n_vb)
        inputs.append((vas, vbs))
    # the drift is a polynomial, so the fit holds off the constraint set too:
    # |vA| in [0.6, 1], outside the ball, and vB anywhere in a cube around it
    vas = rng.normal(size=(11, 3))
    vas *= rng.uniform(0.6, 1.0, (11, 1)) / np.linalg.norm(vas, axis=1, keepdims=True)
    inputs.append((vas, rng.uniform(-0.6, 0.6, (17, 3))))
    for vas, vbs in inputs:
        n_va, n_vb = len(vas), len(vbs)
        w = _drift_coefficients(m, vas) @ _monomials(vbs)  # (n_va, 9, n_vb)
        direct = drift_batch(m, np.repeat(vas, n_vb, axis=0), np.tile(vbs, (n_va, 1)))
        assert np.max(np.abs(w.transpose(0, 2, 1).reshape(-1, 9) - direct)) <= 1e-14


def test_probe_inverse_is_exact():
    # entries 0, +-1/2 and +-1: the fit scales drift values by exact factors
    inverse = np.linalg.inv(_monomials(protection._PROBES))
    np.testing.assert_array_equal(2.0 * inverse, np.round(2.0 * inverse))
    np.testing.assert_array_equal(inverse @ _monomials(protection._PROBES), np.eye(10))


def obstruction_sweep_reference(g, grid_step, n_random, seed):
    """The report's sweep as chunks of per-pair drift_batch calls."""
    model = make_model(Coupling("resonant", g), 0.9, 1.1, (SIGMA_MINUS,))
    m = generator(model, np.array([0.3, -0.2, 0.1]))
    axis = np.arange(-0.5, 0.5 + grid_step / 2.0, grid_step)
    va_grid = np.array(np.meshgrid(axis, axis, axis, indexing="ij")).reshape(3, -1).T
    va_grid = va_grid[np.einsum("ij,ij->i", va_grid, va_grid) <= 0.25 + 1e-12]
    theta = np.arange(0.0, np.pi + grid_step / 2.0, grid_step)
    phi = np.arange(0.0, 2.0 * np.pi, grid_step)
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    vb_grid = 0.5 * np.column_stack(
        [(np.sin(tt) * np.cos(pp)).ravel(), (np.sin(tt) * np.sin(pp)).ravel(), np.cos(tt).ravel()]
    )
    chunks = [
        (np.repeat(block, len(vb_grid), axis=0), np.tile(vb_grid, (len(block), 1)))
        for block in np.array_split(va_grid, range(2, len(va_grid), 2))
    ]
    chunks.append(random_factorized_states(np.random.default_rng(seed), n_random))
    zeros, min_norm, worst, min_off = 0, np.inf, None, np.inf
    for vas, vbs in chunks:
        wnorm = np.linalg.norm(drift_batch(m, vas, vbs), axis=1)
        va_norm = np.linalg.norm(vas, axis=1)
        for k in np.flatnonzero(wnorm <= 1e-9):
            zeros += 1
            if va_norm[k] < min_norm:
                min_norm, worst = va_norm[k], {"va": vas[k].tolist(), "vb": vbs[k].tolist()}
        off = va_norm < 0.5 - 1e-6
        if np.any(off):
            min_off = min(min_off, np.min(wnorm[off]))
    return zeros, min_norm, worst, min_off

def test_resonant_obstruction_report_requires_resonant_model():
    model = make_model(Coupling("dispersive", 1.0), 0.9, 1.1, (SIGMA_MINUS,))
    with pytest.raises(ValueError, match="resonant"):
        resonant_obstruction_report(0.7, grid_step=0.25, n_random=10, model=model)


@pytest.mark.parametrize("grid_step", [0.125, 0.25])
@pytest.mark.parametrize("seed", [0, 5])
def test_resonant_obstruction_report_matches_drift_batch_sweep(grid_step, seed):
    report = resonant_obstruction_report(0.7, grid_step=grid_step, n_random=2000, seed=seed)
    zeros, min_norm, worst, min_off = obstruction_sweep_reference(0.7, grid_step, 2000, seed)
    assert zeros > 0
    assert report["n_drift_zero_points"] == zeros
    assert report["min_va_norm_at_zero"] == min_norm
    assert report["worst_zero_point"] == worst
    assert report["min_drift_off_sphere"] == pytest.approx(min_off, rel=0, abs=1e-15)


def _largest_square_within(tol: float) -> float:
    """Largest double ``sq`` with ``sqrt(sq) <= tol``."""
    sq = tol * tol
    while np.sqrt(sq) > tol:
        sq = np.nextafter(sq, 0.0)
    while np.sqrt(np.nextafter(sq, 1.0)) <= tol:
        sq = np.nextafter(sq, 1.0)
    return sq


#: the squared drift norms on either side of the sweep's tolerance
_TOL_SQ = _largest_square_within(protection._DRIFT_TOL)
_ABOVE_TOL_SQ = np.nextafter(_TOL_SQ, 1.0)
#: single-component nodes from 6 ulps below the tolerance to 6 above it
_NEAR_TOL = 1e-9 + np.arange(-6, 7) * np.spacing(1e-9)


def planted_rows(rng, n_rows, n_cols):
    """(n_rows, 9, n_cols) random drifts with planted zeros, tolerance nodes and a NaN row."""
    w = rng.normal(size=(n_rows, 9, n_cols))
    w[5, :, 3 % n_cols] = 0.0  # one exact zero
    w[7, :, [n_cols - 1, 0]] = 0.0  # two zeros, the first at column 0
    if n_cols > 4:
        w[9, :, [4, 2, n_cols - 1]] = 0.0  # three zeros, the first at column 2
    w[11] = np.nan
    for k, x in enumerate(_NEAR_TOL):
        w[13 + k, :, -1] = 0.0
        w[13 + k, 0, -1] = x
    # two-component nodes with squared norm exactly at the bound and one double above it
    for row, sq in ((30, _TOL_SQ), (31, _ABOVE_TOL_SQ)):
        w[row, :, -1] = 0.0
        w[row, :2, -1] = 1e-9, np.sqrt(sq - 1e-18)
    w[-1, :, -1] = 0.0  # a zero in the last row of the last chunk
    w[-2, :, 0] = 1e-12  # the smallest off-zero minimum, in the last chunk
    return w


@pytest.mark.parametrize("n_rows, n_cols", [(10_000, 1), (1500, 10), (60, 300)])
def test_drift_rows_match_the_per_node_reduction(n_rows, n_cols, rng):
    # three chunks of rows or more; the identity table leaves each drift as
    # it is, so the nodes are planted exactly
    assert n_rows > 2 * (protection._SWEEP_CHUNK // n_cols)
    coef = planted_rows(rng, n_rows, n_cols)
    mono = np.eye(n_cols)
    got = protection._drift_rows(coef, mono)
    want = drift_rows(coef @ mono)
    for g, x in zip(got, want):
        np.testing.assert_array_equal(g, x)
    n_zero, first_zero, row_min = got
    counted = n_zero[13 : 13 + len(_NEAR_TOL)]
    assert counted.any() and not counted.all()  # the tolerance nodes fall on both sides
    bound = np.einsum("rk,rk->r", coef[30:32, :, -1], coef[30:32, :, -1])
    assert list(bound) == [_TOL_SQ, _ABOVE_TOL_SQ]
    assert np.sqrt(bound[0]) <= protection._DRIFT_TOL < np.sqrt(bound[1])
    assert list(n_zero[30:32]) == [1, 0]
    assert n_zero[5] == 1 and n_zero[-1] == 1 and np.isnan(row_min[11])
    if n_cols > 4:
        assert (n_zero[7], first_zero[7], n_zero[9], first_zero[9]) == (2, 0, 3, 2)


def test_drift_rows_count_zeros_beside_a_nan_node(rng):
    # a NaN node makes the row minimum NaN; the row's zeros must still count
    coef = planted_rows(rng, 40, 10)
    mono = np.eye(10)
    mono[:, 6] = np.nan
    got = protection._drift_rows(coef, mono)
    want = drift_rows(coef @ mono)
    for g, x in zip(got, want):
        np.testing.assert_array_equal(g, x)
    assert np.all(np.isnan(got[2])) and got[0][5] == 1


def test_drift_rows_on_sweep_coefficients_match_the_per_node_reduction():
    # the report's own coefficients and vB table at grid step 0.1, rows on |vA| = 1/2 included
    model = make_model(Coupling("resonant", 0.7), 0.9, 1.1, (SIGMA_MINUS,))
    m = generator(model, np.array([0.3, -0.2, 0.1]))
    axis = np.arange(-0.5, 0.51, 0.1)
    vas = np.array(np.meshgrid(axis, axis, axis, indexing="ij")).reshape(3, -1).T
    vas = vas[np.einsum("ij,ij->i", vas, vas) <= 0.25 + 1e-12]
    _, vbs = random_factorized_states(np.random.default_rng(3), 700)
    vbs[:5] = [[0, 0, 0.5], [0, 0, -0.5], [0.5, 0, 0], [0, 0.5, 0], [0.3, 0.4, 0]]
    coef, mono = _drift_coefficients(m, vas), _monomials(vbs)
    got = protection._drift_rows(coef, mono)
    want = drift_rows(coef @ mono)
    for g, x in zip(got, want):
        np.testing.assert_array_equal(g, x)
    assert got[0].sum() > 0


#: random pairs per chunk of the obstruction sweep
_PAIR_CHUNK = protection._SWEEP_CHUNK // 2


def sweep_generator(g=0.7):
    """The obstruction report's default model and generator."""
    model = make_model(Coupling("resonant", g), 0.9, 1.1, (SIGMA_MINUS,))
    return generator(model, np.array([0.3, -0.2, 0.1]))


@pytest.mark.parametrize(
    "n_pairs", [_PAIR_CHUNK - 1, _PAIR_CHUNK, _PAIR_CHUNK + 1, 3 * _PAIR_CHUNK + 7]
)
@pytest.mark.parametrize("nan_entry", [False, True], ids=["resonant", "nan-entry"])
def test_pair_norms_match_one_drift_batch_as_one_column_rows(n_pairs, nan_entry):
    # chunked norms against the whole batch reduced node by node, bit for bit; the last
    # pair, vA = vB = (0, 0, 1/2), has zero drift under the resonant generator
    m = sweep_generator()
    if nan_entry:
        m[VAB.start + 4, VA.start] = np.nan
    vas, vbs = random_factorized_states(np.random.default_rng(n_pairs), n_pairs)
    vas[-1] = vbs[-1] = [0.0, 0.0, 0.5]
    norms = protection._pair_norms(m, vas, vbs)
    n_zero, first_zero, least = drift_rows(drift_batch(m, vas, vbs)[:, :, None])
    np.testing.assert_array_equal(norms, least)
    np.testing.assert_array_equal((norms <= protection._DRIFT_TOL).astype(np.intp), n_zero)
    assert not first_zero.any()
    if nan_entry:  # a NaN norm is no zero
        assert np.all(np.isnan(norms)) and not n_zero.any()
    else:
        assert norms[-1] == 0.0 and n_zero[-1] == 1


@pytest.mark.parametrize("n_random", [_PAIR_CHUNK + 1, 3 * _PAIR_CHUNK + 7])
def test_resonant_obstruction_report_matches_drift_batch_sweep_over_pair_chunks(n_random):
    report = resonant_obstruction_report(0.7, grid_step=0.25, n_random=n_random, seed=2)
    zeros, min_norm, worst, min_off = obstruction_sweep_reference(0.7, 0.25, n_random, 2)
    assert report["n_drift_zero_points"] == zeros
    assert report["min_va_norm_at_zero"] == min_norm
    assert report["worst_zero_point"] == worst
    assert report["min_drift_off_sphere"] == pytest.approx(min_off, rel=0, abs=1e-15)


def _traced_peak(f, *args, **kwargs) -> int:
    f(*args, **kwargs)  # warm
    tracemalloc.start()
    try:
        f(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_random_pairs_raise_the_sweep_peak_by_their_draws_and_one_chunk():
    # evaluated whole, 10,000 pairs raised the traced peak by about 360 bytes
    # each, several times their draws; a coarse grid keeps the grid's own peak small
    n_random = 10_000
    draws = _traced_peak(random_factorized_states, np.random.default_rng(7), n_random)
    vas, vbs = random_factorized_states(np.random.default_rng(7), _PAIR_CHUNK)
    chunk = _traced_peak(drift_batch, sweep_generator(1.0), vas, vbs)
    sweep = [
        _traced_peak(resonant_obstruction_report, 1.0, grid_step=0.25, n_random=n, seed=7)
        for n in (0, n_random)
    ]
    assert sweep[1] - sweep[0] <= draws + chunk


def test_sweep_end_step_keeps_no_copy_of_the_pairs():
    # combining the grid rows and the random pairs kept a (n, 3) copy of every pair's
    # vA and vB, 133 bytes per pair in all; per-row arrays and the draws keep about 85
    n_random = 100_000
    sweep = [
        _traced_peak(resonant_obstruction_report, 1.0, grid_step=0.25, n_random=n, seed=7)
        for n in (0, n_random)
    ]
    assert sweep[1] - sweep[0] <= 100 * n_random


def test_worst_zero_point_among_the_random_pairs(monkeypatch):
    # a planted random pair just inside |vA| = 1/2 with zero drift beats the grid's north
    # pole, |vA| = 1/2 exactly; it is reported from the random part, at its own index
    inside = np.nextafter(0.5, 0.0)

    def planted(rng, n):
        vas, vbs = random_factorized_states(rng, n)
        vas[5], vbs[5] = [0.0, 0.0, inside], [0.0, 0.0, 0.5]
        return vas, vbs

    clean = resonant_obstruction_report(1.0, grid_step=0.25, n_random=50, seed=3)
    monkeypatch.setattr(protection, "random_factorized_states", planted)
    report = resonant_obstruction_report(1.0, grid_step=0.25, n_random=50, seed=3)
    assert clean["min_va_norm_at_zero"] == 0.5
    assert report["n_drift_zero_points"] == clean["n_drift_zero_points"] + 1
    assert report["min_va_norm_at_zero"] == inside
    assert report["worst_zero_point"] == {"va": [0.0, 0.0, inside], "vb": [0.0, 0.0, 0.5]}


@pytest.mark.parametrize("grid_step", [0.0, -0.1, np.nan, np.inf, 1.0])
def test_resonant_obstruction_rejects_grid_steps_that_sweep_nothing(grid_step):
    with pytest.raises(ValueError, match="grid_step"):
        resonant_obstruction_report(0.7, grid_step=grid_step, n_random=10)


def test_resonant_fixed_point_off_sphere_with_tilted_noise():
    tilted = (pauli(1) + pauli(3)) / np.sqrt(2)
    model = make_model(
        Coupling("resonant", 0.7), 0.9, 1.1, (SIGMA_MINUS, tilted)
    )
    report = resonant_obstruction_report(
        0.7, grid_step=0.5, n_random=100, seed=5, model=model
    )
    fixed = report["purity_fixed_point"]
    assert fixed["kind"] == "point"
    assert fixed["min_norm"] < 0.5 - 1e-3
    assert not fixed["has_norm_half"]


def test_resonant_fixed_point_degenerate_no_noise():
    model = make_model(Coupling("resonant", 0.7))
    report = resonant_obstruction_report(
        0.7, grid_step=0.5, n_random=100, seed=5, model=model
    )
    fixed = report["purity_fixed_point"]
    assert fixed["kind"] == "space"  # every vA is a fixed point of zero noise
    assert fixed["has_norm_half"]


def test_resonant_fixed_point_line_under_pure_dephasing():
    # sigma_3 dephasing leaves the whole vA3 axis stationary, which
    # includes both poles
    model = make_model(Coupling("resonant", 0.7), jumps=(pauli(3) / np.sqrt(2),))
    report = resonant_obstruction_report(
        0.7, grid_step=0.5, n_random=100, seed=5, model=model
    )
    fixed = report["purity_fixed_point"]
    assert fixed["kind"] == "line"
    assert fixed["min_norm"] == pytest.approx(0.0, abs=1e-12)
    assert fixed["has_norm_half"]


# -- sigma3-sigma1 axis-1 branch rejection -------------------------------------


def test_axis1_branch_escape_rate():
    model = compatible_sigma31_model(omega_b=1.1)
    report = axis1_escape_report(model, seed=2)
    assert report["min_escape_rate"] == pytest.approx(1.1, abs=1e-10)
    frozen = compatible_sigma31_model(omega_b=0.0)
    report0 = axis1_escape_report(frozen, seed=2)
    assert report0["min_escape_rate"] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize(
    "lam",
    [
        Coupling("resonant", 0.9).lambda_matrix(),
        Coupling("sigma3-sigma1", 0.9).lambda_matrix() + 0.2,
    ],
    ids=["resonant", "sigma31-plus-offset"],
)
def test_axis1_escape_report_requires_sigma31_coupling(lam):
    # unchecked, the resonant model read a plausible min_escape_rate, 1.1000009625
    model = TwoQubitModel(0.3, 1.1, lam, (SIGMA_MINUS,), NON_PAULI_CONTROLS)
    with pytest.raises(ValueError, match="sigma3-sigma1"):
        axis1_escape_report(model)


def axis1_escape_reference(model, seed):
    """The default escape report as one generator and one state at a time."""
    vas, _ = random_factorized_states(np.random.default_rng(seed), 20)
    levels = np.linspace(-2.0, 2.0, 5)
    rates = []
    for sign in (1, -1):
        vb = np.array([0.5 * sign, 0.0, 0.0])
        for u in np.array(np.meshgrid(levels, levels, levels)).reshape(3, -1).T:
            m = generator(model, u)
            for va in vas:
                state = np.concatenate([[0.5], va, 2.0 * np.outer(va, vb).ravel(), vb])
                rates.append(np.linalg.norm((m @ state)[[14, 15]]))
    return min(rates)


@pytest.mark.parametrize(
    "model",
    [
        compatible_sigma31_model(),
        compatible_sigma31_model(omega_b=0.0),
        TwoQubitModel(
            0.3,
            -0.8,
            Coupling("sigma3-sigma1", 0.9).lambda_matrix(),
            (SIGMA_MINUS,),
            NON_PAULI_CONTROLS,
        ),
    ],
    ids=["sigma31", "omega_b=0", "non-pauli-controls"],
)
@pytest.mark.parametrize("seed", [0, 3])
def test_axis1_escape_report_matches_per_control_loop(model, seed):
    report = axis1_escape_report(model, seed=seed)
    expected = axis1_escape_reference(model, seed)
    assert report["min_escape_rate"] == pytest.approx(expected, rel=0, abs=1e-15)


def test_axis1_drift_vanishes_but_dynamics_escape(rng):
    # the drift cannot see the axis-1 obstruction: it vanishes there
    model = make_model(Coupling("sigma3-sigma1", 0.9), 0.7, 1.1)
    m = generator(model, ZERO_U)
    for _ in range(10):
        va = rng.normal(size=3)
        va *= 0.5 * rng.uniform() ** (1 / 3) / np.linalg.norm(va)
        assert np.max(np.abs(drift_batch(m, va, [0.5, 0.0, 0.0]))) < 1e-13
