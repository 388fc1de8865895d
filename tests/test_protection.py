import copy
import json
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from blochpair import dynamics, protection
from blochpair.coherence import VA, VAB, _square_norm, embed_factorized, factorization_residual
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
    protecting_control,
    protecting_law,
    random_factorized_states,
    reduced_b_generator,
    resonant_obstruction_report,
    transcription_report,
)
from blochpair.quantum import SIGMA_MINUS, SIGMA_PLUS, pauli
from conftest import NON_PAULI_CONTROLS, float_edge, random_control_model, random_model
from oracles import OBSTRUCTION_COFACTORS, drift_polynomials, drift_rows, full_grid_report, obstruction_identity_holds
from oracles import random_factorized_states as linalg_norm_draws

ZERO_U = np.zeros(3)


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


def test_embedded_product_state_has_zero_factorization_residual():
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


@pytest.mark.parametrize(
    "v0, dist, has_half", [((0.8, 0.0, 0.0), 0.4, True), ((1.2, 0.0, 0.0), 0.6, False)], ids=["near", "far"]
)
def test_affine_solution_set_reports_a_plane(v0, dist, has_half):
    # d_hat pins only vA1 = v0_1 / 2: a plane at that distance, which meets the sphere |vA| = 1/2 iff it is within 1/2
    solve = protection._affine_solution_set(np.diag([-1.0, 0.0, 0.0]), np.array(v0))
    assert solve == {
        "kind": "plane", "dimension": 2, "min_norm": dist, "solution": [dist, 0.0, 0.0], "has_norm_half": has_half
    }


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


def test_protecting_control_rejects_incompatible():
    model = make_model(Coupling("sigma3-sigma1", 1.0), jumps=(SIGMA_MINUS,))
    with pytest.raises(IncompatibleDissipationError, match="d33"):
        protecting_control(model, +0.5)
    with pytest.raises(ValueError, match="va3"):
        protecting_control(model, 0.3)


def test_protecting_law_keeps_b_pure_and_rotating():
    model = compatible_sigma31_model()
    traj = integrate(model, embed_factorized([0, 0, -0.5], [0, 0, 0.5]), protecting_law(model, -0.5), 20.0, 1e-3)
    rot = reduced_b_generator(Coupling("sigma3-sigma1", 0.9), -0.5, model.omega_b)
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


# -- resonant obstruction: the exact certificate and the zero set --------------


def resonant_drift_tensor(g, rng):
    """The (10, 9, 10) tensor ``[vA monomial, component, vB monomial]`` that ``_drift_coefficients``
    fits, read at its probes, for a random resonant model with damping, dephasing, local
    frequencies and a control offset."""
    jumps = (rng.uniform(0.1, 1.0) * SIGMA_MINUS, rng.uniform(0.1, 1.0) * pauli(3))
    model = make_model(Coupling("resonant", g), *rng.uniform(-2.0, 2.0, 2), jumps)
    coef = _drift_coefficients(generator(model, rng.uniform(-1.0, 1.0, 3)), protection._PROBES)
    inverse = np.linalg.inv(_monomials(protection._PROBES))
    return (inverse.T @ coef.reshape(10, 90)).reshape(10, 9, 10)


def test_resonant_drift_is_g_times_integers_and_the_obstruction_identity_is_exact(rng):
    # 4 (|vA|^2 - 1/4) = sum_k q_k w_k + 4 (|vB|^2 - 1/4) with w = drift / g, multiplied out
    # over Python integers: on |vB| = 1/2 a zero drift forces |vA| = 1/2, for every vA in R^3
    for _ in range(20):
        g = rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 2.0)
        tensor = resonant_drift_tensor(g, rng)
        integers = np.rint(tensor / g)
        assert np.max(np.abs(tensor - g * integers)) <= 1e-12
        assert set(np.unique(integers)) <= {-4.0, -1.0, 0.0, 1.0, 4.0}
        assert obstruction_identity_holds(drift_polynomials(integers.astype(int)))


@pytest.mark.parametrize("component", sorted(OBSTRUCTION_COFACTORS))
def test_obstruction_identity_fails_with_a_mutated_cofactor(component, rng):
    w = drift_polynomials(np.rint(resonant_drift_tensor(1.0, rng)).astype(int))
    mutated = copy.deepcopy(OBSTRUCTION_COFACTORS)
    exponents = next(iter(mutated[component]))
    mutated[component][exponents] += 1
    assert not obstruction_identity_holds(w, mutated)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 1023, 1024, 10_000])
def test_random_draws_are_the_linalg_norm_draws_to_the_bit(n):
    # the row norms are summed by columns; np.linalg.norm sums rows of three in the same order,
    # also where the squares underflow or overflow
    for seed in (0, 1, 7, 108):
        for got, want in zip(random_factorized_states(np.random.default_rng(seed), n),
                             linalg_norm_draws(np.random.default_rng(seed), n)):
            assert got.shape == want.shape == (n, 3) and got.tobytes() == want.tobytes()
        x = np.random.default_rng(seed).normal(size=(n, 3))
        for scale in (1e-200, 1e-160, 1.0, 1e160, 1e200):
            with np.errstate(over="ignore"):
                got, want = protection._row_norms(scale * x), np.linalg.norm(scale * x, axis=1, keepdims=True)
            assert got.tobytes() == want.tobytes()


def test_random_pairs_lie_above_the_certified_floor():
    # on |vA| <= 1/2, |vB| = 1/2 the cofactors have ||q||_2 <= sqrt(11/4) < 1.66, so by
    # Cauchy-Schwarz |drift| >= |g| (1/4 - |vA|^2) / 1.66; criterion 08's model and draws
    g = 0.7
    vas, vbs = random_factorized_states(np.random.default_rng(108), 10_000)
    norms = np.sqrt(_square_norm(drift_batch(sweep_generator(g), vas, vbs)))
    assert np.all(norms >= abs(g) * (0.25 - _square_norm(vas)) / 1.66)


def test_resonant_drift_vanishes_on_the_zero_set_the_grid_misses(rng):
    # with |vB| = 1/2 the zeros are the surfaces |vA| = 1/2, vB = R_z(+-pi/2) vA; the sweep's
    # grid meets them only at the north pole pair, on the sweep's default model (g = 1)
    m = sweep_generator(1.0)
    for va, vb in [((0, 0, -0.5), (0, 0, -0.5)), ((0.5, 0, 0), (0, 0.5, 0)), ((0.5, 0, 0), (0, -0.5, 0))]:
        assert not np.any(drift_batch(m, [va], [vb]))
    vas = rng.normal(size=(1000, 3))
    vas *= 0.5 / np.linalg.norm(vas, axis=1, keepdims=True)
    for sign in (1.0, -1.0):
        vbs = np.column_stack([-sign * vas[:, 1], sign * vas[:, 0], vas[:, 2]])
        assert np.max(np.sqrt(_square_norm(drift_batch(m, vas, vbs)))) <= 1e-14
    # vB = vA is no zero off the z-axis: the closed form gives |drift| = 2 sqrt(2) |g| rho^2,
    # with rho = |(vA1, vA2)|
    norms = np.sqrt(_square_norm(drift_batch(m, vas, vas)))
    np.testing.assert_allclose(norms, 2.0 * np.sqrt(2.0) * _square_norm(vas[:, :2]), rtol=0, atol=1e-14)
    assert np.all(norms > 0.0)


def with_nan_entry(m):
    """A copy of the generator ``m`` with one NaN among the vA columns of the vAB rows."""
    m = m.copy()
    m[VAB.start + 4, VA.start] = np.nan
    return m


def obstruction_sweep_reference(g, grid_step, n_random, seed, nan_entry=False, draws=random_factorized_states):
    """The report's sweep as chunks of per-pair drift_batch calls; a NaN norm off the sphere makes that minimum NaN."""
    model = make_model(Coupling("resonant", g), 0.9, 1.1, (SIGMA_MINUS,))
    m = generator(model, np.array([0.3, -0.2, 0.1]))
    if nan_entry:
        m = with_nan_entry(m)
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
    chunks.append(draws(np.random.default_rng(seed), n_random))
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
            min_off = np.minimum(min_off, np.min(wnorm[off]))
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
    w[-1, :, -1] = 0.0  # a zero in the last row
    w[-2, :, 0] = 1e-12  # the smallest off-zero minimum
    return w


@pytest.mark.parametrize("n_rows, n_cols", [(10_000, 1), (1500, 10), (60, 300)])
def test_drift_rows_match_the_per_node_reduction(n_rows, n_cols, rng):
    # the sweep hands _drift_rows a chunk's drifts; these are planted drifts, reduced in one call
    w = planted_rows(rng, n_rows, n_cols)
    got = protection._drift_rows(w)
    want = drift_rows(w)
    for g, x in zip(got, want):
        np.testing.assert_array_equal(g, x)
    n_zero, first_zero, row_min = got
    counted = n_zero[13 : 13 + len(_NEAR_TOL)]
    assert counted.any() and not counted.all()  # the tolerance nodes fall on both sides
    bound = np.einsum("rk,rk->r", w[30:32, :, -1], w[30:32, :, -1])
    assert list(bound) == [_TOL_SQ, _ABOVE_TOL_SQ]
    assert np.sqrt(bound[0]) <= protection._DRIFT_TOL < np.sqrt(bound[1])
    assert list(n_zero[30:32]) == [1, 0]
    assert n_zero[5] == 1 and n_zero[-1] == 1 and np.isnan(row_min[11])
    if n_cols > 4:
        assert (n_zero[7], first_zero[7], n_zero[9], first_zero[9]) == (2, 0, 3, 2)


def test_drift_rows_count_zeros_beside_a_nan_node(rng):
    # a NaN node makes the row minimum NaN; the row's zeros must still count
    w = planted_rows(rng, 40, 10)
    w[:, :, 6] = np.nan
    got = protection._drift_rows(w)
    want = drift_rows(w)
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
    w = _drift_coefficients(m, vas) @ _monomials(vbs)
    got = protection._drift_rows(w)
    want = drift_rows(w)
    for g, x in zip(got, want):
        np.testing.assert_array_equal(g, x)
    assert got[0].sum() > 0


#: most random pairs per chunk of the obstruction sweep
_PAIR_CHUNK = protection._PAIR_CHUNK


def sweep_generator(g=0.7):
    """The obstruction report's default model and generator."""
    model = make_model(Coupling("resonant", g), 0.9, 1.1, (SIGMA_MINUS,))
    return generator(model, np.array([0.3, -0.2, 0.1]))


@pytest.mark.parametrize(
    "n_pairs",
    [_PAIR_CHUNK - 1, _PAIR_CHUNK, _PAIR_CHUNK + 1, 2 * _PAIR_CHUNK - 1, 2 * _PAIR_CHUNK, 2 * _PAIR_CHUNK + 1,
     6 * _PAIR_CHUNK + 7],
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


_REPORT_PAIRS = [0, _PAIR_CHUNK - 1, _PAIR_CHUNK + 1, 2 * _PAIR_CHUNK + 1, 6 * _PAIR_CHUNK + 7, 10_000]


def nan_pair_draws(rng, n):
    """The sweep's random draws with a NaN in the vB of pair 5, whose vA lies off the sphere."""
    vas, vbs = random_factorized_states(rng, n)
    vas[5], vbs[5] = [0.1, 0.0, 0.0], [np.nan, 0.0, 0.0]
    return vas, vbs


@pytest.mark.parametrize(
    "n_random, nan",
    [(n, None) for n in _REPORT_PAIRS] + [(2 * _PAIR_CHUNK + 1, "entry"), (2 * _PAIR_CHUNK + 1, "pair")],
    ids=[str(n) for n in _REPORT_PAIRS] + ["nan-entry", "nan-pair"],
)
def test_resonant_obstruction_report_matches_drift_batch_sweep_over_pair_chunks(n_random, nan, monkeypatch):
    # the report adds its random pairs, then each grid chunk, to one summary; the reference
    # reduces every pair of both at once.  A NaN generator entry makes every drift NaN: no
    # zero, and a NaN off-sphere minimum; one NaN random pair makes that minimum NaN alone
    draws = nan_pair_draws if nan == "pair" else random_factorized_states
    monkeypatch.setattr(protection, "random_factorized_states", draws)
    if nan == "entry":
        monkeypatch.setattr(protection, "generator", lambda model, u: with_nan_entry(generator(model, u)))
    report = resonant_obstruction_report(0.7, grid_step=0.25, n_random=n_random, seed=2)
    zeros, min_norm, worst, min_off = obstruction_sweep_reference(0.7, 0.25, n_random, 2, nan == "entry", draws)
    assert report["n_drift_zero_points"] == zeros
    assert report["min_va_norm_at_zero"] == (None if worst is None else min_norm)
    assert report["worst_zero_point"] == worst
    assert report["min_drift_off_sphere"] == pytest.approx(min_off, rel=0, abs=1e-15, nan_ok=True)
    assert (zeros == 0) == (nan == "entry") and np.isnan(min_off) == (nan is not None)


def _traced_peak(f, *args, **kwargs) -> int:
    f(*args, **kwargs)  # warm
    tracemalloc.start()
    try:
        f(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("g", [1.0, 0.0])
def test_random_pairs_raise_the_sweep_peak_by_their_draws_and_one_chunk(g):
    # evaluated whole, 10,000 pairs raised the traced peak by about 360 bytes
    # each, several times their draws; a coarse grid keeps the grid's own peak small.
    # At g = 0 every pair and every grid node is a zero: a record kept per zero
    # added about 4 MB here, where the one summary adds about 0.55 MB
    n_random = 10_000
    draws = _traced_peak(random_factorized_states, np.random.default_rng(7), n_random)
    vas, vbs = random_factorized_states(np.random.default_rng(7), _PAIR_CHUNK)
    chunk = _traced_peak(drift_batch, sweep_generator(g), vas, vbs)
    sweep = [
        _traced_peak(resonant_obstruction_report, g, grid_step=0.25, n_random=n, seed=7)
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


def test_sweep_peak_holds_no_random_pair_while_the_grid_is_evaluated():
    # the random pairs are reduced to a summary before the grid's coefficients exist;
    # holding their draws and norms through the grid phase peaked at 1.56 MB here
    assert _traced_peak(resonant_obstruction_report, 1.0, grid_step=0.1, n_random=10_000) <= 1.25e6


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


def test_worst_zero_point_ties_go_to_the_grid(monkeypatch):
    # a planted random zero at exactly the |vA| of the grid's worst zero loses to the grid's pair;
    # it still counts
    south = [0.0, 0.0, -0.5]
    assert np.linalg.norm(drift_batch(sweep_generator(1.0), south, south)) <= protection._DRIFT_TOL

    def planted(rng, n):
        vas, vbs = random_factorized_states(rng, n)
        vas[5], vbs[5] = south, south
        return vas, vbs

    clean = resonant_obstruction_report(1.0, grid_step=0.25, n_random=50, seed=3)
    monkeypatch.setattr(protection, "random_factorized_states", planted)
    report = resonant_obstruction_report(1.0, grid_step=0.25, n_random=50, seed=3)
    assert clean["min_va_norm_at_zero"] == np.linalg.norm(south) == 0.5
    assert clean["worst_zero_point"] != {"va": south, "vb": south}
    assert report["n_drift_zero_points"] == clean["n_drift_zero_points"] + 1
    assert report["min_va_norm_at_zero"] == 0.5
    assert report["worst_zero_point"] == clean["worst_zero_point"]


def test_worst_zero_point_ties_on_the_root_go_to_the_lower_row(monkeypatch):
    # rows 82 and 118 of the grid-0.1 vA grid have distinct squares but one root |vA|, and the
    # sweep reaches row 118 first. With both rows' coefficients zeroed, every node of both is a
    # zero of least |vA|; the key (|vA|, source, row) reports row 82, as the full grid does. A
    # cofactor bound of 1e12 puts every floor below zero, so every row is evaluated
    grids = []

    def zeroed(m, vas):
        grids.append(vas)
        coef = _drift_coefficients(m, vas)
        coef[[82, 118]] = 0.0
        return coef

    monkeypatch.setattr(protection, "_drift_coefficients", zeroed)
    monkeypatch.setattr(protection, "_COFACTOR_BOUND", 1e12)
    report = resonant_obstruction_report(1.0, grid_step=0.1, n_random=100, seed=1)
    certificate = report.pop("certificate")
    assert json.dumps(report) == json.dumps(full_grid_report(1.0, 0.1, 100, 1))
    squares = _square_norm(grids[0])
    order = list(np.argsort(-squares, kind="stable"))
    assert squares[82] != squares[118] and np.sqrt(squares[82]) == np.sqrt(squares[118])
    assert order.index(118) < order.index(82) and certificate["grid_rows_certified"] == 0
    assert report["min_va_norm_at_zero"] == np.sqrt(squares[82]) < 0.5
    assert report["worst_zero_point"]["va"] == grids[0][82].tolist()


# -- the certified floor prunes the grid ---------------------------------------

#: vA rows of the obstruction grid at each step
_GRID_ROWS = {0.25: 33, 0.1: 515, 0.05: 4169}
#: strong amplitude damping and dephasing on qubit A
_STRONG_NOISE = make_model(Coupling("resonant", 0.7), 0.9, 1.1, (2.0 * SIGMA_MINUS, 1.5 * pauli(3)))


def pruned_certificate(g, grid_step, n_random, seed=1, model=None):
    """The report's certificate, after checking every other field byte for byte against the full grid."""
    report = resonant_obstruction_report(g, grid_step=grid_step, n_random=n_random, seed=seed, model=model)
    certificate = report.pop("certificate")
    assert json.dumps(report) == json.dumps(full_grid_report(g, grid_step, n_random, seed, model))
    assert certificate["grid_rows_evaluated"] + certificate["grid_rows_certified"] == _GRID_ROWS[grid_step]
    assert certificate["floor_coefficient"] == abs(g) / 1.66
    return certificate


@pytest.mark.parametrize("grid_step", [0.25, 0.1, 0.05])
@pytest.mark.parametrize("g", [1.0, 0.7, -0.4, 0.0, 1e6])
def test_pruned_obstruction_report_equals_the_full_grid(g, grid_step):
    # the rows the floor covers can change no field; at g = 0 there is no floor and no row is covered
    certificate = pruned_certificate(g, grid_step, 10_000)
    assert certificate["random_pairs_below_floor"] == 0
    assert (certificate["grid_rows_certified"] > 0) == (g != 0.0)


@pytest.mark.parametrize(
    "grid_step, n_random, model, certified",
    [(0.25, 0, None, 0), (0.1, 0, None, 461), (0.05, 0, None, 3959), (0.1, 10_000, _STRONG_NOISE, 461),
     (0.05, 0, _STRONG_NOISE, 3959)],
    ids=["0.25-no-pairs", "0.1-no-pairs", "0.05-no-pairs", "0.1-strong-noise", "0.05-strong-noise-no-pairs"],
)
def test_pruned_obstruction_report_equals_the_full_grid_without_pairs_and_under_strong_noise(
    grid_step, n_random, model, certified
):
    # with no random pair the least norm starts at +inf (at step 0.25 no grid row then lowers it
    # below a floor); the drift, and so the floor, ignores the noise
    certificate = pruned_certificate(0.7, grid_step, n_random, model=model)
    assert certificate["random_pairs_below_floor"] == 0 and certificate["grid_rows_certified"] == certified


@pytest.mark.parametrize("n_random", [0, 10_000])
def test_a_nan_generator_entry_voids_the_floor(n_random, monkeypatch):
    # every coefficient of one drift component is NaN: nothing is certified, and every row is evaluated
    monkeypatch.setattr(protection, "generator", lambda model, u: with_nan_entry(generator(model, u)))
    certificate = pruned_certificate(0.7, 0.1, n_random)
    assert certificate["grid_rows_certified"] == 0 and certificate["random_pairs_below_floor"] == 0


def test_a_random_pair_below_its_floor_voids_the_floor(monkeypatch):
    # the generator scaled by s scales the drift by s: at s = 1 the floor prunes, and once s takes
    # a random pair below its floor, the floor is refuted at run time and every row is evaluated
    for s in (1.0, 0.8, 0.6, 0.4, 0.2):
        monkeypatch.setattr(protection, "generator", lambda model, u, s=s: s * generator(model, u))
        certificate = pruned_certificate(1.0, 0.1, 10_000)
        if certificate["random_pairs_below_floor"]:
            break
        assert certificate["grid_rows_certified"] > 0, s
    assert s < 1.0 and certificate["grid_rows_certified"] == 0


def test_pruning_pins_the_rows_evaluated_for_the_benchmark_case():
    # the obstruction-sweep workload's report: g = 1, grid step 0.1, seed 1 and 10,000 random pairs
    report = resonant_obstruction_report(1.0, grid_step=0.1, n_random=10_000, seed=1)
    assert report["certificate"] == {
        "floor_coefficient": 1.0 / 1.66,
        "grid_rows_evaluated": 54,
        "grid_rows_certified": 461,
        "random_pairs_below_floor": 0,
    }


def test_the_rounding_allowance_keeps_a_row_that_its_floor_over_claims_by_less(monkeypatch):
    # g = 1e-7, grid step 0.25, no random pair, one vA row per chunk, so the floor is checked before
    # every row. In sweep order the first two off-sphere rows (|vA|^2 = 3/16) have least norms
    # 1.2167e-8 and 1.1755e-8. A cofactor bound of 0.5123 puts their floor at 1.2200e-8: above
    # the first norm, and above the second by 4.5e-10, less than the allowance 1e-9. Less the
    # allowance, the floor stays below the first norm and the second row is evaluated; without the
    # allowance the sweep stopped before it and reported 1.2167e-8 as the least norm off the sphere.
    monkeypatch.setattr(protection, "_COFACTOR_BOUND", 0.5123)
    monkeypatch.setattr(protection, "_SWEEP_CHUNK", 1)
    report = resonant_obstruction_report(1e-7, grid_step=0.25, n_random=0, seed=1)
    certificate = report.pop("certificate")
    assert json.dumps(report) == json.dumps(full_grid_report(1e-7, 0.25, 0, 1))
    assert report["min_drift_off_sphere"] == pytest.approx(1.1755e-8, rel=1e-4)
    assert certificate["floor_coefficient"] * (0.25 - 3 / 16) == pytest.approx(1.22e-8, rel=1e-4)
    # the 6 rows on the sphere and the 8 of |vA|^2 = 3/16; the next floor clears the allowance
    assert certificate["grid_rows_evaluated"] == 14


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


# -- each protection tolerance at its edge: the documented value in, one double past it out


def test_coupling_tolerance_edge():
    # lam[2, 2] is 0 in the resonant case, so the entrywise distance is exactly x; _COUPLING_TOL = 1e-12
    def model(x):
        lam = Coupling("resonant", 0.7).lambda_matrix()
        lam[2, 2] = x
        return TwoQubitModel(0.9, 1.1, lam, (SIGMA_MINUS,))

    protection.require_coupling(model(1e-12), Coupling("resonant", 0.7))
    with pytest.raises(ValueError, match="does not match the resonant coupling case"):
        protection.require_coupling(model(np.nextafter(1e-12, 1.0)), Coupling("resonant", 0.7))


def test_default_controls_tolerance_edge():
    # sigma_1 + x sigma_3 is Hermitian, traceless and exactly x from sigma_1 entrywise;
    # model._DEFAULT_CONTROLS_TOL = 1e-12 decides whether the protecting control applies
    def model(x):
        controls = (pauli(1) + x * pauli(3), pauli(2), pauli(3))
        return TwoQubitModel(0.7, 1.1, Coupling("sigma3-sigma1", 0.9).lambda_matrix(), (SIGMA_MINUS,), controls)

    assert model(1e-12).has_default_controls()
    protecting_control(model(1e-12), -0.5)
    assert not model(np.nextafter(1e-12, 1.0)).has_default_controls()
    with pytest.raises(ValueError, match="assumes the default Pauli controls"):
        protecting_control(model(np.nextafter(1e-12, 1.0)), -0.5)


def test_compatibility_tolerance_edge():
    # pumping at rate e moves the damped pole's residual off zero, about 4 e;
    # COMPATIBILITY_TOL = 1e-10 holds the last e whose residual is within it
    def model(e):
        return make_model(Coupling("sigma3-sigma1", 1.0), jumps=(SIGMA_MINUS, np.sqrt(e) * SIGMA_PLUS))

    inside, outside = float_edge(lambda e: compatibility(model(e), -0.5)[1] <= 1e-10, 0.0, 1e-9)
    assert compatibility(model(inside), -0.5)[0]
    protecting_control(model(inside), -0.5)
    assert not compatibility(model(outside), -0.5)[0]
    with pytest.raises(IncompatibleDissipationError, match=r"residual 1.000e-10"):
        protecting_control(model(outside), -0.5)


@pytest.mark.parametrize("pole", [0.5, -0.5])
def test_pole_tolerance_edge(pole):
    # dephasing holds both poles at every va3, so only _POLE_TOL = 1e-10 decides
    model = make_model(Coupling("sigma3-sigma1", 1.0), jumps=(0.3 * pauli(3),))
    inside, outside = float_edge(lambda a: abs(abs(a) - 0.5) <= 1e-10, pole, pole * (1.0 + 4e-10))
    protecting_control(model, inside)
    with pytest.raises(ValueError, match=r"va3 must be \+/- 1/2"):
        protecting_control(model, outside)


def test_reports_refuse_an_overflowing_generator():
    # omega_a = 1e308 overflows the rotation of A: both reports stop at the generator instead of
    # sweeping NaN drifts (the obstruction report would certify no row and find no zero)
    model = make_model(Coupling("resonant", 1.0), omega_a=1e308, omega_b=1.1, jumps=(SIGMA_MINUS,))
    words = f"the generator of model {model.hash_hex()} is not finite"
    with np.errstate(over="ignore", invalid="ignore"):  # numpy warns as the rotation overflows
        with pytest.raises(AssertionError, match=words):
            resonant_obstruction_report(1.0, grid_step=0.1, n_random=100, model=model)
        with pytest.raises(AssertionError, match=words):
            transcription_report(Coupling("resonant", 1.0), model=model)


def test_ball_slack_edge():
    # grid step 1/2 + e puts the vA grid point (e', e', 1/2 + 2 e') a hair outside the ball,
    # next to the drift zero vA = vB = (0, 0, 1/2); _BALL_SLACK = 1e-12 decides whether it is
    # swept, so whether the sweep finds a zero
    def point(e):
        s = 0.5 + e
        return np.arange(-0.5, 0.5 + s / 2, s)[[1, 1, 2]]

    inside, outside = float_edge(lambda e: _square_norm(point(e)) <= 0.25 + 1e-12, 0.0, 1e-11)
    swept = resonant_obstruction_report(1.0, grid_step=0.5 + inside, n_random=0)
    assert swept["worst_zero_point"] == {"va": point(inside).tolist(), "vb": [0.0, 0.0, 0.5]}
    left_out = resonant_obstruction_report(1.0, grid_step=0.5 + outside, n_random=0)
    assert (left_out["n_drift_zero_points"], left_out["worst_zero_point"]) == (0, None)


@pytest.mark.parametrize("floor, kind", [(1.5e-12, "point"), (0.5e-12, "line")], ids=["inside", "outside"])
def test_rank_floor_edge(floor, kind):
    # a singular value above _RANK_FLOOR = 1e-12 counts toward the rank; one below it leaves a null direction
    solve = protection._affine_solution_set(np.diag([1.0, 1.0, floor]), np.array([-1.0, 0.0, 0.0]))
    assert (solve["kind"], solve["solution"], solve["has_norm_half"]) == (kind, [0.5, 0.0, 0.0], True)


@pytest.mark.parametrize("v3, kind", [(1.8e-9, "line"), (2.2e-9, "empty")], ids=["inside", "outside"])
def test_consistency_tolerance_edge(v3, kind):
    # the equation for vA3 reads v3 / 2 = 0; _CONSISTENCY_TOL = 1e-9 forgives a residual up to 1e-9
    solve = protection._affine_solution_set(np.diag([1.0, 1.0, 0.0]), np.array([0.0, 0.0, v3]))
    assert solve["kind"] == kind


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["above", "below"])
@pytest.mark.parametrize("d_hat", [np.eye(3), np.diag([1.0, 1.0, 0.0])], ids=["point", "line"])
@pytest.mark.parametrize("dist, inside", [(0.9e-9, True), (1.1e-9, False)], ids=["inside", "outside"])
def test_half_slack_edge(sign, d_hat, dist, inside):
    # a solution set whose least norm is 1/2 + sign * dist: above 1/2, _HALF_SLACK = 1e-9 decides whether it
    # holds a norm-1/2 point; below, only for a point, since a line nearer than 1/2 always crosses the sphere
    solve = protection._affine_solution_set(d_hat, np.array([-(1.0 + 2.0 * sign * dist), 0.0, 0.0]))
    assert solve["min_norm"] == pytest.approx(0.5 + sign * dist, rel=0, abs=1e-15)
    assert solve["has_norm_half"] is (inside or (sign < 0 and solve["kind"] == "line"))


@pytest.mark.parametrize("d, off_sphere", [(0.9e-6, False), (1.1e-6, True)], ids=["inside", "outside"])
def test_off_sphere_margin_edge(d, off_sphere):
    # grid step (1 - d) / 2 puts a vA grid row at |vA| = 1/2 - d, whose smallest drift norm is about d;
    # it counts toward min_drift_off_sphere only if d exceeds _OFF_SPHERE_MARGIN = 1e-6
    report = resonant_obstruction_report(0.7, grid_step=(1.0 - d) / 2.0, n_random=0)
    if off_sphere:
        assert 0.5 * d < report["min_drift_off_sphere"] < 2.0 * d
    else:
        assert report["min_drift_off_sphere"] > 0.3
