import json
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from blochpair import dynamics
from blochpair.coherence import VA, VB, _square_norm, embed_factorized, physicality_defect
from blochpair.coherence import _norm_defect, lambda_basis, to_coherence
from blochpair.dynamics import (
    _BLOCK,
    ABORT_TOL,
    WARN_TOL,
    BoundaryStateError,
    ControlLaw,
    PhysicalityError,
    Trajectory,
    atomic_write_text,
    integrate,
    purification_scan,
    purity_rate_b,
    random_control_laws,
    write_trajectory_csv,
    write_trajectory_json,
    _rk4_map,
    _segment_bounds,
)
from blochpair.generator import control_generators, generator
from blochpair.model import TwoQubitModel
from blochpair.protection import Coupling, make_model
from blochpair.quantum import SIGMA_MINUS, SIGMA_PLUS, validate_density_matrix
from conftest import REFUSED_STARTS, float_edge, random_density_matrix, random_jump, random_model
import oracles
from oracles import random_control_laws as unique_control_laws
from oracles import rk4_feedback_reference, rk4_map_reference, rk4_sampled_reference

MIXED16 = np.concatenate([[0.5], np.zeros(15)])


def closed_model(omega_a=0.4, omega_b=1.0, lam_scale=0.0, rng=None):
    lam = np.zeros((3, 3))
    if lam_scale and rng is not None:
        lam = rng.uniform(-lam_scale, lam_scale, (3, 3))
    return TwoQubitModel(omega_a, omega_b, lam)


def test_control_law_constructors():
    law = ControlLaw.constant([1.0, 0.0, -1.0], bound=1.0)
    np.testing.assert_array_equal(law(0.7), [1.0, 0.0, -1.0])
    with pytest.raises(ValueError, match="bound"):
        ControlLaw.constant([2.0, 0.0, 0.0], bound=1.0)
    with pytest.raises(ValueError, match="increasing"):
        ControlLaw.piecewise_constant([0.0, 1.0, 0.5], np.zeros((3, 3)))
    pw = ControlLaw.piecewise_constant([0.0, 1.0], [[0, 0, 0], [1, 1, 1]])
    np.testing.assert_array_equal(pw(0.5), [0, 0, 0])
    np.testing.assert_array_equal(pw(1.5), [1, 1, 1])
    sampled = ControlLaw.sampled([0.0, 2.0], [[0, 0, 0], [1, 1, 1]])
    np.testing.assert_allclose(sampled(1.0), [0.5, 0.5, 0.5])


@pytest.mark.parametrize(
    "make",
    [
        lambda: ControlLaw.piecewise_constant([0.0, math.nan], [[0, 0, 0], [0.9, 0, 0]], bound=1.0),
        lambda: ControlLaw.sampled([0.0, math.nan, 2.0], np.zeros((3, 3))),
        lambda: ControlLaw.piecewise_constant([0.0, 1.0], [[0, 0, 0], [math.inf, 0, 0]]),
        lambda: ControlLaw.piecewise_constant([0.0], [[0.5, 0, 0]], bound=math.nan),
        lambda: ControlLaw.feedback(lambda t, v: np.array([5.0, 0.0, 0.0]), bound=math.nan),
    ],
    ids=["nan-breakpoint", "nan-sample-time", "inf-value", "nan-bound", "nan-feedback-bound"],
)
def test_control_law_rejects_non_finite_inputs(make):
    with pytest.raises(ValueError, match="finite"):
        make()


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: ControlLaw("piecewise-constant", times=np.array([0.5]), values=np.zeros((1, 3))), "t = 0"),
        (lambda: ControlLaw("sampled", times=np.array([0.0]), values=np.zeros((1, 3))), "two samples"),
        (lambda: ControlLaw("bogus"), "kind"),
        (lambda: ControlLaw("state-feedback"), "callback"),
        (
            lambda: ControlLaw("state-feedback", times=[0, 1], values=np.zeros((2, 3)), callback=lambda t, v: v[:3]),
            "a state-feedback law takes no times or values",
        ),
        (
            lambda: ControlLaw("piecewise-constant", times=[0], values=[[0, 0, 0]], callback=lambda t, v: v[:3]),
            "a piecewise-constant law takes no callback",
        ),
        (
            lambda: ControlLaw("sampled", times=[0, 1], values=np.zeros((2, 3)), callback=lambda t, v: v[:3]),
            "a sampled law takes no callback",
        ),
    ],
    ids=[
        "piecewise-late-start",
        "sampled-one-sample",
        "unknown-kind",
        "feedback-no-callback",
        "feedback-with-times",
        "piecewise-with-callback",
        "sampled-with-callback",
    ],
)
def test_directly_built_law_is_checked(make, message):
    # the dataclass constructor runs the same checks as the named constructors
    with pytest.raises(ValueError, match=message):
        make()


@pytest.mark.parametrize("make", [ControlLaw.piecewise_constant, ControlLaw.sampled])
def test_control_law_needs_one_value_per_time(make):
    with pytest.raises(ValueError, match="one control value per time"):
        make([0.0, 1.0, 2.0], np.zeros((2, 3)))


def test_sampled_law_returns_interpolation_just_below_a_knot():
    # np.interp overshoots the sample 5000 by 2 ulps here; the samples were checked when the law was built
    law = ControlLaw.sampled([0, 0.384, 1.422, 2.5], [[0, 0, 0], [-5000, 0, 0], [5000, 0, 0], [0, 0, 0]], bound=5000)
    u = law(np.nextafter(1.422, 0))
    assert abs(u[0] - 5000) <= 4 * np.spacing(5000.0)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(0.0, 3.0, exclude_min=True), min_size=1, max_size=6, unique=True),
    st.lists(st.floats(-1e4, 1e4), min_size=3 * 7, max_size=3 * 7),
    st.sampled_from([1e-3, 3e-3, 1e-2, 0.1]),
)
def test_sampled_law_stays_in_sample_box_at_stage_times(interior, values, step):
    times = np.concatenate([[0.0], np.sort(interior)])
    times = times[np.concatenate([[True], np.diff(times) > 0])]
    samples = np.array(values[: 3 * len(times)]).reshape(-1, 3)
    box = np.abs(samples).max()
    law = ControlLaw.sampled(times, samples, bound=box)
    t = np.arange(int(round(3.5 / step))) * step  # a run to 3.5, past the last sample: its stage times
    u = law(np.stack([t, t + 0.5 * step, t + step]))
    assert np.abs(u).max() <= box + 4 * np.spacing(box)


def test_control_law_values_cannot_change_after_checks():
    values = np.zeros((2, 3))
    law = ControlLaw.piecewise_constant([0.0, 1.0], values, bound=1.0)
    values[1, 0] = 5.0  # the caller's array is not the law's
    assert np.max(np.abs(law.values)) == 0.0
    with pytest.raises(ValueError, match="read-only"):
        law.values[1, 0] = 5.0


@pytest.mark.parametrize("bound", [-1.0, -1e-12])
def test_control_law_rejects_negative_bound(bound):
    with pytest.raises(ValueError, match="bound must be finite and >= 0"):
        ControlLaw.constant([0.0, 0.0, 0.0], bound=bound)
    with pytest.raises(ValueError, match="bound must be finite and >= 0"):
        ControlLaw.feedback(lambda t, v: np.zeros(3), bound=bound)
    ControlLaw.constant([0.0, 0.0, 0.0], bound=0.0)


def checked_law(kind, value, bound):
    """A law of ``kind`` whose one nonzero control value is ``value``, checked once."""
    if kind == "constant":
        return ControlLaw.constant([value, 0.0, 0.0], bound=bound)
    if kind == "sampled":
        return ControlLaw.sampled([0.0, 1.0], [[0.0, 0.0, 0.0], [0.0, 0.0, -value]], bound=bound)
    law = ControlLaw.feedback(lambda t, v: [0.0, -value, 0.0], bound=bound)
    law(0.0, MIXED16)
    return law


def ulps_over(bound, n):
    x = bound
    for _ in range(n):
        x = np.nextafter(x, np.inf)
    return float(x)


LAW_KINDS = ["constant", "sampled", "feedback"]


@pytest.mark.parametrize("kind", LAW_KINDS)
@pytest.mark.parametrize("bound, value", [(0.0, 1e-12), (1.0, 1.0 + 1e-12)], ids=["zero", "one"])
def test_control_bound_refuses_a_fixed_absolute_slack(kind, bound, value):
    # a bound of 0 declares no control; 1 + 1e-12 is about 4,500 ulps over 1
    with pytest.raises(ValueError, match=f"control value {value:.6g} exceeds declared bound {bound:.6g}"):
        checked_law(kind, value, bound)


@pytest.mark.parametrize("kind", LAW_KINDS)
@pytest.mark.parametrize("bound", [0.0, 5e-324, 1e-3, 0.5, 1.0, 3.0, 4.5e3, 1e5, 2.0**60, 1e300])
def test_control_bound_admits_one_ulp_over_and_refuses_five(kind, bound):
    # the slack is a few ulps of the bound at every scale; above about 4.5e3 a fixed 1e-12 was under one ulp
    checked_law(kind, bound, bound)
    checked_law(kind, ulps_over(bound, 1), bound)
    with pytest.raises(ValueError, match="exceeds declared bound"):
        checked_law(kind, ulps_over(bound, 5), bound)


def test_feedback_bound_enforced():
    law = ControlLaw.feedback(lambda t, v: np.array([3.0, 0.0, 0.0]), bound=1.0)
    model = closed_model()
    with pytest.raises(ValueError, match="bound"):
        integrate(model, MIXED16, law, 1.0, 1e-2)


def test_feedback_nan_control_violates_bound():
    # ``nan > bound`` is false; the bound check must still refuse the value
    law = ControlLaw.feedback(lambda t, v: [math.nan, 0.0, 0.0], bound=1.0)
    with pytest.raises(ValueError, match="control value nan"):
        integrate(closed_model(), MIXED16, law, 1.0, 1e-2)


@pytest.mark.parametrize(
    "bad, bound, broken",
    [
        (5.0, 1.0, "exceeds declared bound 1"),
        (math.nan, 1.0, "exceeds declared bound 1"),
        (math.nan, None, "is not finite"),
        (math.inf, None, "is not finite"),
        (-math.inf, None, "is not finite"),
    ],
    ids=["over", "nan", "nan-unbounded", "inf-unbounded", "-inf-unbounded"],
)
@pytest.mark.parametrize("axis", [0, 1, 2])
def test_feedback_bound_checked_at_every_stage(bad, bound, broken, axis):
    # on the grid t = k/4 the law is in bound; only the midpoint stages at t + h/2 break it, and
    # with no bound a non-finite value breaks it too.  ``law(t, v)`` and ``integrate`` call the
    # law's one stage check, so they raise the same error
    def callback(t, v):
        u = np.zeros(3)
        if t == 0.375:
            u[axis] = bad
        return u

    law = ControlLaw.feedback(callback, bound=bound)
    np.testing.assert_array_equal(law(0.25, MIXED16), np.zeros(3))
    with pytest.raises(ValueError) as via_call:
        law(0.375, MIXED16)
    with pytest.raises(ValueError) as via_integrate:
        integrate(closed_model(), MIXED16, law, 1.0, 0.25)
    assert str(via_call.value) == str(via_integrate.value) == f"control value {abs(bad):.6g} {broken}"


def test_feedback_without_bound_is_not_refused():
    law = ControlLaw.feedback(lambda t, v: [5.0, 0.0, 0.0], bound=None)
    np.testing.assert_array_equal(law(0.0, MIXED16), [5.0, 0.0, 0.0])
    traj = integrate(closed_model(), MIXED16, law, 1.0, 1e-2)
    assert np.all(traj.controls == [5.0, 0.0, 0.0])
    # any finite value passes without a bound; a NaN does not
    with pytest.raises(ValueError, match="control value nan is not finite"):
        ControlLaw.feedback(lambda t, v: [math.nan, 0.0, 0.0])(0.0, MIXED16)


def test_unbounded_feedback_nan_at_the_final_recorded_state_is_refused():
    # the last call of a run is the control recorded with its final state; no state is NaN,
    # so only the law's own check keeps the NaN out of ``controls[-1]`` and the JSON export
    n_steps = 4
    calls = iter(range(4 * n_steps + 1))
    law = ControlLaw.feedback(lambda t, v: [math.nan if next(calls) == 4 * n_steps else 0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="^control value nan is not finite$"):
        integrate(closed_model(), MIXED16, law, 1.0, 1.0 / n_steps)


@pytest.mark.parametrize("make", [ControlLaw.piecewise_constant, ControlLaw.sampled])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "bound, broken", [(None, "is not finite"), (1.0, "exceeds declared bound 1")], ids=["unbounded", "bounded"]
)
def test_open_loop_law_refuses_a_non_finite_value(make, bad, bound, broken):
    # the given values meet the same one comparison as every feedback stage
    with pytest.raises(ValueError, match=f"^control value {abs(bad):.6g} {broken}$"):
        make([0.0, 1.0], [[0.0, 0.0, 0.0], [0.0, bad, 0.0]], bound=bound)


def test_resonant_asymptote_of_b_matches_its_closed_forms(rng):
    # 200 random resonant models under u = (0, 0, u3): with damping alone the spectral abscissa
    # of M(u)[1:, 1:] is the flip-flop pair's; with pumping too, the stationary state solved from
    # M(u) gives B the equilibrium of A
    for _ in range(200):
        omega_a, omega_b, u3 = rng.uniform(-2.0, 2.0, 3)
        g, kappa_minus, kappa_plus = rng.uniform(0.05, 2.0), rng.uniform(0.01, 1.0), rng.uniform(0.01, 1.0)
        lam = g * np.diag([1.0, 1.0, 0.0])
        damped = TwoQubitModel(omega_a, omega_b, lam, (np.sqrt(kappa_minus) * SIGMA_MINUS,))
        m = generator(damped, [0.0, 0.0, u3])
        abscissa = np.max(np.linalg.eigvals(m[1:, 1:]).real)
        want = oracles.damped_resonant_abscissa(kappa_minus, g, omega_a, omega_b, u3)
        assert abs(abscissa - want) <= 1e-12
        jumps = (np.sqrt(kappa_minus) * SIGMA_MINUS, np.sqrt(kappa_plus) * SIGMA_PLUS)
        m = generator(TwoQubitModel(omega_a, omega_b, lam, jumps), [0.0, 0.0, u3])
        stationary = np.linalg.solve(m[1:, 1:], -m[1:, 0] / 2.0)
        np.testing.assert_allclose(
            stationary[VB.start - 1 : VB.stop - 1], oracles.inherited_equilibrium(kappa_minus, kappa_plus),
            rtol=0, atol=1e-12,
        )


def damped_resonant_model():
    """The resonant pair of the purification criterion: g = 0.4, unit frequencies, damping 0.1 on A."""
    return make_model(Coupling("resonant", 0.4), 1.0, 1.0, (np.sqrt(0.1) * SIGMA_MINUS,))


def test_purification_floor_holds_under_every_margin_of_the_seeded_scan():
    # gamma = ||K||_2 = 0.4 and lambda_0 = 1/4 from the maximally mixed pair; the floor is far
    # below the margins (it decays at gamma, the zero law's margin at 2|alpha| = 0.2)
    model = damped_resonant_model()
    horizons = [10.0, 20.0, 40.0, 50.0]
    floors = [oracles.purification_floor(model, MIXED16, t) for t in horizons]
    np.testing.assert_allclose(floors, [1.81e-2, 3.35e-4, 1.13e-7, 2.06e-9], rtol=5e-3)
    laws = [ControlLaw.constant([0.0, 0.0, 0.0], bound=1.0)]
    laws += random_control_laws(np.random.default_rng(109), 30, 1.0, max(horizons))
    report = purification_scan(model, MIXED16, laws, horizons, 1e-3)
    margins = np.array([[p["margin"] for p in e["per_horizon"]] for e in report["entries"]])
    assert np.all(margins >= floors)
    np.testing.assert_allclose(margins.min(axis=0), [0.162, 2.15e-2, 3.01e-4, 5.69e-5], rtol=5e-3)
    # the eigenvalue bound the floor rests on, at every 200th state to t = 20
    basis = lambda_basis()
    for law in laws:
        traj = integrate(model, MIXED16, law, 20.0, 1e-3)
        rho = np.einsum("ni,ikl->nkl", traj.states[::200], basis)
        assert np.all(np.linalg.eigvalsh(rho)[:, 0] >= 0.25 * np.exp(-0.4 * traj.times[::200]))


def test_constant_controls_purify_b_asymptotically_only_without_transverse_drive():
    # every constant u in {-1, -1/2, 0, 1/2, 1}^3 is asymptotically stable, and its stationary
    # state (one 15x15 solve) purifies B exactly when u1 = u2 = 0; the others stay at least
    # 1e-3 from purity (1.004e-3 at the closest); a pure limit decays no faster than gamma allows
    model = damped_resonant_model()
    gamma = np.linalg.norm(sum(ell.conj().T @ ell for ell in model.full_jumps()), 2)
    levels = [-1.0, -0.5, 0.0, 0.5, 1.0]
    for u in np.array(np.meshgrid(levels, levels, levels, indexing="ij")).reshape(3, -1).T:
        m = generator(model, u)
        abscissa = np.max(np.linalg.eigvals(m[1:, 1:]).real)
        stationary = np.linalg.solve(m[1:, 1:], -m[1:, 0] / 2.0)
        vb = stationary[VB.start - 1 : VB.stop - 1]
        purity_b = 0.5 + 2.0 * vb @ vb
        assert abscissa < 0.0
        if u[0] == u[1] == 0.0:
            assert abs(1.0 - purity_b) <= 1e-12 and 2.0 * abs(abscissa) <= gamma
        else:
            assert 1.0 - purity_b >= 1e-3


def test_feedback_matches_stage_loop_reference_bit_for_bit(rng):
    model = TwoQubitModel(
        omega_a=rng.uniform(-2, 2), omega_b=rng.uniform(-2, 2), lam=rng.uniform(-2, 2, (3, 3)),
        jumps=(random_jump(rng), random_jump(rng)),
    )
    v0 = to_coherence(random_density_matrix(rng))
    gain = rng.uniform(-8, 8, (3, 16))

    def saturating(t, v):
        return np.clip(gain @ v + np.sin(t), -1.0, 1.0)

    traj = integrate(model, v0, ControlLaw.feedback(saturating, bound=1.0), 0.5, 1e-3)
    states, controls = rk4_feedback_reference(model, v0, saturating, 500, 1e-3)
    assert len(traj) == 501
    assert np.any(np.abs(controls) == 1.0) and np.any(np.abs(controls) < 1.0)  # both sides of the clip
    assert np.array_equal(traj.states, states)
    assert np.array_equal(traj.controls, controls)


@pytest.mark.parametrize("n_steps", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7], ids=["1", "B-1", "B", "B+1", "3B+7"])
@pytest.mark.parametrize("last_sample", ["at-horizon", "before-horizon"])
def test_sampled_matches_block_loop_reference_bit_for_bit(rng, n_steps, last_sample):
    step = 1e-3
    model = random_model(rng)
    end = n_steps * step if last_sample == "at-horizon" else 0.4 * n_steps * step  # the run holds the last sample
    law = ControlLaw.sampled(np.linspace(0.0, end, 9), rng.uniform(-1, 1, (9, 3)), bound=1.0)
    v0 = to_coherence(random_density_matrix(rng))
    traj = integrate(model, v0, law, n_steps * step, step)
    states, controls = rk4_sampled_reference(model, v0, law, n_steps, step, _BLOCK)
    assert len(traj) == n_steps + 1
    assert np.array_equal(traj.states, states)
    assert np.array_equal(traj.controls, controls)


@pytest.mark.parametrize("shape", [(), (1,), (7,), (_BLOCK,)], ids=["single", "stack-1", "stack-7", "stack-B"])
def test_rk4_map_matches_formula_bit_for_bit(rng, shape):
    # random matrices, and generator stacks with the split's structural zeros
    m0, mc = control_generators(random_model(rng))
    u = rng.uniform(-1, 1, (3,) + shape + (3,))
    for m1, m2, m4 in (rng.normal(size=(3,) + shape + (16, 16)), m0 + np.einsum("...j,jkl->...kl", u, mc)):
        for h in (1e-3, 0.25):
            expected = rk4_map_reference(m1, m2, m4, h)
            assert _rk4_map(m1, m2, m4, h).tobytes() == expected.tobytes()
            assert _rk4_map(m1, m1, m1, h).tobytes() == rk4_map_reference(m1, m1, m1, h).tobytes()
            work = np.full((3,) + m1.shape, np.nan)
            assert _rk4_map(m1, m2, m4, h, work).tobytes() == work[0].tobytes() == expected.tobytes()


def test_c0_exactly_constant(rng):
    model = random_model(rng)
    traj = integrate(model, MIXED16, ControlLaw.constant(rng.uniform(-1, 1, 3)), 2.0, 1e-3)
    assert np.all(traj.states[:, 0] == 0.5)


def test_closed_system_preserves_norm(rng):
    model = closed_model(lam_scale=1.5, rng=rng)
    v0 = to_coherence(random_density_matrix(rng))
    traj = integrate(model, v0, ControlLaw.constant(rng.uniform(-1, 1, 3)), 10.0, 1e-3)
    norms = np.linalg.norm(traj.states, axis=1)
    assert np.max(np.abs(norms - norms[0])) < 1e-9 * 10.0


def test_uncoupled_b_rotates_freely(rng):
    omega_b = 1.3
    model = closed_model(omega_a=0.7, omega_b=omega_b)
    vb0 = np.array([0.5, 0.0, 0.0])
    v0 = embed_factorized([0.1, 0.2, -0.3], vb0)
    law = ControlLaw.constant([0.8, -0.5, 0.3])
    traj = integrate(model, v0, law, 3.0, 1e-3)
    angle = 2.0 * omega_b * traj.times
    expected = 0.5 * np.stack([np.cos(angle), np.sin(angle), np.zeros_like(angle)], axis=1)
    np.testing.assert_allclose(traj.states[:, 13:16], expected, atol=1e-10)
    # and the rotation is independent of the control
    other = integrate(model, v0, ControlLaw.constant([0, 0, 0]), 3.0, 1e-3)
    np.testing.assert_allclose(other.states[:, 13:16], expected, atol=1e-10)


def test_amplitude_damping_closed_form():
    model = TwoQubitModel(0.0, 0.0, np.zeros((3, 3)), (SIGMA_MINUS,))
    traj = integrate(model, MIXED16, ControlLaw.constant([0, 0, 0]), 3.0, 1e-3)
    va3 = traj.states[:, 3]
    expected = -0.5 * (1.0 - np.exp(-4.0 * traj.times))
    np.testing.assert_allclose(va3, expected, atol=1e-10)
    assert np.all(np.diff(va3) <= 1e-15)  # monotone approach to the pole
    assert va3[-1] == pytest.approx(-0.5, abs=1e-4)


def test_rk4_fourth_order_convergence():
    model = closed_model()
    v0 = embed_factorized([0.3, 0.0, 0.2], [0.5, 0.0, 0.0])
    law = ControlLaw.constant([0.2, 0.0, 0.0])
    horizon = 5.0
    omega_b = model.omega_b
    angle = 2.0 * omega_b * horizon
    exact_vb = 0.5 * np.array([np.cos(angle), np.sin(angle), 0.0])

    def terminal_error(h):
        end = integrate(model, v0, law, horizon, h).states[-1]
        return np.linalg.norm(end[13:16] - exact_vb)

    e1, e2 = terminal_error(0.05), terminal_error(0.025)
    ratio = e1 / e2
    assert 16.0 * 0.8 <= ratio <= 16.0 * 1.2


def test_integration_paths_agree(rng):
    model = random_model(rng)
    v0 = to_coherence(random_density_matrix(rng))
    u = rng.uniform(-1, 1, 3)
    pw = integrate(model, v0, ControlLaw.constant(u), 1.0, 1e-3)
    fb = integrate(model, v0, ControlLaw.feedback(lambda t, v: u), 1.0, 1e-3)
    np.testing.assert_allclose(pw.states, fb.states, atol=1e-12)


def test_piecewise_segments_snap_to_grid(rng):
    model = closed_model()
    law = ControlLaw.piecewise_constant([0.0, 0.2501], [[1, 0, 0], [0, 1, 0]])
    traj = integrate(model, MIXED16, law, 1.0, 1e-1)
    # breakpoint lands on step index round(0.2501 / 0.1) = 3
    np.testing.assert_array_equal(traj.controls[2], [1, 0, 0])
    np.testing.assert_array_equal(traj.controls[3], [0, 1, 0])
    assert "dropped_segments" not in traj.metadata["law"]


def test_segments_dropped_by_snapping_are_reported():
    # the middle segment [0.5, 0.5002) is shorter than half a step
    law = ControlLaw.piecewise_constant([0.0, 0.5, 0.5002], [[0, 0, 0], [1, 0, 0], [0, 0, 0]])
    traj = integrate(closed_model(), MIXED16, law, 1.0, 1e-3)
    assert np.max(np.abs(traj.controls)) == 0.0
    info = traj.metadata["law"]
    assert info == {"kind": "piecewise-constant", "segments": 3, "dropped_segments": 1}


def test_physicality_abort():
    model = closed_model()
    bad = MIXED16.copy()
    bad[1:4] = 0.9  # way outside the Bloch ball: an input error, not a run's
    with pytest.raises(ValueError, match="start state violates physicality bounds"):
        integrate(model, bad, ControlLaw.constant([0, 0, 0]), 1.0, 1e-2)


def test_physicality_report_attached(rng):
    model = random_model(rng)
    traj = integrate(model, MIXED16, ControlLaw.constant([0, 0, 0]), 1.0, 1e-2)
    report = traj.metadata["physicality"]
    assert report["max_defect"] <= 1e-8
    assert report["within_warn_tol"]


def test_purity_rate_b_matches_finite_difference(rng):
    model = random_model(rng)
    v0 = to_coherence(random_density_matrix(rng))
    step = 1e-4
    traj = integrate(model, v0, ControlLaw.constant(rng.uniform(-1, 1, 3)), 0.05, step)
    k = 200
    fd = (traj.purity_b[k + 1] - traj.purity_b[k - 1]) / (2 * step)
    assert purity_rate_b(model, traj.states[k]) == pytest.approx(fd, abs=1e-6)


def test_purity_rate_b_zero_without_correlations(rng):
    model = random_model(rng)
    v = MIXED16.copy()
    v[1:4] = [0.1, 0.0, -0.2]
    v[13:16] = [0.0, 0.3, 0.1]
    assert purity_rate_b(model, v) == 0.0


def test_trajectory_export_formats(tmp_path, rng):
    model = make_model(Coupling("resonant", 0.5), 1.0, 1.0, (0.5 * SIGMA_MINUS,))
    traj = integrate(model, MIXED16, ControlLaw.constant([0.1, 0.2, 0.3]), 0.5, 1e-2)
    csv_path = tmp_path / "traj.csv"
    json_path = tmp_path / "traj.json"
    write_trajectory_csv(traj, csv_path)
    write_trajectory_json(traj, json_path)

    lines = csv_path.read_text().strip().split("\n")
    header = lines[0].split(",")
    assert header[:5] == ["t", "u1", "u2", "u3", "c0"]
    assert header[-3:] == ["purity_full", "purity_A", "purity_B"]
    assert len(header) == 23
    assert len(lines) == len(traj) + 1
    first = dict(zip(header, (float(x) for x in lines[1].split(","))))
    assert first["c0"] == 0.5
    assert first["purity_full"] == pytest.approx(0.25, abs=1e-15)

    doc = json.loads(json_path.read_text())
    assert set(doc["columns"]) == set(header)
    np.testing.assert_allclose(doc["columns"]["purity_B"], traj.purity_b, atol=0)
    assert doc["metadata"]["model_hash"] == model.hash_hex()


def test_trajectory_export_deterministic(tmp_path):
    model = make_model(Coupling("dispersive", 0.7), 0.3, 0.9, (0.4 * SIGMA_MINUS,))
    paths = []
    for name in ("a.csv", "b.csv"):
        traj = integrate(model, MIXED16, ControlLaw.constant([0.1, 0, 0]), 1.0, 1e-2)
        p = tmp_path / name
        write_trajectory_csv(traj, p)
        paths.append(p.read_bytes())
    assert paths[0] == paths[1]


def test_csv_stream_matches_per_field_reference(tmp_path, rng):
    # 600 rows: two full blocks of 256 and a partial one
    n = 600
    states = rng.uniform(-1, 1, (n, 16))
    states[:4, 1:5] = [[-0.0, 5e-324, 1e17, 0.1]] * 4
    controls = rng.uniform(-1, 1, (n, 3))
    controls[n - 1] = [-0.0, 5e-324, 0.1]
    traj = Trajectory(times=np.arange(n) * 0.1, states=states, controls=controls)
    path = tmp_path / "t.csv"
    write_trajectory_csv(traj, path)

    table = np.column_stack(
        [traj.times, controls, states, traj.purity_full, traj.purity_a, traj.purity_b]
    )
    lines = [path.read_text().split("\n", 1)[0]]
    lines += [",".join(f"{x:.17g}" for x in row) for row in table]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
    assert b",-0,4.9406564584124654e-324,1e+17,0.10000000000000001," in path.read_bytes()


def test_json_export_streams_columns(tmp_path, rng):
    # 2,001 rows: the export never holds the document, so its traced
    # peak stays below the file's size; the bytes are one json.dumps
    n = 2_001
    states = rng.uniform(-1, 1, (n, 16))
    states[:3, 1:4] = [-0.0, 5e-324, 1e17]
    traj = Trajectory(
        times=np.arange(n) * 1e-3,
        states=states,
        controls=rng.uniform(-1, 1, (n, 3)),
        metadata={"step": 1e-3, "law": {"kind": "sampled", "segments": 3}, "note": "é"},
    )
    path = tmp_path / "t.json"
    tracemalloc.start()
    try:
        write_trajectory_json(traj, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size

    table = np.column_stack(
        [traj.times, traj.controls, states, traj.purity_full, traj.purity_a, traj.purity_b]
    )
    header = dynamics._CSV_HEADER.split(",")
    doc = {"columns": {name: table[:, i].tolist() for i, name in enumerate(header)}, "metadata": traj.metadata}
    assert path.read_bytes() == (json.dumps(doc) + "\n").encode()


def test_json_export_refuses_a_nan_and_leaves_no_file(tmp_path):
    # JSON has no NaN; the export raises instead of writing a bare ``NaN`` token
    controls = np.zeros((3, 3))
    controls[2, 1] = np.nan
    traj = Trajectory(times=np.arange(3) * 0.1, states=np.tile(MIXED16, (3, 1)), controls=controls)
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_trajectory_json(traj, tmp_path / "t.json")
    assert list(tmp_path.iterdir()) == []


def test_exports_copy_no_table_of_the_trajectory(tmp_path, rng):
    # beyond the trajectory, the CSV export holds its two reduced purities and
    # one block of rows; the JSON export also one column as floats and as text
    n = 20_000
    traj = Trajectory(
        times=np.arange(n) * 1e-3, states=rng.uniform(-1, 1, (n, 16)), controls=rng.uniform(-1, 1, (n, 3))
    )
    for write, floats_per_step in ((write_trajectory_csv, 5), (write_trajectory_json, 20)):
        tracemalloc.start()
        try:
            write(traj, tmp_path / "t.out")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= floats_per_step * 8 * n, (write.__name__, peak / (8 * n))


def test_atomic_write_failing_chunks_leave_nothing(tmp_path):
    def chunks():
        yield "first chunk\n"
        raise RuntimeError("formatting failed")

    target = tmp_path / "out.csv"
    with pytest.raises(RuntimeError, match="formatting failed"):
        atomic_write_text(target, chunks())
    assert list(tmp_path.iterdir()) == []
    atomic_write_text(target, iter(["a,", "b\n"]))
    assert target.read_text() == "a,b\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_purification_scan_basics(rng):
    model = make_model(Coupling("resonant", 0.4), 1.0, 1.0, (np.sqrt(0.1) * SIGMA_MINUS,))
    laws = [ControlLaw.constant([0, 0, 0], bound=1.0)]
    laws += random_control_laws(rng, 2, 1.0, 5.0)
    report = purification_scan(model, MIXED16, laws, [2.0, 5.0], 1e-2)
    assert report["label"] == "numerical evidence"
    assert report["min_margin"] > 0
    for entry in report["entries"]:
        margins = [p["margin"] for p in entry["per_horizon"]]
        assert all(m > 0 for m in margins)


@pytest.mark.parametrize(
    "bound, horizon, name",
    [
        (1.0, float("nan"), "horizon"),
        (1.0, float("inf"), "horizon"),
        (1.0, -1.0, "horizon"),
        (1.0, 0.0, "horizon"),
        (float("nan"), 2.0, "bound"),
        (float("inf"), 2.0, "bound"),
        (-0.5, 2.0, "bound"),
    ],
)
def test_random_control_laws_rejects_bad_inputs(bound, horizon, name):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        random_control_laws(np.random.default_rng(0), 2, bound, horizon)


@pytest.mark.parametrize("seed", [0, 1, 7, 2026])
def test_random_control_laws_match_the_np_unique_construction(seed):
    laws = random_control_laws(np.random.default_rng(seed), 12, 0.8, 3.0)
    want = unique_control_laws(np.random.default_rng(seed), 12, 0.8, 3.0)
    for law, ref in zip(laws, want, strict=True):
        assert (law.kind, law.bound) == (ref.kind, ref.bound)
        np.testing.assert_array_equal(law.times, ref.times)
        np.testing.assert_array_equal(law.values, ref.values)


def test_random_control_laws_drop_repeated_breakpoints():
    class Repeating:  # uniform draws that repeat 0 and 1.5
        def integers(self, low, high):
            return 6

        def uniform(self, low, high, size):
            return np.broadcast_to([1.5, 0.0, 0.5, 1.5, 0.0], size) if size == 5 else np.zeros(size)

    (law,) = random_control_laws(Repeating(), 1, 1.0, 2.0)
    np.testing.assert_array_equal(law.times, [0.0, 0.5, 1.5])


def test_purification_scan_leaves_numpy_ma_unimported():
    # np.unique imports numpy.ma, 10-13 ms of every fresh interpreter
    code = (
        "import sys, numpy as np, blochpair\n"
        "from blochpair import purification_scan, random_control_laws, make_model, Coupling\n"
        "model = make_model(Coupling('resonant', 0.4), 1.0, 1.0)\n"
        "laws = random_control_laws(np.random.default_rng(0), 3, 1.0, 1.0)\n"
        "v0 = np.zeros(16); v0[0] = 0.5\n"
        "purification_scan(model, v0, laws, [1.0], 1e-2)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


def test_purification_scan_reports_dropped_segments():
    model = make_model(Coupling("resonant", 0.4), 1.0, 1.0, (np.sqrt(0.1) * SIGMA_MINUS,))
    law = ControlLaw.piecewise_constant([0.0, 0.5, 0.5002], [[0, 0, 0], [1, 0, 0], [0, 0, 0]])
    report = purification_scan(model, MIXED16, [law], [1.0], 1e-3)
    info = report["entries"][0]["law_info"]
    assert info == {"kind": "piecewise-constant", "segments": 3, "dropped_segments": 1}


def test_purification_scan_calls_integrate_once_per_law(rng, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[2])
        return integrate(*args, **kwargs)

    monkeypatch.setattr(dynamics, "integrate", counted)
    model = make_model(Coupling("resonant", 0.4), 1.0, 1.0, (np.sqrt(0.1) * SIGMA_MINUS,))
    laws = [ControlLaw.constant([0, 0, 0])] + random_control_laws(rng, 3, 1.0, 2.0)
    purification_scan(model, MIXED16, laws, [1.0, 2.0], 1e-2)
    assert calls == laws


def test_purification_scan_checks_its_start_once(rng, monkeypatch):
    # integrate runs once per law; the start it is given is the same each time
    checks = []

    def counted(rho):
        checks.append(rho)
        return validate_density_matrix(rho)

    monkeypatch.setattr(dynamics, "validate_density_matrix", counted)
    model = make_model(Coupling("resonant", 0.4), 1.0, 1.0, (np.sqrt(0.1) * SIGMA_MINUS,))
    laws = [ControlLaw.constant([0, 0, 0])] + random_control_laws(rng, 10, 1.0, 1.0)
    start = to_coherence(random_density_matrix(rng))  # a start no earlier test has checked
    report = purification_scan(model, start, laws, [0.5, 1.0], 1e-2)
    assert len(report["entries"]) == 11 and len(checks) == 1


def test_control_split_built_once_per_model(rng, monkeypatch):
    builds = []

    def counted(model):
        builds.append(model)
        return control_generators(model)

    monkeypatch.setattr(dynamics, "control_generators", counted)
    model = random_model(rng)
    for u in ([0, 0, 0], [0.1, 0.2, 0.3]):
        integrate(model, MIXED16, ControlLaw.constant(u), 0.1, 1e-2)
    assert builds == [model]


def test_purification_scan_rejects_boundary(rng):
    model = make_model(Coupling("resonant", 0.4), 1.0, 1.0, (SIGMA_MINUS,))
    pure = embed_factorized([0, 0, 0.5], [0, 0, 0.5])
    with pytest.raises(BoundaryStateError):
        purification_scan(model, pure, [ControlLaw.constant([0, 0, 0])], [1.0], 1e-2)
    # singular but not fully pure states are boundary points too
    rank_deficient = embed_factorized([0, 0, 0.5], [0, 0, 0.5]) * 0.0
    rank_deficient[0] = 0.5
    rank_deficient[3] = 0.5  # vA3 = 1/2 makes rho_A a projector
    with pytest.raises(BoundaryStateError):
        purification_scan(
            model, rank_deficient, [ControlLaw.constant([0, 0, 0])], [1.0], 1e-2
        )


def test_interior_purity_margin_edge():
    # vA3 = vAB9 = vB3 = a: full purity 1/4 + 3 a^2, smallest eigenvalue 1/4 - a/2 (about 1.7e-7
    # at the edge), so only the purity margin 1e-6 decides
    def start(a):
        v = MIXED16.copy()
        v[[3, 12, 15]] = a
        return v

    inside, outside = float_edge(lambda a: _square_norm(start(a)) < 1.0 - 1e-6, 0.4, 0.5)
    dynamics.require_interior(start(inside))
    with pytest.raises(BoundaryStateError, match="initial state has full purity 0.999999000"):
        dynamics.require_interior(start(outside))


def test_interior_eigenvalue_margin_edge():
    # vA3 = x alone: eigenvalues 1/4 +- x/2, full purity 1/4 + x^2 < 1/2
    def start(x):
        v = MIXED16.copy()
        v[3] = x
        return v

    inside, outside = float_edge(
        lambda x: np.linalg.eigvalsh(dynamics.from_coherence(start(x))).min() >= 1e-9, 0.4, 0.5
    )
    dynamics.require_interior(start(inside))
    with pytest.raises(BoundaryStateError, match=r"initial state is singular \(min eigenvalue 1.000e-09\)"):
        dynamics.require_interior(start(outside))


def test_purification_scan_rejects_non_finite_start():
    model = make_model(Coupling("resonant", 0.4), 1.0, 1.0, (SIGMA_MINUS,))
    start = embed_factorized([np.nan, 0, 0], [0, 0, 0])
    with pytest.raises(ValueError, match="start state violates physicality bounds by nan"):
        purification_scan(model, start, [ControlLaw.constant([0, 0, 0])], [1.0], 1e-2)


@pytest.mark.parametrize("bad", [-0.5, -0.01, 0.0, math.nan, math.inf])
def test_purification_scan_rejects_bad_horizons(bad):
    # -0.5 used to be reported with the peak of the whole run, -0.01 to
    # fail inside numpy on an empty slice
    model = make_model(Coupling("resonant", 0.4), 1.0, 1.0, (SIGMA_MINUS,))
    with pytest.raises(ValueError, match=f"horizon must be finite and > 0, got {bad}"):
        purification_scan(model, MIXED16, [ControlLaw.constant([0, 0, 0])], [bad, 2.0], 1e-2)


def test_purification_scan_from_near_pure_interior_start(rng):
    # a mixed but almost-pure interior state still cannot reach a pure
    # reduced B state in finite time
    model = make_model(Coupling("resonant", 0.4), 1.0, 1.0, (np.sqrt(0.1) * SIGMA_MINUS,))
    pure = embed_factorized([0.3, 0.0, 0.4], [0.0, 0.3, 0.4])
    eps = 6.7e-4  # blend toward I/4 for full purity just below 1 - 1e-3
    start = pure.copy()
    start[1:] *= 1.0 - eps
    full_purity = start @ start
    assert 1 - 2e-3 < full_purity < 1 - 1e-6
    report = purification_scan(
        model, start, [ControlLaw.constant([0.2, 0.1, 0.0])], [5.0], 1e-3
    )
    assert report["min_margin"] > 0


def test_no_dissipation_constant_full_purity(rng):
    model = closed_model(lam_scale=1.0, rng=rng)
    v0 = to_coherence(random_density_matrix(rng))
    traj = integrate(model, v0, ControlLaw.constant([0.4, 0.1, -0.2]), 5.0, 1e-3)
    pf = traj.purity_full
    assert np.max(np.abs(pf - pf[0])) < 1e-8


@pytest.mark.parametrize(
    "law, start",
    [
        # a finite control whose stages overflow: A's rotation at rate 1e200 from a product start
        (ControlLaw.feedback(lambda t, v: [0.0, 0.0, 1e200]), embed_factorized([0.3, 0.1, 0.2], [0.0, 0.2, 0.3])),
        (ControlLaw.constant([1e200, 0.0, 0.0]), MIXED16),
    ],
    ids=["nan-feedback", "overflowing-constant"],
)
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_non_finite_states_abort(law, start):
    with pytest.raises(PhysicalityError) as info:
        integrate(closed_model(), start, law, 0.1, 1e-2)
    assert not info.value.defect <= ABORT_TOL


def test_oversized_run_is_refused_before_allocating():
    # 1e15 steps: refused from the step count, naming both settings, not by numpy's allocator
    with pytest.raises(MemoryError, match=r"horizon 1e\+06 at step 1e-09 needs [0-9.e+]+ GiB"):
        integrate(closed_model(), MIXED16, ControlLaw.constant([0, 0, 0]), 1e6, 1e-9)


def test_non_finite_start_aborts():
    start = MIXED16.copy()
    start[5] = np.nan
    with pytest.raises(ValueError, match="start state violates physicality bounds by nan"):
        integrate(closed_model(), start, ControlLaw.constant([0, 0, 0]), 0.1, 1e-2)


def test_non_positive_start_rejected():
    # within every norm constraint, yet rho has the eigenvalue -1/2
    start = MIXED16.copy()
    start[[4, 8, 12]] = 0.5
    assert physicality_defect(start) <= 0.0
    with pytest.raises(ValueError, match="negative eigenvalue"):
        integrate(closed_model(), start, ControlLaw.constant([0, 0, 0]), 0.1, 1e-2)


@pytest.mark.parametrize(
    "c0, damped",
    [(0.0, False), (0.3, False), (0.7, False), (0.3, True)],
    ids=["c0=0-closed", "c0=0.3-closed", "c0=0.7-closed", "c0=0.3-damped"],
)
def test_start_without_unit_trace_rejected(c0, damped):
    # rho = (c0 / 2) I is positive and within every norm constraint, but its trace is 2 c0
    start = np.zeros(16)
    start[0] = c0
    assert physicality_defect(start) <= 0.0
    model = make_model(Coupling("resonant", 0.4), 1.0, 1.0, (SIGMA_MINUS,)) if damped else closed_model()
    with pytest.raises(ValueError, match="trace"):
        integrate(model, start, ControlLaw.constant([0, 0, 0]), 0.1, 1e-2)


@pytest.mark.parametrize("entry, value", [(5, np.nan), (0, 0.3)], ids=["nan", "trace"])
def test_refused_start_is_refused_on_every_call(entry, value):
    # the start check is kept per distinct start, a refusal is not
    start = MIXED16.copy()
    start[entry] = value
    messages = []
    for _ in range(2):
        with pytest.raises(ValueError) as info:
            integrate(closed_model(), start, ControlLaw.constant([0, 0, 0]), 0.1, 1e-2)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def test_purification_scan_rejects_start_without_unit_trace():
    # rho = 0.15 I meets every norm bound and is positive; the start gate refuses its trace 0.6
    model = make_model(Coupling("resonant", 0.4), 1.0, 1.0, (np.sqrt(0.1) * SIGMA_MINUS,))
    start = np.zeros(16)
    start[0] = 0.3
    with pytest.raises(ValueError, match="trace"):
        purification_scan(model, start, [ControlLaw.constant([0, 0, 0])], [1.0], 1e-2)


@pytest.mark.parametrize("name", list(REFUSED_STARTS))
def test_refused_start_is_one_value_error_in_integrate_and_the_scan(name):
    # the scan refused a start outside the ball as a boundary state, integrate as a run failure
    start, words = REFUSED_STARTS[name]
    model = make_model(Coupling("resonant", 0.4), 1.0, 1.0, (np.sqrt(0.1) * SIGMA_MINUS,))
    law = ControlLaw.constant([0, 0, 0])
    with pytest.raises(ValueError) as run:
        integrate(model, start, law, 0.1, 1e-2)
    with pytest.raises(ValueError) as scan:
        purification_scan(model, start, [law], [0.1], 1e-2)
    assert type(run.value) is ValueError and type(scan.value) is ValueError
    assert str(scan.value) == str(run.value)
    assert words in str(run.value)


def _near_boundary_starts(rng, n):
    """Product states with ``|vA|, |vB|`` within a few 1e-6 of 1/2, half with 1e-8 noise on every entry."""
    blocks = rng.normal(size=(2, n, 3))
    blocks *= 0.5 * (1.0 + rng.uniform(-4e-6, 4e-6, (2, n, 1))) / np.linalg.norm(blocks, axis=-1, keepdims=True)
    starts = embed_factorized(blocks[0], blocks[1])
    starts[::2, 1:] += rng.normal(scale=1e-8, size=(len(starts[::2]), 15))
    return starts


def test_start_gate_refuses_exactly_the_norm_and_state_refusals():
    # the rule integrate used before the one gate: a norm defect above ABORT_TOL, then
    # validate_density_matrix; every refusal is now one ValueError, in the scan too
    model, law = closed_model(), ControlLaw.constant([0, 0, 0])
    kinds = {"norm": 0, "state": 0, "accepted": 0}
    for start in _near_boundary_starts(np.random.default_rng(2027), 300):
        if not physicality_defect(start) <= ABORT_TOL:
            kind = "norm"
        else:
            try:
                validate_density_matrix(dynamics.from_coherence(start))
                kind = "accepted"
            except ValueError:
                kind = "state"
        kinds[kind] += 1
        if kind == "accepted":
            integrate(model, start, law, 1e-2, 1e-2)
            continue
        with pytest.raises(ValueError) as run:
            integrate(model, start, law, 1e-2, 1e-2)
        with pytest.raises(ValueError) as scan:
            purification_scan(model, start, [law], [1e-2], 1e-2)
        assert type(run.value) is ValueError and str(scan.value) == str(run.value)
    assert min(kinds.values()) >= 30, kinds


@pytest.mark.parametrize(
    "law, expected",
    [
        (ControlLaw.constant([0.1, 0, 0]), [("kind", "piecewise-constant"), ("segments", 1)]),
        (ControlLaw.constant([0.1, 0, 0], bound=1), [("kind", "piecewise-constant"), ("bound", 1), ("segments", 1)]),
        (
            ControlLaw.piecewise_constant([0.0, 0.5, 0.5002], [[0, 0, 0], [1, 0, 0], [0, 0, 0]], bound=2.5),
            [("kind", "piecewise-constant"), ("bound", 2.5), ("segments", 3), ("dropped_segments", 1)],
        ),
        (ControlLaw.sampled([0.0, 1.0], [[0, 0, 0], [1, 0, 0]]), [("kind", "sampled"), ("segments", 2)]),
        (
            ControlLaw.sampled([0.0, 0.5, 1.0], np.zeros((3, 3)), bound=0.0),
            [("kind", "sampled"), ("bound", 0.0), ("segments", 3)],
        ),
        (ControlLaw.feedback(lambda t, v: np.zeros(3)), [("kind", "state-feedback")]),
        (ControlLaw.feedback(lambda t, v: np.zeros(3), bound=0.5), [("kind", "state-feedback"), ("bound", 0.5)]),
    ],
    ids=["constant", "constant-bound", "piecewise-dropped", "sampled", "sampled-bound", "feedback", "feedback-bound"],
)
def test_law_record_keys_and_order(law, expected):
    # the exported JSON writes the record in this order, so its bytes depend on it
    traj = integrate(closed_model(), MIXED16, law, 1.0, 1e-3)
    assert list(traj.metadata["law"].items()) == expected


def test_memory_guard_counts_what_the_run_holds(monkeypatch):
    # a 1,000-step run records 1,001 states and holds 23 float64 for each: states 16,
    # controls 3, times 1 and norms 3; the gate reads the norms in bounded chunks
    def run_with_memory(floats_per_step):
        memory = {"SC_PHYS_PAGES": floats_per_step * 8 * 1001, "SC_PAGE_SIZE": 1}
        monkeypatch.setattr(dynamics.os, "sysconf", memory.__getitem__)
        return integrate(closed_model(), MIXED16, ControlLaw.constant([0, 0, 0]), 1.0, 1e-3)

    with pytest.raises(MemoryError, match=r"horizon 1 at step 0.001 needs"):
        run_with_memory(22)
    assert len(run_with_memory(23)) == 1001


def test_purification_scan_holds_one_trajectory(rng):
    # at its peak a 40,000-step scan holds the live run's 23 float64 per recorded
    # step and less than 0.5 MB besides: no whole-run gate array, and nothing of
    # the previous law's run while the next one integrates
    model = make_model(Coupling("resonant", 0.4), 1.0, 1.0, (np.sqrt(0.1) * SIGMA_MINUS,))
    laws = [ControlLaw.constant([0, 0, 0])] + random_control_laws(rng, 2, 1.0, 40.0)
    purification_scan(model, MIXED16, laws[:1], [1.0], 1e-3)  # builds the model's split
    tracemalloc.start()
    try:
        purification_scan(model, MIXED16, laws, [10.0, 40.0], 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 23 * 8 * 40_001 + 0.5e6, peak / (8 * 40_001)


_CHUNK = dynamics._GATE_CHUNK


def _gate(full) -> tuple:
    """``(t, defect, aborted)`` of ``integrate``'s gate over a run whose recorded ``|v|^2``
    are ``full`` and whose ``|vA|^2`` and ``|vB|^2`` are 0, and the same read off
    ``np.argmax`` of the whole run's defects; defects as ``repr`` so NaN compares equal."""
    norms = (np.asarray(full, dtype=float), np.zeros(len(full)), np.zeros(len(full)))

    class Planted(Trajectory):
        def __post_init__(self):
            object.__setattr__(self, "norms", norms)

    step = 1e-3
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics, "Trajectory", Planted)
        try:
            traj = integrate(closed_model(), MIXED16, ControlLaw.constant([0, 0, 0]), (len(full) - 1) * step, step)
            got = (traj.metadata["physicality"]["t_worst"], traj.metadata["physicality"]["max_defect"], False)
        except PhysicalityError as exc:
            got = (exc.t, exc.defect, True)
    defects = _norm_defect(*norms)
    k = int(np.argmax(defects))
    expected = (float((np.arange(len(full)) * step)[k]), float(defects[k]), not defects[k] <= ABORT_TOL)
    return (got[0], repr(got[1]), got[2]), (expected[0], repr(expected[1]), expected[2])


_GATE_LENGTHS = [2, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5]


@pytest.mark.parametrize("length", _GATE_LENGTHS)
@pytest.mark.parametrize(
    "plants, worst",
    [
        ([], None),  # all defects negative
        ([(1 / 3, 0.999), (2 / 3, 0.999), (1.0, 0.999)], 1 / 3),  # equal maxima: the first wins
        ([(0.5, 1.5), (1 / 3, 1 + 1e-6)], 0.5),  # a failing run
        ([(0.5, np.nan), (2 / 3, 1.5), (1.0, np.nan)], 0.5),  # a NaN before the maximum
        ([(1 / 3, 1.5), (2 / 3, np.nan), (1.0, np.nan)], 2 / 3),  # NaNs after the maximum
    ],
    ids=["all-negative", "ties", "abort", "nan-before-max", "nan-after-max"],
)
def test_chunked_gate_is_argmax_of_the_whole_run(length, plants, worst):
    # ``full`` values at ``int(where * (length - 1))``; the rest are uniform in [0.8, 0.99)
    full = np.random.default_rng(length).uniform(0.8, 0.99, length)
    for where, value in plants:
        full[int(where * (length - 1))] = value
    got, expected = _gate(full)
    assert got == expected
    if worst is not None and length > 2:
        assert got[0] == int(worst * (length - 1)) * 1e-3


@settings(max_examples=40, deadline=None)
@given(
    length=st.sampled_from(_GATE_LENGTHS),
    plants=st.lists(
        st.tuples(st.floats(0, 1), st.sampled_from([0.99, 0.999, 1.0, 1 + 1e-9, 1 + 1e-6, 1.5, np.nan])),
        max_size=5,
    ),
)
def test_chunked_gate_is_argmax_of_planted_runs(length, plants):
    full = np.full(length, 0.9)
    for where, value in plants:
        full[int(where * (length - 1))] = value
    got, expected = _gate(full)
    assert got == expected


@pytest.mark.parametrize(
    "horizon, step", [(np.nan, 1e-2), (np.inf, 1e-2), (1.0, np.nan), (1.0, np.inf)]
)
def test_non_finite_horizon_or_step_rejected(horizon, step):
    with pytest.raises(ValueError, match="finite"):
        integrate(closed_model(), MIXED16, ControlLaw.constant([0, 0, 0]), horizon, step)


def _generator(split, u):
    m0, mc = split
    return m0 + np.einsum("j,jkl->kl", u, mc)


def _taylor4(m, h):
    return sum(np.linalg.matrix_power(h * m, k) / math.factorial(k) for k in range(5))


def test_piecewise_blocks_match_sequential_stepping(rng):
    # segments of 1, B - 1, B, B + 1 and 2B + 1 steps around the block
    # size B = 256, then the rest of a 40k-step horizon
    step = 1e-3
    lengths = [1, 255, 256, 257, 513]
    starts = np.concatenate([[0], np.cumsum(lengths)])
    model = random_model(rng)
    values = rng.uniform(-1, 1, (starts.shape[0], 3))
    law = ControlLaw.piecewise_constant(starts * step, values)
    v0 = to_coherence(random_density_matrix(rng))
    traj = integrate(model, v0, law, 40.0, step)

    stops = np.append(starts[1:], 40_000)
    split = control_generators(model)
    expected = [v0]
    v = v0
    for start, stop, u in zip(starts, stops, values):
        r = _taylor4(_generator(split, u), step)
        for _ in range(start, stop):
            v = r @ v
            expected.append(v)
    np.testing.assert_allclose(traj.states, np.array(expected), rtol=0, atol=1e-12)
    np.testing.assert_array_equal(traj.controls[starts], values)


def _stepped(model, v0, breaks, values, n_steps, step):
    """States of a piecewise-constant law, one RK4 map ``v = R @ v`` per step."""
    split = control_generators(model)
    stops = [*breaks[1:], n_steps]
    states = [v0]
    for start, stop, u in zip(breaks, stops, values):
        m = _generator(split, u)
        r = _rk4_map(m, m, m, step)
        for _ in range(start, stop):
            states.append(r @ states[-1])
    return np.array(states)


@pytest.mark.parametrize(
    "breaks, n_steps",
    [
        ([0], 1),
        ([0], _BLOCK - 1),
        ([0], _BLOCK),
        ([0], _BLOCK + 1),
        ([0], 3 * _BLOCK),
        ([0], 3 * _BLOCK + 7),
        ([0, 100, _BLOCK + 300], 3 * _BLOCK + 50),  # breakpoints inside blocks
        # around the 16-ary tree's levels: 16, 256 and 4096 steps
        ([0], 15),
        ([0], 16),
        ([0], 17),
        ([0], 4095),
        ([0], 4096),
        ([0], 4097),
        ([0, 4097, 2 * 4097], 2 * 4096 + 300),
    ],
    ids=["1", "B-1", "B", "B+1", "3B", "3B+7", "3-segments", "15", "16", "17",
         "4095", "4096", "4097", "3-segments-long"],
)
def test_piecewise_gemm_matches_per_step_loop(rng, breaks, n_steps):
    step = 1e-3
    model = random_model(rng)
    values = rng.uniform(-1, 1, (len(breaks), 3))
    law = ControlLaw.piecewise_constant(np.array(breaks) * step, values)
    v0 = to_coherence(random_density_matrix(rng))
    traj = integrate(model, v0, law, n_steps * step, step)
    expected = _stepped(model, v0, breaks, values, n_steps, step)
    # rounding grows about linearly with the steps: over 20 seeds of this fixture every case read
    # at most 1.4e-17 per step from 818 steps up (4.3e-14 at 8,492); the budget doubles that
    np.testing.assert_allclose(traj.states, expected, rtol=0, atol=max(1e-14, 3e-17 * n_steps))


def test_log_norm_bar_bounds_the_piecewise_error_at_every_segment_end(rng):
    # a step's local error is at most (h||M||)^5/120 e^{h||M||} |v_k|, the tail of e^{hM} past
    # RK4's Taylor polynomial; the exact flow grows an error, whose c0 entry is 0, by at most
    # e^{mu t} with mu = lambda_max(sym(M0[1:, 1:])), since the control generators are
    # antisymmetric on the traceless block to rounding (their symmetric parts read 0 to 4.4e-16,
    # the rounding of control_generators' subtraction); the bar sums the propagated local bounds
    step, n_steps = 1e-3, 10_000
    for _ in range(6):
        model = random_model(rng)
        m0, mc = control_generators(model)
        assert np.max(np.abs(mc[:, 1:, 1:] + mc[:, 1:, 1:].transpose(0, 2, 1))) <= 4 * np.finfo(float).eps
        mu = np.linalg.eigvalsh(m0[1:, 1:] + m0[1:, 1:].T)[-1] / 2.0
        breaks = np.unique(np.append(0, rng.integers(1, n_steps, rng.integers(0, 8))))
        values = rng.uniform(-1.0, 1.0, (len(breaks), 3))
        v0 = to_coherence(random_density_matrix(rng))
        law = ControlLaw.piecewise_constant(breaks * step, values, bound=1.0)
        states = integrate(model, v0, law, n_steps * step, step).states
        decay = np.exp(-mu * step * np.arange(1, n_steps + 1))  # e^{-mu t_(k+1)}
        local = np.empty(n_steps)
        exact = v0
        for start, stop, u in zip(breaks, np.append(breaks[1:], n_steps), values):
            m = m0 + np.tensordot(u, mc, 1)
            x = step * np.linalg.norm(m, 2)
            local[start:stop] = x**5 / 120.0 * np.exp(x) * np.linalg.norm(states[start:stop], axis=1)
            exact = expm((stop - start) * step * m) @ exact
            bar = np.exp(mu * step * stop) * np.sum(local[:stop] * decay[:stop])
            assert np.linalg.norm(states[stop] - exact) <= bar


def test_piecewise_block_ends_are_the_orbit_of_r16(rng):
    # every 16th state is exactly the orbit of r^16 that the same tree
    # computes: r^16 by doubling, then the orbit on a 1/16-size buffer
    step, n_steps = 1e-3, 5 * 4096 + 40
    model = random_model(rng)
    u = rng.uniform(-1, 1, 3)
    traj = integrate(model, to_coherence(random_density_matrix(rng)), ControlLaw.constant(u), n_steps * step, step)
    m0, mc = control_generators(model)
    m = m0 + (u @ mc.reshape(3, -1)).reshape(16, 16)
    powers = _rk4_map(m, m, m, step)[None]
    while len(powers) < 16:
        powers = np.concatenate([powers, powers[-1] @ powers])
    ends = np.empty((n_steps // 16, 16))
    dynamics._orbit(powers[-1], traj.states[0], ends)
    np.testing.assert_array_equal(traj.states[16::16], ends)


def test_purification_scan_peaks_are_running_maxima(rng):
    model = make_model(Coupling("resonant", 0.4), 1.0, 1.0, (np.sqrt(0.1) * SIGMA_MINUS,))
    laws = [ControlLaw.constant([0, 0, 0])] + random_control_laws(rng, 3, 1.0, 3.0)
    horizons, step = [0.001, 0.5, 1.2345, 3.0], 1e-2  # 3.0 reads the last state
    report = purification_scan(model, MIXED16, laws, horizons, step)
    for law, entry in zip(laws, report["entries"]):
        traj = integrate(model, MIXED16, law, max(horizons), step)
        running = np.maximum.accumulate(traj.purity_b)
        for t_h, got in zip(horizons, entry["per_horizon"]):
            k = min(round(t_h / step), len(traj) - 1)
            assert got["max_purity_b"] == running[k]
            assert got["margin"] == 1.0 - running[k]


def test_sampled_maps_match_stage_wise_loop(rng):
    model = random_model(rng)
    times = np.linspace(0.0, 1.3, 14)
    law = ControlLaw.sampled(times, rng.uniform(-1, 1, (14, 3)), bound=1.0)
    v0 = to_coherence(random_density_matrix(rng))
    step = 1e-3
    traj = integrate(model, v0, law, 1.3, step)  # 1300 steps: five chunks of 256, then 20

    split = control_generators(model)
    expected = [v0]
    v = v0
    for t in traj.times[:-1]:
        m1 = _generator(split, law(t))
        m2 = _generator(split, law(t + 0.5 * step))
        m4 = _generator(split, law(t + step))
        k1 = m1 @ v
        k2 = m2 @ (v + 0.5 * step * k1)
        k3 = m2 @ (v + 0.5 * step * k2)
        k4 = m4 @ (v + step * k3)
        v = v + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        expected.append(v)
    np.testing.assert_allclose(traj.states, np.array(expected), rtol=0, atol=1e-13)
    np.testing.assert_array_equal(traj.controls, [law(t) for t in traj.times])


def test_piecewise_matches_exact_propagator_at_segment_ends(rng):
    # A closed model has an antisymmetric generator M, so exp(tM) is
    # orthogonal, the RK4 map has norm <= 1 for h |M| < 2 sqrt(2), and
    # |RK4(hM) - exp(hM)| <= (h |M|)^5 / 120: the global error after n
    # steps is at most n (h |M|)^5 / 120 |v0|.
    model = closed_model(lam_scale=1.5, rng=rng)
    step = 1e-2
    breaks = np.array([0.0, 1.5, 2.2, 4.0])
    values = rng.uniform(-1, 1, (4, 3))
    law = ControlLaw.piecewise_constant(breaks, values)
    v0 = to_coherence(random_density_matrix(rng))
    traj = integrate(model, v0, law, 5.0, step)

    ends = np.append(breaks[1:], 5.0)
    split = control_generators(model)
    exact, bound = v0, 1e-13
    for start, end, u in zip(breaks, ends, values):
        m = _generator(split, u)
        h_norm = step * np.linalg.norm(m, 2)
        assert np.allclose(m, -m.T, atol=1e-14) and h_norm < 2 * np.sqrt(2)
        exact = expm((end - start) * m) @ exact
        bound += round((end - start) / step) * h_norm**5 / 120 * np.linalg.norm(v0)
        error = np.linalg.norm(traj.states[round(end / step)] - exact)
        assert 0 < error <= bound


def test_sampled_half_step_control_is_bound_checked():
    # only the half-step sample 5 exceeds the bound, never a full-step
    # value; every construction path checks the samples, so such a law
    # is refused before it can integrate
    step = 1e-2
    with pytest.raises(ValueError, match="bound"):
        ControlLaw(
            "sampled",
            times=np.array([0.0, 0.5 * step, step, 1.0]),
            values=np.array([[0, 0, 0], [5, 0, 0], [0, 0, 0], [0, 0, 0]], dtype=float),
            bound=1.0,
        )


def _gain_law(rng):
    gain = rng.uniform(-4, 4, (3, 16))
    return ControlLaw.feedback(lambda t, v: np.clip(gain @ v, -1.0, 1.0), bound=1.0)


@pytest.mark.parametrize(
    "make_law",
    [
        lambda rng: ControlLaw.piecewise_constant(
            [0.0, 0.5, 0.5002, 1.2], rng.uniform(-1, 1, (4, 3)), bound=1.0
        ),
        lambda rng: ControlLaw.sampled(
            np.linspace(0.0, 2.0, 11), rng.uniform(-1, 1, (11, 3)), bound=1.0
        ),
        _gain_law,
    ],
    ids=["piecewise-dropped-segment", "sampled", "bounded-feedback"],
)
def test_stored_norms_equal_fresh_passes_bit_for_bit(rng, make_law):
    law = make_law(rng)
    traj = integrate(random_model(rng), to_coherence(random_density_matrix(rng)), law, 2.0, 1e-3)
    states = traj.states
    assert np.array_equal(traj.purity_full, _square_norm(states))
    assert np.array_equal(traj.purity_a, 0.5 + 2.0 * _square_norm(states[:, VA]))
    assert np.array_equal(traj.purity_b, 0.5 + 2.0 * _square_norm(states[:, VB]))
    defects = physicality_defect(states)
    report = traj.metadata["physicality"]
    assert report["max_defect"] == defects.max() == oracles.physicality_defect(states).max()
    assert report["t_worst"] == traj.times[np.argmax(defects)]
    assert report["within_warn_tol"] == (defects.max() <= WARN_TOL)
    dropped = traj.metadata["law"].get("dropped_segments", 0)
    assert dropped == (law.kind == "piecewise-constant")


def test_gate_reports_the_first_worst_state():
    # a closed model keeps the maximally mixed state exactly: every defect ties at -1/4
    traj = integrate(closed_model(), MIXED16, ControlLaw.constant([0.3, -0.2, 0.1]), 1.0, 1e-2)
    assert np.all(physicality_defect(traj.states) == -0.25)
    assert traj.metadata["physicality"]["max_defect"] == -0.25
    assert traj.metadata["physicality"]["t_worst"] == 0.0


@pytest.mark.parametrize(
    "va, vb",
    [([0, 0, 0.5], [0.3, 0, 0]), ([0.3, 0, 0], [0, 0.5, 0]), ([0, 0, 0.5], [0, 0.5, 0])],
    ids=["vA-binds", "vB-binds", "full-binds"],
)
@pytest.mark.parametrize(
    "growth, aborts", [(1e-10, False), (1e-7, False), (1e-5, True)], ids=["quiet", "warn", "abort"]
)
def test_recorded_states_are_gated(monkeypatch, va, vb, growth, aborts):
    # a generator that scales every non-trace component by exp(growth t):
    # the bound that the pure block meets at t = 0 is broken by
    # ~growth * t / 2 (1.5 growth t for the full norm of a pure product),
    # so only recorded states fail it
    def growing(model):
        m0, mc = control_generators(model)
        return m0 + growth * np.diag([0.0] + [1.0] * 15), mc

    monkeypatch.setattr(dynamics, "control_generators", growing)
    start, law = embed_factorized(va, vb), ControlLaw.constant([0.2, 0, 0])
    if aborts:
        with pytest.raises(PhysicalityError) as info:
            integrate(closed_model(), start, law, 5.0, 1e-2)
        assert info.value.t == 5.0 and ABORT_TOL < info.value.defect < 1e-3
        return
    traj = integrate(closed_model(), start, law, 5.0, 1e-2)
    report = traj.metadata["physicality"]
    # growth 1e-10 leaves a defect of 2.5e-10 to 7.5e-10, within WARN_TOL = 1e-8; growth 1e-7 one beyond it
    assert 0.0 < report["max_defect"] <= ABORT_TOL
    assert report["within_warn_tol"] == (report["max_defect"] <= WARN_TOL) == (growth < 1e-8)
    assert report["max_defect"] == oracles.physicality_defect(traj.states).max()
    assert report["t_worst"] == 5.0


@pytest.mark.parametrize(
    "law", [ControlLaw.constant([0.1, 0.2, 0.3]), _gain_law(np.random.default_rng(3))], ids=["piecewise", "feedback"]
)
def test_integrate_returns_read_only_arrays(law):
    traj = integrate(closed_model(), MIXED16, law, 0.1, 1e-2)
    for name in ("times", "states", "controls"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(traj, name)[0] = 0.0
    for norm in traj.norms:
        with pytest.raises(ValueError, match="read-only"):
            norm[0] = 0.0


def test_piecewise_controls_match_row_broadcast_reference(rng):
    # [0.5, 0.5002) snaps to no step and 1.7 lies past the horizon
    times = [0.0, 0.2501, 0.5, 0.5002, 0.77, 1.7]
    law = ControlLaw.piecewise_constant(times, rng.uniform(-1, 1, (6, 3)))
    n_steps, step = 1000, 1e-3
    traj = integrate(closed_model(), MIXED16, law, 1.0, step)
    reference = np.empty((n_steps + 1, 3))
    for a, b, u in _segment_bounds(law, n_steps, step):
        reference[a:b] = u
    reference[n_steps] = reference[n_steps - 1]
    assert np.array_equal(traj.controls, reference)
    assert np.array_equal(traj.controls[-1], law.values[4])
    assert traj.metadata["law"]["dropped_segments"] == 2


@pytest.mark.parametrize("far", [1e16, 1e300])
def test_breakpoint_far_past_horizon_is_dropped(far):
    # times / step beyond the int64 range must not wrap round to step 0
    law = ControlLaw.piecewise_constant([0.0, far], [[0.5, 0, 0], [1, 0, 0]])
    traj = integrate(closed_model(), MIXED16, law, 1.0, 1e-3)
    assert np.array_equal(traj.controls, np.broadcast_to(law.values[0], traj.controls.shape))
    assert traj.metadata["law"]["dropped_segments"] == 1


def test_purification_scan_hashes_its_model_once(rng, monkeypatch):
    hashes, trajectories = [], []
    hash_hex = TwoQubitModel.hash_hex

    def counted_hash(model):
        hashes.append(model)
        return hash_hex(model)

    def tapped(*args, **kwargs):
        trajectories.append(integrate(*args, **kwargs))
        return trajectories[-1]

    monkeypatch.setattr(TwoQubitModel, "hash_hex", counted_hash)
    monkeypatch.setattr(dynamics, "integrate", tapped)
    model = random_model(rng)
    laws = [ControlLaw.constant([0, 0, 0])] + random_control_laws(rng, 10, 1.0, 1.0)
    purification_scan(model, MIXED16, laws, [0.5, 1.0], 1e-2)
    assert hashes == [model] and len(trajectories) == 11
    assert all(t.metadata["model_hash"] == hash_hex(model) for t in trajectories)
