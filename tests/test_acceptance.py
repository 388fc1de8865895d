"""Acceptance suite.

One test per criterion; each prints a PASS/FAIL line (visible with
``pytest -s tests/test_acceptance.py``) and enforces the stated
tolerance.  Runtime-limited criteria also assert their wall-clock
budget.
"""

import time

import numpy as np
import pytest
from scipy.linalg import expm

from blochpair.coherence import (
    factorization_residual,
    VB,
    from_coherence,
    to_coherence,
)
from blochpair.dynamics import (
    ControlLaw,
    integrate,
    purification_scan,
    random_control_laws,
)
from blochpair.generator import generator, numeric_generator
from blochpair.protection import (
    Coupling,
    closed_form_drift,
    dispersive_invariant_report,
    drift_batch,
    make_model,
    protected_run,
    random_factorized_states,
    resonant_obstruction_report,
    transcription_report,
)
from blochpair.quantum import SIGMA_MINUS, pauli
from conftest import random_density_matrix, random_model, random_pure_state
import oracles
from oracles import partial_trace_a, purity

MIXED16 = np.concatenate([[0.5], np.zeros(15)])


def _report(num: int, ok: bool, desc: str, detail: str = ""):
    line = f"[acceptance {num:02d}] {'PASS' if ok else 'FAIL'} - {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_generator_equivalence():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        model = random_model(rng)
        u = rng.uniform(-2.0, 2.0, 3)
        diff = np.max(np.abs(generator(model, u) - numeric_generator(model, u)))
        worst = max(worst, diff)
    elapsed = time.perf_counter() - t0
    _report(
        1,
        worst <= 1e-11 and elapsed < 5.0,
        "block assembly matches basis-projected generator on 200 random models",
        f"max entry diff {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_parseval_and_round_trip():
    rng = np.random.default_rng(102)
    worst_parseval = 0.0
    worst_round_trip = 0.0
    for _ in range(1000):
        rho = random_density_matrix(rng)
        v = to_coherence(rho)
        worst_parseval = max(worst_parseval, abs(v @ v - purity(rho)))
        worst_round_trip = max(
            worst_round_trip, np.max(np.abs(from_coherence(v) - rho))
        )
    _report(
        2,
        worst_parseval <= 1e-10 and worst_round_trip <= 1e-12,
        "norm identity and round trip on 1000 random states",
        f"parseval {worst_parseval:.2e}, round trip {worst_round_trip:.2e}",
    )


def test_criterion_03_factorization_characterizes_pure_b():
    rng = np.random.default_rng(103)
    worst_residual = 0.0
    worst_norm = 0.0
    for _ in range(500):
        rho = np.kron(random_density_matrix(rng, 2), random_pure_state(rng, 2))
        v = to_coherence(rho)
        worst_residual = max(worst_residual, factorization_residual(v))
        vb = v[VB]
        worst_norm = max(worst_norm, abs(vb @ vb - 0.25))
    min_mixed_residual = np.inf
    accepted = 0
    while accepted < 500:
        rho = random_density_matrix(rng)
        if purity(partial_trace_a(rho)) > 0.99:
            continue
        accepted += 1
        min_mixed_residual = min(
            min_mixed_residual, factorization_residual(to_coherence(rho))
        )
    ok = worst_residual <= 1e-12 and worst_norm <= 1e-12 and min_mixed_residual > 1e-8
    _report(
        3,
        ok,
        "pure-B states factorize, mixed-B states do not",
        f"pure residual {worst_residual:.2e}, |vB|^2 dev {worst_norm:.2e}, "
        f"min mixed residual {min_mixed_residual:.2e}",
    )


def test_criterion_04_closed_form_transcription():
    details = []
    ok = True
    for tag in ("dispersive", "resonant"):
        rep = transcription_report(Coupling(tag, 0.85), n_samples=500, seed=104)
        details.append(f"{tag} {rep['max_residual']:.2e}")
        ok = ok and rep["max_residual"] <= 1e-11
    # document the full dispersive component structure: on the two
    # protected branches every component vanishes; off them, components
    # 1..8 are generically active and component 9 is identically zero
    rng = np.random.default_rng(104)
    vas, vbs = random_factorized_states(rng, 400)
    w_general = closed_form_drift(Coupling("dispersive", 0.85), vas, vbs)
    pinned_b = vbs.copy()
    pinned_b[:, :2] = 0.0
    pinned_b[:, 2] = 0.5
    w_pinned = closed_form_drift(Coupling("dispersive", 0.85), vas, pinned_b)
    general_active = np.max(np.abs(w_general), axis=0)
    print(
        "[acceptance 04] dispersive component magnitudes, general factorized states: "
        + " ".join(f"{x:.2e}" for x in general_active)
    )
    print(
        "[acceptance 04] dispersive component maxima with B pinned at the sigma3 pole: "
        f"{np.max(np.abs(w_pinned)):.2e} (all vanish)"
    )
    _report(4, ok, "closed drift forms match the generator route", ", ".join(details))


def test_criterion_05_drift_blind_to_noise_and_local_terms():
    rng = np.random.default_rng(105)
    vas, vbs = random_factorized_states(rng, 200)
    worst = 0.0
    for tag in ("dispersive", "resonant", "sigma3-sigma1"):
        coupling = Coupling(tag, 1.2)
        reference = drift_batch(generator(make_model(coupling), np.zeros(3)), vas, vbs)
        variants = [
            (make_model(coupling, omega_a=1.7), np.zeros(3)),
            (make_model(coupling, omega_b=-2.0), np.zeros(3)),
            (make_model(coupling, jumps=(SIGMA_MINUS,)), np.zeros(3)),
            (
                make_model(coupling, jumps=(0.8 * SIGMA_MINUS, pauli(3) / np.sqrt(2))),
                np.zeros(3),
            ),
            (make_model(coupling), np.array([2.0, -2.0, 1.5])),
            (
                make_model(coupling, omega_a=-0.9, omega_b=1.4, jumps=(SIGMA_MINUS,)),
                np.array([1.0, 1.0, -1.0]),
            ),
        ]
        for model, u in variants:
            w = drift_batch(generator(model, u), vas, vbs)
            worst = max(worst, float(np.max(np.abs(w - reference))))
    _report(
        5,
        worst <= 1e-12,
        "factorization drift ignores noise, controls and local frequencies",
        f"max deviation {worst:.2e}",
    )


def test_criterion_06_dispersive_invariant_submanifold():
    rng = np.random.default_rng(106)
    model = make_model(Coupling("dispersive", 0.8), 0.9, 1.2, (SIGMA_MINUS,))
    laws = random_control_laws(rng, 10, 1.0, 20.0)
    t0 = time.perf_counter()
    worst_z2 = 0.0
    worst_dev = 0.0
    for k in range(50):
        va = rng.normal(size=3)
        va *= 0.5 * rng.uniform() ** (1.0 / 3.0) / np.linalg.norm(va)
        sign = 1 if k % 2 == 0 else -1
        rep = dispersive_invariant_report(
            model, va, sign, laws[k % 10], horizon=20.0, step=1e-3
        )
        worst_z2 = max(worst_z2, rep["max_z2"])
        worst_dev = max(worst_dev, rep["max_vb3_deviation"])
        assert rep["structure_defect"] == 0.0
    elapsed = time.perf_counter() - t0
    _report(
        6,
        worst_z2 <= 1e-8 and worst_dev <= 1e-8 and elapsed < 30.0,
        "sigma3-pinned product states stay pinned under any control and damping",
        f"max z2 {worst_z2:.2e}, max |vB3|-1/2 {worst_dev:.2e}, {elapsed:.1f}s",
    )


def test_criterion_07_sigma31_protection():
    ell = SIGMA_MINUS + (0.4 + 0.3j) * pauli(3)
    model = make_model(Coupling("sigma3-sigma1", 0.9), 0.7, 1.1, (ell,))
    traj, rot = protected_run(
        model, Coupling("sigma3-sigma1", 0.9), -0.5, [0.0, 0.0, 0.5], 20.0, 1e-3
    )
    min_purity = float(traj.purity_b.min())
    sample = slice(0, len(traj), 500)
    predicted = np.stack(
        [expm(t * rot) @ np.array([0.0, 0.0, 0.5]) for t in traj.times[sample]]
    )
    vb_err = float(np.max(np.abs(traj.states[sample, 13:16] - predicted)))
    _report(
        7,
        min_purity >= 1.0 - 1e-7 and vb_err <= 1e-6,
        "protecting control holds B pure with the predicted rotation",
        f"min purity_B {min_purity:.12f}, vB error {vb_err:.2e}",
    )


def test_criterion_08_resonant_obstruction_sweep():
    t0 = time.perf_counter()
    report = resonant_obstruction_report(0.7, grid_step=0.05, n_random=10_000, seed=108)
    elapsed = time.perf_counter() - t0
    found = report["n_drift_zero_points"]
    min_norm = report["min_va_norm_at_zero"]
    ok = found > 0 and min_norm >= 0.5 - 1e-6 and elapsed < 60.0
    # the certified floor covers all but the 210 rows nearest |vA| = 1/2, and no random pair refutes it
    certificate = report["certificate"]
    assert (certificate["grid_rows_evaluated"], certificate["grid_rows_certified"]) == (210, 3959)
    assert certificate["random_pairs_below_floor"] == 0
    _report(
        8,
        ok,
        "every drift-free configuration carries a fully pure state",
        f"{found} zero points, min |vA| {min_norm:.9f}, {elapsed:.1f}s",
    )


def test_criterion_09_purification_only_asymptotic():
    rng = np.random.default_rng(109)
    model = make_model(
        Coupling("resonant", 0.4), 1.0, 1.0, (np.sqrt(0.1) * SIGMA_MINUS,)
    )
    horizons = [10.0, 20.0, 40.0, 50.0]
    laws = [ControlLaw.constant([0.0, 0.0, 0.0], bound=1.0)]
    laws += random_control_laws(rng, 30, 1.0, max(horizons))
    report = purification_scan(model, MIXED16, laws, horizons, 1e-3)
    all_positive = report["min_margin"] > 0.0
    free_margins = [p["margin"] for p in report["entries"][0]["per_horizon"]]
    decreasing = all(a > b for a, b in zip(free_margins, free_margins[1:]))
    # the zero law's margin decays at 2|alpha|, alpha the abscissa of the damped flip-flop
    # modes -0.1 +- 0.387i; they beat, so a least-squares fit over [10, 50] reads the rate
    # where two 10-unit endpoints read 0.167 to 0.232
    free = integrate(model, MIXED16, laws[0], max(horizons), 1e-3)
    late = free.times >= 10.0
    slope = np.polyfit(free.times[late], np.log1p(-free.purity_b[late]), 1)[0]
    rate = 2.0 * abs(oracles.damped_resonant_abscissa(0.1, 0.4, 1.0, 1.0, 0.0))
    _report(
        9,
        all_positive and decreasing and abs(-slope - rate) <= 0.01 * rate,
        "reduced purity of B approaches one only asymptotically",
        f"min margin {report['min_margin']:.2e} over {len(laws)} laws, "
        f"drift-only margins {['%.2e' % m for m in free_margins]}, "
        f"fitted decay {-slope:.5f} against 2|alpha| = {rate:.5f}",
    )


def test_criterion_10_integrator_order():
    from blochpair.model import TwoQubitModel

    model = TwoQubitModel(0.4, 1.0, np.zeros((3, 3)))
    vb0 = np.array([0.5, 0.0, 0.0])
    v0 = MIXED16.copy()
    v0[1:4] = [0.3, 0.0, 0.2]
    v0[13:16] = vb0
    v0[4:13] = 2.0 * np.outer(v0[1:4], vb0).reshape(9)
    law = ControlLaw.constant([0.2, 0.0, 0.0])
    horizon = 5.0
    angle = 2.0 * model.omega_b * horizon
    exact_vb = 0.5 * np.array([np.cos(angle), np.sin(angle), 0.0])

    def terminal_error(h):
        end = integrate(model, v0, law, horizon, h).states[-1]
        return np.linalg.norm(end[13:16] - exact_vb)

    ratio = terminal_error(0.05) / terminal_error(0.025)
    _report(
        10,
        16.0 * 0.8 <= ratio <= 16.0 * 1.2,
        "step halving shows fourth-order convergence on an exact rotation",
        f"error ratio {ratio:.2f}",
    )
