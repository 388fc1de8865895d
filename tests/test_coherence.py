import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from blochpair.coherence import (
    VA,
    VAB,
    VB,
    embed_factorized,
    factorization_residual,
    from_coherence,
    lambda_basis,
    physicality_defect,
    to_coherence,
)
from blochpair.dynamics import Trajectory
from conftest import random_density_matrix, random_pure_state
import oracles
from oracles import IDENTITY_4, ab_slot, partial_trace_a, partial_trace_b, purity

MIXED = IDENTITY_4 / 4

KET00 = np.zeros((4, 4), dtype=complex)
KET00[0, 0] = 1.0

BELL = np.zeros(4, dtype=complex)
BELL[0] = BELL[3] = 1 / np.sqrt(2)
BELL = np.outer(BELL, BELL.conj())


def test_basis_orthonormal_and_traceless():
    lam = lambda_basis()
    gram = np.einsum("ikl,jlk->ij", lam, lam).real
    np.testing.assert_allclose(gram, np.eye(16), atol=1e-14)
    for k in range(1, 16):
        assert abs(np.trace(lam[k])) < 1e-14
    np.testing.assert_allclose(lam[0], IDENTITY_4 / 2, atol=1e-15)


def test_maximally_mixed_maps_to_origin():
    v = to_coherence(MIXED)
    assert v[0] == 0.5
    assert np.max(np.abs(v[1:])) < 1e-15


def test_ground_state_coordinates():
    v = to_coherence(KET00)
    np.testing.assert_allclose(v[VA], [0, 0, 0.5], atol=1e-14)
    np.testing.assert_allclose(v[VB], [0, 0, 0.5], atol=1e-14)
    expected_ab = np.zeros(9)
    expected_ab[ab_slot(3, 3)] = 0.5
    np.testing.assert_allclose(v[VAB], expected_ab, atol=1e-14)


def test_parseval_identity(rng):
    for _ in range(100):
        rho = random_density_matrix(rng)
        v = to_coherence(rho)
        assert v @ v == pytest.approx(purity(rho), abs=1e-10)


def test_round_trip(rng):
    for _ in range(25):
        rho = random_density_matrix(rng)
        np.testing.assert_allclose(from_coherence(to_coherence(rho)), rho, atol=1e-12)
    np.testing.assert_allclose(
        from_coherence(np.concatenate([[0.5], np.zeros(15)])), MIXED, atol=1e-15
    )


def _purities(rhos) -> Trajectory:
    """A trajectory recording the states ``rhos``, for its reduced purities."""
    n = len(rhos)
    return Trajectory(times=np.arange(n), states=np.array([to_coherence(r) for r in rhos]), controls=np.zeros((n, 3)))


def test_reduced_blocks_match_partial_traces(rng):
    rhos = [random_density_matrix(rng) for _ in range(25)]
    traj = _purities(rhos)
    purity_a = [purity(partial_trace_b(rho)) for rho in rhos]
    purity_b = [purity(partial_trace_a(rho)) for rho in rhos]
    np.testing.assert_allclose(traj.purity_a, purity_a, atol=1e-12)
    np.testing.assert_allclose(traj.purity_b, purity_b, atol=1e-12)


def test_reduced_purity_extremes():
    traj = _purities([MIXED, KET00])
    np.testing.assert_allclose(traj.purity_b, [0.5, 1.0], atol=1e-14)


def test_factorization_residual_product_states(rng):
    for _ in range(50):
        rho = np.kron(random_density_matrix(rng, 2), random_pure_state(rng, 2))
        v = to_coherence(rho)
        assert factorization_residual(v) < 1e-12
        assert abs(v[VB] @ v[VB] - 0.25) < 1e-12
        assert factorization_residual(v) <= 1e-8


def test_factorization_residual_bell_state():
    v = to_coherence(BELL)
    np.testing.assert_allclose(v[VA], 0, atol=1e-14)
    np.testing.assert_allclose(v[VB], 0, atol=1e-14)
    assert factorization_residual(v) == pytest.approx(np.sqrt(3) / 2, abs=1e-12)
    assert factorization_residual(v) > 0.5
    assert factorization_residual(to_coherence(MIXED)) == 0.0


def test_near_pure_reduced_states_are_near_factorized(rng):
    # mix a product-with-pure-B state with noise scaled so that the
    # reduced purity stays within 1e-9 of one
    for _ in range(10):
        base = np.kron(random_density_matrix(rng, 2), random_pure_state(rng, 2))
        noise = random_density_matrix(rng, 4)
        vb0 = to_coherence(base)[VB]
        delta = to_coherence(noise)[VB] - vb0
        slope = abs(4 * vb0 @ delta)
        if slope < 1e-3:
            continue
        eps = 1e-10 / slope
        rho = (1 - eps) * base + eps * noise
        assert purity(partial_trace_a(rho)) > 1 - 1e-9
        assert factorization_residual(to_coherence(rho)) < 1e-6


def test_positivity_predicate():
    assert oracles.is_density_matrix(from_coherence(to_coherence(KET00)))
    # unit-norm coordinates that do not correspond to a state: a single
    # correlation entry of sqrt(3)/2 forces a negative eigenvalue
    v = np.zeros(16)
    v[0] = 0.5
    v[4 + ab_slot(1, 1)] = np.sqrt(3) / 2
    assert abs(v @ v - 1.0) < 1e-15
    assert not oracles.is_density_matrix(from_coherence(v))
    m = from_coherence(v)
    assert np.linalg.eigvalsh(m).min() < -0.1
    assert abs(np.trace(m) - 1) < 1e-14


def test_embed_factorized_round_trip(rng):
    va = np.array([0.1, -0.2, 0.15])
    vb = np.array([0.3, 0.0, 0.4])
    v = embed_factorized(va, vb)
    assert factorization_residual(v) == 0.0
    np.testing.assert_allclose(v[VA], va)
    np.testing.assert_allclose(v[VB], vb)
    vas, vbs = rng.uniform(-0.3, 0.3, (2, 7, 3))
    stacked = embed_factorized(vas, vbs)
    assert stacked.shape == (7, 16)
    for row, va, vb in zip(stacked, vas, vbs):
        np.testing.assert_array_equal(row, embed_factorized(va, vb))
        by_hand = np.concatenate([[0.5], va, 2.0 * np.outer(va, vb).ravel(), vb])
        np.testing.assert_array_equal(row, by_hand)
    # one vB broadcasts against every vA, and stacks nest over leading axes
    np.testing.assert_array_equal(embed_factorized(vas, vbs[0]), embed_factorized(vas, np.tile(vbs[0], (7, 1))))
    np.testing.assert_array_equal(embed_factorized(vas[None], vbs[:2, None])[1], embed_factorized(vas, vbs[1]))


def test_physicality_defect(rng):
    ok = to_coherence(random_density_matrix(rng))
    assert physicality_defect(ok) <= 1e-12
    bad = ok.copy()
    bad[1:4] = [0.5, 0.5, 0.5]
    assert physicality_defect(bad) > 0.1
    stacked = np.stack([ok, bad])
    defects = physicality_defect(stacked)
    assert defects.shape == (2,)
    assert defects[1] > defects[0]


def test_physicality_defect_one_value_per_stacked_state(rng):
    v = to_coherence(random_density_matrix(rng))
    assert np.ndim(physicality_defect(v)) == 0
    for n in (1, 2, 5):
        defects = physicality_defect(np.tile(v, (n, 1)))
        assert defects.shape == (n,)
        np.testing.assert_array_equal(defects, physicality_defect(v))


@pytest.mark.parametrize("shape", [(16,), (9, 16), (3, 5, 16)])
def test_physicality_defect_matches_three_term_formula(rng, shape):
    # the in-place gate gives the written-out formula's bits, NaN included
    states = rng.uniform(-0.6, 0.6, shape)
    if len(shape) > 1:
        states[..., 0, 2] = np.nan
    states.flags.writeable = False
    before = states.copy()
    defects = physicality_defect(states)
    np.testing.assert_array_equal(defects, oracles.physicality_defect(states))
    np.testing.assert_array_equal(states, before)
    if len(shape) == 1:
        assert type(defects) is np.float64


def test_bloch_vector_array_round_trip(rng):
    # every constructor hands out the flat float array itself
    va, vb = np.array([0.1, -0.2, 0.15]), np.array([0.0, 0.3, 0.4])
    single = [
        to_coherence(random_density_matrix(rng)),
        embed_factorized(va, vb),
    ]
    stacked = embed_factorized(rng.uniform(-0.3, 0.3, (5, 3)), vb)
    for v, shape in [(s, (16,)) for s in single] + [(stacked, (5, 16))]:
        assert type(v) is np.ndarray and v.dtype == np.float64 and v.shape == shape
        assert np.all(v[..., 0] == 0.5)
        assert v[..., VAB].shape == shape[:-1] + (9,)


@settings(max_examples=30, deadline=None)
@given(
    entries=arrays(np.float64, (2, 4, 4), elements=st.floats(-1, 1, allow_nan=False)),
)
def test_parseval_hypothesis(entries):
    g = entries[0] + 1j * entries[1]
    gram = g @ g.conj().T + 1e-3 * np.eye(4)
    rho = gram / np.trace(gram).real
    v = to_coherence(rho)
    assert abs(v @ v - purity(rho)) < 1e-10
