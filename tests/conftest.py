import numpy as np
import pytest

from blochpair.coherence import embed_factorized
from blochpair.model import TwoQubitModel
from blochpair.quantum import pauli

NON_PAULI_CONTROLS = (pauli(1) + 0.3 * pauli(3), 0.7 * pauli(2) - 0.2 * pauli(1), 1.4 * pauli(3))


def _refused_starts() -> dict:
    """Start vectors that are no state, by name, each with words of the refusal it must get."""

    def mixed_with(entries, value):
        v = embed_factorized(np.zeros(3), np.zeros(3))
        v[entries] = value
        return v

    over = embed_factorized([0.0, 0.0, 0.5], [0.0, 0.0, 0.5])
    over[4] = 0.1  # |v|^2 = 1.01 while |vA| = |vB| = 1/2
    return {
        "|vA|=0.5000001": (embed_factorized([0.5000001, 0, 0], np.zeros(3)), "negative eigenvalue -5.000e-08"),
        "|vA|=0.50001": (embed_factorized([0.50001, 0, 0], np.zeros(3)), "physicality bounds by 1.000e-05"),
        "|vA|=0.6": (embed_factorized([0.6, 0, 0], np.zeros(3)), "physicality bounds by 1.100e-01"),
        "|v|^2=1.01": (over, "physicality bounds by 1.000e-02"),
        "not-positive": (mixed_with([4, 8, 12], 0.5), "negative eigenvalue -5.000e-01"),
        "c0=0.3": (mixed_with(0, 0.3), "trace"),
        "nan": (mixed_with(1, np.nan), "physicality bounds by nan"),
        "inf": (mixed_with(1, np.inf), "physicality bounds by inf"),
    }


#: starts that every command refuses with one ``ValueError``
REFUSED_STARTS = _refused_starts()


def float_edge(inside, lo: float, hi: float) -> tuple[float, float]:
    """Adjacent doubles ``x < y`` between ``lo`` and ``hi`` with ``inside(x)`` true and
    ``inside(y)`` false, by bisection from ``inside(lo)`` true and ``inside(hi)`` false."""
    assert inside(lo) and not inside(hi)
    while True:
        mid = lo + (hi - lo) / 2
        if mid in (lo, hi):
            return lo, hi
        lo, hi = (mid, hi) if inside(mid) else (lo, mid)


def random_density_matrix(rng: np.random.Generator, dim: int = 4) -> np.ndarray:
    """Full-rank random state from a complex Ginibre draw."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_pure_state(rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def random_jump(rng: np.random.Generator) -> np.ndarray:
    a, b, c = rng.normal(size=3) + 1j * rng.normal(size=3)
    return np.array([[a, b], [c, -a]])


def random_model(rng: np.random.Generator, max_jumps: int = 3) -> TwoQubitModel:
    jumps = tuple(random_jump(rng) for _ in range(rng.integers(0, max_jumps + 1)))
    return TwoQubitModel(
        omega_a=rng.uniform(-2.0, 2.0),
        omega_b=rng.uniform(-2.0, 2.0),
        lam=rng.uniform(-2.0, 2.0, (3, 3)),
        jumps=jumps,
    )


def random_control_model(rng: np.random.Generator) -> TwoQubitModel:
    """Random model with generic jumps and non-Pauli control Hamiltonians."""
    base = random_model(rng)
    paulis = np.array([pauli(1), pauli(2), pauli(3)])
    controls = tuple(np.einsum("i,ikl->kl", rng.normal(size=3), paulis) for _ in range(3))
    return TwoQubitModel(base.omega_a, base.omega_b, base.lam, base.jumps, controls)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260810)
