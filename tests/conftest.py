import numpy as np
import pytest

from blochpair.model import TwoQubitModel
from blochpair.quantum import pauli

NON_PAULI_CONTROLS = (pauli(1) + 0.3 * pauli(3), 0.7 * pauli(2) - 0.2 * pauli(1), 1.4 * pauli(3))


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


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260810)
