"""Independent density-matrix oracles the tests check the package against.

They work on 4x4 matrices, with the first-qubit index varying slowest
as in ``np.kron``, so the two partial traces are the unique linear
maps with ``partial_trace_a(np.kron(m, n)) == n * trace(m)``
(and symmetrically for ``partial_trace_b``).  ``physicality_defect``
is the one oracle on coherence vectors: the gate's formula written out
as three stack-sized terms.  ``drift_rows`` is the obstruction sweep's
row reduction taken node by node, ``random_control_laws`` builds
the scan's laws with ``np.unique``, and ``rk4_feedback_reference`` is
the state-feedback stage loop with a fresh generator per stage.
``rk4_map_reference`` is the RK4 one-step map as one expression on
fresh arrays, and ``rk4_sampled_reference`` the sampled law's block
loop built on it: a ``(B, 3)`` time stack, a transposed generator
stack, fresh maps and ``v = r @ v``.  ``damped_resonant_abscissa`` and
``inherited_equilibrium`` are the closed forms of B's asymptote under the
resonant coupling and a ``sigma_3`` control, and ``purification_floor`` is the
bound under B's purification margin that holds for every control law.
``OBSTRUCTION_COFACTORS`` is the exact certificate of the resonant
obstruction: ``obstruction_identity_holds`` multiplies it out over Python
integers against the drift polynomials that ``drift_polynomials`` reads
off an integer coefficient tensor.  ``full_grid_report`` is the obstruction
report with its grid unpruned and none of its reductions: every row of it
evaluated on its own, and summarised in one place.
``pauli_coefficients`` takes ``Tr(h sigma_j)`` as traces of complex 2x2
products, and ``random_factorized_states`` norms its draws with
``np.linalg.norm``; the package reads the first off the matrix entries and sums
the second by columns, to the same bits.
Nothing in the package calls them.
"""

from __future__ import annotations

import itertools

import numpy as np

from blochpair import protection
from blochpair.coherence import from_coherence
from blochpair.dynamics import ControlLaw
from blochpair.generator import control_generators
from blochpair.quantum import (
    HERMITICITY_TOL,
    hermiticity_defect,
    lindblad_apply,
    pauli,
    validate_density_matrix,
)

IDENTITY_4 = np.eye(4, dtype=complex)


def partial_trace_a(rho: np.ndarray) -> np.ndarray:
    """Trace out the first qubit of a 4x4 operator, returning 2x2."""
    r = np.asarray(rho, dtype=complex).reshape(2, 2, 2, 2)
    return np.einsum("abad->bd", r)


def partial_trace_b(rho: np.ndarray) -> np.ndarray:
    """Trace out the second qubit of a 4x4 operator, returning 2x2."""
    r = np.asarray(rho, dtype=complex).reshape(2, 2, 2, 2)
    return np.einsum("abcb->ac", r)


def purity(rho: np.ndarray) -> float:
    """Return ``Tr(rho @ rho)`` as a real number."""
    rho = np.asarray(rho, dtype=complex)
    return float(np.einsum("ij,ji->", rho, rho).real)


def is_density_matrix(rho: np.ndarray) -> bool:
    """Boolean companion of :func:`blochpair.quantum.validate_density_matrix`."""
    try:
        validate_density_matrix(rho)
    except ValueError:
        return False
    return True


def gksl_rhs(rho: np.ndarray, h: np.ndarray, jumps=()) -> np.ndarray:
    """Right-hand side of the GKSL master equation for a state ``rho``.

    Parameters
    ----------
    rho : (4, 4) array
        Density matrix of the composite system.
    h : (4, 4) array
        Hamiltonian; must be Hermitian within
        :data:`blochpair.quantum.HERMITICITY_TOL`.
    jumps : iterable of (4, 4) arrays
        Jump operators.  An empty list gives closed (unitary) dynamics.

    Returns
    -------
    (4, 4) array
        Hermitian, traceless time derivative of ``rho``.
    """
    h = np.asarray(h, dtype=complex)
    defect = hermiticity_defect(h)
    if defect > HERMITICITY_TOL:
        raise ValueError(f"Hamiltonian is not Hermitian (defect {defect:.3e})")
    return lindblad_apply(np.asarray(rho, dtype=complex), h, jumps)


def physicality_defect(states) -> np.ndarray:
    """The gate's three terms written out: ``max(|v|^2 - 1, |vA|^2 - 1/4, |vB|^2 - 1/4)`` per state."""
    arr = np.asarray(states, dtype=float)
    full = np.einsum("...i,...i->...", arr, arr) - 1.0
    norm_a = np.einsum("...i,...i->...", arr[..., 1:4], arr[..., 1:4]) - 0.25
    norm_b = np.einsum("...i,...i->...", arr[..., 13:16], arr[..., 13:16]) - 0.25
    return np.maximum(np.maximum(full, norm_a), norm_b)


def pauli_coefficients(h: np.ndarray) -> np.ndarray:
    """``alpha_j = Tr(h sigma_j)`` as the traces of the complex products ``h @ sigma_j``."""
    h = np.asarray(h, dtype=complex)
    return np.array([np.trace(h @ pauli(j)).real for j in (1, 2, 3)])


def random_factorized_states(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The random ``(vA, vB)`` pairs of ``protection.random_factorized_states``, normed by ``np.linalg.norm``."""
    va = rng.normal(size=(n, 3))
    va /= np.linalg.norm(va, axis=1, keepdims=True)
    va *= 0.5 * rng.uniform(0.0, 1.0, (n, 1)) ** (1.0 / 3.0)
    vb = rng.normal(size=(n, 3))
    vb /= 2.0 * np.linalg.norm(vb, axis=1, keepdims=True)
    return va, vb


def drift_rows(w: np.ndarray, tol: float = 1e-9) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row ``r`` of the drifts ``w[r, :, c]``: zero count, first zero and least norm,
    from the norm of every node and a ``<= tol`` mask."""
    wnorm = np.sqrt(np.einsum("rkc,rkc->rc", w, w))
    zero = wnorm <= tol
    return np.count_nonzero(zero, axis=1), np.argmax(zero, axis=1), np.min(wnorm, axis=1)


def random_control_laws(rng: np.random.Generator, n_laws: int, bound: float, horizon: float):
    """The scan's seeded piecewise-constant laws, breakpoints sorted and deduplicated by ``np.unique``."""
    laws = []
    for _ in range(n_laws):
        n_seg = int(rng.integers(1, 9))  # at most 8 segments
        times = np.unique(np.concatenate([[0.0], rng.uniform(0.0, horizon, n_seg - 1)]))
        values = rng.uniform(-bound, bound, (times.shape[0], 3))
        laws.append(ControlLaw.piecewise_constant(times, values, bound=bound))
    return laws


def rk4_feedback_reference(model, v0, callback, n_steps: int, step: float):
    """States and controls of ``n_steps`` RK4 steps under ``u = callback(t, v)``, one
    ``m0 + (u @ mc_rows).reshape(16, 16)`` per stage; no bound or physicality check."""
    m0, mc = control_generators(model)
    mc_rows = mc.reshape(3, -1)
    times = np.arange(n_steps + 1) * step

    def law(t, y):
        return np.asarray(callback(t, y), dtype=float).reshape(3)

    def rhs(t, y):
        u = law(t, y)
        return (m0 + (u @ mc_rows).reshape(16, 16)) @ y, u

    states = np.empty((n_steps + 1, 16))
    controls = np.empty((n_steps + 1, 3))
    states[0] = v0
    for k, t in enumerate(times[:-1]):
        v = states[k]
        k1, controls[k] = rhs(t, v)
        k2, _ = rhs(t + 0.5 * step, v + 0.5 * step * k1)
        k3, _ = rhs(t + 0.5 * step, v + 0.5 * step * k2)
        k4, _ = rhs(t + step, v + step * k3)
        states[k + 1] = v + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    controls[n_steps] = law(times[n_steps], states[n_steps])
    return states, controls


def rk4_map_reference(m1: np.ndarray, m2: np.ndarray, m4: np.ndarray, h: float) -> np.ndarray:
    """One-step RK4 map from the generators at t, t + h/2 and t + h as one expression; single or stacked."""
    eye = np.eye(m1.shape[-1])
    a2 = m2 @ (eye + 0.5 * h * m1)
    a3 = m2 @ (eye + 0.5 * h * a2)
    a4 = m4 @ (eye + h * a3)
    return eye + (h / 6.0) * (m1 + 2.0 * a2 + 2.0 * a3 + a4)


def rk4_sampled_reference(model, v0, law, n_steps: int, step: float, block: int):
    """States and controls of ``n_steps`` RK4 steps under the sampled ``law``, ``block`` steps
    at a time: the ``(block, 3)`` time stack, the transposed generator stack, fresh maps from
    :func:`rk4_map_reference`, then ``v = r @ v``; no physicality check."""
    m0, mc = control_generators(model)
    mc_rows = mc.reshape(3, -1)
    times = np.arange(n_steps + 1) * step
    states = np.empty((n_steps + 1, 16))
    controls = np.empty((n_steps + 1, 3))
    states[0] = v0
    for k0 in range(0, n_steps, block):
        t = times[k0 : min(k0 + block, n_steps)]
        u = law(np.stack([t, t + 0.5 * step, t + step], axis=1))  # (len(t), stage, channel)
        stages = u.transpose(1, 0, 2)
        m = m0 + (stages @ mc_rows).reshape(stages.shape[:-1] + (16, 16))
        controls[k0 : k0 + len(t)] = u[:, 0]
        for k, r in enumerate(rk4_map_reference(m[0], m[1], m[2], step), start=k0):
            states[k + 1] = r @ states[k]
    controls[n_steps] = law(times[n_steps])
    return states, controls


def damped_resonant_abscissa(kappa: float, g: float, omega_a: float, omega_b: float, u3: float) -> float:
    """Spectral abscissa of ``M(u)[1:, 1:]`` for the resonant coupling ``g diag(1, 1, 0)``, the one
    jump ``sqrt(kappa) SIGMA_MINUS`` and ``u = (0, 0, u3)``: ``max Re(-z +- sqrt(z^2 - g^2))`` with
    ``z = kappa + i (omega_b - omega_a - u3)``, the damped flip-flop pair of modes."""
    z = kappa + 1j * (omega_b - omega_a - u3)
    root = np.sqrt(z * z - g * g)
    return float(max((-z + root).real, (-z - root).real))


def inherited_equilibrium(kappa_minus: float, kappa_plus: float) -> np.ndarray:
    """A's equilibrium Bloch vector under the jumps ``sqrt(kappa_minus) SIGMA_MINUS`` and
    ``sqrt(kappa_plus) SIGMA_PLUS``: ``(0, 0, (kappa_plus - kappa_minus) / (2 (kappa_plus + kappa_minus)))``.
    Under the resonant coupling and ``u = (0, 0, u3)`` the product of two copies of it is
    stationary, so B inherits it."""
    return np.array([0.0, 0.0, (kappa_plus - kappa_minus) / (2.0 * (kappa_plus + kappa_minus))])


def purification_floor(model, v0, t: float) -> float:
    """Lower bound on ``1 - Tr rho_B(t)^2`` from the start ``v0``, for every control law.

    With ``K = sum_k L_k^+ L_k`` over ``model.full_jumps()`` and ``gamma = ||K||_2``,
    ``rho(t) >= V rho0 V^+`` where ``dV/dt = (-i H(t) - K / 2) V`` (drop the jump terms,
    which are positive), and ``sigma_min(V)^2 >= e^{-gamma t}``.  So
    ``lambda_min(rho(t)) >= lambda_0 e^{-gamma t}`` with ``lambda_0 = lambda_min(rho0)``.
    Tracing out A gives ``rho_B >= 2 lambda_min(rho) I``, and a qubit with least eigenvalue
    ``p <= 1/2`` has ``1 - Tr rho_B^2 = 2 p (1 - p)``, increasing in ``p``.  Hence the floor
    ``2 mu (1 - mu)`` with ``mu = min(1/2, 2 lambda_0 e^{-gamma t})``; ``H(t)`` never enters
    (Lindblad, Commun. Math. Phys. 48, 119 (1976)).
    """
    k = sum((ell.conj().T @ ell for ell in model.full_jumps()), np.zeros((4, 4)))
    gamma = np.linalg.norm(k, 2)
    lam0 = np.linalg.eigvalsh(from_coherence(v0))[0]
    mu = min(0.5, 2.0 * lam0 * np.exp(-gamma * t))
    return 2.0 * mu * (1.0 - mu)


def ab_slot(i: int, j: int) -> int:
    """Flat 0-based index into ``vAB`` of the sigma_i x sigma_j slot."""
    if i not in (1, 2, 3) or j not in (1, 2, 3):
        raise ValueError("correlation-slot subscripts must be in {1, 2, 3}")
    return 3 * (i - 1) + (j - 1)


#: exponents of ``protection._monomials``' ten monomials ``1, x1, x2, x3, x_j x_k (j <= k)``
_MONOMIAL_EXPONENTS = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)] + [
    tuple(int(i == j) + int(i == k) for i in range(3)) for j, k in zip(*np.triu_indices(3))
]

#: the resonant obstruction's cofactors times 4: with ``a = vA``, ``b = vB`` and ``w = drift / g``
#: in ``closed_form_drift``'s order, ``4 (|a|^2 - 1/4) = sum_k q_k w_k + 4 (|b|^2 - 1/4)`` as
#: polynomials (Cox, Little & O'Shea, *Ideals, Varieties, and Algorithms*, 4th ed.); so on
#: ``|b| = 1/2`` a zero drift forces ``|a| = 1/2``.  Component -> {exponents of
#: ``(a1, a2, a3, b1, b2, b3)``: coefficient}; ``w5`` and ``w9`` take none.
OBSTRUCTION_COFACTORS = {
    0: {(1, 1, 0, 0, 0, 1): 16, (0, 0, 1, 1, 1, 0): -16},
    1: {(0, 2, 0, 0, 0, 1): 16, (0, 0, 1, 0, 0, 0): 4},
    2: {(0, 0, 0, 0, 1, 0): -4},
    3: {(0, 0, 1, 0, 2, 0): -16, (0, 0, 0, 0, 0, 1): -4},
    5: {(0, 0, 0, 1, 0, 0): 4},
    6: {(0, 1, 0, 0, 0, 0): 4},
    7: {(1, 0, 0, 0, 0, 0): -4},
}


def _poly_sum(terms) -> dict:
    """Sum of ``(exponents, coefficient)`` terms as a polynomial dict with no zero coefficient."""
    out = {}
    for e, c in terms:
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def drift_polynomials(tensor: np.ndarray) -> list[dict]:
    """The nine drift components of an integer ``(10, 9, 10)`` tensor ``[vA monomial, component,
    vB monomial]``, each as {exponents of ``(a1, a2, a3, b1, b2, b3)``: Python int}."""
    exponents = [(_MONOMIAL_EXPONENTS[i] + _MONOMIAL_EXPONENTS[j], i, j) for i, j in np.ndindex(10, 10)]
    return [_poly_sum((e, int(tensor[i, k, j])) for e, i, j in exponents) for k in range(9)]


def obstruction_identity_holds(w: list[dict], cofactors: dict = OBSTRUCTION_COFACTORS) -> bool:
    """Whether ``4 (|a|^2 - 1/4) = sum_k q_k w_k + 4 (|b|^2 - 1/4)`` holds exactly, as polynomials."""
    square = [tuple(2 * (i == n) for i in range(6)) for n in range(6)]  # a1^2 ... b3^2
    one = ((0,) * 6, -1)
    products = (
        (tuple(x + y for x, y in zip(e, f)), c * d)
        for k, q in cofactors.items()
        for (e, c), (f, d) in itertools.product(q.items(), w[k].items())
    )
    rhs = itertools.chain(products, [(square[n], 4) for n in range(3, 6)], [one])
    return _poly_sum([(square[n], 4) for n in range(3)] + [one]) == _poly_sum(rhs)


def full_grid_report(g: float, grid_step: float, n_random: int, seed: int, model=None) -> dict:
    """``protection.resonant_obstruction_report`` without its ``certificate``, with no row pruned and
    no chunk: each ``vA`` row of the grid reduced on its own by :func:`drift_rows`, the random pairs
    as the one-node rows of one ``drift_batch`` call, and the two summarised together.

    The generator and the random draws are read from ``protection`` when called, so a test that
    patches them there patches both routes."""
    p = protection
    if model is None:
        model = p.make_model(p.Coupling("resonant", g), omega_a=0.9, omega_b=1.1, jumps=(p.SIGMA_MINUS,))
    m = p.generator(model, np.array([0.3, -0.2, 0.1]))
    axis = np.arange(-0.5, 0.5 + grid_step / 2.0, grid_step)
    ga, gb, gc = np.meshgrid(axis, axis, axis, indexing="ij")
    va_grid = np.column_stack([ga.ravel(), gb.ravel(), gc.ravel()])
    va_grid = va_grid[p._square_norm(va_grid) <= 0.25 + p._BALL_SLACK]
    tt, pp = np.meshgrid(np.arange(0.0, np.pi + grid_step / 2.0, grid_step), np.arange(0.0, 2.0 * np.pi, grid_step),
                         indexing="ij")
    vb_grid = 0.5 * np.column_stack(
        [(np.sin(tt) * np.cos(pp)).ravel(), (np.sin(tt) * np.sin(pp)).ravel(), np.cos(tt).ravel()]
    )
    va_rand, vb_rand = p.random_factorized_states(np.random.default_rng(seed), n_random)
    rand_zero, _, rand_min = drift_rows(p.drift_batch(m, va_rand, vb_rand)[:, :, None])
    coef, mono = p._drift_coefficients(m, va_grid), p._monomials(vb_grid)
    grid_zero, first_zero, grid_min = (
        np.concatenate(x) for x in zip(*(drift_rows(coef[r : r + 1] @ mono) for r in range(len(coef))))
    )
    # the grid's rows before the pairs, so that the first zero of least |vA| is the grid's on a tie
    n_zero, least = np.concatenate([grid_zero, rand_zero]), np.concatenate([grid_min, rand_min])
    vas, vbs = np.concatenate([va_grid, va_rand]), np.concatenate([vb_grid[first_zero], vb_rand])
    va_norm = np.sqrt(p._square_norm(vas))
    zeros = np.flatnonzero(n_zero)
    worst = zeros[np.argmin(va_norm[zeros])] if zeros.size else None
    # np.min keeps a NaN
    min_off = np.min(least[va_norm < 0.5 - p._OFF_SPHERE_MARGIN], initial=np.inf)
    return {
        "coupling": "resonant",
        "g": float(g),
        "grid_step": float(grid_step),
        "n_random": int(n_random),
        "seed": int(seed),
        "drift_tol": p._DRIFT_TOL,
        "n_drift_zero_points": int(np.sum(n_zero)),
        "min_va_norm_at_zero": None if worst is None else float(va_norm[worst]),
        "worst_zero_point": None if worst is None else {"va": vas[worst].tolist(), "vb": vbs[worst].tolist()},
        "min_drift_off_sphere": float(min_off),
        "purity_fixed_point": p._affine_solution_set(*p.dissipator_blocks(model.jumps)),
    }
