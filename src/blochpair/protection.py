"""Purity protection of the indirectly controlled qubit.

Keeping the reduced state of qubit B pure forces the coherence vector
onto the factorized form ``(1/2, vA, 2 vA (x) vB, vB)`` with
``|vB| = 1/2``.  The central object here is the *factorization drift*:
the rate at which the correlation block departs from that product form,

    drift = d/dt vAB - 2 (d/dt vA) (x) vB - 2 vA (x) (d/dt vB),

evaluated through the assembled generator.  On factorized states the
drift is independent of the controls, the local frequencies and the
jump operators; only the coupling matrix enters.  Closed forms for the
dispersive and resonant couplings are provided as transcription
oracles, and the case-study tooling (invariant submanifolds,
dissipation compatibility, the protecting control law and the reduced
B dynamics) lives here as well.

Factorized states have one calling convention: a pair of ``(n, 3)``
stacks ``vas``, ``vbs`` of the blocks ``vA`` and ``vB``.  The generator
route :func:`drift_batch` and the closed forms :func:`closed_form_drift`
both take them and return ``(n, 9)`` drifts; the full ``(..., 16)``
states are built by :func:`~blochpair.coherence.embed_factorized`.
Claims that hold for every control value are read off the affine split
``M(u) = M0 + sum_j u_j Mc[j]`` of
:func:`~blochpair.generator.control_generators` instead of a grid of
sampled controls: a block of ``M(u)`` that is zero in every ``Mc[j]`` is
the same block of ``M0`` for all ``u``.  The split is the one
:func:`~blochpair.dynamics.integrate` caches, built once per model object.

The obstruction sweep never builds the states of its ``vA`` x ``vB``
grid.  For a fixed generator the drift is a polynomial of degree 2 in
``vA`` and in ``vB`` separately; the sweep reads its coefficients off
:func:`drift_batch` at 10 x 10 probe pairs and multiplies the per-``vA``
coefficients ``(n_vA, 9, 10)``, a chunk of ``vA`` rows at a time, with
one table of the ``vB`` monomials ``1, b1, b2, b3, b_j b_k`` (``j <= k``)
of the grid.  Each chunk's drifts are formed once and reduced once: every
node's norm is squared, each row keeps its smallest norm, and only the few
rows that reach the zero bound are searched for their zeros.  The rows go
from the sphere ``|vA| = 1/2`` inward, and the sweep stops where the
obstruction's certified floor covers every row left.  The random pairs
go through :func:`drift_batch` itself, at most ``_PAIR_CHUNK`` pairs at a
time, and keep only each pair's drift norm.  Both sources add to one
running summary, the random pairs first, so that their draws are freed
before the grid's coefficients exist: the zero count, the zero of least key
``(|vA|, source, row)`` and the least drift norm off the sphere.
:func:`drift_batch` is the one derivation of the drift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coherence import VA, VAB, VB, _square_norm, embed_factorized
from .dynamics import ControlLaw, _split, integrate
from .generator import dissipator_blocks, generator, t_matrices
from .model import TwoQubitModel
from .quantum import SIGMA_MINUS

#: the 0-based ``lam`` entries ``(rows, columns)`` each coupling case sets to ``g``: sigma_3 x sigma_3,
#: sigma_1 x sigma_1 + sigma_2 x sigma_2, and sigma_3 x sigma_1
_COUPLING_ENTRIES = {"dispersive": ((2,), (2,)), "resonant": ((0, 1), (0, 1)), "sigma3-sigma1": ((2,), (0,))}
COUPLING_TAGS = tuple(_COUPLING_ENTRIES)

#: residual threshold of the amplitude-damping compatibility condition
COMPATIBILITY_TOL = 1e-10
#: largest entrywise distance at which a model's coupling matrix is a coupling case's
_COUPLING_TOL = 1e-12
#: largest distance of ``|va3|`` from 1/2 at which :func:`protecting_control` takes a pole
_POLE_TOL = 1e-10
#: slack of the obstruction sweep's ball ``|vA|^2 <= 1/4``, which keeps grid points rounded just past it
_BALL_SLACK = 1e-12
#: control offset of the transcription comparison model
_TRANSCRIPTION_U = (0.4, -0.3, 0.6)
#: drift norm at or below which the obstruction sweep counts a zero
_DRIFT_TOL = 1e-9
#: bound on the cofactors of the resonant obstruction: with ``a = vA``, ``b = vB``, ``w = drift / g``,
#: ``|a|^2 - 1/4 = q . w + (|b|^2 - 1/4)`` as polynomials for ``q = (4 (a1 a2 b3 - a3 b1 b2),
#: 4 a2^2 b3 + a3, -b2, -(4 a3 b2^2 + b3), 0, b1, a2, -a1, 0)`` (exact in ``tests/oracles.py``).
#: On ``|a| <= 1/2``, ``|b| = 1/2``: ``|q1| <= 1/2``, ``|q2|, |q4| <= 1``, ``q3^2 + q6^2 <= 1/4``,
#: ``q7^2 + q8^2 <= 1/4``, so ``|q| <= sqrt(11/4) < 1.66`` and by Cauchy-Schwarz the drift's
#: certified floor is ``|drift| >= |g| (1/4 - |vA|^2) / 1.66``
_COFACTOR_BOUND = 1.66
#: margin below 1/2 under which a ``|vA|`` is off the sphere in the sweep's ``min_drift_off_sphere``
_OFF_SPHERE_MARGIN = 1e-6
#: singular values of the dissipation block at or below this floor count as zero in the fixed-point solve
_RANK_FLOOR = 1e-12
#: relative residual above which the fixed-point equations have no solution
_CONSISTENCY_TOL = 1e-9
#: slack of the fixed-point solve's test for a solution of norm 1/2
_HALF_SLACK = 1e-9
#: grid pairs per chunk of the obstruction sweep (whole vB-grid rows), whose drifts the sweep
#: loop forms once, :func:`_drift_rows` reduces and the summary takes in; this size holds a
#: grid-step-0.1 report's traced peak at 1.10 MB, under its 1.25 MB test (16,384 reads 2.00 MB,
#: though it cuts the report's ~170 minor page faults a call to about 0)
_SWEEP_CHUNK = 4096
#: most random pairs per chunk of the obstruction sweep, which keeps only each
#: pair's norm; at this size a chunk's temporaries peak below those of the draws
_PAIR_CHUNK = 1024
#: random ``vA`` blocks at which the axis-1 escape rate is evaluated
_AXIS1_STATES = 20


@dataclass(frozen=True)
class Coupling:
    """Named coupling case with strength ``g``.

    The coupling matrix holds the ``lam`` coefficients of
    ``H_I = (1/2) sum lam[i, j] sigma_i x sigma_j``: ``g`` at the entries
    that ``_COUPLING_ENTRIES`` lists for the tag, zero elsewhere.
    """

    tag: str
    g: float

    def __post_init__(self):
        if self.tag not in COUPLING_TAGS:
            raise ValueError(f"unknown coupling tag {self.tag!r}; expected one of {COUPLING_TAGS}")
        if not np.isfinite(self.g):
            raise ValueError(f"coupling strength g must be finite, got {self.g}")

    def lambda_matrix(self) -> np.ndarray:
        lam = np.zeros((3, 3))
        lam[_COUPLING_ENTRIES[self.tag]] = self.g
        return lam


def make_model(
    coupling: Coupling,
    omega_a: float = 0.0,
    omega_b: float = 0.0,
    jumps=(),
) -> TwoQubitModel:
    """Model with the given coupling case, local frequencies and noise."""
    return TwoQubitModel(omega_a, omega_b, coupling.lambda_matrix(), tuple(jumps))


def require_coupling(model: TwoQubitModel, coupling: Coupling) -> None:
    """Raise ``ValueError`` unless ``model.lam`` is the coupling matrix of ``coupling``."""
    if not np.max(np.abs(model.lam - coupling.lambda_matrix())) <= _COUPLING_TOL:
        raise ValueError(f"model coupling matrix does not match the {coupling.tag} coupling case")


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of an ``(n, 3)`` array, as an ``(n, 1)`` column."""
    norms = x[:, 0] * x[:, 0]
    square = x[:, 1] * x[:, 1]
    norms += square
    norms += np.multiply(x[:, 2], x[:, 2], out=square)
    return np.sqrt(norms, out=norms)[:, None]


def random_factorized_states(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Arrays ``(vA (n,3), vB (n,3))``: vA uniform in the half-ball radius, vB on the sphere.

    Each normal draw is scaled by its row norm, summed by columns as
    ``(x1 x1 + x2 x2) + x3 x3`` in place.  That is the sum, in the same order,
    that ``np.linalg.norm(x, axis=1)`` takes over rows of three, so the draws are
    its to the bit (``tests/oracles.py`` keeps the ``linalg.norm`` route to check
    it) without its ``(n, 3)`` array of squares.
    """
    va = rng.normal(size=(n, 3))
    va /= _row_norms(va)
    va *= 0.5 * rng.uniform(0.0, 1.0, (n, 1)) ** (1.0 / 3.0)
    vb = rng.normal(size=(n, 3))
    vb /= 2.0 * _row_norms(vb)
    return va, vb


# -- factorization drift ------------------------------------------------------


def drift_batch(m: np.ndarray, vas: np.ndarray, vbs: np.ndarray) -> np.ndarray:
    """Factorization drift of many factorized states under a fixed generator.

    ``m`` is a 16x16 generator, ``vas``/``vbs`` are (n, 3) stacks.
    Returns an (n, 9) array.  This generator route is the single source
    of truth: :func:`closed_form_drift` is checked against it, never the
    other way around.
    """
    vas, vbs = np.atleast_2d(vas, vbs)
    rates = embed_factorized(vas, vbs) @ m.T
    coupled = np.einsum("ni,nj->nij", rates[:, VA], vbs) + np.einsum(
        "ni,nj->nij", vas, rates[:, VB]
    )
    return rates[:, VAB] - 2.0 * coupled.reshape(-1, 9)


#: index pairs ``(j, k)``, ``j <= k``, of the quadratic monomials
_QUAD_J, _QUAD_K = np.triu_indices(3)


def _monomials(vbs: np.ndarray) -> np.ndarray:
    """(10, n) table ``1, b1, b2, b3, b_j b_k (j <= k)`` of the rows ``vbs`` (``vB`` or ``vA`` blocks)."""
    return np.vstack([np.ones(len(vbs)), vbs.T, (vbs[:, _QUAD_J] * vbs[:, _QUAD_K]).T])


#: probe points ``0, e_i, -e_i, e_i + e_j (i < j)`` of the drift fit; the
#: inverse of their monomial table has entries 0, +-1/2 and +-1 only
_PROBES = np.vstack([np.zeros(3), np.eye(3), -np.eye(3), np.eye(3)[[0, 0, 1]] + np.eye(3)[[1, 2, 2]]])


def _drift_coefficients(m: np.ndarray, vas: np.ndarray) -> np.ndarray:
    """(n, 9, 10) coefficients of the drift in the :func:`_monomials` of ``vB``.

    For any ``m`` the drift of :func:`drift_batch` has degree <= 2 in ``vA``
    and in ``vB`` separately, so its values at the 10 x 10 probe pairs fix it:
    the probe inverse on both sides gives its (10, 9, 10) coefficients in the
    monomials of both, and those of ``vas`` contract the first axis.
    ``coef[n] @ _monomials(vbs)`` is the drift at ``vas[n]`` and every row of ``vbs``.
    """
    k = len(_PROBES)
    inverse = np.linalg.inv(_monomials(_PROBES))
    values = drift_batch(m, np.repeat(_PROBES, k, axis=0), np.tile(_PROBES, (k, 1)))
    tensor = (inverse.T @ values.reshape(k, 9 * k)).reshape(k, k, 9)  # [vA mono, vB probe, :]
    tensor = tensor.transpose(0, 2, 1) @ inverse  # [vA mono, :, vB mono]
    return (_monomials(vas).T @ tensor.reshape(k, 9 * k)).reshape(len(vas), 9, k)


def closed_form_drift(coupling: Coupling, vas: np.ndarray, vbs: np.ndarray) -> np.ndarray:
    """Transcribed closed form of the factorization drift, (n, 9) for (n, 3) stacks.

    Supported for the dispersive and resonant couplings; the
    ``sigma3-sigma1`` case has no published closed form and is handled
    through :func:`drift_batch` directly.  This is the oracle the
    generator route is checked against, so it is written out from the
    paper and never derived from the generator.
    """
    vas, vbs = np.atleast_2d(vas, vbs)
    a1, a2, a3 = vas[:, 0], vas[:, 1], vas[:, 2]
    b1, b2, b3 = vbs[:, 0], vbs[:, 1], vbs[:, 2]
    g = coupling.g
    if coupling.tag == "dispersive":
        w = np.stack(
            [
                4.0 * (a2 * b1 * b3 + a1 * a3 * b2),
                4.0 * (a2 * b2 * b3 - a1 * a3 * b1),
                -a2 * (1.0 - 4.0 * b3**2),
                4.0 * (a2 * a3 * b2 - a1 * b1 * b3),
                -4.0 * (a1 * b2 * b3 + a2 * a3 * b1),
                a1 * (1.0 - 4.0 * b3**2),
                -b2 * (1.0 - 4.0 * a3**2),
                b1 * (1.0 - 4.0 * a3**2),
                np.zeros_like(a1),
            ],
            axis=1,
        )
        return g * w
    if coupling.tag == "resonant":
        d12 = a2 * b1 - a1 * b2
        cross = 1.0 - 4.0 * a3 * b3
        w = np.stack(
            [
                -4.0 * (a3 * b1 * b2 + a1 * a2 * b3),
                -(a3 * (4.0 * b2**2 - 1.0) + b3 * (1.0 - 4.0 * a1**2)),
                4.0 * a1 * d12 + b2 * cross,
                a3 * (4.0 * b1**2 - 1.0) + b3 * (1.0 - 4.0 * a2**2),
                4.0 * (a3 * b1 * b2 + a1 * a2 * b3),
                4.0 * a2 * d12 - b1 * cross,
                -4.0 * b1 * d12 + a2 * cross,
                -4.0 * b2 * d12 - a1 * cross,
                4.0 * d12 * (a3 - b3),
            ],
            axis=1,
        )
        return g * w
    raise ValueError(f"no closed-form drift for coupling {coupling.tag!r}")


def transcription_report(
    coupling: Coupling,
    n_samples: int = 500,
    seed: int = 0,
    model: TwoQubitModel | None = None,
) -> dict:
    """Compare closed-form and generator-route drifts on random states.

    The comparison model deliberately carries local frequencies,
    a control offset and dissipation: the generator route must shed all
    of them on factorized states, so a match certifies both the
    transcription and the cancellation structure.  A given ``model``
    must carry the coupling matrix of ``coupling``.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if model is None:
        model = make_model(coupling, 0.7, 1.3, (0.5 * SIGMA_MINUS,))
    require_coupling(model, coupling)
    rng = np.random.default_rng(seed)
    vas, vbs = random_factorized_states(rng, n_samples)
    m = generator(model, _TRANSCRIPTION_U)
    numeric = drift_batch(m, vas, vbs)
    closed = closed_form_drift(coupling, vas, vbs)
    residuals = np.max(np.abs(numeric - closed), axis=1)
    worst = int(np.argmax(residuals))
    return {
        "coupling": coupling.tag,
        "g": coupling.g,
        "n_samples": int(n_samples),
        "seed": int(seed),
        "max_residual": float(residuals[worst]),
        "worst_sample": {"va": vas[worst].tolist(), "vb": vbs[worst].tolist()},
    }


# -- dissipation compatibility and the protecting control --------------------


class IncompatibleDissipationError(ValueError):
    """The jump operators cannot hold ``vA3`` at the requested pole."""


def compatibility(model: TwoQubitModel, target_va3: float) -> tuple[bool, float]:
    """Test whether the dissipation can freeze ``vA3`` at ``target_va3``.

    Returns ``(ok, residual)`` with ``residual = |v0_3 / 2 + target * d33|``;
    the pole is a fixed point of the dissipative ``vA3`` dynamics exactly
    when the residual vanishes.  Amplitude damping along ``sigma_3``
    satisfies this for one sign of the target, pure ``sigma_3`` dephasing
    for both, and generic noise for neither.
    """
    d_hat, v0 = dissipator_blocks(model.jumps)
    residual = abs(0.5 * v0[2] + float(target_va3) * d_hat[2, 2])
    return residual <= COMPATIBILITY_TOL, residual


def protecting_control(model: TwoQubitModel, va3: float) -> tuple[float, float]:
    """Constant control ``(u1, u2)`` freezing ``vA = (0, 0, va3)``.

    With the default control set (``sigma_1``, ``sigma_2``, ``sigma_3``)
    the two transverse Bloch rates at the pole are cancelled by

        ``u1 =  (v0_2 + 2 va3 d23) / (4 va3)``
        ``u2 = -(v0_1 + 2 va3 d13) / (4 va3)``

    and the longitudinal rate vanishes by the compatibility condition,
    which is checked first.  ``u3`` is free and taken to be zero.
    """
    va3 = float(va3)
    if not abs(abs(va3) - 0.5) <= _POLE_TOL:
        raise ValueError(f"va3 must be +/- 1/2, got {va3}")
    if not model.has_default_controls():
        raise ValueError("the protecting control law assumes the default Pauli controls")
    ok, residual = compatibility(model, va3)
    if not ok:
        raise IncompatibleDissipationError(
            f"dissipation violates v0_3/2 + va3*d33 = 0 (residual {residual:.3e}); "
            f"vA3 = {va3} cannot be held constant by any control"
        )
    d_hat, v0 = dissipator_blocks(model.jumps)
    u1 = (v0[1] + 2.0 * va3 * d_hat[1, 2]) / (4.0 * va3)
    u2 = -(v0[0] + 2.0 * va3 * d_hat[0, 2]) / (4.0 * va3)
    return float(u1), float(u2)


def protecting_law(model: TwoQubitModel, va3: float) -> ControlLaw:
    """The protecting control packaged as a (constant) control law."""
    u1, u2 = protecting_control(model, va3)
    return ControlLaw.constant([u1, u2, 0.0])


def reduced_b_generator(coupling: Coupling, va3: float, omega_b: float) -> np.ndarray:
    """3x3 rotation generator of ``vB`` on the protected manifold.

    With ``vA`` frozen at ``(0, 0, va3)`` and the correlation block in
    product form, ``vB`` rotates with generator

    * dispersive:      ``(2 omega_b + 2 g va3) T_3``
    * sigma3-sigma1:   ``2 omega_b T_3 + 2 g va3 T_1``

    i.e. the coupling shifts the precession rate (dispersive) or tilts
    the rotation axis (sigma3-sigma1); neither case is affected by the
    control.  The resonant coupling admits no such protected rotation
    and is rejected.
    """
    t = t_matrices()
    if coupling.tag == "dispersive":
        return (2.0 * omega_b + 2.0 * coupling.g * va3) * t[2]
    if coupling.tag == "sigma3-sigma1":
        return 2.0 * omega_b * t[2] + 2.0 * coupling.g * va3 * t[0]
    raise ValueError("the resonant coupling has no dissipation-protected B rotation")


# -- dispersive invariant submanifold -----------------------------------------

# Flat indices that stay zero while B sits at a sigma_3 pole: the vAB and vB slots c whose B index,
# (c - VAB.start) % 3 + 1 in both blocks, is 1 or 2
_Z2_INDICES = np.array([c for c in range(VAB.start, VB.stop) if (c - VAB.start) % 3 < 2])
_NON_Z2_COLUMNS = np.array([c for c in range(16) if c not in _Z2_INDICES])


def dispersive_zero_pattern(model: TwoQubitModel) -> float:
    """Largest generator entry coupling the pinned block to the rest.

    For a dispersive coupling the rows of the pinned coordinates must
    have exactly zero entries against every other column (including the
    affine one), for every control value and any dissipation.  The
    returned magnitude is the worst entry of that block over ``M0`` and
    the three ``Mc[j]`` of the affine split, which bounds the block of
    ``M(u)`` for every ``u`` at once.
    """
    m0, mc, _ = _split(model)
    stack = np.concatenate([m0[None], mc])
    return float(np.max(np.abs(stack[:, _Z2_INDICES[:, None], _NON_Z2_COLUMNS])))


def dispersive_invariant_report(
    model: TwoQubitModel,
    va0: np.ndarray,
    sign: int,
    law: ControlLaw,
    horizon: float,
    step: float,
) -> dict:
    """Integrate from ``rho_A x (I +/- sigma_3)/2`` and track the pinned block.

    Reports the worst excursion of the coordinates that must stay zero
    and of ``|vB3| - 1/2``, plus the structural zero-pattern magnitude.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    vb = np.array([0.0, 0.0, 0.5 * sign])
    v0 = embed_factorized(np.asarray(va0, dtype=float), vb)
    traj = integrate(model, v0, law, horizon, step)
    z2 = traj.states[:, _Z2_INDICES]
    max_z2 = float(np.max(np.linalg.norm(z2, axis=1)))
    max_vb3_dev = float(np.max(np.abs(np.abs(traj.states[:, VB][:, 2]) - 0.5)))
    return {
        "max_z2": max_z2,
        "max_vb3_deviation": max_vb3_dev,
        "structure_defect": dispersive_zero_pattern(model),
        "horizon": float(horizon),
        "step": float(step),
    }


# -- resonant obstruction ------------------------------------------------------


def _affine_solution_set(d_hat: np.ndarray, v0: np.ndarray) -> dict:
    """Classify the solutions of ``v0 / 2 + d_hat vA = 0`` for the 3x3 ``d_hat`` of :func:`dissipator_blocks`.

    The set is empty or of dimension ``3 - rank`` (numpy's ``matrix_rank`` tolerance,
    floored at :data:`_RANK_FLOOR`).  Norms are unbounded along null directions, so a set
    holds a norm-1/2 point iff its least norm is at most 1/2, or for a point, is 1/2.
    """
    rhs = -0.5 * v0
    u_svd, s, vt = np.linalg.svd(d_hat)
    rank = int(np.sum(s > max(3 * np.finfo(float).eps * s[0], _RANK_FLOOR)))
    coords = u_svd[:, :rank].T @ rhs
    if np.linalg.norm(rhs - u_svd[:, :rank] @ coords) > _CONSISTENCY_TOL * max(1.0, np.linalg.norm(rhs)):
        return {"kind": "empty", "dimension": None, "min_norm": None, "has_norm_half": False}
    particular = vt[:rank].T @ (coords / s[:rank])
    dim = 3 - rank
    min_norm = float(np.linalg.norm(particular))
    has_half = min_norm <= 0.5 + _HALF_SLACK and (dim > 0 or min_norm >= 0.5 - _HALF_SLACK)
    return {
        "kind": ("point", "line", "plane", "space")[dim],
        "dimension": dim,
        "min_norm": min_norm,
        "solution": particular.tolist(),
        "has_norm_half": bool(has_half),
    }


def _drift_rows(w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row ``r`` of the drifts ``w[r, :, c]``: zero count, first zero, smallest norm.

    Each node's norm is squared once, and a row's smallest norm is the root
    of its least square.  Only the rows whose smallest norm is at most
    :data:`_DRIFT_TOL`, or is NaN and so may hide a zero, are searched for
    their zeros.  The sweep adds a chunk's rows to its summary and keeps none.
    """
    squares = np.einsum("rkc,rkc->rc", w, w)
    n_zero, first_zero = np.zeros(len(w), dtype=np.intp), np.zeros(len(w), dtype=np.intp)
    row_min = np.sqrt(np.min(squares, axis=1))
    hit = np.flatnonzero(~(row_min > _DRIFT_TOL))
    if hit.size:
        squares = squares[hit]  # rooted in place, as the caller still holds the chunk's drifts
        zero = np.sqrt(squares, out=squares) <= _DRIFT_TOL
        n_zero[hit], first_zero[hit] = np.count_nonzero(zero, axis=1), np.argmax(zero, axis=1)
    return n_zero, first_zero, row_min


def _pair_norms(m: np.ndarray, vas: np.ndarray, vbs: np.ndarray) -> np.ndarray:
    """Drift norm of each pair ``(vas[n], vbs[n])``, at most :data:`_PAIR_CHUNK` pairs at a time.

    The chunks are of equal size to within one pair, so that none holds a
    single pair (numpy's one-row product may round differently from a
    stack's) and every norm equals that of one :func:`drift_batch` call.
    """
    n_chunks = max(1, -(-len(vas) // _PAIR_CHUNK))
    chunks = zip(np.array_split(vas, n_chunks), np.array_split(vbs, n_chunks))
    return np.concatenate([np.sqrt(_square_norm(drift_batch(m, va, vb))) for va, vb in chunks])


def resonant_obstruction_report(
    g: float,
    grid_step: float = 0.05,
    n_random: int = 10_000,
    seed: int = 0,
    model: TwoQubitModel | None = None,
) -> dict:
    """Sweep the factorized constraint set of the resonant coupling.

    Part (a): evaluate the factorization drift on a grid over
    ``vA`` (cube grid intersected with the ball) times ``vB`` (angular
    grid on the sphere) plus ``n_random`` random samples, and record the
    smallest ``|vA|`` among points where the drift vanishes.  Every such
    point must have ``|vA| = 1/2``, i.e. a fully pure state: keeping B
    pure without keeping the whole state pure is obstructed.

    Part (b): solve ``v0 / 2 + d_hat vA = 0`` for the supplied model's
    dissipation and report whether any solution has norm ``1/2`` (the
    only way full purity can survive the noise).

    The random pairs go through :func:`_pair_norms`, a bounded chunk at a
    time; a pair is a zero when its norm is at most :data:`_DRIFT_TOL`.  The
    ``vA`` rows of the grid go a chunk at a time, each chunk's drifts at every
    ``vB`` node formed once and reduced by :func:`_drift_rows`.  They go from
    the sphere inward, so each row's certified floor
    ``|g| (1/4 - |vA|^2) / 1.66`` (:data:`_COFACTOR_BOUND`), less an allowance
    ``_DRIFT_TOL max(1, |g|)`` for rounding, is no lower than the last.  The
    sweep stops at the first floor above both :data:`_DRIFT_TOL` and the least
    off-sphere norm so far, the random pairs' included: no later row can hold
    a zero or lower that norm, so every field but ``certificate`` is that of
    the full grid.  A non-finite coefficient, or a random pair below its own
    floor, voids the floor, and every row is evaluated.  The random pairs,
    then each grid chunk, add to one summary: the zero count, the least
    off-sphere norm and the zero of least key ``(|vA|, source, row)``, the
    grid being source 0, so that on a tie of ``|vA|`` the grid's zero is
    reported, then the lower row's.  ``certificate`` holds ``|g| / 1.66``,
    the rows evaluated and certified and the random pairs below their floor.

    ``grid_step`` must be finite, positive and small enough that some
    point of the ``vA`` grid lies in the ball.  A given ``model`` must
    carry the resonant coupling of strength ``g``; it supplies the local
    frequencies and the dissipation.
    """
    if not (np.isfinite(grid_step) and grid_step > 0):
        raise ValueError(f"grid_step must be finite and > 0, got {grid_step}")
    if n_random < 0:
        raise ValueError(f"n_random must be >= 0, got {n_random}")
    coupling = Coupling("resonant", g)
    if model is None:
        model = make_model(coupling, omega_a=0.9, omega_b=1.1, jumps=(SIGMA_MINUS,))
    require_coupling(model, coupling)
    m = generator(model, np.array([0.3, -0.2, 0.1]))

    axis = np.arange(-0.5, 0.5 + grid_step / 2.0, grid_step)
    ga, gb, gc = np.meshgrid(axis, axis, axis, indexing="ij")
    va_grid = np.column_stack([ga.ravel(), gb.ravel(), gc.ravel()])
    va_grid = va_grid[_square_norm(va_grid) <= 0.25 + _BALL_SLACK]
    if len(va_grid) == 0:
        raise ValueError(f"grid_step {grid_step} puts no vA grid point in the ball |vA| <= 1/2")

    theta = np.arange(0.0, np.pi + grid_step / 2.0, grid_step)
    tt, pp = np.meshgrid(theta, np.arange(0.0, 2.0 * np.pi, grid_step), indexing="ij")
    vb_grid = 0.5 * np.column_stack(
        [(np.sin(tt) * np.cos(pp)).ravel(), (np.sin(tt) * np.sin(pp)).ravel(), np.cos(tt).ravel()]
    )

    # part (a)'s one summary: zero count, zero of least key (|vA|, source, row) with the grid as source 0
    # and the pairs as 1, and least norm off the sphere.  The pairs seed it; their draws go before the fit
    va_rand, vb_rand = random_factorized_states(np.random.default_rng(seed), n_random)
    rand_norms, rand_sq = _pair_norms(m, va_rand, vb_rand), _square_norm(va_rand)
    floor_coef, allowance = abs(g) / _COFACTOR_BOUND, _DRIFT_TOL * max(1.0, abs(g))
    n_below = int(np.count_nonzero(rand_norms < floor_coef * (0.25 - rand_sq) - allowance))
    rand_va, zeros = np.sqrt(rand_sq, out=rand_sq), np.flatnonzero(rand_norms <= _DRIFT_TOL)
    n_zero, key, worst, column = zeros.size, (np.inf,), None, None
    if zeros.size:
        r = zeros[np.argmin(rand_va[zeros])]
        key, worst = (rand_va[r], 1, r), {"va": va_rand[r].tolist(), "vb": vb_rand[r].tolist()}
    best = np.min(rand_norms, where=rand_va < 0.5 - _OFF_SPHERE_MARGIN, initial=np.inf)
    del va_rand, vb_rand, rand_norms, rand_sq, rand_va, zeros
    # grid rows from the sphere inward (the first n_sphere on it), until a floor clears the least norm off
    # the sphere so far; once that norm is NaN, so is the report's, and only the zero bound is left to clear
    coef, mono, va_sq = _drift_coefficients(m, va_grid), _monomials(vb_grid), _square_norm(va_grid)
    prune = bool(np.all(np.isfinite(coef))) and n_below == 0
    order, va_norm, n = np.argsort(-va_sq, kind="stable"), np.sqrt(va_sq), len(va_grid)
    floor, n_sphere = floor_coef * (0.25 - va_sq[order]) - allowance, np.sum(va_norm >= 0.5 - _OFF_SPHERE_MARGIN)
    done, chunk = 0, max(1, _SWEEP_CHUNK // mono.shape[1])
    while done < n and not (prune and floor[done] > np.fmax(best, _DRIFT_TOL)):
        rows = order[done : done + chunk]
        row_zeros, first_zero, row_min = _drift_rows(coef[rows] @ mono)
        best = row_min[max(0, n_sphere - done) :].min(initial=best)  # a NaN is kept
        count = row_zeros.sum()
        if count:
            j = np.lexsort((rows, va_norm[rows], row_zeros == 0))[0]  # the chunk's zero of least key
            n_zero, candidate = n_zero + count, (va_norm[rows[j]], 0, rows[j])
            if candidate < key:
                key, column = candidate, first_zero[j]
        done += len(rows)
    if column is not None:
        worst = {"va": va_grid[key[2]].tolist(), "vb": vb_grid[column].tolist()}

    solve = _affine_solution_set(*dissipator_blocks(model.jumps))

    return {
        "coupling": "resonant",
        "g": float(g),
        "grid_step": float(grid_step),
        "n_random": int(n_random),
        "seed": int(seed),
        "drift_tol": _DRIFT_TOL,
        "n_drift_zero_points": int(n_zero),
        "min_va_norm_at_zero": None if worst is None else float(key[0]),
        "worst_zero_point": worst,
        "min_drift_off_sphere": float(best),
        "purity_fixed_point": solve,
        "certificate": {
            "floor_coefficient": floor_coef,
            "grid_rows_evaluated": done,
            "grid_rows_certified": n - done,
            "random_pairs_below_floor": n_below,
        },
    }


# -- sigma3-sigma1: rejection of the axis-1 branch -----------------------------


def axis1_escape_report(model: TwoQubitModel, seed: int = 0) -> dict:
    """First-order escape rate from ``rho_A x (I +/- sigma_1)/2`` states.

    Pinning B at a ``sigma_1`` pole makes the factorization drift vanish identically, yet
    the configuration cannot persist: the free rotation of B moves ``vB`` off the pole at
    rate ``|omega_b|`` regardless of the control.  The controls act on A only, so every
    ``Mc[j]`` is placed on the ``vA`` and ``vAB`` blocks, its ``vB`` rows zero (asserted),
    and ``M0`` gives the rate for every ``u``.  The report returns the minimum, over random
    ``vA``, of the instantaneous rate at which the pole constraints ``(vB2, vB3) = 0`` are
    violated.  The rate degenerates to zero exactly when ``omega_b = 0``, in which case the
    branch is not excluded by this first-order argument.  ``model`` must carry a
    sigma3-sigma1 coupling.
    """
    require_coupling(model, Coupling("sigma3-sigma1", model.lam[2, 0]))
    rng = np.random.default_rng(seed)
    vas, _ = random_factorized_states(rng, _AXIS1_STATES)
    m0, mc, _ = _split(model)
    if np.any(mc[:, VB]):
        raise AssertionError("control generators reach the vB rows")
    poles = np.array([[0.5, 0.0, 0.0], [-0.5, 0.0, 0.0]])
    states = embed_factorized(vas[None, :, :], poles[:, None, :]).reshape(-1, 16)
    rates = states @ m0[VB][1:].T  # rows vB2, vB3
    return {
        "min_escape_rate": float(np.min(np.linalg.norm(rates, axis=-1))),
        "omega_b": model.omega_b,
        "expected_rate": abs(model.omega_b),
        "note": "rate vanishes iff omega_b = 0; the exclusion is first-order only",
    }

