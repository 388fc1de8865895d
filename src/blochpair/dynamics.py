"""Trajectory integration of the coherence-vector flow.

Fixed-step classical Runge-Kutta of order 4.  Under an open-loop law
each step is one 16x16 map ``R`` built from the generators at ``t``,
``t + h/2`` and ``t + h``.  A piecewise-constant segment builds its map
once and fills its states by a 16-ary power tree: ``R^1 ... R^16`` by
repeated doubling, then one matrix product of the block starts by these
powers for all its 16-step blocks; the block starts are the orbit of
``R^16``, filled by the same recursion and kept as the block ends.  A
sampled law builds ``B`` maps as one stack in one workspace per call,
filled in place by ``_rk4_map``, and steps by ``np.dot`` into the state
rows.  State-feedback laws keep stage evaluation; a feedback law builds
its bound-checked stage once, for ``law(t, v)`` and ``integrate`` alike.
All three form ``M(u) = M0 + sum_j u_j Mc_j`` with one matmul on the split.

Trajectories record every step, read-only, and compute each state's
``|v|^2``, ``|vA|^2`` and ``|vB|^2`` once; the physicality gate, the
purities, the scan and the exports read them.  The ``c0`` component
has identically zero derivative (first generator row is zero), so it
stays at exactly ``1/2`` without enforcement.  Both exports read the
trajectory's arrays without copying them into a table.  The CSV export
formats ``B`` rows per ``%`` operation and streams them; its bytes equal
per-field ``.17g``.  The JSON export streams one column at a time.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .coherence import VB, from_coherence, physicality_defect
from .coherence import _as_flat, _norm_defect, _purity_of, _square_norm, _square_norms
from .generator import control_generators
from .model import TwoQubitModel
from .quantum import validate_density_matrix

#: worst constraint violation tolerated before a run is aborted
ABORT_TOL = 1e-6
#: violation level recorded as a warning in the trajectory report
WARN_TOL = 1e-8
#: steps ``B`` advanced by one stack of one-step maps; also CSV rows per formatted chunk
_BLOCK = 256
#: recorded states the physicality gate judges at a time
_GATE_CHUNK = 8192
#: an interior state has full purity below ``1 - _INTERIOR_PURITY_MARGIN``
_INTERIOR_PURITY_MARGIN = 1e-6
#: smallest density-matrix eigenvalue an interior state may have
_INTERIOR_EIG_MARGIN = 1e-9
#: most segments of one law drawn by :func:`random_control_laws`
_MAX_SEGMENTS = 8


class PhysicalityError(RuntimeError):
    """A recorded state after the start violated the norm constraints beyond tolerance."""

    def __init__(self, t: float, defect: float):
        super().__init__(
            f"state at t={t:.6g} violates physicality bounds by {defect:.3e} "
            f"(limit {ABORT_TOL:.1e}); check the model or reduce the step"
        )
        self.t = t
        self.defect = defect


class BoundaryStateError(ValueError):
    """An operation required a strictly interior (non-singular) state."""


@dataclass(frozen=True, eq=False)
class ControlLaw:
    """Control signal ``u(t)`` or ``u(t, v)`` for the three channels.

    kind is one of ``"piecewise-constant"``, ``"sampled"`` or
    ``"state-feedback"``, and a law takes only its kind's fields.
    Piecewise-constant laws hold ``values[k]`` on ``[times[k], times[k+1])``
    with breakpoints snapped to the step grid, and drop those past the
    horizon however far; sampled laws interpolate linearly between samples
    and hold the first and last sample outside them; state-feedback laws
    call ``callback(t, v)`` with the current 16-component coherence vector.
    Every constructor checks the law as it is built: the kind and its
    fields, a callable ``callback``, one triple per finite, strictly
    increasing time, ``times[0] == 0`` (piecewise-constant), two samples or
    more (sampled), and a finite ``bound >= 0`` or None.  Every control
    value, given (kept as read-only copies) or computed at a feedback stage,
    is finite with a magnitude of at most ``bound + 4 * np.spacing(bound)``,
    a few ulps of the bound at every scale (a bound of 0 admits only 0);
    one comparison judges it, with or without a bound, so NaN and +-inf
    fail for every law.  An interpolation stays in its samples' box.
    """

    kind: str
    times: np.ndarray | None = None
    values: np.ndarray | None = None
    callback: Callable | None = None
    bound: float | None = None

    def __post_init__(self):
        if self.bound is not None and not (np.isfinite(self.bound) and self.bound >= 0):
            raise ValueError(f"control bound must be finite and >= 0, got {self.bound}")
        limit, broken = (float(np.finfo(float).max), "is not finite") if self.bound is None else (
            float(self.bound + 4 * np.spacing(self.bound)), f"exceeds declared bound {self.bound:.6g}")
        object.__setattr__(self, "_limit", limit)
        object.__setattr__(self, "_broken", broken)
        if self.kind == "state-feedback":
            if self.times is not None or self.values is not None:
                raise ValueError("a state-feedback law takes no times or values")
            if not callable(self.callback):
                raise ValueError("a state-feedback law needs a callable callback")
            callback = self.callback

            def stage(t, v):  # the one bound-checked stage; ``__call__`` and ``integrate`` call it
                u = np.asarray(callback(t, v), dtype=float).reshape(3)
                x, y, z = u.tolist()  # three float tests cost less than ``abs(u).max()``; a NaN fails them
                return u if abs(x) <= limit and abs(y) <= limit and abs(z) <= limit else self._check_bound(u)

            object.__setattr__(self, "_stage", stage)
            return
        if self.kind not in ("piecewise-constant", "sampled"):
            raise ValueError(f"unknown control-law kind {self.kind!r}")
        if self.callback is not None:
            raise ValueError(f"a {self.kind} law takes no callback")
        times = np.array(self.times, dtype=float).reshape(-1)  # own copies, read-only below
        values = np.array(self.values, dtype=float).reshape(-1, 3)
        if times.shape[0] != values.shape[0] or times.shape[0] == 0:
            raise ValueError("need one control value per time, at least one")
        if not np.all(np.isfinite(times)):
            raise ValueError("control times must be finite")
        if np.any(np.diff(times) <= 0):
            raise ValueError("control times must be strictly increasing")
        if self.kind == "piecewise-constant" and times[0] != 0.0:
            raise ValueError("first breakpoint must be t = 0")
        if self.kind == "sampled" and times.shape[0] < 2:
            raise ValueError("sampled law needs at least two samples")
        times.flags.writeable = values.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", self._check_bound(values))

    @classmethod
    def constant(cls, u, bound: float | None = None) -> "ControlLaw":
        return cls("piecewise-constant", [0.0], u, bound=bound)

    @classmethod
    def piecewise_constant(cls, times, values, bound: float | None = None) -> "ControlLaw":
        return cls("piecewise-constant", times, values, bound=bound)

    @classmethod
    def sampled(cls, times, values, bound: float | None = None) -> "ControlLaw":
        return cls("sampled", times, values, bound=bound)

    @classmethod
    def feedback(cls, callback: Callable, bound: float | None = None) -> "ControlLaw":
        return cls("state-feedback", callback=callback, bound=bound)

    def _check_bound(self, u: np.ndarray) -> np.ndarray:
        worst = abs(u).max()
        if not worst <= self._limit:  # a NaN control fails too
            raise ValueError(f"control value {worst:.6g} {self._broken}")
        return u

    def __call__(self, t: float, v: np.ndarray | None = None) -> np.ndarray:
        if self.kind == "piecewise-constant":
            k = int(np.searchsorted(self.times, t, side="right") - 1)
            return self.values[max(k, 0)]
        if self.kind == "sampled":  # t may also be an array of times
            return np.stack([np.interp(t, self.times, self.values[:, i]) for i in range(3)], axis=-1)
        return self._stage(t, v)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time grid, recorded states, control samples and run metadata; ``norms`` holds each
    state's ``(|v|^2, |vA|^2, |vB|^2)``, read-only, computed once, when the trajectory is built."""

    times: np.ndarray
    states: np.ndarray
    controls: np.ndarray
    metadata: dict = field(default_factory=dict)
    norms: tuple = field(init=False, repr=False)

    def __post_init__(self):
        full, a, b = _square_norms(self.states)
        full.flags.writeable = a.flags.writeable = b.flags.writeable = False
        object.__setattr__(self, "norms", (full, a, b))

    def __len__(self) -> int:
        return self.times.shape[0]

    @property
    def purity_full(self) -> np.ndarray:
        return self.norms[0]

    @property
    def purity_a(self) -> np.ndarray:
        return _purity_of(self.norms[1])

    @property
    def purity_b(self) -> np.ndarray:
        return _purity_of(self.norms[2])


def _rk4_map(m1: np.ndarray, m2: np.ndarray, m4: np.ndarray, h: float, work=None) -> np.ndarray:
    """One-step RK4 map ``R`` from the generators at t, t + h/2 and t + h; single or stacked.  Built
    in place in ``work`` (three arrays shaped like ``m1``; fresh if None), returned as ``work[0]``."""
    eye = np.eye(m1.shape[-1])
    r, x, a = np.empty((3,) + m1.shape) if work is None else work
    np.copyto(r, m1)
    for prev, c, m, w in ((m1, 0.5 * h, m2, 2.0), (a, 0.5 * h, m2, 2.0), (a, h, m4, 1.0)):
        np.add(np.multiply(prev, c, out=x), eye, out=x)  # I + c prev
        np.matmul(m, x, out=a)  # a2 = m2 (I + h/2 m1), a3 = m2 (I + h/2 a2), a4 = m4 (I + h a3)
        r += np.multiply(a, w, out=x)  # m1 + 2 a2 + 2 a3 + a4, summed in that order
    return np.add(np.multiply(r, h / 6.0, out=r), eye, out=r)


@functools.lru_cache(maxsize=4)
def _split(model: TwoQubitModel) -> tuple[np.ndarray, np.ndarray, str]:
    """Finite ``control_generators(model)`` and ``model.hash_hex()``, built once per model (models hash by identity).
    ``M0`` comes from :func:`~blochpair.generator.generator`, which checks it; the placed ``Mc[j]`` are checked here."""
    m0, mc = control_generators(model)
    if not np.isfinite(mc).all():
        raise AssertionError(f"the affine split of model {model.hash_hex()} is not finite")
    m0.flags.writeable = mc.flags.writeable = False
    return m0, mc, model.hash_hex()


@functools.lru_cache(maxsize=4)
def _checked_start(raw: bytes) -> np.ndarray:
    """The read-only start state held in ``raw``, checked once per distinct start: the norm
    gate, then :func:`~blochpair.quantum.validate_density_matrix`; either raises ``ValueError``,
    and a failure is not cached.  The one start gate: ``integrate`` and ``require_interior`` call it."""
    start = np.frombuffer(raw)
    defect = float(physicality_defect(start))
    if not defect <= ABORT_TOL:  # NaN fails too
        raise ValueError(f"start state violates physicality bounds by {defect:.3e} (limit {ABORT_TOL:.1e})")
    validate_density_matrix(from_coherence(start))
    return start


def _segment_bounds(law: ControlLaw, n_steps: int, step: float) -> list[tuple[int, int, np.ndarray]]:
    """Breakpoints snapped to the step grid, clipped before the int cast; (start, stop, value) triples."""
    idx = np.round(np.clip(law.times / step, 0, n_steps)).astype(int)
    stops = np.append(idx[1:], n_steps)
    return [(int(a), int(b), u) for a, b, u in zip(idx, stops, law.values) if b > a]


def _orbit(r: np.ndarray, v: np.ndarray, out: np.ndarray) -> None:
    """Fill the contiguous ``out`` with ``out[k] = r^(k+1) v``: one GEMM by ``r^1 ... r^16``
    fills the 16-step blocks, whose ends hold the orbit of ``r^16``, found the same way."""
    powers = r[None]
    while len(powers) < min(16, len(out)):  # r^1 ... r^16 by doubling
        powers = np.concatenate([powers, powers[-1] @ powers])
    rows = powers.reshape(-1, 16)
    n_full, tail = divmod(len(out), 16)
    starts = np.empty((n_full + 1, 16))  # block starts: starts[j] = r^(16 j) v
    starts[0] = v
    if n_full:
        _orbit(powers[-1], v, starts[1:])
        np.matmul(starts[:-1], rows.T, out=out[: 16 * n_full].reshape(n_full, 256))
        out[15 : 16 * n_full : 16] = starts[1:]  # block ends hold the recursive chain
    out[16 * n_full :] = (rows[: 16 * tail] @ starts[-1]).reshape(tail, 16)


def integrate(
    model: TwoQubitModel,
    v0,
    law: ControlLaw,
    horizon: float,
    step: float,
) -> Trajectory:
    """Integrate the controlled flow from ``v0`` over ``[0, horizon]``.

    Parameters
    ----------
    model : TwoQubitModel
    v0 : (16,) array
        Initial coherence vector; must satisfy the norm constraints and
        be the image of a density matrix.
    law : ControlLaw
    horizon, step : float
        Finite; ``step > 0`` and ``horizon >= step``.  ``horizon`` is
        snapped to the nearest integer number of steps.

    Every trajectory, the scan's included, comes from here; the affine
    split and hash of ``model`` are built on its first call and reused,
    each distinct start is checked once, and the gate reads the stored
    norms, read-only like the returned arrays, in bounded chunks.

    Raises
    ------
    ValueError
        If the start state violates the norm constraints by more than
        :data:`ABORT_TOL` or is not finite, or fails
        :func:`~blochpair.quantum.validate_density_matrix` (a trace other
        than one, ``c0 != 1/2``, or a negative eigenvalue; checked once),
        or a feedback control computed during the run is not finite or breaks the law's bound.
    PhysicalityError
        If a recorded state after the start violates the norm constraints
        by more than :data:`ABORT_TOL`, or is not finite.  The worst
        defect, and whether it stays within :data:`WARN_TOL`, is reported
        in ``metadata["physicality"]``.
    MemoryError
        If the recorded run, 23 float64 a step, would not fit in physical
        memory; it is raised before anything is allocated.
    """
    if not (np.isfinite(step) and step > 0):
        raise ValueError(f"step must be finite and positive, got {step}")
    if not (np.isfinite(horizon) and horizon >= step):
        raise ValueError(f"horizon must be finite and at least one step, got {horizon}")
    # bytes a run holds, 23 float64 a step: states 16, controls 3, times 1, norms 3
    need = (horizon / step + 1) * 23 * 8
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if not need <= memory:
        raise MemoryError(
            f"horizon {horizon:g} at step {step:g} needs {need / 2**30:.3g} GiB for its states, "
            f"more than the {memory / 2**30:.3g} GiB of physical memory"
        )
    n_steps = int(round(horizon / step))
    times = np.arange(n_steps + 1) * step

    start = _checked_start(_as_flat(v0).tobytes())
    m0, mc, model_hash = _split(model)
    mc_rows = mc.reshape(3, -1)  # M(u) = M0 + sum_j u_j Mc_j is m0 + u @ mc_rows, reshaped
    states = np.empty((n_steps + 1, 16))
    controls = np.empty((n_steps + 1, 3))
    states[0] = start

    law_info = {"kind": law.kind}
    if law.bound is not None:
        law_info["bound"] = law.bound
    if law.times is not None:
        law_info["segments"] = int(law.times.shape[0])
    if law.kind == "piecewise-constant":
        segments = _segment_bounds(law, n_steps, step)
        if len(segments) < len(law.times):  # segments that snap to no step of the grid
            law_info["dropped_segments"] = len(law.times) - len(segments)
        for seg_start, seg_stop, u in segments:
            m = m0 + (u @ mc_rows).reshape(16, 16)
            _orbit(_rk4_map(m, m, m, step), states[seg_start], states[seg_start + 1 : seg_stop + 1])
            for j in range(3):  # a column at a time costs less than broadcasting the row
                controls[seg_start:seg_stop, j] = u[j]
        controls[n_steps] = controls[n_steps - 1]
    elif law.kind == "sampled":
        work = np.empty((6, min(_BLOCK, n_steps), 256))  # one block's generators, then the map's work
        for k0 in range(0, n_steps, _BLOCK):
            t = times[k0 : min(k0 + _BLOCK, n_steps)]
            u = law(np.stack([t, t + 0.5 * step, t + step]))  # (3, len(t), 3): stage, step, channel
            controls[k0 : k0 + len(t)] = u[0]
            m = np.matmul(u, mc_rows, out=work[:3, : len(t)]).reshape(3, len(t), 16, 16)
            m += m0
            maps = _rk4_map(*m, step, work[3:, : len(t)].reshape(3, len(t), 16, 16))
            for k, r in enumerate(maps, start=k0):
                np.dot(r, states[k], out=states[k + 1])
        controls[n_steps] = law(times[n_steps])
    else:  # state-feedback
        buf = np.empty(256)  # M(u), assembled in place at every stage
        m = buf.reshape(16, 16)
        slopes = np.empty((4, 16))
        k1, k2, k3, k4 = slopes  # row views, written in place

        def rhs(t, y, out):
            u = law._stage(t, y)
            np.dot(u, mc_rows, out=buf)
            np.add(m0, m, out=m)
            np.dot(m, y, out=out)
            return u

        half, sixth, weights = 0.5 * step, step / 6.0, np.array([[1.0], [2.0], [2.0], [1.0]])
        for k, t in enumerate(times[:-1].tolist()):
            v = states[k]
            controls[k] = rhs(t, v, k1)
            rhs(t + half, v + half * k1, k2)
            rhs(t + half, v + half * k2, k3)
            rhs(t + step, v + step * k3, k4)
            states[k + 1] = v + sixth * np.add.reduce(slopes * weights, axis=0)  # k1 + 2 k2 + 2 k3 + k4
        controls[n_steps] = law._stage(times[n_steps], states[n_steps])

    times.flags.writeable = states.flags.writeable = controls.flags.writeable = False
    metadata = {
        "model_hash": model_hash,
        "step": float(step),
        "horizon": float(times[-1]),
        "law": law_info,
    }
    traj = Trajectory(times=times, states=states, controls=controls, metadata=metadata)
    # the gate finds ``np.argmax`` of the run's defects, a chunk at a time; ``not <=`` rejects a NaN
    worst, defect = 0, -np.inf
    for k0 in range(0, n_steps + 1, _GATE_CHUNK):
        part = _norm_defect(*(x[k0 : k0 + _GATE_CHUNK] for x in traj.norms))
        k = int(np.argmax(part))
        if defect == defect and not part[k] <= defect:  # a larger maximum or the first NaN, never after one
            worst, defect = k0 + k, float(part[k])
    if not defect <= ABORT_TOL:
        raise PhysicalityError(float(times[worst]), defect)
    metadata["physicality"] = {
        "max_defect": defect,
        "t_worst": float(times[worst]),
        "within_warn_tol": defect <= WARN_TOL,
    }
    return traj


def purity_rate_b(model: TwoQubitModel, v) -> float:
    """Instantaneous time derivative of ``Tr(rho_B^2)``.

    Equals ``4 <vB, M0[VB] v>``, read off the ``vB`` rows of the affine split.  The controls
    drop out because each ``Mc_j`` is placed on the ``vA`` and ``vAB`` blocks only, and the
    jumps because they act on A only.  Of the rest, ``<vB, h_b vB>`` vanishes since ``h_b``
    is antisymmetric, so only the coupling term ``<vB, h_ib vAB>`` can change the reduced
    purity of B.
    """
    flat = _as_flat(v)
    vb = flat[VB]
    return 4.0 * float(vb @ (_split(model)[0][VB] @ flat))


def require_interior(v0) -> None:
    """Raise :class:`BoundaryStateError` unless the state ``v0`` is strictly interior.

    A start that is no state fails :func:`integrate`'s start gate first,
    with its ``ValueError``.  Interior means the density matrix is strictly
    positive (all eigenvalues at or above ``_INTERIOR_EIG_MARGIN``); the
    purity margin guards against states glued to the pure-state sphere.
    """
    flat = _checked_start(_as_flat(v0).tobytes())
    full_purity = float(_square_norm(flat))
    if not full_purity < 1.0 - _INTERIOR_PURITY_MARGIN:
        raise BoundaryStateError(
            f"initial state has full purity {full_purity:.9f}; "
            "a strictly interior (mixed, non-singular) state is required"
        )
    eigs = np.linalg.eigvalsh(from_coherence(flat))
    if eigs.min() < _INTERIOR_EIG_MARGIN:
        raise BoundaryStateError(
            f"initial state is singular (min eigenvalue {eigs.min():.3e}); "
            "boundary states are excluded from purification scans"
        )


def purification_scan(
    model: TwoQubitModel,
    v0,
    laws,
    horizons,
    step: float,
) -> dict:
    """Record how close ``Tr(rho_B^2)`` gets to one under each control law.

    For every law the flow is integrated once to the largest horizon, each
    requested horizon's peak is the purity of the largest ``|vB|^2`` up to
    it, and the run is dropped before the next law: no copy is kept.  Each
    entry's ``law_info`` is the trajectory's ``metadata["law"]``.  The margins
    ``1 - max_t Tr(rho_B^2)`` are numerical evidence only; no finite
    sample of control laws can prove unreachability.
    """
    horizons = [float(h) for h in np.atleast_1d(horizons)]
    for t_h in horizons:
        if not 0.0 < t_h < np.inf:  # NaN fails too
            raise ValueError(f"horizon must be finite and > 0, got {t_h}")
    t_max = max(horizons)
    require_interior(v0)
    entries = []
    min_margin = np.inf
    for idx, law in enumerate(laws):
        traj = integrate(model, v0, law, t_max, step)
        per_horizon = []
        for t_h in horizons:  # ``0.5 + 2x`` is monotone, so the purity of the peak norm is the peak purity
            peak = float(_purity_of(traj.norms[2][: int(round(t_h / step)) + 1].max()))
            margin = 1.0 - peak
            min_margin = min(min_margin, margin)
            per_horizon.append({"horizon": t_h, "max_purity_b": peak, "margin": margin})
        entries.append({"law": idx, "law_info": traj.metadata["law"], "per_horizon": per_horizon})
        del traj  # nothing of this run stays alive while the next law integrates
    return {
        "label": "numerical evidence",
        "step": float(step),
        "horizons": horizons,
        "entries": entries,
        "min_margin": float(min_margin),
    }


def random_control_laws(
    rng: np.random.Generator,
    n_laws: int,
    bound: float,
    horizon: float,
) -> list[ControlLaw]:
    """Seeded piecewise-constant laws with values uniform in the bound box."""
    if n_laws < 0:
        raise ValueError(f"n_laws must be >= 0, got {n_laws}")
    if not (np.isfinite(horizon) and horizon > 0):
        raise ValueError(f"horizon must be finite and > 0, got {horizon}")
    if not (np.isfinite(bound) and bound >= 0):
        raise ValueError(f"bound must be finite and >= 0, got {bound}")
    laws = []
    for _ in range(n_laws):
        n_seg = int(rng.integers(1, _MAX_SEGMENTS + 1))
        times = np.sort(np.concatenate([[0.0], rng.uniform(0.0, horizon, n_seg - 1)]))
        times = times[np.concatenate([[True], np.diff(times) > 0])]  # np.unique imports numpy.ma
        values = rng.uniform(-bound, bound, (times.shape[0], 3))
        laws.append(ControlLaw.piecewise_constant(times, values, bound=bound))
    return laws


# -- export -----------------------------------------------------------------

_CSV_HEADER = (
    "t,u1,u2,u3,c0,vA1,vA2,vA3,vAB1,vAB2,vAB3,vAB4,vAB5,vAB6,vAB7,vAB8,vAB9,"
    "vB1,vB2,vB3,purity_full,purity_A,purity_B"
)


def _columns(traj: Trajectory) -> list[np.ndarray]:
    """The exported columns as ``(n, k)`` arrays: the trajectory's own, no table is copied."""
    return [traj.times[:, None], traj.controls, traj.states,
            traj.purity_full[:, None], traj.purity_a[:, None], traj.purity_b[:, None]]


def atomic_write_text(path, text: str | Iterable[str]) -> None:
    """Write ``text``, a ``str`` or an iterable of ``str`` chunks, to a file
    via a temporary sibling and an atomic rename; nothing is left if it fails."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    except OSError as exc:  # name the requested file, not the random temporary one
        raise type(exc)(exc.errno, exc.strerror, path) from None
    try:
        os.umask(umask := os.umask(0o077))  # reads the umask, which only setting it returns
        os.chmod(tmp, 0o666 & ~umask)  # as open() would make it: mkstemp's 0600 survives the rename
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines((text,) if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """CSV export with 17-significant-digit fields, streamed in ``%``-formatted blocks."""
    columns = _columns(traj)
    row = ",".join(["%.17g"] * len(_CSV_HEADER.split(","))) + "\n"
    blocks = (np.hstack([c[k : k + _BLOCK] for c in columns]) for k in range(0, len(traj), _BLOCK))
    chunks = ((row * len(b)) % tuple(b.ravel().tolist()) for b in blocks)
    atomic_write_text(path, itertools.chain([_CSV_HEADER + "\n"], chunks))


def write_trajectory_json(traj: Trajectory, path) -> None:
    """JSON export mirroring the CSV columns, plus run metadata, streamed one column at a time.

    The bytes equal ``json.dumps({"columns": {...}, "metadata": ...}) + "\\n"``; a NaN or inf raises.
    """
    flat = (c[:, j] for c in _columns(traj) for j in range(c.shape[1]))
    columns = (
        (", " if i else "") + f"{json.dumps(name)}: {json.dumps(col.tolist(), allow_nan=False)}"
        for i, (name, col) in enumerate(zip(_CSV_HEADER.split(","), flat))
    )
    tail = '}, "metadata": ' + json.dumps(traj.metadata, allow_nan=False) + "}\n"
    atomic_write_text(path, itertools.chain(['{"columns": {'], columns, [tail]))
