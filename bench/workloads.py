"""Inputs, set-up, operations and checks of the three benchmark workloads.

Each workload mirrors one ``blochpair`` subcommand.  Set-up loads the
input files written from the seed through the package's public
functions; one operation makes the subcommand's public calls in the
subcommand's order.  Calls go through module attributes
(``dynamics.integrate``) so that the traced run can wrap them from
outside.  Checks run after each operation, outside its timing; the
reference check runs the CLI itself once per run on the same files.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import blochpair
from blochpair import cli, coherence, dynamics, protection
from blochpair.quantum import SIGMA_MINUS

# ``blochpair.generator`` and ``blochpair.model`` are also the names of
# objects the package re-exports, so take the modules from the import system.
generator = importlib.import_module("blochpair.generator")
model_io = importlib.import_module("blochpair.model")

STEP = 1e-3
BOUND = 1.0
#: simulate-export: horizon of each of its two trajectories, and control samples
SIM_HORIZON = 5.0
SIM_SAMPLES = 101
FEEDBACK_GAIN = 2.0
#: purification-scan: the CLI defaults
SCAN_LAWS = 10
SCAN_HORIZONS = (10.0, 20.0, 40.0)
#: obstruction-sweep: analyze-w defaults, except a grid step that divides 1/2
W_G = 1.0
W_SAMPLES = 500
W_RANDOM = 10_000
W_GRID_STEP = 0.1
W_CASES = ("dispersive", "resonant", "sigma3-sigma1")
#: two-route generator agreement, as in the acceptance suite
AGREEMENT_TOL = 1e-11

#: the README example: resonant g = 0.4, amplitude damping 0.316 * SIGMA_MINUS
README_MODEL = {
    "omega_a": 1.0,
    "omega_b": 1.0,
    "lambda": [[0.4, 0.0, 0.0], [0.0, 0.4, 0.0], [0.0, 0.0, 0.0]],
    "jumps": [[[[0.0, 0.0], [0.0, 0.0]], [[0.632, 0.0], [0.0, 0.0]]]],
}

LAW_KIND = {"piecewise-constant": "piecewise", "sampled": "sampled", "state-feedback": "feedback"}


def _check(name: str, ok, detail="") -> tuple[str, bool, str]:
    return name, bool(ok), str(detail)


# -- inputs -----------------------------------------------------------------


def _ball_point(rng: np.random.Generator) -> list[float]:
    direction = rng.normal(size=3)
    return (rng.uniform(0.1, 0.45) * direction / np.linalg.norm(direction)).tolist()


def write_inputs(directory: str, seed: int, files: tuple[str, ...]) -> dict[str, str]:
    """Write the named input files generated from ``seed``; return their paths."""
    rng = np.random.default_rng([seed, 0])
    docs = {
        "model": lambda: README_MODEL,
        "control": lambda: {
            "times": np.linspace(0.0, SIM_HORIZON, SIM_SAMPLES).tolist(),
            "values": rng.uniform(-BOUND, BOUND, (SIM_SAMPLES, 3)).tolist(),
            "bound": BOUND,
        },
        "feedback": lambda: {
            "gain": rng.uniform(-FEEDBACK_GAIN, FEEDBACK_GAIN, (3, 3)).tolist(),
            "bound": BOUND,
        },
        "state": lambda: {"va": _ball_point(rng), "vb": _ball_point(rng)},
        "mixed-state": lambda: {"va": [0.0, 0.0, 0.0], "vb": [0.0, 0.0, 0.0]},
    }
    paths = {}
    for name in files:
        paths[name] = os.path.join(directory, f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(docs[name](), fh)
    return paths


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _load_state(path: str):
    doc = _load_json(path)
    return coherence.embed_factorized(np.array(doc["va"]), np.array(doc["vb"]))


def _feedback_law(path: str) -> dynamics.ControlLaw:
    doc = _load_json(path)
    gain = np.array(doc["gain"])
    bound = doc["bound"]

    def saturated(t, v):
        return np.clip(gain @ v[coherence.VA], -bound, bound)

    return dynamics.ControlLaw.feedback(saturated, bound=bound)


# -- run state and the trajectory tap ---------------------------------------


@dataclass
class TrajectoryRecord:
    kind: str
    max_defect: float
    c0_exact: bool
    states: np.ndarray | None


@dataclass
class Run:
    """One benchmark process: its inputs and what it recorded."""

    seed: int
    directory: str
    paths: dict = field(default_factory=dict)
    inputs: dict = field(default_factory=dict)
    setup_checks: list = field(default_factory=list)
    generator_builds: int = 0
    #: trajectories the current operation produced, filled by ``trajectory_tap``
    records: list = field(default_factory=list)
    keep_states: bool = False


@contextlib.contextmanager
def trajectory_tap(run: Run):
    """Record a summary of every trajectory ``dynamics.integrate`` returns.

    ``purification_scan`` keeps its trajectories to itself; the tap is how
    the checks see them.  It costs one pass over the ``c0`` column.
    """
    integrate = dynamics.integrate

    def tapped(model, v0, law, horizon, step, **kwargs):
        traj = integrate(model, v0, law, horizon, step, **kwargs)
        run.records.append(
            TrajectoryRecord(
                kind=LAW_KIND[law.kind],
                max_defect=traj.metadata["physicality"]["max_defect"],
                c0_exact=bool(np.all(traj.states[:, 0] == 0.5)),
                states=traj.states if run.keep_states else None,
            )
        )
        return traj

    dynamics.integrate = tapped
    try:
        yield
    finally:
        dynamics.integrate = integrate


def trajectory_checks(run: Run) -> list:
    """``max_defect <= WARN_TOL`` and ``c0 == 1/2`` on every recorded trajectory.

    With ``keep_states`` the defect is also measured again through
    ``coherence.physicality_defect`` and must equal the reported one;
    each kept state array is released after its check.
    """
    out = []
    for k, rec in enumerate(run.records):
        out.append(_check(f"traj{k}.{rec.kind}.max_defect<=WARN_TOL",
                          rec.max_defect <= dynamics.WARN_TOL, f"{rec.max_defect:.3e}"))
        out.append(_check(f"traj{k}.{rec.kind}.c0==1/2", rec.c0_exact))
        if rec.states is not None:
            again = float(np.max(coherence.physicality_defect(rec.states)))
            out.append(_check(f"traj{k}.{rec.kind}.defect_remeasured", again == rec.max_defect))
            rec.states = None
    return out


def _generator_routes(run: Run, model) -> None:
    """Two-route agreement: closed-form assembly and the bilinear split vs projection."""
    u = np.random.default_rng([run.seed, 1]).uniform(-BOUND, BOUND, 3)
    m0, mc = generator.control_generators(model)
    assembled = generator.assemble_generator(generator.assemble_blocks(model, u))
    numeric = generator.numeric_generator(model, u)
    run.generator_builds += 3
    worst = max(
        float(np.max(np.abs(assembled - numeric))),
        float(np.max(np.abs(m0 + np.einsum("j,jkl->kl", u, mc) - numeric))),
    )
    run.setup_checks.append(_check("generator.two_route_agreement", worst <= AGREEMENT_TOL, f"{worst:.2e}"))


def _cli(argv: list[str]) -> int:
    """Run ``blochpair.cli.main`` with its stdout and stderr kept off ours."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main([str(a) for a in argv])


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _roundtrip(doc):
    return json.loads(json.dumps(doc))


# -- simulate-export ----------------------------------------------------------


def _simulate_setup(run: Run) -> None:
    model = model_io.load_model(run.paths["model"])
    _generator_routes(run, model)
    control = _load_json(run.paths["control"])
    run.inputs.update(
        model=model,
        v0=_load_state(run.paths["state"]),
        sampled=dynamics.ControlLaw.sampled(control["times"], control["values"], bound=control["bound"]),
        feedback=_feedback_law(run.paths["feedback"]),
        csv=os.path.join(run.directory, "trajectory.csv"),
        json=os.path.join(run.directory, "trajectory.json"),
    )


def _simulate_op(run: Run) -> dict:
    i = run.inputs
    sampled = dynamics.integrate(i["model"], i["v0"], i["sampled"], SIM_HORIZON, STEP)
    sampled.metadata["seed"] = run.seed
    dynamics.write_trajectory_csv(sampled, i["csv"])
    feedback = dynamics.integrate(i["model"], i["v0"], i["feedback"], SIM_HORIZON, STEP)
    feedback.metadata["seed"] = run.seed
    dynamics.write_trajectory_json(feedback, i["json"])
    return {"feedback": feedback}


def _simulate_check(run: Run, out: dict, first: dict | None) -> list:
    checks = trajectory_checks(run)
    out["digests"] = {k: _digest(run.inputs[k]) for k in ("csv", "json")}
    if first is not None:
        for k, digest in out["digests"].items():
            checks.append(_check(f"{k}_same_as_first_op", digest == first["digests"][k]))
    return checks


def _simulate_reference(run: Run, out: dict) -> list:
    i = run.inputs
    state = _load_json(run.paths["state"])
    spec = "product:" + ":".join(",".join(repr(x) for x in state[k]) for k in ("va", "vb"))
    cli_csv = os.path.join(run.directory, "cli-trajectory.csv")
    code = _cli(["simulate", "--model", run.paths["model"], "--control", "sampled:" + run.paths["control"],
                 "--v0", spec, "--horizon", repr(SIM_HORIZON), "--step", repr(STEP),
                 "--seed", run.seed, "--format", "csv", "--out", cli_csv])
    same_csv = code == 0 and _digest(cli_csv) == _digest(i["csv"])

    traj = out["feedback"]
    with open(i["csv"], encoding="utf-8") as fh:
        names = fh.readline().strip().split(",")
    doc = _load_json(i["json"])
    expected = np.column_stack([traj.times, traj.controls, traj.states,
                                traj.purity_full, traj.purity_a, traj.purity_b])
    table = np.column_stack([np.asarray(doc["columns"][n]) for n in names])
    same_json = np.array_equal(table, expected) and doc["metadata"] == _roundtrip(traj.metadata)
    return [
        _check("cli.simulate_csv_byte_identical", same_csv, f"exit {code}"),
        _check("json_export_round_trip", same_json),
    ]


# -- obstruction-sweep ---------------------------------------------------------


def _sweep_setup(run: Run) -> None:
    model = protection.make_model(
        protection.Coupling("sigma3-sigma1", W_G), omega_a=0.7, omega_b=1.1, jumps=(SIGMA_MINUS,)
    )
    _generator_routes(run, model)
    run.inputs["sigma31"] = model


def _sweep_op(run: Run) -> dict:
    reports = {}
    for case in ("dispersive", "resonant"):
        reports[case] = {
            "transcription": protection.transcription_report(
                protection.Coupling(case, W_G), n_samples=W_SAMPLES, seed=run.seed
            )
        }
    reports["resonant"]["obstruction"] = protection.resonant_obstruction_report(
        W_G, grid_step=W_GRID_STEP, n_random=W_RANDOM, seed=run.seed, model=None
    )
    reports["sigma3-sigma1"] = {
        "axis1_escape": protection.axis1_escape_report(run.inputs["sigma31"], seed=run.seed)
    }
    return reports


def _sweep_check(run: Run, out: dict, first: dict | None) -> list:
    checks = [
        _check(f"{case}.transcription_residual<=limit",
               out[case]["transcription"]["max_residual"] <= cli.ORACLE_RESIDUAL_LIMIT,
               f"{out[case]['transcription']['max_residual']:.2e}")
        for case in ("dispersive", "resonant")
    ]
    obs = out["resonant"]["obstruction"]
    zero_norm = obs["min_va_norm_at_zero"]
    checks += [
        _check("obstruction.has_drift_zero_point", obs["n_drift_zero_points"] >= 1, obs["n_drift_zero_points"]),
        _check("obstruction.zeros_on_|vA|=1/2", zero_norm is not None and zero_norm >= 0.5 - 1e-6, zero_norm),
        _check("obstruction.min_drift_off_sphere>drift_tol",
               obs["min_drift_off_sphere"] > obs["drift_tol"], f"{obs['min_drift_off_sphere']:.3e}"),
    ]
    checks.append(_check("obstruction.swept_the_requested_grid",
                         (obs["grid_step"], obs["n_random"]) == (W_GRID_STEP, W_RANDOM)))
    escape = out["sigma3-sigma1"]["axis1_escape"]
    checks.append(_check("axis1.escape_rate==|omega_b|",
                         abs(escape["min_escape_rate"] - escape["expected_rate"]) <= 1e-9,
                         escape["min_escape_rate"]))
    if first is not None:
        checks.append(_check("reports_same_as_first_op", _roundtrip(out) == _roundtrip(first)))
    return checks


def _sweep_reference(run: Run, out: dict) -> list:
    checks = []
    for case in W_CASES:
        path = os.path.join(run.directory, f"cli-w-{case}.json")
        code = _cli(["analyze-w", "--case", case, "--grid-step", repr(W_GRID_STEP),
                     "--seed", run.seed, "--out", path])
        expected = {"version": blochpair.__version__, "case": case, "g": W_G, "seed": run.seed, **out[case]}
        same = code == 0 and _load_json(path) == _roundtrip(expected)
        checks.append(_check(f"cli.analyze-w.{case}_identical", same, f"exit {code}"))
    return checks


# -- purification-scan ----------------------------------------------------------


def _scan_setup(run: Run) -> None:
    model = model_io.load_model(run.paths["model"])
    _generator_routes(run, model)
    laws = [dynamics.ControlLaw.constant([0.0, 0.0, 0.0], bound=BOUND)]
    laws += dynamics.random_control_laws(
        np.random.default_rng(run.seed), SCAN_LAWS, BOUND, max(SCAN_HORIZONS)
    )
    v0 = _load_state(run.paths["mixed-state"])
    dynamics.require_interior(v0)
    run.inputs.update(model=model, laws=laws, v0=v0)


def _scan_op(run: Run) -> dict:
    i = run.inputs
    return dynamics.purification_scan(i["model"], i["v0"], i["laws"], SCAN_HORIZONS, STEP)


def _scan_check(run: Run, out: dict, first: dict | None) -> list:
    checks = trajectory_checks(run)
    entries = out["entries"]
    checks.append(_check("one_entry_per_law", len(entries) == SCAN_LAWS + 1, len(entries)))
    checks.append(_check("every_horizon_reported", all(
        [p["horizon"] for p in e["per_horizon"]] == list(SCAN_HORIZONS) for e in entries)))
    margins = [p["margin"] for e in entries for p in e["per_horizon"]]
    checks.append(_check("every_margin>0", min(margins) > 0.0, f"{min(margins):.3e}"))
    if first is not None:
        checks.append(_check("report_same_as_first_op", _roundtrip(out) == _roundtrip(first)))
    return checks


def _scan_reference(run: Run, out: dict) -> list:
    path = os.path.join(run.directory, "cli-scan.json")
    code = _cli(["purification-scan", "--model", run.paths["model"], "--seed", run.seed, "--out", path])
    expected = {**out, "seed": run.seed, "bound": BOUND, "model_hash": run.inputs["model"].hash_hex()}
    same = code == 0 and _load_json(path) == _roundtrip(expected)
    return [_check("cli.purification-scan_identical", same, f"exit {code}")]


# -- registry --------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    #: input files written from the seed
    files: tuple
    setup: Callable
    op: Callable
    check: Callable
    reference: Callable
    #: the name of ``work_per_s`` on this workload in the report lines, and the exact
    #: work units per operation, worked out from the workload's inputs
    throughput: str
    units_per_op: int
    #: sizes recorded with every result
    sizes: dict


def rk4_steps(horizon: float) -> int:
    """RK4 steps of one trajectory from 0 to ``horizon`` at step ``STEP``."""
    return int(round(horizon / STEP))


def sweep_states(grid_step: float, n_random: int) -> int:
    """Factorized states an obstruction sweep with these inputs evaluates.

    The ``vA`` grid is the cube grid of step ``grid_step`` on
    ``[-1/2, 1/2]^3`` clipped to the ball ``|vA| <= 1/2``; the ``vB`` grid
    is the angular grid ``theta in [0, pi]``, ``phi in [0, 2 pi)`` of the
    same step on the sphere; every pair of the two is swept, and then
    ``n_random`` random pairs.  ``grid_step`` must divide 1/2.
    """
    n = int(round(0.5 / grid_step))
    if abs(n * grid_step - 0.5) > 1e-12:
        raise ValueError(f"grid step {grid_step} does not divide 1/2")
    k = np.arange(-n, n + 1)
    n_va = int(np.count_nonzero(k[:, None, None] ** 2 + k[None, :, None] ** 2 + k[None, None, :] ** 2 <= n * n))
    n_theta = int(np.ceil(np.pi / grid_step + 0.5))
    n_phi = int(np.ceil(2.0 * np.pi / grid_step))
    return n_va * n_theta * n_phi + int(n_random)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="simulate-export",
            files=("model", "control", "feedback", "state"),
            setup=_simulate_setup,
            op=_simulate_op,
            check=_simulate_check,
            reference=_simulate_reference,
            throughput="sim_steps_per_s",
            units_per_op=2 * rk4_steps(SIM_HORIZON),
            sizes={"horizon": SIM_HORIZON, "step": STEP, "control_samples": SIM_SAMPLES,
                   "bound": BOUND, "trajectories": ["sampled->csv", "feedback->json"]},
        ),
        Workload(
            name="obstruction-sweep",
            files=(),
            setup=_sweep_setup,
            op=_sweep_op,
            check=_sweep_check,
            reference=_sweep_reference,
            throughput="sweep_states_per_s",
            units_per_op=sweep_states(W_GRID_STEP, W_RANDOM),
            sizes={"cases": list(W_CASES), "g": W_G, "samples": W_SAMPLES,
                   "grid_step": W_GRID_STEP, "random_samples": W_RANDOM},
        ),
        Workload(
            name="purification-scan",
            files=("model", "mixed-state"),
            setup=_scan_setup,
            op=_scan_op,
            check=_scan_check,
            reference=_scan_reference,
            throughput="scan_law_steps_per_s",
            units_per_op=(1 + SCAN_LAWS) * rk4_steps(max(SCAN_HORIZONS)),
            sizes={"laws": 1 + SCAN_LAWS, "bound": BOUND, "horizons": list(SCAN_HORIZONS), "step": STEP},
        ),
    )
}


def setup(workload: Workload, seed: int, directory: str) -> Run:
    """Input generation and everything before the first timed operation."""
    run = Run(seed=seed, directory=directory)
    run.paths = write_inputs(directory, seed, workload.files)
    workload.setup(run)
    return run


# -- spans ----------------------------------------------------------------------


def _states(args, kwargs, result):
    arr = args[0]
    return {"states": arr.shape[0] if getattr(arr, "ndim", 1) == 2 else 1}


def _rows_bytes(args, kwargs, result):
    return {"rows": len(args[0]), "bytes": os.path.getsize(args[1])}


def span_targets() -> list:
    """Every public call the traced run wraps: ``(module, attr, span name, units)``.

    The dynamics-namespace entries for ``control_generators`` and
    ``physicality_defect`` are the calls ``integrate`` makes; the
    protection-namespace ``generator`` and ``drift_batch`` are the calls
    the reports make.
    """
    return [
        (dynamics, "integrate",
         lambda a, kw: "dynamics.integrate." + LAW_KIND[(a[2] if len(a) > 2 else kw["law"]).kind],
         lambda a, kw, r: {"steps": len(r) - 1}),
        (dynamics, "write_trajectory_csv", "dynamics.write_trajectory_csv", _rows_bytes),
        (dynamics, "write_trajectory_json", "dynamics.write_trajectory_json", _rows_bytes),
        (dynamics, "purification_scan", "dynamics.purification_scan", None),
        (dynamics, "random_control_laws", "dynamics.random_control_laws", None),
        (dynamics, "require_interior", "dynamics.require_interior", None),
        (dynamics, "control_generators", "generator.control_generators", None),
        (dynamics, "physicality_defect", "coherence.physicality_defect", _states),
        (coherence, "physicality_defect", "coherence.physicality_defect", _states),
        (generator, "control_generators", "generator.control_generators", None),
        (generator, "assemble_generator", "generator.assemble_generator", None),
        (generator, "numeric_generator", "generator.numeric_generator", None),
        (model_io, "load_model", "model.load_model", None),
        (protection, "transcription_report", "protection.transcription_report", None),
        (protection, "resonant_obstruction_report", "protection.resonant_obstruction_report",
         lambda a, kw, r: {"states": sweep_states(r["grid_step"], r["n_random"])}),
        (protection, "axis1_escape_report", "protection.axis1_escape_report", None),
        (protection, "generator", "generator.generator", None),
        (protection, "drift_batch", "protection.drift_batch", lambda a, kw, r: {"states": r.shape[0]}),
    ]


# -- probes: layers a workload does not call ----------------------------------------

PROBE_HORIZON = 2.0
PROBE_GRID_STEP = 0.25
PROBE_RANDOM = 1_000


class ProbeKit:
    """Small inputs from the same seed, for measuring a layer the workload skips."""

    def __init__(self, seed: int, directory: str):
        os.makedirs(directory, exist_ok=True)
        self.seed = seed
        self.directory = directory
        self.paths = write_inputs(directory, seed, ("model", "control", "feedback", "state"))
        self.model = model_io.load_model(self.paths["model"])
        self.v0 = _load_state(self.paths["state"])
        control = _load_json(self.paths["control"])
        self.laws = {
            "sampled": dynamics.ControlLaw.sampled(control["times"], control["values"], bound=control["bound"]),
            "feedback": _feedback_law(self.paths["feedback"]),
            "piecewise": dynamics.random_control_laws(np.random.default_rng(seed), 1, BOUND, PROBE_HORIZON)[0],
        }
        self.traj = dynamics.integrate(self.model, self.v0, self.laws["sampled"], PROBE_HORIZON, STEP)

    def calls(self) -> dict[str, Callable[[], object]]:
        """Span name -> one call into that layer."""
        out = os.path.join(self.directory, "probe")
        integrate = {
            f"dynamics.integrate.{kind}": (
                lambda law=law: dynamics.integrate(self.model, self.v0, law, PROBE_HORIZON, STEP)
            )
            for kind, law in self.laws.items()
        }
        return {
            **integrate,
            "dynamics.write_trajectory_csv": lambda: dynamics.write_trajectory_csv(self.traj, out + ".csv"),
            "dynamics.write_trajectory_json": lambda: dynamics.write_trajectory_json(self.traj, out + ".json"),
            "coherence.physicality_defect": lambda: coherence.physicality_defect(self.traj.states),
            "protection.resonant_obstruction_report": lambda: protection.resonant_obstruction_report(
                W_G, grid_step=PROBE_GRID_STEP, n_random=PROBE_RANDOM, seed=self.seed),
            "protection.transcription_report": lambda: protection.transcription_report(
                protection.Coupling("resonant", W_G), n_samples=W_SAMPLES, seed=self.seed),
            "protection.axis1_escape_report": lambda: protection.axis1_escape_report(
                protection.make_model(protection.Coupling("sigma3-sigma1", W_G), omega_a=0.7, omega_b=1.1,
                                      jumps=(SIGMA_MINUS,)), seed=self.seed),
            "generator.control_generators": lambda: generator.control_generators(self.model),
            "generator.numeric_generator": lambda: generator.numeric_generator(self.model, np.zeros(3)),
            "model.load_model": lambda: model_io.load_model(self.paths["model"]),
            "dynamics.random_control_laws": lambda: dynamics.random_control_laws(
                np.random.default_rng(self.seed), SCAN_LAWS, BOUND, max(SCAN_HORIZONS)),
            "dynamics.require_interior": lambda: dynamics.require_interior(self.v0),
        }


# -- computed costs ------------------------------------------------------------------

_F = 8  # bytes per float64
_MAT = 16 * 16 * _F
_VEC = 16 * _F
#: M(u) = M0 + sum_j u_j Mc[j]: 3*256 multiplies and 3*256 adds; reads M0 and Mc,
#: writes the einsum result and the sum, reads the einsum result once more
_FORM_FLOPS = 6 * 256
_FORM_BYTES = 4 * _MAT + 2 * _MAT + _MAT
_MATVEC_FLOPS = 2 * 256
_MATVEC_BYTES = _MAT + 2 * _VEC
#: three stage inputs (scale and add) and the final weighted sum
_STAGE_FLOPS = 3 * 32 + 112
_STAGE_BYTES = 20 * _VEC


def computed_costs() -> dict:
    """Flops and bytes per unit, computed from the array operations the code makes.

    Bytes count every array an operation reads or writes once, from its
    size; cache reuse is ignored.  These are not measurements.
    """
    return {
        "label": "computed",
        "integrate.piecewise.per_step": {"flops": _MATVEC_FLOPS, "bytes": _MATVEC_BYTES},
        "integrate.sampled.per_step": {
            "flops": 3 * _FORM_FLOPS + 4 * _MATVEC_FLOPS + _STAGE_FLOPS,
            "bytes": 3 * _FORM_BYTES + 4 * _MATVEC_BYTES + _STAGE_BYTES,
        },
        "integrate.feedback.per_step": {
            # one generator per stage, plus the 3x3 gain and clip in the callback
            "flops": 4 * _FORM_FLOPS + 4 * _MATVEC_FLOPS + _STAGE_FLOPS + 4 * 24,
            "bytes": 4 * _FORM_BYTES + 4 * _MATVEC_BYTES + _STAGE_BYTES,
        },
        "drift.per_state": {
            # state build 18, rates 512, two outer products and their sum 27,
            # scale and subtract 18, drift and |vA| norms 24
            "flops": 18 + 512 + 27 + 18 + 24,
            # vA, vB, state, rates, two outer products, their sum, its scaling,
            # the drift: each written once and read once
            "bytes": 2 * _F * (3 + 3 + 16 + 16 + 9 + 9 + 9 + 9 + 9),
        },
    }
