"""Command-line front end.

Subcommands
-----------
simulate
    Integrate a model under a control law and write the trajectory as
    CSV or JSON.
analyze-w
    Check the closed-form factorization drift against the generator
    route and, for the resonant coupling, run the obstruction sweep.
purification-scan
    Evidence harness: report how close the reduced purity of qubit B
    gets to one under seeded random bounded control laws.

Exit codes: 0 success, 2 configuration error, 3 numerical-invariant
failure.  Errors are reported as one-line JSON documents on stderr.
A missing, unreadable or malformed model or control file and an output
path in a missing directory are configuration errors naming the path.
Each command writes one file, to ``--out`` or else under ``$BLOCHPAIR_OUT``
(``.`` when unset), then prints a one-line JSON summary led by ``"out"``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import sys

import numpy as np

from . import __version__
from .coherence import embed_factorized
from .dynamics import (
    ControlLaw,
    PhysicalityError,
    atomic_write_text,
    integrate,
    purification_scan,
    random_control_laws,
    write_trajectory_csv,
    write_trajectory_json,
)
from .model import TwoQubitModel, load_model
from .protection import (
    COUPLING_TAGS,
    Coupling,
    IncompatibleDissipationError,
    axis1_escape_report,
    make_model,
    protecting_law,
    require_coupling,
    resonant_obstruction_report,
    transcription_report,
)
from .quantum import SIGMA_MINUS

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

ORACLE_RESIDUAL_LIMIT = 1e-10
#: what reading a malformed JSON model or control document can raise
_MALFORMED = (LookupError, OverflowError, TypeError, ValueError)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):  # no option looks like a number: "-1e-3", "-0.5,2" are values
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):  # keep usage failures on exit code 2 with JSON
        raise ValueError(message)


def _emit_error(code: int, message: str, detail: dict | None = None) -> int:
    doc = {"error": {"code": code, "message": message}}
    if detail:
        doc["error"]["detail"] = detail
    print(json.dumps(doc), file=sys.stderr)
    return code


def _write_out(args, name: str, write, **summary) -> int:
    """Write with ``write(path)`` to ``--out`` or ``name`` under ``$BLOCHPAIR_OUT``, then print the summary."""
    out = args.out or os.path.join(os.environ.get("BLOCHPAIR_OUT", "."), name)
    write(out)
    print(json.dumps({"out": out, **summary}))
    return EXIT_OK


def _parse_triple(text: str, flag: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"{flag} expects three comma-separated numbers, got {text!r}")
    try:
        triple = np.array([float(p) for p in parts])
    except ValueError as exc:
        raise ValueError(f"could not parse {flag}={text!r}: {exc}") from exc
    if not np.all(np.isfinite(triple)):
        raise ValueError(f"{flag} expects three finite numbers, got {text!r}")
    return triple


def _load_model_arg(path: str) -> TwoQubitModel:
    try:
        return load_model(path)
    except _MALFORMED as exc:
        raise ValueError(f"invalid model file {path}: {exc}") from exc


def _initial_state(spec: str) -> np.ndarray:
    if spec == "mixed":
        return embed_factorized(np.zeros(3), np.zeros(3))
    if spec.startswith("product:"):
        try:
            va_text, vb_text = spec[len("product:") :].split(":")
        except ValueError as exc:
            raise ValueError("--v0 product form is product:ax,ay,az:bx,by,bz") from exc
        va = _parse_triple(va_text, "--v0")
        vb = _parse_triple(vb_text, "--v0")
        return embed_factorized(va, vb)
    raise ValueError(f"unknown --v0 specification {spec!r}")


def _build_law(args, model: TwoQubitModel) -> tuple[ControlLaw, np.ndarray]:
    """Returns the law and its start state: the protected pole for the protecting law, else mixed."""
    spec = args.control
    mixed = _initial_state("mixed")
    if spec.startswith("constant:"):
        return ControlLaw.constant(_parse_triple(spec[len("constant:") :], "--control")), mixed
    if spec.startswith("piecewise:") or spec.startswith("sampled:"):
        kind, path = spec.split(":", 1)
        ctor = ControlLaw.piecewise_constant if kind == "piecewise" else ControlLaw.sampled
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            return ctor(doc["times"], doc["values"], bound=doc.get("bound")), mixed
        except _MALFORMED as exc:
            raise ValueError(f"invalid control file {path}: {exc}") from exc
    if spec == "feedback:protect-sigma31":
        require_coupling(model, Coupling("sigma3-sigma1", model.lam[2, 0]))
        for target in (0.5, -0.5):
            try:  # protecting_law decides whether the dissipation can hold this pole
                return protecting_law(model, target), embed_factorized([0.0, 0.0, target], [0.0, 0.0, 0.5])
            except IncompatibleDissipationError:
                continue
        raise ValueError(
            "protect-sigma31 requires dissipation compatible with vA3 = +1/2 or -1/2 "
            "(v0_3/2 + vA3*d33 = 0)"
        )
    raise ValueError(f"unknown --control specification {spec!r}")


def _cmd_simulate(args) -> int:
    model = _load_model_arg(args.model)
    law, v0 = _build_law(args, model)
    if args.v0 is not None:
        v0 = _initial_state(args.v0)
    traj = integrate(model, v0, law, args.horizon, args.step)
    traj.metadata["seed"] = args.seed
    write = write_trajectory_csv if args.format == "csv" else write_trajectory_json
    return _write_out(
        args, f"trajectory.{args.format}", lambda out: write(traj, out),
        format=args.format,
        steps=len(traj) - 1,
        final_purity_full=float(traj.purity_full[-1]),
        final_purity_A=float(traj.purity_a[-1]),
        final_purity_B=float(traj.purity_b[-1]),
        min_purity_B=float(traj.purity_b.min()),
        max_purity_B=float(traj.purity_b.max()),
        model_hash=traj.metadata["model_hash"],
    )


def _cmd_analyze_w(args) -> int:
    coupling = Coupling(args.case, args.g)
    model = None
    if args.model:  # the file supplies the model; --case and --g replace its coupling
        model = dataclasses.replace(_load_model_arg(args.model), lam=coupling.lambda_matrix())
    report: dict = {
        "version": __version__,
        "case": args.case,
        "g": args.g,
        "seed": args.seed,
    }
    worst = 0.0
    if args.case in ("dispersive", "resonant"):
        osc = transcription_report(coupling, n_samples=args.samples, seed=args.seed, model=model)
        report["transcription"] = osc
        worst = osc["max_residual"]
    if args.case == "resonant":
        report["obstruction"] = resonant_obstruction_report(
            args.g,
            grid_step=args.grid_step,
            n_random=args.random_samples,
            seed=args.seed,
            model=model,
        )
    if args.case == "sigma3-sigma1":
        if model is None:
            model = make_model(coupling, omega_a=0.7, omega_b=1.1, jumps=(SIGMA_MINUS,))
        report["axis1_escape"] = axis1_escape_report(model, seed=args.seed)
    if not worst <= ORACLE_RESIDUAL_LIMIT:  # NaN fails too; no report is written
        raise AssertionError(f"transcription residual {worst:.3e} is not within {ORACLE_RESIDUAL_LIMIT:.1e}")
    text = json.dumps(report, indent=2) + "\n"
    return _write_out(args, "w_report.json", lambda out: atomic_write_text(out, text), max_residual=worst)


def _cmd_purification_scan(args) -> int:
    model = _load_model_arg(args.model)
    horizons = [float(h) for h in args.horizons.split(",")]
    rng = np.random.default_rng(args.seed)
    laws = [ControlLaw.constant([0.0, 0.0, 0.0], bound=args.bound)]
    laws += random_control_laws(rng, args.laws, args.bound, max(horizons))
    v0 = _initial_state(args.v0 or "mixed")
    report = purification_scan(model, v0, laws, horizons, args.step)
    report["seed"] = args.seed
    report["bound"] = args.bound
    report["model_hash"] = model.hash_hex()
    text = json.dumps(report, indent=2) + "\n"
    return _write_out(args, "purification_scan.json", lambda out: atomic_write_text(out, text),
                      min_margin=report["min_margin"])


def _build_parser() -> _Parser:
    parser = _Parser(prog="blochpair", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="integrate a model and export the trajectory")
    sim.add_argument("--model", required=True, help="model JSON file")
    sim.add_argument("--horizon", type=float, default=20.0)
    sim.add_argument("--step", type=float, default=1e-3)
    sim.add_argument("--control", default="constant:0,0,0", help="constant:a,b,c | piecewise:FILE | sampled:FILE | "
                     "feedback:protect-sigma31 (the constant protecting control (u1, u2, 0), not state feedback)")
    sim.add_argument("--v0", default=None, help="mixed | product:ax,ay,az:bx,by,bz")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", default=None)
    sim.add_argument("--format", choices=("csv", "json"), default="csv")
    sim.set_defaults(func=_cmd_simulate)

    ana = sub.add_parser("analyze-w", help="drift transcription oracle and obstruction sweep")
    ana.add_argument("--case", required=True, choices=COUPLING_TAGS)
    ana.add_argument("--g", type=float, default=1.0)
    ana.add_argument("--model", default=None, help="optional model JSON; --case and --g replace its coupling")
    ana.add_argument("--samples", type=int, default=500)
    ana.add_argument("--grid-step", type=float, default=0.05)
    ana.add_argument("--random-samples", type=int, default=10_000)
    ana.add_argument("--seed", type=int, default=0)
    ana.add_argument("--out", default=None)
    ana.set_defaults(func=_cmd_analyze_w)

    scan = sub.add_parser("purification-scan", help="reduced-purity margins under random laws")
    scan.add_argument("--model", required=True)
    scan.add_argument("--laws", type=int, default=10, help="number of random laws (plus u = 0)")
    scan.add_argument("--bound", type=float, default=1.0)
    scan.add_argument("--horizons", default="10,20,40")
    scan.add_argument("--step", type=float, default=1e-3)
    scan.add_argument("--seed", type=int, default=0)
    scan.add_argument("--v0", default=None)
    scan.add_argument("--out", default=None)
    scan.set_defaults(func=_cmd_purification_scan)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    detail = None  # of a numerical failure
    try:
        args = parser.parse_args(argv)
        if args.command == "analyze-w" and args.model:  # its model takes --case's coupling, so not the file's hash
            detail = {"model_file": args.model}
        with np.errstate(all="ignore"):  # a non-finite result meets a NaN-safe gate, not a warning
            return args.func(args)
    except np.linalg.LinAlgError as exc:  # a ValueError subclass, but a numerical failure
        return _emit_error(EXIT_NUMERICAL, str(exc), detail)
    except (ValueError, OSError, MemoryError) as exc:  # bad input, an unreadable or unwritable file, an oversized array
        return _emit_error(EXIT_CONFIG, str(exc))
    except PhysicalityError as exc:
        defect = exc.defect if np.isfinite(exc.defect) else None  # NaN is not JSON
        return _emit_error(EXIT_NUMERICAL, str(exc), {"t": exc.t, "defect": defect})
    except AssertionError as exc:  # a failed oracle gate or structural certificate, e.g. on an overflowing model
        return _emit_error(EXIT_NUMERICAL, str(exc), detail)


if __name__ == "__main__":
    sys.exit(main())
