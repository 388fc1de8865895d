"""Benchmark of blochpair: one workload per run, a closed loop in one process.

Run from the repository root:

    python3 bench/run.py --workload simulate-export --seed 1 --seconds 35 --trace 0

One client runs the workload's operation back to back for ``--seconds``
after one untimed warm-up operation, and every operation's outputs are
checked.  The report lines come first; the last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  ``wall_s`` is corrected for the
host's speed by a reference kernel timed around each operation.  The
traced run alternates untraced and traced operations, so each traced
operation can be set beside the untraced one before it.  A results file
with the environment, counts, checks and (traced) spans goes to
``.bench_out/``.

The package is imported from ``src/`` beside this directory and never
from an installed copy; without it the benchmark exits with code 2 and
prints no result.  BLAS is pinned to one thread before numpy loads.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORKLOAD_NAMES = ("simulate-export", "obstruction-sweep", "purification-scan")
#: fewest timed operations per run (per mode, in the traced run)
MIN_OPS = 3
#: fresh-interpreter set-ups per run, spread over the timed loop; setup_s is their median
SETUP_SAMPLES = 7
#: a layer with fewer spans than this after the traced loop is probed
PROBE_CALLS = 3
#: nominal time of the reference kernel, in seconds: its time on the 2-vCPU
#: host the benchmark was sized on, in that host's fast state
REF_NOMINAL_S = 0.015


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=35.0,
                        help="length of the timed loop; BENCHMARK.json's run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time import and set-up in this interpreter, print seconds and exit")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


# -- environment --------------------------------------------------------------


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    import hashlib

    digest = hashlib.sha256()
    for path in sorted((SRC / "blochpair").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _environment(args, workload) -> dict:
    import numpy

    task_dir = Path("/proc/self/task")
    return {
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_pin": BLAS_PIN,
        "threads_in_process": len(os.listdir(task_dir)) if task_dir.is_dir() else None,
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": workload.sizes,
        "loop": "closed, 1 client, 1 process",
    }


# -- set-up ---------------------------------------------------------------------


def _setup_only(args) -> int:
    t0 = time.perf_counter()
    import workloads

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="setup-") as tmp:
        workloads.setup(workloads.WORKLOADS[args.workload], args.seed, tmp)
        elapsed = time.perf_counter() - t0
    print(repr(elapsed))
    return 0


def _setup_sample(args) -> float:
    """Import plus set-up in a fresh interpreter, as a user pays it."""
    done = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


# -- the measured loop ------------------------------------------------------------


def _reference_kernel() -> float:
    """Seconds for a fixed loop of 16x16 matrix-vector products.

    It is the kind of work the integrator does and never calls blochpair,
    so its time follows the host's speed and no change to the program
    moves it.  ``wall_s`` divides each operation's time by it.
    """
    import numpy as np  # not at the top: the BLAS pin must be set first

    a = np.random.default_rng(0).random((16, 16))
    x = np.ones(16)
    t0 = time.perf_counter()
    for _ in range(6000):
        x = a @ x
        x = x * (1.0 / np.sqrt(x @ x))
    return time.perf_counter() - t0


@dataclass
class LoopResult:
    #: wall seconds of the good operations, untraced (False) and traced (True)
    walls: dict
    #: each good untraced operation's wall over the mean of the reference kernel before and after it
    ratios: list
    #: traced wall minus the wall of the untraced operation just before it
    paired: list
    setup_samples: list
    attempted: int
    failed_checks: list
    last: object


def _operate(run, workload, tracer, targets, first, keep_states=False):
    """One operation and its checks; returns ``(out, wall seconds or None, checks)``.

    With ``keep_states`` the trajectory tap keeps every state array until
    the checks have measured its defect again; only traced operations of
    the loop do, so peak memory in an untraced run is the program's own.
    """
    run.records.clear()
    run.keep_states = keep_states
    patched = tracer.patched(targets) if tracer else contextlib.nullcontext()
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    try:
        with patched:
            t0 = time.perf_counter()
            with span("bench.op"):
                out = workload.op(run)
            wall = time.perf_counter() - t0
            with span("bench.check"):
                checks = workload.check(run, out, first)
    except Exception as exc:  # one failed operation must not end the run
        traceback.print_exc(file=sys.stderr)
        return None, None, [("operation_raised", False, repr(exc))]
    return out, wall, checks


def _loop(args, run, workload, tracer, targets, first):
    """Closed loop for ``--seconds``; alternates untraced and traced ops when tracing.

    Between operations, at even intervals of the run, it takes the
    ``SETUP_SAMPLES`` set-up samples, so that they see the same host as
    the operations.  Besides the walls per mode and the set-up samples
    it returns, for each traced operation that follows a good untraced
    one, the difference of their walls.  The reference kernel runs
    before the first operation and after each one.
    """
    walls = {False: [], True: []}
    ratios = []
    paired = []
    previous = None
    _reference_kernel()
    ref_before = _reference_kernel()
    attempts = {False: 0, True: 0}
    failed_checks = []
    last = first
    start = time.perf_counter()
    deadline = start + args.seconds
    setup_due = [start + args.seconds * k / SETUP_SAMPLES for k in range(SETUP_SAMPLES)]
    setup_samples = []
    i = 0
    while True:
        traced = bool(args.trace) and i % 2 == 1
        out, wall, checks = _operate(run, workload, tracer if traced else None, targets, first, keep_states=traced)
        attempts[traced] += 1
        ref_after = _reference_kernel()
        bad = [c for c in checks if not c[1]]
        if bad:
            failed_checks.append(bad)
        if wall is not None:
            walls[traced].append(wall)
            last = out
            if traced and previous is not None:
                paired.append(wall - previous)
            if not traced:
                ratios.append(wall / (0.5 * (ref_before + ref_after)))
        previous = None if traced else wall
        ref_before = ref_after
        i += 1
        if setup_due and time.perf_counter() >= setup_due[0]:
            setup_samples.append(_setup_sample(args))
            setup_due.pop(0)
        modes = (False, True) if args.trace else (False,)
        if time.perf_counter() >= deadline and all(attempts[m] >= MIN_OPS for m in modes):
            setup_samples.extend(_setup_sample(args) for _ in setup_due)
            return LoopResult(walls, ratios, paired, setup_samples, sum(attempts.values()), failed_checks, last)


# -- per-layer metrics ---------------------------------------------------------------


def _direct(tracer, name):
    """Spans of ``name``; for physicality only the calls benchmark code makes."""
    spans = tracer.named(name)
    if name == "coherence.physicality_defect":
        spans = [s for s in spans if (tracer.parent_name(s) or "").startswith("bench.")]
    return spans


def _probe(tracer, targets, kit) -> list[str]:
    probed = []
    for name, call in kit.calls().items():
        while len(_direct(tracer, name)) < PROBE_CALLS:
            with tracer.patched(targets), tracer.span("bench.probe"):
                call()
            probed.append(name)
    return sorted(set(probed))


def _layer_metrics(tracer, n_traced, span_cost) -> dict:
    def dur(spans):
        return sum(s["end"] - s["start"] for s in spans)

    def total(spans, key):
        return sum(s["units"][key] for s in spans)

    def median_s(name):
        return statistics.median(s["end"] - s["start"] for s in _direct(tracer, name))

    m = {}
    for kind in ("sampled", "feedback", "piecewise"):
        spans = tracer.named(f"dynamics.integrate.{kind}")
        m[f"dynamics.integrate.{kind}.us_per_step"] = (1e6 * dur(spans) / total(spans, "steps"), "us")
    for fmt in ("csv", "json"):
        name = f"dynamics.write_trajectory_{fmt}"
        spans = tracer.named(name)
        m[f"{name}.rows_per_s"] = (total(spans, "rows") / dur(spans), "1/s")
        m[f"{name}.bytes"] = (statistics.median(s["units"]["bytes"] for s in spans), "bytes")
    spans = _direct(tracer, "coherence.physicality_defect")
    m["coherence.physicality_defect.states_per_s"] = (total(spans, "states") / dur(spans), "1/s")
    spans = tracer.named("protection.resonant_obstruction_report")
    m["protection.resonant_obstruction_report.states_per_s"] = (total(spans, "states") / dur(spans), "1/s")
    m["protection.transcription_report.s"] = (median_s("protection.transcription_report"), "s")
    m["protection.axis1_escape_report.s"] = (median_s("protection.axis1_escape_report"), "s")
    m["generator.control_generators.us"] = (1e6 * median_s("generator.control_generators"), "us")
    m["generator.numeric_generator.us"] = (1e6 * median_s("generator.numeric_generator"), "us")
    m["model.load_model.s"] = (median_s("model.load_model"), "s")
    m["dynamics.random_control_laws.s"] = (median_s("dynamics.random_control_laws"), "s")
    m["dynamics.require_interior.s"] = (median_s("dynamics.require_interior"), "s")
    in_ops = sum(1 for s in tracer.spans if s["name"] == "bench.op" or tracer.under(s, "bench.op"))
    m["trace.overhead_s"] = (in_ops / n_traced * span_cost, "s")
    m["trace.uncovered_frac"] = (tracer.uncovered_fraction("bench.op"), "fraction")
    return m


# -- main ---------------------------------------------------------------------------


def _counts(tracer, run) -> dict:
    """Exact counts per operation, from the spans of the warm-up operation."""
    counts = {"generator_builds_in_benchmark_setup": run.generator_builds}
    for s in tracer.spans:
        if not tracer.under(s, "bench.op"):
            continue
        key = s["name"]
        counts[f"{key}.calls"] = counts.get(f"{key}.calls", 0) + 1
        for unit, value in s["units"].items():
            counts[f"{key}.{unit}"] = counts.get(f"{key}.{unit}", 0) + value
    return dict(sorted(counts.items()))


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "blochpair" / "__init__.py").is_file():
        return _fail(f"no package source at {SRC / 'blochpair'}; run from a checkout of the repository")
    os.environ.update(BLAS_PIN)
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        return _setup_only(args)

    t0 = time.perf_counter()
    import blochpair
    import workloads
    from tracing import Tracer

    if Path(blochpair.__file__).resolve().parent != (SRC / "blochpair").resolve():
        return _fail(f"imported blochpair from {blochpair.__file__}, not from {SRC}")
    workload = workloads.WORKLOADS[args.workload]
    targets = workloads.span_targets()
    tracer = Tracer() if args.trace else None
    OUT.mkdir(exist_ok=True)

    with tempfile.TemporaryDirectory(dir=OUT, prefix="run-") as tmp:
        if tracer:
            with tracer.patched(targets), tracer.span("bench.setup"):
                run = workloads.setup(workload, args.seed, tmp)
        else:
            run = workloads.setup(workload, args.seed, tmp)
        main_setup_s = time.perf_counter() - t0

        with workloads.trajectory_tap(run):
            warm = Tracer()
            first, _, warm_checks = _operate(run, workload, warm, targets, None, keep_states=False)
            if first is None:
                print(f"check {warm_checks[0][0]} FAIL {warm_checks[0][2]}")
                return 1
            counts = {**_counts(warm, run), "work_units_per_op": workload.units_per_op}
            units_per_op = workload.units_per_op
            loop = _loop(args, run, workload, tracer, targets, first)
            try:
                reference = workload.reference(run, loop.last)
            except Exception as exc:  # reported as a failed check, like an operation
                traceback.print_exc(file=sys.stderr)
                reference = [("reference_raised", False, repr(exc))]
            probed = []
            if tracer:
                kit = workloads.ProbeKit(args.seed, os.path.join(tmp, "probe"))
                probed = _probe(tracer, targets, kit)
        env = _environment(args, workload)

    walls = loop.walls
    if not walls[False] or (tracer and not walls[True]):
        print("bench: every timed operation failed", file=sys.stderr)
        return 1

    # attempted: the warm-up, every timed operation, and the run-level checks
    run_checks = run.setup_checks + reference
    attempted = loop.attempted + 1 + len(run_checks)
    failed = len(loop.failed_checks) + (not all(c[1] for c in warm_checks)) + sum(not c[1] for c in run_checks)

    lines = [f"bench blochpair workload={workload.name} seed={args.seed} trace={args.trace} seconds={args.seconds:g}",
             "env " + json.dumps(env), "counts " + json.dumps(counts),
             "computed " + json.dumps(workloads.computed_costs())]
    for name, ok, detail in warm_checks + run_checks:
        lines.append(f"check {name} {'ok' if ok else 'FAIL'} {detail}".rstrip())
    for bad in loop.failed_checks:
        lines.extend(f"check {name} FAIL {detail}".rstrip() for name, ok, detail in bad)

    # The host's speed changes by up to 1.7x for seconds to minutes at a
    # time, often for a whole run; the reference kernel slows with it.
    timed = walls[False]
    wall_s = statistics.median(loop.ratios) * REF_NOMINAL_S
    e2e = {
        "setup_s": (statistics.median(loop.setup_samples), "s"),
        "wall_s": (wall_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "work_per_s": (units_per_op / wall_s, "1/s"),
    }
    lines.append(f"ops timed={len(walls[False])} traced={len(walls[True])} "
                 f"main_setup_s={main_setup_s!r} setup_samples={loop.setup_samples}")
    lines.append(f"metric ops_failed_frac {failed / attempted!r} fraction")
    # as measured: the median, and the highest percentile with at least ten operations above it
    spread = f"min={min(timed)!r} s"
    if len(timed) >= 20:
        high = int(100 * (1 - 10 / len(timed)))
        spread += f", p{high}={statistics.quantiles(timed, n=100)[high - 1]!r} s"
    lines.append(f"metric measured_wall_median_s {statistics.median(timed)!r} s (of {len(timed)} ops; {spread})")
    lines.append(f"metric wall_over_reference {statistics.median(loop.ratios)!r} (median; "
                 f"wall_s = this x {REF_NOMINAL_S} s)")
    for name in ("sim_steps_per_s", "sweep_states_per_s", "scan_law_steps_per_s"):
        if name == workload.throughput:
            lines.append(f"metric {name} {units_per_op / wall_s!r} 1/s (= work_per_s, {units_per_op} per op)")
        else:
            lines.append(f"metric {name} n/a 1/s (not a unit of this workload)")
    for name, (value, unit) in e2e.items():
        lines.append(f"metric {name} {value!r} {unit}")
    if tracer:
        lines.append("note the metric lines of a traced run include tracing and kept states; use --trace 0")

    metrics = e2e
    record = {"env": env, "counts": counts, "walls": walls, "wall_over_reference": loop.ratios,
              "setup_samples": loop.setup_samples, "paired_wall_diffs": loop.paired,
              "checks": warm_checks + run_checks}
    if tracer:
        n_traced = len(walls[True])
        span_cost = Tracer.span_cost()
        metrics = _layer_metrics(tracer, n_traced, span_cost)
        self_time = tracer.layer_self_time("bench.op")
        traced_total = sum(s["end"] - s["start"] for s in tracer.named("bench.op"))
        for layer, seconds in sorted(self_time.items()):
            lines.append(f"self {layer} {seconds / n_traced!r} s/op {seconds / traced_total:.4f} of traced wall")
        paired_diff = statistics.median(loop.paired) if loop.paired else None
        lines.append(f"trace untraced_wall_median_s={statistics.median(walls[False])!r} "
                     f"traced_wall_median_s={statistics.median(walls[True])!r} "
                     f"paired_wall_diff_s={paired_diff!r} pairs={len(loop.paired)} span_cost_s={span_cost!r} "
                     f"uncovered_frac={metrics['trace.uncovered_frac'][0]!r} probed={probed}")
        for name, (value, unit) in metrics.items():
            lines.append(f"layer {name} {value!r} {unit}")
        record.update(self_time=self_time, probed=probed, spans=tracer.to_json())
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    with open(OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh)

    correct = failed == 0
    print("\n".join(lines))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
