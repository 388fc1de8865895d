"""The benchmark's purification-scan checks fail when a trajectory's defect is too large."""

import sys
from pathlib import Path

import pytest

from blochpair import dynamics

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402

SCAN = workloads.WORKLOADS["purification-scan"]
SEED = 1
#: the law whose trajectory is made to report a defect above WARN_TOL
BAD_LAW = 3
BAD_DEFECT = 1e-7


def scan_checks(run) -> list:
    """One operation under the trajectory tap, with the checks the benchmark makes."""
    run.records.clear()
    with workloads.trajectory_tap(run):
        out = SCAN.op(run)
        return run.setup_checks + SCAN.check(run, out, None) + SCAN.reference(run, out)


def test_unpatched_scan_passes_every_check(tmp_path):
    checks = scan_checks(workloads.setup(SCAN, SEED, str(tmp_path)))
    assert [name for name, ok, _ in checks if not ok] == []
    assert f"traj{BAD_LAW}.piecewise.max_defect<=WARN_TOL" in [name for name, _, _ in checks]


def test_scan_check_fails_on_a_large_defect(tmp_path, monkeypatch):
    assert BAD_DEFECT > dynamics.WARN_TOL
    run = workloads.setup(SCAN, SEED, str(tmp_path))
    integrate = dynamics.integrate
    calls = []

    def one_bad_law(model, v0, law, horizon, step, **kwargs):
        traj = integrate(model, v0, law, horizon, step, **kwargs)
        if len(calls) == BAD_LAW:
            traj.metadata["physicality"]["max_defect"] = BAD_DEFECT
        calls.append(law)
        return traj

    monkeypatch.setattr(dynamics, "integrate", one_bad_law)
    failed = {name: detail for name, ok, detail in scan_checks(run) if not ok}
    assert failed == {f"traj{BAD_LAW}.piecewise.max_defect<=WARN_TOL": f"{BAD_DEFECT:.3e}"}
