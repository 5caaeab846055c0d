"""Self-test of the benchmark's output checks: tampered outputs must be caught.

Usage (from the root of a checkout)::

    python3 perfbench/selftest.py

Runs one real ``sweep-machine`` pass (cold, then warm against its cache),
confirms the check passes on it, then tampers with one expected count, one
observed count, the warm pass's hit count and counts, a fitted exponent,
and the falsify and atlas verdicts, and confirms each tampering is
reported.  Exits 0 when every tampering was caught.
"""

from __future__ import annotations

import copy
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, Ctx, check_atlas_verdict, check_falsify_verdict, timed, warm_pass,
)

_problems: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(f"  {'ok ' if cond else 'FAIL'} {what}")
    if not cond:
        _problems.append(what)


def main() -> int:
    sweep = WORKLOADS["sweep-machine"]
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=ROOT / ".perfbench"))
    try:
        ctx = Ctx(tmp / "cache", tmp / "sweeps", 7)
        cold = timed(sweep.job, ctx)
        warm = warm_pass(sweep, cold, ctx, tmp / "warm")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print("sweep-machine checks")
    expect(not sweep.check([cold], [warm]).failures, "untampered pass is accepted")

    label = sorted(cold.counts["machine"])[0]
    real = workloads.symbolic_counts

    def tampered(point):
        counts = real(point)
        if workloads.point_label(point) == label:
            counts["reads"] += 1
        return counts

    workloads.symbolic_counts = tampered
    try:
        failures = sweep.check([cold], [warm]).failures
    finally:
        workloads.symbolic_counts = real
    expect(any(label in f for f in failures), "tampered expected count is caught")

    bad = copy.deepcopy(cold)
    bad.counts["machine"][label]["writes"] -= 1
    expect(bool(sweep.check([bad], [warm]).failures), "tampered observed count is caught")

    bad_warm = copy.deepcopy(warm)
    bad_warm.hits -= 1
    expect(bool(sweep.check([cold], [bad_warm]).failures), "warm hit ratio < 1 is caught")

    bad_warm = copy.deepcopy(warm)
    bad_warm.data["same_as_cold"] = False
    expect(bool(sweep.check([cold], [bad_warm]).failures),
           "warm counts differing from cold are caught")

    bad = copy.deepcopy(cold)
    bad.fits["laderman"] += 0.05
    expect(bool(sweep.check([bad], [warm]).failures), "exponent outside gate is caught")

    print("falsify verdicts")
    good = {"battery_ok": True, "kill_rate": 1.0, "misses": 0, "probes": 39,
            "agree": 39, "differential_ok": True}
    expect(not check_falsify_verdict(good), "all-pass verdict is accepted")
    expect(bool(check_falsify_verdict({**good, "kill_rate": 0.99})), "kill rate < 100% is caught")
    expect(bool(check_falsify_verdict({**good, "agree": 38})), "38/39 probes is caught")

    print("atlas verdicts")
    good = {"certification": {"ok": True, "matched": 7, "instances": 7},
            "recompute_wins_ok": True, "failures": 0}
    expect(not check_atlas_verdict(good), "all-pass verdict is accepted")
    expect(bool(check_atlas_verdict(
        {**good, "certification": {"ok": False, "matched": 6, "instances": 7}}
    )), "6/7 certified rows is caught")
    expect(bool(check_atlas_verdict({**good, "recompute_wins_ok": False})),
           "recompute-wins failure is caught")

    print("selftest:", "ok" if not _problems else f"{len(_problems)} problem(s)")
    return 1 if _problems else 0


if __name__ == "__main__":
    sys.exit(main())
