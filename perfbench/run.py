"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sweep-machine --seed 1 --seconds 24 --trace 0

With ``--trace 0`` the run repeats cycles of (one fresh interpreter, one
cold pass, one warm pass) for ``--seconds`` and reports the end-to-end
metrics with no tracing: ``setup_s`` (median CPU time of a fresh
interpreter importing ``repro.cli`` plus the workload's modules),
``cpu_s`` (median CPU time of a cold pass, fresh result cache), both in
reference seconds (:mod:`calibrate`), and ``peak_rss_mb``.  With
``--trace 1`` it makes a warm-up pass, runs the single-layer probes, then
times the job untraced before and after one traced pass under
:class:`layers.Tracer`, and reports the per-layer metrics, writing every
span and the per-layer self-time table to ``.perfbench/traces/``.

Every output is checked (see :mod:`workloads`).  The last line of stdout
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
exit code is 1 when any output was wrong and 2 when the checkout has no
``src/repro`` to measure.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calibrate
from calibrate import Calibrator
from layers import LAYERS, Tracer, layer_metrics, run_probes
from workloads import WORKLOADS, Ctx, timed, warm_pass

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

#: Fresh interpreters started per run for ``setup_s``, at least.
SETUP_REPS = 5
#: Untraced warm passes timed for ``engine.warm_pass_s`` in a traced run.
WARM_REPS = 15

_SETUP_CHILD = """
import json, sys, time
t0 = time.perf_counter()
import repro.cli
t1 = time.perf_counter()
for name in sys.argv[1:]:
    __import__(name)
print(json.dumps({"cli_import_s": t1 - t0}))
"""


def setup_once(modules: tuple[str, ...]) -> tuple[float, float, float]:
    """(process wall, process CPU, in-process ``import repro.cli``) seconds
    of one fresh interpreter importing ``repro.cli`` and ``modules``."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_CHILD, *modules],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0:
        raise RuntimeError(f"setup child failed:\n{proc.stderr}")
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    cli = json.loads(proc.stdout.strip().splitlines()[-1])["cli_import_s"]
    return wall, cpu, cli


def run_cycles(workload, seed: int, seconds: float, tmp: Path, cal: Calibrator):
    """Cycles of (one fresh interpreter, one cold pass, for cached workloads
    one warm pass against its cache) until ``seconds`` are spent;
    interleaving spreads every metric over the run.  A calibration sample
    is taken before the first step and after every step, and each setup
    and cold pass is returned with its host speed: the mean of the two
    samples either side of it (one sample is too short to average the
    host's sub-second swings; four span about one cycle)."""
    seeds = random.Random(seed)  # draws each pass's operand seed
    end = time.perf_counter() + seconds
    setups, cold, warm = [], [], []
    samples = [cal.sample()]

    def step(value):
        samples.append(cal.sample())
        return value, len(samples) - 2  # between samples[k] and samples[k + 1]

    cycle = 0.0
    while len(cold) < workload.min_cold or time.perf_counter() + cycle <= end:
        t0 = time.perf_counter()
        setups.append(step(setup_once(workload.modules)))
        k = len(cold)
        pass_seed = seeds.randrange(2**31) if workload.seeded else seed
        ctx = Ctx(tmp / f"c{k}" / "cache", tmp / f"c{k}" / "sweeps", pass_seed)
        cold.append(step(timed(workload.job, ctx)))
        if workload.cached:
            res, _ = cold[-1]
            warm.append(step(warm_pass(workload, res, ctx, tmp / f"c{k}" / "warm"))[0])
        shutil.rmtree(tmp / f"c{k}", ignore_errors=True)
        cycle = time.perf_counter() - t0
    while len(setups) < SETUP_REPS:
        setups.append(step(setup_once(workload.modules)))

    def speed(k: int) -> float:
        near = samples[max(0, k - 1):k + 3]
        return sum(near) / len(near)

    return ([(v, speed(k)) for v, k in setups], [(r, speed(k)) for r, k in cold], warm)


def reference_s(steps) -> float:
    """Median of (CPU seconds, host speed) steps in reference seconds."""
    return statistics.median(cpu * calibrate.REF_S / speed for cpu, speed in steps)


def traced_passes(workload, seed: int, tmp: Path):
    """A warm-up pass, the single-layer probes, then an untraced cold pass
    before and after a traced cold (and warm) pass: the untraced time
    (their mean) shares the traced pass's state of the process's own
    caches and of the machine.  Cached workloads end with untraced warm
    passes against the last cold pass's cache; ``warm`` lists the traced
    warm pass first."""
    seeds = random.Random(seed)  # draws each pass's operand seed

    def ctx(tag: str) -> Ctx:
        pass_seed = seeds.randrange(2**31) if workload.seeded else seed
        return Ctx(tmp / tag / "cache", tmp / tag / "sweeps", pass_seed)

    untraced = [timed(workload.job, ctx("warmup"))]
    probes = run_probes()
    untraced.append(timed(workload.job, ctx("u0")))
    tracer = Tracer(workload.name)
    traced_ctx = ctx("t")
    tracer.install()
    try:
        tracer.pass_label = "cold"
        cold = timed(workload.job, traced_ctx)
        warm = []
        if workload.cached:
            tracer.pass_label = "warm"
            warm.append(warm_pass(workload, cold, traced_ctx, tmp / "tw"))
    finally:
        tracer.uninstall()
    after = ctx("u1")
    untraced.append(timed(workload.job, after))
    if workload.cached:
        warm += [warm_pass(workload, untraced[-1], after, tmp / f"uw{i}")
                 for i in range(WARM_REPS)]
    return untraced, probes, cold, warm, tracer


def self_time_table(tracer: Tracer, wall: float) -> dict[str, float]:
    table = tracer.self_times()
    top = sum(r["end"] - r["start"] for r in tracer.spans if r["parent"] is None)
    top += sum(t for (_, parent), (_, t) in tracer.hot.items() if parent is None)
    table["unattributed"] = wall - top
    return table


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; nothing to measure",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]

    for name in workload.modules:
        importlib.import_module(name)
    import repro

    if Path(repro.__file__).resolve().parents[1] != SRC:
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    if hasattr(os, "sched_setaffinity"):
        # One core for the jobs, their setup children and the calibration
        # child, so that the calibration samples the core the steps run on.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        if args.trace:
            setups = [setup_once(workload.modules) for _ in range(SETUP_REPS)]
            untraced, probes, cold, warm, tracer = traced_passes(workload, args.seed, tmp)
            tally = workload.check([*untraced, cold], warm)
        else:
            with Calibrator() as cal:
                setups, steps, warm = run_cycles(workload, args.seed, args.seconds, tmp, cal)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            cold = [res for res, _ in steps]
            tally = workload.check(cold, warm)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if args.trace:
        cli_import_s = statistics.median(cli for _, _, cli in setups)
        metrics = trace_metrics(workload, args.seed, untraced[1:], probes, cold, warm,
                                tracer, cli_import_s)
    else:
        metrics = {
            "setup_s": metric(reference_s((cpu, speed) for (_, cpu, _), speed in setups), "s"),
            "cpu_s": metric(reference_s((r.cpu_seconds, speed) for r, speed in steps), "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
        print(f"{workload.name}: seed={args.seed} cold passes={len(cold)} "
              f"warm passes={len(warm)} fresh interpreters={len(setups)}")
        print("  cold pass cpu s:", " ".join(f"{r.cpu_seconds:.4f}" for r in cold))
        print("  cold pass wall s:", " ".join(f"{r.seconds:.4f}" for r in cold))
        print("  cold pass calibration s:", " ".join(f"{sp:.4f}" for _, sp in steps))
        print("  warm pass wall s:", " ".join(f"{r.seconds:.4f}" for r in warm))
        print("  setup cpu s:", " ".join(f"{cpu:.4f}" for (_, cpu, _), _ in setups))
        print("  setup wall s:", " ".join(f"{wall:.4f}" for (wall, _, _), _ in setups))
        print(f"  reference: one calibration sample = {calibrate.REF_S} CPU s")
    for reason in tally.failures:
        print(f"WRONG OUTPUT: {reason}", file=sys.stderr)
    failed = len(tally.failures)
    print(f"fail_frac: {failed}/{tally.attempted} = {failed / tally.attempted:.4g}")
    for name, m in metrics.items():
        print(f"  {name}: {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


def trace_metrics(workload, seed, untraced, probes, cold, warm, tracer,
                  cli_import_s) -> dict:
    """Per-layer metrics of a traced run; writes the spans and table."""
    m = {"cli.import_s": metric(cli_import_s, "s")}
    m.update({k: metric(v, "count" if not k.endswith("_s") else "s")
              for k, v in layer_metrics(tracer).items()})
    probe_units = {"machine.": "count", "obs.collecting_ratio": "ratio"}
    for k, v in probes.items():
        unit = next((u for p, u in probe_units.items() if k.startswith(p)), "s")
        m[k] = metric(v, unit)
    points = sum(r.points for r in warm[:1])
    hits = sum(r.hits for r in warm[:1])
    m["engine.cache.points"] = metric(points, "count")
    m["engine.cache.hit_ratio"] = metric(hits / points if points else 0.0, "ratio")
    m["engine.warm_pass_s"] = metric(
        statistics.median(r.seconds for r in warm[1:]) if warm else 0.0, "s"
    )
    cert = cold.data.get("certification", {"matched": 0, "instances": 0})
    m["pebbling.certified_rows"] = metric(cert["instances"], "count")
    m["pebbling.certified_ratio"] = metric(
        cert["matched"] / cert["instances"] if cert["instances"] else 0.0, "ratio"
    )
    untraced_s = statistics.mean(r.seconds for r in untraced)
    m["trace.untraced_wall_s"] = metric(untraced_s, "s")
    m["trace.overhead_ratio"] = metric(cold.seconds / untraced_s, "ratio")
    table = self_time_table(tracer, cold.seconds + sum(r.seconds for r in warm[:1]))
    table["cli"] = cli_import_s
    for layer in (*LAYERS[1:], "unattributed"):
        m[f"layer.{layer}.self_s"] = metric(table[layer], "s")

    print(f"{workload.name}: per-layer self time (traced cold"
          f"{' + warm' if warm else ''} pass, seed={seed})")
    total = sum(table.values())
    for layer in (*LAYERS, "unattributed"):
        print(f"  {layer:<14} {table[layer]:9.4f} s  {table[layer] / total:6.1%}")
    print(f"  tracing overhead: {cold.seconds:.3f} s traced / "
          f"{untraced_s:.3f} s untraced = {cold.seconds / untraced_s:.3f}x")
    tracer.dump(
        WORK / "traces" / f"{workload.name}-seed{seed}.json",
        {"workload": workload.name, "seed": seed, "self_time_s": table,
         "untraced_wall_s": untraced_s, "traced_wall_s": cold.seconds},
    )
    return m


if __name__ == "__main__":
    sys.exit(main())
