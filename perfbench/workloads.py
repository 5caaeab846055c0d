"""The benchmark's four workloads: their inputs, their job and their checks.

Every workload is one job that a user of the repository runs through the
CLI, called here in-process on the same functions the CLI calls:

``sweep-machine``
    ``repro sweep`` + ``repro report``: one ``run_sweep`` over the variant
    grid with a result cache and a sweep dir on the physical
    ``SequentialMachine`` (level replay), then ``build_report`` /
    ``render_report`` on that sweep dir.
``sweep-ir``
    ``repro sweep --backend {reference,vector,symbolic}``: the same
    variant grid counted by the Schedule-IR backends; no executor runs.
``falsify``
    ``repro falsify``: mutant generation, the checker battery and the
    39-probe differential grid, under ``collecting()``.
``atlas``
    ``repro atlas``: ``build_atlas`` over the ``ci`` preset without its
    gadget-2x2 and grey522-n25 rows, 26 pebbling engine points.

A job returns a :class:`JobResult`; a workload's ``check`` turns the results of a
run's passes into a :class:`Tally` of attempted and failed operations.
"""

from __future__ import annotations

import gc
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

__all__ = [
    "WORKLOADS", "Workload", "JobResult", "Tally", "Ctx", "seq_grid",
    "compare_counts", "symbolic_counts", "timed", "warm_pass",
]

#: (sweep name, algorithm, M, sizes): one ``run_sweep`` each, like one
#: ``repro sweep`` call, and one fitted exponent each.  Laderman runs at
#: M = 16 because its exponent gate (``repro.zoo.sweep_tolerance``, 0.03)
#: is calibrated on grids far past sqrt(M): at M = 256 the n = 27..243 fit
#: overshoots omega0 by 0.16, at M = 16 the n = 27, 81 fit is within
#: 0.029.  (n = 243 at M = 16 would triple the pass time.)
SEQ_FAMILIES = (
    ("strassen", "strassen", 256, (64, 128, 256, 512)),
    ("laderman", "laderman", 16, (27, 81)),
    ("karstadt_schwartz", "karstadt_schwartz", 256, (64, 128, 256)),
    ("classical", None, 256, (64, 128, 256, 512)),
)
#: The hybrid cutoff sweep: strassen n=64, M=48, every cutoff 0..depth.
HYBRID = ("strassen", 64, 48, tuple(range(5)), ("tiled", "resident"))
#: One full execution (replay=False, C == A·B asserted) per variant.
FULL = (("strassen", 32, 48), ("laderman", 9, 16),
        ("karstadt_schwartz", 32, 48), (None, 32, 48))
#: Sizes only the symbolic backend reaches (sweep-ir).
SYMBOLIC_EXTRA = {
    "strassen": (1024, 2048, 4096),
    "laderman": (243, 729, 2187),
    "karstadt_schwartz": (512, 1024, 2048, 4096),
    "classical": (1024, 2048, 4096),
}
BACKENDS = ("reference", "vector", "symbolic")


@dataclass
class Family:
    """One family of the grid: its points and whether its exponent is gated."""

    name: str
    points: list
    fit: bool = False


def seq_grid(seed: int, backend: str | None = None) -> list[Family]:
    """The variant grid shared by both sweep workloads at one operand seed."""
    from repro.engine import hybrid_point, seq_io_point

    families = [
        Family(name, [seq_io_point(alg, n, M, seed=seed, backend=backend)
                      for n in sizes], fit=True)
        for name, alg, M, sizes in SEQ_FAMILIES
    ]
    alg, n, M, cutoffs, leaves = HYBRID
    families += [
        Family(f"hybrid-{leaf}", [
            hybrid_point(alg, n, M, c, seed=seed, leaf=leaf, backend=backend)
            for c in cutoffs
        ])
        for leaf in leaves
    ]
    families.append(Family("full", [
        seq_io_point(alg, n, M, seed=seed, replay=False, backend=backend)
        for alg, n, M in FULL
    ]))
    return families


def point_label(point) -> str:
    """A point's identity minus its operand seed and counting backend."""
    params = {k: v for k, v in point.params.items() if k not in ("seed", "backend")}
    return f"{point.kind}:{json.dumps(params, sort_keys=True)}"


def counts_of(metrics: dict) -> dict:
    return {k: int(metrics[k]) for k in ("reads", "writes", "peak_fast")}


def symbolic_counts(point) -> dict:
    """The symbolic backend's counts for one seq_io / hybrid point."""
    from repro import schedule

    p = point.params
    extra = {"cutoff": p["cutoff"], "leaf": p["leaf"]} if point.kind == "hybrid" else {}
    spec = schedule.seq_io_schedule(p["alg"], p["n"], p["M"], replay=p["replay"], **extra)
    return counts_of(schedule.run(spec, backend="symbolic").metrics)


def compare_counts(observed: dict, expected: dict, what: str) -> list[str]:
    """Word-for-word differences between two {label: counts} tables."""
    problems = []
    for label in sorted(set(observed) | set(expected)):
        got, want = observed.get(label), expected.get(label)
        if got != want:
            problems.append(f"{what}: {label}: got {got}, expected {want}")
    return problems


@dataclass
class JobResult:
    """What one pass of a job produced."""

    seconds: float = 0.0
    cpu_seconds: float = 0.0
    points: int = 0
    failed_points: int = 0
    hits: int = 0
    counts: dict = field(default_factory=dict)  # backend -> {label: counts}
    fits: dict = field(default_factory=dict)    # sweep name -> exponent
    data: dict = field(default_factory=dict)    # workload-specific verdicts


@dataclass
class Tally:
    """Attempted and failed operations, with a reason per failure."""

    attempted: int = 0
    failures: list = field(default_factory=list)

    def op(self, ok: bool, why: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(why)

    def many(self, n: int, problems: list[str]) -> None:
        self.attempted += n
        self.failures += problems


@dataclass
class Ctx:
    """Where one pass runs: a fresh or reused cache, a scratch sweep dir."""

    cache_dir: Path
    sweep_dir: Path
    seed: int


# --------------------------------------------------------------------- #
# sweep-machine
# --------------------------------------------------------------------- #
def run_grid(families: list[Family], config, out: JobResult) -> None:
    """One engine sweep over every family's points, read back into ``out``:
    counts per backend ("machine" for the physical executors) and the
    fitted exponent of each gated family (the fit ``SweepResult.exponent``
    makes, over that family's points)."""
    from repro.bounds.validation import fit_exponent
    from repro.engine import run_sweep

    points = [p for fam in families for p in fam.points]
    res = run_sweep(points, config, parameter="n")
    out.points += len(points)
    out.failed_points += len(res.failures)
    out.hits += int(res.stats["cache_hits"])
    by_key = {sp.run.key: sp for sp in res.points}
    for sp in res.points:
        table = out.counts.setdefault(sp.run.params.get("backend", "machine"), {})
        table[point_label(sp.run)] = counts_of(sp.run.metrics)
    for fam in families:
        done = [by_key[p.key] for p in fam.points if p.key in by_key]
        if fam.fit and len(done) == len(fam.points):
            out.fits[fam.name] = fit_exponent([sp.x for sp in done],
                                              [sp.measured for sp in done])


def _job_sweep_machine(ctx: Ctx) -> JobResult:
    from repro.engine import EngineConfig
    from repro.obs import build_report, render_report

    out = JobResult()
    run_grid(seq_grid(ctx.seed), EngineConfig(cache_dir=str(ctx.cache_dir),
                                              sweep_dir=str(ctx.sweep_dir)), out)
    render_report(build_report(ctx.sweep_dir))
    return out


def _check_fits(tally: Tally, fits: dict) -> None:
    from repro.engine.runners import reference_exponent
    from repro.zoo import sweep_tolerance

    for name, alg, _M, _sizes in SEQ_FAMILIES:
        label, omega = reference_exponent(alg)
        fitted = fits.get(name)
        tol = sweep_tolerance(label)
        tally.op(
            fitted is not None and abs(fitted - omega) <= tol,
            f"{name}: fitted exponent {fitted} vs omega0 {omega:.4f} "
            f"outside tolerance {tol}",
        )


def _check_sweep_machine(cold: list[JobResult], warm: list[JobResult]) -> Tally:
    tally = Tally()
    grid = [p for fam in seq_grid(0) for p in fam.points]
    expected = {point_label(p): symbolic_counts(p) for p in grid}
    limits = {point_label(p): p.params["M"] for p in grid}
    for i, res in enumerate(cold):
        table = res.counts.get("machine", {})
        problems = compare_counts(table, expected, f"pass {i} machine vs symbolic")
        problems += [
            f"pass {i}: {label}: peak_fast {c['peak_fast']} > M={limits[label]}"
            for label, c in table.items() if c["peak_fast"] > limits[label]
        ]
        if res.failed_points:
            problems.append(f"pass {i}: {res.failed_points} engine point failure(s)")
        tally.many(res.points, problems)
    for res in cold:
        _check_fits(tally, res.fits)
    _check_warm(tally, warm)
    return tally


def _check_warm(tally: Tally, warm: list[JobResult]) -> None:
    """Every warm pass hit the cache on every point and matched its cold pass."""
    for i, res in enumerate(warm):
        tally.op(res.hits == res.points and not res.failed_points,
                 f"warm pass {i}: cache hit ratio {res.hits}/{res.points} != 1")
        tally.op(res.data["same_as_cold"],
                 f"warm pass {i}: counts differ from its cold pass")


# --------------------------------------------------------------------- #
# sweep-ir
# --------------------------------------------------------------------- #
def _ir_grid(seed: int) -> list[Family]:
    from repro.engine import seq_io_point

    families = [fam for backend in BACKENDS for fam in seq_grid(seed, backend)]
    families += [
        Family(f"{name}-large", [
            seq_io_point(alg, n, M, seed=seed, backend="symbolic")
            for n in SYMBOLIC_EXTRA[name]
        ])
        for name, alg, M, _sizes in SEQ_FAMILIES
    ]
    return families


def _job_sweep_ir(ctx: Ctx) -> JobResult:
    from repro.engine import EngineConfig

    out = JobResult(data={"seed": ctx.seed})
    run_grid(_ir_grid(ctx.seed), EngineConfig(cache_dir=str(ctx.cache_dir)), out)
    return out


def machine_counts(seed: int) -> dict:
    """The physical machine's counts on the shared grid (no cache)."""
    from repro.engine import EngineConfig

    out = JobResult()
    run_grid(seq_grid(seed), EngineConfig(), out)
    return out.counts["machine"]


def _check_sweep_ir(cold: list[JobResult], warm: list[JobResult]) -> Tally:
    tally = Tally()
    machine = machine_counts(cold[0].data["seed"])
    first = cold[0].counts
    for i, res in enumerate(cold):
        problems = []
        for backend in BACKENDS:
            table = res.counts.get(backend, {})
            shared = {k: v for k, v in table.items() if k in machine}
            problems += compare_counts(shared, machine, f"pass {i} {backend} vs machine")
            problems += compare_counts(table, first.get(backend, {}),
                                       f"pass {i} {backend} vs pass 0")
        if res.failed_points:
            problems.append(f"pass {i}: {res.failed_points} engine point failure(s)")
        tally.many(res.points, problems)
    _check_warm(tally, warm)
    return tally


# --------------------------------------------------------------------- #
# falsify
# --------------------------------------------------------------------- #
#: Mutant count per pass (``repro falsify --mutants``), sized so a pass
#: takes about two seconds; the CLI derives the other generator counts
#: from it.
FALSIFY_MUTANTS = 200
#: Probes in the default differential grid.
DIFFERENTIAL_PROBES = 39


def _job_falsify(ctx: Ctx) -> JobResult:
    from repro.falsify import (
        generate_mutants,
        generate_sweep_mutants,
        generate_valid_transforms,
        generate_zoo_mutants,
        run_battery,
        run_differential,
    )
    from repro.obs import collecting

    n = FALSIFY_MUTANTS
    with collecting():
        mutants = generate_mutants(n, seed=ctx.seed)
        mutants += generate_zoo_mutants(max(8, n // 8), seed=ctx.seed)
        mutants += generate_valid_transforms(max(12, n // 4), seed=ctx.seed)
        sweeps = generate_sweep_mutants(max(4, n // 10), seed=ctx.seed)
        battery = run_battery(mutants, sweeps)
        differential = run_differential()
    return JobResult(
        points=len(mutants) + len(sweeps) + len(differential.outcomes),
        data={
            "battery_ok": battery.ok,
            "kill_rate": battery.targeted_kill_rate,
            "misses": len(battery.gaps) + len(battery.false_alarms),
            "probes": len(differential.outcomes),
            "agree": sum(1 for o in differential.outcomes if o.agree),
            "differential_ok": differential.ok,
        },
    )


def check_falsify_verdict(d: dict) -> list[str]:
    """Problems with one falsify pass's verdicts (empty when all pass)."""
    problems = []
    if not d["battery_ok"] or d["kill_rate"] != 1.0 or d["misses"]:
        problems.append(
            f"battery: ok={d['battery_ok']} targeted kill rate {d['kill_rate']:.1%}, "
            f"{d['misses']} gap(s)/false alarm(s)"
        )
    if not d["differential_ok"] or d["agree"] != DIFFERENTIAL_PROBES or (
        d["probes"] != DIFFERENTIAL_PROBES
    ):
        problems.append(
            f"differential: {d['agree']}/{d['probes']} probes agree "
            f"(expected {DIFFERENTIAL_PROBES}/{DIFFERENTIAL_PROBES})"
        )
    return problems


def _check_falsify(cold: list[JobResult], warm: list[JobResult]) -> Tally:
    tally = Tally()
    for i, res in enumerate(cold + warm):
        problems = [f"pass {i}: {p}" for p in check_falsify_verdict(res.data)]
        tally.many(res.points, problems)
    return tally


# --------------------------------------------------------------------- #
# atlas
# --------------------------------------------------------------------- #
#: The atlas preset the workload runs: ``ci`` without its gadget-2x2 row,
#: whose two exhaustive ``pebble_optimal`` points take 60% of a ``ci``
#: pass, and without grey522-n25, the second past-the-fuse row (1.7 s of
#: a 4.7 s pass), so that a run holds enough passes for a steady median.
#: The other exhaustive rows keep the optimal search on the path and
#: strassen-h8-tree keeps beam-memo splicing on it.
ATLAS_PRESET = "perfbench"
ATLAS_DROPPED = ("gadget-2x2", "grey522-n25")


def _job_atlas(ctx: Ctx) -> JobResult:
    from repro.engine import EngineConfig
    from repro.obs import build_atlas
    from repro.obs.atlas import ATLAS_PRESETS

    ATLAS_PRESETS.setdefault(ATLAS_PRESET, [
        inst for inst in ATLAS_PRESETS["ci"] if inst["instance"] not in ATLAS_DROPPED
    ])
    atlas = build_atlas(preset=ATLAS_PRESET,
                        config=EngineConfig(cache_dir=str(ctx.cache_dir)))
    stats = atlas["stats"]
    return JobResult(
        points=int(stats["points"]),
        failed_points=len(atlas["failures"]),
        hits=int(stats["cache_hits"]),
        data={
            "certification": dict(atlas["certification"], detail=None),
            "recompute_wins_ok": bool(atlas["recompute_wins"]["ok"]),
            "failures": len(atlas["failures"]),
        },
    )


def check_atlas_verdict(d: dict) -> list[str]:
    """Problems with one atlas pass's verdicts (empty when all pass)."""
    problems = []
    cert = d["certification"]
    if not cert["ok"] or cert["matched"] != cert["instances"]:
        problems.append(
            f"certification: {cert['matched']}/{cert['instances']} rows match "
            "the exhaustive optimum"
        )
    if not d["recompute_wins_ok"]:
        problems.append("recompute-wins check failed")
    if d["failures"]:
        problems.append(f"{d['failures']} engine point failure(s)")
    return problems


def _check_atlas(cold: list[JobResult], warm: list[JobResult]) -> Tally:
    tally = Tally()
    for i, res in enumerate(cold + warm):
        problems = [f"pass {i}: {p}" for p in check_atlas_verdict(res.data)]
        tally.many(res.points, problems)
    _check_warm(tally, warm)
    return tally


# --------------------------------------------------------------------- #
# the registry
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``modules`` is what the workload's CLI command imports (measured by
    ``setup_s``); ``cached`` workloads re-run each cold pass's job against
    its result cache, where every point must hit; ``seeded`` workloads
    draw a fresh operand seed for every cold pass.
    """

    name: str
    job: Callable[[Ctx], JobResult]
    check: Callable[[list, list], Tally]
    modules: tuple[str, ...]
    cached: bool = True
    min_cold: int = 1
    seeded: bool = False


_SWEEP_MODULES = (
    "repro.analysis.report", "repro.engine", "repro.engine.runners",
    "repro.execution.recursive_bilinear", "repro.execution.abmm_exec",
    "repro.execution.classical_tiled", "repro.execution.hybrid",
    "repro.machine.sequential", "repro.bounds.formulas", "repro.zoo",
)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("sweep-machine", _job_sweep_machine, _check_sweep_machine,
                 _SWEEP_MODULES + ("repro.obs",), min_cold=2, seeded=True),
        Workload("sweep-ir", _job_sweep_ir, _check_sweep_ir,
                 _SWEEP_MODULES + ("repro.schedule", "repro.schedule.reference",
                                   "repro.schedule.vector", "repro.schedule.symbolic"),
                 min_cold=2, seeded=True),
        Workload("falsify", _job_falsify, _check_falsify,
                 ("repro.analysis.report", "repro.falsify", "repro.obs"),
                 cached=False),
        Workload("atlas", _job_atlas, _check_atlas,
                 ("repro.obs", "repro.engine", "repro.pebbling.search",
                  "repro.pebbling.optimal", "repro.cdag")),
    )
}


def timed(job: Callable[[Ctx], JobResult], ctx: Ctx) -> JobResult:
    """Run one pass from a collected heap, timing it in wall and in CPU
    seconds of this process."""
    gc.collect()
    t0, c0 = time.perf_counter(), time.process_time()
    res = job(ctx)
    res.seconds = time.perf_counter() - t0
    res.cpu_seconds = time.process_time() - c0
    return res


def warm_pass(workload: Workload, cold: JobResult, ctx: Ctx, where: Path) -> JobResult:
    """Re-run the job of ``cold`` (made in ``ctx``) against its result cache.

    Only a verdict of the comparison with the cold pass is kept, so that
    many warm passes do not grow the process.
    """
    res = timed(workload.job, Ctx(ctx.cache_dir, where / "sweeps", ctx.seed))
    res.data["same_as_cold"] = res.counts == cold.counts
    res.counts = {}
    return res
