"""Per-layer tracing for the benchmark: spans around calls into each layer.

The tracer wraps the public functions of each ``repro`` layer from the
benchmark's side only (no program code is edited): a wrapper replaces the
function in its defining module and in every loaded ``repro`` module that
imported it by name, so both module-level ``from x import f`` bindings and
call-time imports reach the wrapper.  Spans are kept in memory and written
out once the run ends.

Each span records its name, start, end, parent span, the workload, the
engine point it ran under and the pass it belongs to.  A span's self time
is its duration minus the part its child spans cover.  The machine's
methods are called about a million times per sweep pass, so they are
*hot* spans: aggregated per (name, parent) as a call count and a total
instead of one record per call.  The overhead that remains is reported as
``trace.overhead_ratio``.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
import statistics
import sys
import time
from pathlib import Path

__all__ = ["Tracer", "LAYERS", "SPAN_TABLE", "layer_metrics", "run_probes"]

#: The layers a workload's time is split across, in report order.
LAYERS = (
    "cli", "engine", "execution", "machine", "obs", "schedule",
    "pebbling", "cdag", "falsify", "lemmas", "algorithms",
)

_MACHINE_METHODS = (
    "load", "load_slice", "store", "store_slice", "allocate", "free",
    "free_all", "compute", "charge_replayed_io", "consume_ir",
    "place_input", "fetch_output", "alloc_slow", "drop_slow",
)


def _point_kind(args, kwargs):
    spec = args[0] if args else kwargs["spec"]
    return spec["kind"]


def _backend(args, kwargs):
    return kwargs.get("backend", args[2] if len(args) > 2 else "reference")


def _ir_ops(result):
    return len(result)


def _vertices(result):
    cdag = getattr(result, "cdag", result)
    return cdag.num_vertices


#: (module, attribute, span name, options).  ``suffix`` appends a label
#: computed from the call's arguments; ``count`` records a number taken
#: from the call's result; ``hot`` aggregates instead of recording.
SPAN_TABLE: tuple[tuple[str, str, str, dict], ...] = (
    ("repro.engine.core", "run_sweep", "engine.run_sweep", {}),
    ("repro.engine.runners", "execute_point", "engine.execute_point",
     {"suffix": _point_kind, "point": True}),
    ("repro.engine.keys", "point_key", "engine.point_key", {}),
    ("repro.engine.cache", "ResultCache.get", "engine.cache.get", {}),
    ("repro.engine.cache", "ResultCache.put", "engine.cache.put", {}),
    ("repro.execution.recursive_bilinear", "execute_recursive_bilinear",
     "execution.recursive_bilinear", {}),
    ("repro.execution.abmm_exec", "execute_abmm", "execution.abmm", {}),
    ("repro.execution.classical_tiled", "execute_tiled", "execution.tiled", {}),
    ("repro.execution.hybrid", "execute_hybrid", "execution.hybrid", {}),
    *(
        ("repro.machine.sequential", f"SequentialMachine.{m}", f"machine.{m}",
         {"hot": True})
        for m in _MACHINE_METHODS
    ),
    ("repro.obs.manifest", "RunManifest.write", "obs.manifest.write", {}),
    ("repro.obs.report", "build_report", "obs.report.build", {}),
    ("repro.obs.report", "render_report", "obs.report.render", {}),
    ("repro.obs.atlas", "build_atlas", "obs.atlas", {}),
    ("repro.schedule.api", "run", "schedule.run", {"suffix": _backend}),
    ("repro.schedule.lower", "lower", "schedule.lower", {"count": _ir_ops}),
    ("repro.pebbling.optimal", "optimal_io", "pebbling.optimal", {}),
    ("repro.pebbling.optimal", "optimal_schedule", "pebbling.optimal", {}),
    ("repro.pebbling.search", "portfolio_schedule", "pebbling.search", {}),
    ("repro.pebbling.search", "beam_search_schedule", "pebbling.search", {}),
    ("repro.pebbling.search", "memoized_subtree_schedule", "pebbling.search", {}),
    ("repro.pebbling.game", "validate_schedule", "pebbling.validate", {}),
    ("repro.cdag.recursive", "build_recursive_cdag", "cdag.build",
     {"count": _vertices}),
    ("repro.cdag.base", "base_case_cdag", "cdag.build", {"count": _vertices}),
    ("repro.cdag.fft", "fft_cdag", "cdag.build", {"count": _vertices}),
    *(
        ("repro.cdag.families", f, "cdag.build", {"count": _vertices})
        for f in ("binary_tree_cdag", "diamond_chain_cdag", "grid_cdag",
                  "recompute_wins_cdag")
    ),
    *(
        ("repro.falsify.mutants", f, "falsify.generate", {})
        for f in ("generate_mutants", "generate_zoo_mutants",
                  "generate_valid_transforms", "generate_sweep_mutants")
    ),
    ("repro.falsify.battery", "run_battery", "falsify.battery", {}),
    ("repro.falsify.differential", "run_differential", "falsify.differential", {}),
    ("repro.lemmas.lemma31", "check_lemma31", "lemmas.lemma31", {}),
    ("repro.lemmas.hk_check", "corollary35_holds", "lemmas.corollary35", {}),
    ("repro.algorithms.brent", "is_valid_algorithm", "algorithms.brent", {}),
)


class Tracer:
    """In-memory span recorder that installs itself around the layers."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[dict] = []
        self.hot: dict[tuple[str, int | None], list] = {}
        self.pass_label: str | None = None
        self._stack: list[dict] = []
        self._point: str | None = None
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------ #
    def _wrap(self, fn, name: str, opts: dict):
        tracer = self
        suffix, count = opts.get("suffix"), opts.get("count")

        if opts.get("hot"):
            @functools.wraps(fn)
            def hot(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = time.perf_counter() - t0
                    parent = tracer._stack[-1] if tracer._stack else None
                    slot = tracer.hot.setdefault(
                        (name, None if parent is None else parent["id"]), [0, 0.0]
                    )
                    slot[0] += 1
                    slot[1] += dt
                    if parent is not None:
                        parent["child_s"] += dt
            return hot

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            rec = {
                "id": len(tracer.spans),
                "name": name if suffix is None else f"{name}.{suffix(args, kwargs)}",
                "start": time.perf_counter(),
                "end": None,
                "parent": None if parent is None else parent["id"],
                "workload": tracer.workload,
                "point": tracer._point,
                "pass": tracer.pass_label,
                "child_s": 0.0,
            }
            outer_point = tracer._point
            if opts.get("point"):
                spec = args[0] if args else kwargs["spec"]
                rec["point"] = tracer._point = _point_label(spec)
            tracer.spans.append(rec)
            tracer._stack.append(rec)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    rec["count"] = count(result)
                return result
            finally:
                rec["end"] = time.perf_counter()
                tracer._stack.pop()
                tracer._point = outer_point
                if parent is not None:
                    parent["child_s"] += rec["end"] - rec["start"]
        return span

    def install(self) -> None:
        """Wrap every function in :data:`SPAN_TABLE` wherever it is bound."""
        for module_name, attr, name, opts in SPAN_TABLE:
            module = importlib.import_module(module_name)
            owner_name, _, fn_name = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                orig = owner.__dict__[fn_name]
                self._set(owner, fn_name, self._wrap(orig, name, opts))
                continue
            orig = getattr(module, fn_name)
            wrapper = self._wrap(orig, name, opts)
            for mod_name, mod in list(sys.modules.items()):
                if not mod_name.startswith("repro") or mod is None:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, key, wrapper)

    def _set(self, owner, key: str, value) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    # -- reading -------------------------------------------------------- #
    def self_times(self) -> dict[str, float]:
        """Self seconds per layer: span duration minus its children's."""
        out = dict.fromkeys(LAYERS, 0.0)
        for rec in self.spans:
            layer = rec["name"].split(".", 1)[0]
            out[layer] += (rec["end"] - rec["start"]) - rec["child_s"]
        for (name, _parent), (_n, total) in self.hot.items():
            out[name.split(".", 1)[0]] += total
        return out

    def dump(self, path: Path, extra: dict) -> None:
        """Write every span (hot ones aggregated) plus ``extra`` as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        hot = [
            {"name": name, "parent": parent, "calls": n, "total_s": total}
            for (name, parent), (n, total) in sorted(
                self.hot.items(), key=lambda kv: (kv[0][0], kv[0][1] or -1)
            )
        ]
        payload = {**extra, "spans": self.spans, "hot_spans": hot}
        path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


def _point_label(spec: dict) -> str:
    params = ",".join(
        f"{k}={v}" for k, v in sorted(spec["params"].items()) if k != "seed"
    )
    return f"{spec['kind']}({params})"


def _outermost(spans: list[dict], prefix: str) -> float:
    """Seconds inside spans named ``prefix*``, not counting nested ones twice."""
    by_id = {rec["id"]: rec for rec in spans}
    total = 0.0
    for rec in spans:
        if not rec["name"].startswith(prefix):
            continue
        parent = rec["parent"]
        while parent is not None and not by_id[parent]["name"].startswith(prefix):
            parent = by_id[parent]["parent"]
        if parent is None:
            total += rec["end"] - rec["start"]
    return total


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The span-derived per-layer metrics of one traced pass set."""
    spans = tracer.spans
    by_id = {rec["id"]: rec for rec in spans}
    m: dict[str, float] = {}

    sweep_self = 0.0
    for rec in spans:
        if rec["name"] != "engine.run_sweep":
            continue
        sweep_self += rec["end"] - rec["start"]
    for rec in spans:
        if not rec["name"].startswith("engine.execute_point"):
            continue
        parent = rec["parent"]
        while parent is not None and by_id[parent]["name"] != "engine.run_sweep":
            parent = by_id[parent]["parent"]
        if parent is not None:
            sweep_self -= rec["end"] - rec["start"]
    m["engine.run_sweep.self_s"] = sweep_self
    for kind in ("seq_io", "hybrid", "pebble_search", "pebble_optimal"):
        m[f"engine.execute_point.{kind}_s"] = _outermost(
            spans, f"engine.execute_point.{kind}"
        )
    for name in ("engine.point_key", "engine.cache.get", "engine.cache.put",
                 "schedule.lower", "pebbling.optimal", "pebbling.search",
                 "pebbling.validate", "cdag.build", "falsify.generate",
                 "falsify.battery", "falsify.differential", "lemmas.lemma31",
                 "lemmas.corollary35", "algorithms.brent"):
        m[f"{name}_s"] = _outermost(spans, name)
    m["obs.report_s"] = _outermost(spans, "obs.report.")
    m["obs.manifest_s"] = _outermost(spans, "obs.manifest.")
    for backend in ("reference", "vector", "symbolic"):
        m[f"schedule.run.{backend}_s"] = _outermost(spans, f"schedule.run.{backend}")
    m["schedule.ir_ops"] = sum(
        rec.get("count", 0) for rec in spans if rec["name"] == "schedule.lower"
    )
    m["cdag.vertices"] = sum(
        rec.get("count", 0) for rec in spans if rec["name"] == "cdag.build"
    )
    m["trace.spans"] = len(spans) + sum(n for n, _ in tracer.hot.values())
    return m


# --------------------------------------------------------------------- #
# probes: single layers measured on their own, outside any workload job
# --------------------------------------------------------------------- #
def _paired_medians(bare, collected, reps: int) -> tuple[float, float]:
    """Median seconds of ``bare()`` and of ``collected()``, timed in
    alternation from a collected heap so both see the same machine state."""
    times: tuple[list, list] = ([], [])
    for _ in range(reps):
        for fn, out in ((bare, times[0]), (collected, times[1])):
            gc.collect()
            t0 = time.perf_counter()
            fn()
            out.append(time.perf_counter() - t0)
    return statistics.median(times[0]), statistics.median(times[1])


def run_probes(reps: int = 7) -> dict[str, float]:
    """Bare executor timings, exact machine counts and collecting() ratios.

    Each executor runs on a bare :class:`SequentialMachine` outside
    ``collecting()``; the same runs inside ``collecting()`` divided by the
    bare time give the machine publication overhead.  The pebbling ratio
    does the same for :func:`validate_schedule` on one fixed schedule.
    Bare and collected runs alternate, each after a warm-up run.
    """
    import numpy as np

    from repro.algorithms.strassen import strassen
    from repro.basis import karstadt_schwartz
    from repro.cdag import build_recursive_cdag
    from repro.execution.abmm_exec import execute_abmm
    from repro.execution.classical_tiled import execute_tiled
    from repro.execution.hybrid import execute_hybrid
    from repro.execution.recursive_bilinear import execute_recursive_bilinear
    from repro.machine.sequential import SequentialMachine
    from repro.obs import collecting
    from repro.pebbling.game import validate_schedule
    from repro.pebbling.heuristics import topological_schedule

    rng = np.random.default_rng(0)
    A256, B256 = rng.standard_normal((256, 256)), rng.standard_normal((256, 256))
    A128, B128 = A256[:128, :128].copy(), B256[:128, :128].copy()
    A512, B512 = rng.standard_normal((512, 512)), rng.standard_normal((512, 512))
    alg, ks = strassen(), karstadt_schwartz()
    executors = {
        "recursive_bilinear": (256, lambda m: execute_recursive_bilinear(
            m, alg, A256, B256, level_replay=True)),
        "abmm": (256, lambda m: execute_abmm(m, ks, A128, B128, level_replay=True)),
        "tiled": (256, lambda m: execute_tiled(m, A512, B512, replay=True)),
        "hybrid": (48, lambda m: execute_hybrid(
            m, alg, A128, B128, 2, leaf="tiled", level_replay=True)),
    }
    out: dict[str, float] = {}
    reads = writes = peak = 0
    bare_total = collected_total = 0.0
    for name, (M, run) in executors.items():
        machine = SequentialMachine(M)
        run(machine)
        reads += machine.words_read
        writes += machine.words_written
        peak = max(peak, machine.peak_fast_words)

        def collected(run=run, M=M):
            with collecting():
                run(SequentialMachine(M))

        bare, inside = _paired_medians(lambda: run(SequentialMachine(M)), collected, reps)
        out[f"execution.{name}_s"] = bare
        bare_total += bare
        collected_total += inside
    out["machine.words_read"] = reads
    out["machine.words_written"] = writes
    out["machine.peak_fast_words"] = peak
    out["obs.collecting_base.machine_s"] = bare_total
    out["obs.collecting_ratio.machine"] = collected_total / bare_total

    H = build_recursive_cdag(alg, 8, style="tree")
    sched = topological_schedule(H.cdag, 6, eviction="belady")

    def validate():
        validate_schedule(sched, 6, allow_recompute=True)

    def validate_collected():
        with collecting():
            validate()

    validate()
    bare, inside = _paired_medians(validate, validate_collected, reps)
    out["obs.collecting_base.pebbling_s"] = bare
    out["obs.collecting_ratio.pebbling"] = inside / bare
    return out
