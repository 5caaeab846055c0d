"""Symbolic backend: closed-form I/O counts, no schedule materialized.

The sequential workloads are self-similar: all t sub-problems of a
recursion level are isomorphic (the SUB_H structure behind Lemma 2.2), so
their I/O satisfies a recurrence over the O(log n) distinct sub-problem
sizes instead of the O(t^levels) schedule.  This backend evaluates that
recurrence directly from the workload *spec* — it never lowers, which is
what pushes sweeps to n ≥ 4096 (7¹²⁺ subproblems) in milliseconds where
even the replay-lowered IR costs thousands of ops and the explicit-CDAG
path caps out near n ≈ 32.

The seq_io closed forms are the cost fold of the one recursion plan
(:func:`repro.execution.plan.plan_costs`): per node, reads(s) =
t·reads(s/d) + Σ nnz·|block| over the level's streams, writes likewise
with one |block| per stream, plus the base, leaf and ABMM-transform
terms — word-exact against the machine and the lowered schedules
(certified by the ``repro falsify`` backend probes).  Also:

* LRU trace: the exact periodic-state extrapolation — rows are simulated
  until the cache state provably cycles, then the remaining n − O(1) rows
  are charged in closed form (same counters as the full simulation)

Pebbling move lists and owner-map communication have no closed form here;
those kinds raise :class:`~repro.schedule.ir.BackendUnsupported`.
"""

from __future__ import annotations

from repro.schedule.ir import BackendUnsupported
from repro.schedule.spec import ScheduleSpec

__all__ = ["execute"]


def _seq_io(spec: ScheduleSpec) -> dict:
    from repro.execution.plan import plan_costs

    return plan_costs(spec.plan())


def _lru_trace(spec: ScheduleSpec) -> dict:
    from repro.execution.classical_tiled import execute_lru_trace

    p = spec.params
    st = execute_lru_trace(
        int(p["n"]), int(p["M"]), kernel=p.get("kernel", "auto"), row_replay=True
    )
    return {
        "hits": int(st["hits"]),
        "misses": int(st["misses"]),
        "writebacks": int(st["writebacks"]),
        "reads": int(st["misses"]),
        "writes": int(st["writebacks"]),
        "io": int(st["io"]),
    }


def execute(spec: ScheduleSpec, machine=None) -> dict:
    """Count a workload spec in closed form; returns metrics."""
    if spec.kind == "seq_io":
        metrics = _seq_io(spec)
    elif spec.kind == "lru_trace":
        metrics = _lru_trace(spec)
    elif spec.kind in ("pebble", "parallel_comm"):
        raise BackendUnsupported(
            f"symbolic backend has no closed form for {spec.kind!r} workloads; "
            "use the reference or vector backend"
        )
    else:
        raise KeyError(f"symbolic backend: unknown workload kind {spec.kind!r}")
    if machine is not None and spec.kind == "seq_io":
        machine.charge_replayed_io(metrics["reads"], metrics["writes"], 1,
                                   label="schedule.symbolic")
    return metrics
