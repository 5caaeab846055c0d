"""Lowering: from workload specs to the flat Schedule IR.

Every lowering emits exactly the op sequence the corresponding machine
execution would produce — same chunking, same buffer lifetimes, same
replay boundaries — without touching numpy data.  The contract (checked
by the differential harness and tests/schedule/test_lowering.py) is:

    interpreting the lowered IR with the reference backend produces
    *word-identical* (reads, writes, peak_fast) to running the physical
    executor on a :class:`~repro.machine.sequential.SequentialMachine`.

The lowerings:

* ``seq_io`` (variants ``recursive``, ``tiled``, ``hybrid``, ``abmm``) —
  the IR flattener :func:`repro.execution.plan.lower_plan` over the same
  plan the machine executors run (level replay emits REPLAY expansion
  records; ABMM ops carry phase tags);
* ``lru_trace`` — one TRACE op per i-row of the naive matmul trace;
* ``pebble`` — a 1:1 move translation of a red-blue pebbling schedule;
* ``parallel_comm`` — owner-map simulation of the BFS-parallel execution
  emitting one COMM op per (level, product, operand) redistribution.
"""

from __future__ import annotations

from repro.schedule.ir import OpKind, ScheduleIR
from repro.schedule.spec import ScheduleSpec

__all__ = ["lower", "lower_seq_io", "lower_lru_trace", "lower_pebble",
           "lower_parallel_comm"]


def lower(spec: ScheduleSpec) -> ScheduleIR:
    """Dispatch a spec to its lowering; returns a validated ScheduleIR."""
    if spec.kind == "seq_io":
        ir = lower_seq_io(spec)
    elif spec.kind == "lru_trace":
        ir = lower_lru_trace(spec)
    elif spec.kind == "pebble":
        ir = lower_pebble(spec)
    elif spec.kind == "parallel_comm":
        ir = lower_parallel_comm(spec)
    else:
        raise KeyError(f"no lowering for workload kind {spec.kind!r}")
    ir.validate()
    return ir


# --------------------------------------------------------------------- #
# seq_io: the plan's IR flattener
# --------------------------------------------------------------------- #
def lower_seq_io(spec: ScheduleSpec) -> ScheduleIR:
    """Lower a sequential out-of-core matmul workload: flatten its plan."""
    from repro.execution.plan import lower_plan

    ir = ScheduleIR(kind="seq_io", params=dict(spec.params))
    lower_plan(spec.plan(), ir, bool(spec.params.get("replay", True)))
    return ir


# --------------------------------------------------------------------- #
# lru_trace
# --------------------------------------------------------------------- #
def lower_lru_trace(spec: ScheduleSpec) -> ScheduleIR:
    """One TRACE op per i-row of the naive matmul trace (3n² accesses)."""
    n = spec.params["n"]
    ir = ScheduleIR(kind="lru_trace", params=dict(spec.params))
    for i in range(n):
        ir.emit(OpKind.TRACE, "row", 3 * n * n, 0, index=i)
    return ir


# --------------------------------------------------------------------- #
# pebble
# --------------------------------------------------------------------- #
def lower_pebble(spec: ScheduleSpec) -> ScheduleIR:
    """1:1 translation of a red-blue pebbling move list into IR ops.

    LOAD/STORE moves carry one word each; COMPUTE keeps the vertex in
    ``index``; EVICT becomes FREE.  The CDAG rides in ``ir.meta`` so the
    validator (:func:`repro.pebbling.game.validate_ir`) can walk the IR
    under the game rules.
    """
    from repro.pebbling.game import MoveKind

    sched = spec.payload["schedule"]
    ir = ScheduleIR(kind="pebble", params=dict(spec.params))
    kind_map = {
        MoveKind.LOAD: OpKind.LOAD,
        MoveKind.STORE: OpKind.STORE,
        MoveKind.COMPUTE: OpKind.COMPUTE,
        MoveKind.EVICT: OpKind.FREE,
    }
    for m in sched.moves:
        words = 1 if m.kind in (MoveKind.LOAD, MoveKind.STORE) else 0
        ir.emit(kind_map[m.kind], m.kind.value, words, 0, index=int(m.v))
    ir.meta["cdag"] = sched.cdag
    return ir


# --------------------------------------------------------------------- #
# parallel_comm (owner-map simulation; value-independent)
# --------------------------------------------------------------------- #
def lower_parallel_comm(spec: ScheduleSpec) -> ScheduleIR:
    """Owner-map mirror of the BFS-parallel execution's communication.

    Replays the round-robin redistribution of
    :func:`repro.execution.parallel_strassen.execute_parallel_bfs` tracking
    only entry→owner maps (no numeric data), emitting one COMM op per
    (level, product, operand/output) redistribution whose ``words`` is the
    number of entries that change processor.  Per-processor sent/received
    tallies land in ``ir.meta`` — they are exactly the physical
    execution's, certified by tests/schedule/test_backends.py.
    """
    from repro.execution.parallel_strassen import simulate_bfs_comm

    alg = spec.payload["alg"]
    n, P = spec.params["n"], spec.params["P"]
    ir = ScheduleIR(kind="parallel_comm", params=dict(spec.params))

    def emit(level: int, l: int, label: str, words: int) -> None:
        ir.emit(OpKind.COMM, label, words, level, index=l)

    sent, received, levels = simulate_bfs_comm(alg, n, P, emit=emit)
    ir.meta["sent"] = sent
    ir.meta["received"] = received
    ir.meta["levels"] = levels
    return ir
