"""The sequential machine's batched metrics ledger.

The machine tallies ``machine.seq.*`` per transfer in a local ledger and
publishes it to the registry when the registry drains it.  These tests
hold the published snapshot against two oracles the ledger never sees:
the tallies rebuilt from a recording machine's own transfer calls, and
the machine's ``words_read`` / ``words_written`` / ``peak_fast_words``.
"""

import numpy as np
import pytest

from repro import schedule
from repro.engine.runners import resolve_algorithm
from repro.execution.plan import run_plan, seq_io_plan
from repro.machine.sequential import SequentialMachine
from repro.obs.metrics import DEFAULT_BUCKETS, Histogram, MetricsRegistry, collecting


class Recorder(SequentialMachine):
    """Records every counted call, in order, before the ledger sees it."""

    def __init__(self, M):
        super().__init__(M)
        self.events = []

    def load(self, name, into=None, copy=True):
        self.events.append(("load", self.slow[name].size))
        return super().load(name, into, copy)

    def load_slice(self, name, idx, into, copy=True):
        self.events.append(("load", self.slow[name][idx].size))
        return super().load_slice(name, idx, into, copy)

    def store(self, name, to=None):
        self.events.append(("store", self.fast[name].size))
        super().store(name, to)

    def store_slice(self, name, to, idx):
        self.events.append(("store", self.fast[name].size))
        super().store_slice(name, to, idx)

    def charge_replayed_io(self, reads, writes, repeats, label="replay"):
        self.events.append(("replay", reads * repeats, writes * repeats))
        super().charge_replayed_io(reads, writes, repeats, label)


def expected_snapshot(events):
    """The machine.seq.* counters and histogram an event stream implies,
    tallied one event at a time."""
    counters = {}
    hist = Histogram()

    def add(name, amount):
        counters[name] = counters.get(name, 0) + amount

    for ev in events:
        if ev[0] == "replay":
            add("machine.seq.replays", 1)
            add("machine.seq.replay_words", ev[1] + ev[2])
            add("machine.seq.replay_read_words", ev[1])
            add("machine.seq.replay_write_words", ev[2])
        else:
            add(f"machine.seq.{ev[0]}s", 1)
            add(f"machine.seq.{ev[0]}_words", ev[1])
            hist.observe(ev[1])
    return counters, hist.to_dict()


def check_against_oracles(snap, machine, events):
    counters = {k: v for k, v in snap["counters"].items() if k.startswith("machine.seq.")}
    want_counters, want_hist = expected_snapshot(events)
    assert counters == want_counters
    assert snap["histograms"]["machine.seq.transfer_words"] == want_hist
    c = snap["counters"]
    assert c["machine.seq.load_words"] + c.get("machine.seq.replay_read_words", 0) \
        == machine.words_read
    assert c["machine.seq.store_words"] + c.get("machine.seq.replay_write_words", 0) \
        == machine.words_written
    assert snap["gauges"]["machine.seq.peak_fast_words"] == machine.peak_fast_words


CASES = [
    ("strassen", 16, 48, None, "tiled"),
    ("laderman", 9, 16, None, "tiled"),
    ("karstadt_schwartz", 16, 48, None, "tiled"),
    (None, 16, 48, None, "tiled"),  # classical tiled
    ("strassen", 32, 48, 1, "tiled"),
    ("strassen", 32, 48, 1, "resident"),
]


@pytest.mark.parametrize("replay", [True, False])
@pytest.mark.parametrize("alg,n,M,cutoff,leaf", CASES)
def test_executor_snapshot_matches_independent_tallies(alg, n, M, cutoff, leaf, replay):
    plan = seq_io_plan(resolve_algorithm(alg), n, M, cutoff=cutoff, leaf=leaf)
    R, K, C = plan.root.shape
    rng = np.random.default_rng(0)
    machine = Recorder(M)
    with collecting() as reg:
        run_plan(machine, plan, rng.standard_normal((R, K)),
                 rng.standard_normal((K, C)), replay)
    assert any(ev[0] == "replay" for ev in machine.events) == replay
    check_against_oracles(reg.to_dict(), machine, machine.events)


@pytest.mark.parametrize("alg", ["strassen", "karstadt_schwartz"])
def test_consume_ir_snapshot_matches_independent_tallies(alg):
    """The reference backend charges IR ops through the same ledger; its
    transfers are the IR's LOAD/STORE ops, its replays the recorded calls."""
    spec = schedule.seq_io_schedule(alg, 32, 48, replay=True)
    ir = spec.lower()
    machine = Recorder(48)
    with collecting() as reg:
        schedule.run(ir, machine=machine, backend="reference")
    events = [(op.kind.value, op.words) for op in ir.ops
              if op.kind.value in ("load", "store")]
    events += [ev for ev in machine.events if ev[0] == "replay"]
    assert any(ev[0] == "replay" for ev in events)
    check_against_oracles(reg.to_dict(), machine, events)


class CountingRegistry(MetricsRegistry):
    """Counts publication calls per metric name."""

    def __init__(self):
        super().__init__()
        self.calls = {}

    def _count(self, name):
        self.calls[name] = self.calls.get(name, 0) + 1

    def inc(self, name, amount=1):
        self._count(name)
        super().inc(name, amount)

    def gauge_set(self, name, value):
        self._count(name)
        super().gauge_set(name, value)

    def gauge_max(self, name, value):
        self._count(name)
        super().gauge_max(name, value)

    def observe(self, name, value, buckets=DEFAULT_BUCKETS):
        self._count(name)
        super().observe(name, value, buckets)

    def observe_counts(self, name, counts, buckets=DEFAULT_BUCKETS):
        self._count(name)
        super().observe_counts(name, counts, buckets)

    def seq_calls(self):
        return sum(k for name, k in self.calls.items() if name.startswith("machine.seq."))


def test_publication_cost_is_constant_in_transfers():
    """A full execution makes the same few registry calls at n=32 and at
    n=64, although n=64 moves about eight times as many transfers."""
    calls, loads = [], []
    for n in (32, 64):
        plan = seq_io_plan(resolve_algorithm("strassen"), n, 48)
        rng = np.random.default_rng(0)
        with collecting(CountingRegistry()) as reg:
            run_plan(SequentialMachine(48), plan, rng.standard_normal((n, n)),
                     rng.standard_normal((n, n)), False)
        loads.append(reg.to_dict()["counters"]["machine.seq.loads"])
        calls.append(reg.seq_calls())
    assert loads[1] > 5 * loads[0] > 10_000
    assert calls[0] == calls[1] <= 10


def test_drained_ledgers_are_released():
    """One registry held open across many machines keeps no flushers
    after a read, and a machine used after a read publishes again."""
    with collecting() as reg:
        machines = []
        for _ in range(50):
            m = SequentialMachine(16)
            m.place_input("A", np.ones((2, 2)))
            m.load("A")
            machines.append(m)
        assert len(reg._pending) == 50
        assert reg.value("machine.seq.loads") == 50
        assert reg._pending == []
        machines[0].free("A")
        machines[0].load("A")
        assert reg.value("machine.seq.load_words") == 51 * 4
        assert reg._pending == []


def test_registry_change_flushes_to_the_old_registry():
    """Nested collections: each registry gets exactly the transfers made
    while it was the active one."""
    m = SequentialMachine(64)
    m.place_input("A", np.ones((2, 2)))
    m.place_input("B", np.ones((3, 3)))
    m.load("A")  # no registry active: published nowhere
    m.free("A")
    with collecting() as outer:
        m.load("A")
        with collecting() as inner:
            m.load("B")
            m.store("B", "C")
        m.free("A")
        m.load("A", into="A2")
    assert inner.to_dict()["counters"] == {
        "machine.seq.load_words": 9, "machine.seq.loads": 1,
        "machine.seq.store_words": 9, "machine.seq.stores": 1,
    }
    assert inner.to_dict()["gauges"] == {"machine.seq.peak_fast_words": 13}
    assert outer.to_dict()["counters"] == {
        "machine.seq.load_words": 8, "machine.seq.loads": 2,
    }
    assert outer.to_dict()["histograms"]["machine.seq.transfer_words"]["count"] == 2
    assert outer.to_dict()["gauges"] == {"machine.seq.peak_fast_words": 13}


def test_non_strict_compute_is_a_shared_no_op_context():
    a, b = SequentialMachine(8), SequentialMachine(8)
    assert a.compute() is b.compute()
    with a.compute():
        with a.compute():
            pass
