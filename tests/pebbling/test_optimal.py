"""Unit tests for the exact optimal pebbling search."""

import heapq
import itertools
import math
import random

import pytest

from repro.cdag.core import CDAG
from repro.cdag.families import (
    binary_tree_cdag,
    diamond_chain_cdag,
    recompute_wins_cdag,
)
from repro.graphs.digraph import DiGraph
from repro.pebbling.game import (
    MoveKind,
    PebbleCost,
    schedule_io,
    validate_schedule,
)
from repro.pebbling.heuristics import topological_schedule
from repro.pebbling.optimal import (
    Infeasible,
    SearchExhausted,
    _forced_load_bound,
    _masks,
    optimal_io,
    optimal_schedule,
    writeback_lower_bound,
)


def path(k: int) -> CDAG:
    g = DiGraph()
    g.add_vertices(k)
    for i in range(k - 1):
        g.add_edge(i, i + 1)
    return CDAG(g, [0], [k - 1], name=f"path{k}")


class TestKnownOptima:
    def test_path_costs_two(self):
        """Load the input, compute along, store the output: 2 I/O."""
        assert optimal_io(path(5), M=2) == 2.0

    def test_path_m1_infeasible_vs_m2(self):
        # M=1: computing v needs pred red + slot for v → impossible.  The
        # heap drains, so this is a *proof* of infeasibility — raising the
        # fuse cannot help, and the exception type now says so.
        with pytest.raises(Infeasible):
            optimal_io(path(3), M=1, max_states=10_000)
        assert optimal_io(path(3), M=2) == 2.0

    def test_infeasible_not_conflated_with_fuse(self):
        """Same instance, two failure modes: a drained heap is Infeasible,
        a blown fuse is SearchExhausted — and neither is a subclass of the
        other, so callers can tell 'impossible' from 'try a bigger budget'."""
        c = recompute_wins_cdag(2, 2)
        with pytest.raises(SearchExhausted):
            optimal_io(c, M=3, max_states=10)
        with pytest.raises(Infeasible):
            optimal_io(c, M=1)
        assert not issubclass(Infeasible, SearchExhausted)
        assert not issubclass(SearchExhausted, Infeasible)

    def test_binary_tree_matches_leaf_loads(self):
        """With enough red pebbles (depth+2 here — computing a node needs
        both children AND a result slot, unlike black pebbling's slide) a
        reduction tree costs exactly one load per leaf + one output store."""
        c = binary_tree_cdag(3)
        assert optimal_io(c, M=5) == 8 + 1

    def test_binary_tree_spills_below_pebbling_number(self):
        """Below that threshold spills are forced: I/O strictly above 9,
        and monotonically worse as M shrinks."""
        c = binary_tree_cdag(3)
        assert optimal_io(c, M=4) == 11
        assert optimal_io(c, M=3) == 15

    def test_single_vertex_io(self):
        g = DiGraph()
        g.add_vertices(2)
        g.add_edge(0, 1)
        c = CDAG(g, [0], [1])
        assert optimal_io(c, M=2) == 2.0

    def test_output_already_input(self):
        g = DiGraph()
        g.add_vertex()
        c = CDAG(g, [0], [0])
        assert optimal_io(c, M=1) == 0.0  # input starts blue


class TestRecomputationComparison:
    def test_gadget_strict_separation(self):
        """The paper's §V contrast: a CDAG where recomputation wins."""
        c = recompute_wins_cdag(1, 2)
        with_r = optimal_io(c, M=3, allow_recompute=True)
        without_r = optimal_io(c, M=3, allow_recompute=False)
        assert with_r < without_r

    def test_gadget_gap_grows_under_nvm_costs(self):
        c = recompute_wins_cdag(1, 2)
        for omega in (2.0, 4.0):
            cost = PebbleCost(read_cost=1.0, write_cost=omega)
            gap = optimal_io(c, 3, False, cost) - optimal_io(c, 3, True, cost)
            assert gap >= omega  # the saved store costs ω

    def test_gadget_no_gap_with_big_cache(self):
        c = recompute_wins_cdag(1, 2)
        assert optimal_io(c, M=6, allow_recompute=True) == optimal_io(
            c, M=6, allow_recompute=False
        )

    def test_trees_gain_nothing(self):
        """Fan-out-free CDAGs: recomputation is pointless (footnote 1)."""
        c = binary_tree_cdag(3)
        assert optimal_io(c, 3, True) == optimal_io(c, 3, False)

    def test_diamond_gain_nothing_with_room(self):
        c = diamond_chain_cdag(3)
        assert optimal_io(c, 4, True) == optimal_io(c, 4, False)


class TestAgainstHeuristic:
    @pytest.mark.parametrize("M", [3, 4])
    def test_optimal_le_heuristic(self, M):
        for c in (binary_tree_cdag(3), diamond_chain_cdag(3)):
            sched = topological_schedule(c, M)
            heuristic = validate_schedule(sched, M)["io"]
            assert optimal_io(c, M) <= heuristic

    def test_more_memory_never_hurts(self):
        c = recompute_wins_cdag(1, 2)
        assert optimal_io(c, 4) <= optimal_io(c, 3)


class TestWitness:
    @pytest.mark.parametrize("allow_recompute", [True, False])
    def test_witness_replays_at_exact_cost(self, allow_recompute):
        """The reconstructed schedule is a genuine witness: replaying it
        through the validator yields the reported optimum, exactly."""
        c = recompute_wins_cdag(1, 2)
        io, sched = optimal_schedule(c, 3, allow_recompute=allow_recompute)
        assert io == optimal_io(c, 3, allow_recompute=allow_recompute)
        stats = validate_schedule(sched, 3, allow_recompute=allow_recompute)
        assert stats["io"] == io
        assert stats["io"] == schedule_io(sched, PebbleCost())
        assert stats["loads"] == sum(
            1 for m in sched.moves if m.kind is MoveKind.LOAD
        )
        assert stats["stores"] == sum(
            1 for m in sched.moves if m.kind is MoveKind.STORE
        )
        if not allow_recompute:
            assert stats["recomputations"] == 0

    def test_witness_uses_recomputation_when_it_wins(self):
        c = recompute_wins_cdag(1, 2)
        io, sched = optimal_schedule(c, 3, allow_recompute=True)
        stats = validate_schedule(sched, 3, allow_recompute=True)
        assert stats["recomputations"] >= 1
        assert io < optimal_io(c, 3, allow_recompute=False)

    def test_witness_on_tree_and_nvm_costs(self):
        c = binary_tree_cdag(3)
        cost = PebbleCost(read_cost=1.0, write_cost=3.0)
        io, sched = optimal_schedule(c, 4, cost=cost)
        assert validate_schedule(sched, 4, cost=cost)["io"] == io

    def test_writeback_bound_admissible_on_witness(self):
        """h at the start state never exceeds the true optimum."""
        for c, M in ((binary_tree_cdag(3), 4), (recompute_wins_cdag(1, 2), 3)):
            blue = 0
            for v in c.inputs:
                blue |= 1 << v
            outs = 0
            for v in c.outputs:
                outs |= 1 << v
            assert writeback_lower_bound(blue, outs, 1.0) <= optimal_io(c, M)


class TestGuards:
    def test_too_many_vertices_rejected(self):
        c = binary_tree_cdag(6)  # 127 vertices
        with pytest.raises(ValueError, match="62"):
            optimal_io(c, 4)

    def test_state_fuse(self):
        c = recompute_wins_cdag(2, 2)
        with pytest.raises(SearchExhausted):
            optimal_io(c, 3, max_states=10)

    def test_bad_m(self):
        with pytest.raises(ValueError):
            optimal_io(path(3), M=0)


class TestBadCosts:
    """The exact search is Dijkstra/A*: it needs finite, non-negative edge
    weights.  A bad cost used to come back as a wrong optimum (1.0 for a
    negative write cost), a false Infeasible proof (NaN or infinite read
    cost) or a SearchExhausted (negative read cost)."""

    @pytest.mark.parametrize(
        "read_cost, write_cost",
        [(1.0, -1.0), (math.nan, 1.0), (math.inf, 1.0), (-1.0, 1.0)],
        ids=["negative-write", "nan-read", "inf-read", "negative-read"],
    )
    def test_rejected_before_search(self, read_cost, write_cost):
        with pytest.raises(ValueError, match="finite and >= 0"):
            optimal_io(binary_tree_cdag(2), 4,
                       cost=PebbleCost(read_cost, write_cost))

    def test_zero_costs_allowed(self):
        assert optimal_io(binary_tree_cdag(2), 4, cost=PebbleCost(0, 0)) == 0


def _random_cdag(rng: random.Random, n: int) -> CDAG:
    """A random CDAG on n vertices: the first few are inputs, every other
    vertex has 1-3 earlier predecessors, 1-3 non-inputs (and sometimes an
    input) are outputs."""
    n_in = rng.randint(1, max(1, n // 2))
    g = DiGraph()
    g.add_vertices(n)
    for v in range(n_in, n):
        for u in rng.sample(range(v), rng.randint(1, min(3, v))):
            g.add_edge(u, v)
    outputs = rng.sample(range(n_in, n), rng.randint(1, min(3, n - n_in)))
    if rng.random() < 0.2:
        outputs.append(rng.randrange(n_in))
    return CDAG(g, range(n_in), outputs, name=f"random{n}")


def _oracle_io(cdag: CDAG, M: int, allow_recompute: bool,
               cost: PebbleCost) -> float | None:
    """Plain uniform-cost search over the unnormalized game of
    :mod:`repro.pebbling.game`: every legal load, compute, store and evict
    from every state, no lazy eviction, no bound.  None when no complete
    pebbling exists."""
    vertices = list(cdag.graph.vertices())
    preds = {v: frozenset(cdag.graph.predecessors(v)) for v in vertices}
    outputs = frozenset(cdag.outputs)
    start = (frozenset(), frozenset(cdag.inputs), frozenset())
    dist = {start: 0.0}
    tie = itertools.count()
    heap = [(0.0, next(tie), start)]
    while heap:
        d, _, state = heapq.heappop(heap)
        if d > dist[state]:
            continue
        red, blue, computed = state
        if outputs <= blue:
            return d
        moves = []
        for v in vertices:
            if v in blue and v not in red:
                moves.append((red | {v}, blue, computed, cost.read_cost))
            if v in red:
                moves.append((red, blue | {v}, computed, cost.write_cost))
                moves.append((red - {v}, blue, computed, 0.0))
            if (not cdag.is_input(v) and preds[v] <= red
                    and (allow_recompute or v not in computed)):
                done = computed if allow_recompute else computed | {v}
                moves.append((red | {v}, blue, done, 0.0))
        for nred, nblue, ncomputed, c in moves:
            nstate = (nred, nblue, ncomputed)
            if len(nred) <= M and d + c < dist.get(nstate, math.inf):
                dist[nstate] = d + c
                heapq.heappush(heap, (d + c, next(tie), nstate))
    return None


class TestAgainstOracle:
    """The exact search (normalized moves, packed states, forced-load bound,
    dead-state prune) against an oracle that shares none of that."""

    @pytest.mark.parametrize("seed", range(40))
    def test_random_cdags(self, seed):
        rng = random.Random(seed)
        c = _random_cdag(rng, rng.randint(3, 8))
        for M, allow, (rc, wc) in itertools.product(
            range(1, 5), (True, False), ((1, 1), (1, 3), (2, 1))
        ):
            cost = PebbleCost(rc, wc)
            expected = _oracle_io(c, M, allow, cost)
            if expected is None:
                with pytest.raises(Infeasible):
                    optimal_io(c, M, allow, cost)
                continue
            io, sched = optimal_schedule(c, M, allow, cost)
            assert io == expected == optimal_io(c, M, allow, cost), (M, allow, cost)
            assert validate_schedule(sched, M, allow, cost)["io"] == io


class TestForcedLoadBound:
    @pytest.mark.parametrize("allow_recompute", [True, False])
    @pytest.mark.parametrize("cost", [PebbleCost(), PebbleCost(1.0, 3.0)],
                             ids=["symmetric", "nvm"])
    @pytest.mark.parametrize(
        "c, M",
        [(binary_tree_cdag(3), 3), (binary_tree_cdag(3), 4),
         (recompute_wins_cdag(2, 2), 3)],
        ids=["tree-d3-M3", "tree-d3-M4", "gadget-2x2-M3"],
    )
    def test_admissible_along_witness(self, c, M, cost, allow_recompute):
        """Every prefix state of an optimal witness has g + h <= optimum,
        and none is pruned as dead."""
        io, sched = optimal_schedule(c, M, allow_recompute, cost)
        pred_mask, input_mask, output_mask = _masks(c)
        red = computed = 0
        blue = input_mask
        g = 0.0
        for move in [None] + sched.moves:
            if move is not None:
                bit = 1 << move.v
                if move.kind is MoveKind.LOAD:
                    red |= bit
                    g += cost.read_cost
                elif move.kind is MoveKind.STORE:
                    blue |= bit
                    g += cost.write_cost
                elif move.kind is MoveKind.COMPUTE:
                    red |= bit
                    computed |= 0 if allow_recompute else bit
                else:
                    red &= ~bit
            h = _forced_load_bound(red, blue, computed, pred_mask,
                                   input_mask, output_mask, cost)
            assert g + h <= io
        assert g == io

    @pytest.mark.parametrize("allow_recompute", [True, False])
    def test_tree_d3_within_state_budget(self, allow_recompute):
        """max_states counts expanded states.  With the bound, the dead-state
        prune and deeper-first ties, tree-d3 at M=4 takes about 6k of them;
        without recomputation the plain Dijkstra took 88k, and the search
        without the dead-state prune takes over 100k."""
        c = binary_tree_cdag(3)
        assert optimal_io(c, 4, allow_recompute, max_states=20_000) == 11

    def test_stronger_than_writeback_at_start(self):
        """tree-d3 at M=4: the write-back bound alone gives 1 against an
        optimum of 11; the forced loads of the 8 leaves lift it to 9."""
        c = binary_tree_cdag(3)
        pred_mask, input_mask, output_mask = _masks(c)
        assert writeback_lower_bound(input_mask, output_mask, 1.0) == 1
        assert _forced_load_bound(0, input_mask, 0, pred_mask, input_mask,
                                  output_mask, PebbleCost()) == 9
        assert optimal_io(c, 4) == 11
