"""Unit tests for the beam/portfolio search and Lemma 2.2 memoization."""

import pytest

from repro.cdag import build_recursive_cdag
from repro.cdag.families import (
    binary_tree_cdag,
    diamond_chain_cdag,
    grid_cdag,
    recompute_wins_cdag,
)
from repro.pebbling.game import MoveKind, PebbleCost, ScheduleError, schedule_io, validate_schedule
from repro.pebbling.heuristics import topological_schedule
from repro.pebbling.optimal import SearchExhausted, optimal_io
from repro.pebbling.search import (
    PORTFOLIO_SCHEDULERS,
    beam_search_schedule,
    choose_memo_key,
    memoized_subtree_schedule,
    portfolio_schedule,
)


def exact_cost_agreement(sched, M, allow_recompute=True):
    """Validator counters must equal the raw move-list counts, exactly."""
    stats = validate_schedule(sched, M, allow_recompute=allow_recompute)
    loads = sum(1 for m in sched.moves if m.kind is MoveKind.LOAD)
    stores = sum(1 for m in sched.moves if m.kind is MoveKind.STORE)
    assert stats["loads"] == loads
    assert stats["stores"] == stores
    assert stats["io"] == schedule_io(sched, PebbleCost())
    return stats


class TestBeamSearch:
    @pytest.mark.parametrize(
        "cdag,M",
        [
            (recompute_wins_cdag(1, 2), 3),
            (recompute_wins_cdag(2, 2), 4),
            (diamond_chain_cdag(3), 3),
            (binary_tree_cdag(3), 5),
            (grid_cdag(3, 3), 4),
        ],
    )
    def test_validates_and_bounds_optimal(self, cdag, M):
        sched = beam_search_schedule(cdag, M)
        stats = exact_cost_agreement(sched, M)
        assert stats["io"] >= optimal_io(cdag, M, allow_recompute=True)

    def test_discovers_recomputation_win(self):
        """The store-vs-drop fork finds the strict win the write-back
        heuristic structurally cannot: gadget optimum is 7 with
        recomputation, 8 without."""
        c = recompute_wins_cdag(1, 2)
        sched = beam_search_schedule(c, 3)
        stats = exact_cost_agreement(sched, 3)
        assert stats["io"] == optimal_io(c, 3, allow_recompute=True) == 7
        assert stats["recomputations"] >= 1
        belady = validate_schedule(topological_schedule(c, 3), 3)["io"]
        assert stats["io"] < belady == 8

    def test_no_recompute_mode(self):
        c = recompute_wins_cdag(1, 2)
        sched = beam_search_schedule(c, 3, allow_recompute=False)
        stats = validate_schedule(sched, 3, allow_recompute=False)
        assert stats["recomputations"] == 0
        assert stats["io"] >= optimal_io(c, 3, allow_recompute=False)

    def test_deterministic_across_runs(self):
        c = grid_cdag(3, 3)
        s1 = beam_search_schedule(c, 4)
        s2 = beam_search_schedule(c, 4)
        assert s1.moves == s2.moves

    def test_stuck_raises_schedule_error(self):
        # deep tree at tight M: the macro move cannot make room
        with pytest.raises(ScheduleError, match="beam search stuck"):
            beam_search_schedule(binary_tree_cdag(4), 3)

    def test_fuse_raises_search_exhausted(self):
        with pytest.raises(SearchExhausted):
            beam_search_schedule(grid_cdag(3, 3), 4, max_steps=2)


class TestPortfolio:
    @pytest.mark.parametrize(
        "cdag,M",
        [
            (recompute_wins_cdag(1, 2), 3),
            (recompute_wins_cdag(1, 2), 4),
            (binary_tree_cdag(3), 4),
            (diamond_chain_cdag(3), 3),
        ],
    )
    def test_matches_exhaustive_optimum(self, cdag, M):
        res = portfolio_schedule(cdag, M)
        stats = exact_cost_agreement(res.schedule, M)
        assert stats["io"] == res.io == optimal_io(cdag, M, allow_recompute=True)
        assert res.winner in PORTFOLIO_SCHEDULERS

    def test_member_failure_recorded_not_raised(self):
        """Beam is infeasible on the deep tree at M=3, Belady is not: the
        race must still produce a schedule and keep the beam's error."""
        res = portfolio_schedule(binary_tree_cdag(4), 3)
        table = res.table()
        assert isinstance(table["beam"], str)  # the recorded error
        assert res.io == validate_schedule(res.schedule, 3, allow_recompute=True)["io"]

    def test_all_members_fail_raises(self):
        with pytest.raises(ScheduleError, match="every portfolio scheduler"):
            portfolio_schedule(binary_tree_cdag(3), 2)

    def test_no_recompute_skips_dfs(self):
        res = portfolio_schedule(recompute_wins_cdag(1, 2), 4, allow_recompute=False)
        assert "dfs-recompute" not in res.table()
        stats = validate_schedule(res.schedule, 4, allow_recompute=False)
        assert stats["recomputations"] == 0

    def test_deterministic_across_runs(self):
        c = recompute_wins_cdag(2, 2)
        r1 = portfolio_schedule(c, 4)
        r2 = portfolio_schedule(c, 4)
        assert r1.schedule.moves == r2.schedule.moves
        assert r1.winner == r2.winner


class TestMemoizedSubtree:
    def test_strassen_h4_validates_past_inner_search(self, strassen_alg):
        rc = build_recursive_cdag(strassen_alg, 4)
        sched = memoized_subtree_schedule(rc, 10)
        stats = exact_cost_agreement(sched, 10)
        assert stats["io"] > 0

    def test_h8_tree_past_exhaustive_fuse_beats_belady(self, strassen_alg):
        """3 819 vertices — ~60x past the 62-vertex exhaustive cap — and
        the one amortized inner search still beats plain write-back."""
        rc = build_recursive_cdag(strassen_alg, 8, style="tree")
        assert rc.cdag.num_vertices > 620  # >=10x past the fuse
        sched = memoized_subtree_schedule(rc, 6)
        stats = exact_cost_agreement(sched, 6)
        belady = validate_schedule(
            topological_schedule(rc.cdag, 6, eviction="belady"), 6
        )["io"]
        assert stats["io"] < belady

    def test_zoo_rectangular_smoke(self):
        """The atlas' rectangular entry: Grey <5,2,2;18> at n=25."""
        from repro.engine.runners import resolve_algorithm

        rc = build_recursive_cdag(resolve_algorithm("grey-522-18"), 25)
        assert rc.cdag.num_vertices > 62
        sched = memoized_subtree_schedule(rc, 12)
        stats = exact_cost_agreement(sched, 12)
        belady = validate_schedule(
            topological_schedule(rc.cdag, 12, eviction="belady"), 12
        )["io"]
        assert stats["io"] < belady

    def test_choose_memo_key_needs_siblings(self, strassen_alg):
        rc = build_recursive_cdag(strassen_alg, 4)
        with pytest.raises(ValueError, match="memoizable"):
            choose_memo_key(rc, max_sub_vertices=0)

    def test_deterministic_across_runs(self, strassen_alg):
        rc = build_recursive_cdag(strassen_alg, 4)
        s1 = memoized_subtree_schedule(rc, 10)
        s2 = memoized_subtree_schedule(rc, 10)
        assert s1.moves == s2.moves


class TestKnownGapGrid3x3:
    """A recorded gap: on grid-3x3 at M=3 the beam search and the
    portfolio stop one I/O above the exact optimum at every beam width.
    (The atlas certifies grid-3x3 only at M=4.)  A scheduler change that
    closes the gap must update these pins."""

    def test_optimum_is_five(self):
        assert optimal_io(grid_cdag(3, 3), 3) == 5

    @pytest.mark.parametrize("width", [8, 32, 256])
    def test_beam_stops_at_six(self, width):
        sched = beam_search_schedule(grid_cdag(3, 3), 3, beam_width=width)
        assert exact_cost_agreement(sched, 3)["io"] == 6

    def test_portfolio_stops_at_six(self):
        res = portfolio_schedule(grid_cdag(3, 3), 3)
        assert res.io == 6
        assert validate_schedule(res.schedule, 3)["io"] == 6
