"""Exact minimum-I/O red-blue pebbling via A* over game states.

State = red | blue << n | computed << 2n, packed into one int (the computed
bits exist only when recomputation is forbidden).  Moves and costs follow
:mod:`repro.pebbling.game`; compute and evict are free, so this is a
shortest-path problem with non-negative edge weights.  Normalizations that
preserve optimality and shrink the space:

* evict only when fast memory is full (lazy eviction),
* never load a red vertex, never store a blue one,
* never compute a vertex that is currently red.

States are ranked by g + h with a consistent *forced-load* bound
(:func:`_forced_load_bound`): one store per output not yet blue, plus one
load per distinct input that is not red and feeds, through vertices neither
red nor blue, an output neither red nor blue.  Without recomputation a
state that must compute an already-computed vertex again is dead and is
never pushed.  :func:`optimal_io` and :func:`optimal_schedule` share the one
loop; parent pointers are kept only for the latter.

The search is exponential — it exists to *certify* small instances: the
recomputation-wins gadget, tiny trees/diamonds, and the 2×2 base-case CDAG.
A ``max_states`` fuse (a count of expanded states) raises
:class:`SearchExhausted` rather than letting a too-large instance hang; a
CDAG that admits *no* complete pebbling at the given M (the heap drains)
raises :class:`Infeasible` instead — the two used to be conflated under one
exception, which made "raise the fuse" look like a fix for structurally
impossible instances.
"""

from __future__ import annotations

import heapq

from repro.cdag.core import CDAG
from repro.pebbling.game import Move, MoveKind, PebbleCost, Schedule

INFINITY = float("inf")

__all__ = [
    "optimal_io",
    "optimal_schedule",
    "writeback_lower_bound",
    "SearchExhausted",
    "Infeasible",
]


class SearchExhausted(RuntimeError):
    """The state-space fuse blew before an optimal schedule was found."""


class Infeasible(RuntimeError):
    """No complete pebbling exists for this CDAG at this M.

    Raised when the Dijkstra heap drains with outputs still unpebbled —
    e.g. M=1 on any CDAG with an edge (computing v needs its predecessor
    red *and* a slot for v).  Distinct from :class:`SearchExhausted`: no
    fuse increase can help an infeasible instance.
    """


def writeback_lower_bound(blue: int, output_mask: int, write_cost: float) -> float:
    """Admissible h: every output still missing a blue pebble costs ≥ one store.

    The beam search in :mod:`repro.pebbling.search` ranks states by g + h
    with this h; the exact search's own bound adds forced loads to it.
    """
    return write_cost * bin(output_mask & ~blue).count("1")


def optimal_io(
    cdag: CDAG,
    M: int,
    allow_recompute: bool = True,
    cost: PebbleCost = PebbleCost(),
    max_states: int = 2_000_000,
) -> float:
    """Minimum total I/O cost to pebble ``cdag`` with fast memory M.

    With ``allow_recompute=False`` each vertex may be computed at most once
    (the assumption most classical lower bounds make); with the default the
    full game is searched, so comparing the two values on one CDAG measures
    exactly how much recomputation buys.
    """
    io, _ = _search(cdag, M, allow_recompute, cost, max_states, witness=False)
    return io


def optimal_schedule(
    cdag: CDAG,
    M: int,
    allow_recompute: bool = True,
    cost: PebbleCost = PebbleCost(),
    max_states: int = 2_000_000,
) -> tuple[float, Schedule]:
    """Like :func:`optimal_io`, but also reconstruct an optimal move list.

    The returned schedule is a *witness*: replaying it through
    :func:`~repro.pebbling.game.validate_schedule` yields exactly the
    returned cost (the test suite asserts this agreement).  Reconstruction
    keeps a parent pointer per improved state, so memory grows with the
    explored state count — same order as the search itself.
    """
    io, sched = _search(cdag, M, allow_recompute, cost, max_states, witness=True)
    assert sched is not None
    return io, sched


def _masks(cdag: CDAG) -> tuple[list[int], int, int]:
    """Predecessor bitmask per vertex, and the input and output bitmasks."""
    g = cdag.graph
    pred_mask = [0] * cdag.num_vertices
    for v in range(cdag.num_vertices):
        for u in g.predecessors(v):
            pred_mask[v] |= 1 << u
    input_mask = 0
    for v in cdag.inputs:
        input_mask |= 1 << v
    output_mask = 0
    for v in cdag.outputs:
        output_mask |= 1 << v
    return pred_mask, input_mask, output_mask


def _forced_load_bound(
    red: int,
    blue: int,
    computed: int,
    pred_mask: list[int],
    input_mask: int,
    output_mask: int,
    cost: PebbleCost,
) -> float:
    """Admissible (and consistent) h for the exact search.

    Every output without a blue pebble costs one store.  An output that is
    neither red nor blue must still be computed, and so must every vertex
    feeding it through vertices that are neither red nor blue; each input
    that feeds that set and is not red must be loaded again (inputs cannot
    be computed), one load per distinct input.  ``computed`` holds the
    computed bits when recomputation is forbidden (0 otherwise): a state in
    which a vertex of that set was already computed can never finish, and
    its bound is infinite.
    """
    pebbled = red | blue
    need = frontier = output_mask & ~pebbled
    feeds = 0
    while frontier:
        bit = frontier & -frontier
        frontier ^= bit
        preds = pred_mask[bit.bit_length() - 1]
        feeds |= preds
        new = preds & ~pebbled & ~need
        need |= new
        frontier |= new
    if need & computed:
        return INFINITY
    return (cost.write_cost * (output_mask & ~blue).bit_count()
            + cost.read_cost * (feeds & input_mask & ~red).bit_count())


def _search(
    cdag: CDAG,
    M: int,
    allow_recompute: bool,
    cost: PebbleCost,
    max_states: int,
    witness: bool,
) -> tuple[float, Schedule | None]:
    n = cdag.num_vertices
    if n > 62:
        raise ValueError("optimal search is limited to ≤ 62 vertices (bitmask state)")
    if M < 1:
        raise ValueError("M must be >= 1")
    pred_mask, input_mask, output_mask = _masks(cdag)
    read_c, write_c = cost.read_cost, cost.write_cost
    track_computed = not allow_recompute
    # Packed state: red | blue << n | computed << 2n (computed bits only
    # when recomputation is forbidden; otherwise they stay zero).
    full = (1 << n) - 1
    done_shift = 2 * n
    # (red bit, predecessor mask, bits a compute sets in the packed state)
    computes = [
        (1 << v, pred_mask[v],
         (1 << v) | (1 << (v + done_shift) if track_computed else 0))
        for v in range(n)
        if not (input_mask >> v) & 1
    ]

    start = input_mask << n
    best: dict[int, float] = {start: 0.0}
    # parent[state] = (previous state, move kind, vertex bit); only
    # populated when a witness is requested.
    parent: dict[int, tuple[int, MoveKind, int]] = {}
    # heap entries: (f = g + h, -g, state) -- ties on f pop the deeper
    # state first, which reaches a goal in far fewer pops
    heap = [(_forced_load_bound(0, input_mask, 0, pred_mask, input_mask,
                                output_mask, cost), 0.0, start)]
    popped = 0
    heappush, heappop = heapq.heappush, heapq.heappop

    while heap:
        _, neg_dist, state = heappop(heap)
        dist = -neg_dist
        if best[state] < dist:
            continue
        red = state & full
        blue = (state >> n) & full
        if (blue & output_mask) == output_mask:
            return dist, _reconstruct(cdag, parent, state) if witness else None
        popped += 1
        if popped > max_states:
            raise SearchExhausted(
                f"optimal pebbling search exceeded {max_states} states "
                f"(V={n}, M={M})"
            )
        computed = state >> done_shift
        # successors as (packed state, cost so far, move kind, vertex bit)
        succ = []
        if red.bit_count() < M:
            # loads: any blue, non-red vertex
            rem = blue & ~red
            while rem:
                bit = rem & -rem
                rem ^= bit
                succ.append((state | bit, dist + read_c, MoveKind.LOAD, bit))
            # computes: a non-red, non-input vertex whose predecessors are red
            for bit, preds, sets in computes:
                if (not red & bit and preds & red == preds
                        and not computed & bit):
                    succ.append((state | sets, dist, MoveKind.COMPUTE, bit))
        else:
            # fast memory full: evictions (free)
            rem = red
            while rem:
                bit = rem & -rem
                rem ^= bit
                succ.append((state ^ bit, dist, MoveKind.EVICT, bit))
        # stores: any red, non-blue vertex (allowed regardless of fullness)
        rem = red & ~blue
        while rem:
            bit = rem & -rem
            rem ^= bit
            succ.append((state | (bit << n), dist + write_c, MoveKind.STORE, bit))

        for nstate, ndist, kind, bit in succ:
            if ndist >= best.get(nstate, INFINITY):
                continue
            best[nstate] = ndist
            h = _forced_load_bound(nstate & full, (nstate >> n) & full,
                                   nstate >> done_shift, pred_mask,
                                   input_mask, output_mask, cost)
            if h == INFINITY:
                continue  # dead: a vertex still needed was already computed
            if witness:
                parent[nstate] = (state, kind, bit)
            heappush(heap, (ndist + h, -ndist, nstate))

    raise Infeasible(
        f"no complete pebbling exists for CDAG {cdag.name!r} with M={M} "
        f"(V={n}, max fan-in {cdag.max_fan_in()})"
    )


def _reconstruct(
    cdag: CDAG, parent: dict[int, tuple[int, MoveKind, int]], goal: int
) -> Schedule:
    """Walk the parent chain back from the goal state into a move list."""
    moves: list[Move] = []
    state = goal
    while state in parent:
        state, kind, bit = parent[state]
        moves.append(Move(kind, bit.bit_length() - 1))
    moves.reverse()
    return Schedule(cdag, moves)
