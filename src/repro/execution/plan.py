"""One seq_io recursion plan, three interpreters.

Lemma 2.2 makes the t sub-problems of every recursion level isomorphic
SUB_H copies, so a sequential out-of-core execution is one recurrence over
O(levels) distinct shapes.  A :class:`Plan` writes that recurrence down
once: a DAG built from the (U, V, W) coefficients and memoized on (shape,
remaining cutoff), so the t siblings of a level share one node.  Nodes:

* :class:`Stream` — dst block = Σ coeff·source block, streamed through
  fast memory in chunks of M // 2 words (accumulator + one source chunk);
* :class:`Base` — the cache-fit case R·K + K·C + R·C ≤ M, one pass;
* :class:`Leaf` — a classical leaf: ``tiled`` (four b×b tiles, 4b² ≤ M;
  also the whole ``execute_tiled`` plan) or ``resident`` (Smith et al.
  resident-C rank-1 streaming, (b+1)² ≤ M);
* :class:`Sub` — t encoder pairs, one shared child, the decoder streams;
* :class:`Transform` — the streamed levels of an ABMM basis transform.

The interpreters: :func:`run_plan` drives a SequentialMachine on numpy
operands (the machine's own counters and ``C == A·B`` stay the
independent oracle), :func:`lower_plan` flattens to Schedule IR ops with
a direct ``ir.emit`` loop, and :func:`plan_costs` folds closed-form
counts per node (the symbolic backend).  Level replay runs one sibling
(or leaf pass) and charges the rest.  Building a plan raises every shape
and capacity error before any machine side effect.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from typing import Union

import numpy as np

__all__ = [
    "Plan", "Stream", "Base", "Leaf", "Sub", "Transform", "TILE_FOOTPRINT",
    "HYBRID_LEAVES", "largest_leaf_tile", "resident_block", "hybrid_depth",
    "recursion_plan", "tiled_plan", "transform_plan", "abmm_plan",
    "seq_io_plan", "make_stream", "run_stream", "run_transform", "run_plan",
    "phase_metrics", "cross_check", "lower_plan", "plan_costs",
]

#: Fast-memory tiles a blocked multiply holds at once: A, B, C and the
#: charged product scratch P.
TILE_FOOTPRINT = 4

#: Classical leaf schemes: ``tiled`` (4-tile blocked) and ``resident``
#: (Smith et al. resident-C rank-1 streaming).
HYBRID_LEAVES = ("tiled", "resident")


@dataclass(frozen=True, eq=False)
class Stream:
    """``terms`` — (source index, row offset, col offset, coefficient) per
    nonzero; ``dst`` — destination (row, col) offset; ``block`` — (rows,
    cols) shape of every block."""

    terms: tuple[tuple[int, int, int, float], ...]
    dst: tuple[int, int]
    block: tuple[int, int]


@dataclass(frozen=True, eq=False)
class Base:
    shape: tuple[int, int, int]


@dataclass(frozen=True, eq=False)
class Leaf:
    """Classical leaf of tile side ``b``; ``cw`` is the resident leaf's
    product-chunk width."""

    kind: str
    shape: tuple[int, int, int]
    b: int
    cw: int


@dataclass(frozen=True, eq=False)
class Sub:
    shape: tuple[int, int, int]
    sub: tuple[int, int, int]
    encode_a: tuple[Stream, ...]
    encode_b: tuple[Stream, ...]
    child: "Node"
    decode: tuple[Stream, ...]


@dataclass(frozen=True, eq=False)
class Transform:
    """Per level: block side s and the four block-relative streams that
    mix the quadrants of every s×s block of an n×n array."""

    n: int
    levels: tuple[tuple[int, tuple[Stream, ...]], ...]


Node = Union[Base, Leaf, Sub]


@dataclass(frozen=True, eq=False)
class Plan:
    """The recursion root on fast memory ``M``; ABMM plans add their
    (A forward, B forward, C inverse) transforms."""

    M: int
    root: Node
    transforms: tuple[Transform, Transform, Transform] | None = None


# --------------------------------------------------------------------- #
# geometry and builders
# --------------------------------------------------------------------- #
def largest_leaf_tile(shape: tuple[int, int, int], M: int) -> int:
    """Largest tile side b dividing all of (R, K, C) with 4b² ≤ M (≥ 1)."""
    g = gcd(gcd(shape[0], shape[1]), shape[2])
    return max([b for b in range(1, g + 1)
                if g % b == 0 and TILE_FOOTPRINT * b * b <= M], default=1)


def resident_block(R: int, C: int, M: int) -> tuple[int, int]:
    """(block side b, column-chunk width cw) of the resident-C leaf.

    b is the largest divisor of gcd(R, C) whose minimal footprint
    (b+1)² = b² (C-block) + b (A-column) + 1 (B-row chunk) + b (product
    chunk) fits in M; cw then takes whatever budget remains, capping the
    per-update product scratch at b·cw words.
    """
    g = gcd(R, C)
    best = max([b for b in range(1, g + 1)
                if g % b == 0 and (b + 1) * (b + 1) <= M], default=1)
    if (best + 1) * (best + 1) > M:
        raise ValueError(f"invalid resident block {best} for M={M}")
    return best, min(best, max(1, (M - best * best - best) // (best + 1)))


def _is_base(shape: tuple[int, int, int], M: int, base_size: int) -> bool:
    """Cache-fit cutoff: the three live matrices of (R×K)·(K×C) fit in M."""
    R, K, C = shape
    return R * K + K * C + R * C <= M and max(R, K, C) <= base_size


def _split_shape(alg, shape: tuple[int, int, int]) -> tuple[int, int, int]:
    """Sub-problem shape one level down; raises if the sides don't divide."""
    R, K, C = shape
    if R % alg.n or K % alg.m or C % alg.p:
        if alg.is_square and R == K == C:
            raise ValueError(
                f"problem size {R} not divisible by base dimension {alg.n}"
            )
        raise ValueError(
            f"problem shape {shape} not divisible by base dimensions "
            f"({alg.n},{alg.m},{alg.p})"
        )
    return (R // alg.n, K // alg.m, C // alg.p)


def hybrid_depth(alg, shape, M: int, base_size: int | None = None) -> int:
    """Levels a pure-fast recursion descends before its cache-fit base, so
    a hybrid ``cutoff >= hybrid_depth(...)`` is the pure recursion.
    ``shape`` is (R, K, C) or the A-side n (via ``recursion_shape``)."""
    if isinstance(shape, int):
        from repro.algorithms.bilinear import recursion_shape

        shape = recursion_shape(alg, shape)
    base_size = max(shape) if base_size is None else base_size
    depth = 0
    while not _is_base(shape, M, base_size):
        shape = _split_shape(alg, shape)
        depth += 1
    return depth


@lru_cache(maxsize=512)
def _chunks(rows: int, cols: int, M: int) -> tuple[tuple[int, int, int, int], ...]:
    """(row, col, rows, cols) of each chunk a rows×cols block streams in."""
    words = M // 2
    row_step = max(1, words // cols)
    col_step = cols if words >= cols else words
    return tuple(
        (r, c, min(row_step, rows - r), min(col_step, cols - c))
        for r in range(0, rows, row_step) for c in range(0, cols, col_step)
    )


def make_stream(terms, dst: tuple[int, int], block, M: int) -> Stream:
    """A :class:`Stream`; ``block`` is h (for h×h) or (rows, cols).  Raises
    on an empty combination or an M below two one-word chunks."""
    terms = tuple(terms)
    if not terms:
        raise ValueError("empty linear combination")
    if M // 2 < 1:
        raise MemoryError(f"M={M} too small to stream {len(terms)}-term combinations")
    block = (block, block) if isinstance(block, int) else tuple(block)
    return Stream(terms, tuple(dst), block)


def _nonzeros(mat) -> list[list[tuple[int, float]]]:
    """(column, coefficient) of every nonzero, row by row."""
    mat = np.asarray(mat)
    return [[(int(q), float(row[q])) for q in np.nonzero(row)[0]] for row in mat]


def _build(alg, coeffs, shape, M, base_size, remaining, leaf, memo) -> Node:
    key = (shape, remaining)
    if key in memo:
        return memo[key]
    if _is_base(shape, M, base_size):
        node = Base(shape)
    elif remaining is not None and remaining <= 0:
        if TILE_FOOTPRINT > M:
            raise MemoryError(f"M={M} cannot hold even a 1×1 classical leaf")
        if leaf == "tiled":
            b = largest_leaf_tile(shape, M)
            node = Leaf("tiled", shape, b, b)
        else:
            node = Leaf("resident", shape, *resident_block(shape[0], shape[2], M))
    else:
        sub = _split_shape(alg, shape)
        # the child first: shape errors deeper down win over stream errors
        child = _build(alg, coeffs, sub, M, base_size,
                       None if remaining is None else remaining - 1, leaf, memo)
        hr, hk, hc = sub
        u_rows, v_rows, w_rows = coeffs
        node = Sub(
            shape, sub,
            tuple(make_stream([(0, q // alg.m * hr, q % alg.m * hk, x) for q, x in row],
                              (0, 0), (hr, hk), M) for row in u_rows),
            tuple(make_stream([(0, q // alg.p * hk, q % alg.p * hc, x) for q, x in row],
                              (0, 0), (hk, hc), M) for row in v_rows),
            child,
            tuple(make_stream([(l, 0, 0, x) for l, x in row],
                              (q // alg.p * hr, q % alg.p * hc), (hr, hc), M)
                  for q, row in enumerate(w_rows)),
        )
    memo[key] = node
    return node


def recursion_plan(alg, shape, M: int, base_size: int | None = None,
                   cutoff: int | None = None, leaf: str = "tiled") -> Plan:
    """The DFS recursion of a bilinear algorithm on (R×K)·(K×C).

    ``base_size`` caps the cache-fit cutoff (default: the fit test alone).
    ``cutoff`` makes it a hybrid: fast levels above it, a classical
    ``leaf`` below — unless a sub-problem fits in fast memory first,
    which always takes the single-pass base case.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    if cutoff is not None:
        if cutoff < 0:
            raise ValueError(f"cutoff must be non-negative, got {cutoff}")
        if leaf not in HYBRID_LEAVES:
            raise ValueError(f"unknown hybrid leaf {leaf!r} (choose from {HYBRID_LEAVES})")
        cutoff = int(cutoff)
    shape = tuple(int(s) for s in shape)
    base_size = max(shape) if base_size is None else base_size
    coeffs = (_nonzeros(alg.U), _nonzeros(alg.V), _nonzeros(alg.W))
    return Plan(M, _build(alg, coeffs, shape, M, base_size, cutoff, leaf, {}))


def tiled_plan(n: int, M: int) -> Plan:
    """Blocked classical n×n matmul: one top-level tiled leaf."""
    if M < 1:
        raise ValueError("M must be >= 1")
    b = largest_leaf_tile((n, n, n), M)
    if TILE_FOOTPRINT * b * b > M:
        raise ValueError(f"invalid tile size {b} for n={n}, M={M}")
    return Plan(M, Leaf("tiled", (n, n, n), b, b))


def transform_plan(phi, n: int, stop: int, M: int) -> Transform:
    """Streamed basis transform by ``phi``, level by level from n down to
    ``stop``: each level mixes the four h×h quadrants of every s×s block."""
    from repro.util.checks import check_power_of_two

    check_power_of_two(n, "n")
    rows, levels, s = _nonzeros(phi), [], n
    while s > stop and s >= 2:
        h = s // 2
        levels.append((s, tuple(
            make_stream([(0, q // 2 * h, q % 2 * h, x) for q, x in row],
                        (q2 // 2 * h, q2 % 2 * h), (h, h), M)
            for q2, row in enumerate(rows)
        )))
        s = h
    return Transform(n, tuple(levels))


def abmm_plan(alt, n: int, M: int, base_size: int | None = None) -> Plan:
    """Algorithm 1: forward transforms, the core recursion, the inverse.

    The transforms recurse exactly as deep as the bilinear part: the stop
    size s₀ (largest power-of-two s with 3s² ≤ M, at most ``base_size``)
    is both the transform stop and the recursion base.
    """
    from repro.basis.transform import invert_base_transform

    if M < 1:
        raise ValueError("M must be >= 1")
    stop = n
    while stop > 1 and (3 * stop * stop > M or (base_size and stop > base_size)):
        stop //= 2
    if 3 * stop * stop > M:
        raise MemoryError(f"M={M} cannot hold even a {stop}×{stop} base case")
    transforms = tuple(transform_plan(phi, n, stop, M)
                       for phi in (alt.phi, alt.psi, invert_base_transform(alt.nu)))
    return Plan(M, recursion_plan(alt.core, (n, n, n), M, stop).root, transforms)


def seq_io_plan(alg, n: int, M: int, base_size: int | None = None,
                cutoff: int | None = None, leaf: str = "tiled") -> Plan:
    """The plan of one seq_io workload on a live algorithm: None = tiled
    classical, an alternative-basis algorithm = ABMM, any other bilinear
    algorithm = its recursion (``cutoff`` → hybrid) at
    ``recursion_shape(alg, n)``."""
    if alg is None:
        return tiled_plan(n, M)
    if hasattr(alg, "core"):
        return abmm_plan(alg, n, M, base_size)
    from repro.algorithms.bilinear import recursion_shape

    return recursion_plan(alg, recursion_shape(alg, n), M, base_size, cutoff, leaf)


# --------------------------------------------------------------------- #
# interpreter 1: the machine, on numpy data
# --------------------------------------------------------------------- #
def run_stream(machine, stream: Stream, sources: list[str], dst: str,
               at: tuple[int, int] = (0, 0)) -> None:
    """Stream one combination: per chunk only the accumulator and the
    current source chunk are resident.  ``at`` shifts the sources and the
    destination to the block at that (row, col) offset."""
    dr, dc = stream.dst[0] + at[0], stream.dst[1] + at[1]
    terms = [(sources[i], r + at[0], c + at[1], x) for i, r, c, x in stream.terms]
    for r, c, rows, cols in _chunks(*stream.block, machine.M):
        acc = machine.allocate("_acc", (rows, cols))
        for sname, sr, sc, coeff in terms:
            chunk = machine.load_slice(
                sname, np.s_[sr + r : sr + r + rows, sc + c : sc + c + cols], "_src"
            )
            with machine.compute():
                if coeff != 1.0:
                    np.multiply(chunk, coeff, out=chunk)
                np.add(acc, chunk, out=acc)
            machine.free("_src")
        machine.store_slice(
            "_acc", dst, np.s_[dr + r : dr + r + rows, dc + c : dc + c + cols]
        )
        machine.free("_acc")


def _run_passes(machine, node: Leaf, label: str, replay: bool, run_pass) -> None:
    """A leaf's (i, j) block passes; under replay the first is executed and
    the rest charged at its measured I/O."""
    pass_io = None
    for i in range(node.shape[0] // node.b):
        for j in range(node.shape[2] // node.b):
            if replay and pass_io is not None:
                machine.charge_replayed_io(*pass_io, 1, label=label)
                continue
            r0, w0 = machine.words_read, machine.words_written
            run_pass(i, j)
            pass_io = (machine.words_read - r0, machine.words_written - w0)


def _run_tiled(machine, node: Leaf, a: str, b: str, c: str, replay: bool) -> None:
    """Four-tile blocked classical, (i, j, k) order, C-tile resident."""
    bs = node.b
    p_tile = machine.allocate("Pt", (bs, bs))  # charged product scratch

    def tile_pass(i, j):
        c_tile = machine.allocate("Ct", (bs, bs))
        for k in range(node.shape[1] // bs):
            a_tile = machine.load_slice(
                a, np.s_[i * bs : (i + 1) * bs, k * bs : (k + 1) * bs], "At", copy=False
            )
            b_tile = machine.load_slice(
                b, np.s_[k * bs : (k + 1) * bs, j * bs : (j + 1) * bs], "Bt", copy=False
            )
            with machine.compute():
                np.matmul(a_tile, b_tile, out=p_tile)
                np.add(c_tile, p_tile, out=c_tile)
            machine.free("At")
            machine.free("Bt")
        machine.store_slice("Ct", c, np.s_[i * bs : (i + 1) * bs, j * bs : (j + 1) * bs])
        machine.free("Ct")

    _run_passes(machine, node, "Ct", replay, tile_pass)
    machine.free("Pt")


def _run_resident(machine, node: Leaf, a: str, b: str, c: str, replay: bool) -> None:
    """Smith et al. resident-C leaf: per b×b C-block, stream one b-word
    A-column and cw-wide B-row chunks per k, accumulating C += a·bᵀ."""
    bs, cw = node.b, node.cw

    def block_pass(i, j):
        c_blk = machine.allocate("Cb", (bs, bs))
        for k in range(node.shape[1]):
            a_col = machine.load_slice(
                a, np.s_[i * bs : (i + 1) * bs, k : k + 1], "Ar", copy=False
            )
            for c0 in range(0, bs, cw):
                w = min(cw, bs - c0)
                b_row = machine.load_slice(
                    b, np.s_[k : k + 1, j * bs + c0 : j * bs + c0 + w], "Br", copy=False
                )
                t = machine.allocate("Pr", (bs, w))
                with machine.compute():
                    np.multiply(a_col, b_row, out=t)
                    np.add(c_blk[:, c0 : c0 + w], t, out=c_blk[:, c0 : c0 + w])
                machine.free("Pr")
                machine.free("Br")
            machine.free("Ar")
        machine.store_slice("Cb", c, np.s_[i * bs : (i + 1) * bs, j * bs : (j + 1) * bs])
        machine.free("Cb")

    _run_passes(machine, node, "Cb", replay, block_pass)


def _run_node(machine, node: Node, a: str, b: str, c: str, tag: str,
              replay: bool) -> None:
    R, K, C = node.shape
    if type(node) is Base:
        a_buf = machine.load(a, "_a", copy=False)
        b_buf = machine.load(b, "_b", copy=False)
        c_buf = machine.allocate("_c", (R, C))
        with machine.compute():
            np.matmul(a_buf, b_buf, out=c_buf)
        machine.store("_c", c)
        machine.free("_a")
        machine.free("_b")
        machine.free("_c")
        return
    machine.alloc_slow(c, (R, C))
    if type(node) is Leaf:
        run_leaf = _run_tiled if node.kind == "tiled" else _run_resident
        run_leaf(machine, node, a, b, c, replay)
        return
    hr, hk, hc = node.sub
    prods: list[str] = []
    sub_io = None
    for l, (enc_a, enc_b) in enumerate(zip(node.encode_a, node.encode_b)):
        ah, bh, ml = f"{tag}.A{l}", f"{tag}.B{l}", f"{tag}.M{l}"
        machine.alloc_slow(ah, (hr, hk))
        machine.alloc_slow(bh, (hk, hc))
        run_stream(machine, enc_a, [a], ah)
        run_stream(machine, enc_b, [b], bh)
        if replay and sub_io is not None:
            # Isomorphic to the measured sibling (same node): charge it.
            machine.alloc_slow(ml, (hr, hc))
            machine.charge_replayed_io(*sub_io, 1, label=ml)
        else:
            r0, w0 = machine.words_read, machine.words_written
            _run_node(machine, node.child, ah, bh, ml, f"{tag}.{l}", replay)
            sub_io = (machine.words_read - r0, machine.words_written - w0)
        machine.drop_slow(ah)
        machine.drop_slow(bh)
        prods.append(ml)
    for dec in node.decode:
        run_stream(machine, dec, prods, c)
    for ml in prods:
        machine.drop_slow(ml)


def run_transform(machine, tr: Transform, src: str, dst: str) -> None:
    """Apply a basis transform to slow array ``src``, leaving ``dst``;
    each level writes a fresh slow array ``{dst}._lvl{level}``."""
    cur = src
    for level, (s, streams) in enumerate(tr.levels):
        nxt = f"{dst}._lvl{level}"
        machine.alloc_slow(nxt, (tr.n, tr.n))
        for bi in range(tr.n // s):
            for bj in range(tr.n // s):
                for st in streams:
                    run_stream(machine, st, [cur], nxt, (bi * s, bj * s))
        if cur != src:
            machine.drop_slow(cur)
        cur = nxt
    machine.slow[dst] = machine.slow[cur]
    if cur != dst and cur != src:
        machine.drop_slow(cur)


def phase_metrics(io_fwd, io_bilinear, io_inv) -> dict[str, float]:
    """The ABMM phase split: forward-transform, bilinear and inverse I/O."""
    total = io_fwd + io_bilinear + io_inv
    return {
        "io_transform_forward": float(io_fwd),
        "io_bilinear": float(io_bilinear),
        "io_transform_inverse": float(io_inv),
        "io_total": float(total),
        "transform_fraction": float((io_fwd + io_inv) / max(1.0, total)),
    }


def run_plan(machine, plan: Plan, A, B, replay: bool = False):
    """Execute ``plan`` on ``machine``; returns (C, ABMM phase I/O).

    C is ``None`` under level replay; the phase dict is empty unless the
    plan is ABMM.
    """
    if plan.M != machine.M:
        raise ValueError(f"plan built for M={plan.M}, machine has M={machine.M}")
    if plan.transforms is None:
        machine.place_input("A", A)
        machine.place_input("B", B)
        _run_node(machine, plan.root, "A", "B", "C", "r", replay)
        return (None if replay else machine.fetch_output("C")), {}
    forward_a, forward_b, inverse = plan.transforms
    machine.place_input("A_orig", A)
    machine.place_input("B_orig", B)
    io = [machine.io_operations]
    run_transform(machine, forward_a, "A_orig", "A")
    run_transform(machine, forward_b, "B_orig", "B")
    io.append(machine.io_operations)
    _run_node(machine, plan.root, "A", "B", "C_t", "r", replay)
    io.append(machine.io_operations)
    run_transform(machine, inverse, "C_t", "C")
    io.append(machine.io_operations)
    C = None if replay else machine.fetch_output("C")
    return C, phase_metrics(io[1] - io[0], io[2] - io[1], io[3] - io[2])


def cross_check(machine, plan: Plan, A, B) -> None:
    """Re-run ``plan`` in full on a shadow machine; raise if its (reads,
    writes, peak_fast) differ from ``machine``'s replayed run."""
    from repro.machine.sequential import SequentialMachine

    ref = SequentialMachine(machine.M, machine.read_cost, machine.write_cost)
    run_plan(ref, plan, A, B)
    got, want = ((m.words_read, m.words_written, m.peak_fast_words) for m in (machine, ref))
    if got != want:
        raise AssertionError(
            "level-replay counters diverge from full execution: "
            f"(reads, writes, peak_fast) {got} != {want}"
        )


# --------------------------------------------------------------------- #
# interpreter 2: the Schedule IR flattener
# --------------------------------------------------------------------- #
def lower_plan(plan: Plan, ir, replay: bool) -> None:
    """Append ``plan``'s op stream to ``ir``: the transfers, allocations
    and replay boundaries :func:`run_plan` makes, with REPLAY records over
    the first sibling's span.  ABMM ops carry phase tags."""
    if plan.transforms is None:
        _lower_node(ir, plan.root, plan.M, 0, replay)
        return
    forward_a, forward_b, inverse = plan.transforms
    for tag, tr in (("transform_forward", forward_a), ("transform_forward", forward_b),
                    ("bilinear", None), ("transform_inverse", inverse)):
        i0 = len(ir.ops)
        if tr is None:
            _lower_node(ir, plan.root, plan.M, 0, replay)
        else:
            _lower_transform(ir, tr, plan.M)
        for op in ir.ops[i0:]:
            op.tag = tag


def _lower_stream(emit, st: Stream, M: int, level: int) -> None:
    from repro.schedule.ir import OpKind

    alloc, load, store, free = OpKind.ALLOC, OpKind.LOAD, OpKind.STORE, OpKind.FREE
    nnz = len(st.terms)
    for _r, _c, rows, cols in _chunks(*st.block, M):
        words = rows * cols
        emit(alloc, "_acc", words, level)
        for _ in range(nnz):
            emit(load, "_src", words, level)
            emit(free, "_src", words, level)
        emit(store, "_acc", words, level)
        emit(free, "_acc", words, level)


def _lower_transform(ir, tr: Transform, M: int) -> None:
    for level, (s, streams) in enumerate(tr.levels):
        for _block in range((tr.n // s) ** 2):
            for st in streams:
                _lower_stream(ir.emit, st, M, level)


def _lower_passes(ir, node: Leaf, level: int, label: str, replay: bool,
                  lower_pass) -> None:
    """The IR twin of :func:`_run_passes`: REPLAY records after the first."""
    from repro.schedule.ir import OpKind

    qc = node.shape[2] // node.b
    span = None
    for index in range(node.shape[0] // node.b * qc):
        if replay and span is not None:
            ir.emit(OpKind.REPLAY, label, 0, level, index=index, span=span, repeats=1)
            continue
        i0 = len(ir.ops)
        lower_pass(index)
        span = (i0, len(ir.ops))


def _lower_node(ir, node: Node, M: int, level: int, replay: bool) -> None:
    from repro.schedule.ir import OpKind

    emit = ir.emit
    R, K, C = node.shape
    if type(node) is Base:
        emit(OpKind.LOAD, "_a", R * K, level)
        emit(OpKind.LOAD, "_b", K * C, level)
        emit(OpKind.ALLOC, "_c", R * C, level)
        emit(OpKind.COMPUTE, "matmul", 0, level)
        emit(OpKind.STORE, "_c", R * C, level)
        emit(OpKind.FREE, "_a", R * K, level)
        emit(OpKind.FREE, "_b", K * C, level)
        emit(OpKind.FREE, "_c", R * C, level)
    elif type(node) is Leaf and node.kind == "tiled":
        w = node.b * node.b

        def tile_pass(index):
            emit(OpKind.ALLOC, "Ct", w, level, index=index)
            for _k in range(K // node.b):
                emit(OpKind.LOAD, "At", w, level)
                emit(OpKind.LOAD, "Bt", w, level)
                emit(OpKind.COMPUTE, "matmul", 0, level)
                emit(OpKind.FREE, "At", w, level)
                emit(OpKind.FREE, "Bt", w, level)
            emit(OpKind.STORE, "Ct", w, level, index=index)
            emit(OpKind.FREE, "Ct", w, level)

        emit(OpKind.ALLOC, "Pt", w, level)
        _lower_passes(ir, node, level, "Ct", replay, tile_pass)
        emit(OpKind.FREE, "Pt", w, level)
    elif type(node) is Leaf:
        b, cw = node.b, node.cw

        def block_pass(index):
            emit(OpKind.ALLOC, "Cb", b * b, level, index=index)
            for _k in range(K):
                emit(OpKind.LOAD, "Ar", b, level)
                for c0 in range(0, b, cw):
                    w = min(cw, b - c0)
                    emit(OpKind.LOAD, "Br", w, level)
                    emit(OpKind.ALLOC, "Pr", b * w, level)
                    emit(OpKind.COMPUTE, "rank1", 0, level)
                    emit(OpKind.FREE, "Pr", b * w, level)
                    emit(OpKind.FREE, "Br", w, level)
                emit(OpKind.FREE, "Ar", b, level)
            emit(OpKind.STORE, "Cb", b * b, level, index=index)
            emit(OpKind.FREE, "Cb", b * b, level)

        _lower_passes(ir, node, level, "Cb", replay, block_pass)
    else:
        span = None
        for l, (enc_a, enc_b) in enumerate(zip(node.encode_a, node.encode_b)):
            _lower_stream(emit, enc_a, M, level)
            _lower_stream(emit, enc_b, M, level)
            if replay and span is not None:
                emit(OpKind.REPLAY, f"M{l}", 0, level, index=l, span=span, repeats=1)
                continue
            i0 = len(ir.ops)
            _lower_node(ir, node.child, M, level + 1, replay)
            span = (i0, len(ir.ops))
        for dec in node.decode:
            _lower_stream(emit, dec, M, level)


# --------------------------------------------------------------------- #
# interpreter 3: the closed-form cost fold
# --------------------------------------------------------------------- #
def _stream_costs(st: Stream, M: int) -> tuple[int, int, int]:
    """(reads, writes, peak) of one stream: nnz·|block|, |block| and two
    first-chunk buffers."""
    hr, hc = st.block
    words = M // 2
    rows, cols = min(max(1, words // hc), hr), (hc if words >= hc else words)
    return len(st.terms) * hr * hc, hr * hc, 2 * rows * cols


def _node_costs(node: Node, M: int, memo: dict) -> tuple[int, int, int]:
    if node in memo:
        return memo[node]
    R, K, C = node.shape
    if type(node) is Base:
        res = (R * K + K * C, R * C, R * K + K * C + R * C)
    elif type(node) is Leaf:
        b = node.b
        passes = (R // b) * (C // b)
        if node.kind == "tiled":
            res = (2 * passes * (K // b) * b * b, passes * b * b, 4 * b * b)
        else:
            res = (2 * passes * K * b, passes * b * b, b * b + b + node.cw * (1 + b))
    else:
        reads, writes, peak = _node_costs(node.child, M, memo)
        reads, writes = len(node.encode_a) * reads, len(node.encode_a) * writes
        for st in (*node.encode_a, *node.encode_b, *node.decode):
            sr, sw, sp = _stream_costs(st, M)
            reads, writes, peak = reads + sr, writes + sw, max(peak, sp)
        res = (reads, writes, peak)
    memo[node] = res
    return res


def _transform_costs(tr: Transform, M: int) -> tuple[int, int, int]:
    reads = writes = peak = 0
    for s, streams in tr.levels:
        for st in streams:
            sr, sw, sp = _stream_costs(st, M)
            reads += (tr.n // s) ** 2 * sr
            writes += (tr.n // s) ** 2 * sw
            peak = max(peak, sp)
    return reads, writes, peak


def plan_costs(plan: Plan) -> dict:
    """Closed-form reads, writes, io and peak_fast of ``plan`` (plus the
    phase split for ABMM plans), folded once per distinct node."""
    reads, writes, peak = _node_costs(plan.root, plan.M, {})
    phases: dict = {}
    if plan.transforms is not None:
        (fr, fw, fp), (gr, gw, gp), (ir_, iw, ip) = (
            _transform_costs(tr, plan.M) for tr in plan.transforms
        )
        phases = phase_metrics(fr + fw + gr + gw, reads + writes, ir_ + iw)
        reads, writes = fr + gr + reads + ir_, fw + gw + writes + iw
        peak = max(fp, gp, peak, ip)
    return {"reads": reads, "writes": writes, "io": reads + writes,
            "peak_fast": peak, **phases}
