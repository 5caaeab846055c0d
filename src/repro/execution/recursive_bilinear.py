"""Out-of-core DFS execution of any recursive bilinear ⟨n,m,p;t⟩ algorithm.

The recursion mirrors Algorithm 2: above the cache cutoff each encoded
operand Â_l = Σ_q U[l,q]·A_q is *streamed* through fast memory in row
chunks, the t sub-products are computed depth-first, and the output
blocks are streamed back through the decoder; a sub-problem whose three
matrices fit (R·K + K·C + R·C ≤ M) is solved in-cache with a charged
output buffer.  A rectangular ⟨n,m,p⟩ base case divides the sides by
(n, m, p) per level — the (nᴸ×mᴸ)·(mᴸ×pᴸ) recursion of Lemma 2.2 with
I/O Θ((n_eff/√M)^{ω₀}·M), n_eff = (R·K·C)^{1/3}, ω₀ = 3·log_{nmp} t.

The recursion is :func:`repro.execution.plan.recursion_plan`; this module
is its machine-facing wrapper.  Level replay executes one of a level's t
isomorphic sub-problems and charges the other t−1 via
:meth:`SequentialMachine.charge_replayed_io`: counters stay exact (the
cross-check proves it) but C is not computed, and wall time drops from
Θ(tᴸ) recursive calls to Θ(L·t).
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.bilinear import BilinearAlgorithm
from repro.execution import plan as _plan
from repro.machine.sequential import SequentialMachine

__all__ = [
    "execute_recursive_bilinear",
    "stream_linear_combination",
]


def stream_linear_combination(
    machine: SequentialMachine,
    sources: list[tuple[str, int, int, float]],
    dst: tuple[str, int, int],
    shape: int | tuple[int, int],
) -> None:
    """dst_block = Σ coeff·src_block, streamed through fast memory.

    ``sources`` — (slow name, row offset, col offset, coefficient) of
    blocks; ``dst`` — (slow name, row offset, col offset); ``shape`` — the
    common block shape, an int h for h×h blocks or a (rows, cols) pair.
    Only two buffers are ever resident — the accumulator and the current
    source chunk, combined in place — so row chunks are sized to the true
    footprint 2·chunk_words ≤ M, independent of the fan-in.
    """
    dname, dr, dc = dst
    stream = _plan.make_stream(
        [(i, r, c, coeff) for i, (_name, r, c, coeff) in enumerate(sources)],
        (dr, dc), shape, machine.M,
    )
    _plan.run_stream(machine, stream, [name for name, *_ in sources], dname)


def execute_recursive_bilinear(
    machine: SequentialMachine,
    alg: BilinearAlgorithm,
    A: np.ndarray,
    B: np.ndarray,
    base_size: int | None = None,
    level_replay: bool = False,
    cross_check: bool = False,
) -> np.ndarray | None:
    """Run the DFS out-of-core algorithm; returns C (and leaves counters set).

    Square algorithms take square, same-shaped operands; rectangular
    ⟨n,m,p⟩ algorithms take conforming A (R×K) and B (K×C) whose sides
    divide down by (n, m, p) per level — e.g. (nᴸ×mᴸ)·(mᴸ×pᴸ).  Shapes
    and per-level divisibility are validated *before* the first machine
    operation, so a rejected point leaves no partial counters or trace.

    ``base_size`` caps the in-cache cutoff; by default the recursion
    bottoms out as soon as the whole sub-problem fits
    (R·K + K·C + R·C ≤ M), the choice that yields the Θ((n/√M)^{ω₀}·M)
    upper bound.

    ``level_replay=True`` executes one of the t isomorphic sub-problems per
    level and charges the rest (see module docstring); counters and peak
    fast-memory are exact but the product is not computed — returns
    ``None``.  ``cross_check=True`` (with replay) additionally runs the
    full execution on a shadow machine and raises if any counter differs;
    use on small n to certify the replay path.
    """
    A, B = _operands(A, B)
    shape = (A.shape[0], A.shape[1], B.shape[1])
    if alg.is_square and not (shape[0] == shape[1] == shape[2]):
        raise ValueError("square, same-shaped operands required")
    plan = _plan.recursion_plan(alg, shape, machine.M, base_size)
    C, _ = _plan.run_plan(machine, plan, A, B, level_replay)
    if level_replay and cross_check:
        _plan.cross_check(machine, plan, A, B)
    return C


def _operands(A, B) -> tuple[np.ndarray, np.ndarray]:
    """float64 views of conforming 2-d operands (raises otherwise)."""
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[0]:
        raise ValueError("conforming 2-d operands required")
    return A, B
