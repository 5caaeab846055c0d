"""Exact closed-form I/O models of the instrumented executions.

The executors in :mod:`repro.execution` are deterministic word-counting
programs, so their I/O admits *exact* recurrences — not just Θ(·) bounds.
Matching model == measurement to the word (tested) pins down both sides:
a drift in either the executor or the model breaks the equality.

These models also quantify the upper-bound constants that the benches
report next to the Ω(·) floors (e.g. why the streamed DFS executor carries
≈ 4× over tiled classical at moderate n/√M).
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.bilinear import BilinearAlgorithm
from repro.execution.classical_tiled import largest_tile

__all__ = [
    "tiled_classical_io_model",
    "recursive_fast_io_model",
    "abmm_transform_io_model",
]


def tiled_classical_io_model(n: int, M: int) -> int:
    """Exact I/O of :func:`repro.execution.classical_tiled.execute_tiled`.

    Loop order (i,j,k) with the C tile resident: reads = 2(n/b)³·b²,
    writes = (n/b)²·b² = n², with b = ``largest_tile(n, M)``.
    """
    b = largest_tile(n, M)
    q = n // b
    reads = 2 * q ** 3 * b * b
    writes = q * q * b * b
    return reads + writes


def recursive_fast_io_model(
    alg: BilinearAlgorithm, n: int, M: int, base_size: int | None = None
) -> int:
    """Exact I/O of :func:`repro.execution.recursive_bilinear.execute_recursive_bilinear`.

    Recurrence (d = base dim, h = s/d):
      fits (3s² ≤ M and s ≤ base_size):  3s²
      else: t·IO(h) + h²·[Σ_l (nnzU_l + 1) + Σ_l (nnzV_l + 1) + Σ_q (nnzW_q + 1)]
    (each streamed combination reads nnz·h² and writes h²).
    """
    if not alg.is_square:
        raise ValueError("square base case required")
    d = alg.n
    base_size = base_size if base_size is not None else n
    lin_terms = (
        int(np.count_nonzero(alg.U) + alg.t)
        + int(np.count_nonzero(alg.V) + alg.t)
        + int(np.count_nonzero(alg.W) + alg.W.shape[0])
    )

    def io(s: int) -> int:
        if 3 * s * s <= M and s <= base_size:
            return 3 * s * s
        h = s // d
        return alg.t * io(h) + lin_terms * h * h

    return io(n)


def abmm_transform_io_model(n: int, stop_size: int, phi: np.ndarray) -> int:
    """Exact I/O of one :func:`machine_basis_transform` pass.

    Level with block size s (down to stop): every output sub-block entry is
    written once and reads nnz(row) inputs; summed over the d² rows of φ
    and all (n/s)² blocks, each level moves (nnz(φ) + d²)·(n/d... — in
    words: reads = nnz(φ)·(n²/4) per level? No — per level, each of the 4
    sub-block positions holds n²/4 entries:
        reads  = Σ_rows nnz(φ_row)·(n²/4),  writes = n².
    """
    phi = np.asarray(phi)
    total = 0
    s = n
    per_level_reads = int(np.count_nonzero(phi)) * (n * n // 4)
    per_level_writes = n * n
    while s > stop_size and s >= 2:
        total += per_level_reads + per_level_writes
        s //= 2
    return total
