"""Hybrid fast/classical out-of-core matrix multiplication.

De Stefani (arXiv:1904.12804) studies *hybrid* algorithms: run the fast
⟨n,m,p;t⟩ recursion for the top ℓ levels, then finish every sub-problem
with the classical cubic algorithm.  The interesting physics lives in the
cutoff ℓ and in *leading constants*, not exponents — Smith et al.
(arXiv:1702.02017) pin the classical constant at 2n³/√M, which the
``resident`` leaf below attains up to an O(1/√M) factor.

:func:`execute_hybrid` runs the recursion of
:func:`~repro.execution.recursive_bilinear.execute_recursive_bilinear`
for ``level < cutoff`` (streamed encoders, DFS, streamed decoder, the
same level-replay charging) and switches to a classical leaf at
``level == cutoff``:

* ``leaf="tiled"`` — the rectangular generalization of
  :func:`~repro.execution.classical_tiled.execute_tiled` (four b×b tiles,
  4b² ≤ M).  At ``cutoff=0`` on a square problem that exceeds fast memory
  the op stream is *word-identical* to ``execute_tiled`` — the anchor the
  Hypothesis property suite pins.
* ``leaf="resident"`` — the Smith et al. constant-optimal blocking: a
  C-block of side b with (b+1)² ≤ M stays resident while A-columns and
  B-rows stream through as rank-1 updates.  Reads = 2·R·K·C/b ≈ 2n³/√M,
  writes = R·C — the leading constant 2 of arXiv:1702.02017 instead of the
  tiled leaf's 4.

The other anchor: once ``cutoff ≥`` :func:`hybrid_depth` every path hits
the cache-fit base case (R·K + K·C + R·C ≤ M) *before* the cutoff — the
fit check precedes the cutoff check — and the execution is word-identical
to ``execute_recursive_bilinear``.

The hybrid is :func:`repro.execution.plan.recursion_plan` with a
``cutoff``; the same plan flattens to Schedule IR (``seq_io`` variant
``hybrid``) and folds into the symbolic backend's closed form.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.bilinear import BilinearAlgorithm
from repro.execution import plan as _plan
from repro.execution.plan import HYBRID_LEAVES, hybrid_depth, largest_leaf_tile, resident_block
from repro.execution.recursive_bilinear import _operands
from repro.machine.sequential import SequentialMachine

__all__ = [
    "execute_hybrid",
    "hybrid_depth",
    "largest_leaf_tile",
    "resident_block",
    "HYBRID_LEAVES",
]


def execute_hybrid(
    machine: SequentialMachine,
    alg: BilinearAlgorithm,
    A: np.ndarray,
    B: np.ndarray,
    cutoff: int,
    base_size: int | None = None,
    leaf: str = "tiled",
    level_replay: bool = False,
    cross_check: bool = False,
) -> np.ndarray | None:
    """Fast recursion above ``cutoff`` levels, classical leaves below.

    ``cutoff=0`` is the pure classical execution (word-identical to
    ``execute_tiled`` on square problems exceeding fast memory);
    ``cutoff >= hybrid_depth(alg, shape, M)`` is word-identical to
    ``execute_recursive_bilinear`` — the property suite certifies both.
    ``leaf`` selects the classical scheme (:data:`HYBRID_LEAVES`).

    Shapes are validated before the first machine operation, and — unlike
    the pure-fast executor — divisibility is only required for the top
    ``cutoff`` levels.  ``level_replay`` / ``cross_check`` behave as in
    ``execute_recursive_bilinear`` (replay returns ``None``; the
    cross-check runs a shadow full execution and compares counters).
    """
    A, B = _operands(A, B)
    shape = (A.shape[0], A.shape[1], B.shape[1])
    if alg.is_square and cutoff > 0 and not (shape[0] == shape[1] == shape[2]):
        raise ValueError("square, same-shaped operands required")
    plan = _plan.recursion_plan(alg, shape, machine.M, base_size, cutoff, leaf)
    C, _ = _plan.run_plan(machine, plan, A, B, level_replay)
    if level_replay and cross_check:
        _plan.cross_check(machine, plan, A, B)
    return C
