"""Algorithm 1 (ABMM) on the sequential machine, phase-separated I/O.

Theorem 4.1 rests on one quantitative observation: the basis-transform
passes cost Θ(n² log n) I/O while the bilinear part costs
Θ((n/√M)^{log₂7}·M), so the transforms are asymptotically negligible and
the fast-matmul lower bound transfers to ABMM.  This module measures both
phases separately so the benches can show the ratio actually vanishing.
"""

from __future__ import annotations

import numpy as np

from repro.basis.abmm import AlternativeBasisAlgorithm
from repro.execution import plan as _plan
from repro.machine.sequential import SequentialMachine

__all__ = ["machine_basis_transform", "execute_abmm"]


def machine_basis_transform(
    machine: SequentialMachine,
    src_name: str,
    dst_name: str,
    n: int,
    phi: np.ndarray,
    stop_size: int = 1,
) -> None:
    """Streamed recursive basis transform of a slow-memory n×n array.

    Level ℓ mixes the d² sub-blocks of each of the 4^ℓ current blocks by
    ``phi``, writing into a fresh slow array; each level moves Θ(n²) words,
    and there are log₂(n/stop_size) levels.
    """
    transform = _plan.transform_plan(phi, n, stop_size, machine.M)
    _plan.run_transform(machine, transform, src_name, dst_name)


def execute_abmm(
    machine: SequentialMachine,
    alt: AlternativeBasisAlgorithm,
    A: np.ndarray,
    B: np.ndarray,
    base_size: int | None = None,
    level_replay: bool = False,
) -> tuple[np.ndarray | None, dict[str, float]]:
    """Run ABMM out-of-core; returns (C, per-phase I/O breakdown).

    The transforms recurse exactly as deep as the bilinear part will: the
    cutoff size s₀ (largest s with 3s² ≤ M, bounded by ``base_size``) is
    computed up front and used as both the transform stop size and the
    recursion base — below s₀ everything stays in the original basis and
    the in-cache products are plain matmuls.

    ``level_replay=True`` replays the bilinear phase (one of the t
    isomorphic sub-problems executed per level, the rest charged — see
    :mod:`repro.execution.recursive_bilinear`); the transform phases always
    execute in full.  Counters stay exact but C is not computed — the
    returned product is ``None``.
    """
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    plan = _plan.abmm_plan(alt, A.shape[0], machine.M, base_size)
    return _plan.run_plan(machine, plan, A, B, level_replay)
