"""The one seq_io recursion plan: its size, and the machine against its fold.

The machine's own counters on a full execution (``replay=False``, with
``C == A·B`` checked) are the independent oracle; the closed-form fold
(:func:`repro.execution.plan.plan_costs`) must match them word for word.
"""

import numpy as np
import pytest

from repro.algorithms.bilinear import recursion_shape
from repro.execution import execute_abmm, execute_hybrid, execute_recursive_bilinear, execute_tiled
from repro.execution.hybrid import hybrid_depth
from repro.execution.plan import (
    Base, Leaf, Sub, cross_check, plan_costs, recursion_plan, run_plan, seq_io_plan,
)
from repro.machine.sequential import SequentialMachine
from repro.zoo import load_algorithm


def _nodes(node):
    """Distinct recursion nodes reachable from ``node``."""
    seen = {}
    stack = [node]
    while stack:
        cur = stack.pop()
        if id(cur) in seen:
            continue
        seen[id(cur)] = cur
        if isinstance(cur, Sub):
            stack.append(cur.child)
    return list(seen.values())


def _counters(machine):
    return (machine.words_read, machine.words_written, machine.peak_fast_words)


def _fold(plan):
    costs = plan_costs(plan)
    return (costs["reads"], costs["writes"], costs["peak_fast"])


class TestPlanStructure:
    def test_strassen_256_has_one_node_per_level(self, strassen_alg):
        """The t = 7 siblings of a level share one node: n = 256 at M = 48
        is 5 levels plus a base, not 7⁵ sub-problems."""
        plan = recursion_plan(strassen_alg, (256, 256, 256), 48)
        nodes = _nodes(plan.root)
        depth = hybrid_depth(strassen_alg, 256, 48)
        assert len(nodes) == depth + 1 == 7
        assert sum(isinstance(n, Base) for n in nodes) == 1
        assert all(len(n.encode_a) == 7 and len(n.decode) == 4
                   for n in nodes if isinstance(n, Sub))

    def test_shape_errors_raise_before_any_transfer(self, strassen_alg):
        with pytest.raises(ValueError, match="not divisible"):
            recursion_plan(strassen_alg, (24, 24, 24), 12)
        with pytest.raises(ValueError, match="M must be"):
            seq_io_plan(strassen_alg, 16, 0)

    def test_cross_check_catches_a_mischarged_replay(self, strassen_alg):
        n, M = 16, 48
        A, B = _operands((n, n, n))
        plan = recursion_plan(strassen_alg, (n, n, n), M)
        m = SequentialMachine(M)
        run_plan(m, plan, A, B, replay=True)
        cross_check(m, plan, A, B)
        m.words_read += 1
        with pytest.raises(AssertionError, match="diverge"):
            cross_check(m, plan, A, B)

    def test_hybrid_leaf_sits_at_the_cutoff(self, strassen_alg):
        plan = recursion_plan(strassen_alg, (64, 64, 64), 48, cutoff=2, leaf="resident")
        leaf = plan.root.child.child
        assert isinstance(leaf, Leaf) and leaf.kind == "resident"
        assert leaf.shape == (16, 16, 16)


def _checked(machine, C, A, B):
    """The machine counters of a full execution whose C == A·B."""
    assert np.allclose(C, A @ B)
    return _counters(machine)


def _operands(shape, seed=0):
    rng = np.random.default_rng(seed)
    R, K, C = shape
    return rng.standard_normal((R, K)), rng.standard_normal((K, C))


class TestMachineAgainstFold:
    def test_tiled(self):
        n, M = 32, 48
        A, B = _operands((n, n, n))
        m = SequentialMachine(M)
        got = _checked(m, execute_tiled(m, A, B), A, B)
        assert got == _fold(seq_io_plan(None, n, M))

    @pytest.mark.parametrize("name,n,M", [
        ("strassen", 32, 48),
        ("laderman", 27, 48),
        ("grey-522-18", 25, 64),
    ])
    def test_recursive(self, name, n, M):
        alg = load_algorithm(name)
        A, B = _operands(recursion_shape(alg, n))
        m = SequentialMachine(M)
        got = _checked(m, execute_recursive_bilinear(m, alg, A, B), A, B)
        assert got == _fold(seq_io_plan(alg, n, M))

    @pytest.mark.parametrize("leaf", ["tiled", "resident"])
    def test_hybrid_every_cutoff(self, strassen_alg, leaf):
        n, M = 32, 48
        A, B = _operands((n, n, n))
        for cutoff in range(hybrid_depth(strassen_alg, n, M) + 1):
            m = SequentialMachine(M)
            got = _checked(m, execute_hybrid(m, strassen_alg, A, B, cutoff, leaf=leaf), A, B)
            assert got == _fold(seq_io_plan(strassen_alg, n, M, cutoff=cutoff, leaf=leaf)), cutoff

    def test_abmm(self, ks_alg):
        n, M = 32, 48
        A, B = _operands((n, n, n))
        m = SequentialMachine(M)
        C, phases = execute_abmm(m, ks_alg, A, B)
        assert np.allclose(C, A @ B)
        fold = plan_costs(seq_io_plan(ks_alg, n, M))
        assert _counters(m) == (fold["reads"], fold["writes"], fold["peak_fast"])
        for key, value in phases.items():
            assert fold[key] == value, key
