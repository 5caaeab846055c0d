"""Engine plumbing of the hybrid point kind."""

import pytest

from repro.engine import EngineConfig, execute_point, hybrid_point, run_sweep
from repro.engine.runners import PRIMARY_METRIC


class TestSpec:
    def test_params_and_kind(self):
        p = hybrid_point("strassen", 16, 48, 2, leaf="resident")
        assert p.kind == "hybrid"
        assert p.params["cutoff"] == 2
        assert p.params["leaf"] == "resident"
        assert "backend" not in p.params  # cache-key stable when None

    def test_backend_recorded_when_given(self):
        p = hybrid_point("strassen", 16, 48, 1, backend="symbolic")
        assert p.params["backend"] == "symbolic"

    def test_primary_metric_is_io(self):
        assert PRIMARY_METRIC["hybrid"] == "io"

    def test_cutoff_past_depth_shares_the_depth_key(self):
        """hybrid_depth(strassen, 64, 48) is 4, so cutoff 99 is cutoff 4:
        one cache key, identical metrics."""
        from repro.algorithms.strassen import strassen
        from repro.engine.keys import point_key
        from repro.execution.hybrid import hybrid_depth

        assert hybrid_depth(strassen(), 64, 48) == 4
        far, depth = hybrid_point("strassen", 64, 48, 99), hybrid_point("strassen", 64, 48, 4)
        assert far.params["cutoff"] == 4
        assert point_key(far.kind, far.params) == point_key(depth.kind, depth.params)
        assert execute_point(far.to_dict())[0] == execute_point(depth.to_dict())[0]

    def test_cutoff_within_depth_kept(self):
        assert hybrid_point("strassen", 64, 48, 3).params["cutoff"] == 3

    @pytest.mark.parametrize("alg", [None, "karstadt_schwartz"])
    def test_non_bilinear_algorithms_rejected(self, alg):
        with pytest.raises(ValueError):
            hybrid_point(alg, 16, 48, 1)


class TestExecution:
    def test_machine_and_backend_agree(self):
        machine, _, _ = execute_point(hybrid_point("strassen", 16, 48, 1).to_dict())
        backend, _, _ = execute_point(
            hybrid_point("strassen", 16, 48, 1, backend="symbolic").to_dict()
        )
        for key in ("io", "reads", "writes", "peak_fast"):
            assert machine[key] == backend[key], key

    def test_metrics_carry_bounds_and_depth(self):
        m, _, _ = execute_point(hybrid_point("strassen", 16, 48, 1).to_dict())
        assert m["bound"] == min(m["bound_fast"], m["bound_classical"])
        assert m["cutoff"] == 1.0
        assert m["depth"] >= 1.0
        assert m["n_eff"] == 16.0

    def test_cutoff_sweep_through_engine(self):
        points = [
            hybrid_point("strassen", 16, 48, c, backend="symbolic")
            for c in range(3)
        ]
        res = run_sweep(points, EngineConfig(), parameter="cutoff")
        assert not res.failures
        assert [p.x for p in res.points] == [0.0, 1.0, 2.0]
        assert all(p.measured > 0 for p in res.points)
