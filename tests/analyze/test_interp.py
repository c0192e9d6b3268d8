"""The abstract interpreter mirrors the exact engine byte for byte."""

import pytest

from repro.analyze import build_token_twin, default_tokens, interp, interpret
from repro.dataflow.engine import DataflowEngine
from repro.dataflow.graph import DataflowGraph
from repro.errors import AnalyzeError
from repro.lint.spec import SpecStage

from .conftest import chain_graph, fork_join_graph


def engine_run(graph, tokens):
    return DataflowEngine(build_token_twin(graph, tokens)).run()


class TestEngineEquivalence:
    """interpret(graph) == DataflowEngine(token twin) on every counter."""

    @pytest.mark.parametrize("tokens", [0, 1, 2, 7, 60])
    def test_chain_cycles_and_fires(self, tokens):
        graph = chain_graph(3, latency=3, depth=4)
        run = interpret(graph, tokens)
        stats = engine_run(graph, tokens)
        assert run.cycles == stats.cycles
        assert run.fires == stats.fires

    @pytest.mark.parametrize("fast_depth", [2, 4, 25])
    def test_fork_join_cycles_match_even_under_backpressure(self,
                                                            fast_depth):
        graph = fork_join_graph(fast_depth=fast_depth, slow_latency=20)
        tokens = 50
        run = interpret(graph, tokens)
        stats = engine_run(graph, tokens)
        assert run.cycles == stats.cycles
        assert run.fires == stats.fires

    def test_stall_counters_match(self):
        graph = fork_join_graph(fast_depth=2, slow_latency=20)
        run = interpret(graph, 40)
        stats = engine_run(graph, 40)
        for name, counts in run.stalls.items():
            assert counts["input"] == stats.stalls[name]["input"]
            assert counts["output"] == stats.stalls[name]["output"]
            assert counts["ii"] == stats.stalls[name]["ii"]
            assert counts["pipeline"] == stats.stalls[name]["pipeline"]

    @pytest.mark.parametrize("ii", [1, 2, 3])
    def test_ii_limited_chain_matches(self, ii):
        graph = chain_graph(2, latency=2, ii=ii, depth=3)
        run = interpret(graph, 30)
        stats = engine_run(graph, 30)
        assert run.cycles == stats.cycles


class TestAcceleration:
    """Periodicity acceleration changes cost, never results."""

    @pytest.mark.parametrize("graph_fn", [
        lambda: chain_graph(3, latency=4, depth=4),
        lambda: fork_join_graph(fast_depth=2, slow_latency=20),
        lambda: fork_join_graph(fast_depth=25, slow_latency=20),
    ])
    def test_accelerated_equals_exact(self, graph_fn):
        graph = graph_fn()
        fast = interpret(graph, 200, accelerate=True)
        slow = interpret(graph, 200, accelerate=False)
        assert fast.cycles == slow.cycles
        assert fast.fires == slow.fires
        assert fast.stream_high_water == slow.stream_high_water
        assert fast.advances > 0
        assert slow.advances == 0

    def test_acceleration_makes_cost_token_independent(self):
        graph = chain_graph(2, latency=2)
        small = interpret(graph, 1_000)
        large = interpret(graph, 1_000_000)
        # Same transient + period work; only the analytic jump differs.
        assert large.cycles - small.cycles == 999_000
        assert large.advances <= small.advances + 2


class TestPeriodProof:
    def test_unit_rate_chain_has_period_one(self):
        run = interpret(chain_graph(3), 100)
        assert run.period is not None
        assert run.period.cycles == run.period.tokens_per_period

    def test_under_depth_fork_join_period_is_collapsed(self):
        run = interpret(fork_join_graph(fast_depth=2, slow_latency=20), 100)
        assert run.period is not None
        # Sustained rate is worse than 1 token/cycle: the proof shows it.
        assert run.period.cycles > run.period.tokens_per_period


class TestWitnesses:
    def test_stall_free_run_has_no_witness(self):
        run = interpret(chain_graph(3), 50)
        assert run.safe and run.first_stall is None
        assert all(n == 0 for n in run.stream_full_stalls.values())

    def test_backpressure_witness_names_the_full_stream(self):
        run = interpret(fork_join_graph(fast_depth=2, slow_latency=20), 50)
        assert run.safe  # marked-graph liveness: it still completes
        assert run.first_stall is not None
        assert run.first_stall.kind == "backpressure"
        assert "fork.a->join.a" in run.first_stall.describe()
        occupancy, depth = run.first_stall.streams["fork.a->join.a"]
        assert occupancy == depth == 2


class TestUnboundedMode:
    def test_unbounded_high_water_is_the_minimal_depth(self):
        graph = fork_join_graph(fast_depth=2, slow_latency=20)
        run = interpret(graph, 100, bounded=False)
        # The fast branch must buffer the whole latency skew.
        assert run.stream_high_water["fork.a->join.a"] == 21
        assert all(n == 0 for n in run.stream_full_stalls.values())

    def test_unbounded_run_is_stall_free_by_construction(self):
        run = interpret(fork_join_graph(fast_depth=2), 60, bounded=False)
        assert run.cycles < interpret(
            fork_join_graph(fast_depth=2), 60).cycles


class TestGuards:
    def test_negative_tokens_rejected(self):
        with pytest.raises(AnalyzeError, match="tokens"):
            interpret(chain_graph(1), -1)

    def test_structurally_broken_graph_rejected(self):
        graph = DataflowGraph("broken")
        graph.add(SpecStage("src", outputs=("out",)))
        with pytest.raises(AnalyzeError, match="not analyzable"):
            interpret(graph, 4)

    def test_default_tokens_reaches_steady_state(self):
        graph = chain_graph(4, latency=6)
        run = interpret(graph, default_tokens(graph))
        assert run.period is not None

    def test_to_dict_round_trips_key_fields(self):
        run = interpret(chain_graph(2), 20)
        data = run.to_dict()
        assert data["cycles"] == run.cycles
        assert data["safe"] is True
        assert set(data["fires"]) == set(run.fires)


class TestMemo:
    def test_repeat_returns_the_shared_run(self):
        graph = fork_join_graph(fast_depth=2, slow_latency=20)
        assert interpret(graph, 50) is interpret(graph, 50)
        assert interpret(graph, 50) is not interpret(graph, 51)

    def test_mutating_a_returned_run_raises(self):
        graph = fork_join_graph(fast_depth=2, slow_latency=20)
        run = interpret(graph, 50)
        before = run.to_dict()
        with pytest.raises(TypeError):
            run.fires["src"] = 0
        with pytest.raises(TypeError):
            run.stalls["join"]["input"] = 0
        with pytest.raises(TypeError):
            del run.stream_high_water["fork.a->join.a"]
        with pytest.raises(TypeError):
            run.period.fires["src"] = 0
        with pytest.raises(TypeError):
            run.first_stall.streams["fork.a->join.a"] = (0, 0)
        assert interpret(graph, 50).to_dict() == before

    def test_cap_evicts_the_least_recently_used_run(self):
        graph = chain_graph(1, latency=1)
        oldest = interpret(graph, 0)
        kept = interpret(graph, 1)
        for tokens in range(2, interp._MEMO_CAP + 1):
            interpret(graph, tokens)
            interpret(graph, 1)  # keep one early run recently used
        assert len(interp._MEMO) == interp._MEMO_CAP
        assert interpret(graph, 1) is kept
        again = interpret(graph, 0)
        assert again is not oldest
        assert again == oldest
