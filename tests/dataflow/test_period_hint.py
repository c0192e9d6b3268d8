"""The compiled ``period_hint``: batched windows without the recurrence hunt.

For unit-rate graphs :func:`~repro.dataflow.compiled.compile_graph`
attaches the occupancy prover's steady-state period, and the engine
arms one probe at that horizon instead of building a fingerprint table.
The hint is only ever a probe horizon: a *wrong* hint may cost speed but
never correctness, so every run here must stay bit-identical to the
forced-scalar reference.
"""

import pytest

from repro.analyze import analyze_graph, build_token_twin
from repro.dataflow import compiled as compiled_module
from repro.dataflow import engine as engine_module
from repro.dataflow.engine import DataflowEngine
from repro.dataflow.graph import DataflowGraph
from repro.dataflow.monitors import StreamProbe
from repro.dataflow.stage import FunctionStage, SinkStage, SourceStage
from repro.lint.spec import SpecStage

#: RunStats keys that legitimately differ between scalar and batched runs.
BATCH_KEYS = ("batched_windows", "batched_cycles", "batch_fallback_reason")


def pipeline(n_items=400, *, fn_ii=1, fn_latency=4, depth=4):
    g = DataflowGraph("p")
    src = g.add(SourceStage("src", range(n_items)))
    fn = g.add(FunctionStage("fn", lambda x: 2 * x, ii=fn_ii,
                             latency=fn_latency))
    sink = g.add(SinkStage("sink"))
    g.connect(src, "out", fn, "in", depth=depth)
    g.connect(fn, "out", sink, "in", depth=depth)
    return g


def collected(graph):
    (sink,) = [s for s in graph.stages if isinstance(s, SinkStage)]
    return sink.collected


def without_batching(stats):
    d = stats.to_dict()
    for key in BATCH_KEYS:
        d.pop(key)
    return d


@pytest.fixture
def force_hint(monkeypatch):
    """Override the compiled graph's period hint for the next runs."""
    def install(hint):
        def compile_with_hint(graph, **kwargs):
            compiled = compiled_module.compile_graph(graph, **kwargs)
            compiled.period_hint = hint
            return compiled

        monkeypatch.setattr(engine_module, "compile_graph",
                            compile_with_hint)
    return install


class TestHint:
    @pytest.mark.parametrize("fn_ii", [1, 2, 3])
    def test_unit_rate_graph_gets_its_static_period(self, fn_ii):
        assert compiled_module.compile_graph(
            pipeline(fn_ii=fn_ii)).period_hint == fn_ii

    def test_analyzer_period_feeds_the_engine(self):
        """End to end: the statically proved period is the probe horizon."""
        graph = DataflowGraph("chain")
        graph.add(SpecStage("src", outputs=("out",), latency=1))
        graph.add(SpecStage("fn", inputs=("in",), outputs=("out",),
                            ii=2, latency=3))
        graph.add(SpecStage("sink", inputs=("in",)))
        graph.connect("src", "out", "fn", "in", depth=4)
        graph.connect("fn", "out", "sink", "in", depth=4)
        tokens = 500
        report = analyze_graph(graph, tokens)
        twin = build_token_twin(graph, tokens)
        assert compiled_module.compile_graph(twin).period_hint \
            == report.occupancy.period.cycles
        stats_scalar = DataflowEngine(build_token_twin(graph, tokens),
                                      batched=False).run()
        stats = DataflowEngine(twin).run()
        assert without_batching(stats) == without_batching(stats_scalar)
        assert stats.cycles == report.schedule.total_cycles
        assert stats.batched_windows >= 1

    def test_probe_batches_most_of_a_long_run(self):
        stats = DataflowEngine(pipeline(5000)).run()
        assert stats.batched_cycles > 4000
        assert stats.batched_windows >= 1


class TestWrongHint:
    @pytest.mark.parametrize("fn_ii,hint", [
        (1, 7),    # a multiple of the true period: still recurs
        (1, 997),  # longer than most of the run
        (2, 3),    # never a multiple: the probe never matches
        (3, 1),    # shorter than the true period
    ])
    def test_wrong_hint_is_safe_just_slower(self, force_hint, fn_ii, hint):
        g_scalar = pipeline(fn_ii=fn_ii)
        stats_scalar = DataflowEngine(g_scalar, batched=False).run()
        force_hint(hint)
        g = pipeline(fn_ii=fn_ii)
        stats = DataflowEngine(g).run()
        assert without_batching(stats) == without_batching(stats_scalar)
        assert collected(g) == collected(g_scalar)
        for s_scalar, s_batched in zip(g_scalar.streams, g.streams):
            assert s_batched.stats.pushes == s_scalar.stats.pushes
            assert s_batched.stats.pops == s_scalar.stats.pops

    def test_a_multiple_of_the_period_still_batches(self, force_hint):
        force_hint(7)
        stats = DataflowEngine(pipeline()).run()
        assert stats.batched_windows >= 1

    def test_wrong_hint_under_a_strided_monitor(self, force_hint):
        probe_scalar = StreamProbe("src.out->fn.in", stride=50)
        stats_scalar = DataflowEngine(pipeline(fn_ii=2), batched=False,
                                      monitors=[probe_scalar]).run()
        force_hint(3)
        probe = StreamProbe("src.out->fn.in", stride=50)
        stats = DataflowEngine(pipeline(fn_ii=2), monitors=[probe]).run()
        assert without_batching(stats) == without_batching(stats_scalar)
        assert probe.samples == probe_scalar.samples
