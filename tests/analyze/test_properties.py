"""Property tests: on random acyclic graphs the proofs equal the engine.

Random small layered DAGs (every stage reachable from a source, every
port wired exactly once) are pushed through both the abstract
interpreter and the exact :class:`DataflowEngine` on the token twin.
The analyzer's total-cycle claim must equal the measured count exactly,
and deadlock-safe graphs must complete within the engine's watchdog.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyze import analyze_graph, build_token_twin, interp, interpret
from repro.dataflow.engine import DataflowEngine
from repro.dataflow.graph import DataflowGraph
from repro.errors import AnalyzeError
from repro.lint.spec import SpecStage


@st.composite
def random_dag(draw):
    """A random layered DAG of unit-rate relays with random timing."""
    n_layers = draw(st.integers(1, 3))
    widths = [draw(st.integers(1, 3)) for _ in range(n_layers)]
    graph = DataflowGraph("prop")
    graph.add(SpecStage("src", outputs=("out",),
                        latency=draw(st.integers(1, 4))))
    previous = ["src.out"]
    for layer, width in enumerate(widths):
        for index in range(width):
            name = f"l{layer}n{index}"
            # Each node consumes one open upstream output and opens one
            # or two of its own, so the pool never runs dry (and wiring
            # only ever points at earlier-created nodes: acyclic).
            n_outs = draw(st.integers(1, 2))
            graph.add(SpecStage(
                name,
                inputs=("in",),
                outputs=tuple(f"o{k}" for k in range(n_outs)),
                ii=draw(st.integers(1, 2)),
                latency=draw(st.integers(1, 6)),
            ))
            src_stage, src_port = draw(st.sampled_from(previous)).split(".")
            previous.remove(f"{src_stage}.{src_port}")
            graph.connect(src_stage, src_port, name, "in",
                          depth=draw(st.integers(1, 6)))
            previous.extend(f"{name}.o{k}" for k in range(n_outs))
    # A fan-in sink drains every remaining open output port.
    graph.add(SpecStage("sink",
                        inputs=tuple(f"i{k}" for k in range(len(previous)))))
    for k, endpoint in enumerate(previous):
        src_stage, src_port = endpoint.split(".")
        graph.connect(src_stage, src_port, "sink", f"i{k}",
                      depth=draw(st.integers(1, 6)))
    tokens = draw(st.integers(0, 60))
    return graph, tokens


@settings(max_examples=60, deadline=None)
@given(random_dag())
def test_analyzer_total_equals_engine_measured(params):
    graph, tokens = params
    report = analyze_graph(graph, tokens)
    stats = DataflowEngine(build_token_twin(graph, tokens)).run()
    assert report.schedule.total_cycles == stats.cycles
    assert report.occupancy.safe


@settings(max_examples=40, deadline=None)
@given(random_dag())
def test_safe_graphs_complete_under_the_engine_watchdog(params):
    graph, tokens = params
    report = analyze_graph(graph, tokens)
    assert report.safe
    # The proved total *is* a sound watchdog budget: the engine finishes
    # within it (+1 for the watchdog's >= check firing post-cycle).
    budget = report.schedule.total_cycles + 1
    stats = DataflowEngine(build_token_twin(graph, tokens),
                           watchdog=budget).run()
    assert stats.cycles <= budget


@settings(max_examples=40, deadline=None)
@given(random_dag())
def test_acceleration_never_changes_the_proof(params):
    graph, tokens = params
    fast = interpret(graph, tokens, accelerate=True)
    slow = interpret(graph, tokens, accelerate=False)
    assert fast.cycles == slow.cycles
    assert fast.fires == slow.fires
    assert fast.stream_high_water == slow.stream_high_water
    assert fast.stream_full_stalls == slow.stream_full_stalls


@settings(max_examples=30, deadline=None)
@given(random_dag(), st.integers(0, 40))
def test_minimal_depths_are_sufficient_and_token_independent(params, extra):
    graph, tokens = params
    report = analyze_graph(graph, tokens)
    larger = analyze_graph(graph, tokens + extra)
    if report.occupancy.period is not None and extra == 0:
        assert (report.occupancy.minimal_depths()
                == larger.occupancy.minimal_depths())
    # Rebuild the same graph with the proved minimal depths: stall-free.
    rebuilt = rebuild(graph, report.occupancy.minimal_depths())
    fixed = analyze_graph(rebuilt, tokens)
    assert fixed.occupancy.stall_free


def rebuild(graph, depths, *, dangling_input_on=None):
    """A fresh copy of ``graph`` with stream depths from ``depths``.

    ``dangling_input_on`` names a stage that also declares an input port
    left unconnected (a structurally broken near-twin).
    """
    rebuilt = DataflowGraph(graph.name)
    for stage in graph.stages:
        extra = ("dangling",) if stage.name == dangling_input_on else ()
        rebuilt.add(SpecStage(stage.name, inputs=stage.input_ports + extra,
                              outputs=stage.output_ports, ii=stage.ii,
                              latency=stage.latency))
    for conn in graph.connections():
        rebuilt.connect(conn.src.name, conn.src_port, conn.dst.name,
                        conn.dst_port, depth=depths[conn.stream.name])
    return rebuilt


def fresh_interpret(graph, tokens, **kwargs):
    """An uncached interpretation (the memo emptied first)."""
    interp._MEMO.clear()
    return interpret(graph, tokens, **kwargs)


@settings(max_examples=40, deadline=None)
@given(random_dag(), st.booleans(), st.booleans())
def test_memo_hit_equals_a_fresh_interpretation(params, bounded,
                                                accelerate):
    graph, tokens = params
    kwargs = {"bounded": bounded, "accelerate": accelerate}
    interpret(graph, tokens, **kwargs)
    hit = interpret(graph, tokens, **kwargs)
    fresh = fresh_interpret(graph, tokens, **kwargs)
    assert fresh is not hit
    assert fresh == hit
    assert fresh.to_dict() == hit.to_dict()


@settings(max_examples=40, deadline=None)
@given(random_dag(), st.data())
def test_memo_sees_a_depth_changed_in_place(params, data):
    graph, tokens = params
    stream = data.draw(st.sampled_from(graph.streams))
    before = interpret(graph, tokens)
    stream.depth = data.draw(
        st.integers(1, 6).filter(lambda depth: depth != stream.depth))
    after = interpret(graph, tokens)
    assert after is not before
    assert after == fresh_interpret(graph, tokens)


@settings(max_examples=30, deadline=None)
@given(random_dag(), st.data())
def test_memo_never_serves_a_broken_near_twin(params, data):
    graph, tokens = params
    interpret(graph, tokens)
    victim = data.draw(st.sampled_from(
        [stage.name for stage in graph.stages if stage.input_ports]))
    depths = {stream.name: stream.depth for stream in graph.streams}
    broken = rebuild(graph, depths, dangling_input_on=victim)
    with pytest.raises(AnalyzeError, match="not analyzable"):
        interpret(broken, tokens)
