"""Self-tests of the benchmark: ``python -m pytest loadbench/tests -q``.

The two end-to-end tests start real servers on loopback for a short
synthetic pass (about 10 s together).
"""

from __future__ import annotations

import json
import os
import pathlib

import numpy as np
import pytest

from loadbench import loadgen, workloads
from loadbench.loadgen import Op, OpStream, Outcome

ROOT = pathlib.Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def synthetic():
    from repro.datasets import load_dataset

    return load_dataset("synthetic", seed=0)


def _take(stream, n):
    return [stream.next() for _ in range(n)]


# -- op stream ---------------------------------------------------------

def test_op_stream_is_deterministic_per_seed(synthetic):
    a = _take(OpStream(3, synthetic.adj, update_every=5, zipf=1.1), 300)
    b = _take(OpStream(3, synthetic.adj, update_every=5, zipf=1.1), 300)
    c = _take(OpStream(4, synthetic.adj, update_every=5, zipf=1.1), 300)
    assert a == b
    assert a != c


def test_op_stream_shape(synthetic):
    ops = _take(OpStream(1, synthetic.adj, update_every=5, zipf=None), 600)
    reads = [op for op in ops if op.kind == "read"]
    updates = [op for op in ops if op.kind == "update"]
    assert len(updates) == 100 and len(reads) == 500
    assert {len(op.nodes) for op in reads} == set(loadgen.READ_SIZES)
    assert all(len(set(op.nodes)) == len(op.nodes) for op in reads)
    # The read after each update leads with the updated edge's endpoint.
    for i, op in enumerate(ops[:-1]):
        if op.kind == "update":
            edge = (op.ops.get("add_edges") or op.ops.get("remove_edges"))[0]
            assert ops[i + 1].fresh and ops[i + 1].nodes[0] == edge[0]


def test_every_generated_update_is_valid(synthetic):
    """Parsed like the server parses them and applied in order, no
    update is rejected, and the graph never revisits a state."""
    from repro.graphs.graph import Graph
    from repro.graphs.mutate import apply_batch
    from repro.serve.validate import parse_update_request

    graph = Graph(
        adj=synthetic.adj, features=synthetic.features, labels=synthetic.labels,
        train_mask=synthetic.train_mask, val_mask=synthetic.val_mask,
        test_mask=synthetic.test_mask, name=synthetic.name,
        num_classes=synthetic.num_classes,
    )
    stream = OpStream(7, synthetic.adj, update_every=1, zipf=1.1)
    seen = set()
    for op in _take(stream, 400):
        if op.kind != "update":
            continue
        batch = parse_update_request(
            op.body(), num_nodes=graph.num_nodes, num_features=graph.num_features)
        apply_batch(graph, batch)  # raises MutationConflict if invalid
        state = graph.adj.tocsr()
        key = (state.indptr.tobytes(), state.indices.tobytes())
        assert key not in seen
        seen.add(key)


def test_read_only_stream(synthetic):
    ops = _take(OpStream(1, synthetic.adj, update_every=0, zipf=1.1), 200)
    assert all(op.kind == "read" and not op.fresh for op in ops)


# -- percentiles and failures -----------------------------------------

def test_percentiles_state_their_sample_count():
    values = list(np.linspace(1.0, 2.0, 101))
    assert loadgen.p50(values) == loadgen.Stat(1.5, 101)
    p90 = loadgen.p90(values)
    assert p90.count == 101 and p90.value == pytest.approx(1.9)


def test_p90_refused_below_100_samples():
    with pytest.raises(ValueError, match="at least 100"):
        loadgen.p90([1.0] * 99)
    with pytest.raises(ValueError):
        loadgen.p50([])


def _outcome(status, payload, kind="read", nodes=(1,)):
    op = Op(kind, nodes=nodes) if kind == "read" else Op(kind, update_id="u", ops={})
    return Outcome(op, 0.001, status, payload,
                   loadgen.failure_reason(op, status, payload))


def test_failures_are_counted_by_reason():
    outcomes = [
        _outcome(200, {"nodes": [1], "classes": [0], "degraded": False}),
        _outcome(200, {"nodes": [1], "classes": [0], "degraded": True}),
        _outcome(429, {"error": "overloaded"}),
        _outcome(503, {"error": "unavailable"}),
        _outcome(503, {"error": "unavailable"}),
        _outcome(200, {"applied": False}, kind="update"),
        Outcome(Op("read", nodes=(1,)), 0.0, 0, None, "transport:ConnectionResetError"),
    ]
    assert loadgen.failure_counts(outcomes) == {
        "degraded": 1, "shed": 1, "http_503": 2, "update_not_applied": 1,
        "transport:ConnectionResetError": 1,
    }


def test_transport_error_is_a_failed_op():
    client = loadgen.Client("127.0.0.1", 9, timeout_s=1.0)  # discard port
    outcome = client.run(Op("read", nodes=(1,)))
    assert outcome.failure.startswith("transport:")


# -- end to end --------------------------------------------------------

@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    """An untraced and a traced pass of serve-synthetic, seed 5."""
    work_dir = pathlib.Path(tmp_path_factory.mktemp("loadbench"))
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    cpus = os.sched_getaffinity(0)
    life = workloads.Lifecycle(
        ROOT, workloads.WORKLOADS["serve-synthetic"], seed=5, seconds=0.5,
        work_dir=work_dir, cpus=sorted(cpus))
    try:
        yield life, life.run_pass(traced=False, setups=1), life.run_pass(traced=True, setups=1)
    finally:
        life.close()
        os.sched_setaffinity(0, cpus)


def test_pass_is_clean(passes):
    _, plain, traced = passes
    for p in (plain, traced):
        assert not [o.failure for o in p.outcomes if o.failure]
        assert p.probe_mismatches == 0
        assert len(p.latencies("read")) >= workloads.MIN_READS
        assert p.latencies("update") and p.latencies("read", fresh=True)


def test_probe_check_catches_a_wrong_reference(passes):
    life, plain, _ = passes
    probe_ids = [i for o in plain.probes for i in o.op.nodes]
    acked = [(o.op.update_id, o.op.ops) for o in plain.timed
             if o.op.kind == "update" and o.failure is None]
    weights = life.work_dir / "p1-weights.npz"
    right = life.reference(weights, acked, probe_ids)
    probes = [Outcome(o.op, o.seconds, o.status, o.payload, None) for o in plain.probes]
    assert workloads.mark_probe_mismatches(probes, right) == 0
    wrong = [(c + 1) % 7 for c in right]
    assert workloads.mark_probe_mismatches(probes, wrong) == len(probes)
    assert {o.failure for o in probes} == {"probe_mismatch"}


def test_tracing_changes_no_response_and_no_loss(passes):
    _, plain, traced = passes
    assert plain.train["final_loss_hex"] == traced.train["final_loss_hex"]
    a = workloads.timed_predict_responses(plain)
    b = workloads.timed_predict_responses(traced)
    n = min(len(a), len(b))
    assert n >= workloads.MIN_READS and a[:n] == b[:n]


def test_traced_pass_feeds_every_layer_metric(passes):
    from loadbench import layers

    _, _, traced = passes
    metrics = layers.layer_metrics(
        traced.trainer_trace, traced.server_trace,
        workloads.client_predict_seconds(traced), workloads.rows_served(traced),
        traced.train)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in bench["per_layer"]}
    produced = set(metrics) | {f"trace.overhead.{name}" for name in workloads.p50s(traced)}
    assert declared == produced
    for name in ("serve.server.front_us_p50", "serve.engine.predict_us_p50",
                 "perf.logitstore.lookups", "serve.engine.update_ms_p50",
                 "resilience.wal.append_ms_p50", "training.forward_ms_p50",
                 "core.gcfm.forward_ms_p50", "tensor.matmul.fwd_ms"):
        assert metrics[name]["value"] > 0, name


# -- a defect the benchmark steps around -------------------------------

@pytest.mark.xfail(raises=KeyError, strict=True,
                   reason="PropagationCache.propagate_chain assumes every power "
                          "below a cached one is cached; LRU eviction breaks that")
def test_propagation_chain_survives_evicting_a_lower_power(synthetic):
    """Revisiting a graph state whose Â¹X was evicted while Â²X stayed
    warm (what an immediate add-then-remove of one edge does on a
    server after enough updates) raises KeyError at this commit."""
    from repro.graphs.normalize import gcn_norm
    from repro.perf.propcache import PropagationCache

    adj = gcn_norm(synthetic.adj)
    x = synthetic.features
    cache = PropagationCache(capacity=2)
    cache.propagate_chain(adj, x, 2)  # caches Â¹X, Â²X
    cache.propagate(adj, x, 2)  # a warm hit refreshes Â²X only
    cache.propagate(adj, x + 1.0, 1)  # evicts the least recent: Â¹X
    chain = cache.propagate_chain(adj, x, 2)
    assert len(chain) == 2
