"""Per-layer timing for the traced run, by wrapping the program at runtime.

Nothing here edits the program: :func:`install` replaces public
functions and methods of ``repro`` with timing wrappers inside the
process it is called in (the trainer or the server launched by
``loadbench/program.py``), and :meth:`LayerRecorder.dump` writes what
they saw to a JSON file the benchmark reads back.  Only the outermost
call of each wrapped name is recorded, so a subclass calling
``super().predict()`` is not counted twice.

:func:`layer_metrics` turns the trainer's and the server's dumps, plus
the client's own latencies, into the per-layer metrics named in
``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import statistics
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

TENSOR_OPS = ("matmul", "spmm", "add", "mul")


class LayerRecorder:
    """Durations and counts per wrapped name, for one process."""

    def __init__(self) -> None:
        self.seconds: Dict[str, List[float]] = defaultdict(list)
        self.values: Dict[str, List[float]] = defaultdict(list)
        self._local = threading.local()

    def _depth(self) -> Dict[str, int]:
        depth = getattr(self._local, "depth", None)
        if depth is None:
            depth = self._local.depth = defaultdict(int)
        return depth

    def wrap(
        self,
        name: str,
        original: Callable,
        observe: Optional[Callable] = None,
    ) -> Callable:
        """A wrapper timing ``original`` under ``name``.

        ``observe(args, result, record)`` may add derived values (hit or
        miss, rows computed) through ``record(key, value)``.
        """
        recorder = self

        def record(key: str, value: float) -> None:
            recorder.values[key].append(value)

        def timed(*args, **kwargs):
            depth = recorder._depth()
            if depth[name]:
                return original(*args, **kwargs)
            depth[name] += 1
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                depth[name] -= 1
            recorder.seconds[name].append(elapsed)
            if observe is not None:
                observe(args, result, record)
            return result

        timed.__name__ = getattr(original, "__name__", name)
        timed.__wrapped__ = original
        return timed

    def dump(self, path: str, **extra) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"seconds": self.seconds, "values": self.values, **extra}, fh
            )


def _replace_everywhere(original: Callable, replacement: Callable) -> None:
    """Point every ``repro`` module attribute bound to ``original`` at
    ``replacement`` (modules that did ``from x import f`` hold their own
    reference)."""
    for modname, module in list(sys.modules.items()):
        if not modname.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _wrap_method(recorder, cls, attr, name, observe=None) -> None:
    """Wrap ``cls.attr`` and every subclass override of it."""
    pending = [cls]
    seen = set()
    while pending:
        klass = pending.pop()
        if klass in seen:
            continue
        seen.add(klass)
        pending.extend(klass.__subclasses__())
        if attr in vars(klass):
            setattr(
                klass, attr, recorder.wrap(name, vars(klass)[attr], observe)
            )


def _wrap_function(recorder, module, attr, name, observe=None) -> None:
    original = getattr(module, attr)
    _replace_everywhere(original, recorder.wrap(name, original, observe))


def install(recorder: LayerRecorder) -> None:
    """Wrap the public entry points of every layer the benchmark traces."""
    # Import everything first so subclass lists and by-name imports exist.
    import repro.core  # noqa: F401
    import repro.models  # noqa: F401
    import repro.serve  # noqa: F401
    import repro.training  # noqa: F401
    from repro import datasets
    from repro.core.aggregators import WeightedAggregator
    from repro.core.gcfm import GCFMLayer
    from repro.graphs import mutate
    from repro.models.base import GNNModel
    from repro.models.convs import GraphConv
    from repro.nn.optim import Adam
    from repro.perf.logitstore import LogitStore
    from repro.perf.propcache import PropagationCache
    from repro.resilience.wal import GraphMutationLog
    from repro.serve import validate
    from repro.serve.engine import InferenceEngine
    from repro.serve.server import ModelServer
    from repro.tensor.tensor import Tensor

    def store_hit(args, result, record):
        record("perf.logitstore.hit", 0.0 if result is None else 1.0)

    def store_rejected(args, result, record):
        store, logits = args[0], args[2]
        record("perf.logitstore.rejected",
               1.0 if logits.nbytes > store.max_bytes else 0.0)

    def rows_computed(args, result, record):
        if isinstance(result, tuple):  # forward(..., return_hidden=True)
            result = result[0]
        if result is not None:
            record("models.rows_computed", float(len(getattr(result, "data", result))))

    def dirty_fraction(args, result, record):
        adj, power = args[0], args[2]
        record(f"graphs.mutate.dirty_frac@{power}", len(result) / max(adj.shape[0], 1))

    _wrap_method(recorder, ModelServer, "handle_predict", "serve.server.handle_predict")
    _wrap_function(recorder, validate, "parse_predict_request", "serve.validate.parse")
    _wrap_method(recorder, InferenceEngine, "predict", "serve.engine.predict")
    _wrap_method(recorder, InferenceEngine, "apply_update", "serve.engine.update")
    _wrap_method(recorder, LogitStore, "get_rows", "perf.logitstore.get_rows", store_hit)
    _wrap_method(recorder, LogitStore, "put", "perf.logitstore.put", store_rejected)
    _wrap_method(recorder, LogitStore, "invalidate_rows", "perf.logitstore.invalidate")
    _wrap_method(recorder, LogitStore, "migrate", "perf.logitstore.invalidate")
    _wrap_method(recorder, PropagationCache, "migrate_propagation", "perf.propcache.migrate")
    _wrap_method(recorder, GraphMutationLog, "append", "resilience.wal.append")
    _wrap_function(recorder, mutate, "apply_batch", "graphs.mutate.apply")
    _wrap_function(recorder, mutate, "incremental_gcn_norm", "graphs.mutate.renorm")
    _wrap_function(recorder, mutate, "dirty_rows", "graphs.mutate.dirty_rows", dirty_fraction)
    _wrap_method(recorder, GNNModel, "predict", "models.predict")
    # The server calls forward (or restricted_logits) directly.
    _wrap_method(recorder, GNNModel, "forward", "models.forward", rows_computed)
    _wrap_method(recorder, GNNModel, "restricted_logits", "models.forward", rows_computed)
    _wrap_method(recorder, GNNModel, "training_batch", "training.forward")
    _wrap_method(recorder, Tensor, "backward", "training.backward")
    _wrap_method(recorder, Adam, "step", "nn.optim.step")
    _wrap_method(recorder, GCFMLayer, "forward", "core.gcfm.forward")
    _wrap_method(recorder, WeightedAggregator, "forward", "core.aggregator.forward")
    _wrap_method(recorder, GraphConv, "forward", "models.conv.forward")
    _wrap_function(recorder, datasets, "load_dataset", "datasets.load")


def op_summary(profiler) -> Dict[str, Dict]:
    """The parts of an ``OpProfiler`` summary the metrics use."""
    return {
        name: {
            "forward_s": stat["forward_s"],
            "backward_s": stat["backward_s"],
            "output_bytes": stat["output_bytes"],
        }
        for name, stat in profiler.summary().items()
    }


# -- metrics -----------------------------------------------------------

def _p50(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def metric(value: float, unit: str) -> dict:
    """One metric as the result line prints it."""
    return {"value": float(value), "unit": unit}


def _widest_dirty(values: Dict[str, List[float]]) -> List[float]:
    """Dirty-row fractions at the largest power ``dirty_rows`` was asked
    for: the rows an update actually invalidates downstream."""
    powers = [int(key.split("@")[1]) for key in values
              if key.startswith("graphs.mutate.dirty_frac@")]
    return values[f"graphs.mutate.dirty_frac@{max(powers)}"] if powers else []


def layer_metrics(
    trainer: dict,
    server: dict,
    client_predict_s: List[float],
    rows_served: int,
    train_report: dict,
) -> Dict[str, dict]:
    """Per-layer metrics from the trainer's and server's dumps.

    ``client_predict_s`` are the client-observed latencies of every
    ``/predict`` the traced server answered, in order; the server's
    ``handle_predict`` durations pair with them one to one because the
    load generator keeps a single connection in a closed loop.
    """
    ts = trainer["seconds"]
    ss, sv = server["seconds"], server["values"]

    def ms(seconds, key):
        return _p50(seconds.get(key, [])) * 1e3

    def us(seconds, key):
        return _p50(seconds.get(key, [])) * 1e6

    handled = ss.get("serve.server.handle_predict", [])
    front = [c - h for c, h in zip(client_predict_s, handled)]
    hits = sv.get("perf.logitstore.hit", [])
    forwards = ss.get("models.forward", [])
    computed = sum(sv.get("models.rows_computed", []))
    out = {
        "serve.server.front_us_p50": metric(_p50(front) * 1e6, "us"),
        "serve.validate.parse_us_p50": metric(us(ss, "serve.validate.parse"), "us"),
        "serve.engine.predict_us_p50": metric(us(ss, "serve.engine.predict"), "us"),
        "perf.logitstore.hit_ratio": metric(
            sum(hits) / len(hits) if hits else 0.0, "ratio"),
        "perf.logitstore.lookups": metric(len(hits), "count"),
        "perf.logitstore.put_rejected": metric(
            sum(sv.get("perf.logitstore.rejected", [])), "count"),
        "perf.logitstore.get_rows_us_p50": metric(
            us(ss, "perf.logitstore.get_rows"), "us"),
        "perf.logitstore.invalidate_ms_p50": metric(
            ms(ss, "perf.logitstore.invalidate"), "ms"),
        "perf.propcache.migrate_ms_p50": metric(
            ms(ss, "perf.propcache.migrate"), "ms"),
        "models.forward_count": metric(len(forwards), "count"),
        "models.forward_ms_p50": metric(ms(ss, "models.forward"), "ms"),
        "models.rows_computed_per_row_served": metric(
            computed / rows_served if rows_served else 0.0, "ratio"),
        "serve.engine.update_ms_p50": metric(ms(ss, "serve.engine.update"), "ms"),
        "resilience.wal.append_ms_p50": metric(ms(ss, "resilience.wal.append"), "ms"),
        "graphs.mutate.apply_ms_p50": metric(ms(ss, "graphs.mutate.apply"), "ms"),
        "graphs.mutate.renorm_ms_p50": metric(ms(ss, "graphs.mutate.renorm"), "ms"),
        "graphs.mutate.dirty_frac": metric(_p50(_widest_dirty(sv)), "ratio"),
        "training.forward_ms_p50": metric(ms(ts, "training.forward"), "ms"),
        "training.backward_ms_p50": metric(ms(ts, "training.backward"), "ms"),
        "training.eval_ms_p50": metric(ms(ts, "models.predict"), "ms"),
        "nn.optim.step_ms_p50": metric(ms(ts, "nn.optim.step"), "ms"),
        "core.gcfm.forward_ms_p50": metric(ms(ts, "core.gcfm.forward"), "ms"),
        "core.aggregator.forward_ms_p50": metric(
            ms(ts, "core.aggregator.forward"), "ms"),
        "models.conv.forward_ms_p50": metric(ms(ts, "models.conv.forward"), "ms"),
        "datasets.load_ms": metric(ms(ts, "datasets.load"), "ms"),
        "training.final_loss": metric(train_report["final_loss"], "nats"),
    }
    epochs = len(train_report["epoch_s"]) + 1  # the profiler saw every epoch
    train_ops = trainer.get("ops", {})
    serve_ops = server.get("ops", {})
    for op in TENSOR_OPS:
        stat = train_ops.get(op, {})
        out[f"tensor.{op}.fwd_ms"] = metric(
            stat.get("forward_s", 0.0) * 1e3 / epochs, "ms")
        out[f"tensor.{op}.bwd_ms"] = metric(
            stat.get("backward_s", 0.0) * 1e3 / epochs, "ms")
        served = serve_ops.get(op, {}).get("forward_s", 0.0)
        out[f"tensor.{op}.serve_fwd_ms"] = metric(
            served * 1e3 / len(forwards) if forwards else 0.0, "ms")
    alloc = sum(stat["output_bytes"] for stat in train_ops.values())
    out["tensor.alloc_mb_per_epoch"] = metric(alloc / epochs / 2**20, "MB")
    return out
