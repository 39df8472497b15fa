"""The workloads, and the train → serve → check lifecycle of one run.

Every workload goes through the same lifecycle, the one a user of this
repository follows:

1. **train** — a child process fits the model with ``Trainer.fit`` for a
   fixed number of epochs (early stopping off) and saves the weights.
   Epoch 1 counts toward set-up; the rest are timed.
2. **serve** — ``python -m repro serve … --checkpoint <weights>
   --wal-dir <fresh dir>`` is started (three times in an untraced run,
   for the set-up median; the last one serves), and one keep-alive
   connection drives it in a closed loop with the seed's op stream for
   the run's seconds (and at least 100 reads, so p90 has ten samples
   beyond it).
3. **check** — a fixed probe set is read back; its argmax classes must
   equal ``model.predict`` on the base graph rebuilt with every
   acknowledged update replayed through ``repro.graphs.mutate``.

The workloads differ in graph, model, scale and traffic; README.md says
why each was chosen.
"""

from __future__ import annotations

import ctypes
import dataclasses
import json
import os
import pathlib
import re
import signal
import statistics
import subprocess
import sys
import time
import urllib.error
import urllib.request
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from loadbench import loadgen
from loadbench.layers import metric
from loadbench.program import DATASET_SEED, build_model

MIN_READS = loadgen.P90_MIN_SAMPLES
SERVE_CAP_S = 150.0  # a serve phase stops here even short of MIN_READS
TRAIN_TIMEOUT_S = 150.0
WARMUP_READS = 200
WARMUP_S = 1.0
WARMUP_SEED = 7919  # offset from the run seed: warm-up reads differ from timed ones
PROBES = 32
PROBE_SEED = 20220601
PROBE_CHUNK = 16


class BenchError(RuntimeError):
    """The run could not measure (as opposed to measuring a failure)."""


@dataclasses.dataclass(frozen=True)
class Workload:
    """One workload; README.md gives the reasons for each choice."""

    name: str
    dataset: str
    scale: Optional[float]
    model: str
    epochs: int  # including epoch 1, which counts toward set-up
    update_every: int  # one update per this many reads
    zipf: Optional[float]  # read popularity exponent; None is uniform
    deadline_ms: float
    aggregator: str = "weighted"
    layers: int = 5

    def repro_args(self) -> List[str]:
        args = [self.dataset]
        if self.scale is not None:
            args += ["--scale", str(self.scale)]
        return args + [
            "--model", self.model, "--aggregator", self.aggregator,
            "--layers", str(self.layers), "--seed", str(DATASET_SEED),
        ]


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "serve-synthetic",
        dataset="synthetic", scale=None, model="lasagne", epochs=20,
        update_every=50, zipf=1.1, deadline_ms=250.0,
    ),
    Workload(
        "serve-tencent",
        dataset="tencent", scale=0.1, model="sgc", epochs=6,
        update_every=5, zipf=None, deadline_ms=60000.0,
    ),
    Workload(
        "train-tencent",
        dataset="tencent", scale=0.005, model="lasagne", epochs=4,
        update_every=2000, zipf=1.1, deadline_ms=60000.0,
    ),
)}


# -- processes ---------------------------------------------------------

ROTATE_S = 0.5  # how long the run stays on one CPU
PR_SET_PDEATHSIG = 1


def _die_with_parent() -> None:
    """In the child before exec: SIGTERM it if the benchmark dies, so no
    program process outlives the run."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(PR_SET_PDEATHSIG, signal.SIGTERM)


def _set_affinity(pid: int, cpus: Set[int]) -> None:
    """Move every thread of ``pid`` (threads started later inherit it)."""
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return
    for tid in tids:
        try:
            os.sched_setaffinity(int(tid), cpus)
        except OSError:  # the thread has just exited
            pass


class Programs:
    """Starts the program's processes: unbuffered, single-threaded BLAS,
    with ``src`` on the path, output to files in ``work_dir``.

    The benchmark and every live program process share one CPU at a
    time.  :meth:`tick`, called from every waiting loop, moves them all
    to the next CPU every ``ROTATE_S``: on a shared host each CPU's speed
    swings by up to 1.5x within seconds, and spending equal time on each
    averages those swings out of the run (README.md, environment).
    """

    def __init__(self, root: pathlib.Path, work_dir: pathlib.Path,
                 cpus: Sequence[int]) -> None:
        self.root = root
        self.work_dir = work_dir
        self.cpus = sorted(cpus)
        self.env = dict(os.environ, PYTHONUNBUFFERED="1")
        self.env["PYTHONPATH"] = str(root / "src")
        self.live: List[subprocess.Popen] = []
        self._count = 0
        self._cpu = 0
        self._moved = time.monotonic()
        os.sched_setaffinity(0, {self.cpus[0]})

    def tick(self) -> None:
        if len(self.cpus) < 2 or time.monotonic() - self._moved < ROTATE_S:
            return
        self._cpu = (self._cpu + 1) % len(self.cpus)
        self._moved = time.monotonic()
        cpu = {self.cpus[self._cpu]}
        os.sched_setaffinity(0, cpu)
        for proc in self.live:
            _set_affinity(proc.pid, cpu)

    def start(self, argv: Sequence[str], label: str) -> Tuple[subprocess.Popen, pathlib.Path]:
        self._count += 1
        log = self.work_dir / f"{self._count:02d}-{label}.log"
        with open(log, "wb") as out:
            # The child inherits this process's single-CPU affinity.
            proc = subprocess.Popen(
                [sys.executable, *argv], cwd=self.root, env=self.env,
                stdout=out, stderr=subprocess.STDOUT,
                preexec_fn=_die_with_parent,
            )
        self.live.append(proc)
        return proc, log

    def wait(self, proc: subprocess.Popen, timeout_s: float) -> int:
        deadline = time.monotonic() + timeout_s
        while proc.poll() is None:
            if time.monotonic() > deadline:
                raise subprocess.TimeoutExpired(proc.args, timeout_s)
            self.tick()
            time.sleep(0.01)
        return proc.returncode

    def stop(self, proc: subprocess.Popen, timeout_s: float = 30.0) -> None:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                self.wait(proc, timeout_s)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if proc in self.live:
            self.live.remove(proc)

    def stop_all(self) -> None:
        for proc in list(self.live):
            self.stop(proc, timeout_s=10.0)


class Server:
    """One ``repro serve`` process, ready when ``/readyz`` answered 200."""

    URL = re.compile(rb"serving \S+ on http://([\d.]+):(\d+)")

    def __init__(self, programs: Programs, workload: Workload, weights: pathlib.Path,
                 wal_dir: pathlib.Path, trace_out: Optional[pathlib.Path]) -> None:
        args = ["serve", *workload.repro_args(),
                "--checkpoint", str(weights), "--port", "0",
                "--deadline-ms", str(workload.deadline_ms),
                "--wal-dir", str(wal_dir)]
        if trace_out is None:
            argv = ["-m", "repro", *args]
        else:
            argv = ["loadbench/program.py", "serve",
                    "--trace-out", str(trace_out), "--", *args]
        self.programs = programs
        start = time.monotonic()
        self.proc, self.log = programs.start(argv, "serve")
        self.host, self.port = self._address()
        self._wait_ready()
        self.ready_s = time.monotonic() - start

    def _address(self) -> Tuple[str, int]:
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            match = self.URL.search(self.log.read_bytes())
            if match:
                return match.group(1).decode(), int(match.group(2))
            if self.proc.poll() is not None:
                raise BenchError(f"server exited {self.proc.returncode}; see {self.log}")
            self.programs.tick()
            time.sleep(0.005)
        raise BenchError("server printed no address within 120 s")

    def _wait_ready(self) -> None:
        url = f"http://{self.host}:{self.port}/readyz"
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            try:
                with urllib.request.urlopen(url, timeout=5.0) as response:
                    if response.status == 200:
                        return
            except (urllib.error.URLError, OSError):
                pass
            if self.proc.poll() is not None:
                raise BenchError(f"server exited {self.proc.returncode}; see {self.log}")
            self.programs.tick()
            time.sleep(0.01)
        raise BenchError("server not ready within 120 s")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM in /proc status")

    def stop(self) -> None:
        self.programs.stop(self.proc)


# -- one pass ----------------------------------------------------------

@dataclasses.dataclass
class Pass:
    """What one train → serve → check pass saw."""

    train: dict
    train_setup_s: float
    server_ready_s: List[float]
    server_rss_mb: float
    warmup: List[loadgen.Outcome]
    timed: List[loadgen.Outcome]
    probes: List[loadgen.Outcome]
    probe_mismatches: int
    trainer_trace: Optional[dict] = None
    server_trace: Optional[dict] = None

    @property
    def outcomes(self) -> List[loadgen.Outcome]:
        return self.warmup + self.timed + self.probes

    def latencies(self, kind: str, fresh: Optional[bool] = None) -> List[float]:
        return [o.seconds for o in self.timed
                if o.failure is None and o.op.kind == kind
                and (fresh is None or o.op.fresh == fresh)]


class Lifecycle:
    """Runs passes of one workload and seed inside ``work_dir``."""

    def __init__(self, root: pathlib.Path, workload: Workload, seed: int,
                 seconds: float, work_dir: pathlib.Path,
                 cpus: Sequence[int], min_reads: int = MIN_READS) -> None:
        from repro.datasets import load_dataset

        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.min_reads = min_reads
        self.work_dir = work_dir
        self.programs = Programs(root, work_dir, cpus)
        self.base = load_dataset(workload.dataset, scale=workload.scale, seed=DATASET_SEED)
        self.probe_ids = [int(v) for v in np.random.default_rng(PROBE_SEED).choice(
            self.base.num_nodes, size=min(PROBES, self.base.num_nodes), replace=False)]
        self._passes = 0

    def close(self) -> None:
        self.programs.stop_all()

    def train(self, tag: str, traced: bool) -> Tuple[dict, float, Optional[dict]]:
        w = self.workload
        out = self.work_dir / f"{tag}-train.json"
        trace_out = self.work_dir / f"{tag}-train-layers.json"
        argv = ["loadbench/program.py", "train", "--dataset", w.dataset,
                "--model", w.model, "--aggregator", w.aggregator,
                "--layers", str(w.layers), "--epochs", str(w.epochs),
                "--seed", str(self.seed),
                "--weights", str(self.work_dir / f"{tag}-weights.npz"),
                "--out", str(out)]
        if w.scale is not None:
            argv += ["--scale", str(w.scale)]
        if traced:
            argv += ["--trace-out", str(trace_out)]
        start = time.monotonic()
        proc, log = self.programs.start(argv, f"{tag}-train")
        try:
            code = self.programs.wait(proc, TRAIN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError(f"trainer did not finish in {TRAIN_TIMEOUT_S:g} s") from None
        finally:
            self.programs.stop(proc)
        if code != 0:
            raise BenchError(f"trainer exited {code}; see {log}")
        report = json.loads(out.read_text())
        trace = json.loads(trace_out.read_text()) if traced else None
        return report, report["setup_end"] - start, trace

    def run_pass(self, traced: bool, setups: int) -> Pass:
        """Train, start the server ``setups`` times (the last one serves),
        drive it, probe it and check the probes against a rebuild."""
        self._passes += 1
        tag = f"p{self._passes}"
        report, train_setup_s, trainer_trace = self.train(tag, traced)
        weights = self.work_dir / f"{tag}-weights.npz"
        ready: List[float] = []
        server = None
        for attempt in range(setups):
            wal_dir = self.work_dir / f"{tag}-wal{attempt}"
            trace_out = self.work_dir / f"{tag}-serve-layers.json" if traced else None
            server = Server(self.programs, self.workload, weights, wal_dir, trace_out)
            ready.append(server.ready_s)
            if attempt < setups - 1:
                server.stop()
        client = loadgen.Client(server.host, server.port)
        try:
            warmup = self._warm_up(client)
            timed = self._drive(client)
            acked = [(o.op.update_id, o.op.ops) for o in timed
                     if o.op.kind == "update" and o.failure is None]
            probe_ids = self._probe_ids(acked)
            probes = [client.run(loadgen.Op("read", nodes=tuple(probe_ids[i:i + PROBE_CHUNK])))
                      for i in range(0, len(probe_ids), PROBE_CHUNK)]
            rss = server.peak_rss_mb()
        finally:
            client.close()
            server.stop()
        server_trace = None
        if traced:
            server_trace = json.loads((self.work_dir / f"{tag}-serve-layers.json").read_text())
        mismatches = mark_probe_mismatches(
            probes, self.reference(weights, acked, probe_ids))
        return Pass(report, train_setup_s, ready, rss, warmup, timed, probes,
                    mismatches, trainer_trace, server_trace)

    def _warm_up(self, client: loadgen.Client) -> List[loadgen.Outcome]:
        """Untimed reads from a stream of their own, so lazy set-up and
        the store fill before timing; the timed op stream is unchanged."""
        w = self.workload
        stream = loadgen.OpStream(self.seed + WARMUP_SEED, self.base.adj,
                                  update_every=0, zipf=w.zipf)
        outcomes = []
        start = time.monotonic()
        while len(outcomes) < WARMUP_READS and time.monotonic() - start < WARMUP_S:
            outcomes.append(client.run(stream.next()))
            self.programs.tick()
        return outcomes

    def _drive(self, client: loadgen.Client) -> List[loadgen.Outcome]:
        w = self.workload
        stream = loadgen.OpStream(self.seed, self.base.adj, w.update_every, w.zipf)
        outcomes = []
        reads = 0
        start = time.monotonic()
        while True:
            elapsed = time.monotonic() - start
            if (elapsed >= self.seconds and reads >= self.min_reads) or elapsed >= SERVE_CAP_S:
                return outcomes
            op = stream.next()
            outcomes.append(client.run(op))
            self.programs.tick()
            reads += op.kind == "read"

    def _probe_ids(self, acked) -> List[int]:
        ids = list(self.probe_ids)
        for _, ops in acked[-PROBE_CHUNK:]:
            for u, v in ops.get("add_edges", []) + ops.get("remove_edges", []):
                ids += [n for n in (u, v) if n not in ids]
        return ids

    def reference(self, weights: pathlib.Path, acked, probe_ids) -> List[int]:
        """Argmax classes of ``probe_ids`` from ``model.predict`` on the
        base graph rebuilt with ``acked`` updates replayed."""
        from repro import nn
        from repro.graphs.graph import Graph
        from repro.graphs.mutate import UpdateBatch, apply_batch
        from repro.training import hyperparams_for

        base = self.base
        graph = Graph(
            adj=base.adj, features=base.features, labels=base.labels,
            train_mask=base.train_mask, val_mask=base.val_mask,
            test_mask=base.test_mask, name=base.name, num_classes=base.num_classes,
        )
        for update_id, ops in acked:
            apply_batch(graph, UpdateBatch.from_ops(update_id, ops))
        w = self.workload
        model = build_model(w.model, w.aggregator, w.layers, graph,
                            hyperparams_for(w.dataset), self.seed)
        model.setup(graph)
        nn.load_module(model, weights)
        logits = model.predict()
        return np.argmax(logits[np.asarray(probe_ids)], axis=1).astype(int).tolist()


def mark_probe_mismatches(probes: List[loadgen.Outcome], expected: List[int]) -> int:
    """Fail every answered probe read whose classes differ from
    ``expected`` (the reference classes of all probe ids, in order)."""
    mismatches = 0
    offset = 0
    for outcome in probes:
        want = expected[offset:offset + len(outcome.op.nodes)]
        offset += len(outcome.op.nodes)
        if outcome.failure is None and outcome.payload.get("classes") != want:
            outcome.failure = "probe_mismatch"
            mismatches += 1
    return mismatches


# -- metrics -----------------------------------------------------------

def end_to_end(p: Pass) -> Dict[str, dict]:
    reads = p.latencies("read")
    return {
        "setup_s": metric(p.train_setup_s + statistics.median(p.server_ready_s), "s"),
        "peak_rss_mb": metric(max(p.train["peak_rss_mb"], p.server_rss_mb), "MB"),
        "predict_ms_p50": metric(loadgen.p50(reads).value * 1e3, "ms"),
        "predict_ms_p90": metric(loadgen.p90(reads).value * 1e3, "ms"),
        "fresh_read_ms_p50": metric(
            loadgen.p50(p.latencies("read", fresh=True)).value * 1e3, "ms"),
        "update_ms_p50": metric(loadgen.p50(p.latencies("update")).value * 1e3, "ms"),
        "epoch_s_p50": metric(loadgen.p50(p.train["epoch_s"]).value, "s"),
    }


def p50s(p: Pass) -> Dict[str, float]:
    """The p50s the tracing overhead compares (needs no p90)."""
    return {
        "predict_ms_p50": loadgen.p50(p.latencies("read")).value * 1e3,
        "epoch_s_p50": loadgen.p50(p.train["epoch_s"]).value,
    }


def samples(p: Pass) -> Dict[str, int]:
    return {
        "predict": len(p.latencies("read")),
        "fresh_read": len(p.latencies("read", fresh=True)),
        "update": len(p.latencies("update")),
        "epoch": len(p.train["epoch_s"]),
        "server_setups": len(p.server_ready_s),
    }


def timed_predict_responses(p: Pass) -> List[Optional[list]]:
    return [o.payload.get("classes") if o.payload else None
            for o in p.timed if o.op.kind == "read"]


def client_predict_seconds(p: Pass) -> List[float]:
    """Latencies of every /predict the server handled, in send order."""
    return [o.seconds for o in p.outcomes if o.op.kind == "read" and o.status]


def rows_served(p: Pass) -> int:
    return sum(len(o.op.nodes) for o in p.outcomes
               if o.op.kind == "read" and o.status == 200)
