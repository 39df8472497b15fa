"""The load generator: a seeded op stream, one keep-alive HTTP
connection in a closed loop, and percentiles that state their sample
count.

Reads ask for 1 or 16 distinct node ids, one single-id read to three of
16, so that p50 and p90 both fall inside the 16-id latency mode (at
50/50 the p50 sits in the gap between the two sizes' modes, where a
small shift moves it far).  After every
``update_every`` reads comes one update, a single-edge toggle: add an
edge that is absent and not a self-loop, or, once ``OUTSTANDING`` added
edges are live, remove the oldest of them.  Every update is therefore
valid, and the graph never returns to an earlier state (an immediate
add-then-remove would; see README.md, known limits).  The first read
after an update leads with the updated edge's endpoint, so it always
needs rows the update made stale.
"""

from __future__ import annotations

import dataclasses
import json
import math
import socket
import statistics
import time
from collections import Counter
from typing import Dict, List, Optional, Tuple

import numpy as np

READ_SIZES = (1, 16)
READ_SIZE_WEIGHTS = (0.25, 0.75)
OUTSTANDING = 4  # added edges live at once before the oldest is removed
P90_MIN_SAMPLES = 100


@dataclasses.dataclass(frozen=True)
class Stat:
    """A percentile together with the number of samples behind it."""

    value: float
    count: int


def p50(values) -> Stat:
    if not values:
        raise ValueError("p50 of no samples")
    return Stat(float(statistics.median(values)), len(values))


def p90(values) -> Stat:
    """Nearest-rank p90; refused below ``P90_MIN_SAMPLES`` samples, where
    fewer than ten samples would lie beyond it."""
    if len(values) < P90_MIN_SAMPLES:
        raise ValueError(
            f"p90 needs at least {P90_MIN_SAMPLES} samples, got {len(values)}"
        )
    ordered = sorted(values)
    return Stat(float(ordered[math.ceil(0.9 * len(ordered)) - 1]), len(values))


@dataclasses.dataclass(frozen=True)
class Op:
    kind: str  # "read" or "update"
    nodes: Tuple[int, ...] = ()
    update_id: str = ""
    ops: Optional[dict] = None  # the /graph/update body minus update_id
    fresh: bool = False  # first read after an update

    def body(self) -> bytes:
        if self.kind == "read":
            return json.dumps({"nodes": list(self.nodes)}).encode()
        return json.dumps({"update_id": self.update_id, **self.ops}).encode()


def has_edge(adj, u: int, v: int) -> bool:
    """Whether CSR ``adj`` stores ``(u, v)``."""
    row = adj.indices[adj.indptr[u]:adj.indptr[u + 1]]
    return bool(np.any(row == v))


class OpStream:
    """The deterministic op sequence of one seed over one base graph."""

    def __init__(
        self,
        seed: int,
        adj,
        update_every: int,
        zipf: Optional[float] = None,
    ) -> None:
        self.rng = np.random.default_rng(seed)
        self.seed = seed
        self.adj = adj.tocsr()
        self.num_nodes = adj.shape[0]
        self.update_every = update_every
        self.weights = None
        if zipf is not None:
            # Popularity by rank, ranks assigned to nodes by the seed.
            ranks = self.rng.permutation(self.num_nodes)
            weights = 1.0 / np.arange(1, self.num_nodes + 1) ** zipf
            self.weights = np.empty(self.num_nodes)
            self.weights[ranks] = weights / weights.sum()
        self._since_update = 0
        self._updates = 0
        self._live: List[Tuple[int, int]] = []  # added, not yet removed
        self._lead: Optional[int] = None  # endpoint the next read leads with

    def next(self) -> Op:
        """The next op; ``update_every=0`` gives a stream of reads only."""
        if self.update_every and self._since_update == self.update_every:
            self._since_update = 0
            return self._update()
        self._since_update += 1
        return self._read()

    def _read(self) -> Op:
        size = int(self.rng.choice(READ_SIZES, p=READ_SIZE_WEIGHTS))
        nodes = [int(v) for v in self.rng.choice(
            self.num_nodes, size=size, replace=False, p=self.weights)]
        fresh = self._lead is not None
        if fresh:
            if self._lead in nodes:
                nodes.remove(self._lead)
            else:
                nodes.pop()
            nodes.insert(0, self._lead)
            self._lead = None
        return Op("read", nodes=tuple(nodes), fresh=fresh)

    def _update(self) -> Op:
        self._updates += 1
        if len(self._live) < OUTSTANDING:
            while True:
                u, v = (int(x) for x in self.rng.integers(self.num_nodes, size=2))
                if (u != v and not has_edge(self.adj, u, v)
                        and not {(u, v), (v, u)} & set(self._live)):
                    break
            self._live.append((u, v))
            ops = {"add_edges": [[u, v]]}
        else:
            u, v = self._live.pop(0)
            ops = {"remove_edges": [[u, v]]}
        self._lead = u
        return Op("update", update_id=f"s{self.seed}-{self._updates}", ops=ops)


@dataclasses.dataclass
class Outcome:
    op: Op
    seconds: float
    status: int
    payload: Optional[dict]
    failure: Optional[str]  # None when the op succeeded


class Client:
    """One keep-alive HTTP/1.1 connection to the server.

    A minimal client over a raw socket (one ``sendall`` per request,
    ``Content-Length`` framing) so the client's own share of the
    observed latency stays small next to the server's.
    """

    def __init__(self, host: str, port: int, timeout_s: float = 120.0) -> None:
        self.host, self.port, self.timeout_s = host, port, timeout_s
        self.sock: Optional[socket.socket] = None
        self._buf = b""

    def _connect(self) -> socket.socket:
        if self.sock is None:
            self.sock = socket.create_connection((self.host, self.port), self.timeout_s)
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._buf = b""
        return self.sock

    def _recv(self, sock: socket.socket) -> None:
        chunk = sock.recv(1 << 16)
        if not chunk:
            raise ConnectionResetError("server closed the connection")
        self._buf += chunk

    def request(self, method: str, path: str, body: bytes = b""):
        """``(status, payload, seconds)``; transport errors raise."""
        sock = self._connect()
        head = (f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n").encode()
        start = time.perf_counter()
        try:
            sock.sendall(head + body)
            while b"\r\n\r\n" not in self._buf:
                self._recv(sock)
            header, _, self._buf = self._buf.partition(b"\r\n\r\n")
            lines = header.decode("latin-1").split("\r\n")
            status = int(lines[0].split()[1])
            fields = dict(line.split(":", 1) for line in lines[1:])
            fields = {k.strip().lower(): v.strip() for k, v in fields.items()}
            length = int(fields.get("content-length", 0))
            while len(self._buf) < length:
                self._recv(sock)
        except (OSError, ValueError, IndexError):
            self.close()
            raise
        seconds = time.perf_counter() - start
        raw, self._buf = self._buf[:length], self._buf[length:]
        if fields.get("connection", "").lower() == "close":
            self.close()
        try:
            payload = json.loads(raw) if raw else None
        except ValueError:
            payload = None
        return status, payload, seconds

    def run(self, op: Op) -> Outcome:
        path = "/predict" if op.kind == "read" else "/graph/update"
        start = time.perf_counter()
        try:
            status, payload, seconds = self.request("POST", path, op.body())
        except (OSError, ValueError, IndexError) as exc:
            return Outcome(op, time.perf_counter() - start, 0, None,
                           f"transport:{type(exc).__name__}")
        return Outcome(op, seconds, status, payload, failure_reason(op, status, payload))

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None


def failure_reason(op: Op, status: int, payload: Optional[dict]) -> Optional[str]:
    """Why an answered op counts as failed, or None."""
    if status == 429:
        return "shed"
    if status != 200 or payload is None:
        return f"http_{status}"
    if op.kind == "read":
        if payload.get("degraded"):
            return "degraded"
        if payload.get("nodes") != list(op.nodes):
            return "wrong_nodes"
    elif not payload.get("applied"):
        return "update_not_applied"
    return None


def failure_counts(outcomes) -> Dict[str, int]:
    return dict(Counter(o.failure for o in outcomes if o.failure))
