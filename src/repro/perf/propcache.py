"""Memoized propagation products ``Â^k X`` and adjacency powers.

The normalized adjacency and the input features are both constants of
the optimization problem, so every product of the form ``Â^k X`` (SGC's
precomputation, the first propagation of a GCN layer whose input is the
raw features, MixHop/NGCN's ``Â^p`` operators) can be computed once and
shared — across epochs, across model instances, and across models, as
long as the operands are equal by *content*.

Keys are content fingerprints (:attr:`SparseMatrix.fingerprint` plus a
sha1 of the feature buffer), not object identities, so two models that
independently normalize the same graph still share work.  Entries are
plain float arrays detached from the tape — correct because gradients
never flow into ``Â`` or ``X``.

The cache is LRU-bounded and process-global (:func:`get_cache`); tests
use :meth:`PropagationCache.clear` for isolation.  It is also
**thread-safe**: the serving layer shares one cache across all request
worker threads, so every public operation holds an internal lock —
including the spmm walk inside :meth:`PropagationCache.propagate`, which
keeps a miss atomic (two threads asking for the same product do the
work once, and the LRU order/size bookkeeping can never be corrupted
mid-update).
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import List, Optional, Tuple

import numpy as np

from repro.tensor.sparse import SparseMatrix, power_chain


def array_fingerprint(array: np.ndarray) -> str:
    """Content digest of a dense array (dtype, shape, raw bytes)."""
    digest = hashlib.sha1()
    digest.update(str(array.dtype).encode())
    digest.update(np.asarray(array.shape, dtype=np.int64).tobytes())
    digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


class PropagationCache:
    """LRU cache of ``Â^k X`` products and ``Â^p`` sparse powers.

    ``scope`` namespaces every key.  Content fingerprints alone are not
    enough once the graph is sharded: two shards of the same graph can
    hold *byte-identical* restricted blocks and features (think two
    identical communities), and a purely content-addressed key would
    serve shard B rows computed for shard A.  Per-shard caches therefore
    carry the shard signature as their scope (and sharded lookups also
    bake it into the key itself — see :meth:`Shard.propagate`).
    """

    def __init__(self, capacity: int = 64, scope: Optional[str] = None) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.scope = scope
        self._entries: "OrderedDict[Tuple, object]" = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def _get(self, key: Tuple):
        try:
            value = self._entries[key]
        except KeyError:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return value

    def _put(self, key: Tuple, value) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    # ------------------------------------------------------------------
    def propagate(
        self, adj: SparseMatrix, features: np.ndarray, k: int = 1
    ) -> np.ndarray:
        """Return ``Â^k X`` as a constant float array, memoized.

        Intermediate powers are cached too, so asking for ``k=2`` after
        ``k=1`` performs a single additional spmm.  The result must be
        treated as read-only by callers (it is shared).
        """
        return self.propagate_chain(adj, features, k)[-1]

    def propagate_chain(
        self, adj: SparseMatrix, features: np.ndarray, k: int = 1
    ) -> List[np.ndarray]:
        """The multi-power chain ``[Â X, Â² X, …, Â^k X]``, memoized.

        Walks up from ``Â¹X`` while powers are cached, then extends the
        chain from the last cached power with :func:`power_chain`, so a
        cold call costs ``k`` spmms (not ``k(k+1)/2`` as recomputing
        every power from ``X`` would) and a warm call costs none.  LRU
        eviction can drop a lower power while a higher one stays cached;
        the walk then recomputes from the first gap, which yields the
        same bits.  Every entry in the returned list is a shared
        read-only cache entry.
        """
        if k < 1:
            raise ValueError(f"propagation power must be >= 1, got {k}")
        features = np.ascontiguousarray(features)
        base_key = (self.scope, adj.fingerprint, array_fingerprint(features))
        with self._lock:
            chain: List[np.ndarray] = []
            while len(chain) < k:
                cached = self._get(base_key + (len(chain) + 1,))
                if cached is None:
                    break
                chain.append(cached)
            if len(chain) < k:
                start = chain[-1] if chain else features
                for value in power_chain(adj, start, k - len(chain)):
                    value.setflags(write=False)
                    chain.append(value)
                    self._put(base_key + (len(chain),), value)
            return chain

    def adjacency_power(self, adj: SparseMatrix, k: int) -> SparseMatrix:
        """Return ``Â^k`` as a :class:`SparseMatrix`, memoized.

        ``k=1`` returns the operand itself (no copy); ``k=0`` is the
        identity and is cached like any other power.
        """
        if k < 0:
            raise ValueError(f"adjacency power must be >= 0, got {k}")
        if k == 1:
            return adj
        base_key = (self.scope, adj.fingerprint, "power")
        with self._lock:
            cached = self._get(base_key + (k,))
            if cached is not None:
                return cached
            # Walk down to the deepest cached lower power and multiply
            # up from there, caching every intermediate — MixHop/NGCN
            # ask for a whole ladder of powers, and this turns the
            # ladder into one sparse matmul per rung instead of
            # recomputing each power from scratch.  ``adj.power(k)`` is
            # the left fold ``((I·Â)·Â)…·Â``, so seeding with
            # ``power(start)`` and right-multiplying reproduces it
            # association-for-association: bitwise-identical results.
            start = k - 1
            result = None
            while start >= 2:
                lower = self._get(base_key + (start,))
                if lower is not None:
                    result = lower
                    break
                start -= 1
            if result is None:
                start = min(1, k)
                result = adj.power(start)
                self._put(base_key + (start,), result)
            for power in range(start + 1, k + 1):
                result = SparseMatrix(result.csr @ adj.csr)
                self._put(base_key + (power,), result)
            return result

    def migrate_propagation(
        self,
        old_adj_fp: str,
        old_feat_fp: str,
        new_adj: SparseMatrix,
        new_features: np.ndarray,
        rows_for_power,
    ) -> int:
        """Rebase a cached ``Â^k X`` chain onto a mutated graph.

        Walks powers ``p = 1, 2, ...`` while the old chain
        ``(scope, old_adj_fp, old_feat_fp, p)`` is cached, and for each
        one inserts a patched copy under the new operator/feature
        fingerprints: clean rows keep the old entry's bytes, and the
        rows ``rows_for_power(p)`` — the closed ``p``-hop neighborhood
        of the mutation (see :func:`repro.graphs.mutate.dirty_rows`) —
        are recomputed as ``Â_new[rows] @ P_{p-1}``, which is
        bitwise-identical per row to a from-scratch rebuild (scipy's
        CSR·dense kernel accumulates each output row independently in
        stored order).  Node growth is handled by ``new_features``'s row
        count: appended rows are always dirty, so patching covers them.

        Stops at the first uncached power (a later ``propagate`` call
        recomputes the missing tail from the migrated prefix).  Returns
        the number of powers migrated.  Old entries are left in place
        for in-flight readers; :meth:`discard_chain` retires them once
        the mutated graph is published.
        """
        prev = np.ascontiguousarray(new_features)
        n_new, width = prev.shape
        new_base = (self.scope, new_adj.fingerprint, array_fingerprint(prev))
        old_base = (self.scope, old_adj_fp, old_feat_fp)
        migrated = 0
        with self._lock:
            power = 1
            while True:
                old_entry = self._entries.get(old_base + (power,))
                if (
                    old_entry is None
                    or old_entry.shape[0] > n_new
                    or old_entry.shape[1] != width
                ):
                    break
                rows = np.asarray(rows_for_power(power), dtype=np.int64)
                entry = np.zeros((n_new, width), dtype=old_entry.dtype)
                entry[: old_entry.shape[0]] = old_entry
                if rows.size:
                    entry[rows] = new_adj.csr[rows] @ prev
                entry.setflags(write=False)
                self._put(new_base + (power,), entry)
                prev = entry
                migrated += 1
                power += 1
        return migrated

    def discard_chain(self, adj_fp: str, feat_fp: Optional[str] = None) -> int:
        """Drop every cached power ``Â^p X`` of operator ``adj_fp``.

        ``feat_fp`` limits the drop to one feature matrix; ``None`` drops
        the chains of every feature matrix under that operator.  A graph
        update supersedes the old operator and features, and at 100k
        nodes each power is tens of MB, so leaving the old chains to LRU
        eviction holds a chain per recent update.  Readers that already
        hold an entry keep their array.  Returns the number of entries
        dropped.
        """
        with self._lock:
            stale = [
                key for key in self._entries
                if len(key) == 4
                and key[1] == adj_fp
                and key[2] != "power"
                and (feat_fp is None or key[2] == feat_fp)
            ]
            for key in stale:
                del self._entries[key]
            return len(stale)

    def memoize(self, key: Tuple, compute) -> np.ndarray:
        """Memoize an arbitrary dense product under ``(scope,) + key``.

        The sharded execution layer uses this for per-shard restricted
        propagation chains, whose intermediate operands are block
        matrices rather than a single adjacency; the caller is
        responsible for a key that fully identifies the computation
        (shard signature + feature fingerprint + power).  Results are
        frozen read-only like every other entry, and the miss is atomic
        under the cache lock.
        """
        full_key = (self.scope,) + tuple(key)
        with self._lock:
            cached = self._get(full_key)
            if cached is not None:
                return cached
            result = np.asarray(compute())
            result.setflags(write=False)
            self._put(full_key, result)
            return result

    # ------------------------------------------------------------------
    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def info(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "capacity": self.capacity,
                "scope": self.scope,
                "hits": self.hits,
                "misses": self.misses,
            }

    def __repr__(self) -> str:
        return (
            f"PropagationCache(entries={len(self._entries)}, "
            f"hits={self.hits}, misses={self.misses})"
        )


_GLOBAL_CACHE = PropagationCache()


def get_cache() -> PropagationCache:
    """The process-global propagation cache used by models."""
    return _GLOBAL_CACHE


def propagated_features(
    adj: SparseMatrix, features: np.ndarray, k: int = 1
) -> np.ndarray:
    """Convenience wrapper over ``get_cache().propagate(...)``."""
    return _GLOBAL_CACHE.propagate(adj, features, k=k)


def adjacency_power(adj: SparseMatrix, k: int) -> SparseMatrix:
    """Convenience wrapper over ``get_cache().adjacency_power(...)``."""
    return _GLOBAL_CACHE.adjacency_power(adj, k)
