"""Performance layer: dtype policy switches, fused kernels, caching.

Four cooperating pieces, all opt-in and all bit-transparent when off:

- :mod:`repro.perf.config` — runtime switches (:func:`perf_mode`,
  :func:`configure`) that turn on the float32 construction policy, the
  fused forward kernels, and the propagation cache.
- :mod:`repro.perf.propcache` — a content-fingerprint-keyed LRU of
  ``Â^k X`` products and sparse adjacency powers, shared across model
  instances.
- :mod:`repro.perf.fused` — single-tape-node spmm→bias→activation
  kernels with in-place accumulation.
- :mod:`repro.perf.logitstore` — version-keyed memoization of
  full-graph inference logits (the serving fast path's warm store),
  LRU-bounded by entries *and* bytes.

The benchmark harness lives in :mod:`repro.perf.bench`; it is *not*
imported here so that importing ``repro.perf`` from model code never
drags in the training stack.
"""

from repro.perf.config import (
    configure,
    fused_enabled,
    perf_mode,
    propagation_cache_enabled,
    settings,
)
from repro.perf.fused import (
    fused_dense_layer,
    fused_gcn_layer,
    fused_spmm_bias_act,
)
from repro.perf.logitstore import (
    LogitStore,
    SharedLogitStore,
    get_logit_store,
    model_fingerprint,
    operator_fingerprint,
)
from repro.perf.propcache import (
    PropagationCache,
    adjacency_power,
    array_fingerprint,
    get_cache,
    propagated_features,
)

__all__ = [
    "configure",
    "perf_mode",
    "settings",
    "fused_enabled",
    "propagation_cache_enabled",
    "PropagationCache",
    "LogitStore",
    "SharedLogitStore",
    "get_logit_store",
    "model_fingerprint",
    "operator_fingerprint",
    "get_cache",
    "propagated_features",
    "adjacency_power",
    "array_fingerprint",
    "fused_gcn_layer",
    "fused_dense_layer",
    "fused_spmm_bias_act",
]
