"""A from-scratch reverse-mode automatic differentiation engine on numpy.

This package is the substrate that replaces PyTorch in this reproduction.
It provides:

- :class:`~repro.tensor.tensor.Tensor` — a numpy-backed array that records
  the operations applied to it and can backpropagate gradients.
- :mod:`~repro.tensor.ops` — free functions (``relu``, ``softmax``,
  ``concat``, ``stack``, ``dropout``, ...) that build the autograd graph.
- :class:`~repro.tensor.sparse.SparseMatrix` — a constant sparse operand
  (scipy CSR) with an autograd-aware ``spmm`` used for the normalized
  adjacency :math:`\\hat{A}` in graph convolutions, and ``power_chain``,
  the tape-free ``[Â X, …, Â^k X]`` recurrence.
- :mod:`~repro.tensor.functional` — losses and classification helpers.
- :mod:`~repro.tensor.gradcheck` — finite-difference gradient verification
  used by the test suite.
- :mod:`~repro.tensor.dtype` — the floating-point construction policy
  (float64 reference vs the float32 fast path used by ``repro.perf``).
"""

from repro.tensor.tensor import Tensor, no_grad, is_grad_enabled
from repro.tensor.sparse import SparseMatrix, power_chain, spmm
from repro.tensor import ops
from repro.tensor import functional
from repro.tensor.gradcheck import gradcheck
from repro.tensor.dtype import (
    default_dtype,
    get_default_dtype,
    gradcheck_tolerances,
    is_reference_dtype,
    set_default_dtype,
)

__all__ = [
    "Tensor",
    "SparseMatrix",
    "spmm",
    "power_chain",
    "ops",
    "functional",
    "gradcheck",
    "no_grad",
    "is_grad_enabled",
    "default_dtype",
    "get_default_dtype",
    "set_default_dtype",
    "is_reference_dtype",
    "gradcheck_tolerances",
]
