"""Fused forward kernels: one tape node per layer, no temporaries.

The unfused GCN layer ``relu(Â (X W) + b)`` costs four tape nodes
(matmul, spmm, add, relu) and three full-size temporaries, plus four
Python closure dispatches on the backward pass.  At the graph sizes this
repository trains on, that interpreter overhead is comparable to the
BLAS time itself — so these kernels collapse the whole sequence into a
single :class:`Tensor` node, accumulate the bias and activation in place
on the one output buffer, and write the backward pass as straight-line
numpy.

Gradients are exactly the composition of the individual ops' gradients
(the relu mask is taken on the post-activation buffer; ``out > 0``
post-relu equals ``pre > 0`` pre-relu), so the fused path is
gradcheck-identical to the unfused one — the property-based sweep in
``tests/test_perf_gradcheck.py`` certifies this in both precisions.

Only ``activation=None`` and ``"relu"`` are supported: relu is the only
activation the paper's models place after a convolution.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.tensor.sparse import SparseMatrix
from repro.tensor.tensor import Tensor, _as_tensor, unbroadcast

_ACTIVATIONS = (None, "relu")


def _check_activation(activation: Optional[str]) -> None:
    if activation not in _ACTIVATIONS:
        raise ValueError(
            f"unsupported fused activation {activation!r}; "
            f"expected one of {_ACTIVATIONS}"
        )


def fused_spmm_bias_act(
    adj: SparseMatrix,
    h: Tensor,
    bias: Optional[Tensor] = None,
    activation: Optional[str] = None,
) -> Tensor:
    """``act(Â h + b)`` as one tape node; bias/relu applied in place."""
    _check_activation(activation)
    h = _as_tensor(h)
    out = adj.csr @ h.data
    if bias is not None:
        out += bias.data
    if activation == "relu":
        np.maximum(out, 0.0, out=out)
    others = (bias,) if bias is not None else ()
    if not h._needs_tape(*others):
        return Tensor(out)

    mask = out > 0.0 if activation == "relu" else None
    parents = (h,) + others

    def backward_fn(grad: np.ndarray) -> None:
        if mask is not None:
            grad = grad * mask
        if bias is not None and bias.requires_grad:
            bias.accumulate_grad(unbroadcast(grad, bias.shape))
        if h.requires_grad:
            h.accumulate_grad(adj.csr.T @ grad)

    return Tensor(out, True, parents, backward_fn, name="fused_spmm_bias_act")


def fused_gcn_layer(
    adj: SparseMatrix,
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    activation: Optional[str] = None,
) -> Tensor:
    """``act(Â (x @ W) + b)`` — a full graph-convolution forward, fused.

    The feature transform happens before propagation (the cheap order
    when out_features < in_features, which holds for every layer here),
    and the backward pass shares the single ``Âᵀ grad`` product between
    the weight and input gradients.
    """
    _check_activation(activation)
    x = _as_tensor(x)
    pre = x.data @ weight.data
    out = adj.csr @ pre
    if bias is not None:
        out += bias.data
    if activation == "relu":
        np.maximum(out, 0.0, out=out)
    others = (weight,) + ((bias,) if bias is not None else ())
    if not x._needs_tape(*others):
        return Tensor(out)

    mask = out > 0.0 if activation == "relu" else None
    parents = (x,) + others

    def backward_fn(grad: np.ndarray) -> None:
        if mask is not None:
            grad = grad * mask
        if bias is not None and bias.requires_grad:
            bias.accumulate_grad(unbroadcast(grad, bias.shape))
        propagated = adj.csr.T @ grad
        if weight.requires_grad:
            weight.accumulate_grad(x.data.T @ propagated)
        if x.requires_grad:
            x.accumulate_grad(propagated @ weight.data.T)

    return Tensor(out, True, parents, backward_fn, name="fused_gcn_layer")


def fused_dense_layer(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    activation: Optional[str] = None,
) -> Tensor:
    """``act(x @ W + b)`` as one tape node.

    This is the cached-propagation companion of :func:`fused_gcn_layer`:
    when ``x`` is a memoized ``Â^k X`` product (a constant that needs no
    gradient), the whole layer reduces to this dense transform.
    """
    _check_activation(activation)
    x = _as_tensor(x)
    out = x.data @ weight.data
    if bias is not None:
        out += bias.data
    if activation == "relu":
        np.maximum(out, 0.0, out=out)
    others = (weight,) + ((bias,) if bias is not None else ())
    if not x._needs_tape(*others):
        return Tensor(out)

    mask = out > 0.0 if activation == "relu" else None
    parents = (x,) + others

    def backward_fn(grad: np.ndarray) -> None:
        if mask is not None:
            grad = grad * mask
        if bias is not None and bias.requires_grad:
            bias.accumulate_grad(unbroadcast(grad, bias.shape))
        if weight.requires_grad:
            weight.accumulate_grad(x.data.T @ grad)
        if x.requires_grad:
            x.accumulate_grad(grad @ weight.data.T)

    return Tensor(out, True, parents, backward_fn, name="fused_dense_layer")
