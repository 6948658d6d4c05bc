"""Sparse convolution layers (submanifold and regular) with VJPs.

A layer holds its kernel spec and per-offset weight blocks; the function
that runs it is the conv's kind (:func:`subm_conv` or
:func:`regular_conv_down`).  The forward takes its rulebook from
:func:`~focalvox.sparse.rulebook`, which caches it on the input geometry
under ``(spec, regular)``, and runs the gather-scatter plan.  The same code
serves 2-D and 3-D tensors since everything is parameterized by the
coordinate rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .sparse import (
    KernelSpec,
    Rulebook,
    SparseTensor,
    build_rulebook_regular,  # patched by perfbench/tracing.py
    build_rulebook_submanifold,  # patched by perfbench/tracing.py
    gather_scatter_matmul,
    gather_scatter_vjp,
    gather_scatter_weight_grad,
    rulebook,
)
from .tape import Tensor, emit


@dataclass
class SparseConvLayer:
    """Kernel spec plus parameters for one sparse convolution.

    ``weight`` is a (kernel_volume, C_in, C_out) tensor, checked at each conv;
    ``bias`` is optional (layers feeding a batch norm drop it).
    """

    spec: KernelSpec
    weight: Tensor
    bias: Tensor | None = None


def conv_vjp(xd: np.ndarray, rb: Rulebook, wd: np.ndarray, cot: np.ndarray,
             need_w: bool, need_b: bool) -> tuple:
    """Input, weight and bias cotangents of a conv with input features
    ``xd`` and weights ``wd`` on ``rb``; None for a weight or bias that
    needs no gradient.  Without a weight gradient ``xd`` may be a
    zero-strided view, as the input gradient reads only its shape and dtype.

    A weight gradient larger than the cotangent plus the features, which
    forming it later keeps, comes as a callable that forms it after the
    replay's last node, holding both until then."""
    gw = None
    if need_w:
        gw = partial(gather_scatter_weight_grad, xd, rb, cot)
        if wd.size <= cot.size + xd.size:
            gw = gw()
    gb = cot.sum(axis=0).astype(xd.dtype) if need_b else None
    return gather_scatter_vjp(xd, rb, wd, cot), gw, gb


def _apply_rulebook(t: SparseTensor, layer: SparseConvLayer, rb: Rulebook) -> SparseTensor:
    x, weight, bias = t.features, layer.weight, layer.bias
    out_data = gather_scatter_matmul(x.data, rb, weight.data, None if bias is None else bias.data)

    def vjp_of(needs):
        wd, need_w, need_b = weight.data, needs[1], needs[2]
        # only the weight gradient reads the features' data
        xd = x.data if need_w else np.broadcast_to(np.zeros((), x.data.dtype), x.data.shape)
        return lambda cot: conv_vjp(xd, rb, wd, cot, need_w, need_b)

    out = emit(f"conv_{rb.kind}", out_data, (x, weight, bias), vjp_of)
    return SparseTensor(rb.out_geometry or t.geometry, out)


def subm_conv(t: SparseTensor, layer: SparseConvLayer) -> SparseTensor:
    """Submanifold sparse convolution: output coords == input coords.

    The layer's spec must have unit stride (``InvalidSpec`` otherwise)."""
    return _apply_rulebook(t, layer, rulebook(t, layer.spec))


def regular_conv_down(t: SparseTensor, layer: SparseConvLayer) -> SparseTensor:
    """Regular (strided) sparse convolution: the active set expands to every
    reachable output position of the downsampled grid."""
    return _apply_rulebook(t, layer, rulebook(t, layer.spec, regular=True))

