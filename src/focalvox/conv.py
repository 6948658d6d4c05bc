"""Sparse convolution layers (submanifold and regular) with VJPs.

A layer holds its kernel spec and per-offset weight blocks; the function
that runs it is the conv's kind (:func:`subm_conv` or
:func:`regular_conv_down`).  The forward takes the rulebook from the input
geometry's cache (building it on the first use of that spec on that
active set) and runs the gather-scatter plan.  The same code serves 2-D
and 3-D tensors since everything is parameterized by the coordinate rank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec
from .sparse import (
    Geometry,
    KernelSpec,
    Rulebook,
    SparseTensor,
    build_rulebook_regular,
    build_rulebook_submanifold,
    gather_scatter_matmul,
    gather_scatter_vjp,
    regular_out_shape,
)
from .tape import Tensor, emit


@dataclass
class SparseConvLayer:
    """Kernel spec plus parameters for one sparse convolution.

    ``weight`` is a (kernel_volume, C_in, C_out) tensor; ``bias`` is
    optional (layers feeding a batch norm drop it).
    """

    spec: KernelSpec
    weight: Tensor
    bias: Tensor | None = None

    def __post_init__(self):
        if self.weight.data.ndim != 3 or self.weight.data.shape[0] != self.spec.volume:
            raise InvalidSpec(
                f"weight shape {self.weight.data.shape} != "
                f"(kernel volume {self.spec.volume}, C_in, C_out)"
            )


def _apply_rulebook(
    t: SparseTensor, layer: SparseConvLayer, rulebook: Rulebook, out_geometry: Geometry
) -> SparseTensor:
    x, weight, bias = t.features, layer.weight, layer.bias
    out_data = gather_scatter_matmul(
        x.data, rulebook, weight.data, None if bias is None else bias.data
    )

    def vjp_of(needs):
        wd, need_w, need_b = weight.data, needs[1], needs[2]
        # without a weight gradient the VJP reads only the features' shape
        # and dtype, which a zero-strided view carries without the data
        xd = x.data if need_w else np.broadcast_to(np.zeros((), x.data.dtype), x.data.shape)

        def vjp(cot):
            gx, gw = gather_scatter_vjp(xd, rulebook, wd, cot, with_weights=need_w)
            return gx, gw, (cot.sum(axis=0).astype(xd.dtype) if need_b else None)

        return vjp

    out = emit(f"conv_{rulebook.kind}", out_data, (x, weight, bias), vjp_of)
    return SparseTensor(out_geometry, out)


def subm_conv(t: SparseTensor, layer: SparseConvLayer) -> SparseTensor:
    """Submanifold sparse convolution: output coords == input coords.

    The layer's spec must have unit stride (``InvalidSpec`` otherwise)."""
    spec = layer.spec
    rulebook = t.geometry.rulebook(spec, lambda: build_rulebook_submanifold(t, spec))
    return _apply_rulebook(t, layer, rulebook, t.geometry)


def regular_conv_down(t: SparseTensor, layer: SparseConvLayer) -> SparseTensor:
    """Regular (strided) sparse convolution: the active set expands to every
    reachable output position of the downsampled grid."""
    spec = layer.spec
    out_shape = regular_out_shape(t.spatial_shape, spec)
    rulebook = t.geometry.rulebook(
        (spec, out_shape), lambda: build_rulebook_regular(t, spec, out_shape)
    )
    return _apply_rulebook(t, layer, rulebook, rulebook.out_geometry)

