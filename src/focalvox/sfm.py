"""Sparse focal modulation: hierarchical context extraction and gating.

The module replaces attention's query-key-value interactions with a stack
of small-kernel, increasingly dilated submanifold convolutions.  Each level
widens the receptive field; per-voxel gates weigh the levels; the summed
context modulates a query projection elementwise.  Everything preserves the
input's active set, so a whole block is a fixed-sparsity token mixer.

One fused linear produces queries, the level-0 context, and the gates
(split order [queries | context | gates]); gates are raw linear outputs,
as in focal modulation, with no squashing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ops
from .conv import SparseConvLayer, conv_vjp, subm_conv
from .errors import InvalidSpec, ShapeMismatch
from .params import ParamPair, ParamSource, linear_params, norm_params
from .sparse import KernelSpec, SparseTensor, check_kernels, rulebook
from .sparse import build_rulebook_submanifold  # patched by perfbench/tracing.py
from .tape import Tensor, active_tape, emit

MLP_RATIO = 2  # a block's MLP hidden width, in channels


@dataclass(frozen=True)
class SFMConfig:
    """Level count, per-level kernel sizes and dilations, channel width."""

    channels: int
    kernels: tuple[int, ...]
    dilations: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "kernels", tuple(int(k) for k in self.kernels))
        object.__setattr__(self, "dilations", tuple(int(d) for d in self.dilations))
        if self.channels < 1:
            raise InvalidSpec(f"channels must be at least 1, got {self.channels}")
        if len(self.kernels) != len(self.dilations) or not self.kernels:
            raise InvalidSpec("kernels and dilations must be equal-length, non-empty")
        check_kernels(self.kernels, self.dilations)

    @property
    def levels(self) -> int:
        return len(self.kernels)

    @property
    def mlp_hidden(self) -> int:
        return MLP_RATIO * self.channels


def effective_receptive_field(config: SFMConfig) -> int:
    """Receptive-field edge after all levels: 1 + sum (k_l - 1) * d_l voxels."""
    return 1 + sum((k - 1) * d for k, d in zip(config.kernels, config.dilations))


def erf_meters(config: SFMConfig, voxel_edge: float) -> float:
    # the voxel count is exact; round the product at 12 decimals so that a
    # short-decimal voxel edge yields the decimal-exact figure (19 * 0.1
    # must compare equal to 1.9, not 1.9000000000000001)
    return round(effective_receptive_field(config) * voxel_edge, 12)


def erf_radius(config: SFMConfig) -> int:
    """Chebyshev radius of possible influence: (edge - 1) / 2."""
    return (effective_receptive_field(config) - 1) // 2


@dataclass
class SfmModuleParams:
    in_proj: ParamPair
    level_convs: list[SparseConvLayer]
    h: ParamPair


@dataclass
class SfmBlockParams:
    module: SfmModuleParams
    ln1: ParamPair
    ln2: ParamPair
    fc1: ParamPair
    fc2: ParamPair


@dataclass
class BatchNormParams:
    """One batch norm; the running statistics are mutable buffers."""

    gain: Tensor
    bias: Tensor
    running_mean: Tensor
    running_var: Tensor


@dataclass
class SrbParams:
    """Two conv+BN stages with a skip."""

    conv1: SparseConvLayer
    bn1: BatchNormParams
    conv2: SparseConvLayer
    bn2: BatchNormParams


def input_projection(
    x: Tensor, weight: Tensor, bias: Tensor, channels: int, levels: int
) -> tuple[Tensor, Tensor, Tensor]:
    """One fused linear C -> 2C+L split into (queries, base context, gates)."""
    if weight.data.shape != (channels, 2 * channels + levels):
        raise ShapeMismatch(
            f"projection weight {weight.data.shape} != ({channels}, {2 * channels + levels})"
        )
    fused = ops.linear(x, weight, bias)
    queries = ops.slice_cols(fused, 0, channels)
    base = ops.slice_cols(fused, channels, 2 * channels)
    gates = ops.slice_cols(fused, 2 * channels, 2 * channels + levels)
    return queries, base, gates


def _focal_levels(cur: SparseTensor, level_convs: list[SparseConvLayer]):
    """Yield each level's features; the generator's own reference to the
    previous level (the input first) goes when the next conv returns."""
    for conv in level_convs:
        cur = subm_conv(cur, conv)
        cur = cur.with_features(ops.gelu(cur.features))
        yield cur.features


def context_levels(t: SparseTensor, level_convs: list[SparseConvLayer], gates: Tensor,
                   fold=None) -> Tensor:
    """``fold(levels, gates)`` of the hierarchical focal features, where
    level l is gelu(conv_l(level l-1)) for l = 1..L and level 0 is ``t``; by
    default (None) the gate-weighted sum ``sum_l gates[:, l-1] * level l``.
    The levels come as a generator, each made as the fold reads it.  All
    levels share the input's active set; the README's "Activation
    lifetimes" says which arrays stay alive."""
    levels = _focal_levels(t, level_convs)
    del t
    # looked up at call time, where perfbench/tracing.py patches it
    return (fold or ops.weighted_level_sum)(levels, gates)


def sfm_module(t: SparseTensor, config: SFMConfig, params: SfmModuleParams) -> SparseTensor:
    """Full mixer: project, fold the gated context levels, project the sum
    back to query space, modulate.

    The base context is passed on as a temporary, so that no local here
    holds it while the levels run: untaped, it dies after level 1.  On a
    tape the levels fold into :func:`ops.modulation`, which keeps the
    queries (its multiply saves them anyway; a second projection node would
    split its gradients).  An untaped pass does not hold the queries
    through the levels: it reruns the projection's linear once the context
    is formed, the same product of the same operands, and slices the
    queries alone."""
    projected = list(input_projection(  # [queries, base context, gates]
        t.features, *params.in_proj, config.channels, config.levels))
    if active_tape(t.features, *params.in_proj) is not None:
        queries = projected.pop(0)
        return t.with_features(context_levels(
            t.with_features(projected.pop(0)), params.level_convs, projected[0],
            lambda levels, gates: ops.modulation(tuple(levels), gates, queries, *params.h)))
    projected[0] = None
    context = ops.linear(
        context_levels(t.with_features(projected.pop(1)), params.level_convs, projected[1]),
        *params.h)
    queries = ops.slice_cols(ops.linear(t.features, *params.in_proj), 0, config.channels)
    return t.with_features(ops.multiply(queries, context))  # each query picks up its context


def sfm_block(t: SparseTensor, config: SFMConfig, params: SfmBlockParams) -> SparseTensor:
    """Post-norm residual block around the mixer and a single-hidden MLP.

    y' = LN(z) + x;  y = LN(MLP(y')) + y'.
    """
    z = sfm_module(t, config, params.module)
    y1 = ops.add(ops.layer_norm(z.features, *params.ln1), t.features)
    del z  # the mixer output is not held through the MLP
    mlp = ops.mlp_block(y1, *params.fc1, *params.fc2)
    y = ops.add(ops.layer_norm(mlp, *params.ln2), y1)
    return t.with_features(y)


def _bn(x: Tensor, bn: BatchNormParams, mode: str, saved: list | None = None) -> Tensor:
    """One batch norm, recorded as an op; with ``saved``, for the residual-block
    node, computed untaped, appending the gain, bias, ``xhat`` and inverse
    deviation it used."""
    if saved is None:
        out, new_mean, new_var = ops.batch_norm_active(
            x, bn.gain, bn.bias, bn.running_mean.data, bn.running_var.data, mode=mode
        )
    else:
        xhat, inv_std, new_mean, new_var = ops.batch_norm_arrays(
            x.data, bn.running_mean.data, bn.running_var.data, mode)
        saved.append((bn.gain.data, bn.bias.data, xhat, inv_std))
        out = Tensor(xhat * bn.gain.data + bn.bias.data)
    # the engine's one in-place update: running buffers track a train-mode
    # batch (eval mode hands them back as given)
    bn.running_mean.data, bn.running_var.data = new_mean, new_var
    return out


def _srb(t: SparseTensor, params: SrbParams, bn_mode: str, saved: list | None = None):
    """conv-BN-relu-conv-BN, skip, relu; ``saved`` goes to :func:`_bn`."""
    h = subm_conv(t, params.conv1)
    h = h.with_features(ops.relu(_bn(h.features, params.bn1, bn_mode, saved)))
    h = subm_conv(h, params.conv2)
    pre = _bn(h.features, params.bn2, bn_mode, saved)
    return t.with_features(ops.relu(ops.add(pre, t.features)))


def srb_block(t: SparseTensor, params: SrbParams, bn_mode: str = "train") -> SparseTensor:
    """Residual conv block: conv-BN-relu-conv-BN, skip, relu.

    On a tape that forms weight gradients (``tape.params``) the block is one
    node, ``srb_block``.  It saves its input and each batch norm's
    normalized activations and inverse deviations.  Its VJP rebuilds the
    second conv's input, both relu masks and the residual sum elementwise
    from those, recomputes no conv, and runs the batch-norm and conv VJPs,
    so every gradient has the bytes of the ops recorded one by one, and a
    conv weight gradient may still come as a callable.  Other tapes record
    the ops (README, "Gradient tape")."""
    c1, c2, bn1, bn2 = params.conv1, params.conv2, params.bn1, params.bn2
    operands = (t.features, c1.weight, c1.bias, bn1.gain, bn1.bias,
                c2.weight, c2.bias, bn2.gain, bn2.bias)
    tape = active_tape(*operands)
    if tape is None or not tape.params:
        return _srb(t, params, bn_mode)
    saved = []  # per batch norm: gain, bias, xhat, inv_std
    u = t.with_features(Tensor(t.features.data))
    data = _srb(u, params, bn_mode, saved).features.data
    rb1, rb2 = rulebook(u, c1.spec), rulebook(u, c2.spec)  # one spec, kept since conv2 asked again
    xd, wd1, wd2 = t.features.data, c1.weight.data, c2.weight.data
    (gd1, bd1, xhat1, inv1), (gd2, bd2, xhat2, inv2) = saved
    all_needed, bias1, bias2 = (True, True, True), c1.bias is not None, c2.bias is not None

    def vjp(cot):
        # the output relu's mask over the residual sum; its cotangent is
        # also the skip's
        skip = cot * (xhat2 * gd2 + bd2 + xd > 0)
        gh, gg2, gb2 = ops.batch_norm_vjp(gd2, xhat2, inv2, bn_mode, all_needed)(skip)
        r = np.maximum(xhat1 * gd1 + bd1, 0)  # the second conv's input
        gr, gw2, gc2 = conv_vjp(r, rb2, wd2, gh, True, bias2)
        gr = gr * (r > 0)
        del r
        gh, gg1, gb1 = ops.batch_norm_vjp(gd1, xhat1, inv1, bn_mode, all_needed)(gr)
        del gr
        gx, gw1, gc1 = conv_vjp(xd, rb1, wd1, gh, True, bias1)
        return skip + gx, gw1, gc1, gg1, gb1, gw2, gc2, gg2, gb2

    return t.with_features(emit("srb_block", data, operands, lambda needs: vjp))


# ---------------------------------------------------------------------------
# parameter layout: ``p`` creates (Initializer) or binds (ParamReader)


def sfm_module_params(p: ParamSource, prefix: str, config: SFMConfig, dims: int) -> SfmModuleParams:
    c, levels = config.channels, config.levels
    in_proj = linear_params(p, f"{prefix}.in_proj", c, 2 * c + levels)
    convs = []
    for l, (k, d) in enumerate(zip(config.kernels, config.dilations), start=1):
        spec = KernelSpec.same(k, d, dims=dims)
        weight = p.weight(f"{prefix}.level{l}.weight", (spec.volume, c, c))
        convs.append(SparseConvLayer(spec, weight, p.zeros(f"{prefix}.level{l}.bias", (c,))))
    return SfmModuleParams(in_proj, convs, linear_params(p, f"{prefix}.h", c, c))


def sfm_block_params(p: ParamSource, prefix: str, config: SFMConfig, dims: int) -> SfmBlockParams:
    c, hidden = config.channels, config.mlp_hidden
    return SfmBlockParams(
        sfm_module_params(p, prefix, config, dims),
        norm_params(p, f"{prefix}.ln1", c),
        norm_params(p, f"{prefix}.ln2", c),
        linear_params(p, f"{prefix}.mlp.fc1", c, hidden),
        linear_params(p, f"{prefix}.mlp.fc2", hidden, c),
    )


def batch_norm_params(p: ParamSource, prefix: str, channels: int) -> BatchNormParams:
    return BatchNormParams(
        *norm_params(p, prefix, channels),
        p.zeros(f"{prefix}.running_mean", (channels,)),
        p.ones(f"{prefix}.running_var", (channels,)),
    )


def srb_params(p: ParamSource, prefix: str, channels: int, dims: int) -> SrbParams:
    spec = KernelSpec.same(3, 1, dims=dims)

    def conv_bn(stage):
        # convs feed a batch norm, so they carry no bias
        weight = p.weight(f"{prefix}.conv{stage}.weight", (spec.volume, channels, channels))
        return SparseConvLayer(spec, weight), batch_norm_params(p, f"{prefix}.bn{stage}", channels)

    return SrbParams(*conv_bn(1), *conv_bn(2))


def sfm_pair_count(t: SparseTensor, config: SFMConfig) -> dict[str, int]:
    """Exact interaction counts of one mixer application on a scene.

    Rulebook pairs are counted level by level, on rulebooks requested from
    the scene's geometry, which keeps them from a second count on; the gate
    and modulation stages contribute N*L and N rowwise interactions.
    """
    n = t.n_active
    conv_pairs = sum(rulebook(t, KernelSpec.same(k, d, dims=t.dims)).total_pairs
                     for k, d in zip(config.kernels, config.dilations))
    return {
        "conv_pairs": conv_pairs,
        "gate": n * config.levels,
        "modulation": n,
        "total": conv_pairs + n * config.levels + n,
    }
