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

import math
from dataclasses import dataclass

from . import ops
from .conv import SparseConvLayer, subm_conv
from .errors import InvalidSpec, ShapeMismatch
from .params import ParamSource
from .sparse import KernelSpec, SparseTensor, build_rulebook_submanifold, check_kernels
from .tape import Tensor


@dataclass(frozen=True)
class SFMConfig:
    """Level count, per-level kernel sizes and dilations, channel width."""

    channels: int
    kernels: tuple[int, ...]
    dilations: tuple[int, ...]
    mlp_ratio: float = 2.0

    def __post_init__(self):
        object.__setattr__(self, "kernels", tuple(int(k) for k in self.kernels))
        object.__setattr__(self, "dilations", tuple(int(d) for d in self.dilations))
        if self.channels < 1:
            raise InvalidSpec(f"channels must be at least 1, got {self.channels}")
        if not self.mlp_ratio > 0:
            raise InvalidSpec(f"mlp_ratio must be positive, got {self.mlp_ratio}")
        if len(self.kernels) != len(self.dilations) or not self.kernels:
            raise InvalidSpec("kernels and dilations must be equal-length, non-empty")
        check_kernels(self.kernels, self.dilations)
        try:
            hidden = float(self.mlp_ratio * self.channels)
        except OverflowError:  # a width beyond float range
            hidden = math.inf
        if not hidden.is_integer():  # positive by the checks above
            raise InvalidSpec(
                f"mlp_ratio * channels must be a positive integer, got {hidden}"
            )

    @property
    def levels(self) -> int:
        return len(self.kernels)

    @property
    def mlp_hidden(self) -> int:
        return int(self.mlp_ratio * self.channels)


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
    in_proj_w: Tensor
    in_proj_b: Tensor
    level_convs: list[SparseConvLayer]
    h_w: Tensor
    h_b: Tensor


@dataclass
class SfmBlockParams:
    module: SfmModuleParams
    ln1_gain: Tensor
    ln1_bias: Tensor
    ln2_gain: Tensor
    ln2_bias: Tensor
    mlp_w1: Tensor
    mlp_b1: Tensor
    mlp_w2: Tensor
    mlp_b2: Tensor


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
    if x.data.shape[1] != channels:
        raise ShapeMismatch(f"expected {channels} input channels, got {x.data.shape[1]}")
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


def context_levels(
    t: SparseTensor, config: SFMConfig, level_convs: list[SparseConvLayer], gates: Tensor
) -> Tensor:
    """Gate-weighted sum of the hierarchical focal features:
    ``sum_l gates[:, l-1] * level l`` over l = 1..L, where level l is
    gelu(conv_l(level l-1)) and level 0 is ``t``.

    All levels share the input's active set (submanifold property).  The
    level convs run in this call, each level is folded into the sum as it
    is made, and, untaped, a level dies once the next one is made: neither
    this call nor the fold keeps ``t`` or a finished level."""
    if len(level_convs) != config.levels:
        raise ShapeMismatch(f"need {config.levels} level convs, got {len(level_convs)}")
    levels = _focal_levels(t, level_convs)
    del t
    return ops.weighted_level_sum(levels, gates)


def sfm_module(t: SparseTensor, config: SFMConfig, params: SfmModuleParams) -> SparseTensor:
    """Full mixer: project, fold the gated context levels, project the sum
    back to query space, modulate.

    The base context is passed on as a temporary, so that no local here
    holds it while the levels run: untaped, it dies after level 1."""
    projected = list(input_projection(
        t.features, params.in_proj_w, params.in_proj_b, config.channels, config.levels
    ))
    queries, gates = projected[0], projected[2]
    context = ops.linear(
        context_levels(t.with_features(projected.pop(1)), config, params.level_convs, gates),
        params.h_w, params.h_b,
    )
    return t.with_features(ops.multiply(queries, context))  # each query picks up its context


def sfm_block(t: SparseTensor, config: SFMConfig, params: SfmBlockParams) -> SparseTensor:
    """Post-norm residual block around the mixer and a single-hidden MLP.

    y' = LN(z) + x;  y = LN(MLP(y')) + y'.
    """
    z = sfm_module(t, config, params.module)
    y1 = ops.add(ops.layer_norm(z.features, params.ln1_gain, params.ln1_bias), t.features)
    del z  # the mixer output is not held through the MLP
    mlp = ops.mlp_block(y1, params.mlp_w1, params.mlp_b1, params.mlp_w2, params.mlp_b2)
    y = ops.add(ops.layer_norm(mlp, params.ln2_gain, params.ln2_bias), y1)
    return t.with_features(y)


def _bn(x: Tensor, bn: BatchNormParams, mode: str) -> Tensor:
    out, new_mean, new_var = ops.batch_norm_active(
        x, bn.gain, bn.bias, bn.running_mean.data, bn.running_var.data, mode=mode
    )
    if mode == "train":
        # the engine's one in-place update: running buffers track the batch
        bn.running_mean.data = new_mean
        bn.running_var.data = new_var
    return out


def srb_block(t: SparseTensor, params: SrbParams, bn_mode: str = "train") -> SparseTensor:
    """Residual conv block: conv-BN-relu-conv-BN, skip, relu."""
    h = subm_conv(t, params.conv1)
    h = h.with_features(ops.relu(_bn(h.features, params.bn1, bn_mode)))
    h = subm_conv(h, params.conv2)
    pre = _bn(h.features, params.bn2, bn_mode)
    return t.with_features(ops.relu(ops.add(pre, t.features)))


# ---------------------------------------------------------------------------
# parameter layout: ``p`` creates (Initializer) or binds (ParamReader)


def sfm_module_params(p: ParamSource, prefix: str, config: SFMConfig, dims: int) -> SfmModuleParams:
    c, levels = config.channels, config.levels
    in_proj_w = p.weight(f"{prefix}.in_proj.weight", (c, 2 * c + levels), fan_in=c)
    in_proj_b = p.zeros(f"{prefix}.in_proj.bias", (2 * c + levels,))
    convs = []
    for l, (k, d) in enumerate(zip(config.kernels, config.dilations), start=1):
        spec = KernelSpec.same(k, d, dims=dims)
        weight = p.weight(f"{prefix}.level{l}.weight", (spec.volume, c, c),
                          fan_in=spec.volume * c)
        convs.append(SparseConvLayer(spec, weight, p.zeros(f"{prefix}.level{l}.bias", (c,))))
    return SfmModuleParams(
        in_proj_w=in_proj_w,
        in_proj_b=in_proj_b,
        level_convs=convs,
        h_w=p.weight(f"{prefix}.h.weight", (c, c), fan_in=c),
        h_b=p.zeros(f"{prefix}.h.bias", (c,)),
    )


def sfm_block_params(p: ParamSource, prefix: str, config: SFMConfig, dims: int) -> SfmBlockParams:
    c, hidden = config.channels, config.mlp_hidden
    return SfmBlockParams(
        module=sfm_module_params(p, prefix, config, dims),
        ln1_gain=p.ones(f"{prefix}.ln1.gain", (c,)),
        ln1_bias=p.zeros(f"{prefix}.ln1.bias", (c,)),
        ln2_gain=p.ones(f"{prefix}.ln2.gain", (c,)),
        ln2_bias=p.zeros(f"{prefix}.ln2.bias", (c,)),
        mlp_w1=p.weight(f"{prefix}.mlp.fc1.weight", (c, hidden), fan_in=c),
        mlp_b1=p.zeros(f"{prefix}.mlp.fc1.bias", (hidden,)),
        mlp_w2=p.weight(f"{prefix}.mlp.fc2.weight", (hidden, c), fan_in=hidden),
        mlp_b2=p.zeros(f"{prefix}.mlp.fc2.bias", (c,)),
    )


def batch_norm_params(p: ParamSource, prefix: str, channels: int) -> BatchNormParams:
    return BatchNormParams(
        p.ones(f"{prefix}.gain", (channels,)),
        p.zeros(f"{prefix}.bias", (channels,)),
        p.zeros(f"{prefix}.running_mean", (channels,)),
        p.ones(f"{prefix}.running_var", (channels,)),
    )


def srb_params(p: ParamSource, prefix: str, channels: int, dims: int) -> SrbParams:
    spec = KernelSpec.same(3, 1, dims=dims)

    def conv_bn(stage):
        # convs feed a batch norm, so they carry no bias
        weight = p.weight(f"{prefix}.conv{stage}.weight", (spec.volume, channels, channels),
                          fan_in=spec.volume * channels)
        return SparseConvLayer(spec, weight), batch_norm_params(p, f"{prefix}.bn{stage}", channels)

    return SrbParams(*conv_bn(1), *conv_bn(2))


def sfm_pair_count(t: SparseTensor, config: SFMConfig) -> dict[str, int]:
    """Exact interaction counts of one mixer application on a scene.

    Rulebook pairs are counted level by level, on the rulebooks cached on
    the scene's geometry; the gate and modulation stages contribute N*L
    and N rowwise interactions.
    """
    n = t.n_active
    conv_pairs = 0
    for k, d in zip(config.kernels, config.dilations):
        spec = KernelSpec.same(k, d, dims=t.dims)
        rb = t.geometry.rulebook(spec, lambda: build_rulebook_submanifold(t, spec))
        conv_pairs += rb.total_pairs
    return {
        "conv_pairs": conv_pairs,
        "gate": n * config.levels,
        "modulation": n,
        "total": conv_pairs + n * config.levels + n,
    }
