"""Stage composition, downsampling, BEV compression, and the full network.

The 3-D backbone runs four stages of mixer/residual blocks with a stride-2
regular convolution between stages, collapses the height axis into a 2-D
bird's-eye-view grid, runs one 2-D stage, and finishes with a small probe
head that exists purely to exercise end-to-end gradients.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import ops
from .conv import SparseConvLayer, regular_conv_down
from .errors import InvalidSpec, ShapeMismatch
from .params import (Initializer, LayoutTemplate, ParamPair, ParamReader, ParamSource,
                     ParamStore, linear_params, norm_params)
from .points import PointCloud, VoxelizerConfig, vfe_params, voxelize_vfe
from .sfm import (
    BatchNormParams,
    SFMConfig,
    SfmBlockParams,
    SrbParams,
    _bn,
    batch_norm_params,
    sfm_block,
    sfm_block_params,
    srb_block,
    srb_params,
)
from .sparse import KernelSpec, SparseTensor, unique_coords
from .tape import GradTape

PROBE_LOGITS = 3


@dataclass(frozen=True)
class StageConfig:
    """How many mixer blocks and residual blocks one stage runs.

    ``n_srb`` residual blocks follow each mixer block; with ``n_sfm == 0``
    the stage is ``n_srb`` residual blocks total.
    """

    n_sfm: int
    n_srb: int
    sfm: SFMConfig

    def __post_init__(self):
        if self.n_sfm < 0 or self.n_srb < 0:
            raise InvalidSpec("block counts must be non-negative")
        if self.n_sfm + self.n_srb < 1:
            raise InvalidSpec("a stage needs at least one block")

    @property
    def channels(self) -> int:
        return self.sfm.channels


@dataclass(frozen=True)
class NetworkConfig:
    """Each channel width is set once, by the stage that runs at it: the
    VFE and each downsample produce the width of the stage they feed, and
    the BEV projection and the probe use that of ``backbone2d``."""

    voxelizer: VoxelizerConfig
    stages: tuple[StageConfig, StageConfig, StageConfig, StageConfig]
    backbone2d: StageConfig
    seed: int = 0

    def __post_init__(self):
        if len(self.stages) != 4:
            raise InvalidSpec("exactly four 3-D stages required")
        if self.seed < 0:
            raise InvalidSpec(f"seed must be non-negative, got {self.seed}")


PRESET_NAMES = ("tiny", "argoverse2-like", "waymo-like")


def _stage(n_sfm, n_srb, channels, kernels, dilations):
    return StageConfig(n_sfm, n_srb, SFMConfig(channels, kernels, dilations))


def preset(name: str) -> NetworkConfig:
    """Named configurations at desk scale.

    tiny keeps every stage one or two blocks deep for fast oracle tests;
    the argoverse2-like preset uses kernels (3,3,3,3) with dilations
    (1,3,5,7), the waymo-like preset kernels (3,5,3,5) with dilations
    (1,1,3,3), both with the deeper per-stage block counts.
    """
    if name == "tiny":
        # z keeps 32 cells so that after three stride-2 halvings the
        # dilation-3 level convs still find in-grid neighbors
        k, d = (3, 3), (1, 3)
        return NetworkConfig(
            voxelizer=VoxelizerConfig((0.1, 0.1, 0.2), (-3.2, -3.2, -3.2),
                                      (3.2, 3.2, 3.2)),
            stages=(
                _stage(0, 1, 16, k, d),
                _stage(1, 1, 32, k, d),
                _stage(1, 1, 64, k, d),
                _stage(1, 2, 128, k, d),
            ),
            backbone2d=_stage(1, 1, 128, k, d),
        )
    if name == "argoverse2-like":
        k, d = (3, 3, 3, 3), (1, 3, 5, 7)
        return NetworkConfig(
            voxelizer=VoxelizerConfig((0.1, 0.1, 0.2), (-12.8, -12.8, -3.2),
                                      (12.8, 12.8, 3.2)),
            stages=(
                _stage(0, 2, 16, k, d),
                _stage(1, 2, 32, k, d),
                _stage(1, 4, 64, k, d),
                _stage(4, 2, 128, k, d),
            ),
            backbone2d=_stage(2, 4, 128, k, d),
        )
    if name == "waymo-like":
        k, d = (3, 5, 3, 5), (1, 1, 3, 3)
        return NetworkConfig(
            voxelizer=VoxelizerConfig((0.08, 0.08, 0.15), (-10.24, -10.24, -2.4),
                                      (10.24, 10.24, 2.4)),
            stages=(
                _stage(0, 2, 16, k, d),
                _stage(1, 2, 32, k, d),
                _stage(1, 4, 64, k, d),
                _stage(2, 6, 128, k, d),
            ),
            backbone2d=_stage(2, 6, 128, k, d),
        )
    raise InvalidSpec(f"unknown preset {name!r}; choose from {PRESET_NAMES}")


# ---------------------------------------------------------------------------
# parameter layout


def init_network(cfg: NetworkConfig, seed: int | None = None) -> ParamStore:
    """Create every parameter of the network in float32, deterministically
    seeded.  A pass runs in its store's dtype: a float64 pass binds
    ``init_network(cfg).as_dtype(np.float64)``."""
    init = Initializer(ParamStore(), cfg.seed if seed is None else seed)
    return SfmNet(cfg, init).store


def network_template(cfg: NetworkConfig) -> ParamStore:
    """Every tensor of the layout, in float32, with no random draws: the
    names and shapes a weights file is loaded into."""
    return SfmNet(cfg, LayoutTemplate(ParamStore())).store


def param_count(cfg: NetworkConfig) -> int:
    """Exact trainable scalar count: that of the declared layout
    (:func:`network_template`), buffers excluded."""
    return network_template(cfg).scalar_count()


@dataclass
class DownsampleParams:
    conv: SparseConvLayer
    bn: BatchNormParams


@dataclass
class BevParams:
    proj: ParamPair
    ln: ParamPair


def downsample_params(p: ParamSource, prefix: str, c_in: int, c_out: int) -> DownsampleParams:
    """A stride-2 conv (no bias: it feeds the batch norm), then that batch norm."""
    spec = KernelSpec.downsample(3)
    conv = SparseConvLayer(spec, p.weight(f"{prefix}.conv.weight", (spec.volume, c_in, c_out)))
    return DownsampleParams(conv, batch_norm_params(p, f"{prefix}.bn", c_out))


def bev_params(p: ParamSource, c_in: int, c_out: int) -> BevParams:
    return BevParams(linear_params(p, "bev.proj", c_in, c_out), norm_params(p, "bev.ln", c_out))


def stage_params(
    p: ParamSource, prefix: str, cfg: StageConfig, dims: int
) -> list[SfmBlockParams | SrbParams]:
    """A stage's blocks in run order: mixer blocks, each followed by
    ``n_srb`` residual blocks (or, with no mixer, ``n_srb`` residual
    blocks alone)."""
    blocks = []
    n_srb = 0
    for r in range(max(cfg.n_sfm, 1)):
        if cfg.n_sfm:
            blocks.append(sfm_block_params(p, f"{prefix}.sfm{r}", cfg.sfm, dims))
        for _ in range(cfg.n_srb):
            blocks.append(srb_params(p, f"{prefix}.srb{n_srb}", cfg.channels, dims))
            n_srb += 1
    return blocks


def run_stage(
    t: SparseTensor, cfg: StageConfig, blocks: list[SfmBlockParams | SrbParams],
    bn_mode: str = "train",
) -> SparseTensor:
    """Sequential mixer/residual blocks; the active set never changes."""
    for block in blocks:
        if isinstance(block, SfmBlockParams):
            t = sfm_block(t, cfg.sfm, block)
        else:
            t = srb_block(t, block, bn_mode=bn_mode)
    return t


def downsample(t: SparseTensor, params: DownsampleParams, bn_mode: str = "train") -> SparseTensor:
    """Stride-2 regular conv, then BN and ReLU."""
    out = regular_conv_down(t, params.conv)
    return out.with_features(ops.relu(_bn(out.features, params.bn, bn_mode)))


def bev_compress(t: SparseTensor, params: BevParams) -> SparseTensor:
    """Collapse the height axis: sum features per (batch, x, y) column,
    project to the BEV width, LayerNorm.  Output columns are sorted."""
    if t.dims != 3:
        raise ShapeMismatch("BEV compression expects a 3-D tensor")
    bev_shape = t.spatial_shape[:2]
    uniq, inverse = unique_coords(t.coords[:, :3], bev_shape)
    pooled = ops.scatter_rows_sum(t.features, inverse, uniq.shape[0])
    out = ops.layer_norm(ops.linear(pooled, *params.proj), *params.ln)
    return SparseTensor(uniq, out, bev_shape)


class SfmNet:
    """Binds a config and a parameter store into a runnable network.

    The constructor is the network's parameter layout.  ``store`` is a
    ParamStore to bind (every tensor must be present with its declared
    shape), or an Initializer, which creates each tensor as it is declared
    (see :func:`init_network`).
    """

    def __init__(self, config: NetworkConfig, store: ParamStore | Initializer):
        p = store if isinstance(store, Initializer) else ParamReader(store)
        self.config = config
        self.store = p.store
        self.vfe_w, self.vfe_b = vfe_params(p, config.stages[0].channels)
        self.stages, self.downs = [], []
        for i, stage_cfg in enumerate(config.stages, start=1):
            self.stages.append(stage_params(p, f"stage{i}", stage_cfg, dims=3))
            if i < 4:
                self.downs.append(downsample_params(
                    p, f"down{i}", stage_cfg.channels, config.stages[i].channels))
        c_bev = config.backbone2d.channels
        self.bev = bev_params(p, config.stages[3].channels, c_bev)
        self.stage2d = stage_params(p, "backbone2d", config.backbone2d, dims=2)
        self.probe_w, self.probe_b = linear_params(p, "probe", c_bev, PROBE_LOGITS)

    def backbone3d(self, t: SparseTensor, bn_mode: str = "train", depth: int = 4) -> SparseTensor:
        """3-D stages 1..depth with the downsamples between them.  ``held``
        passes each stage its input and keeps none, so, untaped, a stage's
        input dies after the stage's first block."""
        held = [t]
        del t
        for i in range(depth):
            held.append(run_stage(held.pop(), self.config.stages[i], self.stages[i], bn_mode))
            if i < depth - 1:
                held.append(downsample(held.pop(), self.downs[i], bn_mode=bn_mode))
        return held.pop()


def sfmnet_forward(
    cloud: PointCloud,
    config: NetworkConfig,
    store: ParamStore,
    tape: GradTape | None = None,
    bn_mode: str = "train",
):
    """One full pass: voxelize, 3-D stages with downsamples, BEV
    compression, 2-D stage, probe.  Returns (BEV sparse tensor, per-cell
    probe logits).

    No local holds an array past its last reader: the voxelized tensor
    goes straight into ``backbone3d``, so, untaped, the stage-1 features,
    geometry and rulebooks die at the first downsample."""
    net = SfmNet(config, store)
    bev = bev_compress(net.backbone3d(
        voxelize_vfe(cloud, config.voxelizer, net.vfe_w, net.vfe_b, tape=tape), bn_mode=bn_mode
    ), net.bev)
    bev = run_stage(bev, config.backbone2d, net.stage2d, bn_mode=bn_mode)
    return bev, ops.linear(bev.features, net.probe_w, net.probe_b)
