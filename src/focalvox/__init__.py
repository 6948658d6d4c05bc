"""Sparse voxel network engine with a focal-modulation token mixer.

Deterministic CPU implementation of submanifold and regular sparse
convolutions driven by explicit rulebooks, a single-replay gradient tape
with finite-difference checking, the hierarchical focal-modulation mixer
and its backbone, gradient-based receptive-field probing, and exact
interaction counting against a local-attention reference.
"""

from .backbone import (
    NetworkConfig,
    SfmNet,
    StageConfig,
    init_network,
    param_count,
    preset,
    sfmnet_forward,
)
from .conv import SparseConvLayer, regular_conv_down, subm_conv
from .erf import ErfMap, emit_pgm, erf_gradient_map, select_query
from .gradcheck import vjp_check
from .params import Initializer, ParamReader, ParamStore
from .points import PointCloud, VoxelizerConfig, load_points, voxelize_vfe
from .sfm import (
    SFMConfig,
    effective_receptive_field,
    erf_meters,
    sfm_block,
    sfm_module,
    srb_block,
)
from .sparse import (
    CoordIndex,
    Geometry,
    KernelSpec,
    Rulebook,
    SparseTensor,
    build_rulebook_regular,
    build_rulebook_submanifold,
    gather_scatter_matmul,
)
from .tape import GradTape, Tensor

__version__ = "0.1.0"

__all__ = [
    "CoordIndex",
    "ErfMap",
    "Geometry",
    "GradTape",
    "Initializer",
    "KernelSpec",
    "NetworkConfig",
    "ParamReader",
    "ParamStore",
    "PointCloud",
    "Rulebook",
    "SFMConfig",
    "SfmNet",
    "SparseConvLayer",
    "SparseTensor",
    "StageConfig",
    "Tensor",
    "VoxelizerConfig",
    "build_rulebook_regular",
    "build_rulebook_submanifold",
    "effective_receptive_field",
    "emit_pgm",
    "erf_gradient_map",
    "erf_meters",
    "gather_scatter_matmul",
    "init_network",
    "load_points",
    "param_count",
    "preset",
    "regular_conv_down",
    "select_query",
    "sfm_block",
    "sfm_module",
    "sfmnet_forward",
    "srb_block",
    "subm_conv",
    "voxelize_vfe",
    "vjp_check",
]
