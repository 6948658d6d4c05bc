"""JSON configuration documents.

A config file carries the voxelizer geometry, the four 3-D stage recipes,
the downsample channel plan, BEV settings, the 2-D stage recipe, the
precision mode and the seed.  The schema is closed: unknown keys anywhere
are rejected.
"""

from __future__ import annotations

import json

from .backbone import NetworkConfig, StageConfig
from .errors import ConfigError
from .fileio import atomic_write_text, read_bytes
from .points import VoxelizerConfig
from .sfm import SFMConfig
from .tape import PrecisionMode

_TOP_KEYS = {
    "voxelizer", "stages", "downsample_channels", "bev", "backbone2d",
    "precision", "seed",
}
_VOXELIZER_KEYS = {"voxel_size", "range_min", "range_max", "out_channels"}
_STAGE_KEYS = {"n_sfm", "n_srb", "channels", "kernels", "dilations", "mlp_ratio"}
_BEV_KEYS = {"channels"}


def _require_keys(obj: dict, allowed: set, where: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = allowed - set(obj)
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")


def _stage_from_dict(obj: dict, where: str) -> StageConfig:
    _require_keys(obj, _STAGE_KEYS, where)
    try:
        return StageConfig(
            n_sfm=int(obj["n_sfm"]),
            n_srb=int(obj["n_srb"]),
            sfm=SFMConfig(
                channels=int(obj["channels"]),
                kernels=tuple(obj["kernels"]),
                dilations=tuple(obj["dilations"]),
                mlp_ratio=float(obj["mlp_ratio"]),
            ),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _stage_to_dict(cfg: StageConfig) -> dict:
    return {
        "n_sfm": cfg.n_sfm,
        "n_srb": cfg.n_srb,
        "channels": cfg.channels,
        "kernels": list(cfg.sfm.kernels),
        "dilations": list(cfg.sfm.dilations),
        "mlp_ratio": cfg.sfm.mlp_ratio,
    }


def config_from_dict(doc: dict) -> NetworkConfig:
    _require_keys(doc, _TOP_KEYS, "config")
    _require_keys(doc["voxelizer"], _VOXELIZER_KEYS, "voxelizer")
    _require_keys(doc["bev"], _BEV_KEYS, "bev")
    if not isinstance(doc["stages"], list) or len(doc["stages"]) != 4:
        raise ConfigError("stages must be an array of exactly 4 objects")
    try:
        voxelizer = VoxelizerConfig(
            voxel_size=tuple(doc["voxelizer"]["voxel_size"]),
            range_min=tuple(doc["voxelizer"]["range_min"]),
            range_max=tuple(doc["voxelizer"]["range_max"]),
            out_channels=int(doc["voxelizer"]["out_channels"]),
        )
        precision = PrecisionMode(doc["precision"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    stages = tuple(
        _stage_from_dict(s, f"stages[{i}]") for i, s in enumerate(doc["stages"])
    )
    try:
        return NetworkConfig(
            voxelizer=voxelizer,
            stages=stages,
            downsample_channels=tuple(int(c) for c in doc["downsample_channels"]),
            bev_channels=int(doc["bev"]["channels"]),
            backbone2d=_stage_from_dict(doc["backbone2d"], "backbone2d"),
            precision=precision,
            seed=int(doc["seed"]),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def config_to_dict(cfg: NetworkConfig) -> dict:
    return {
        "voxelizer": {
            "voxel_size": list(cfg.voxelizer.voxel_size),
            "range_min": list(cfg.voxelizer.range_min),
            "range_max": list(cfg.voxelizer.range_max),
            "out_channels": cfg.voxelizer.out_channels,
        },
        "stages": [_stage_to_dict(s) for s in cfg.stages],
        "downsample_channels": list(cfg.downsample_channels),
        "bev": {"channels": cfg.bev_channels},
        "backbone2d": _stage_to_dict(cfg.backbone2d),
        "precision": cfg.precision.value,
        "seed": cfg.seed,
    }


def config_to_json(cfg: NetworkConfig) -> str:
    return json.dumps(config_to_dict(cfg), sort_keys=True, indent=2) + "\n"


def config_from_json(text: str) -> NetworkConfig:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc
    return config_from_dict(doc)


def load_config(path) -> NetworkConfig:
    return config_from_json(read_bytes(path).decode("utf-8"))


def save_config(cfg: NetworkConfig, path) -> None:
    atomic_write_text(path, config_to_json(cfg))
