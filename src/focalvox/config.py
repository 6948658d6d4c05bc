"""JSON configuration documents.

A config file carries the voxelizer geometry, the four 3-D stage recipes,
the 2-D stage recipe and the seed.  Channel widths are stated once, per
stage: the VFE and each downsample produce the width of the stage they
feed, and the BEV projection that of the 2-D stage.  The schema is closed:
unknown keys anywhere are rejected.  Values must have their JSON type:
counts, channels, kernels, dilations and the seed are integers, sizes and
ranges finite numbers, and list fields arrays.  Every error names its
location (``stages[2]: ...``).
"""

from __future__ import annotations

import json
import sys

from .backbone import NetworkConfig, StageConfig
from .errors import ConfigError, FocalvoxError
from .fileio import atomic_write_text, read_bytes
from .points import VoxelizerConfig
from .sfm import SFMConfig

_TOP_KEYS = {"voxelizer", "stages", "backbone2d", "seed"}
# {key: (kind, array)} in reading order (see _field); a stage object holds
# the mixer fields (SFMConfig), then the block counts (StageConfig)
_VOXELIZER = {"voxel_size": (float, True), "range_min": (float, True), "range_max": (float, True)}
_MIXER = {"channels": (int, False), "kernels": (int, True), "dilations": (int, True)}
_COUNTS = {"n_sfm": (int, False), "n_srb": (int, False)}


def _require_keys(obj: dict, allowed: set, where: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = allowed - set(obj)
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")


def _field(obj: dict, key: str, where: str, kind: type = int, array: bool = False):
    """``obj[key]`` checked against its JSON type: an integer (not a
    boolean) for ``kind=int``, a finite number for ``kind=float``; with
    ``array``, a JSON array of those, returned as a tuple."""
    value = obj[key]
    if array and not isinstance(value, list):
        raise ConfigError(f"{where}: {key} must be an array, got {value!r}")
    allowed = (int, float) if kind is float else int
    for i, v in enumerate(value if array else [value]):
        if (isinstance(v, bool) or not isinstance(v, allowed)
                # false for NaN, infinities and integers beyond float range
                or (kind is float and not abs(v) <= sys.float_info.max)):
            name = f"{key}[{i}]" if array else key
            noun = "a finite number" if kind is float else "an integer"
            raise ConfigError(f"{where}: {name} must be {noun}, got {v!r}")
    return tuple(kind(v) for v in value) if array else kind(value)


def _fields(obj: dict, table: dict, where: str) -> dict:
    """Every field of ``table`` read from ``obj`` (see :func:`_field`), in table order."""
    return {key: _field(obj, key, where, kind, array) for key, (kind, array) in table.items()}


def _build(where: str, make, **fields):
    """``make(**fields)``, with any engine error re-raised as a ConfigError at ``where``."""
    try:
        return make(**fields)
    except FocalvoxError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _stage_from_dict(obj: dict, where: str) -> StageConfig:
    _require_keys(obj, _MIXER.keys() | _COUNTS.keys(), where)
    sfm = _build(where, SFMConfig, **_fields(obj, _MIXER, where))
    return _build(where, StageConfig, sfm=sfm, **_fields(obj, _COUNTS, where))


def _to_dict(cfg, table: dict) -> dict:
    """The fields of ``table`` read from ``cfg``, arrays as lists."""
    return {key: list(getattr(cfg, key)) if array else getattr(cfg, key)
            for key, (_, array) in table.items()}


def _stage_to_dict(cfg: StageConfig) -> dict:
    return {**_to_dict(cfg.sfm, _MIXER), **_to_dict(cfg, _COUNTS)}


def config_from_dict(doc: dict) -> NetworkConfig:
    _require_keys(doc, _TOP_KEYS, "config")
    vox = doc["voxelizer"]
    _require_keys(vox, set(_VOXELIZER), "voxelizer")
    voxelizer = _build("voxelizer", VoxelizerConfig, **_fields(vox, _VOXELIZER, "voxelizer"))
    if not isinstance(doc["stages"], list) or len(doc["stages"]) != 4:
        raise ConfigError("stages must be an array of exactly 4 objects")
    stages = tuple(
        _stage_from_dict(s, f"stages[{i}]") for i, s in enumerate(doc["stages"])
    )
    backbone2d = _stage_from_dict(doc["backbone2d"], "backbone2d")
    return _build("config", NetworkConfig, voxelizer=voxelizer, stages=stages,
                  backbone2d=backbone2d, seed=_field(doc, "seed", "config"))


def config_to_dict(cfg: NetworkConfig) -> dict:
    return {
        "voxelizer": _to_dict(cfg.voxelizer, _VOXELIZER),
        "stages": [_stage_to_dict(s) for s in cfg.stages],
        "backbone2d": _stage_to_dict(cfg.backbone2d),
        "seed": cfg.seed,
    }


def config_to_json(cfg: NetworkConfig) -> str:
    return json.dumps(config_to_dict(cfg), sort_keys=True, indent=2) + "\n"


def config_from_json(text: str) -> NetworkConfig:
    try:
        doc = json.loads(text)
    except ValueError as exc:  # also an integer beyond Python's digit limit
        raise ConfigError(f"invalid JSON: {exc}") from exc
    return config_from_dict(doc)


def load_config(path) -> NetworkConfig:
    try:
        text = read_bytes(path).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config is not UTF-8: {exc}") from exc
    return config_from_json(text)


def save_config(cfg: NetworkConfig, path) -> None:
    atomic_write_text(path, config_to_json(cfg))
