"""Point-cloud ingestion and voxel feature extraction.

Input formats: CSV lines ``x,y,z[,intensity]`` (header optional) and packed
little-endian float32 quadruples.  Voxelization mean-pools per-voxel
decorated points (offsets from the voxel center plus intensity) and applies
one linear+ReLU; accumulation runs in a canonical sorted order so the
result is bitwise independent of input point order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ops
from .errors import EmptyScene, InvalidSpec, ParseError
from .fileio import read_bytes
from .params import ParamSource, linear_params
from .sparse import SparseTensor, check_key_space, unique_coords
from .tape import GradTape, Tensor

VFE_RAW_FEATURES = 4  # dx, dy, dz, intensity
FLOAT32_MAX = float(np.finfo(np.float32).max)  # intensities are cast to float32


@dataclass
class PointCloud:
    """Points as an (N, 4) float64 array of x, y, z, intensity."""

    points: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64).reshape(-1, 4)
        if not np.all(np.isfinite(self.points)):
            raise InvalidSpec("point cloud contains non-finite values")
        if (np.abs(self.points[:, 3]) > FLOAT32_MAX).any():
            raise InvalidSpec("point cloud has an intensity beyond float32 range")

    def __len__(self):
        return self.points.shape[0]


def load_points(path, fmt: str = "csv") -> PointCloud:
    if fmt == "csv":
        return _load_csv(path)
    if fmt == "bin":
        return _load_bin(path)
    raise InvalidSpec(f"unknown point format {fmt!r}")


def _load_csv(path) -> PointCloud:
    rows = []
    for lineno, line in enumerate(read_bytes(path).splitlines(), start=1):
        try:
            text = line.decode("utf-8-sig" if lineno == 1 else "utf-8").strip()
        except UnicodeDecodeError as exc:
            raise ParseError(lineno, f"line is not UTF-8: {exc}") from exc
        if not text:
            continue
        fields = [f.strip() for f in text.split(",")]
        if lineno == 1 and not _is_number(fields[0]):
            continue  # header line
        if len(fields) not in (3, 4):
            raise ParseError(lineno, f"expected 3 or 4 fields, got {len(fields)}")
        try:
            values = [float(f) for f in fields]
        except ValueError as exc:
            raise ParseError(lineno, f"bad number: {exc}") from exc
        if len(values) == 3:
            values.append(0.0)
        if not all(np.isfinite(values)):
            raise ParseError(lineno, "non-finite coordinate")
        if abs(values[3]) > FLOAT32_MAX:
            raise ParseError(lineno, f"intensity {values[3]!r} beyond float32 range")
        rows.append(values)
    return PointCloud(np.asarray(rows, dtype=np.float64).reshape(-1, 4))


def _load_bin(path) -> PointCloud:
    raw = read_bytes(path)
    if len(raw) % 16 != 0:
        raise ParseError(len(raw) // 16 + 1, "file length is not a multiple of 16 bytes")
    n = len(raw) // 16
    pts = np.frombuffer(raw, dtype="<f4").reshape(n, 4).astype(np.float64)
    bad = ~np.isfinite(pts).all(axis=1)
    if bad.any():
        raise ParseError(int(np.nonzero(bad)[0][0]) + 1, "non-finite coordinate")
    return PointCloud(pts)


def _is_number(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False


@dataclass(frozen=True)
class VoxelizerConfig:
    voxel_size: tuple[float, float, float]
    range_min: tuple[float, float, float]
    range_max: tuple[float, float, float]

    def __post_init__(self):
        object.__setattr__(self, "voxel_size", tuple(float(v) for v in self.voxel_size))
        object.__setattr__(self, "range_min", tuple(float(v) for v in self.range_min))
        object.__setattr__(self, "range_max", tuple(float(v) for v in self.range_max))
        if not len(self.voxel_size) == len(self.range_min) == len(self.range_max) == 3:
            raise InvalidSpec("voxel_size, range_min and range_max need three values each")
        if any(v <= 0 for v in self.voxel_size):
            raise InvalidSpec("voxel sizes must be positive")
        for lo, hi, size in zip(self.range_min, self.range_max, self.voxel_size):
            cells = (hi - lo) / size
            if not np.isfinite(cells):
                raise InvalidSpec(f"range ({lo}, {hi}) over voxel size {size} "
                                  "gives a cell count beyond float range")
            if round(cells) < 1 or abs(cells - round(cells)) > 1e-6:
                raise InvalidSpec(
                    f"range ({lo}, {hi}) is not a positive integral number of {size} voxels"
                )
        check_key_space(1, self.grid_shape)

    @property
    def grid_shape(self) -> tuple[int, int, int]:
        return tuple(
            int(round((hi - lo) / size))
            for lo, hi, size in zip(self.range_min, self.range_max, self.voxel_size)
        )


def vfe_params(p: ParamSource, channels: int) -> tuple[Tensor, Tensor]:
    """Layout of the VFE projection: (weight, bias) into ``channels``."""
    return linear_params(p, "vfe", VFE_RAW_FEATURES, channels)


def voxelize_vfe(
    cloud: PointCloud,
    config: VoxelizerConfig,
    weight: Tensor,
    bias: Tensor,
    tape: GradTape | None = None,
) -> SparseTensor:
    """Bin points, mean-pool decorated features, project, ReLU.

    Per occupied voxel the raw feature is the mean over its points of
    (x - cx, y - cy, z - cz, intensity) with c the voxel center.  Points
    outside [range_min, range_max) are dropped; an empty result raises
    EmptyScene.
    """
    pre, coords = voxelize_raw(cloud, config)
    feats = Tensor(pre.astype(weight.data.dtype), tape)
    projected = ops.relu(ops.linear(feats, weight, bias))
    return SparseTensor(coords, projected, config.grid_shape)


def voxelize_raw(cloud: PointCloud, config: VoxelizerConfig):
    """Mean-pooled pre-projection features plus sorted voxel coordinates.

    Points are reordered by a full lexicographic key before accumulation,
    so any permutation of the input produces bitwise-identical output.
    """
    pts = cloud.points
    lo = np.asarray(config.range_min)
    size = np.asarray(config.voxel_size)
    grid = np.asarray(config.grid_shape, dtype=np.int64)
    with np.errstate(over="ignore"):  # a far point's index is inf, dropped below
        idx = np.floor((pts[:, :3] - lo) / size)  # cast once in range: a far point overflows int64
    keep = (idx >= 0).all(axis=1) & (idx < grid).all(axis=1)
    pts = pts[keep]
    idx = idx[keep].astype(np.int64)
    if pts.shape[0] == 0:
        raise EmptyScene("no points fall inside the voxelizer range")

    batch = np.zeros((idx.shape[0], 1), dtype=np.int64)
    coords, inverse = unique_coords(np.concatenate((batch, idx), axis=1), config.grid_shape)
    order = np.lexsort((pts[:, 3], pts[:, 2], pts[:, 1], pts[:, 0], inverse))
    pts = pts[order]
    groups = inverse[order]

    centers = lo + (coords[groups, 1:] + 0.5) * size
    decorated = np.concatenate((pts[:, :3] - centers, pts[:, 3:4]), axis=1)
    starts = np.concatenate(([0], np.nonzero(np.diff(groups))[0] + 1))
    sums = np.add.reduceat(decorated, starts, axis=0)
    counts = np.diff(np.concatenate((starts, [groups.size])))
    pre = sums / counts[:, None]
    return pre, coords


def write_bin(points: np.ndarray, path) -> None:
    """Inverse of the bin reader, for tests and tooling."""
    arr = np.asarray(points, dtype="<f4").reshape(-1, 4)
    with open(path, "wb") as fh:
        fh.write(arr.tobytes())
