"""Interaction counting: hierarchical-conv mixing vs. local attention.

The mixer touches each voxel through rulebook pairs (at most kernel-volume
neighbors per level), so its interaction count is linear in the number of
active voxels.  Local attention pays query-key plus attention-value work
quadratic in each window's occupancy.  Both quantities are counted exactly
here from the geometry alone; neither mixer runs.  The tests check each
window's occupancy against the active rows that the window's submanifold
rulebook finds.
``scaling_experiment`` reports every run of either mixer the same way: one
``BenchReport`` and one point of the log-log fit, per voxel or per window.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DegenerateFit, InvalidSpec
from .sfm import SFMConfig, effective_receptive_field, sfm_pair_count
from .sparse import SparseTensor, _unflatten, check_key_space

MIXER_KINDS = ("sfm", "local-attention")
WINDOWS_PER_AXIS = 4  # attention scenes are a fixed 4x4x4 partition into windows


@dataclass
class BenchReport:
    """One benchmark run; interaction_pairs is exactly reproducible."""

    kind: str
    n_active: int
    edge_voxels: int
    interaction_pairs: int
    bytes_model: int
    wall_ns: int

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def _check_window(window_edge: int) -> None:
    if window_edge % 2 == 0 or window_edge < 1:
        raise InvalidSpec("window edge must be odd and positive")


def window_occupancy(t: SparseTensor, window_edge: int) -> np.ndarray:
    """n_w(q): active-voxel count in each voxel's centered window.

    Computed from a dense summed-area table per batch, so it is exact and
    independent of any attention execution path.  A grid whose table cannot
    be allocated raises InvalidSpec naming its cell count.
    """
    _check_window(window_edge)
    radius = (window_edge - 1) // 2
    dims = t.dims
    counts = np.zeros(t.n_active, dtype=np.int64)
    if t.n_active == 0:
        return counts
    for b in np.unique(t.coords[:, 0]):
        rows = np.nonzero(t.coords[:, 0] == b)[0]
        try:
            occ = np.zeros(t.spatial_shape, dtype=np.int64)
            occ[tuple(t.coords[rows, 1 + d] for d in range(dims))] = 1
            table = occ
            for axis in range(dims):
                table = table.cumsum(axis=axis)
            padded = np.zeros(tuple(s + 1 for s in table.shape), dtype=np.int64)
            padded[(slice(1, None),) * dims] = table
        except MemoryError:
            raise InvalidSpec(f"the dense occupancy table of a {t.spatial_shape} grid "
                              f"({math.prod(t.spatial_shape)} cells) cannot be allocated") from None
        pos = t.coords[rows, 1:]
        lo = np.maximum(pos - radius, 0)
        hi = np.minimum(pos + radius + 1, np.asarray(t.spatial_shape))
        # inclusion-exclusion over the window's corners, one gather each
        for corner in itertools.product((0, 1), repeat=dims):
            sign = (-1) ** (dims - sum(corner))
            idx = tuple(hi[:, d] if corner[d] else lo[:, d] for d in range(dims))
            counts[rows] += sign * padded[idx]
    return counts


def sfm_bytes_model(n: int, config: SFMConfig, pair_total: int) -> int:
    """Analytic peak-intermediate estimate in bytes (float32 activations,
    int32 rulebook pairs).

    The activation term is the taped bound, where every level stays alive
    until the gated sum is differentiated; an untaped pass folds each level
    into the sum as it is made.  A rulebook stores 4 bytes per counted
    pair: only the offsets before the center, about half the pairs, hold
    int32 (in, out) rows; the center and the offsets after it are views."""
    c, levels = config.channels, config.levels
    activations = 4 * n * (2 * c + levels) + 4 * n * c * (levels + 1)
    rulebook = 4 * pair_total
    return int(activations + rulebook)


def attention_bytes_model(n: int, channels: int, occupancy: np.ndarray) -> int:
    """qkv blocks plus the densest window's logits plus neighbor indices."""
    qkv = 12 * n * channels
    densest = int(occupancy.max()) if occupancy.size else 0
    return int(qkv + 4 * densest * densest + 8 * int(occupancy.sum()))


def uniform_scene(n_active: int, grid_shape: tuple[int, ...], seed: int) -> SparseTensor:
    """Exactly n distinct active cells drawn uniformly over the grid, with
    one zero feature each: counting reads only the geometry.  A scene that
    cannot be allocated raises InvalidSpec naming its voxel count."""
    check_key_space(1, grid_shape)
    volume = math.prod(grid_shape)
    if n_active > volume:
        raise InvalidSpec(f"cannot place {n_active} voxels in {volume} cells")
    rng = np.random.default_rng(seed)
    try:
        flat = rng.choice(volume, size=n_active, replace=False)
        flat.sort()
        coords = _unflatten(flat, grid_shape)  # batch 0: every key is below the volume
        return SparseTensor(coords, np.zeros((n_active, 1), np.float32), grid_shape)
    except MemoryError:
        raise InvalidSpec(f"a scene of {n_active} voxels cannot be allocated") from None


def _fit_slope(xs: list[float], ys: list[float]) -> float:
    distinct = sorted(set(xs))
    if len(distinct) < 2:
        raise DegenerateFit(f"need at least two distinct abscissae, got {distinct}")
    lx = np.log(np.asarray(xs, dtype=np.float64))
    ly = np.log(np.asarray(ys, dtype=np.float64))
    lx = lx - lx.mean()
    return float((lx * (ly - ly.mean())).sum() / (lx * lx).sum())


def scaling_experiment(
    kind: str,
    n_list: list[int],
    density: float,
    seed: int,
    config: SFMConfig | None = None,
    window_edge: int = 5,
):
    """Synthetic uniform-density scenes, exact counts, fitted log-log slope.

    sfm: the grid volume grows with N so density stays fixed; the fit is
    log(total pairs) against log(N) and lands near 1.  local-attention:
    the window partition is fixed and occupancy grows with N; the fit is
    log(pairs per window) against log(mean window occupancy) and lands
    near 2.  ``wall_ns`` times the counting and the bytes model.  Returns
    (reports, slope).
    """
    if kind not in MIXER_KINDS:
        raise InvalidSpec(f"unknown mixer kind {kind!r}")
    if not 0 < density <= 1:
        raise InvalidSpec("density must be in (0, 1]")
    if min(n_list, default=1) < 1:
        raise InvalidSpec(f"voxel counts must be at least 1, got {min(n_list)}")
    if kind == "local-attention":
        _check_window(window_edge)
    if kind == "sfm" and config is None:
        config = SFMConfig(channels=16, kernels=(3, 3), dilations=(1, 3))
    reports, xs, ys = [], [], []
    for i, n in enumerate(n_list):
        if kind == "sfm":
            side = (n / density) ** (1.0 / 3.0)
            if not math.isfinite(side):
                raise InvalidSpec(f"{n} voxels at density {density} need a scene edge "
                                  "beyond float range")
            edge = max(4, int(round(side)))
            scene = uniform_scene(n, (edge, edge, edge), seed + i)
            start = time.perf_counter_ns()
            detail = sfm_pair_count(scene, config)
            pairs, extent, units = detail["total"], effective_receptive_field(config), 1
            bytes_model = sfm_bytes_model(scene.n_active, config, detail["conv_pairs"])
        else:
            scene = uniform_scene(n, (window_edge * WINDOWS_PER_AXIS,) * 3, seed + i)
            start = time.perf_counter_ns()
            occupancy = window_occupancy(scene, window_edge)
            pairs, extent, units = int(2 * occupancy.sum()), window_edge, WINDOWS_PER_AXIS**3
            bytes_model = attention_bytes_model(scene.n_active, 1, occupancy)
        wall = time.perf_counter_ns() - start
        reports.append(BenchReport(kind, scene.n_active, extent, pairs, bytes_model, wall))
        xs.append(scene.n_active / units)
        ys.append(pairs / units)
    return reports, _fit_slope(xs, ys)
