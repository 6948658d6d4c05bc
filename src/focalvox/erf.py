"""Effective-receptive-field probing by backpropagation.

Pick an active voxel, run a stack, backpropagate the L2 norm of that
voxel's output feature, and record the gradient magnitude landing on every
active input voxel.  The support of the resulting map is exactly the
region the stack can see; rendering goes to a binary PGM with a CSV
sidecar of raw values.

Stacks containing batch norm must run it in eval mode when probed: train
mode couples every voxel through the batch statistics and the support
becomes the whole scene instead of the conv geometry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ops
from .errors import InactiveQuery, InvalidSpec
from .fileio import atomic_write_bytes, atomic_write_text
from .sparse import SparseTensor
from .tape import GradTape, Tensor, grad_of


@dataclass
class ErfMap:
    """Gradient magnitudes per active input voxel for one query."""

    coords: np.ndarray
    magnitudes: np.ndarray
    spatial_shape: tuple[int, ...]

    def __post_init__(self):
        if self.coords.shape[0] != self.magnitudes.shape[0]:
            raise InvalidSpec("one magnitude per active voxel required")
        if not np.all(np.isfinite(self.magnitudes)) or (self.magnitudes < 0).any():
            raise InvalidSpec("magnitudes must be finite and non-negative")

    @property
    def normalization(self) -> float:
        return float(self.magnitudes.max()) if self.magnitudes.size else 0.0

    def values(self) -> dict[tuple, float]:
        return {
            tuple(int(v) for v in c): float(m)
            for c, m in zip(self.coords, self.magnitudes)
        }


def composed_support_radius(stage_radii: list[int]) -> int:
    """Theoretical Chebyshev support radius, in input voxels, of a probe
    through alternating submanifold stages and stride-2 downsamples.

    A submanifold stack of per-conv radii r_m (r = dilation*(kernel-1)/2)
    contributes their sum at its own grid scale.  The stride-2 downsample
    (kernel 3) maps output j to inputs 2j +/- 1, so everything behind it
    doubles in input units.  With stages listed input-first:

        R = r_1 + 1 + 2*(r_2 + 1 + 2*(... r_k))
    """
    if not stage_radii:
        return 0
    radius = stage_radii[-1]
    for r in reversed(stage_radii[:-1]):
        radius = r + 1 + 2 * radius
    return radius


def select_query(t: SparseTensor, seed: int) -> tuple[int, ...]:
    """A seeded uniform draw of one active row of ``t``, as a ``(batch, *ijk)`` tuple of ints."""
    if t.n_active == 0:
        raise InactiveQuery("scene has no active voxels")
    row = int(np.random.default_rng(seed).integers(0, t.n_active))
    return tuple(int(v) for v in t.coords[row])


def erf_gradient_map(stack, scene: SparseTensor, query) -> ErfMap:
    """Backpropagate the query voxel's output-feature L2 norm.

    ``stack`` maps a SparseTensor to a SparseTensor; the ``(batch, *ijk)``
    query must be active in the stack's output.  The map holds, per active
    input voxel, the L2 norm of the gradient of that scalar with respect to
    the voxel's input features.
    """
    tape = GradTape(params=False)  # only the input features are differentiated
    feats = Tensor(scene.features.data, tape)
    out = stack(scene.with_features(feats))
    row = out.geometry.index.lookup(query)
    if row is None:
        raise InactiveQuery(f"voxel {tuple(query)} is not active in the stack output")
    scalar = ops.row_l2(out.features, row)
    grads = tape.gradients(scalar, np.asarray(1.0, dtype=scalar.data.dtype))
    gin = grad_of(grads, feats)
    if gin is None:
        mags = np.zeros(scene.n_active, dtype=np.float64)
    else:
        gin = gin.astype(np.float64)
        mags = np.sqrt((gin * gin).sum(axis=1))
    return ErfMap(scene.coords, mags, scene.spatial_shape)


def render_plane(erf: ErfMap) -> np.ndarray:
    """8-bit bird's-eye-view image of the map: columns are x, rows are y,
    each pixel the maximum over the height axis.  Values are normalized by
    the map maximum and quantized round-half-up; inactive cells are 0.
    """
    image = np.zeros((erf.spatial_shape[1], erf.spatial_shape[0]), dtype=np.float64)
    np.maximum.at(image, (erf.coords[:, 2], erf.coords[:, 1]), erf.magnitudes)
    peak = erf.normalization
    if peak > 0:
        image = np.floor(image / peak * 255.0 + 0.5)
    return image.astype(np.uint8)


def emit_pgm(erf: ErfMap, path, csv_path=None) -> bytes:
    """Write the BEV image as binary PGM (P5, maxval 255); optional CSV."""
    if erf.coords.shape[0] == 0:
        raise InvalidSpec("cannot render an empty map")
    image = render_plane(erf)
    height, width = image.shape
    payload = f"P5\n{width} {height}\n255\n".encode("ascii") + image.tobytes()
    atomic_write_bytes(path, payload)
    if csv_path is not None:
        lines = ["x,y,z,magnitude"]
        for c, m in zip(erf.coords, erf.magnitudes):
            z = int(c[3]) if c.shape[0] == 4 else 0
            lines.append(f"{int(c[1])},{int(c[2])},{z},{float(m)!r}")
        atomic_write_text(csv_path, "\n".join(lines) + "\n")
    return payload
