"""Seeded lidar-like scenes: a ground plane plus Gaussian object clusters.

The benchmark owns its inputs.  A scene is a function of (seed, size
parameters) only, so the same seed always gives the same point cloud; the
engine receives nothing but the resulting ``PointCloud``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


GROUND_Z = -1.6  # metres; inside the z range of every preset
GROUND_SHARE = 0.4  # share of the points on the ground plane
GROUND_NOISE = 0.03  # metres, standard deviation of the ground height
CLUSTER_SIGMA = (0.2, 0.4)  # metres, range of a cluster's per-axis spread


@dataclass(frozen=True)
class SceneSpec:
    """Size of a generated scene: ``n_points`` points with |x| and |y| at
    most ``half_extent`` metres, the non-ground ones in ``clusters``
    Gaussian blobs standing on the ground."""

    n_points: int
    half_extent: float
    clusters: int


def lidar_scene(spec: SceneSpec, seed) -> np.ndarray:
    """(n_points, 4) float64 array of x, y, z, intensity in [0, 1).

    ``seed`` is anything ``numpy.random.default_rng`` accepts; the
    workloads pass ``[run seed, pass index]``."""
    rng = np.random.default_rng(seed)
    n_ground = int(round(spec.n_points * GROUND_SHARE))
    n_obj = spec.n_points - n_ground
    e = spec.half_extent

    ground = np.empty((n_ground, 4))
    ground[:, :2] = rng.uniform(-e, e, (n_ground, 2))
    ground[:, 2] = GROUND_Z + rng.normal(0.0, GROUND_NOISE, n_ground)
    ground[:, 3] = rng.uniform(0.0, 0.3, n_ground)

    # cluster sizes from a Dirichlet draw, so every scene has the same total
    sizes = rng.multinomial(n_obj, rng.dirichlet(np.full(spec.clusters, 8.0)))
    centers = rng.uniform(-0.85 * e, 0.85 * e, (spec.clusters, 2))
    sigmas = rng.uniform(*CLUSTER_SIGMA, (spec.clusters, 3))
    heights = sigmas[:, 2] * 2.0 + GROUND_Z
    reflect = rng.uniform(0.2, 0.95, spec.clusters)
    parts = [ground]
    for c in range(spec.clusters):
        n = int(sizes[c])
        pts = np.empty((n, 4))
        pts[:, 0] = rng.normal(centers[c, 0], sigmas[c, 0], n)
        pts[:, 1] = rng.normal(centers[c, 1], sigmas[c, 1], n)
        pts[:, 2] = rng.normal(heights[c], sigmas[c, 2], n)
        pts[:, 3] = np.clip(rng.normal(reflect[c], 0.05, n), 0.0, np.nextafter(1.0, 0.0))
        parts.append(pts)
    cloud = np.concatenate(parts, axis=0)
    # keep points inside the box so the point count is exact
    np.clip(cloud[:, :2], -e, np.nextafter(e, -np.inf), out=cloud[:, :2])
    return cloud
