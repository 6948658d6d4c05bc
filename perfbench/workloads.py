"""The three benchmark workloads, driven through focalvox's public API.

Each workload has the same shape:

- ``setup(seed)`` builds the config, the parameters, the bound network
  and the scene material, then runs one warm-up pass (pass index 0);
- ``make_input(state, i)`` prepares the input of pass ``i`` outside any
  timed region;
- ``run(state, inp)`` is the timed pass;
- ``outcome(state, inp, result)`` reduces a pass result to the arrays that
  the correctness checks compare.

Engine functions are looked up through their modules at call time
(``fb.sfmnet_forward``, ``fe.erf_gradient_map``), so the traced run's
wrappers see every call.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

import focalvox.backbone as fb
import focalvox.erf as fe
import focalvox.points as fp
from focalvox import GradTape, PointCloud, ops

from scenes import SceneSpec, lidar_scene

# Scene sizes.  A pass must take well under a second so that one
# measurement window holds enough passes for a median and a tail.
TINY_SCENE = SceneSpec(n_points=8000, half_extent=3.2, clusters=10)
AV2_SCENE = SceneSpec(n_points=3000, half_extent=4.0, clusters=6)
ERF_DEPTH = 2  # probe through stage 2 of the tiny backbone


@dataclass
class Outcome:
    """What the correctness checks look at for one pass.

    Every array must repeat bit for bit when a pass is repeated.  ``exact``
    arrays must also match the committed reference exactly and ``approx``
    arrays at float32 tolerance; ``approx`` and ``other`` must be finite.
    """

    exact: dict[str, np.ndarray]
    approx: dict[str, np.ndarray]
    other: dict[str, np.ndarray] = field(default_factory=dict)

    def digest(self) -> str:
        h = hashlib.sha256()
        for group in (self.exact, self.approx, self.other):
            for key in sorted(group):
                arr = np.ascontiguousarray(group[key])
                h.update(key.encode())
                h.update(str(arr.dtype).encode())
                h.update(arr.tobytes())
        return h.hexdigest()

    def finite(self) -> bool:
        return all(np.all(np.isfinite(a))
                   for group in (self.approx, self.other) for a in group.values())


def count_voxels(points: np.ndarray, vcfg) -> int:
    """Occupied voxels of a cloud, computed here rather than by the engine."""
    lo = np.asarray(vcfg.range_min)
    size = np.asarray(vcfg.voxel_size)
    grid = np.asarray(vcfg.grid_shape, dtype=np.int64)
    idx = np.floor((points[:, :3] - lo) / size).astype(np.int64)
    idx = idx[(idx >= 0).all(axis=1) & (idx < grid).all(axis=1)]
    keys = (idx[:, 0] * grid[1] + idx[:, 1]) * grid[2] + idx[:, 2]
    return int(np.unique(keys).size)


@dataclass
class State:
    seed: int
    config: object
    store: object
    net: object = None
    extra: dict = field(default_factory=dict)


@dataclass
class PassInput:
    payload: object
    voxels: int  # active input voxels, counted by the benchmark


class _ScenePerPass:
    """Workloads that see a fresh seeded scene on every pass."""

    preset = ""
    scene = TINY_SCENE

    def setup(self, seed: int) -> State:
        config = fb.preset(self.preset)
        store = fb.init_network(config)
        state = State(seed, config, store)
        self.run(state, self.make_input(state, 0))  # binds an SfmNet, as every pass does
        return state

    def make_input(self, state: State, index: int) -> PassInput:
        points = lidar_scene(self.scene, [state.seed, index])
        return PassInput(PointCloud(points), count_voxels(points, state.config.voxelizer))


class TinyTrain(_ScenePerPass):
    """``tiny`` preset, train-mode batch norm, forward plus tape replay."""

    name = "tiny-train"
    preset = "tiny"
    scene = TINY_SCENE

    def run(self, state: State, inp: PassInput):
        tape = GradTape()
        bev, logits = fb.sfmnet_forward(inp.payload, state.config, state.store,
                                        tape=tape, bn_mode="train")
        loss = ops.mean_all(logits)
        grads = tape.gradients(loss, np.asarray(1.0, dtype=logits.data.dtype))
        return bev, logits, grads

    def outcome(self, state: State, inp: PassInput, result) -> Outcome:
        bev, logits, grads = result
        norms, other = [], {"bev_features": bev.features.data}
        for name in state.store.param_names():
            g = grads.get(state.store.tensor(name).uid)
            if g is None:
                norms.append(-1.0)
            else:
                norms.append(np.linalg.norm(g.astype(np.float64)))
                other[f"grad:{name}"] = g
        return Outcome(
            exact={"bev_coords": bev.coords},
            approx={"logits": logits.data, "grad_norms": np.asarray(norms)},
            other=other,
        )


class Av2Infer(_ScenePerPass):
    """``argoverse2-like`` preset, eval-mode batch norm, forward only."""

    name = "av2-infer"
    preset = "argoverse2-like"
    scene = AV2_SCENE

    def run(self, state: State, inp: PassInput):
        return fb.sfmnet_forward(inp.payload, state.config, state.store,
                                 bn_mode="eval")

    def outcome(self, state: State, inp: PassInput, result) -> Outcome:
        bev, logits = result
        return Outcome(exact={"bev_coords": bev.coords},
                       approx={"logits": logits.data},
                       other={"bev_features": bev.features.data})


def probe_stack(net, depth: int):
    """Stages 1..depth in eval mode with the downsamples between them,
    composed the way the ``erf`` subcommand composes its probe."""

    def stack(t):
        for i in range(depth):
            t = fb.run_stage(t, net.config.stages[i], net.stages[i], bn_mode="eval")
            if i < depth - 1:
                t = fb.downsample(t, net.downs[i], bn_mode="eval")
        return t

    return stack


class ErfProbe:
    """ERF probe through stage 2 of ``tiny`` on one scene, a fresh query
    per pass."""

    name = "erf-probe"

    def setup(self, seed: int) -> State:
        config = fb.preset("tiny")
        store = fb.init_network(config)
        net = fb.SfmNet(config, store)
        points = lidar_scene(TINY_SCENE, [seed, 0])
        scene = fp.voxelize_vfe(PointCloud(points), config.voxelizer, net.vfe_w, net.vfe_b)
        stack = probe_stack(net, ERF_DEPTH)
        state = State(seed, config, store, net=net,
                      extra={"scene": scene, "stack": stack, "probe_out": stack(scene)})
        self.run(state, self.make_input(state, 0))
        return state

    def make_input(self, state: State, index: int) -> PassInput:
        query = fe.select_query(state.extra["probe_out"], seed=index)
        return PassInput(query, state.extra["scene"].n_active)

    def run(self, state: State, inp: PassInput):
        return fe.erf_gradient_map(state.extra["stack"], state.extra["scene"], inp.payload)

    def outcome(self, state: State, inp: PassInput, result) -> Outcome:
        mags = result.magnitudes
        return Outcome(
            exact={"reached": np.asarray([np.count_nonzero(mags)], np.int64)},
            approx={"magnitude_sum": np.asarray([mags.sum()])},
            other={"magnitudes": mags},
        )


WORKLOADS = {w.name: w for w in (TinyTrain(), Av2Infer(), ErfProbe())}
