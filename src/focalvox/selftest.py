"""Built-in verification suites for the command line.

``gradcheck_suite`` runs finite-difference checks from a case table of
one generator per module group; ``oracle_suite`` runs a quick dual-route
cross-section (dense-conv equivalence, receptive-field table, round
trips).  Both return (name, passed, detail) triples for the CLI report.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from . import ops
from .backbone import init_network, network_template, preset
from .conv import SparseConvLayer, regular_conv_down, subm_conv
from .gradcheck import vjp_check
from .params import Initializer, ParamReader, ParamStore
from .points import PointCloud, voxelize_raw
from .sfm import (
    SFMConfig,
    erf_meters,
    sfm_block,
    sfm_block_params,
    sfm_module,
    sfm_module_params,
    srb_block,
    srb_params,
)
from .sparse import (
    KernelSpec,
    SparseTensor,
    build_rulebook_regular,
    build_rulebook_submanifold,
    gather_scatter_matmul,
)
from .weights import load_weights, serialize_weights, parse_weights

# (tolerance, sampled input coordinates) per kind of check
PRIMITIVE = (1e-6, 64)
COMPOSITE = (1e-4, 48)


def _random_scene(rng, shape, density, channels):
    mask = rng.random(shape) < density
    idx = np.argwhere(mask).astype(np.int64)
    coords = np.concatenate((np.zeros((idx.shape[0], 1), dtype=np.int64), idx), axis=1)
    feats = rng.standard_normal((coords.shape[0], channels))
    return SparseTensor(coords, feats, shape)


def _params64(layout, seed: int, *args):
    """``layout``'s float32 draws from ``seed`` in a fresh store, bound as float64."""
    store = ParamStore()
    layout(Initializer(store, seed), *args)
    return layout(ParamReader(store.as_dtype(np.float64)), *args)


def _on(scene, run):
    """Check function ``ts -> run(t, *ts[1:]).features``, ``t`` = ``ts[0]`` on the scene."""
    return lambda ts: run(SparseTensor(scene.geometry, ts[0]), *ts[1:]).features


def _draw(rng, *shapes):
    return [rng.standard_normal(shape) for shape in shapes]


# Each group yields the checks of one case as (name, fn, inputs, tol,
# max_coords); a case's inputs are drawn from ``rng`` as it is yielded.

def _primitive_cases(rng, seed):
    def batch_norm(ts):
        return ops.batch_norm_active(*ts, np.zeros(4), np.ones(4), mode="train")[0]

    yield "linear", lambda ts: ops.linear(*ts), _draw(rng, (5, 3), (3, 4), 4), *PRIMITIVE
    yield "layer_norm", lambda ts: ops.layer_norm(*ts), _draw(rng, (6, 5), 5, 5), *PRIMITIVE
    yield "batch_norm", batch_norm, _draw(rng, (8, 4), 4, 4), *PRIMITIVE
    yield "gelu", lambda ts: ops.gelu(*ts), _draw(rng, (6, 6)), *PRIMITIVE


def _conv_cases(rng, seed):
    scene = _random_scene(rng, (5, 5, 5), 0.4, 3)
    subm = KernelSpec.same(3, int(rng.integers(1, 3)), dims=3)
    for name, conv, spec in (("subm_conv", subm_conv, subm),
                             ("regular_conv", regular_conv_down, KernelSpec.downsample(3))):
        run = _on(scene, lambda t, w, b, conv=conv, spec=spec: conv(t, SparseConvLayer(spec, w, b)))
        yield name, run, [scene.features.data, *_draw(rng, (27, 3, 2), 2)], *PRIMITIVE


def _sfm_cases(rng, seed):
    cfg = SFMConfig(channels=3, kernels=(3, 3), dilations=(1, 2))
    params = _params64(sfm_module_params, seed, "m", cfg, 3)
    scene = _random_scene(rng, (6, 6, 6), 0.12, 3)
    run = _on(scene, lambda t: sfm_module(t, cfg, params))
    yield "sfm_module", run, [scene.features.data], *COMPOSITE


def _block_cases(rng, seed):
    cfg = SFMConfig(channels=3, kernels=(3,), dilations=(1,))
    params = _params64(sfm_block_params, seed, "b", cfg, 3)
    scene = _random_scene(rng, (5, 5, 5), 0.2, 3)
    run = _on(scene, lambda t: sfm_block(t, cfg, params))
    yield "sfm_block", run, [scene.features.data], *COMPOSITE
    srb = _params64(srb_params, seed, "s", 3, 3)
    run = _on(scene, lambda t: srb_block(t, srb, bn_mode="eval"))
    yield "srb", run, [scene.features.data], *COMPOSITE


_GROUPS = dict(all=_primitive_cases, conv=_conv_cases, sfm=_sfm_cases, block=_block_cases)
GRADCHECK_MODULES = tuple(_GROUPS)


def gradcheck_suite(seed: int, module: str = "all", cases: int = 3):
    """``cases`` seeded cases of each check in ``module``'s group; ``all``
    runs the primitive ops and then every other group."""
    if module not in GRADCHECK_MODULES:
        raise ValueError(f"unknown gradcheck module {module!r}")
    rng = np.random.default_rng(seed)
    checks = []
    for group in GRADCHECK_MODULES if module == "all" else (module,):
        for case in range(cases):
            for name, fn, inputs, tol, max_coords in _GROUPS[group](rng, seed + case):
                err = vjp_check(fn, inputs, seed=seed + case, max_coords=max_coords)
                checks.append(
                    (f"{name}[{case}]", err < tol, f"max rel err {err:.3e} (tol {tol:.0e})"))
    return checks


def _dense_subm_reference(t, spec, weights, bias):
    """Self-contained dense check used by the selftest (mirrors the full
    oracle in the test suite)."""
    from itertools import product

    n_batch = int(t.coords[:, 0].max()) + 1 if t.n_active else 1
    dense = np.zeros((n_batch, *t.spatial_shape, t.channels))
    for row in range(t.n_active):
        dense[tuple(t.coords[row])] = t.features.data[row]
    offsets = list(product(*[range(-(k - 1) // 2, (k - 1) // 2 + 1) for k in spec.kernel]))
    rows = np.zeros((t.n_active, weights.shape[2]))
    for row in range(t.n_active):
        b, *pos = (int(v) for v in t.coords[row])
        acc = np.array(bias, dtype=np.float64)
        for m, off in enumerate(offsets):
            src = [p - o * d for p, o, d in zip(pos, off, spec.dilation)]
            if any(s < 0 or s >= e for s, e in zip(src, t.spatial_shape)):
                continue
            acc = acc + dense[(b, *src)] @ weights[m]
        rows[row] = acc
    return rows


def oracle_suite():
    rng = np.random.default_rng(0)
    checks = []

    def record(name, ok, detail=""):
        checks.append((name, bool(ok), detail))

    # receptive-field table
    table = [
        ((3, 3), (1, 3), 0.9),
        ((3, 3, 3), (1, 3, 5), 1.9),
        ((3, 3, 3), (1, 5, 9), 3.1),
        ((3, 3, 3, 3), (1, 3, 5, 7), 3.3),
        ((3, 3, 3, 3, 3), (1, 3, 5, 7, 9), 5.1),
    ]
    ok = all(
        erf_meters(SFMConfig(channels=2, kernels=k, dilations=d), 0.1) == m
        for k, d, m in table
    )
    ok = ok and erf_meters(
        SFMConfig(channels=2, kernels=(3, 5, 3, 5), dilations=(1, 1, 3, 3)), 0.08
    ) == 2.0
    record("erf_table", ok)

    # dense-oracle equivalence, a few seeded cases
    worst = 0.0
    for case in range(5):
        scene = _random_scene(rng, tuple(rng.integers(4, 8, 3)), 0.3, 2)
        if scene.n_active == 0:
            continue
        spec = KernelSpec.same(3, int(rng.integers(1, 3)), dims=3)
        w = rng.standard_normal((27, 2, 3))
        b = rng.standard_normal(3)
        rb = build_rulebook_submanifold(scene, spec)
        out = gather_scatter_matmul(scene.features.data, rb, w, b)
        ref = _dense_subm_reference(scene, spec, w, b)
        scale = max(np.abs(ref).max(), 1e-12)
        worst = max(worst, float(np.abs(out - ref).max() / scale))
    record("dense_oracle", worst < 1e-10, f"max rel err {worst:.3e}")

    # submanifold sparsity preservation
    scene = _random_scene(rng, (6, 6, 6), 0.3, 2)
    rb = build_rulebook_submanifold(scene, KernelSpec.same(3, 2, dims=3))
    record("sparsity_preserved", rb.out_coords is scene.coords)

    # regular-conv output law for the canonical stride-2 case
    single = SparseTensor(
        np.array([[0, 5, 5, 5]], dtype=np.int64), np.ones((1, 1)), (8, 8, 8)
    )
    spec = KernelSpec.downsample(3)
    rb = build_rulebook_regular(single, spec)
    got = {tuple(c) for c in rb.out_coords}
    want = {(0, a, b, c) for a in (2, 3) for b in (2, 3) for c in (2, 3)}
    record("downsample_law", got == want)

    # weights container round trip
    cfg = preset("tiny")
    store = init_network(cfg)
    blob = serialize_weights(store)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "w.sfmw")
        with open(path, "wb") as fh:
            fh.write(blob)
        reloaded = load_weights(path, network_template(cfg))
    ok = all(
        np.array_equal(store.data(n), reloaded.data(n)) for n in store.names()
    )
    ok = ok and serialize_weights(reloaded) == blob
    record("weights_roundtrip", ok)
    record("weights_parse", len(parse_weights(blob)) == len(store.names()))

    # voxelization permutation invariance
    pts = rng.uniform(-3, 3, (200, 4))
    cloud = PointCloud(pts)
    shuffled = PointCloud(pts[rng.permutation(200)])
    pre1, coords1 = voxelize_raw(cloud, cfg.voxelizer)
    pre2, coords2 = voxelize_raw(shuffled, cfg.voxelizer)
    record(
        "voxelize_permutation_invariant",
        pre1.tobytes() == pre2.tobytes() and coords1.tobytes() == coords2.tobytes(),
    )

    # quick gradient checks
    for name, ok, detail in gradcheck_suite(0, "conv", cases=1):
        record(f"selftest_{name}", ok, detail)
    return checks
