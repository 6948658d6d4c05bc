"""Built-in verification suites for the command line.

``gradcheck_suite`` runs finite-difference checks per module group;
``oracle_suite`` runs a quick cross-section of the dual-route checks
(dense-conv equivalence, receptive-field table, round trips).  Both return
(name, passed, detail) triples so the CLI can print one line per check.
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
    regular_out_shape,
)
from .weights import load_weights, serialize_weights, parse_weights

PRIMITIVE_TOL = 1e-6
COMPOSITE_TOL = 1e-4

GRADCHECK_MODULES = ("all", "conv", "sfm", "block")


def _random_scene(rng, shape, density, channels):
    mask = rng.random(shape) < density
    idx = np.argwhere(mask).astype(np.int64)
    coords = np.concatenate((np.zeros((idx.shape[0], 1), dtype=np.int64), idx), axis=1)
    feats = rng.standard_normal((coords.shape[0], channels))
    return SparseTensor(coords, feats, shape)


def gradcheck_suite(seed: int, module: str = "all", cases: int = 3):
    if module not in GRADCHECK_MODULES:
        raise ValueError(f"unknown gradcheck module {module!r}")
    rng = np.random.default_rng(seed)
    checks = []

    def record(name, err, tol):
        checks.append((name, err < tol, f"max rel err {err:.3e} (tol {tol:.0e})"))

    if module == "all":
        for case in range(cases):
            x = rng.standard_normal((5, 3))
            w = rng.standard_normal((3, 4))
            b = rng.standard_normal(4)
            err = vjp_check(lambda ts: ops.linear(*ts), [x, w, b], seed=seed + case)
            record(f"linear[{case}]", err, PRIMITIVE_TOL)
            x = rng.standard_normal((6, 5))
            err = vjp_check(
                lambda ts: ops.layer_norm(ts[0], ts[1], ts[2]),
                [x, rng.standard_normal(5), rng.standard_normal(5)],
                seed=seed + case,
            )
            record(f"layer_norm[{case}]", err, PRIMITIVE_TOL)
            x = rng.standard_normal((8, 4))
            err = vjp_check(
                lambda ts: ops.batch_norm_active(
                    ts[0], ts[1], ts[2], np.zeros(4), np.ones(4), mode="train"
                )[0],
                [x, rng.standard_normal(4), rng.standard_normal(4)],
                seed=seed + case,
            )
            record(f"batch_norm[{case}]", err, PRIMITIVE_TOL)
            err = vjp_check(
                lambda ts: ops.gelu(ts[0]), [rng.standard_normal((6, 6))], seed=seed + case
            )
            record(f"gelu[{case}]", err, PRIMITIVE_TOL)

    if module in ("all", "conv"):
        for case in range(cases):
            scene = _random_scene(rng, (5, 5, 5), 0.4, 3)
            spec = KernelSpec.same(3, int(rng.integers(1, 3)), dims=3)

            def subm_fn(ts, scene=scene, spec=spec):
                t = SparseTensor(scene.geometry, ts[0])
                layer = SparseConvLayer(spec, ts[1], ts[2])
                return subm_conv(t, layer).features

            err = vjp_check(
                subm_fn,
                [scene.features.data, rng.standard_normal((27, 3, 2)), rng.standard_normal(2)],
                seed=seed + case,
            )
            record(f"subm_conv[{case}]", err, PRIMITIVE_TOL)

            down = KernelSpec.downsample(3)

            def reg_fn(ts, scene=scene, down=down):
                t = SparseTensor(scene.geometry, ts[0])
                layer = SparseConvLayer(down, ts[1], ts[2])
                return regular_conv_down(t, layer).features

            err = vjp_check(
                reg_fn,
                [scene.features.data, rng.standard_normal((27, 3, 2)), rng.standard_normal(2)],
                seed=seed + case,
            )
            record(f"regular_conv[{case}]", err, PRIMITIVE_TOL)

    if module in ("all", "sfm"):
        cfg = SFMConfig(channels=3, kernels=(3, 3), dilations=(1, 2))
        for case in range(cases):
            store = ParamStore()
            sfm_module_params(Initializer(store, seed + case), "m", cfg, 3)
            params = sfm_module_params(ParamReader(store.as_dtype(np.float64)), "m", cfg, 3)
            scene = _random_scene(rng, (6, 6, 6), 0.12, 3)

            def fn(ts, scene=scene, params=params):
                t = SparseTensor(scene.geometry, ts[0])
                return sfm_module(t, cfg, params).features

            err = vjp_check(fn, [scene.features.data], seed=seed + case, max_coords=48)
            record(f"sfm_module[{case}]", err, COMPOSITE_TOL)

    if module in ("all", "block"):
        cfg = SFMConfig(channels=3, kernels=(3,), dilations=(1,))
        for case in range(cases):
            store = ParamStore()
            sfm_block_params(Initializer(store, seed + case), "b", cfg, 3)
            params = sfm_block_params(ParamReader(store.as_dtype(np.float64)), "b", cfg, 3)
            scene = _random_scene(rng, (5, 5, 5), 0.2, 3)

            def block_fn(ts, scene=scene, params=params):
                t = SparseTensor(scene.geometry, ts[0])
                return sfm_block(t, cfg, params).features

            err = vjp_check(block_fn, [scene.features.data], seed=seed + case, max_coords=48)
            record(f"sfm_block[{case}]", err, COMPOSITE_TOL)

            store = ParamStore()
            srb_params(Initializer(store, seed + case), "s", 3, 3)
            srb = srb_params(ParamReader(store.as_dtype(np.float64)), "s", 3, 3)

            def srb_fn(ts, scene=scene, srb=srb):
                t = SparseTensor(scene.geometry, ts[0])
                return srb_block(t, srb, bn_mode="eval").features

            err = vjp_check(srb_fn, [scene.features.data], seed=seed + case, max_coords=48)
            record(f"srb[{case}]", err, COMPOSITE_TOL)

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


def oracle_suite(seed: int = 0):
    rng = np.random.default_rng(seed)
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
    rb = build_rulebook_regular(single, spec, regular_out_shape((8, 8, 8), spec))
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
    for name, ok, detail in gradcheck_suite(seed, "conv", cases=1):
        record(f"selftest_{name}", ok, detail)
    return checks
