"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every tolerance and time limit is pinned here; nothing is deferred to
later calibration.
"""

import time

import numpy as np
import pytest

from focalvox import ops
from focalvox.backbone import init_network, preset, sfmnet_forward
from focalvox.bench import scaling_experiment
from focalvox.config import config_from_json, config_to_json
from focalvox.conv import SparseConvLayer, regular_conv_down, subm_conv
from focalvox.erf import emit_pgm, erf_gradient_map
from focalvox.gradcheck import vjp_check
from focalvox.params import Initializer, ParamReader, ParamStore
from focalvox.points import PointCloud
from focalvox.sfm import (
    SFMConfig,
    erf_meters,
    erf_radius,
    sfm_block,
    sfm_block_params,
    sfm_module,
    sfm_module_params,
    srb_block,
    srb_params,
)
from focalvox.sparse import (
    KernelSpec,
    SparseTensor,
    build_rulebook_regular,
    build_rulebook_submanifold,
    gather_scatter_matmul,
    regular_out_shape,
)
from focalvox.tape import GradTape, grad_of
from focalvox.weights import load_weights, save_weights, serialize_weights
from helpers import dense_regular_oracle, dense_subm_oracle, random_sparse, sparse_from_coords


_capture = None


@pytest.fixture(autouse=True)
def _live_criterion_lines(capsys):
    global _capture
    _capture = capsys
    yield
    _capture = None


def _report(number, description, failures, elapsed, limit):
    status = "PASS" if not failures else "FAIL"
    line = f"[acceptance {number}] {status} ({elapsed:.1f}s, limit {limit}s): {description}"
    # step outside pytest capture so one line per criterion always shows
    with _capture.disabled():
        print(line)
    assert elapsed < limit, f"criterion {number} exceeded {limit}s ({elapsed:.1f}s)"
    assert not failures, f"criterion {number}: {failures[:5]}"


def test_criterion_1_erf_table():
    start = time.perf_counter()
    failures = []
    table = [
        ((3, 3), (1, 3), 0.9),
        ((3, 3, 3), (1, 3, 5), 1.9),
        ((3, 3, 3), (1, 5, 9), 3.1),
        ((3, 3, 3, 3), (1, 3, 5, 7), 3.3),
        ((3, 3, 3, 3, 3), (1, 3, 5, 7, 9), 5.1),
    ]
    for kernels, dilations, expected in table:
        cfg = SFMConfig(channels=2, kernels=kernels, dilations=dilations)
        got = erf_meters(cfg, 0.1)
        if got != expected:
            failures.append(f"{dilations}: {got} != {expected}")
    waymo = SFMConfig(channels=2, kernels=(3, 5, 3, 5), dilations=(1, 1, 3, 3))
    if erf_meters(waymo, 0.08) != 2.0:
        failures.append(f"waymo-like preset: {erf_meters(waymo, 0.08)} != 2.0")
    _report(1, "receptive-field table reproduction (exact)", failures,
            time.perf_counter() - start, 1.0)


def test_criterion_2_dense_oracle_equivalence():
    start = time.perf_counter()
    failures = []
    cases = 0
    for seed in range(100):
        rng = np.random.default_rng(10_000 + seed)
        shape = tuple(int(v) for v in rng.integers(4, 9, size=3))
        t = random_sparse(rng, shape, rng.uniform(0.1, 0.5), int(rng.integers(1, 4)))
        if t.n_active == 0:
            continue
        k = int(rng.choice([1, 3]))
        d = int(rng.choice([1, 2, 3]))
        spec = KernelSpec.same(k, d, dims=3)
        c_out = int(rng.integers(1, 4))
        w32 = rng.standard_normal((spec.volume, t.channels, c_out)).astype(np.float32)
        b32 = rng.standard_normal(c_out).astype(np.float32)
        rb = build_rulebook_submanifold(t, spec)
        expected = dense_subm_oracle(t, spec.kernel, spec.dilation, w32, b32)
        scale = max(np.abs(expected).max(), 1e-12)
        out32 = gather_scatter_matmul(t.features.data, rb, w32, b32)
        if np.abs(out32 - expected).max() / scale >= 1e-5:
            failures.append(f"subm std32 case {seed}")
        out64 = gather_scatter_matmul(
            t.features.data.astype(np.float64), rb,
            w32.astype(np.float64), b32.astype(np.float64),
        )
        if np.abs(out64 - expected).max() / scale >= 1e-10:
            failures.append(f"subm check64 case {seed}")
        cases += 1

    for seed in range(100):
        rng = np.random.default_rng(20_000 + seed)
        shape = tuple(int(v) for v in rng.integers(4, 9, size=3))
        t = random_sparse(rng, shape, rng.uniform(0.1, 0.5), int(rng.integers(1, 4)))
        if t.n_active == 0:
            continue
        k = int(rng.choice([1, 3]))
        d = int(rng.choice([1, 2, 3]))
        s = int(rng.choice([1, 2]))
        spec = KernelSpec((k,) * 3, (d,) * 3, (s,) * 3, (d * (k - 1) // 2,) * 3)
        out_shape = regular_out_shape(shape, spec)
        if min(out_shape) == 0:
            continue
        c_out = int(rng.integers(1, 4))
        w32 = rng.standard_normal((spec.volume, t.channels, c_out)).astype(np.float32)
        b32 = rng.standard_normal(c_out).astype(np.float32)
        rb = build_rulebook_regular(t, spec)
        grid, reachable = dense_regular_oracle(t, spec, out_shape, w32, b32)
        if {tuple(c) for c in rb.out_coords} != {tuple(c) for c in np.argwhere(reachable)}:
            failures.append(f"regular active-set case {seed}")
            continue
        expected = np.stack([grid[tuple(c)] for c in rb.out_coords]) if rb.n_out else np.zeros((0, c_out))
        scale = max(np.abs(expected).max(), 1e-12) if rb.n_out else 1.0
        out32 = gather_scatter_matmul(t.features.data, rb, w32, b32)
        if rb.n_out and np.abs(out32 - expected).max() / scale >= 1e-5:
            failures.append(f"regular std32 case {seed}")
        out64 = gather_scatter_matmul(
            t.features.data.astype(np.float64), rb,
            w32.astype(np.float64), b32.astype(np.float64),
        )
        if rb.n_out and np.abs(out64 - expected).max() / scale >= 1e-10:
            failures.append(f"regular check64 case {seed}")
        cases += 1

    if cases < 200:
        failures.append(f"only {cases} randomized cases ran")
    _report(2, f"dense-oracle equivalence over {cases} randomized cases", failures,
            time.perf_counter() - start, 60.0)


def _gradcheck_cases(fn_factory, n_cases, tol, seed_base, max_coords=32):
    failures = []
    for case in range(n_cases):
        fn, inputs = fn_factory(case)
        err = vjp_check(fn, inputs, seed=seed_base + case, max_coords=max_coords)
        if err >= tol:
            failures.append(f"case {case}: {err:.2e} >= {tol:.0e}")
    return failures


def test_criterion_3_gradcheck():
    start = time.perf_counter()
    failures = []
    n_cases = 20

    def linear_case(case):
        rng = np.random.default_rng(3000 + case)
        return (lambda ts: ops.linear(*ts),
                [rng.standard_normal((5, 3)), rng.standard_normal((3, 4)),
                 rng.standard_normal(4)])

    failures += [f"linear {m}" for m in _gradcheck_cases(linear_case, n_cases, 1e-6, 1)]

    def ln_case(case):
        rng = np.random.default_rng(3100 + case)
        return (lambda ts: ops.layer_norm(ts[0], ts[1], ts[2]),
                [rng.standard_normal((6, 5)), rng.standard_normal(5),
                 rng.standard_normal(5)])

    failures += [f"layer_norm {m}" for m in _gradcheck_cases(ln_case, n_cases, 1e-6, 2)]

    def bn_case(case):
        rng = np.random.default_rng(3200 + case)
        mode = "train" if case % 2 == 0 else "eval"
        r_mean = rng.standard_normal(4)
        r_var = rng.uniform(0.5, 2.0, 4)
        return (
            lambda ts: ops.batch_norm_active(
                ts[0], ts[1], ts[2], r_mean, r_var, mode=mode
            )[0],
            [rng.standard_normal((8, 4)), rng.standard_normal(4), rng.standard_normal(4)],
        )

    failures += [f"batch_norm {m}" for m in _gradcheck_cases(bn_case, n_cases, 1e-6, 3)]

    def gelu_case(case):
        rng = np.random.default_rng(3300 + case)
        return lambda ts: ops.gelu(ts[0]), [rng.standard_normal((6, 6))]

    failures += [f"gelu {m}" for m in _gradcheck_cases(gelu_case, n_cases, 1e-6, 4)]

    def conv_case(case):
        rng = np.random.default_rng(3400 + case)
        scene = random_sparse(rng, (5, 5, 5), 0.35, 2, dtype=np.float64)
        if case % 2 == 0:
            spec = KernelSpec.same(3, 1 + case % 3, dims=3)

            def fn(ts, scene=scene, spec=spec):
                t = SparseTensor(scene.coords, ts[0], scene.spatial_shape)
                return subm_conv(t, SparseConvLayer(spec, ts[1], ts[2])).features

        else:
            spec = KernelSpec.downsample(3)

            def fn(ts, scene=scene, spec=spec):
                t = SparseTensor(scene.coords, ts[0], scene.spatial_shape)
                return regular_conv_down(t, SparseConvLayer(spec, ts[1], ts[2])).features

        return fn, [scene.features.data, rng.standard_normal((27, 2, 2)),
                    rng.standard_normal(2)]

    failures += [f"conv {m}" for m in _gradcheck_cases(conv_case, n_cases, 1e-6, 5)]

    module_cfg = SFMConfig(channels=3, kernels=(3, 3), dilations=(1, 2))

    def module_case(case):
        rng = np.random.default_rng(3500 + case)
        store = ParamStore()
        sfm_module_params(Initializer(store, 900 + case), "m", module_cfg, 3)
        params = sfm_module_params(ParamReader(store.as_dtype(np.float64)), "m", module_cfg, 3)
        scene = random_sparse(rng, (6, 6, 6), 0.12, 3, dtype=np.float64)

        def fn(ts, scene=scene, params=params):
            t = SparseTensor(scene.coords, ts[0], scene.spatial_shape)
            return sfm_module(t, module_cfg, params).features

        return fn, [scene.features.data]

    failures += [f"sfm_module {m}" for m in _gradcheck_cases(module_case, n_cases, 1e-4, 6, max_coords=24)]

    block_cfg = SFMConfig(channels=3, kernels=(3,), dilations=(1,))

    def block_case(case):
        rng = np.random.default_rng(3600 + case)
        store = ParamStore()
        sfm_block_params(Initializer(store, 1900 + case), "b", block_cfg, 3)
        params = sfm_block_params(ParamReader(store.as_dtype(np.float64)), "b", block_cfg, 3)
        scene = random_sparse(rng, (5, 5, 5), 0.2, 3, dtype=np.float64)

        def fn(ts, scene=scene, params=params):
            t = SparseTensor(scene.coords, ts[0], scene.spatial_shape)
            return sfm_block(t, block_cfg, params).features

        return fn, [scene.features.data]

    failures += [f"sfm_block {m}" for m in _gradcheck_cases(block_case, n_cases, 1e-4, 7, max_coords=24)]

    def srb_case(case):
        rng = np.random.default_rng(3700 + case)
        store = ParamStore()
        srb_params(Initializer(store, 2900 + case), "s", 3, 3)
        params = srb_params(ParamReader(store.as_dtype(np.float64)), "s", 3, 3)
        mode = "train" if case % 2 == 0 else "eval"
        scene = random_sparse(rng, (5, 5, 5), 0.2, 3, dtype=np.float64)

        def fn(ts, scene=scene, params=params, mode=mode):
            t = SparseTensor(scene.coords, ts[0], scene.spatial_shape)
            return srb_block(t, params, bn_mode=mode).features

        return fn, [scene.features.data]

    failures += [f"srb {m}" for m in _gradcheck_cases(srb_case, n_cases, 1e-4, 8, max_coords=24)]

    _report(3, f"finite-difference gradcheck, {n_cases} seeded cases per op class",
            failures, time.perf_counter() - start, 120.0)


def test_criterion_4_sparsity_preservation():
    start = time.perf_counter()
    failures = []
    cfg = SFMConfig(channels=3, kernels=(3, 3), dilations=(1, 2))
    block_store = ParamStore()
    sfm_block_params(Initializer(block_store, 40), "b", cfg, 3)
    block_params = sfm_block_params(ParamReader(block_store), "b", cfg, 3)
    module_params = block_params.module
    srb_store = ParamStore()
    srb_params(Initializer(srb_store, 41), "s", 3, 3)
    srb = srb_params(ParamReader(srb_store), "s", 3, 3)
    conv_store = ParamStore()
    conv_init = Initializer(conv_store, 42)
    conv_init.weight("w", (27, 3, 3))
    conv_init.zeros("b", (3,))
    conv_layer = SparseConvLayer(
        KernelSpec.same(3, 2, dims=3),
        conv_store.tensor("w"), conv_store.tensor("b"),
    )
    for seed in range(100):
        rng = np.random.default_rng(40_000 + seed)
        shape = tuple(int(v) for v in rng.integers(4, 8, size=3))
        t = random_sparse(rng, shape, rng.uniform(0.1, 0.6), 3)
        if t.n_active == 0:
            continue
        for name, out in (
            ("subm_conv", subm_conv(t, conv_layer)),
            ("sfm_module", sfm_module(t, cfg, module_params)),
            ("sfm_block", sfm_block(t, cfg, block_params)),
            ("srb", srb_block(t, srb)),
        ):
            if out.coords is not t.coords or not np.array_equal(out.coords, t.coords):
                failures.append(f"{name} changed the active set (seed {seed})")
    _report(4, "active-set preservation over 100 random scenes", failures,
            time.perf_counter() - start, 60.0)


def test_criterion_5_erf_support():
    start = time.perf_counter()
    failures = []
    coords = [(0, x, y, z) for x in range(11) for y in range(11) for z in range(3)]
    scene = sparse_from_coords(coords, (11, 11, 3), 3,
                               rng=np.random.default_rng(50), dtype=np.float32)
    query = (0, 5, 5, 1)
    cfg = SFMConfig(channels=3, kernels=(3, 3), dilations=(1, 3))
    assert erf_radius(cfg) == 4
    reach_hits = 0
    for seed in range(10):
        store = ParamStore()
        sfm_module_params(Initializer(store, 500 + seed), "m", cfg, 3)
        params = sfm_module_params(ParamReader(store), "m", cfg, 3)
        erf = erf_gradient_map(lambda t: sfm_module(t, cfg, params), scene, query)
        at_max = 0
        for (b, x, y, z), mag in erf.values().items():
            radius = max(abs(x - 5), abs(y - 5), abs(z - 1))
            if radius > 4 and mag != 0.0:
                failures.append(f"seed {seed}: gradient leak at radius {radius}")
            if radius == 4 and mag > 0:
                at_max += 1
        if at_max > 0:
            reach_hits += 1
    if reach_hits < 9:
        failures.append(f"radius-4 reach in only {reach_hits}/10 seeds")

    for seed in range(10):
        store = ParamStore()
        srb_params(Initializer(store, 600 + seed), "s", 3, 3)
        params = srb_params(ParamReader(store), "s", 3, 3)
        erf = erf_gradient_map(
            lambda t: srb_block(t, params, bn_mode="eval"), scene, query
        )
        for (b, x, y, z), mag in erf.values().items():
            radius = max(abs(x - 5), abs(y - 5), abs(z - 1))
            if radius > 2 and mag != 0.0:
                failures.append(f"srb seed {seed}: support beyond radius 2")
                break
    _report(5, "mixer reaches radius 4, equal-depth residual stack stays within 2",
            failures, time.perf_counter() - start, 60.0)


def test_criterion_6_complexity_scaling():
    start = time.perf_counter()
    failures = []
    cfg = SFMConfig(channels=8, kernels=(3, 3), dilations=(1, 3))
    _, sfm_slope = scaling_experiment(
        "sfm", [1000, 2000, 4000, 8000, 16000], density=0.05, seed=60, config=cfg
    )
    if not 0.9 <= sfm_slope <= 1.1:
        failures.append(f"mixer slope {sfm_slope:.3f} outside [0.9, 1.1]")
    _, attn_slope = scaling_experiment(
        "local-attention", [250, 500, 1000, 2000], density=0.25, seed=61,
        window_edge=5,
    )
    if not 1.8 <= attn_slope <= 2.2:
        failures.append(f"attention slope {attn_slope:.3f} outside [1.8, 2.2]")
    _report(6, f"linear mixer (slope {sfm_slope:.3f}) vs quadratic attention "
               f"(slope {attn_slope:.3f})", failures,
            time.perf_counter() - start, 120.0)


def test_criterion_7_end_to_end():
    start = time.perf_counter()
    failures = []
    rng = np.random.default_rng(70)
    pts = np.concatenate(
        (rng.uniform(-3, 3, (2000, 2)), rng.uniform(-3, 3, (2000, 1)),
         rng.uniform(0, 1, (2000, 1))), axis=1,
    )
    cloud = PointCloud(pts)
    cfg = preset("tiny")

    snapshots = []
    for run in range(1, 4):
        store = init_network(cfg)
        bev, logits = sfmnet_forward(cloud, cfg, store)
        if not (np.all(np.isfinite(bev.features.data)) and np.all(np.isfinite(logits.data))):
            failures.append(f"non-finite outputs in run {run}")
        snapshots.append(
            bev.coords.tobytes() + bev.features.data.tobytes() + logits.data.tobytes()
        )
    if len({s for s in snapshots}) != 1:
        failures.append("outputs differ across three identical runs")

    store = init_network(cfg)
    tape = GradTape()
    bev, logits = sfmnet_forward(cloud, cfg, store, tape=tape)
    loss = ops.mean_all(logits)
    grads = tape.gradients(loss, np.asarray(1.0, dtype=logits.data.dtype))
    total = nonzero = 0
    for name in store.param_names():
        t = store.tensor(name)
        g = grad_of(grads, t)
        total += t.data.size
        nonzero += 0 if g is None else int(np.count_nonzero(g))
    coverage = nonzero / total
    if coverage <= 0.99:
        failures.append(f"gradient coverage {coverage:.4f} <= 0.99")
    _report(7, f"end-to-end tiny network, gradient coverage {coverage:.4f}",
            failures, time.perf_counter() - start, 30.0)


GOLDEN_ERF_PGM = bytes.fromhex(
    "50350a3920390a3235350a02010102040601000104030402040501010003020305"
    "040301010101020233322205040301010225ff4205050701020123352e04040601"
    "0202030405020101020203050607060604020100050302020202"
)


def test_criterion_8_format_round_trips(tmp_path):
    start = time.perf_counter()
    failures = []

    cfg = preset("tiny")
    store = init_network(cfg)
    wpath = tmp_path / "w.sfmw"
    save_weights(store, wpath)
    reloaded = load_weights(wpath, init_network(cfg, seed=777))
    if serialize_weights(reloaded) != serialize_weights(store):
        failures.append("weights container round trip not bitwise")

    text = config_to_json(cfg)
    if config_to_json(config_from_json(text)) != text:
        failures.append("config JSON round trip not byte-identical")

    sfm_cfg = SFMConfig(channels=3, kernels=(3, 3), dilations=(1, 3))
    pstore = ParamStore()
    sfm_module_params(Initializer(pstore, 123), "m", sfm_cfg, 3)
    params = sfm_module_params(ParamReader(pstore.as_dtype(np.float64)), "m", sfm_cfg, 3)
    coords = np.array([(0, x, y, 0) for x in range(9) for y in range(9)], dtype=np.int64)
    feats = np.random.default_rng(5).standard_normal((coords.shape[0], 3))
    scene = SparseTensor(coords, feats, (9, 9, 1))
    erf = erf_gradient_map(
        lambda t: sfm_module(t, sfm_cfg, params), scene, (0, 4, 4, 0)
    )
    payload = emit_pgm(erf, tmp_path / "g.pgm")
    if payload != GOLDEN_ERF_PGM:
        failures.append("fixed-seed probe PGM differs from the golden bytes")
    if (tmp_path / "g.pgm").read_bytes() != GOLDEN_ERF_PGM:
        failures.append("PGM file on disk differs from the golden bytes")

    _report(8, "weights, config, and golden PGM round trips", failures,
            time.perf_counter() - start, 60.0)
