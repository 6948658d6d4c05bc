"""Shared geometries: the map search and the gather-scatter
executor against their per-offset references, flat-key uniques, and the
per-active-set rulebook cache."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import focalvox.conv as fc
import focalvox.sparse as fsp
from focalvox.backbone import SfmNet, downsample, init_network, preset, sfmnet_forward
from focalvox.conv import SparseConvLayer, regular_conv_down, subm_conv
from focalvox.points import PointCloud
from focalvox.sfm import SFMConfig, sfm_block, sfm_pair_count, srb_block
from focalvox.sparse import (
    SMALL_GEMM_ENTRIES,
    KernelSpec,
    SparseTensor,
    build_rulebook_regular,
    build_rulebook_submanifold,
    gather_scatter_matmul,
    gather_scatter_vjp,
    regular_out_shape,
    unique_coords,
)
from focalvox.tape import Tensor
from helpers import (
    per_offset_rulebook_regular,
    per_offset_rulebook_submanifold,
    random_sparse,
    reference_gather_scatter_matmul,
    reference_gather_scatter_vjp,
)


def assert_same_rulebook(rb, expected):
    offsets, pairs, out_coords = expected
    assert rb.offsets == offsets
    assert rb.out_coords.dtype == np.int64
    assert np.array_equal(rb.out_coords, out_coords)
    assert rb.out_coords.shape == out_coords.shape
    assert len(rb.pairs) == len(pairs)
    for got, want in zip(rb.pairs, pairs):
        assert got.dtype == np.int32
        assert got.shape == want.shape
        assert np.array_equal(got, want)


scenes = st.fixed_dictionaries({
    "seed": st.integers(0, 2**32 - 1),
    "dims": st.sampled_from([2, 3]),
    "batches": st.integers(1, 3),
    "density": st.sampled_from([0.0, 0.1, 0.3, 0.6]),
    "extents": st.lists(st.integers(1, 7), min_size=3, max_size=3),
})


def scene_from(s):
    """A random scene with its rows in random order."""
    rng = np.random.default_rng(s["seed"])
    shape = tuple(s["extents"][: s["dims"]])
    t = random_sparse(rng, shape, s["density"], 1, batches=s["batches"])
    return SparseTensor(rng.permutation(t.coords), t.features, shape)


class TestMapSearchMatchesPerOffsetReference:
    @settings(max_examples=150, deadline=None)
    @given(scene=scenes, k=st.sampled_from([1, 3, 5]), d=st.integers(1, 4))
    def test_submanifold(self, scene, k, d):
        t = scene_from(scene)
        spec = KernelSpec.same(k, d, dims=t.dims)
        rb = build_rulebook_submanifold(t, spec)
        assert_same_rulebook(rb, per_offset_rulebook_submanifold(t, spec))
        assert rb.out_coords is t.coords

    @settings(max_examples=150, deadline=None)
    @given(
        scene=scenes,
        kernel=st.lists(st.sampled_from([1, 3, 5]), min_size=3, max_size=3),
        dilation=st.lists(st.integers(1, 4), min_size=3, max_size=3),
    )
    def test_submanifold_per_axis_kernels(self, scene, kernel, dilation):
        t = scene_from(scene)
        spec = KernelSpec.same(kernel[: t.dims], dilation[: t.dims])
        assert_same_rulebook(
            build_rulebook_submanifold(t, spec), per_offset_rulebook_submanifold(t, spec)
        )

    @pytest.mark.parametrize("dims", [2, 3])
    @pytest.mark.parametrize("kernel", [(1, 3, 5), (5, 1, 3)])
    def test_submanifold_non_cubic_kernel(self, dims, kernel):
        rng = np.random.default_rng(dims)
        t = random_sparse(rng, (11, 9, 13)[:dims], 0.3, 1, batches=2)
        spec = KernelSpec.same(kernel[:dims], (2, 1, 3)[:dims])
        assert_same_rulebook(
            build_rulebook_submanifold(t, spec), per_offset_rulebook_submanifold(t, spec)
        )

    def test_submanifold_scratch_holds_one_offset(self):
        """The search runs one offset at a time and frees it before the
        next.  Above the returned rulebook, that holds 3.1 bytes per
        (voxel, offset) candidate on this scene; searching one plane of 9
        offsets at a time held 15.3, and all 27 at once 44.3 (3.6 MB)."""
        t = random_sparse(np.random.default_rng(7), (24, 24, 24), 0.22, 1)
        assert 2_900 < t.n_active < 3_200
        spec = KernelSpec.same(3, 1, dims=3)
        tracemalloc.start()
        try:
            rb = build_rulebook_submanifold(t, spec)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rb.total_pairs > t.n_active
        assert peak - held < 5 * t.n_active * spec.volume

    def test_regular_scratch_holds_one_key_per_candidate(self):
        """Candidates are gathered one offset at a time, so only their rows
        and output keys meet in the unique.  Above the returned rulebook
        that holds 10.0 bytes per (voxel, offset) on this scene; the
        (offset, row) outer product of all 27 offsets held 15.1."""
        t = random_sparse(np.random.default_rng(7), (24, 24, 24), 0.22, 1)
        spec = KernelSpec.downsample(3)
        tracemalloc.start()
        try:
            rb = build_rulebook_regular(t, spec, regular_out_shape(t.spatial_shape, spec))
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rb.total_pairs > t.n_active
        assert peak - held < 12 * t.n_active * spec.volume

    def test_submanifold_keeps_four_bytes_per_pair(self):
        """Only the offsets before the center are stored: the center block
        views one int32 row range and each later block views its mirror.
        On this scene the built rulebook holds 4.4 bytes per pair (4.0 in
        pair data, the rest in array headers); storing every block held
        8.4."""
        t = random_sparse(np.random.default_rng(7), (24, 24, 24), 0.22, 1)
        spec = KernelSpec.same(3, 1, dims=3)
        tracemalloc.start()
        try:
            rb = build_rulebook_submanifold(t, spec)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held <= 5 * rb.total_pairs
        center = rb.identity_offset
        last = len(rb.offsets) - 1
        for o in range(center + 1, len(rb.offsets)):
            assert np.shares_memory(rb.pairs[o], rb.pairs[last - o])

    @pytest.mark.parametrize("kind", ["submanifold", "regular"])
    def test_pair_blocks_are_read_only(self, kind):
        """Blocks share memory with their mirrors and with every user of
        the cached rulebook, so none of them can be written."""
        rng = np.random.default_rng(11)
        t = random_sparse(rng, (9, 9, 9), 0.3, 1, batches=2)
        for coords in (t.coords, rng.permutation(t.coords)):
            s = SparseTensor(coords, t.features, t.spatial_shape)
            if kind == "submanifold":
                rb = build_rulebook_submanifold(s, KernelSpec.same(3, 2, dims=3))
            else:
                spec = KernelSpec.downsample(3)
                rb = build_rulebook_regular(s, spec, regular_out_shape(s.spatial_shape, spec))
            for p in rb.pairs:
                with pytest.raises(ValueError):
                    p[:1] = 0

    @settings(max_examples=150, deadline=None)
    @given(
        scene=scenes,
        k=st.sampled_from([1, 3, 5]),
        d=st.integers(1, 4),
        stride=st.sampled_from([1, 2]),
        pad=st.integers(0, 4),
    )
    def test_regular(self, scene, k, d, stride, pad):
        t = scene_from(scene)
        spec = KernelSpec((k,) * t.dims, (d,) * t.dims, (stride,) * t.dims, (pad,) * t.dims)
        out_shape = regular_out_shape(t.spatial_shape, spec)
        rb = build_rulebook_regular(t, spec, out_shape)
        assert_same_rulebook(rb, per_offset_rulebook_regular(t, spec, out_shape))
        assert rb.out_geometry.coords is rb.out_coords
        assert rb.out_geometry.spatial_shape == out_shape

    @pytest.mark.parametrize("shape", [(7, 5, 9), (9, 9), (3, 1, 5)])
    def test_stride_two_downsample_on_odd_shapes(self, shape):
        rng = np.random.default_rng(len(shape))
        t = random_sparse(rng, shape, 0.4, 1, batches=2)
        spec = KernelSpec.downsample(len(shape))
        out_shape = regular_out_shape(shape, spec)
        rb = build_rulebook_regular(t, spec, out_shape)
        assert_same_rulebook(rb, per_offset_rulebook_regular(t, spec, out_shape))


class TestExecutorMatchesPerOffsetReference:
    @settings(max_examples=150, deadline=None)
    @given(
        scene=scenes,
        kind=st.sampled_from(["submanifold", "regular"]),
        k=st.sampled_from([1, 3, 5]),
        d=st.integers(1, 4),
        channels=st.tuples(st.integers(1, 5), st.integers(1, 5)),
        dtype=st.sampled_from([np.float32, np.float64]),
        strided=st.booleans(),
        with_weights=st.booleans(),
    )
    def test_same_bytes(self, scene, kind, k, d, channels, dtype, strided, with_weights):
        t = scene_from(scene)
        if kind == "submanifold":
            rb = build_rulebook_submanifold(t, KernelSpec.same(k, d, dims=t.dims))
        else:
            spec = KernelSpec((k,) * t.dims, (d,) * t.dims, (2,) * t.dims, (d,) * t.dims)
            out_shape = regular_out_shape(t.spatial_shape, spec)
            rb = build_rulebook_regular(t, spec, out_shape)
        rng = np.random.default_rng(scene["seed"])
        c_in, c_out = channels
        x = rng.standard_normal((t.n_active, 2 * c_in)).astype(dtype)
        x = x[:, ::2] if strided else np.ascontiguousarray(x[:, :c_in])
        w = rng.standard_normal((len(rb.offsets), c_in, c_out)).astype(dtype)
        b = rng.standard_normal(c_out).astype(dtype)
        cot = rng.standard_normal((rb.n_out, c_out)).astype(dtype)

        out = gather_scatter_matmul(x, rb, w, b)
        want = reference_gather_scatter_matmul(x, rb, w, b)
        assert out.dtype == want.dtype and out.tobytes() == want.tobytes()
        want = reference_gather_scatter_vjp(x, rb, w, cot)[:2]
        if with_weights:
            got = gather_scatter_vjp(x, rb, w, cot)
        else:
            # only the features' shape and dtype may be read: pass no data
            shape_only = np.broadcast_to(np.zeros((), dtype), x.shape)
            got = gather_scatter_vjp(shape_only, rb, w, cot, with_weights=False)
            assert got[1] is None
            got, want = got[:1], want[:1]
        for g, ref in zip(got, want):
            assert g.dtype == ref.dtype and g.shape == ref.shape
            assert g.tobytes() == ref.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(
        scene=scenes,
        kind=st.sampled_from(["submanifold", "regular"]),
        k=st.sampled_from([1, 3, 5]),
        d=st.integers(1, 4),
        channels=st.tuples(st.sampled_from([1, 2, 5, 16, 32]), st.sampled_from([1, 3, 16, 32])),
        dtype=st.sampled_from([np.float32, np.float64]),
        with_weights=st.booleans(),
        zeroed=st.sampled_from(["none", "all", "all but one", "half"]),
        zero=st.sampled_from([0.0, -0.0]),
    )
    def test_zeroed_cotangent_rows_same_bytes(
        self, scene, kind, k, d, channels, dtype, with_weights, zeroed, zero
    ):
        """Cotangents with dead rows take the live-row product; the bytes
        are those of the all-pairs reference."""
        t = scene_from(scene)
        if kind == "submanifold":
            rb = build_rulebook_submanifold(t, KernelSpec.same(k, d, dims=t.dims))
        else:
            spec = KernelSpec((k,) * t.dims, (d,) * t.dims, (2,) * t.dims, (d,) * t.dims)
            rb = build_rulebook_regular(t, spec, regular_out_shape(t.spatial_shape, spec))
        rng = np.random.default_rng(scene["seed"])
        c_in, c_out = channels
        x = rng.standard_normal((t.n_active, c_in)).astype(dtype)
        w = rng.standard_normal((len(rb.offsets), c_in, c_out)).astype(dtype)
        cot = rng.standard_normal((rb.n_out, c_out)).astype(dtype)
        n = rb.n_out
        dead = {
            "none": [],
            "all": np.arange(n),
            "all but one": np.delete(np.arange(n), rng.integers(n)) if n else [],
            "half": rng.permutation(n)[: n // 2],
        }[zeroed]
        cot[dead] = zero

        want = reference_gather_scatter_vjp(x, rb, w, cot)[:2]
        if with_weights:
            got = gather_scatter_vjp(x, rb, w, cot)
        else:
            shape_only = np.broadcast_to(np.zeros((), dtype), x.shape)
            got = gather_scatter_vjp(shape_only, rb, w, cot, with_weights=False)
            assert got[1] is None
            got, want = got[:1], want[:1]
        for g, ref in zip(got, want):
            assert g.dtype == ref.dtype and g.shape == ref.shape
            assert g.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("c_in, c_out", [
        (16, 16), (16, 32), (32, 16), (32, 32), (64, 64), (64, 128), (128, 64), (128, 128),
    ])
    def test_live_rows_on_both_sides_of_the_small_offset_guard(self, c_in, c_out, dtype):
        """Offsets with more pairs than the guard form the live-row product,
        the others the all-pairs one; both give the reference's bytes, for
        one live row, a few, half and all but one."""
        rng = np.random.default_rng(c_in + c_out)
        t = random_sparse(rng, (10, 10, 10), 0.5, 1)
        rb = build_rulebook_submanifold(t, KernelSpec.same(5, 3, dims=3))
        guard = SMALL_GEMM_ENTRIES // c_in + 1
        counts = sorted(p.shape[0] for p in rb.pairs)
        assert counts[0] <= guard < counts[-2]  # both sides, the center aside
        x = rng.standard_normal((t.n_active, c_in)).astype(dtype)
        w = rng.standard_normal((len(rb.offsets), c_in, c_out)).astype(dtype)
        full = rng.standard_normal((rb.n_out, c_out)).astype(dtype)
        n = rb.n_out
        for live in ([0], [n - 1], [1, 7, 40], rng.permutation(n)[: n // 2],
                     rng.permutation(n)[1:]):
            cot = np.zeros_like(full)
            cot[live] = full[live]
            want = reference_gather_scatter_vjp(x, rb, w, cot)
            for with_weights in (True, False):
                gx, gw = gather_scatter_vjp(x, rb, w, cot, with_weights=with_weights)
                assert gx.tobytes() == want[0].tobytes()
                if with_weights:
                    assert gw.tobytes() == want[1].tobytes()

    @pytest.mark.parametrize("c_in", [1, 1250])
    def test_no_product_of_one_row_or_one_column(self, c_in):
        """numpy runs a one-row or one-column product as gemv, whose row
        bits depend on the row count: a one-column gradient keeps the
        all-pairs product, and a lone live row is padded past one row."""
        rng = np.random.default_rng(c_in)
        t = random_sparse(rng, (14, 14, 14), 0.6, 1)
        rb = build_rulebook_submanifold(t, KernelSpec.same(1, dims=3))
        assert rb.n_out > SMALL_GEMM_ENTRIES + 5
        x = rng.standard_normal((t.n_active, c_in)).astype(np.float32)
        w = rng.standard_normal((1, c_in, 16)).astype(np.float32)
        full = rng.standard_normal((rb.n_out, 16)).astype(np.float32)
        n = rb.n_out
        # dropping the last rows moves the product's tail rows (gemv's row
        # bits depend on where the row count ends)
        for live in ([5], rng.permutation(n)[: n // 2], *(np.arange(n - j) for j in range(1, 5))):
            cot = np.zeros_like(full)
            cot[live] = full[live]
            want = reference_gather_scatter_vjp(x, rb, w, cot)[0]
            got = gather_scatter_vjp(x, rb, w, cot, with_weights=False)[0]
            assert got.tobytes() == want.tobytes()

    def test_nan_rows_are_live_and_non_finite_weights_keep_every_pair(self):
        rng = np.random.default_rng(12)
        t = random_sparse(rng, (10, 10, 10), 0.5, 1)
        rb = build_rulebook_submanifold(t, KernelSpec.same(3, 1, dims=3))
        x = rng.standard_normal((t.n_active, 16)).astype(np.float32)
        w = rng.standard_normal((27, 16, 16)).astype(np.float32)
        cot = np.zeros((rb.n_out, 16), np.float32)
        cot[3, 5] = np.nan  # a row whose first entry is zero
        cot[9] = 1.0
        inf_w = w.copy()
        inf_w[4, 2, 7] = np.inf  # a dead row times this weight is NaN
        for weights in (w, inf_w):
            with np.errstate(invalid="ignore"):
                want = reference_gather_scatter_vjp(x, rb, weights, cot)[0]
                got = gather_scatter_vjp(x, rb, weights, cot, with_weights=False)[0]
            assert np.isnan(got).any()
            assert np.array_equal(got, want, equal_nan=True)

    @pytest.mark.parametrize("kind", ["submanifold", "regular"])
    def test_small_scatter_blocks_same_bytes(self, kind, monkeypatch):
        """With 64-entry scatter blocks an offset spans many blocks; the
        forward, the all-pairs VJP and the live-row VJP (whose product is
        padded) keep the reference's bytes."""
        monkeypatch.setattr(fsp, "SCATTER_ENTRIES", 64)
        rng = np.random.default_rng(13)
        t = random_sparse(rng, (16, 16, 16), 0.5, 1, batches=2)
        if kind == "submanifold":
            rb = build_rulebook_submanifold(t, KernelSpec.same(3, 2, dims=3))
        else:
            spec = KernelSpec.downsample(3)
            rb = build_rulebook_regular(t, spec, regular_out_shape(t.spatial_shape, spec))
        c_in, c_out = 16, 24
        min_rows = SMALL_GEMM_ENTRIES // c_in + 1
        assert max(p.shape[0] for p in rb.pairs) > max(min_rows, 64 // c_in, 64 // c_out)
        x = rng.standard_normal((t.n_active, c_in)).astype(np.float32)
        w = rng.standard_normal((len(rb.offsets), c_in, c_out)).astype(np.float32)
        b = rng.standard_normal(c_out).astype(np.float32)
        out = gather_scatter_matmul(x, rb, w, b)
        assert out.tobytes() == reference_gather_scatter_matmul(x, rb, w, b).tobytes()
        full = rng.standard_normal((rb.n_out, c_out)).astype(np.float32)
        some_live = np.zeros_like(full)
        some_live[::7] = full[::7]  # a few live rows per offset: padded products
        for cot in (full, some_live):
            want = reference_gather_scatter_vjp(x, rb, w, cot)
            for with_weights in (True, False):
                gx, gw = gather_scatter_vjp(x, rb, w, cot, with_weights=with_weights)
                assert gx.tobytes() == want[0].tobytes()
                if with_weights:
                    assert gw.tobytes() == want[1].tobytes()

    def test_identity_offset_is_the_submanifold_center(self):
        t = random_sparse(np.random.default_rng(8), (5, 5, 5), 0.4, 1, batches=2)
        rb = build_rulebook_submanifold(t, KernelSpec.same(3, 2, dims=3))
        rows = np.arange(t.n_active)
        assert rb.identity_offset == 13
        assert np.array_equal(rb.pairs[13], np.stack((rows, rows), axis=1))
        spec = KernelSpec.downsample(3)
        assert build_rulebook_regular(t, spec, regular_out_shape((5, 5, 5), spec)).identity_offset == -1


class TestUniqueCoords:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_row_unique(self, seed):
        rng = np.random.default_rng(seed)
        shape = (5, 3, 4)
        n = 400
        coords = np.concatenate(
            (rng.integers(0, 3, (n, 1)), *(rng.integers(0, e, (n, 1)) for e in shape)), axis=1
        )
        uniq, inverse = unique_coords(coords, shape)
        want_uniq, want_inverse = np.unique(coords, axis=0, return_inverse=True)
        assert uniq.dtype == want_uniq.dtype
        assert uniq.tobytes() == want_uniq.tobytes()
        assert inverse.tobytes() == want_inverse.reshape(-1).tobytes()

    def test_empty(self):
        uniq, inverse = unique_coords(np.empty((0, 3), dtype=np.int64), (4, 4))
        assert uniq.shape == (0, 3) and inverse.shape == (0,)


def subm_layer(rng, spec, channels):
    w = rng.standard_normal((spec.volume, channels, channels)).astype(np.float32)
    return SparseConvLayer(spec, Tensor(w), Tensor(np.zeros(channels, np.float32)))


def cached(geometry, key):
    """The rulebook already cached under ``key``; fails on a miss."""
    return geometry.rulebook(key, lambda: pytest.fail(f"no cached rulebook for {key}"))


def count_builds(monkeypatch):
    calls = {"submanifold": 0, "regular": 0}

    def counting(kind, fn):
        def wrapped(*args, **kwargs):
            calls[kind] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(fc, "build_rulebook_submanifold",
                        counting("submanifold", fc.build_rulebook_submanifold))
    monkeypatch.setattr(fc, "build_rulebook_regular", counting("regular", fc.build_rulebook_regular))
    return calls


class TestGeometryCache:
    def test_same_geometry_and_spec_gives_same_rulebook(self):
        rng = np.random.default_rng(0)
        t = random_sparse(rng, (6, 6, 6), 0.3, 2)
        spec = KernelSpec.same(3, 2, dims=3)
        first = t.geometry.rulebook(spec, lambda: build_rulebook_submanifold(t, spec))
        assert cached(t.with_features(t.features).geometry, spec) is first

    def test_submanifold_outputs_share_the_input_geometry(self, monkeypatch):
        rng = np.random.default_rng(1)
        t = random_sparse(rng, (6, 6, 6), 0.3, 4)
        spec = KernelSpec.same(3, 1, dims=3)
        calls = count_builds(monkeypatch)
        assert t.with_features(t.features.data * 2).geometry is t.geometry
        out = subm_conv(t, subm_layer(rng, spec, 4))
        assert out.geometry is t.geometry
        assert subm_conv(out, subm_layer(rng, spec, 4)).geometry is t.geometry
        assert calls == {"submanifold": 1, "regular": 0}

    def test_blocks_share_the_input_geometry(self):
        cfg = preset("tiny")
        net = SfmNet(cfg, init_network(cfg))
        stage = 1  # holds one mixer block and one residual block
        mixer, residual = net.stages[stage]
        rng = np.random.default_rng(2)
        t = random_sparse(rng, (6, 6, 6), 0.3, cfg.stages[stage].channels)
        assert srb_block(t, residual, bn_mode="eval").geometry is t.geometry
        assert sfm_block(t, cfg.stages[stage].sfm, mixer).geometry is t.geometry

    def test_downsampling_twice_gives_one_output_geometry(self, monkeypatch):
        cfg = preset("tiny")
        net = SfmNet(cfg, init_network(cfg))
        rng = np.random.default_rng(3)
        t = random_sparse(rng, (9, 9, 9), 0.3, cfg.stages[0].channels, batches=2)
        calls = count_builds(monkeypatch)
        first = downsample(t, net.downs[0], bn_mode="eval")
        second = downsample(t.with_features(t.features), net.downs[0], bn_mode="eval")
        assert second.geometry is first.geometry
        assert first.geometry is not t.geometry
        assert calls == {"submanifold": 0, "regular": 1}
        assert regular_conv_down(t, net.downs[0].conv).geometry is first.geometry

    def test_coords_are_read_only_and_private(self):
        coords = np.array([[0, 1, 1, 1], [0, 2, 2, 2]], dtype=np.int64)
        t = random_sparse(np.random.default_rng(4), (4, 4, 4), 0.5, 1)
        with pytest.raises(ValueError):
            t.coords[0, 1] = 3
        u = SparseTensor(coords, np.ones((2, 1)), (4, 4, 4))
        coords[0, 1] = 3  # the caller's array stays theirs
        assert u.coords[0, 1] == 1

    def test_read_only_view_of_writable_memory_is_copied(self):
        coords = np.array([[0, 1, 1, 1], [0, 2, 2, 2]], dtype=np.int64)
        view = coords.view()
        view.flags.writeable = False
        t = SparseTensor(view, np.ones((2, 1)), (4, 4, 4))
        assert t.geometry.index.lookup((0, 1, 1, 1)) == 0
        coords[0, 1] = 3  # the owner can still write through its own array
        assert t.coords[0, 1] == 1
        assert t.geometry.index.lookup((0, 1, 1, 1)) == 0
        frozen = t.coords[:]  # read-only all the way down: shared, not copied
        assert SparseTensor(frozen, np.ones((2, 1)), (4, 4, 4)).coords is frozen

    def test_tiny_forward_builds_each_rulebook_once(self, monkeypatch):
        cfg = preset("tiny")
        rng = np.random.default_rng(5)
        pts = np.concatenate(
            (rng.uniform(-3, 3, (2000, 3)), rng.uniform(0, 1, (2000, 1))), axis=1
        )
        calls = count_builds(monkeypatch)
        sfmnet_forward(PointCloud(pts), cfg, init_network(cfg), bn_mode="eval")
        assert calls == {"submanifold": 9, "regular": 3}

    def test_sfm_pair_count_unchanged_and_cached(self):
        rng = np.random.default_rng(6)
        t = random_sparse(rng, (7, 7, 7), 0.3, 1, batches=2)
        config = SFMConfig(channels=4, kernels=(3, 5, 3), dilations=(1, 1, 3))
        expected = 0
        for k, d in zip(config.kernels, config.dilations):
            _, pairs, _ = per_offset_rulebook_submanifold(t, KernelSpec.same(k, d, dims=3))
            expected += sum(p.shape[0] for p in pairs)
        counts = sfm_pair_count(t, config)
        n = t.n_active
        assert counts == {
            "conv_pairs": expected,
            "gate": 3 * n,
            "modulation": n,
            "total": expected + 4 * n,
        }
        for k, d in zip(config.kernels, config.dilations):
            cached(t.geometry, KernelSpec.same(k, d, dims=3))

    def test_cache_dies_with_its_active_set(self):
        rng = np.random.default_rng(7)
        t = random_sparse(rng, (6, 6, 6), 0.4, 2)
        spec = KernelSpec.same(3, 1, dims=3)
        gc.disable()  # freed by reference counting alone: no cycles
        try:
            out = subm_conv(t, subm_layer(rng, spec, 2))
            geometry = weakref.ref(t.geometry)
            del t, out
            assert geometry() is None
        finally:
            gc.enable()
