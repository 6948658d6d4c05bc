import numpy as np
import pytest

from focalvox.erf import (
    ErfMap,
    composed_support_radius,
    emit_pgm,
    erf_gradient_map,
    render_plane,
    select_query,
)
from focalvox.errors import InactiveQuery, InvalidSpec, ShapeMismatch
from focalvox.params import Initializer, ParamReader, ParamStore
from focalvox.sfm import (
    BatchNormParams,
    SFMConfig,
    erf_radius,
    sfm_block,
    sfm_block_params,
    sfm_module,
    sfm_module_params,
    srb_block,
    srb_params,
)
from focalvox.sparse import SparseTensor
from helpers import sparse_from_coords


def slab_scene(nx=11, ny=11, nz=3, channels=3, seed=0):
    coords = [(0, x, y, z) for x in range(nx) for y in range(ny) for z in range(nz)]
    return sparse_from_coords(
        coords, (nx, ny, nz), channels, rng=np.random.default_rng(seed),
        dtype=np.float32,
    )


def srb_stack(channels=3, seed=0):
    store = ParamStore()
    srb_params(Initializer(store, seed), "p", channels, 3)
    params = srb_params(ParamReader(store), "p", channels, 3)
    return lambda t: srb_block(t, params, bn_mode="eval"), params


def sfm_module_stack(channels=3, seed=0, kernels=(3, 3), dilations=(1, 3)):
    cfg = SFMConfig(channels=channels, kernels=kernels, dilations=dilations)
    store = ParamStore()
    sfm_module_params(Initializer(store, seed), "m", cfg, 3)
    params = sfm_module_params(ParamReader(store), "m", cfg, 3)
    return lambda t: sfm_module(t, cfg, params), cfg, params


class TestSelectQuery:
    def test_explicit_active(self):
        # through the identity stack only the query voxel has a gradient
        t = slab_scene(3, 3, 1)
        erf = erf_gradient_map(lambda t: t, t, (0, 1, 2, 0))
        reached = {c: m for c, m in erf.values().items() if m}
        assert list(reached) == [(0, 1, 2, 0)]
        assert reached[(0, 1, 2, 0)] == pytest.approx(1.0, rel=1e-6)

    def test_explicit_inactive(self):
        t = slab_scene(3, 3, 1)
        with pytest.raises(InactiveQuery):
            erf_gradient_map(lambda t: t, t, (0, 1, 1, 5))

    def test_query_of_the_wrong_length_rejected(self):
        t = slab_scene(3, 3, 1)
        with pytest.raises(ShapeMismatch, match=r"coordinate \(1, 2, 0\) has 3 entries, expected 4"):
            erf_gradient_map(lambda t: t, t, (1, 2, 0))

    def test_seeded_deterministic(self):
        t = slab_scene(5, 5, 2)
        assert select_query(t, seed=7) == select_query(t, seed=7)

    def test_seeded_query_is_a_row_of_python_ints(self):
        t = slab_scene(5, 5, 2)
        query = select_query(t, seed=7)
        assert type(query) is tuple and len(query) == 4
        assert all(type(v) is int for v in query)
        row = t.geometry.index.lookup(query)
        assert tuple(t.coords[row]) == query
        erf = erf_gradient_map(lambda t: t, t, query)
        reached = [c for c, m in erf.values().items() if m]
        assert reached == [query]


class TestGradientMap:
    def test_zero_weights_zero_map(self):
        t = slab_scene(5, 5, 1)
        stack, params = srb_stack(seed=1)
        params.conv1.weight.data = np.zeros_like(params.conv1.weight.data)
        params.conv2.weight.data = np.zeros_like(params.conv2.weight.data)
        params.bn1.gain.data = np.zeros_like(params.bn1.gain.data)
        params.bn2.gain.data = np.zeros_like(params.bn2.gain.data)
        # with both conv paths dead the query output is relu(x): gradient
        # flows only through the skip, so kill the query's own activation
        t.features.data[:] = -1.0
        erf = erf_gradient_map(stack, t, (0, 2, 2, 0))
        assert erf.normalization == 0.0
        assert not erf.magnitudes.any()

    def test_srb_support_radius_two(self):
        t = slab_scene(9, 9, 1, seed=2)
        stack, _ = srb_stack(seed=3)
        query = (0, 4, 4, 0)
        erf = erf_gradient_map(stack, t, query)
        values = erf.values()
        for (b, x, y, z), mag in values.items():
            if max(abs(x - 4), abs(y - 4)) > 2:
                assert mag == 0.0, (x, y)
        # finite differences agree at one outside sample: the output is
        # bitwise unchanged when a radius-3 voxel moves
        row_out = [tuple(c) for c in t.coords].index((0, 4, 4, 0))
        row_far = [tuple(c) for c in t.coords].index((0, 1, 1, 0))
        base = stack(t).features.data[row_out].copy()
        bumped = t.features.data.copy()
        bumped[row_far] += 5.0
        t2 = SparseTensor(t.coords, bumped, t.spatial_shape)
        np.testing.assert_array_equal(stack(t2).features.data[row_out], base)

    def test_sfm_support_radius_four(self):
        t = slab_scene(11, 11, 3, seed=4)
        stack, cfg, _ = sfm_module_stack(seed=5)
        assert erf_radius(cfg) == 4
        query = (0, 5, 5, 1)
        erf = erf_gradient_map(stack, t, query)
        reached = 0
        for (b, x, y, z), mag in erf.values().items():
            radius = max(abs(x - 5), abs(y - 5), abs(z - 1))
            if radius > 4:
                assert mag == 0.0
            if radius == 4 and mag > 0:
                reached += 1
        assert reached > 0

    def test_sfm_reaches_radius_four_across_seeds(self):
        t = slab_scene(11, 11, 3, seed=6)
        hit = 0
        for seed in range(10):
            stack, _, _ = sfm_module_stack(seed=100 + seed)
            erf = erf_gradient_map(stack, t, (0, 5, 5, 1))
            if any(
                mag > 0
                for (b, x, y, z), mag in erf.values().items()
                if max(abs(x - 5), abs(y - 5)) == 4
            ):
                hit += 1
        assert hit >= 9

    def test_sfm_block_reaches_farther_than_srb_stack(self):
        """Same conv depth (two), mixer dilations push the support out."""
        t = slab_scene(13, 13, 1, seed=7)
        query = (0, 6, 6, 0)

        cfg = SFMConfig(channels=3, kernels=(3, 3), dilations=(1, 3))
        store = ParamStore()
        sfm_block_params(Initializer(store, 8), "b", cfg, 3)
        block = sfm_block_params(ParamReader(store), "b", cfg, 3)
        erf_sfm = erf_gradient_map(lambda x: sfm_block(x, cfg, block), t, query)

        stack, _ = srb_stack(seed=9)
        erf_srb = erf_gradient_map(stack, t, query)

        def max_radius(erf):
            return max(
                (max(abs(x - 6), abs(y - 6))
                 for (b, x, y, z), m in erf.values().items() if m > 0),
                default=0,
            )

        assert max_radius(erf_srb) <= 2
        assert max_radius(erf_sfm) >= max_radius(erf_srb)
        assert max_radius(erf_sfm) == 4


class TestComposedRadius:
    def test_formula_values(self):
        assert composed_support_radius([1]) == 1
        assert composed_support_radius([1, 1]) == 4      # 1 + 1 + 2*1
        assert composed_support_radius([2, 4]) == 11     # 2 + 1 + 2*4
        assert composed_support_radius([1, 1, 1]) == 10  # 1 + 1 + 2*(1 + 1 + 2)

    def test_matches_measured_support_across_downsample(self):
        """conv(r=1), stride-2 downsample, conv(r=1): input-unit radius 4."""
        from focalvox.backbone import DownsampleParams, downsample
        from focalvox.conv import SparseConvLayer, subm_conv
        from focalvox.sparse import KernelSpec
        from focalvox.tape import Tensor

        rng = np.random.default_rng(30)
        c = 2

        def conv_layer():
            return SparseConvLayer(
                KernelSpec.same(3, 1, dims=3),
                Tensor(rng.standard_normal((27, c, c)).astype(np.float32)),
                Tensor(rng.standard_normal(c).astype(np.float32)),
            )

        pre, post = conv_layer(), conv_layer()
        down = DownsampleParams(
            conv=SparseConvLayer(
                KernelSpec.downsample(3),
                Tensor(rng.standard_normal((27, c, c)).astype(np.float32)),
            ),
            bn=BatchNormParams(
                gain=Tensor(np.ones(c, dtype=np.float32)),
                bias=Tensor(np.zeros(c, dtype=np.float32)),
                running_mean=Tensor(np.zeros(c, dtype=np.float32)),
                running_var=Tensor(np.ones(c, dtype=np.float32)),
            ),
        )

        def stack(t):
            t = subm_conv(t, pre)
            t = downsample(t, down, bn_mode="eval")
            return subm_conv(t, post)

        scene = slab_scene(17, 17, 1, channels=c, seed=31)
        query = (0, 4, 4, 0)
        erf = erf_gradient_map(stack, scene, query)
        bound = composed_support_radius([1, 1])
        assert bound == 4
        max_seen = 0
        for (b, x, y, z), mag in erf.values().items():
            radius = max(abs(x - 2 * 4), abs(y - 2 * 4))
            if mag > 0:
                max_seen = max(max_seen, radius)
            else:
                continue
            assert radius <= bound, (x, y, radius)
        assert max_seen == bound


class TestEmitPgm:
    def test_single_voxel_map(self, tmp_path):
        erf = ErfMap(
            np.array([[0, 1, 2, 0]], dtype=np.int64),
            np.array([3.0]),
            (4, 4, 1),
        )
        payload = emit_pgm(erf, tmp_path / "m.pgm")
        header = b"P5\n4 4\n255\n"
        assert payload.startswith(header)
        pixels = np.frombuffer(payload[len(header):], dtype=np.uint8).reshape(4, 4)
        assert pixels[2, 1] == 255
        assert pixels.sum() == 255

    def test_uniform_map_saturates(self, tmp_path):
        coords = np.array([[0, x, y, 0] for x in range(3) for y in range(3)])
        erf = ErfMap(coords, np.full(9, 2.5), (3, 3, 1))
        payload = emit_pgm(erf, tmp_path / "u.pgm")
        pixels = np.frombuffer(payload[len(b"P5\n3 3\n255\n"):], dtype=np.uint8)
        assert (pixels == 255).all()

    def test_round_half_up_values(self, tmp_path):
        coords = np.array([[0, 0, 0, 0], [0, 1, 0, 0], [0, 2, 0, 0]])
        erf = ErfMap(coords, np.array([1.0, 2.0, 4.0]), (3, 1, 1))
        payload = emit_pgm(erf, tmp_path / "r.pgm", csv_path=tmp_path / "r.csv")
        # 1/4*255 = 63.75 -> 64; 2/4*255 = 127.5 -> 128 under round-half-up
        assert payload == b"P5\n3 1\n255\n" + bytes([64, 128, 255])
        csv = (tmp_path / "r.csv").read_text().splitlines()
        assert csv[0] == "x,y,z,magnitude"
        assert csv[1] == "0,0,0,1.0"

    def test_empty_map_rejected(self, tmp_path):
        erf = ErfMap(np.empty((0, 4), dtype=np.int64), np.empty(0), (2, 2, 1))
        with pytest.raises(InvalidSpec):
            emit_pgm(erf, tmp_path / "e.pgm")

    def test_z_slab_plane(self):
        coords = np.array([[0, 0, 0, 0], [0, 1, 0, 1]])
        erf = ErfMap(coords, np.array([1.0, 2.0]), (2, 1, 2))
        # two z slabs: the image is their maximum over the height axis
        assert render_plane(erf).tolist() == [[128, 255]]
