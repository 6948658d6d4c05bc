import weakref
from dataclasses import replace

import numpy as np
import pytest

from focalvox import ops
from focalvox.backbone import (
    BevParams,
    NetworkConfig,
    SfmNet,
    StageConfig,
    bev_compress,
    downsample,
    downsample_params,
    init_network,
    param_count,
    preset,
    run_stage,
    sfmnet_forward,
)
from focalvox.config import config_from_json, config_to_json
from focalvox.errors import EmptyScene, InvalidSpec
from focalvox.params import Initializer, ParamReader, ParamStore, is_buffer_name
from focalvox.points import PointCloud, voxelize_vfe
from focalvox.sfm import SFMConfig, sfm_block
from focalvox.sparse import SparseTensor
from focalvox.tape import GradTape, Tensor, grad_of
from focalvox.weights import serialize_weights
from helpers import closed_form_param_count, random_sparse, sparse_from_coords


def small_stage(n_sfm, n_srb, channels=8):
    return StageConfig(
        n_sfm=n_sfm,
        n_srb=n_srb,
        sfm=SFMConfig(channels=channels, kernels=(3,), dilations=(1,)),
    )


def stage_with_params(n_sfm, n_srb, channels=8, dims=3, seed=0):
    cfg = small_stage(n_sfm, n_srb, channels)
    store = ParamStore()
    init = Initializer(store, seed)
    from focalvox.backbone import stage_params

    stage_params(init, "s", cfg, dims)
    return cfg, stage_params(ParamReader(store), "s", cfg, dims)


class TestStage:
    def test_empty_stage_rejected(self):
        with pytest.raises(InvalidSpec):
            small_stage(0, 0)

    def test_srb_only_zeroed_convs_is_relu(self):
        cfg, params = stage_with_params(0, 1)
        for block in params:
            block.conv1.weight.data = np.zeros_like(block.conv1.weight.data)
            block.conv2.weight.data = np.zeros_like(block.conv2.weight.data)
        rng = np.random.default_rng(0)
        t = random_sparse(rng, (5, 5, 5), 0.4, 8)
        out = run_stage(t, cfg, params, bn_mode="eval")
        np.testing.assert_allclose(
            out.features.data, np.maximum(t.features.data, 0), rtol=1e-6
        )

    def test_single_sfm_stage_equals_bare_block(self):
        cfg, params = stage_with_params(1, 0)
        rng = np.random.default_rng(1)
        t = random_sparse(rng, (5, 5, 5), 0.4, 8)
        staged = run_stage(t, cfg, params)
        bare = sfm_block(t, cfg.sfm, params[0])
        np.testing.assert_array_equal(staged.features.data, bare.features.data)

    def test_stage_matches_manual_composition(self):
        cfg, params = stage_with_params(1, 2)
        rng = np.random.default_rng(2)
        t = random_sparse(rng, (5, 5, 5), 0.4, 8)
        expected = run_stage(t, cfg, params, bn_mode="eval")
        manual = t
        from focalvox.sfm import srb_block

        manual = sfm_block(manual, cfg.sfm, params[0])
        manual = srb_block(manual, params[1], bn_mode="eval")
        manual = srb_block(manual, params[2], bn_mode="eval")
        np.testing.assert_array_equal(expected.features.data, manual.features.data)

    def test_stage_preserves_active_set(self):
        cfg, params = stage_with_params(1, 1)
        rng = np.random.default_rng(3)
        t = random_sparse(rng, (6, 6, 6), 0.3, 8)
        out = run_stage(t, cfg, params)
        assert out.coords is t.coords


class TestDownsample:
    def make(self, seed=0, c_in=4, c_out=6):
        return downsample_params(Initializer(ParamStore(), seed), "d", c_in, c_out)

    def test_coordinate_law(self):
        rng = np.random.default_rng(4)
        t = random_sparse(rng, (10, 10, 10), 0.2, 4)
        out = downsample(t, self.make())
        # out coords are exactly the j with an active input in 2j + [-1,1]^3
        expected = set()
        shape = np.asarray(out.spatial_shape)
        for c in t.coords:
            b, *pos = (int(v) for v in c)
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    for dz in (-1, 0, 1):
                        num = np.asarray(pos) + np.asarray([dx, dy, dz])
                        if (num % 2).any():
                            continue
                        j = num // 2
                        if (j >= 0).all() and (j < shape).all():
                            expected.add((b, *(int(v) for v in j)))
        assert {tuple(c) for c in out.coords} == expected

    def test_two_voxels_one_output_cell(self):
        t = sparse_from_coords(
            [(0, 4, 4, 4), (0, 4, 4, 5)], (8, 8, 8), 4,
            rng=np.random.default_rng(5),
        )
        out = downsample(t, self.make())
        # both inputs reach output (2,2,2): 4=2*2+0, 5=2*2+1
        assert (0, 2, 2, 2) in {tuple(c) for c in out.coords}

    def test_empty(self):
        t = sparse_from_coords(np.empty((0, 4)), (8, 8, 8), 4)
        with pytest.raises(Exception):
            # batch norm over zero rows cannot run in train mode
            downsample(t, self.make())
        out = downsample(t, self.make(), bn_mode="eval")
        assert out.n_active == 0


class TestBevCompress:
    def make_params(self, c_in=4, c_out=5, seed=0):
        rng = np.random.default_rng(seed)
        return BevParams(
            proj=(Tensor(rng.standard_normal((c_in, c_out)).astype(np.float32)),
                  Tensor(rng.standard_normal(c_out).astype(np.float32))),
            ln=(Tensor(np.ones(c_out, dtype=np.float32)),
                Tensor(np.zeros(c_out, dtype=np.float32))),
        )

    def test_single_voxel(self):
        rng = np.random.default_rng(6)
        t = sparse_from_coords([(0, 3, 4, 2)], (8, 8, 4), 4, rng=rng)
        params = self.make_params()
        out = bev_compress(t, params)
        assert out.coords.tolist() == [[0, 3, 4]]
        assert out.spatial_shape == (8, 8)
        expected = ops.layer_norm(
            ops.linear(t.features, *params.proj),
            *params.ln,
        )
        np.testing.assert_array_equal(out.features.data, expected.data)

    def test_column_sums_before_projection(self):
        rng = np.random.default_rng(7)
        t = sparse_from_coords([(0, 3, 4, 0), (0, 3, 4, 3)], (8, 8, 4), 4, rng=rng)
        params = self.make_params()
        out = bev_compress(t, params)
        assert out.n_active == 1
        summed = Tensor(t.features.data[0:1] + t.features.data[1:2])
        expected = ops.layer_norm(
            ops.linear(summed, *params.proj),
            *params.ln,
        )
        np.testing.assert_allclose(out.features.data, expected.data, rtol=1e-6)

    def test_matches_hash_group_oracle(self):
        rng = np.random.default_rng(8)
        t = random_sparse(rng, (6, 6, 4), 0.3, 4, batches=2)
        params = self.make_params()
        out = bev_compress(t, params)
        groups = {}
        for row in range(t.n_active):
            key = tuple(t.coords[row, :3])
            groups.setdefault(key, np.zeros(4))
            groups[key] = groups[key] + t.features.data[row].astype(np.float64)
        assert out.n_active == len(groups)
        assert [tuple(c) for c in out.coords] == sorted(groups)
        for row, key in enumerate(sorted(groups)):
            pre = Tensor(groups[key].astype(np.float32).reshape(1, -1))
            expected = ops.layer_norm(
                ops.linear(pre, *params.proj),
                *params.ln,
            )
            np.testing.assert_allclose(
                out.features.data[row], expected.data[0], rtol=1e-4, atol=1e-5
            )


def synthetic_cloud(n_points, seed, spread=3.0):
    rng = np.random.default_rng(seed)
    pts = np.concatenate(
        (
            rng.uniform(-spread, spread, (n_points, 2)),
            rng.uniform(-3.0, 3.0, (n_points, 1)),
            rng.uniform(0.0, 1.0, (n_points, 1)),
        ),
        axis=1,
    )
    return PointCloud(pts)


class TestEndToEnd:
    def test_single_point_cloud(self):
        cfg = preset("tiny")
        store = init_network(cfg)
        cloud = PointCloud(np.array([[0.05, 0.05, 0.1, 0.3]]))
        bev, logits = sfmnet_forward(cloud, cfg, store)
        assert bev.n_active == 1
        assert logits.data.shape == (1, 3)
        assert np.all(np.isfinite(bev.features.data))
        assert np.all(np.isfinite(logits.data))

    def test_gradient_reaches_nearly_all_params(self):
        cfg = preset("tiny")
        store = init_network(cfg)
        cloud = synthetic_cloud(1200, seed=7)
        tape = GradTape()
        bev, logits = sfmnet_forward(cloud, cfg, store, tape=tape)
        loss = ops.mean_all(logits)
        grads = tape.gradients(loss, np.asarray(1.0, dtype=logits.data.dtype))
        total = 0
        nonzero = 0
        for name in store.param_names():
            t = store.tensor(name)
            g = grad_of(grads, t)
            total += t.data.size
            if g is not None:
                nonzero += int(np.count_nonzero(g))
        assert nonzero / total > 0.99

    def test_variance_overflow_raises_and_store_stays_finite(self):
        """The 1e30 intensity is a finite float32, its squared deviation in
        the first batch norm is not; no running statistic takes the inf."""
        cfg = preset("tiny")
        store = init_network(cfg)
        cloud = PointCloud(np.array([[0.1, 0.2, 0.3, 1e30], [0.5, 0.6, 0.7, 0.5]]))
        with pytest.raises(InvalidSpec, match=r"^batch_norm: variance overflows float32$"):
            sfmnet_forward(cloud, cfg, store)
        assert all(np.isfinite(t.data).all() for _, t in store.items())

    def test_empty_scene_raises(self):
        cfg = preset("tiny")
        store = init_network(cfg)
        cloud = PointCloud(np.array([[99.0, 99.0, 99.0, 0.0]]))
        with pytest.raises(EmptyScene):
            sfmnet_forward(cloud, cfg, store)

    def test_float64_store_runs_in_float64(self):
        cfg = preset("tiny")
        source = init_network(cfg)
        store = source.as_dtype(np.float64)
        assert store.data("vfe.weight").dtype == np.float64
        # the float32 network cast exactly: its weights file is the source's
        assert serialize_weights(store) == serialize_weights(source)
        bev, logits = sfmnet_forward(synthetic_cloud(300, seed=11), cfg, store)
        assert bev.features.data.dtype == np.float64
        assert logits.data.dtype == np.float64


class TestActivationLifetimes:
    def test_untaped_forward_drops_voxelized_input_before_bev(self, monkeypatch):
        """No local of ``sfmnet_forward`` holds the voxelized tensor, so its
        geometry (with the stage-1 rulebooks) dies at the first downsample."""
        import focalvox.backbone as fb

        refs, alive_at_bev = [], []
        voxelize, compress = fb.voxelize_vfe, fb.bev_compress

        def voxelize_vfe(*args, **kwargs):
            out = voxelize(*args, **kwargs)
            refs.append((weakref.ref(out.geometry), weakref.ref(out.features.data)))
            return out

        def bev_compress(t, params):
            alive_at_bev.append([r() is not None for pair in refs for r in pair])
            return compress(t, params)

        monkeypatch.setattr(fb, "voxelize_vfe", voxelize_vfe)
        monkeypatch.setattr(fb, "bev_compress", bev_compress)
        cfg = preset("tiny")
        bev, _ = sfmnet_forward(synthetic_cloud(600, seed=5), cfg, init_network(cfg))
        assert bev.n_active > 0
        assert alive_at_bev == [[False, False]]

    def test_untaped_backbone_drops_a_stage_input_after_its_first_block(self, monkeypatch):
        """``backbone3d`` hands each stage its input without holding it, so
        while stage 2's residual block runs (after its mixer block) the
        stage-2 input features, made by the first downsample, are gone."""
        import focalvox.backbone as fb

        refs, alive_in_srb = [], []
        down, residual = fb.downsample, fb.srb_block

        def downsample(*args, **kwargs):
            out = down(*args, **kwargs)
            refs.append(weakref.ref(out.features.data))
            return out

        def srb_block(t, *args, **kwargs):
            if len(refs) == 1:  # stage 2
                alive_in_srb.append(refs[0]() is not None)
            return residual(t, *args, **kwargs)

        monkeypatch.setattr(fb, "downsample", downsample)
        monkeypatch.setattr(fb, "srb_block", srb_block)
        cfg = preset("tiny")
        net = SfmNet(cfg, init_network(cfg))
        scene = voxelize_vfe(synthetic_cloud(600, seed=5), cfg.voxelizer, net.vfe_w, net.vfe_b)
        assert net.backbone3d(scene, bn_mode="eval", depth=2).n_active > 0
        assert alive_in_srb == [False]


class TestInvariance:
    """Metamorphic gates on the tiny 3-D backbone in eval mode, on a seeded
    1,500-voxel scene kept 8 cells from every grid edge."""

    SHAPE = (64, 64, 32)  # the tiny voxelizer's grid; its total stride is 8

    @pytest.fixture(scope="class")
    def scene(self):
        cfg = preset("tiny")
        net = SfmNet(cfg, init_network(cfg))
        rng = np.random.default_rng(3)
        ijk = np.stack(np.unravel_index(
            rng.choice(40 * 40 * 16, 1500, replace=False), (40, 40, 16)), axis=1) + (8, 8, 4)
        coords = np.concatenate((np.zeros((1500, 1), np.int64), ijk), axis=1)
        feats = rng.standard_normal((1500, 16)).astype(np.float32)

        def run(c, f):
            return net.backbone3d(SparseTensor(c, f, self.SHAPE), bn_mode="eval")

        return run, coords, feats, run(coords, feats)

    def test_shift_by_the_total_stride_is_bit_identical(self, scene):
        run, coords, feats, base = scene
        out = run(coords + (0, 8, 8, 8), feats)
        np.testing.assert_array_equal(out.coords, base.coords + (0, 1, 1, 1))
        assert out.features.data.tobytes() == base.features.data.tobytes()

    def test_row_permutation_is_bit_identical(self, scene):
        run, coords, feats, base = scene
        perm = np.random.default_rng(4).permutation(len(coords))
        out = run(coords[perm], feats[perm])
        np.testing.assert_array_equal(out.coords, base.coords)
        assert out.features.data.tobytes() == base.features.data.tobytes()

    def test_one_voxel_shift_changes_the_features(self, scene):
        """The negative control: the same output cells, other features."""
        run, coords, feats, base = scene
        out = run(coords + (0, 1, 1, 1), feats)
        np.testing.assert_array_equal(out.coords, base.coords)
        assert np.abs(out.features.data - base.features.data).max() > 1.0


class TestPresetsAndCounts:
    def test_presets_build(self):
        for name in ("tiny", "argoverse2-like", "waymo-like"):
            cfg = preset(name)
            assert isinstance(cfg, NetworkConfig)

    def test_preset_kernel_plans(self):
        a = preset("argoverse2-like")
        assert a.stages[3].sfm.kernels == (3, 3, 3, 3)
        assert a.stages[3].sfm.dilations == (1, 3, 5, 7)
        w = preset("waymo-like")
        assert w.stages[3].sfm.kernels == (3, 5, 3, 5)
        assert w.stages[3].sfm.dilations == (1, 1, 3, 3)

    def test_param_count_matches_store(self):
        cfg = preset("tiny")
        store = init_network(cfg)
        assert param_count(cfg) == closed_form_param_count(cfg) == store.scalar_count()

    def test_tiny_has_117_parameter_tensors_and_147_entries(self):
        store = init_network(preset("tiny"))
        assert len(store.param_names()) == 117
        assert len(store.names()) == 147  # buffers included

    def test_linear_layer_count_example(self):
        # a lone linear 2 -> 3 with bias is 9 scalars
        store = ParamStore()
        init = Initializer(store, 0)
        init.weight("w", (2, 3))
        init.zeros("b", (3,))
        assert store.scalar_count() == 9

    def test_buffers_not_counted(self):
        cfg = preset("tiny")
        store = init_network(cfg)
        buffer_scalars = sum(
            store.data(n).size for n in store.names() if is_buffer_name(n)
        )
        assert buffer_scalars > 0
        assert param_count(cfg) == closed_form_param_count(cfg) == store.scalar_count()

    def test_widths_follow_the_stages(self):
        # non-preset widths: the downsamples into and out of stage 2 and the
        # BEV projection take their widths from the stages they feed
        cfg = preset("tiny")
        stage2 = replace(cfg.stages[1], sfm=replace(cfg.stages[1].sfm, channels=40))
        bev2d = replace(cfg.backbone2d, sfm=replace(cfg.backbone2d.sfm, channels=64))
        cfg = replace(cfg, stages=(cfg.stages[0], stage2, *cfg.stages[2:]), backbone2d=bev2d)
        cfg = config_from_json(config_to_json(cfg))
        assert (cfg.stages[1].channels, cfg.backbone2d.channels) == (40, 64)
        store = init_network(cfg)
        assert store.data("down1.conv.weight").shape == (27, 16, 40)
        assert store.data("down2.conv.weight").shape == (27, 40, 64)
        assert store.data("bev.proj.weight").shape == (128, 64)
        assert store.data("probe.weight").shape == (64, 3)
        assert param_count(cfg) == closed_form_param_count(cfg) == store.scalar_count()
        bev, logits = sfmnet_forward(synthetic_cloud(300, seed=3), cfg, store)
        assert bev.channels == 64
        assert logits.data.shape == (bev.n_active, 3)
