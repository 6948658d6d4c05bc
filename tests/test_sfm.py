import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

from focalvox import ops
from focalvox.conv import SparseConvLayer, subm_conv
from focalvox.errors import InvalidSpec, ShapeMismatch
from focalvox.gradcheck import vjp_check
from focalvox.params import Initializer, ParamReader, ParamStore
from focalvox.sfm import (
    MLP_RATIO,
    SFMConfig,
    SfmBlockParams,
    SfmModuleParams,
    context_levels,
    effective_receptive_field,
    erf_meters,
    erf_radius,
    input_projection,
    sfm_block,
    sfm_block_params,
    sfm_module,
    sfm_module_params,
    sfm_pair_count,
    srb_block,
    srb_params,
)
from focalvox.sparse import KernelSpec, SparseTensor, centered_offsets
from focalvox.tape import GradTape, Tensor
from helpers import random_sparse, rel_err, sparse_from_coords


def np_gelu(x):
    from scipy.special import erf
    return x * 0.5 * (1.0 + erf(x / np.sqrt(2.0)))


def each_level(t, config, level_convs):
    """Every level ``context_levels`` makes, read out one at a time through
    one-hot gates: selecting level l adds it to zeros and the other levels
    times 0.0, which gives its bits (up to the sign of a zero)."""
    out = []
    for l in range(config.levels):
        gates = np.zeros((t.n_active, config.levels), dtype=t.features.data.dtype)
        gates[:, l] = 1.0
        out.append(context_levels(t, level_convs, Tensor(gates)).data)
    return out


def aggregate(levels, gates, h_w, h_b):
    """Gate-weighted level sum projected back to query space, as
    ``sfm_module`` composes it."""
    return ops.linear(ops.weighted_level_sum(levels, gates), h_w, h_b)


def module_params(rng, config, dims, dtype=np.float64):
    c, levels = config.channels, config.levels
    convs = []
    for k, d in zip(config.kernels, config.dilations):
        spec = KernelSpec.same(k, d, dims=dims)
        convs.append(
            SparseConvLayer(
                spec,
                Tensor(rng.standard_normal((spec.volume, c, c)).astype(dtype) * 0.4),
                Tensor(rng.standard_normal(c).astype(dtype) * 0.1),
            )
        )
    return SfmModuleParams(
        in_proj=(Tensor(rng.standard_normal((c, 2 * c + levels)).astype(dtype) * 0.4),
                 Tensor(rng.standard_normal(2 * c + levels).astype(dtype) * 0.1)),
        level_convs=convs,
        h=(Tensor(rng.standard_normal((c, c)).astype(dtype) * 0.4),
           Tensor(rng.standard_normal(c).astype(dtype) * 0.1)),
    )


def block_params(rng, config, dims, dtype=np.float64):
    c, hidden = config.channels, config.mlp_hidden
    return SfmBlockParams(
        module=module_params(rng, config, dims, dtype),
        ln1=(Tensor(np.ones(c, dtype=dtype)), Tensor(np.zeros(c, dtype=dtype))),
        ln2=(Tensor(np.ones(c, dtype=dtype)), Tensor(np.zeros(c, dtype=dtype))),
        fc1=(Tensor(rng.standard_normal((c, hidden)).astype(dtype) * 0.4),
             Tensor(rng.standard_normal(hidden).astype(dtype) * 0.1)),
        fc2=(Tensor(rng.standard_normal((hidden, c)).astype(dtype) * 0.4),
             Tensor(rng.standard_normal(c).astype(dtype) * 0.1)),
    )


class TestConfig:
    def test_length_mismatch(self):
        with pytest.raises(InvalidSpec):
            SFMConfig(channels=4, kernels=(3, 3), dilations=(1,))

    def test_even_kernel(self):
        with pytest.raises(InvalidSpec):
            SFMConfig(channels=4, kernels=(4,), dilations=(1,))

    @pytest.mark.parametrize("kernels", [(-3, 3), (0,), (3, -1)])
    def test_nonpositive_kernel(self, kernels):
        # -3 and -1 are odd: the message names both requirements
        message = re.escape(f"kernel sizes must be odd and positive: {kernels}")
        with pytest.raises(InvalidSpec, match=f"^{message}$"):
            SFMConfig(channels=4, kernels=kernels, dilations=(1,) * len(kernels))

    @pytest.mark.parametrize("channels", [0, -4])
    def test_nonpositive_channels(self, channels):
        with pytest.raises(InvalidSpec, match=rf"^channels must be at least 1, got {channels}$"):
            SFMConfig(channels=channels, kernels=(3,), dilations=(1,))


    @pytest.mark.parametrize("channels", [1, 48, 10**400])
    def test_mlp_hidden_is_exactly_twice_the_channels(self, channels):
        # an exact integer even past float range: the allocation, not the
        # config, is what rejects an impossible width
        cfg = SFMConfig(channels=channels, kernels=(3,), dilations=(1,))
        assert MLP_RATIO == 2 and cfg.mlp_hidden == 2 * channels
        assert type(cfg.mlp_hidden) is int

class TestEffectiveReceptiveField:
    def test_single_level(self):
        cfg = SFMConfig(channels=2, kernels=(3,), dilations=(1,))
        assert effective_receptive_field(cfg) == 3

    @pytest.mark.parametrize(
        "dilations,expected_m",
        [
            ((1, 3), 0.9),
            ((1, 3, 5), 1.9),
            ((1, 5, 9), 3.1),
            ((1, 3, 5, 7), 3.3),
            ((1, 3, 5, 7, 9), 5.1),
        ],
    )
    def test_kernel3_ladder(self, dilations, expected_m):
        cfg = SFMConfig(channels=2, kernels=(3,) * len(dilations), dilations=dilations)
        assert erf_meters(cfg, 0.1) == pytest.approx(expected_m, abs=0)

    def test_mixed_kernels(self):
        cfg = SFMConfig(channels=2, kernels=(3, 5, 3, 5), dilations=(1, 1, 3, 3))
        assert effective_receptive_field(cfg) == 25
        assert erf_meters(cfg, 0.08) == pytest.approx(2.0, abs=0)

    def test_radius(self):
        cfg = SFMConfig(channels=2, kernels=(3, 3), dilations=(1, 3))
        assert effective_receptive_field(cfg) == 9
        assert erf_radius(cfg) == 4


class TestInputProjection:
    def test_zero_weights_broadcast_bias(self):
        c, levels = 3, 2
        bias = np.arange(2 * c + levels, dtype=np.float64)
        q, base, gates = input_projection(
            Tensor(np.zeros((4, c))),
            Tensor(np.zeros((c, 2 * c + levels))),
            Tensor(bias),
            c,
            levels,
        )
        np.testing.assert_array_equal(q.data, np.tile(bias[:c], (4, 1)))
        np.testing.assert_array_equal(base.data, np.tile(bias[c : 2 * c], (4, 1)))
        np.testing.assert_array_equal(gates.data, np.tile(bias[2 * c :], (4, 1)))

    def test_identity_extended_split(self):
        c, levels = 2, 1
        w = np.zeros((c, 2 * c + levels))
        w[0, 0] = 1.0  # q0 <- x0
        w[1, 2] = 1.0  # f0_0 <- x1
        w[0, 4] = 1.0  # gate <- x0
        x = np.array([[5.0, -7.0], [1.0, 2.0]])
        q, base, gates = input_projection(
            Tensor(x), Tensor(w), Tensor(np.zeros(2 * c + levels)), c, levels
        )
        np.testing.assert_array_equal(q.data[:, 0], x[:, 0])
        np.testing.assert_array_equal(base.data[:, 0], x[:, 1])
        np.testing.assert_array_equal(gates.data[:, 0], x[:, 0])

    def test_matches_independent_linears(self):
        rng = np.random.default_rng(0)
        c, levels = 4, 3
        x = rng.standard_normal((6, c))
        w = rng.standard_normal((c, 2 * c + levels))
        b = rng.standard_normal(2 * c + levels)
        q, base, gates = input_projection(Tensor(x), Tensor(w), Tensor(b), c, levels)
        np.testing.assert_allclose(q.data, x @ w[:, :c] + b[:c])
        np.testing.assert_allclose(base.data, x @ w[:, c : 2 * c] + b[c : 2 * c])
        np.testing.assert_allclose(gates.data, x @ w[:, 2 * c :] + b[2 * c :])


class TestContextLevels:
    def test_isolated_voxel_center_only(self):
        rng = np.random.default_rng(1)
        cfg = SFMConfig(channels=3, kernels=(3, 3), dilations=(1, 2))
        params = module_params(rng, cfg, dims=3)
        t = sparse_from_coords([(0, 4, 4, 4)], (9, 9, 9), 3, rng=rng, dtype=np.float64)
        levels = each_level(t, cfg, params.level_convs)
        x = t.features.data
        for lv, conv in zip(levels, params.level_convs):
            center = conv.spec.volume // 2
            x = np_gelu(x @ conv.weight.data[center] + conv.bias.data)
            np.testing.assert_allclose(lv, x, rtol=1e-12)

    def test_identity_center_kernel(self):
        cfg = SFMConfig(channels=2, kernels=(3,), dilations=(1,))
        w = np.zeros((27, 2, 2))
        w[13] = np.eye(2)
        conv = SparseConvLayer(
            KernelSpec.same(3, 1, dims=3), Tensor(w), Tensor(np.zeros(2))
        )
        rng = np.random.default_rng(2)
        t = random_sparse(rng, (5, 5, 5), 0.3, 2, dtype=np.float64)
        levels = each_level(t, cfg, [conv])
        np.testing.assert_allclose(levels[0], np_gelu(t.features.data))

    def test_two_voxel_hand_composition(self):
        rng = np.random.default_rng(3)
        cfg = SFMConfig(channels=2, kernels=(3, 3), dilations=(1, 1))
        params = module_params(rng, cfg, dims=3)
        t = sparse_from_coords(
            [(0, 2, 2, 2), (0, 2, 2, 3)], (6, 6, 6), 2, rng=rng, dtype=np.float64
        )
        levels = each_level(t, cfg, params.level_convs)
        # hand-compose: neighbors at +z/-z offsets plus the center
        x = t.features.data
        offsets = centered_offsets((3, 3, 3))
        for lv, conv in zip(levels, params.level_convs):
            w = conv.weight.data
            center = offsets.index((0, 0, 0))
            plus_z = offsets.index((0, 0, 1))
            minus_z = offsets.index((0, 0, -1))
            out = np.zeros_like(x)
            # row 0 at z=2: neighbor row 1 sits at +1, reached by offset (0,0,-1)
            out[0] = x[0] @ w[center] + x[1] @ w[minus_z] + conv.bias.data
            out[1] = x[1] @ w[center] + x[0] @ w[plus_z] + conv.bias.data
            x = np_gelu(out)
            np.testing.assert_allclose(lv, x, rtol=1e-10)

    def test_more_level_convs_than_gate_columns_raises(self):
        rng = np.random.default_rng(5)
        cfg = SFMConfig(channels=2, kernels=(3, 3, 3), dilations=(1, 1, 1))
        params = module_params(rng, cfg, dims=3)
        t = random_sparse(rng, (5, 5, 5), 0.3, 2, dtype=np.float64)
        with pytest.raises(ShapeMismatch, match="2 gate columns for more than 2 levels"):
            context_levels(t, params.level_convs, Tensor(np.ones((t.n_active, 2))))


class TestAggregateModulate:
    def test_single_level_identity_h(self):
        rng = np.random.default_rng(4)
        f1 = Tensor(rng.standard_normal((5, 3)))
        gates = Tensor(np.ones((5, 1)))
        ctx = aggregate([f1], gates, Tensor(np.eye(3)), Tensor(np.zeros(3)))
        np.testing.assert_allclose(ctx.data, f1.data)

    def test_zero_gates_give_h_bias(self):
        rng = np.random.default_rng(5)
        f1 = Tensor(rng.standard_normal((4, 3)))
        h_b = rng.standard_normal(3)
        ctx = aggregate(
            [f1], Tensor(np.zeros((4, 1))), Tensor(rng.standard_normal((3, 3))), Tensor(h_b)
        )
        np.testing.assert_allclose(ctx.data, np.tile(h_b, (4, 1)))

    def test_three_levels_against_row_loop(self):
        rng = np.random.default_rng(6)
        levels = [Tensor(rng.standard_normal((6, 4))) for _ in range(3)]
        gates = Tensor(rng.standard_normal((6, 3)))
        h_w = rng.standard_normal((4, 4))
        h_b = rng.standard_normal(4)
        ctx = aggregate(levels, gates, Tensor(h_w), Tensor(h_b))
        expected = np.zeros((6, 4))
        for r in range(6):
            mix = np.zeros(4)
            for l in range(3):
                mix += levels[l].data[r] * gates.data[r, l]
            expected[r] = mix @ h_w + h_b
        assert rel_err(ctx.data, expected) < 1e-6

    def test_modulate(self):
        rng = np.random.default_rng(7)
        q = Tensor(rng.standard_normal((5, 3)))
        np.testing.assert_array_equal(ops.multiply(q, Tensor(np.ones((5, 3)))).data, q.data)
        np.testing.assert_array_equal(
            ops.multiply(Tensor(np.zeros((5, 3))), q).data, np.zeros((5, 3))
        )
        ctx = Tensor(rng.standard_normal((5, 3)))
        out = ops.multiply(q, ctx)
        for r in range(5):
            for c in range(3):
                assert out.data[r, c] == q.data[r, c] * ctx.data[r, c]


class TestSfmModule:
    def test_empty_input(self):
        rng = np.random.default_rng(8)
        cfg = SFMConfig(channels=3, kernels=(3,), dilations=(1,))
        params = module_params(rng, cfg, dims=3)
        t = sparse_from_coords(np.empty((0, 4)), (4, 4, 4), 3, dtype=np.float64)
        out = sfm_module(t, cfg, params)
        assert out.n_active == 0
        assert out.channels == 3

    def test_isolated_voxel_closed_form(self):
        rng = np.random.default_rng(9)
        cfg = SFMConfig(channels=3, kernels=(3, 3), dilations=(1, 2))
        params = module_params(rng, cfg, dims=3)
        t = sparse_from_coords([(0, 4, 4, 4)], (9, 9, 9), 3, rng=rng, dtype=np.float64)
        out = sfm_module(t, cfg, params)
        x = t.features.data
        fused = x @ params.in_proj[0].data + params.in_proj[1].data
        q, f, gates = fused[:, :3], fused[:, 3:6], fused[:, 6:]
        for conv in params.level_convs:
            f = np_gelu(f @ conv.weight.data[conv.spec.volume // 2] + conv.bias.data)
            if conv is params.level_convs[0]:
                f1 = f
        mix = f1 * gates[:, 0:1] + f * gates[:, 1:2]
        expected = q * (mix @ params.h[0].data + params.h[1].data)
        np.testing.assert_allclose(out.features.data, expected, rtol=1e-10)

    def test_random_scene_step_composition(self):
        rng = np.random.default_rng(10)
        cfg = SFMConfig(channels=4, kernels=(3, 3), dilations=(1, 3))
        params = module_params(rng, cfg, dims=3)
        t = random_sparse(rng, (7, 7, 7), 0.12, 4, dtype=np.float64)
        assert t.n_active >= 20
        out = sfm_module(t, cfg, params)
        q, base, gates = input_projection(t.features, *params.in_proj, 4, 2)
        mixed = context_levels(t.with_features(base), params.level_convs, gates)
        expected = ops.multiply(q, ops.linear(mixed, *params.h))
        np.testing.assert_array_equal(out.features.data, expected.data)
        # the fold equals the list of levels made step by step, then summed
        cur, levels = t.with_features(base), []
        for conv in params.level_convs:
            cur = subm_conv(cur, conv)
            cur = cur.with_features(ops.gelu(cur.features))
            levels.append(cur.features)
        np.testing.assert_array_equal(mixed.data, ops.weighted_level_sum(levels, gates).data)

    def test_sparsity_preserved(self):
        rng = np.random.default_rng(11)
        cfg = SFMConfig(channels=3, kernels=(3, 3), dilations=(1, 2))
        params = module_params(rng, cfg, dims=3)
        t = random_sparse(rng, (6, 6, 6), 0.3, 3, dtype=np.float64)
        out = sfm_module(t, cfg, params)
        assert out.coords is t.coords

    def test_gradcheck(self):
        rng = np.random.default_rng(12)
        cfg = SFMConfig(channels=3, kernels=(3, 3), dilations=(1, 2))
        params = module_params(rng, cfg, dims=3)
        scene = random_sparse(rng, (6, 6, 6), 0.1, 3, dtype=np.float64)
        assert 10 <= scene.n_active <= 40

        def fn(ts):
            t = SparseTensor(scene.coords, ts[0], scene.spatial_shape)
            return sfm_module(t, cfg, params).features

        err = vjp_check(fn, [scene.features.data], seed=13, max_coords=48)
        assert err < 1e-4

    def test_gate_selectivity(self):
        """One-hot gates on level 1 make the output blind to level-2 weights."""
        rng = np.random.default_rng(13)
        cfg = SFMConfig(channels=3, kernels=(3, 3), dilations=(1, 1))
        params = module_params(rng, cfg, dims=3)
        # zero the gate columns of the projection; bias selects level 1 only
        w = params.in_proj[0].data.copy()
        b = params.in_proj[1].data.copy()
        w[:, 6:] = 0.0
        b[6:] = [1.0, 0.0]
        params.in_proj = (Tensor(w), Tensor(b))
        t = random_sparse(rng, (5, 5, 5), 0.4, 3, dtype=np.float64)
        before = sfm_module(t, cfg, params).features.data
        params.level_convs[1].weight.data = rng.standard_normal(
            params.level_convs[1].weight.data.shape
        )
        params.level_convs[1].bias.data = rng.standard_normal(3)
        after = sfm_module(t, cfg, params).features.data
        np.testing.assert_array_equal(before, after)

    def test_pair_count_bound(self):
        rng = np.random.default_rng(14)
        cfg = SFMConfig(channels=3, kernels=(3, 3), dilations=(1, 3))
        t = random_sparse(rng, (8, 8, 8), 0.3, 3)
        counts = sfm_pair_count(t, cfg)
        n = t.n_active
        bound = n * sum(k**3 for k in cfg.kernels)
        assert counts["conv_pairs"] <= bound
        assert counts["total"] <= bound + n * (cfg.levels + 1)


class TestSfmBlock:
    def test_zero_mixer_residual_identity(self):
        rng = np.random.default_rng(16)
        cfg = SFMConfig(channels=3, kernels=(3,), dilations=(1,))
        params = block_params(rng, cfg, dims=3)
        # force z = 0 through a zero query path: zero projection weights and
        # a bias whose query slice is zero
        b = rng.standard_normal(7)
        b[:3] = 0.0
        params.module.in_proj = (Tensor(np.zeros((3, 7))), Tensor(b))
        # and kill the second residual branch
        params.fc2 = (Tensor(np.zeros((6, 3))), Tensor(np.zeros(3)))
        t = random_sparse(rng, (5, 5, 5), 0.4, 3, dtype=np.float64)
        out = sfm_block(t, cfg, params)
        np.testing.assert_array_equal(out.features.data, t.features.data)

    def test_zeroed_mlp_branch(self):
        rng = np.random.default_rng(17)
        cfg = SFMConfig(channels=3, kernels=(3,), dilations=(1,))
        params = block_params(rng, cfg, dims=3)
        params.fc2 = (Tensor(np.zeros((6, 3))), Tensor(np.zeros(3)))
        t = random_sparse(rng, (5, 5, 5), 0.4, 3, dtype=np.float64)
        out = sfm_block(t, cfg, params)
        z = sfm_module(t, cfg, params.module)
        y1 = ops.add(
            ops.layer_norm(z.features, *params.ln1), t.features
        )
        np.testing.assert_array_equal(out.features.data, y1.data)

    def test_random_matches_primitive_composition(self):
        rng = np.random.default_rng(18)
        cfg = SFMConfig(channels=4, kernels=(3, 3), dilations=(1, 2))
        params = block_params(rng, cfg, dims=3)
        t = random_sparse(rng, (6, 6, 6), 0.3, 4, dtype=np.float64)
        out = sfm_block(t, cfg, params)
        z = sfm_module(t, cfg, params.module)
        y1 = ops.add(
            ops.layer_norm(z.features, *params.ln1), t.features
        )
        mlp = ops.mlp_block(y1, *params.fc1, *params.fc2)
        y = ops.add(ops.layer_norm(mlp, *params.ln2), y1)
        np.testing.assert_array_equal(out.features.data, y.data)
        assert out.coords is t.coords

    def test_taped_forward_does_not_hold_the_mlp_hidden_layer(self):
        """On a default tape the MLP saves only its input, so the block's
        forward holds at least gelu's slope and the second linear's input
        (each N x 2C float32) less than the block recorded op by op."""
        rng = np.random.default_rng(21)
        cfg = SFMConfig(channels=8, kernels=(3,), dilations=(1,))
        params = block_params(rng, cfg, dims=3, dtype=np.float32)
        scene = random_sparse(rng, (12, 12, 12), 0.4, 8)

        def op_by_op(t, config, params):
            z = sfm_module(t, config, params.module)
            y1 = ops.add(ops.layer_norm(z.features, *params.ln1), t.features)
            del z
            mlp = ops.linear(ops.gelu(ops.linear(y1, *params.fc1)), *params.fc2)
            return t.with_features(ops.add(ops.layer_norm(mlp, *params.ln2), y1))

        def held(block):
            tape = GradTape()
            t = scene.with_features(Tensor(scene.features.data, tape))
            tracemalloc.start()
            try:
                out = block(t, cfg, params)
                return tracemalloc.get_traced_memory()[0], tape.node_names(), out
            finally:
                tracemalloc.stop()

        for block in (sfm_block, op_by_op):  # warm-up: caches the rulebook, first-call state
            held(block)
        node_held, names, out = held(sfm_block)
        step_held, step_names, step_out = held(op_by_op)
        assert "mlp_block" in names and "mlp_block" not in step_names
        assert out.features.data.tobytes() == step_out.features.data.tobytes()
        assert step_held - node_held >= 2 * scene.n_active * cfg.mlp_hidden * 4

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_untaped_bytes_equal_the_taped_block(self, dtype):
        """Untaped, the block reruns the query projection and writes gelu and
        the norms in place; a default and an input-only tape keep the
        queries and record the ops.  The hidden layer spans several gelu
        blocks."""
        rng = np.random.default_rng(22)
        cfg = SFMConfig(channels=16, kernels=(3, 3), dilations=(1, 2))
        params = block_params(rng, cfg, dims=3, dtype=dtype)
        scene = random_sparse(rng, (12, 12, 12), 0.5, 16, dtype=dtype)
        assert scene.n_active * cfg.mlp_hidden > ops._ERF_BLOCK
        want = sfm_block(scene, cfg, params).features.data
        assert want.dtype == dtype
        for tape in (GradTape(), GradTape(params=False)):
            t = scene.with_features(Tensor(scene.features.data, tape))
            assert sfm_block(t, cfg, params).features.data.tobytes() == want.tobytes()
            assert tape.node_names().count("slice_cols") == 3  # one projection

    def test_untaped_forward_does_not_hold_the_queries_through_the_levels(self):
        """Untaped, the block peaks at least the N x C float32 queries below
        the same block composed with the queries held through the levels,
        which peaks in the level chain here."""
        rng = np.random.default_rng(21)
        cfg = SFMConfig(channels=32, kernels=(3, 3), dilations=(1, 2))
        params = block_params(rng, cfg, dims=3, dtype=np.float32)
        scene = random_sparse(rng, (12, 12, 12), 0.5, 32)

        def queries_held(t, config, params):
            m = params.module
            projected = list(input_projection(
                t.features, *m.in_proj, config.channels, config.levels))
            context = ops.linear(context_levels(
                t.with_features(projected.pop(1)), m.level_convs, projected[1]), *m.h)
            z = ops.multiply(projected[0], context)
            del projected, context
            y1 = ops.add(ops.layer_norm(z, *params.ln1), t.features)
            del z
            mlp = ops.mlp_block(y1, *params.fc1, *params.fc2)
            return t.with_features(ops.add(ops.layer_norm(mlp, *params.ln2), y1))

        def peak(block):
            tracemalloc.start()
            try:
                out = block(scene, cfg, params)
                return tracemalloc.get_traced_memory()[1], out
            finally:
                tracemalloc.stop()

        for block in (sfm_block, queries_held):  # warm-up: caches the rulebooks
            peak(block)
        block_peak, out = peak(sfm_block)
        held_peak, held_out = peak(queries_held)
        assert out.features.data.tobytes() == held_out.features.data.tobytes()
        assert held_peak - block_peak >= scene.n_active * cfg.channels * 4

    def test_gradcheck(self):
        rng = np.random.default_rng(19)
        cfg = SFMConfig(channels=3, kernels=(3,), dilations=(1,))
        params = block_params(rng, cfg, dims=3)
        scene = random_sparse(rng, (5, 5, 5), 0.15, 3, dtype=np.float64)

        def fn(ts):
            t = SparseTensor(scene.coords, ts[0], scene.spatial_shape)
            return sfm_block(t, cfg, params).features

        err = vjp_check(fn, [scene.features.data], seed=20, max_coords=48)
        assert err < 1e-4


def caller_arrays(*objs):
    """Every array reachable from the given arrays, tensors, sparse tensors,
    parameter dataclasses, tuples and lists."""
    out = []
    for o in objs:
        if isinstance(o, np.ndarray):
            out.append(o)
        elif isinstance(o, Tensor):
            out.append(o.data)
        elif isinstance(o, SparseTensor):
            out += caller_arrays(o.features, o.coords)
        elif isinstance(o, (tuple, list)):
            out += caller_arrays(*o)
        elif dataclasses.is_dataclass(o):
            out += caller_arrays(*(getattr(o, f.name) for f in dataclasses.fields(o)))
    return out


class TestCallerArraysUnchanged:
    """No op writes an array its caller holds, on any tape or none, in its
    forward or its replay: the in-place steps (gelu's ``out``, the norms'
    ``xhat``) write only arrays their own function made."""

    CFG = SFMConfig(channels=16, kernels=(3, 3), dilations=(1, 2))
    CALLS = {
        "gelu": lambda t, p, stats: ops.gelu(t.features),
        "layer_norm": lambda t, p, stats: ops.layer_norm(t.features, *p.ln1),
        "batch_norm_train": lambda t, p, stats: ops.batch_norm_active(
            t.features, *p.ln2, *stats, mode="train")[0],
        "batch_norm_eval": lambda t, p, stats: ops.batch_norm_active(
            t.features, *p.ln2, *stats, mode="eval")[0],
        "mlp_block": lambda t, p, stats: ops.mlp_block(t.features, *p.fc1, *p.fc2),
        "sfm_block": lambda t, p, stats: sfm_block(t, TestCallerArraysUnchanged.CFG, p).features,
    }

    @pytest.mark.parametrize("tape_kind", [None, "default", "input-only"])
    @pytest.mark.parametrize("name", list(CALLS))
    def test_inputs_and_parameters_bitwise_unchanged(self, name, tape_kind):
        rng = np.random.default_rng(24)
        params = block_params(rng, self.CFG, dims=3, dtype=np.float32)
        scene = random_sparse(rng, (12, 12, 12), 0.5, 16)
        assert scene.n_active * self.CFG.mlp_hidden > ops._ERF_BLOCK
        stats = (rng.standard_normal(16).astype(np.float32), rng.uniform(0.5, 2, 16))
        tape = None if tape_kind is None else GradTape(params=tape_kind == "default")
        t = scene.with_features(Tensor(scene.features.data, tape))
        held = caller_arrays(t, params, stats)
        before = [a.copy() for a in held]

        def check(out):
            for a, b in zip(held, before):
                assert a.tobytes() == b.tobytes()
            assert not any(np.shares_memory(out.data, a) for a in held)

        out = self.CALLS[name](t, params, stats)
        check(out)
        if tape is not None:
            tape.gradients(out, np.ones_like(out.data))
            check(out)


class TestSrb:
    def make_params(self, rng, c=3, dims=3, dtype=np.float64):
        store = ParamStore()
        init = Initializer(store, seed=int(rng.integers(1 << 30)))
        srb_params(init, "srb", c, dims)
        return srb_params(
            ParamReader(store.as_dtype(dtype) if dtype is not np.float32 else store), "srb", c, dims
        )

    def test_zeroed_convs_reduce_to_relu(self):
        rng = np.random.default_rng(20)
        params = self.make_params(rng)
        params.conv1.weight.data = np.zeros_like(params.conv1.weight.data)
        params.conv2.weight.data = np.zeros_like(params.conv2.weight.data)
        t = random_sparse(rng, (5, 5, 5), 0.4, 3, dtype=np.float64)
        out = srb_block(t, params, bn_mode="eval")
        np.testing.assert_array_equal(out.features.data, np.maximum(t.features.data, 0))

    def test_isolated_voxel_closed_form(self):
        rng = np.random.default_rng(21)
        params = self.make_params(rng)
        t = sparse_from_coords([(0, 2, 2, 2)], (5, 5, 5), 3, rng=rng, dtype=np.float64)
        out = srb_block(t, params, bn_mode="eval")
        # fresh buffers are mean 0 / var 1, so eval BN is a near-identity scale
        x = t.features.data
        h = x @ params.conv1.weight.data[13]
        h = h / np.sqrt(1.0 + 1e-5) * params.bn1.gain.data + params.bn1.bias.data
        h = np.maximum(h, 0)
        h = h @ params.conv2.weight.data[13]
        h = h / np.sqrt(1.0 + 1e-5) * params.bn2.gain.data + params.bn2.bias.data
        expected = np.maximum(h + x, 0)
        np.testing.assert_allclose(out.features.data, expected, rtol=1e-10)

    def test_random_matches_composition(self):
        rng = np.random.default_rng(22)
        params = self.make_params(rng)
        t = random_sparse(rng, (6, 6, 6), 0.3, 3, dtype=np.float64)
        out = srb_block(t, params, bn_mode="train")
        h = subm_conv(t, params.conv1)
        h1, _, _ = ops.batch_norm_active(
            h.features, params.bn1.gain, params.bn1.bias,
            np.zeros(3), np.ones(3), mode="train",
        )
        h = h.with_features(ops.relu(h1))
        h = subm_conv(h, params.conv2)
        h2, _, _ = ops.batch_norm_active(
            h.features, params.bn2.gain, params.bn2.bias,
            np.zeros(3), np.ones(3), mode="train",
        )
        expected = ops.relu(ops.add(h2, t.features))
        np.testing.assert_array_equal(out.features.data, expected.data)
        assert out.coords is t.coords

    def test_train_mode_updates_running_stats(self):
        rng = np.random.default_rng(23)
        params = self.make_params(rng)
        t = random_sparse(rng, (5, 5, 5), 0.4, 3, dtype=np.float64)
        before = params.bn1.running_mean.data.copy()
        srb_block(t, params, bn_mode="train")
        assert not np.array_equal(params.bn1.running_mean.data, before)

    def test_gradcheck(self):
        rng = np.random.default_rng(24)
        params = self.make_params(rng)
        scene = random_sparse(rng, (5, 5, 5), 0.2, 3, dtype=np.float64)

        def fn(ts):
            t = SparseTensor(scene.coords, ts[0], scene.spatial_shape)
            return srb_block(t, params, bn_mode="eval").features

        err = vjp_check(fn, [scene.features.data], seed=25, max_coords=48)
        assert err < 1e-4


class TestParamAccounting:
    def test_module_count_example(self):
        # C=4, L=2, k=(3,3) in 3D: fused projection 4*(8+2)+10, two
        # 27-offset convs 2*(27*16+4), h projection 16+4
        cfg = SFMConfig(channels=4, kernels=(3, 3), dilations=(1, 1))
        expected = (4 * 10 + 10) + 2 * (27 * 16 + 4) + (16 + 4)
        store = ParamStore()
        sfm_module_params(Initializer(store, seed=0), "mod", cfg, dims=3)
        assert store.scalar_count() == expected

    def test_count_matches_store_enumeration(self):
        cfg = SFMConfig(channels=4, kernels=(3, 3), dilations=(1, 3))
        store = ParamStore()
        init = Initializer(store, seed=0)
        sfm_block_params(init, "blk", cfg, dims=3)
        sfm_block_params(ParamReader(store), "blk", cfg, dims=3)
        module_names = [n for n in store.param_names() if ".ln" not in n and ".mlp" not in n]
        total = sum(store.data(n).size for n in module_names)
        module = ParamStore()
        sfm_module_params(Initializer(module, seed=0), "blk", cfg, dims=3)
        assert module_names == module.param_names()
        assert total == module.scalar_count()
