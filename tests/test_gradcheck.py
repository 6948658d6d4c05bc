"""Finite-difference checks of every differentiable primitive."""

import numpy as np
import pytest

from focalvox import ops
from focalvox.conv import SparseConvLayer, subm_conv
from focalvox.errors import NonFiniteGradient
from focalvox.gradcheck import vjp_check
from focalvox.sparse import KernelSpec, SparseTensor
from focalvox.tape import Tensor
from helpers import random_sparse

PRIMITIVE_TOL = 1e-6
COMPOSITE_TOL = 1e-4


def test_linear_vjp():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((5, 3))
    w = rng.standard_normal((3, 4))
    b = rng.standard_normal(4)
    err = vjp_check(lambda ts: ops.linear(*ts), [x, w, b], seed=1)
    assert err < 1e-7


def test_layer_norm_vjp():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((6, 5))
    err = vjp_check(
        lambda ts: ops.layer_norm(ts[0], ts[1], ts[2]),
        [x, rng.standard_normal(5), rng.standard_normal(5)],
        seed=2,
    )
    assert err < PRIMITIVE_TOL


def test_batch_norm_train_vjp():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((8, 4))
    err = vjp_check(
        lambda ts: ops.batch_norm_active(
            ts[0], ts[1], ts[2], np.zeros(4), np.ones(4), mode="train"
        )[0],
        [x, rng.standard_normal(4), rng.standard_normal(4)],
        seed=3,
    )
    assert err < PRIMITIVE_TOL


def test_batch_norm_eval_vjp():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((8, 4))
    r_mean = rng.standard_normal(4)
    r_var = rng.uniform(0.5, 2.0, 4)
    err = vjp_check(
        lambda ts: ops.batch_norm_active(
            ts[0], ts[1], ts[2], r_mean, r_var, mode="eval"
        )[0],
        [x, rng.standard_normal(4), rng.standard_normal(4)],
        seed=4,
    )
    assert err < PRIMITIVE_TOL


def test_gelu_vjp():
    rng = np.random.default_rng(4)
    err = vjp_check(lambda ts: ops.gelu(ts[0]), [rng.standard_normal((6, 6))], seed=5)
    assert err < PRIMITIVE_TOL


def test_relu_vjp_away_from_kink():
    rng = np.random.default_rng(5)
    x = rng.uniform(0.2, 1.5, (5, 4)) * rng.choice([-1.0, 1.0], (5, 4))
    err = vjp_check(lambda ts: ops.relu(ts[0]), [x], seed=6)
    assert err < PRIMITIVE_TOL


def test_mlp_vjp():
    rng = np.random.default_rng(6)
    c, h = 4, 8
    err = vjp_check(
        lambda ts: ops.mlp_block(*ts),
        [
            rng.standard_normal((5, c)),
            rng.standard_normal((c, h)),
            rng.standard_normal(h),
            rng.standard_normal((h, c)),
            rng.standard_normal(c),
        ],
        seed=7,
    )
    assert err < COMPOSITE_TOL


def test_structural_ops_vjp():
    rng = np.random.default_rng(7)

    def fn(ts):
        x, gates = ts
        a = ops.slice_cols(x, 0, 3)
        b = ops.slice_cols(x, 3, 6)
        mixed = ops.weighted_level_sum([a, b], gates)
        pooled = ops.scatter_rows_sum(mixed, np.array([0, 0, 1, 1, 1]), 2)
        return ops.multiply(pooled, pooled)

    err = vjp_check(
        fn, [rng.standard_normal((5, 6)), rng.standard_normal((5, 2))], seed=8
    )
    assert err < PRIMITIVE_TOL


def test_row_l2_vjp():
    rng = np.random.default_rng(8)
    err = vjp_check(lambda ts: ops.row_l2(ts[0], 2), [rng.standard_normal((4, 5))], seed=9)
    assert err < PRIMITIVE_TOL


def test_conv_vjp_through_tape():
    rng = np.random.default_rng(9)
    scene = random_sparse(rng, (5, 5, 5), 0.4, 3, dtype=np.float64)
    spec = KernelSpec.same(3, 1, dims=3)

    def fn(ts):
        feats, w, b = ts
        t = SparseTensor(scene.coords, feats, scene.spatial_shape)
        layer = SparseConvLayer(spec, w, b)
        return subm_conv(t, layer).features

    err = vjp_check(
        fn,
        [
            scene.features.data,
            rng.standard_normal((27, 3, 2)),
            rng.standard_normal(2),
        ],
        seed=10,
    )
    assert err < PRIMITIVE_TOL


def test_non_finite_gradient_raises():
    def fn(ts):
        bad = Tensor(np.array([[np.inf]]), ts[0].tape)
        return ops.multiply(ts[0], bad)

    with pytest.raises(NonFiniteGradient):
        vjp_check(fn, [np.ones((1, 1))], seed=11)
