import numpy as np
import pytest

from focalvox.conv import SparseConvLayer, regular_conv_down, subm_conv
from focalvox.errors import InvalidSpec, ShapeMismatch
from focalvox.gradcheck import vjp_check
from focalvox.sparse import (
    KernelSpec,
    SparseTensor,
    build_rulebook_regular,
    build_rulebook_submanifold,
    gather_scatter_vjp,
    regular_out_shape,
)
from focalvox.tape import GradTape, Tensor, grad_of
from helpers import (
    dense_regular_oracle,
    dense_subm_oracle,
    random_sparse,
    reference_gather_scatter_vjp,
    rel_err,
    sparse_from_coords,
)


def make_subm_layer(rng, kernel, dilation, c_in, c_out, dims=3, dtype=np.float32):
    spec = KernelSpec.same(kernel, dilation, dims=dims)
    w = Tensor(rng.standard_normal((spec.volume, c_in, c_out)).astype(dtype))
    b = Tensor(rng.standard_normal(c_out).astype(dtype))
    return SparseConvLayer(spec, w, b)


class TestSubmConv:
    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        t = random_sparse(rng, (6, 6, 6), 0.3, 4)
        w = np.zeros((27, 4, 4), dtype=np.float32)
        w[13] = np.eye(4, dtype=np.float32)
        layer = SparseConvLayer(
            KernelSpec.same(3, 1, dims=3), Tensor(w), Tensor(np.zeros(4, np.float32))
        )
        out = subm_conv(t, layer)
        assert out.coords is t.coords
        np.testing.assert_array_equal(out.features.data, t.features.data)

    def test_isolated_voxel(self):
        rng = np.random.default_rng(1)
        t = sparse_from_coords([(0, 4, 4, 4)], (9, 9, 9), 3, rng=rng)
        layer = make_subm_layer(rng, 3, 1, 3, 2)
        out = subm_conv(t, layer)
        expected = t.features.data @ layer.weight.data[13] + layer.bias.data
        assert rel_err(out.features.data, expected) < 1e-6

    def test_dilated_matches_dense_oracle(self):
        rng = np.random.default_rng(2)
        t = random_sparse(rng, (8, 8, 8), 0.2, 3)
        layer = make_subm_layer(rng, 3, 3, 3, 4)
        out = subm_conv(t, layer)
        expected = dense_subm_oracle(
            t, layer.spec.kernel, layer.spec.dilation, layer.weight.data, layer.bias.data
        )
        assert rel_err(out.features.data, expected) < 1e-5

    def test_strided_spec_rejected(self):
        rng = np.random.default_rng(3)
        t = random_sparse(rng, (4, 4, 4), 0.5, 2)
        spec = KernelSpec.downsample(3)
        w = Tensor(rng.standard_normal((spec.volume, 2, 2)).astype(np.float32))
        with pytest.raises(InvalidSpec, match="stride 1"):
            subm_conv(t, SparseConvLayer(spec, w))

    def test_linearity(self):
        rng = np.random.default_rng(4)
        t1 = random_sparse(rng, (6, 6, 6), 0.3, 3, dtype=np.float64)
        t2 = SparseTensor(
            t1.coords, rng.standard_normal(t1.features.data.shape), t1.spatial_shape
        )
        layer = make_subm_layer(rng, 3, 1, 3, 3, dtype=np.float64)
        both = SparseTensor(t1.coords, t1.features.data + t2.features.data, t1.spatial_shape)
        lhs = subm_conv(both, layer).features.data
        rhs = (
            subm_conv(t1, layer).features.data
            + subm_conv(t2, layer).features.data
            - layer.bias.data
        )
        assert rel_err(lhs, rhs) < 1e-6


@pytest.mark.parametrize("conv, spec", [
    (subm_conv, KernelSpec.same(3, dims=3)),
    (regular_conv_down, KernelSpec.downsample(3)),
], ids=["subm_conv", "regular_conv_down"])
def test_channel_mismatch_raises_shape_mismatch(conv, spec):
    """A layer built for 4 input channels, run on 3."""
    t = random_sparse(np.random.default_rng(3), (6, 6, 6), 0.3, 3)
    layer = SparseConvLayer(spec, Tensor(np.ones((spec.volume, 4, 2), dtype=np.float32)))
    with pytest.raises(ShapeMismatch, match=r"features \(\d+, 3\) incompatible with weights"):
        conv(t, layer)


class TestRegularConvDown:
    def make_layer(self, rng, c_in, c_out, dims=3):
        spec = KernelSpec.downsample(dims)
        w = Tensor(rng.standard_normal((spec.volume, c_in, c_out)).astype(np.float32))
        b = Tensor(rng.standard_normal(c_out).astype(np.float32))
        return SparseConvLayer(spec, w, b)

    def test_single_voxel_stride_two(self):
        rng = np.random.default_rng(5)
        t = sparse_from_coords([(0, 5, 5, 5)], (8, 8, 8), 2, rng=rng)
        out = regular_conv_down(t, self.make_layer(rng, 2, 3))
        expected = {(0, a, b, c) for a in (2, 3) for b in (2, 3) for c in (2, 3)}
        assert {tuple(c) for c in out.coords} == expected
        assert out.spatial_shape == regular_out_shape((8, 8, 8), KernelSpec.downsample(3))

    def test_empty_input(self):
        rng = np.random.default_rng(6)
        t = sparse_from_coords(np.empty((0, 4)), (8, 8, 8), 2)
        out = regular_conv_down(t, self.make_layer(rng, 2, 3))
        assert out.n_active == 0
        assert out.channels == 3

    def test_matches_dense_strided_oracle(self):
        rng = np.random.default_rng(7)
        t = random_sparse(rng, (8, 8, 8), 0.25, 3)
        layer = self.make_layer(rng, 3, 4)
        out = regular_conv_down(t, layer)
        grid, reachable = dense_regular_oracle(
            t, layer.spec, out.spatial_shape, layer.weight.data, layer.bias.data
        )
        assert {tuple(c) for c in out.coords} == {tuple(c) for c in np.argwhere(reachable)}
        expected = np.stack([grid[tuple(c)] for c in out.coords])
        assert rel_err(out.features.data, expected) < 1e-5


class TestConvVjp:
    def setup_case(self, seed, n_extra=0):
        rng = np.random.default_rng(seed)
        t = random_sparse(rng, (5, 5, 5), 0.4, 3, dtype=np.float64)
        spec = KernelSpec.same(3, 1, dims=3)
        rb = build_rulebook_submanifold(t, spec)
        w = rng.standard_normal((27, 3, 2))
        cot = rng.standard_normal((t.n_active, 2))
        return t, rb, w, cot

    def test_zero_cotangent(self):
        t, rb, w, cot = self.setup_case(8)
        gx, gw = gather_scatter_vjp(t.features.data, rb, w, np.zeros_like(cot))
        assert not gx.any() and not gw.any()

    def test_bad_cotangent_shape_raises(self):
        t, rb, w, cot = self.setup_case(8)
        for bad in (cot[:-1], cot[:, :1], cot.reshape(-1)):
            with pytest.raises(ShapeMismatch):
                gather_scatter_vjp(t.features.data, rb, w, bad)

    def test_isolated_voxel_grad(self):
        rng = np.random.default_rng(9)
        t = sparse_from_coords([(0, 2, 2, 2)], (5, 5, 5), 3, rng=rng)
        spec = KernelSpec.same(3, 1, dims=3)
        rb = build_rulebook_submanifold(t, spec)
        w = rng.standard_normal((27, 3, 2))
        cot = rng.standard_normal((1, 2))
        gx, gw = gather_scatter_vjp(t.features.data.astype(np.float64), rb, w, cot)
        np.testing.assert_allclose(gx, cot @ w[13].T)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        scene = random_sparse(rng, (5, 5, 5), 0.35, 2, dtype=np.float64)
        spec = KernelSpec.same(3, 2, dims=3)

        def fn(ts):
            feats, w, b = ts
            t = SparseTensor(scene.coords, feats, scene.spatial_shape)
            return subm_conv(t, SparseConvLayer(spec, w, b)).features

        err = vjp_check(
            fn,
            [scene.features.data, rng.standard_normal((27, 2, 3)), rng.standard_normal(3)],
            seed=11,
        )
        assert err < 1e-6

    def test_regular_conv_vjp_through_tape(self):
        rng = np.random.default_rng(11)
        scene = random_sparse(rng, (6, 6, 6), 0.3, 2, dtype=np.float64)
        spec = KernelSpec.downsample(3)

        def fn(ts):
            feats, w, b = ts
            t = SparseTensor(scene.coords, feats, scene.spatial_shape)
            return regular_conv_down(t, SparseConvLayer(spec, w, b)).features

        err = vjp_check(
            fn,
            [scene.features.data, rng.standard_normal((27, 2, 2)), rng.standard_normal(2)],
            seed=12,
        )
        assert err < 1e-6


class TestConvBiasGradient:
    """The conv forms the bias gradient itself (the executor's VJP returns
    only feature and weight gradients); its bytes are the reference's."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", ["submanifold", "regular"])
    def test_taped_bias_gradient_matches_reference(self, kind, dtype):
        rng = np.random.default_rng(14)
        t = random_sparse(rng, (6, 6, 6), 0.3, 3, dtype=dtype)
        if kind == "submanifold":
            spec = KernelSpec.same(3, 2, dims=3)
            conv, rb = subm_conv, build_rulebook_submanifold(t, spec)
        else:
            spec = KernelSpec.downsample(3)
            out_shape = regular_out_shape(t.spatial_shape, spec)
            conv, rb = regular_conv_down, build_rulebook_regular(t, spec, out_shape)
        w = Tensor(rng.standard_normal((spec.volume, 3, 4)).astype(dtype))
        b = Tensor(rng.standard_normal(4).astype(dtype))
        tape = GradTape()
        out = conv(t.with_features(Tensor(t.features.data, tape)), SparseConvLayer(spec, w, b))
        cot = rng.standard_normal(out.features.data.shape).astype(dtype)
        got = grad_of(tape.gradients(out.features, cot), b)
        want = reference_gather_scatter_vjp(t.features.data, rb, w.data, cot)[2]
        assert got.dtype == want.dtype == dtype
        assert got.tobytes() == want.tobytes()


class TestSupportBound:
    def test_two_conv_stack_support_radius(self):
        """d out(p)/d in(q) is exactly zero beyond the summed kernel radii."""
        rng = np.random.default_rng(12)
        shape = (9, 9, 1)
        coords = [(0, i, j, 0) for i in range(9) for j in range(9)]
        t = sparse_from_coords(coords, shape, 2, rng=rng)
        l1 = make_subm_layer(rng, 3, 1, 2, 2)  # radius 1
        l2 = make_subm_layer(rng, 3, 2, 2, 2)  # radius 2 -> total 3

        tape = GradTape()
        feats = Tensor(t.features.data.astype(np.float64), tape)
        out = subm_conv(subm_conv(t.with_features(feats), l1), l2)
        center_row = coords.index((0, 4, 4, 0))
        cot = np.zeros(out.features.data.shape)
        cot[center_row] = 1.0
        grads = tape.gradients(out.features, cot)
        gin = grad_of(grads, feats)
        for row, c in enumerate(coords):
            radius = max(abs(c[1] - 4), abs(c[2] - 4))
            if radius > 3:
                assert not gin[row].any(), f"leak at {c}"
        # finite differences agree: perturbing a voxel beyond the radius
        # leaves the center output bitwise unchanged
        far_row = coords.index((0, 0, 0, 0))
        base = subm_conv(subm_conv(t, l1), l2).features.data[center_row].copy()
        bumped_feats = t.features.data.copy()
        bumped_feats[far_row] += 10.0
        bumped = SparseTensor(t.coords, bumped_feats, shape)
        after = subm_conv(subm_conv(bumped, l1), l2).features.data[center_row]
        np.testing.assert_array_equal(base, after)


class TestSlabEquivalence:
    def test_3d_unit_z_kernel_equals_2d_per_slab(self):
        rng = np.random.default_rng(13)
        t = random_sparse(rng, (6, 6, 3), 0.4, 3)
        spec3 = KernelSpec.same((3, 3, 1), (2, 2, 1))
        w = rng.standard_normal((9, 3, 4)).astype(np.float32)
        b = rng.standard_normal(4).astype(np.float32)
        out3 = subm_conv(t, SparseConvLayer(spec3, Tensor(w), Tensor(b)))

        spec2 = KernelSpec.same((3, 3), (2, 2))
        layer2 = SparseConvLayer(spec2, Tensor(w), Tensor(b))
        for z in range(3):
            rows = np.nonzero(t.coords[:, 3] == z)[0]
            if rows.size == 0:
                continue
            slab = SparseTensor(
                t.coords[rows][:, :3], t.features.data[rows], (6, 6)
            )
            out2 = subm_conv(slab, layer2)
            np.testing.assert_array_equal(out2.features.data, out3.features.data[rows])
