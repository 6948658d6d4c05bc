import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from focalvox.errors import DuplicateCoordinate, InvalidSpec, ShapeMismatch
from focalvox.sfm import SFMConfig
from focalvox.sparse import (
    KernelSpec,
    SparseTensor,
    build_rulebook_regular,
    build_rulebook_submanifold,
    flat_keys,
    gather_scatter_matmul,
    regular_out_shape,
)
from helpers import (
    dense_regular_oracle,
    dense_subm_oracle,
    per_offset_rulebook_submanifold,
    random_sparse,
    rel_err,
    sparse_from_coords,
)


def subm_spec(kernel, dilation=1, dims=3):
    return KernelSpec.same(kernel, dilation, dims=dims)


# outside input that a geometry or tensor rejects, and its exact error
BAD_TENSORS = [
    ("coords-rank", np.zeros((1, 3), dtype=np.int64), np.ones((1, 2)), ShapeMismatch,
     "coords shape (1, 3) does not match spatial rank 3"),
    ("negative-batch", np.array([[-1, 0, 0, 0]]), np.ones((1, 2)), InvalidSpec,
     "batch indices must be non-negative"),
    ("outside-grid", np.array([[0, 0, 4, 0]]), np.ones((1, 2)), InvalidSpec,
     "grid indices out of the declared spatial shape"),
    ("feature-rows", np.array([[0, 0, 0, 0]]), np.ones((2, 2)), ShapeMismatch,
     "features rows (2, 2) != coords rows 1"),
    ("non-finite", np.array([[0, 0, 0, 0]]), np.array([[1.0, np.inf]]), InvalidSpec,
     "features must be finite"),
    ("feature-rank", np.array([[0, 0, 0, 0]]), np.ones(1), ShapeMismatch,
     "features rows (1,) != coords rows 1"),
]
# the rows with valid coordinates, which ``with_features`` rejects as well
FEATURE_CASES = [c for c in BAD_TENSORS if c[0] in ("feature-rows", "non-finite", "feature-rank")]


@pytest.mark.parametrize("coords, features, error, message",
                         [case[1:] for case in BAD_TENSORS], ids=[c[0] for c in BAD_TENSORS])
def test_sparse_tensor_rejects_outside_input(coords, features, error, message):
    with pytest.raises(error) as err:
        SparseTensor(coords, features, (4, 4, 4))
    assert type(err.value) is error
    assert str(err.value) == message


@pytest.mark.parametrize("coords, features, error, message",
                         [case[1:] for case in FEATURE_CASES], ids=[c[0] for c in FEATURE_CASES])
def test_with_features_checks_as_the_constructor(coords, features, error, message):
    t = SparseTensor(coords, np.ones((coords.shape[0], 2)), (4, 4, 4))
    with pytest.raises(error) as err:
        t.with_features(features)
    assert type(err.value) is error
    assert str(err.value) == message


class TestCoordIndex:
    def test_singleton(self):
        t = sparse_from_coords([(0, 0, 0, 0)], (4, 4, 4), 2)
        idx = t.geometry.index
        assert idx.n == 1
        assert idx.lookup((0, 0, 0, 0)) == 0

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateCoordinate):
            sparse_from_coords([(0, 1, 2, 3), (0, 1, 2, 3)], (4, 4, 4), 1)

    def test_random_against_linear_scan(self):
        rng = np.random.default_rng(0)
        seen = set()
        coords = []
        while len(coords) < 500:
            c = (int(rng.integers(0, 2)), *(int(v) for v in rng.integers(0, 12, size=3)))
            if c not in seen:
                seen.add(c)
                coords.append(c)
        t = sparse_from_coords(coords, (12, 12, 12), 1)
        idx = t.geometry.index
        for row, c in enumerate(coords):
            # linear-scan oracle: the row where the coordinate literally sits
            assert idx.lookup(c) == row
        for _ in range(50):
            probe = (int(rng.integers(0, 2)), *(int(v) for v in rng.integers(0, 12, size=3)))
            expected = coords.index(probe) if probe in seen else None
            assert idx.lookup(probe) == expected

    def test_out_of_grid_probe_absent(self):
        t = sparse_from_coords([(0, 1, 1, 1)], (4, 4, 4), 1)
        idx = t.geometry.index
        assert idx.lookup((0, -1, 1, 1)) is None
        assert idx.lookup((0, 4, 1, 1)) is None

    def test_non_integral_entry_names_no_cell(self):
        idx = sparse_from_coords([(0, 1, 2, 3)], (4, 4, 4), 1).geometry.index
        assert idx.lookup((0, 1.5, 2, 3)) is None
        assert idx.lookup((0, 1, 2, 3.25)) is None
        assert idx.lookup((0.5, 1, 2, 3)) is None
        assert idx.lookup((0, float("nan"), 2, 3)) is None

    def test_integral_float_entry_finds_its_row(self):
        idx = sparse_from_coords([(0, 1, 2, 3)], (4, 4, 4), 1).geometry.index
        assert idx.lookup((0, 1, 2.0, 3)) == 0
        assert idx.lookup(np.array([0.0, 1.0, 2.0, 3.0])) == 0

    @pytest.mark.parametrize("coord", [(0, 1, 2, 7), (0, 1), ()])
    def test_coordinate_of_the_wrong_length_rejected(self, coord):
        t = sparse_from_coords([(0, 1, 2)], (4, 4), 1)
        with pytest.raises(ShapeMismatch, match=r"expected 3 \(batch, \*ijk\)"):
            t.geometry.index.lookup(coord)


class TestKeySpace:
    """Flat keys are int64, so a grid may hold n_batch * prod(shape) <= 2**63 cells."""

    def test_grid_beyond_int64_keys_rejected(self):
        with pytest.raises(InvalidSpec, match=r"hold 73786976294838206464 cells"):
            SparseTensor(np.zeros((1, 4), dtype=np.int64), np.ones((1, 1)), (2**22,) * 3)

    def test_batches_count_toward_the_key_space(self):
        SparseTensor(np.zeros((1, 4), dtype=np.int64), np.ones((1, 1)), (2**21,) * 3)
        with pytest.raises(InvalidSpec, match=r"^2 batch\(es\) of a \(2097152, 2097152, 2097152\)"):
            SparseTensor(np.array([[1, 0, 0, 0]]), np.ones((1, 1)), (2**21,) * 3)

    def test_query_above_the_largest_batch_absent(self):
        # on a 2**63-cell grid the key of batch 2 wraps onto batch 0
        t = SparseTensor(np.zeros((1, 4), dtype=np.int64), np.ones((1, 1)), (2**21,) * 3)
        idx = t.geometry.index
        assert idx.lookup((0, 0, 0, 0)) == 0
        assert idx.lookup((1, 0, 0, 0)) is None
        assert idx.lookup((2, 0, 0, 0)) is None


SPAN_RULE = "dilation and span (k - 1) * dilation must be below 2**63 on every axis: "


class TestKernelSpec:
    def test_even_kernel_rejected(self):
        with pytest.raises(InvalidSpec):
            KernelSpec((2, 3, 3), (1, 1, 1), (1, 1, 1), (0, 0, 0))

    @pytest.mark.parametrize("kernels, dilations, message", [
        ((3, 4), (1, 1), "kernel sizes must be odd and positive: (3, 4)"),
        ((0,), (1,), "kernel sizes must be odd and positive: (0,)"),
        ((-3, 3), (1, 1), "kernel sizes must be odd and positive: (-3, 3)"),
        ((3, 3), (1, 0), "dilations must be positive: (1, 0)"),
        ((3,), (-2,), "dilations must be positive: (-2,)"),
        # 2 * (2**63 - 1) wraps to -2 in int64
        ((5, 3), (2**63 - 1, 3), SPAN_RULE + "kernel (5, 3), dilation (9223372036854775807, 3)"),
        ((5, 3), (2**63, 3), SPAN_RULE + "kernel (5, 3), dilation (9223372036854775808, 3)"),
        ((3, 3), (2**62, 1), SPAN_RULE + "kernel (3, 3), dilation (4611686018427387904, 1)"),
        # no span, but the dilation itself is beyond int64
        ((1, 3), (2**63, 1), SPAN_RULE + "kernel (1, 3), dilation (9223372036854775808, 1)"),
    ], ids=["even-kernel", "zero-kernel", "negative-kernel", "zero-dilation",
            "negative-dilation", "span-wraps", "dilation-2**63", "span-2**63", "kernel-one"])
    def test_mixer_config_and_spec_share_the_kernel_rule(self, kernels, dilations, message):
        for make in (lambda: SFMConfig(4, kernels, dilations),
                     lambda: KernelSpec.same(kernels, dilations)):
            with pytest.raises(InvalidSpec) as err:
                make()
            assert str(err.value) == message

    def test_span_just_below_the_bound_reaches_nothing_beyond_the_grid(self):
        t = random_sparse(np.random.default_rng(8), (8, 8, 8), 0.3, 1)
        books = [build_rulebook_submanifold(t, KernelSpec.same((3, 5, 3), (dil, 1, 1)))
                 for dil in (2**62 - 1, 2**40)]
        assert books[0].offsets == books[1].offsets
        for a, b in zip(books[0].pairs, books[1].pairs):
            np.testing.assert_array_equal(a, b)
        assert books[0].total_pairs == books[1].total_pairs

    def test_same_padding(self):
        spec = KernelSpec.same(3, 2, dims=3)
        assert spec.padding == (2, 2, 2)
        assert spec.stride == (1, 1, 1)


class TestSubmanifoldRulebook:
    def test_isolated_voxel_center_only(self):
        t = sparse_from_coords([(0, 3, 3, 3)], (8, 8, 8), 2)
        rb = build_rulebook_submanifold(t, subm_spec(3))
        for off, pairs in zip(rb.offsets, rb.pairs):
            if off == (0, 0, 0):
                assert pairs.tolist() == [[0, 0]]
            else:
                assert pairs.shape[0] == 0
        assert rb.out_coords is t.coords

    def test_two_neighbors_four_pairs(self):
        t = sparse_from_coords([(0, 1, 1, 1), (0, 1, 1, 2)], (4, 4, 4), 1)
        rb = build_rulebook_submanifold(t, subm_spec(3))
        # exhaustive offset enumeration: each voxel sees the other once
        assert rb.total_pairs == 4
        by_off = dict(zip(rb.offsets, rb.pairs))
        assert by_off[(0, 0, 0)].tolist() == [[0, 0], [1, 1]]
        assert by_off[(0, 0, 1)].tolist() == [[0, 1]]
        assert by_off[(0, 0, -1)].tolist() == [[1, 0]]

    def test_dilation_reaches_distance_two(self):
        t = sparse_from_coords([(0, 1, 1, 1), (0, 1, 1, 3)], (6, 6, 6), 1)
        rb2 = build_rulebook_submanifold(t, subm_spec(3, dilation=2))
        assert rb2.total_pairs == 4
        rb1 = build_rulebook_submanifold(t, subm_spec(3, dilation=1))
        assert rb1.total_pairs == 2  # only the two center pairs

    def test_stride_rejected(self):
        t = sparse_from_coords([(0, 1, 1, 1)], (4, 4, 4), 1)
        spec = KernelSpec((3, 3, 3), (1, 1, 1), (2, 2, 2), (1, 1, 1))
        with pytest.raises(InvalidSpec):
            build_rulebook_submanifold(t, spec)

    def test_center_pairs_are_identity(self):
        rng = np.random.default_rng(3)
        t = random_sparse(rng, (6, 6, 6), 0.3, 2)
        rb = build_rulebook_submanifold(t, subm_spec(3))
        center = rb.pairs[rb.offsets.index((0, 0, 0))]
        assert np.array_equal(center[:, 0], center[:, 1])
        assert center.shape[0] == t.n_active

    def test_offset_symmetry(self):
        rng = np.random.default_rng(4)
        t = random_sparse(rng, (7, 7, 7), 0.25, 1, batches=2)
        rb = build_rulebook_submanifold(t, subm_spec(3, dilation=2))
        by_off = dict(zip(rb.offsets, rb.pairs))
        for off, pairs in by_off.items():
            neg = tuple(-o for o in off)
            mirrored = {(int(j), int(i)) for i, j in pairs}
            assert mirrored == {(int(i), int(j)) for i, j in by_off[neg]}

    def test_pairs_sorted(self):
        rng = np.random.default_rng(5)
        t = random_sparse(rng, (8, 8, 8), 0.4, 1)
        rb = build_rulebook_submanifold(t, subm_spec(3))
        for pairs in rb.pairs:
            keys = pairs[:, 1] * (t.n_active + 1) + pairs[:, 0]
            assert np.all(np.diff(keys) > 0)


def permuted_sparse(dims, seed):
    """A two-batch scene whose rows are not in key order, so each block
    after the center is a sorted copy of its mirror, not a view."""
    rng = np.random.default_rng(seed)
    t = random_sparse(rng, (11, 9, 13)[:dims], 0.3, 1, batches=2)
    t = SparseTensor(rng.permutation(t.coords), t.features, t.spatial_shape)
    keys = flat_keys(t.coords, t.spatial_shape)
    assert (np.diff(keys) < 0).any()
    return t


@pytest.mark.parametrize("dims", [2, 3])
@pytest.mark.parametrize("kernel", [(1, 3, 5), (5, 1, 3)])
@pytest.mark.parametrize("dilation", [(1, 1, 1), (2, 1, 3)])
class TestSubmanifoldRulebookPermutedRows:
    def test_pairs_sorted(self, dims, kernel, dilation):
        t = permuted_sparse(dims, 5)
        spec = KernelSpec.same(kernel[:dims], dilation[:dims])
        rb = build_rulebook_submanifold(t, spec)
        _, want, _ = per_offset_rulebook_submanifold(t, spec)
        for pairs, ref in zip(rb.pairs, want, strict=True):
            keys = pairs[:, 1].astype(np.int64) * (t.n_active + 1) + pairs[:, 0]
            assert np.all(np.diff(keys) > 0)
            assert pairs.dtype == np.int32 and np.array_equal(pairs, ref)

    def test_offset_symmetry(self, dims, kernel, dilation):
        t = permuted_sparse(dims, 4)
        spec = KernelSpec.same(kernel[:dims], dilation[:dims])
        rb = build_rulebook_submanifold(t, spec)
        _, want, _ = per_offset_rulebook_submanifold(t, spec)
        by_off = dict(zip(rb.offsets, rb.pairs))
        for off, pairs, ref in zip(rb.offsets, rb.pairs, want, strict=True):
            assert np.array_equal(pairs, ref)
            neg = tuple(-o for o in off)
            mirrored = {(int(j), int(i)) for i, j in pairs}
            assert mirrored == {(int(i), int(j)) for i, j in by_off[neg]}


class TestRegularRulebook:
    def test_single_voxel_unit_stride(self):
        t = sparse_from_coords([(0, 4, 4, 4)], (9, 9, 9), 1)
        spec = KernelSpec((3, 3, 3), (1, 1, 1), (1, 1, 1), (1, 1, 1))
        out_shape = regular_out_shape(t.spatial_shape, spec)
        assert out_shape == (9, 9, 9)
        rb = build_rulebook_regular(t, spec)
        assert rb.n_out == 27
        expected = {
            (0, 4 + a, 4 + b, 4 + c)
            for a in (-1, 0, 1)
            for b in (-1, 0, 1)
            for c in (-1, 0, 1)
        }
        assert {tuple(c) for c in rb.out_coords} == expected

    def test_border_clipping(self):
        t = sparse_from_coords([(0, 0, 0, 0)], (4, 4, 4), 1)
        spec = KernelSpec((3, 3, 3), (1, 1, 1), (1, 1, 1), (1, 1, 1))
        rb = build_rulebook_regular(t, spec)
        assert rb.n_out == 8  # the {0,1}^3 corner

    def test_stride_two_example(self):
        # solve 2j + o = 5 per dim with the padding shift, o in {-1,0,1}
        t = sparse_from_coords([(0, 5, 5, 5)], (8, 8, 8), 1)
        spec = KernelSpec((3, 3, 3), (1, 1, 1), (2, 2, 2), (1, 1, 1))
        rb = build_rulebook_regular(t, spec)
        expected = {(0, a, b, c) for a in (2, 3) for b in (2, 3) for c in (2, 3)}
        assert {tuple(c) for c in rb.out_coords} == expected

    def test_empty_input(self):
        t = sparse_from_coords(np.empty((0, 4)), (4, 4, 4), 3)
        spec = KernelSpec.downsample(3)
        rb = build_rulebook_regular(t, spec)
        assert rb.n_out == 0
        assert rb.total_pairs == 0

    def test_out_coords_sorted(self):
        rng = np.random.default_rng(6)
        t = random_sparse(rng, (8, 8, 8), 0.3, 1, batches=2)
        spec = KernelSpec.downsample(3)
        rb = build_rulebook_regular(t, spec)
        as_tuples = [tuple(c) for c in rb.out_coords]
        assert as_tuples == sorted(as_tuples)


class TestGatherScatter:
    def test_identity_kernel(self):
        rng = np.random.default_rng(7)
        t = random_sparse(rng, (6, 6, 6), 0.3, 4)
        rb = build_rulebook_submanifold(t, subm_spec(3))
        w = np.zeros((27, 4, 4), dtype=np.float32)
        w[13] = np.eye(4, dtype=np.float32)
        out = gather_scatter_matmul(t.features.data, rb, w, np.zeros(4, dtype=np.float32))
        np.testing.assert_array_equal(out, t.features.data)

    def test_isolated_voxel_bias_plus_center(self):
        rng = np.random.default_rng(8)
        t = sparse_from_coords([(0, 3, 3, 3)], (8, 8, 8), 3, rng=rng)
        rb = build_rulebook_submanifold(t, subm_spec(3))
        w = rng.standard_normal((27, 3, 2)).astype(np.float32)
        b = rng.standard_normal(2).astype(np.float32)
        out = gather_scatter_matmul(t.features.data, rb, w, b)
        expected = t.features.data @ w[13] + b
        assert rel_err(out, expected) < 1e-6

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(9)
        t = random_sparse(rng, (6, 6, 6), 0.25, 3)
        spec = subm_spec(3)
        rb = build_rulebook_submanifold(t, spec)
        w = rng.standard_normal((27, 3, 5)).astype(np.float32)
        b = rng.standard_normal(5).astype(np.float32)
        out = gather_scatter_matmul(t.features.data, rb, w, b)
        expected = dense_subm_oracle(t, spec.kernel, spec.dilation, w, b)
        assert rel_err(out, expected) < 1e-5

    def test_shape_mismatch(self):
        t = sparse_from_coords([(0, 1, 1, 1)], (4, 4, 4), 3)
        rb = build_rulebook_submanifold(t, subm_spec(3))
        w = np.zeros((27, 4, 2), dtype=np.float32)
        with pytest.raises(ShapeMismatch):
            gather_scatter_matmul(t.features.data, rb, w, None)
        w = np.zeros((26, 3, 2), dtype=np.float32)
        with pytest.raises(ShapeMismatch):
            gather_scatter_matmul(t.features.data, rb, w, None)

    def test_repeat_bitwise_identical(self):
        rng = np.random.default_rng(10)
        t = random_sparse(rng, (8, 8, 8), 0.35, 6, batches=2)
        spec = subm_spec(3)
        w = rng.standard_normal((27, 6, 6)).astype(np.float32)
        b = rng.standard_normal(6).astype(np.float32)
        outs = []
        for _ in range(2):
            rb = build_rulebook_submanifold(t, spec)
            outs.append(gather_scatter_matmul(t.features.data, rb, w, b))
        assert outs[0].tobytes() == outs[1].tobytes()


class TestDenseEquivalence:
    """Randomized dual-route checks against the dense oracles."""

    @pytest.mark.parametrize("seed", range(8))
    def test_submanifold_random(self, seed):
        rng = np.random.default_rng(100 + seed)
        shape = tuple(rng.integers(4, 9, size=3))
        t = random_sparse(rng, shape, rng.uniform(0.1, 0.5), int(rng.integers(1, 5)))
        if t.n_active == 0:
            return
        k = int(rng.choice([1, 3]))
        d = int(rng.choice([1, 2, 3]))
        spec = subm_spec(k, d)
        rb = build_rulebook_submanifold(t, spec)
        c_out = int(rng.integers(1, 5))
        w = rng.standard_normal((spec.volume, t.channels, c_out)).astype(np.float32)
        b = rng.standard_normal(c_out).astype(np.float32)
        out = gather_scatter_matmul(t.features.data, rb, w, b)
        expected = dense_subm_oracle(t, spec.kernel, spec.dilation, w, b)
        assert rel_err(out, expected) < 1e-5

    @pytest.mark.parametrize("seed", range(8))
    def test_regular_random(self, seed):
        rng = np.random.default_rng(200 + seed)
        shape = tuple(rng.integers(4, 9, size=3))
        t = random_sparse(rng, shape, rng.uniform(0.1, 0.5), int(rng.integers(1, 4)))
        if t.n_active == 0:
            return
        k = int(rng.choice([1, 3]))
        s = int(rng.choice([1, 2]))
        d = int(rng.choice([1, 2]))
        spec = KernelSpec((k,) * 3, (d,) * 3, (s,) * 3, (d * (k - 1) // 2,) * 3)
        out_shape = regular_out_shape(shape, spec)
        if min(out_shape) == 0:
            return
        rb = build_rulebook_regular(t, spec)
        c_out = int(rng.integers(1, 4))
        w = rng.standard_normal((spec.volume, t.channels, c_out)).astype(np.float32)
        b = rng.standard_normal(c_out).astype(np.float32)
        out = gather_scatter_matmul(t.features.data, rb, w, b)
        grid, reachable = dense_regular_oracle(t, spec, out_shape, w, b)
        assert {tuple(c) for c in rb.out_coords} == {
            tuple(c) for c in np.argwhere(reachable)
        }
        expected = np.stack([grid[tuple(c)] for c in rb.out_coords])
        assert rel_err(out, expected) < 1e-5

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.sampled_from([1, 3]),
        d=st.integers(1, 3),
    )
    def test_sparsity_preserved_property(self, seed, k, d):
        rng = np.random.default_rng(seed)
        t = random_sparse(rng, (5, 5, 5), 0.3, 2)
        rb = build_rulebook_submanifold(t, subm_spec(k, d))
        assert rb.out_coords is t.coords
        assert np.array_equal(rb.out_coords, t.coords)
