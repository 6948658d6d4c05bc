import tracemalloc
import weakref

import numpy as np
import pytest

from focalvox import ops
from focalvox.errors import EmptyBatch, InvalidSpec, ShapeMismatch
from focalvox.tape import GradTape, Tensor
from helpers import rel_err


def T(a, dtype=np.float64):
    return Tensor(np.asarray(a, dtype=dtype))


class TestLinear:
    def test_identity(self):
        x = np.arange(6.0).reshape(2, 3)
        out = ops.linear(T(x), T(np.eye(3)), T(np.zeros(3)))
        np.testing.assert_array_equal(out.data, x)

    def test_zero_input_broadcasts_bias(self):
        b = np.array([1.0, -2.0])
        out = ops.linear(T(np.zeros((3, 4))), T(np.zeros((4, 2))), T(b))
        np.testing.assert_array_equal(out.data, np.tile(b, (3, 1)))

    def test_random_against_triple_loop(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((5, 3))
        w = rng.standard_normal((3, 2))
        b = rng.standard_normal(2)
        expected = np.zeros((5, 2))
        for i in range(5):
            for j in range(2):
                expected[i, j] = b[j]
                for k in range(3):
                    expected[i, j] += x[i, k] * w[k, j]
        out = ops.linear(T(x), T(w), T(b))
        assert rel_err(out.data, expected) < 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            ops.linear(T(np.zeros((2, 3))), T(np.zeros((4, 2))), None)


class TestLayerNorm:
    def test_constant_row_collapses_to_bias(self):
        x = np.full((2, 5), 7.0)
        beta = np.arange(5.0)
        out = ops.layer_norm(T(x), T(np.ones(5)), T(beta))
        np.testing.assert_allclose(out.data, np.tile(beta, (2, 1)))

    def test_symmetric_two_channel(self):
        eps = 1e-5
        out = ops.layer_norm(T([[-1.0, 1.0]]), T(np.ones(2)), T(np.zeros(2)))
        expected = np.array([[-1.0, 1.0]]) / np.sqrt(1 + eps)
        np.testing.assert_allclose(out.data, expected, rtol=1e-12)

    def test_random_statistics(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((7, 5))
        out = ops.layer_norm(T(x), T(np.ones(5)), T(np.zeros(5)))
        # recompute statistics independently
        assert np.abs(out.data.mean(axis=1)).max() < 1e-6
        assert np.abs(out.data.var(axis=1) - 1.0).max() < 1e-4

    def test_row_shift_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 6))
        gain, bias = T(rng.standard_normal(6)), T(rng.standard_normal(6))
        a = ops.layer_norm(T(x), gain, bias)
        b = ops.layer_norm(T(x + 3.7), gain, bias)
        assert np.abs(a.data - b.data).max() < 1e-5

    def test_variance_beyond_float32_raises(self):
        """Each entry is a finite float32; their squared deviation is not."""
        with pytest.raises(InvalidSpec, match=r"^layer_norm: variance overflows float32$"):
            ops.layer_norm(T([[1e30, -1e30]], np.float32), T(np.ones(2)), T(np.zeros(2)))


class TestBatchNorm:
    def test_single_row_train_gives_bias(self):
        x = T([[2.0, -3.0, 0.5]])
        bias = np.array([1.0, 2.0, 3.0])
        out, _, _ = ops.batch_norm_active(
            x, T(np.ones(3)), T(bias), np.zeros(3), np.ones(3), mode="train"
        )
        np.testing.assert_allclose(out.data, bias.reshape(1, 3))

    def test_eval_identity_statistics(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((6, 3))
        out, _, _ = ops.batch_norm_active(
            T(x), T(np.ones(3)), T(np.zeros(3)), np.zeros(3), np.ones(3), mode="eval"
        )
        assert np.abs(out.data - x).max() < 1e-4

    def test_train_statistics(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((64, 4))
        out, rm, rv = ops.batch_norm_active(
            T(x), T(np.ones(4)), T(np.zeros(4)), np.zeros(4), np.ones(4), mode="train"
        )
        assert np.abs(out.data.mean(axis=0)).max() < 1e-4
        assert np.abs(out.data.var(axis=0) - 1.0).max() < 1e-4
        # running stats moved toward the batch stats with momentum 0.9
        np.testing.assert_allclose(rm, 0.1 * x.mean(axis=0))
        np.testing.assert_allclose(rv, 0.9 + 0.1 * x.var(axis=0))

    def test_empty_batch_rejected(self):
        with pytest.raises(EmptyBatch):
            ops.batch_norm_active(
                T(np.zeros((0, 3))), T(np.ones(3)), T(np.zeros(3)),
                np.zeros(3), np.ones(3), mode="train",
            )


class TestGelu:
    def test_zero(self):
        assert ops.gelu(T([0.0])).data[0] == 0.0

    def test_reference_value(self):
        # high-precision erf evaluation: gelu(1) = 1 * Phi(1)
        out = ops.gelu(T([1.0])).data[0]
        assert abs(out - 0.8413447460685429) < 1e-5

    def test_odd_part_identity(self):
        # x * Phi(x) - (-x) * Phi(-x) = x since Phi(x) + Phi(-x) = 1
        for x in (0.3, 1.5, 4.0):
            lhs = ops.gelu(T([x])).data[0] - ops.gelu(T([-x])).data[0]
            assert abs(lhs - x) < 1e-6

    def test_monotone_on_nonnegative_grid(self):
        # exact gelu dips slightly below zero around x ~ -0.75, so global
        # monotonicity cannot hold; it does hold for x >= 0
        grid = np.linspace(0, 6, 401)
        vals = ops.gelu(T(grid.reshape(1, -1))).data.ravel()
        assert np.all(np.diff(vals) >= -1e-12)

    def test_negative_lobe_exists(self):
        # the documented shape: a single shallow negative lobe, min near -0.75
        vals = ops.gelu(T(np.linspace(-3, 0, 301).reshape(1, -1))).data.ravel()
        assert vals.min() < -0.15
        assert vals.min() > -0.18

    def test_float32_stays_float32(self):
        out = ops.gelu(T(np.ones((2, 2)), dtype=np.float32))
        assert out.data.dtype == np.float32


def scipy_erf(x):
    from scipy.special import erf  # the independent oracle (a test extra)

    return erf(x)


def f32_bits(lo, hi, step=1):
    """Float32 values whose bit patterns run from ``lo`` to ``hi``."""
    return np.arange(lo, hi, step, dtype=np.int64).astype(np.uint32).view(np.float32)


def assert_same_bits(got, want):
    """Equal bit for bit; any NaN matches any NaN."""
    assert got.dtype == want.dtype and got.shape == want.shape
    uint = np.uint32 if got.dtype == np.float32 else np.uint64
    same = (got.view(uint) == want.view(uint)) | (np.isnan(got) & np.isnan(want))
    assert same.all(), f"{np.count_nonzero(~same)} differ, first at {got[~same][:3]}"


class TestErf:
    """The numpy port of the Cephes erf against scipy's, which runs the same
    Cephes code: bit for bit in float32, within 1 ulp of float64 past 1."""

    ONE = int(np.float32(1.0).view(np.uint32))
    SATURATE = int(np.float32(ops._SATURATE[np.dtype(np.float32)]).view(np.uint32))

    @pytest.fixture(autouse=True)
    def _raise_on_fp_errors(self):
        with np.errstate(all="raise"):
            yield

    def test_float32_strided_sweep(self):
        # every 613th bit pattern in [0, 4.5], both signs: ~1.8M values
        x = f32_bits(0, int(np.float32(4.5).view(np.uint32)) + 1, 613)
        x = np.concatenate([x, -x])
        assert_same_bits(ops._erf(x), scipy_erf(x))

    @pytest.mark.parametrize("center", [ONE, SATURATE], ids=["one", "saturate"])
    def test_float32_every_value_near(self, center):
        x = f32_bits(center - 4096, center + 4097)
        x = np.concatenate([x, -x])
        assert_same_bits(ops._erf(x), scipy_erf(x))

    def test_saturation_is_first_float32_at_one(self):
        sat = np.float32(ops._SATURATE[np.dtype(np.float32)])
        below = np.nextafter(sat, np.float32(0))
        one = np.float32(1)
        assert scipy_erf(np.array([below, sat])).tolist() == [np.nextafter(one, 0), one]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_special_values(self, dtype):
        info = np.finfo(dtype)
        # zero, infinity, NaN, the least and greatest subnormal, the least
        # normal and the greatest finite value
        edges = [info.smallest_subnormal, info.smallest_normal - info.smallest_subnormal,
                 info.smallest_normal, info.max]
        x = np.array([0.0, np.inf, np.nan, *edges], dtype)
        x = np.concatenate([x, -x])
        got = ops._erf(x)
        assert_same_bits(got, scipy_erf(x))
        assert np.signbit(got[[0, 7]]).tolist() == [False, True]  # +0, -0
        assert got[[1, 8]].tolist() == [1.0, -1.0]
        assert np.isnan(got[[2, 9]]).all()

    def test_every_float32_subnormal_stride(self):
        x = f32_bits(1, 1 << 23, 97)
        x = np.concatenate([x, -x])
        assert_same_bits(ops._erf(x), scipy_erf(x))

    @pytest.mark.parametrize("make", [
        lambda x: x[: 3 * 257].reshape(3, 257),
        lambda x: x[: 64 * 40].reshape(64, 40)[:, ::3],
        lambda x: x[: 64 * 40].reshape(64, 40).T,
        lambda x: x[:0].reshape(0, 5),
    ], ids=["2d", "strided", "transposed", "empty"])
    def test_layouts(self, make):
        x = make(np.random.default_rng(0).uniform(-5, 5, 4096).astype(np.float32))
        got = ops._erf(x)
        assert_same_bits(got, scipy_erf(x))

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_block_edges(self, offset):
        n = ops._ERF_BLOCK + offset
        # a value past 1 at each end of the first block and of the next
        x = np.random.default_rng(1).uniform(-5, 5, n).astype(np.float32)
        x[[0, -1]] = 2.5
        assert_same_bits(ops._erf(x), scipy_erf(x))

    def test_float64_exact_to_one_then_one_ulp(self):
        rng = np.random.default_rng(2)
        x = np.concatenate([rng.uniform(-1, 1, 100_000), rng.uniform(-7, 7, 100_000),
                            np.array([1.0, -1.0, 6.0, -6.0, np.nextafter(6.0, 0)])])
        got, want = ops._erf(x), scipy_erf(x)
        inner = np.abs(x) <= 1
        assert_same_bits(got[inner], want[inner])
        # numpy's SIMD exp, not libm's, is the only source of the last bit
        ulps = np.abs(got.view(np.int64) - want.view(np.int64))
        assert ulps.max() <= 1


class TestErfOut:
    """``_erf(x, out=x)`` overwrites its input with the bits ``_erf(x)`` returns."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [
        (ops._ERF_BLOCK - 1,), (ops._ERF_BLOCK,), (ops._ERF_BLOCK + 1,), (129, 257),
    ], ids=["block-1", "block", "block+1", "2d"])
    def test_out_may_alias_input(self, dtype, shape):
        x = np.random.default_rng(3).uniform(-5, 5, shape).astype(dtype)
        x.reshape(-1)[[0, -1]] = 2.5  # past 1 at both ends of the input
        want = ops._erf(x)
        got = ops._erf(x, out=x)
        assert np.shares_memory(got, x)
        assert_same_bits(x, want)

    def test_out_must_be_c_contiguous(self):
        # a reshaped copy of a column-ordered out would take the result
        x = np.asfortranarray(np.ones((8, 4), np.float32))
        with pytest.raises(ValueError):
            ops._erf(x, out=x)
        assert (x == 1).all()


def direct_gelu(xd):
    """Gelu and its slope written out with one temporary per step, the
    order ``ops.gelu`` keeps: ``Phi = 0.5 (1 + erf(x / sqrt 2))``, output
    ``x Phi``, slope ``Phi + x (exp(-0.5 x x) / sqrt(2 pi))``."""
    phi = 0.5 * (1.0 + ops._erf(xd * xd.dtype.type(ops._INV_SQRT2)))
    pdf = np.exp(-0.5 * xd * xd) * xd.dtype.type(ops._INV_SQRT2PI)
    return xd * phi, phi + xd * pdf


class TestLeanGelu:
    """Gelu's bytes are those of the direct formula, while a taped node keeps
    one array and an untaped call no scaled copy of its input."""

    SPECIAL = [0.0, -0.0, 1e-30, -1e-30, 1.0, -1.0, 3.92, -3.92, 10.0, -10.0]

    @staticmethod
    def seeded():
        return np.random.default_rng(11).standard_normal((4096, 64)).astype(np.float32)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_output_and_vjp_bytes_match_direct_formula(self, dtype):
        rng = np.random.default_rng(12)
        xd = np.concatenate([3 * rng.standard_normal(5000), self.SPECIAL]).astype(dtype)
        cot = rng.standard_normal(xd.shape).astype(dtype)
        want_y, want_slope = direct_gelu(xd)
        tape = GradTape()
        x = Tensor(xd.copy(), tape)
        y = ops.gelu(x)
        assert_same_bits(y.data, want_y)
        assert_same_bits(tape.gradients(y, cot)[x.uid], cot * want_slope)
        assert_same_bits(ops.gelu(Tensor(xd)).data, want_y)

    @pytest.mark.parametrize("layout", [
        lambda a: np.ascontiguousarray(a.T).T,  # transposed
        np.asfortranarray,
        lambda a: np.repeat(a, 2, axis=1)[:, ::2],  # strided
    ], ids=["transposed", "fortran", "strided"])
    def test_any_input_layout(self, layout):
        xd = layout(self.seeded())
        assert not xd.flags.c_contiguous
        cot = np.random.default_rng(13).standard_normal(xd.shape).astype(np.float32)
        want_y, want_slope = direct_gelu(xd)
        tape = GradTape()
        x = Tensor(xd, tape)
        y = ops.gelu(x)
        grad = tape.gradients(y, cot)[x.uid]
        want_grad = cot * want_slope
        assert_same_bits(y.data, want_y)
        assert_same_bits(grad, want_grad)
        assert y.data.strides == want_y.strides  # Phi is C-ordered in both
        assert_same_bits(ops.gelu(Tensor(xd)).data, want_y)

    def test_taped_node_keeps_one_input_sized_array(self):
        data, tape = self.seeded(), GradTape()
        nbytes = data.nbytes
        tracemalloc.start()
        try:
            x = Tensor(data.copy(), tape)  # traced, so that freeing it shows
            y = ops.gelu(x)
            del x  # the caller's drop: only the node can still hold arrays
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(tape) == 1
        # the slope alone; keeping the input and Phi would be two arrays
        assert held - y.data.nbytes < 1.5 * nbytes
        # beside erf's scratch: the input, the output and the slope; a whole
        # copy of the (C-contiguous) input would read 4.05
        assert peak - 4 * 8 * ops._ERF_BLOCK < 3.25 * nbytes

    def test_untaped_peak_holds_no_scaled_copy(self):
        x = Tensor(self.seeded())
        nbytes = x.data.nbytes
        tracemalloc.start()
        try:
            y = ops.gelu(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Phi and the output; a scaled copy of x next to erf's output and
        # its float64 scratch reads about 2.6 input sizes
        assert y.data.nbytes == nbytes
        assert peak < 2.25 * nbytes

    def test_untaped_call_holds_only_its_output(self):
        """The output is written into Phi's buffer: at its peak an untaped
        gelu holds that one array and erf's float64 scratch (1.5 input
        sizes here); a separate product next to Phi reads 2.0."""
        x = Tensor(self.seeded())
        nbytes = x.data.nbytes
        scratch = 4 * 8 * min(x.data.size, ops._ERF_BLOCK)
        tracemalloc.start()
        try:
            y = ops.gelu(x)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert y.data.nbytes == nbytes and y.data.base is None
        assert held - nbytes < 0.01 * nbytes
        assert peak - scratch < 1.1 * nbytes


class TestGeluOut:
    """An untaped gelu written into ``out`` block by block has the bytes of
    the allocating gelu, and makes no second input-sized array."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("size", [ops._ERF_BLOCK - 3, ops._ERF_BLOCK, 2 * ops._ERF_BLOCK + 5],
                             ids=["below", "at", "above"])
    def test_bytes_of_the_allocating_gelu(self, size, dtype):
        rng = np.random.default_rng(14)
        xd = (3 * rng.standard_normal(size)).astype(dtype)
        xd[: len(TestLeanGelu.SPECIAL)] = TestLeanGelu.SPECIAL
        xd = xd.reshape(-1, 1) if size % 2 else xd.reshape(-1, 2)
        want = ops.gelu(Tensor(xd)).data
        other = np.empty_like(xd)
        y = ops.gelu(Tensor(xd.copy()), out=other)
        assert y.data is other
        assert_same_bits(other, want)
        x = Tensor(xd.copy())
        y = ops.gelu(x, out=x.data)
        assert y.data is x.data
        assert_same_bits(y.data, want)

    def test_refused_on_a_tape(self):
        x = Tensor(np.ones((2, 3)), GradTape())
        with pytest.raises(ValueError, match="untaped"):
            ops.gelu(x, out=x.data)

    def test_in_place_peak_holds_one_block(self):
        x = Tensor(TestLeanGelu.seeded())
        nbytes = x.data.nbytes
        scratch = 4 * 8 * ops._ERF_BLOCK  # erf's float64 rows
        tracemalloc.start()
        try:
            ops.gelu(x, out=x.data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # beside the scratch: Phi of one block and erf's index arrays for it
        # (111 kB here); the allocating gelu holds a whole input-sized Phi
        assert peak - scratch < 2 * 4 * ops._ERF_BLOCK < 0.25 * nbytes


class TestMlp:
    def _params(self, rng, c, ratio):
        h = int(ratio * c)
        return (
            T(rng.standard_normal((c, h))),
            T(rng.standard_normal(h)),
            T(rng.standard_normal((h, c))),
            T(rng.standard_normal(c)),
        )

    def test_zeroed_head(self):
        rng = np.random.default_rng(6)
        w1, b1, _, _ = self._params(rng, 4, 2)
        x = T(rng.standard_normal((3, 4)))
        out = ops.mlp_block(x, w1, b1, T(np.zeros((8, 4))), T(np.zeros(4)))
        np.testing.assert_array_equal(out.data, np.zeros((3, 4)))

    def test_zero_input_bias_path(self):
        rng = np.random.default_rng(7)
        w1, b1, w2, b2 = self._params(rng, 4, 2)
        out = ops.mlp_block(T(np.zeros((2, 4))), w1, b1, w2, b2)
        hidden = ops.gelu(T(b1.data.reshape(1, -1))).data
        expected = hidden @ w2.data + b2.data
        np.testing.assert_allclose(out.data, np.tile(expected, (2, 1)))

    def test_matches_step_composition(self):
        rng = np.random.default_rng(8)
        w1, b1, w2, b2 = self._params(rng, 8, 2)
        x = T(rng.standard_normal((4, 8)))
        out = ops.mlp_block(x, w1, b1, w2, b2)
        step = ops.linear(ops.gelu(ops.linear(x, w1, b1)), w2, b2)
        np.testing.assert_array_equal(out.data, step.data)

    @staticmethod
    def _replay(fn, operands, cot, params=True):
        """Node names, every operand's gradient bytes and the output bytes of
        ``fn`` replayed with ``cot``; an input-only tape has every operand
        attached to it."""
        tape = GradTape(params=params)
        x, *rest = operands
        taped = [Tensor(x.data, tape)] + [t if params else Tensor(t.data, tape) for t in rest]
        out = fn(*taped)
        grads = tape.gradients(out, cot)
        return tape.node_names(), [grads[t.uid].tobytes() for t in taped], out.data.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_node_gradients_equal_the_three_ops(self, dtype):
        """A tape that forms weight gradients records the block as one node
        that recomputes its hidden layer; every gradient keeps the bytes of
        linear, gelu and linear recorded op by op."""
        rng = np.random.default_rng(8)
        operands = [T(t.data, dtype) for t in self._params(rng, 8, 2)]
        x = T(rng.standard_normal((4, 8)), dtype)
        cot = rng.standard_normal((4, 8)).astype(dtype)
        names, grads, out = self._replay(ops.mlp_block, [x, *operands], cot)
        step_names, step_grads, step_out = self._replay(
            lambda x, w1, b1, w2, b2: ops.linear(ops.gelu(ops.linear(x, w1, b1)), w2, b2),
            [x, *operands], cot)
        assert names == ["mlp_block"]
        assert step_names == ["linear", "gelu", "linear"]
        assert out == step_out
        assert grads == step_grads

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_untaped_bytes_equal_the_three_ops_on_a_tape(self, dtype):
        """Untaped, gelu overwrites the first linear's output block by block;
        the hidden layer (300 x 64) spans two gelu blocks."""
        rng = np.random.default_rng(9)
        operands = [T(t.data, dtype) for t in self._params(rng, 32, 2)]
        x = T(rng.standard_normal((300, 32)), dtype)
        _, _, step_out = self._replay(
            lambda x, w1, b1, w2, b2: ops.linear(ops.gelu(ops.linear(x, w1, b1)), w2, b2),
            [x, *operands], np.ones((300, 32), dtype))
        assert 300 * 64 > ops._ERF_BLOCK
        assert ops.mlp_block(x, *operands).data.tobytes() == step_out

    @pytest.mark.parametrize("params", [True, False], ids=["replay", "input-only"])
    def test_taped_block_frees_the_pre_activation_before_the_second_linear(
            self, monkeypatch, params):
        """On a tape gelu's node keeps only its slope, so the first linear's
        output must die before the second linear runs, as in the nested
        calls; holding it there raised the `tiny-train` replay peak."""
        gelu, linear, refs, freed = ops.gelu, ops.linear, [], []

        def spy_gelu(x, **kw):
            if x.tape is not None:
                refs.append(weakref.ref(x.data))
            return gelu(x, **kw)

        def spy_linear(x, w, b):
            if len(refs) > len(freed):  # the linear after a taped gelu
                freed.append(refs[-1]() is None)
            return linear(x, w, b)

        monkeypatch.setattr(ops, "gelu", spy_gelu)
        monkeypatch.setattr(ops, "linear", spy_linear)
        rng = np.random.default_rng(10)
        operands = [T(t.data) for t in self._params(rng, 4, 2)]
        tape = GradTape(params=params)
        x = Tensor(rng.standard_normal((3, 4)), tape)
        out = ops.mlp_block(x, *operands)
        tape.gradients(out, np.ones_like(out.data))
        assert freed == [True]  # in the replay's recompute, or in the forward

    def test_input_only_tape_records_the_three_ops(self):
        rng = np.random.default_rng(8)
        operands = [T(t.data) for t in self._params(rng, 8, 2)]
        x = T(rng.standard_normal((4, 8)))
        names, *_ = self._replay(ops.mlp_block, [x, *operands], np.ones((4, 8)), params=False)
        assert names == ["linear", "gelu", "linear"]


class TestModulation:
    @staticmethod
    def _replay(fn, params, dtype, seed=30, n=37, c=6, n_levels=3):
        """Node names, the bytes of the output and of each operand's gradient
        for ``fn(levels, gates, queries, weight, bias)``: the levels, gates
        and queries taped, the weight and bias parameters."""
        rng = np.random.default_rng(seed)
        tape = GradTape(params=params)
        levels = [Tensor(rng.standard_normal((n, c)).astype(dtype), tape) for _ in range(n_levels)]
        gates = Tensor(rng.standard_normal((n, n_levels)).astype(dtype), tape)
        queries = Tensor(rng.standard_normal((n, c)).astype(dtype), tape)
        weight, bias = T(rng.standard_normal((c, c)), dtype), T(rng.standard_normal(c), dtype)
        out = fn(levels, gates, queries, weight, bias)
        grads = tape.gradients(out, rng.standard_normal((n, c)).astype(dtype))
        operands = [*levels, gates, queries, weight, bias]
        return (tape.node_names(), out.data.tobytes(),
                [None if t.uid not in grads else grads[t.uid].tobytes() for t in operands])

    @staticmethod
    def step(levels, gates, queries, weight, bias):
        return ops.multiply(queries, ops.linear(ops.weighted_level_sum(levels, gates), weight, bias))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_node_gradients_equal_the_three_ops(self, dtype):
        """A tape that forms weight gradients records one node that reruns
        the level sum, the context linear and the multiply; the output and
        every gradient keep the bytes of the three ops recorded one by one."""
        names, out, grads = self._replay(ops.modulation, True, dtype)
        step_names, step_out, step_grads = self._replay(self.step, True, dtype)
        assert names == ["modulation"]
        assert step_names == ["weighted_level_sum", "linear", "multiply"]
        assert out == step_out
        assert grads == step_grads and None not in grads

    def test_input_only_tape_records_the_three_ops(self):
        names, out, grads = self._replay(ops.modulation, False, np.float32)
        step_names, step_out, step_grads = self._replay(self.step, False, np.float32)
        assert names == step_names == ["weighted_level_sum", "linear", "multiply"]
        assert (out, grads) == (step_out, step_grads)
        assert grads[-2:] == [None, None]  # no parameter gradients

    def test_untaped_takes_a_tuple_of_levels(self):
        rng = np.random.default_rng(31)
        levels = tuple(T(rng.standard_normal((5, 4))) for _ in range(2))
        rest = [T(rng.standard_normal(s)) for s in ((5, 2), (5, 4), (4, 4), (4,))]
        out = ops.modulation(levels, *rest)
        assert out.tape is None
        assert out.data.tobytes() == self.step(levels, *rest).data.tobytes()


class TestStructuralOps:
    def test_weighted_level_sum_matches_loop(self):
        rng = np.random.default_rng(9)
        levels = [T(rng.standard_normal((5, 3))) for _ in range(3)]
        gates = T(rng.standard_normal((5, 3)))
        out = ops.weighted_level_sum(levels, gates)
        expected = np.zeros((5, 3))
        for r in range(5):
            for l in range(3):
                expected[r] += levels[l].data[r] * gates.data[r, l]
        assert rel_err(out.data, expected) < 1e-6

    def test_scatter_rows_sum(self):
        x = T(np.arange(8.0).reshape(4, 2))
        groups = np.array([1, 0, 1, 0])
        out = ops.scatter_rows_sum(x, groups, 2)
        np.testing.assert_array_equal(out.data, [[8.0, 10.0], [4.0, 6.0]])

    def test_slice_cols_roundtrip(self):
        rng = np.random.default_rng(10)
        x = T(rng.standard_normal((3, 7)))
        left = ops.slice_cols(x, 0, 4)
        right = ops.slice_cols(x, 4, 7)
        np.testing.assert_array_equal(
            np.concatenate((left.data, right.data), axis=1), x.data
        )

    def test_row_l2(self):
        x = T([[3.0, 4.0], [0.0, 0.0]])
        assert ops.row_l2(x, 0).data == 5.0
        assert ops.row_l2(x, 1).data == 0.0

    def test_row_l2_beyond_float32_raises(self):
        with pytest.raises(InvalidSpec, match=r"^row_l2: the norm of row 0 is not finite"):
            ops.row_l2(T([[1e30, 0.0]], np.float32), 0)


def list_level_sum(levels, gates):
    """The gated sum over a list of levels: ``acc = zeros; acc += f * g``."""
    acc = np.zeros_like(levels[0])
    for l, f in enumerate(levels):
        acc += f * gates[:, l : l + 1]
    return acc


class TestFoldedLevelSum:
    """``weighted_level_sum`` folds levels as they arrive: the bytes of the
    list formula, and an untaped fold over a generator keeps no level."""

    @staticmethod
    def seeded(dtype):
        rng = np.random.default_rng(21)
        levels, gates, cot = (rng.standard_normal(shape).astype(dtype)
                              for shape in ((4, 37, 5), (37, 4), (37, 5)))
        return list(levels), gates, cot

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("tape_kind", ["untaped", "default", "input-only"])
    def test_bits_of_list_formula(self, dtype, tape_kind):
        levels, gates, cot = self.seeded(dtype)
        tape = {"untaped": None, "default": GradTape(),
                "input-only": GradTape(params=False)}[tape_kind]
        inputs = [Tensor(f, tape) for f in levels]
        g = Tensor(gates)  # an untaped leaf: a parameter-like gate
        out = ops.weighted_level_sum((t for t in inputs), g)
        assert_same_bits(out.data, list_level_sum(levels, gates))
        assert_same_bits(ops.weighted_level_sum(inputs, g).data, out.data)
        if tape is None:
            return
        grads = tape.gradients(out, cot)
        for l, t in enumerate(inputs):
            assert_same_bits(grads[t.uid], cot * gates[:, l : l + 1])
        want_gate = np.stack([(cot * f).sum(axis=1) for f in levels], axis=1)
        if tape.params:
            assert_same_bits(grads[g.uid], want_gate)
        else:
            assert g.uid not in grads

    def test_untaped_generator_keeps_no_level(self):
        levels, gates, _ = self.seeded(np.float32)
        refs, alive_at_next = [], []

        def produce():
            for f in levels:
                alive_at_next.append(any(r() is not None for r in refs))
                data = f.copy()
                refs.append(weakref.ref(data))
                yield Tensor(data)
                del data

        out = ops.weighted_level_sum(produce(), Tensor(gates))
        assert_same_bits(out.data, list_level_sum(levels, gates))
        assert not any(alive_at_next)  # a level is gone before the next is made
        assert [r() for r in refs] == [None] * len(levels)

    def test_taped_fold_keeps_every_level(self):
        levels, gates, _ = self.seeded(np.float32)
        tape, refs = GradTape(), []

        def produce():
            for f in levels:
                data = f.copy()
                refs.append(weakref.ref(data))
                yield Tensor(data, tape)

        out = ops.weighted_level_sum(produce(), Tensor(gates))
        assert len(tape) == 1 and out.tape is tape
        assert all(r() is not None for r in refs)

    def test_counts_and_shapes_checked_as_levels_arrive(self):
        levels, gates, _ = self.seeded(np.float64)
        made = []

        def produce(shapes):
            for shape in shapes:
                made.append(shape)
                yield Tensor(np.zeros(shape))

        with pytest.raises(ShapeMismatch, match="more than 4 levels"):
            ops.weighted_level_sum(produce([(37, 5)] * 6), Tensor(gates))
        assert len(made) == 5  # stopped at the first level without a gate
        with pytest.raises(ShapeMismatch, match="4 gate columns for 3 levels"):
            ops.weighted_level_sum(produce([(37, 5)] * 3), Tensor(gates))
        with pytest.raises(ShapeMismatch, match="shapes differ"):
            ops.weighted_level_sum(produce([(37, 5), (37, 4)]), Tensor(gates))
        with pytest.raises(ShapeMismatch, match="gate rows"):
            ops.weighted_level_sum(produce([(36, 5)]), Tensor(gates))
        with pytest.raises(ShapeMismatch, match="for 0 levels"):
            ops.weighted_level_sum(iter(()), Tensor(gates))

    def test_taped_level_after_dropped_ones_raises(self):
        levels, gates, _ = self.seeded(np.float64)
        tape = GradTape()
        inputs = [Tensor(levels[0]), Tensor(levels[1], tape)]
        with pytest.raises(ShapeMismatch, match="level 1 carries a tape"):
            ops.weighted_level_sum(iter(inputs), Tensor(gates[:, :2]))
