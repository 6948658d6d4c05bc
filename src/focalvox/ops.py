"""Dense per-voxel primitives with vector-Jacobian products.

Every function takes and returns :class:`~focalvox.tape.Tensor` values and
makes its output through :func:`~focalvox.tape.emit`, which records the op
on the tape its inputs carry (if any) and only then asks the op for its VJP,
with a "gets a gradient" flag per input.  Computation
preserves the dtype of its operands, so the same code runs in float32 for
the runtime path and float64 for gradient checking.

The exact gelu's ``erf`` is a numpy port of the Cephes ``ndtr.c`` erf
(Moshier, 1989), the code SciPy's ``special.erf`` runs.  It evaluates in
float64 and rounds once, so float32 results equal SciPy's bit for bit; in
float64 they are equal for |x| <= 1 and within 1 ulp beyond, where numpy's
SIMD ``exp`` can round the last bit differently from the C library's.
``gelu`` runs it in place on ``x / sqrt 2``, writes its output over Phi
and keeps one slope array.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from .errors import EmptyBatch, InvalidSpec, ShapeMismatch
from .tape import GradTape, Tensor, active_tape, emit

_INV_SQRT2 = np.float64(1.0 / np.sqrt(2.0))
_INV_SQRT2PI = np.float64(1.0 / np.sqrt(2.0 * np.pi))
NORM_EPS = 1e-5  # layer norm and batch norm
BN_MOMENTUM = 0.9  # weight of the old running statistics per train-mode update

# Cephes ndtr.c rationals for erf (Moshier 1989), highest degree first; U
# and Q have an implied leading 1, as Cephes evaluates them with ``p1evl``
_T = (9.60497373987051638749e0, 9.00260197203842689217e1,
      2.23200534594684319226e3, 7.00332514112805075473e3,
      5.55923013010394962768e4)
_U = (3.35617141647503099647e1, 5.21357949780152679795e2,
      4.59432382970980127987e3, 2.26290000613890934246e4,
      4.92673942608635921086e4)
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1,
      7.46321056442269912687e0, 4.86371970985681366614e1,
      1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3,
      5.57535335369399327526e2)
_Q = (1.32281951154744992508e1, 8.67072140885989742329e1,
      3.54937778887819891062e2, 9.75708501743205489753e2,
      1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
# |x| from which erf rounds to exactly 1: the first such float32, and for
# float64 a bound where erfc(6) ~ 2.2e-17 is below half an ulp of 1
_SATURATE = {np.dtype(np.float32): 3.919205904006958, np.dtype(np.float64): 6.0}
_ERF_BLOCK = 1 << 14  # elements per block: 4 float64 scratch rows of it, in cache


def _polevl(x: np.ndarray, coefs, out: np.ndarray, monic: bool = False) -> np.ndarray:
    """Cephes ``polevl`` (``p1evl`` if ``monic``: a leading 1 is implied),
    in Cephes' Horner order, into ``out``."""
    if monic:
        np.add(x, coefs[0], out=out)
    else:
        np.multiply(x, coefs[0], out=out)
        out += coefs[1]
    for c in coefs[1 if monic else 2 :]:
        out *= x
        out += c
    return out


def _erf(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Cephes ``erf``, evaluated in float64 and rounded once to ``x.dtype``.

    ``x`` is first clamped to the dtype's saturation point, where erf
    already rounds to +-1, so that nothing below overflows.  ``|x| <= 1``
    takes ``x T(x^2) / U(x^2)`` (Cephes negates the value at ``|x|``; the
    rounding is symmetric, so the bits agree); beyond, only the elements
    that need it take ``1 - exp(-x^2) P(|x|) / Q(|x|)``, signed by
    ``copysign``.
    Underflow is ignored: it only flags the rounding of a tiny result
    (erf(x) ~ 1.128 x), and SciPy's ufunc does not raise it either.
    ``out`` must be C-contiguous (``ValueError`` if not) and may be ``x``.
    """
    flat = x.ravel()
    dst = np.reshape(np.empty(x.shape, x.dtype) if out is None else out, -1, copy=False)
    saturate = _SATURATE[x.dtype]
    scratch = np.empty((4, min(flat.size, _ERF_BLOCK)))
    with np.errstate(under="ignore"):
        for start in range(0, flat.size, _ERF_BLOCK):
            xb = flat[start : start + _ERF_BLOCK]
            s, z, y, u = scratch[:, : xb.size]
            s[...] = xb
            np.clip(s, -saturate, saturate, out=s)
            np.square(s, out=z)
            big = np.flatnonzero(z > 1.0)  # overwritten below
            _polevl(z, _T, y)
            y *= s
            y /= _polevl(z, _U, u, monic=True)
            if big.size:
                ab, e, p = (r[: big.size] for r in (z, u, s))  # rows free now
                np.abs(np.take(s, big, out=ab), out=ab)
                np.exp(np.negative(np.multiply(ab, ab, out=e), out=e), out=e)
                e *= _polevl(ab, _P, p)
                e /= _polevl(ab, _Q, p, monic=True)
                # T and U are positive, so y[big] already has the sign of x
                y[big] = np.copysign(np.subtract(1.0, e, out=e), np.take(y, big, out=ab), out=e)
            dst[start : start + _ERF_BLOCK] = y
    return dst.reshape(x.shape)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None) -> Tensor:
    """Rowwise affine map ``x @ weight + bias``."""
    if x.data.ndim != 2 or weight.data.ndim != 2:
        raise ShapeMismatch("linear expects 2-D operands")
    if x.data.shape[1] != weight.data.shape[0]:
        raise ShapeMismatch(
            f"linear: {x.data.shape} @ {weight.data.shape} channel mismatch"
        )
    if bias is not None and bias.data.shape != (weight.data.shape[1],):
        raise ShapeMismatch("linear: bias length != output channels")
    data = x.data @ weight.data
    if bias is not None:
        data += bias.data

    def vjp_of(needs):
        wd = weight.data
        xd = x.data if needs[1] else None

        def vjp(cot):
            gw = None if xd is None else xd.T @ cot
            return cot @ wd.T, gw, cot.sum(axis=0) if needs[2] else None

        return vjp

    return emit("linear", data, (x, weight, bias), vjp_of)


def _affine_grads(cot, xhat, need_gain: bool, need_bias: bool):
    """Gain and bias gradients of ``xhat * gain + bias`` (row sums), None
    for each one the tape does not need."""
    return (
        (cot * xhat).sum(axis=0) if need_gain else None,
        cot.sum(axis=0) if need_bias else None,
    )


def _norm_vjp(gd, xhat, inv_std, axis: int, needs):
    """VJP of ``xhat * gain + bias`` where ``xhat`` normalizes the input
    along ``axis`` with statistics of that same input."""

    def vjp(cot):
        g = cot * gd
        m1 = g.mean(axis=axis, keepdims=True)
        m2 = (g * xhat).mean(axis=axis, keepdims=True)
        gx = inv_std * (g - m1 - xhat * m2)
        return gx, *_affine_grads(cot, xhat, *needs[1:])

    return vjp


def _normalize(name: str, x: np.ndarray, axis: int):
    """``x`` normalized along ``axis`` by its own statistics: ``(xhat,
    inv_std, mean, var)``, the statistics with kept dims; InvalidSpec,
    naming the op, if the variance is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean = x.mean(axis=axis, keepdims=True)
        xhat = x - mean  # centered here, normalized in its own buffer below
        var = (xhat * xhat).mean(axis=axis, keepdims=True)
    if not np.isfinite(var).all():
        raise InvalidSpec(f"{name}: variance overflows {x.dtype}")
    inv_std = 1.0 / np.sqrt(var + np.asarray(NORM_EPS, dtype=x.dtype))
    xhat *= inv_std
    return xhat, inv_std, mean, var


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Per-row normalization over the channel dimension, then affine."""
    xhat, inv_std, _, _ = _normalize("layer_norm", x.data, 1)
    return emit(
        "layer_norm", xhat * gain.data + bias.data, (x, gain, bias),
        lambda needs: _norm_vjp(gain.data, xhat, inv_std, 1, needs),
    )


def batch_norm_arrays(x: np.ndarray, running_mean: np.ndarray, running_var: np.ndarray,
                      mode: str = "train"):
    """What a batch norm computes before its affine step:
    ``(xhat, inv_std, new_running_mean, new_running_var)``.

    Train mode normalizes by the statistics of the N active rows and
    updates the running statistics; eval mode normalizes by the running
    statistics and hands them back as given."""
    if mode not in ("train", "eval"):
        raise ValueError(f"unknown batch norm mode {mode!r}")
    if mode == "train":
        if x.shape[0] == 0:
            raise EmptyBatch("batch norm train mode needs at least one row")
        xhat, inv_std, mean, var = _normalize("batch_norm", x, 0)
        return (xhat, inv_std, BN_MOMENTUM * running_mean + (1.0 - BN_MOMENTUM) * mean[0],
                BN_MOMENTUM * running_var + (1.0 - BN_MOMENTUM) * var[0])
    dtype = x.dtype
    inv_std = 1.0 / np.sqrt(running_var.astype(dtype) + np.asarray(NORM_EPS, dtype=dtype))
    return (x - running_mean.astype(dtype)) * inv_std, inv_std, running_mean, running_var


def batch_norm_vjp(gd: np.ndarray, xhat: np.ndarray, inv_std: np.ndarray, mode: str, needs):
    """VJP of ``xhat * gain + bias`` for the arrays of
    :func:`batch_norm_arrays`, with gain data ``gd`` and one "gets a
    gradient" flag per input ``(x, gain, bias)``."""
    if mode == "train":
        return _norm_vjp(gd, xhat, inv_std, 0, needs)
    # eval: the input gradient does not read xhat; only the gain's does
    saved = xhat if needs[1] else None
    return lambda cot: (cot * gd * inv_std, *_affine_grads(cot, saved, *needs[1:]))


def batch_norm_active(
    x: Tensor,
    gain: Tensor,
    bias: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    mode: str = "train",
):
    """Per-channel normalization over all active rows.

    Train mode computes statistics over the N active rows and returns
    updated running statistics alongside the output; eval mode normalizes
    with the running statistics as given.  Returns
    ``(out, new_running_mean, new_running_var)``.
    """
    xhat, inv_std, new_mean, new_var = batch_norm_arrays(x.data, running_mean, running_var, mode)
    out = emit(
        "batch_norm", xhat * gain.data + bias.data, (x, gain, bias),
        lambda needs: batch_norm_vjp(gain.data, xhat, inv_std, mode, needs),
    )
    return out, new_mean, new_var


def gelu(x: Tensor, out: np.ndarray | None = None) -> Tensor:
    """Exact Gaussian-CDF gelu, ``x * Phi(x)`` via the error function, in one
    loop: Phi is formed in the output, as one piece, or given ``out``, which
    may be ``x.data``, one ``_ERF_BLOCK`` piece at a time in a one-piece
    buffer; a taped node keeps the slope ``Phi + x pdf(x)``, formed from Phi
    before the product overwrites it.  ``out`` (untaped ``x`` only,
    ValueError otherwise) is C-contiguous, of ``x``'s shape and dtype.  A
    C-contiguous input is read in place; any other is copied once."""
    xd = x.data
    if out is not None and x.tape is not None:
        raise ValueError("gelu writes into out only for an untaped input")
    step = max(xd.size, 1) if out is None else _ERF_BLOCK
    phi = None if out is None else np.empty(min(xd.size, step), xd.dtype)
    out = np.empty(xd.shape, xd.dtype) if out is None else out
    src, dst = xd.reshape(-1), np.reshape(out, -1, copy=False)
    slope = None if x.tape is None else np.empty(xd.shape, xd.dtype)
    for start in range(0, src.size, step):
        piece = slice(start, start + step)
        xb = src[piece]
        p = dst[piece] if phi is None else phi[: xb.size]
        np.multiply(xb, xb.dtype.type(_INV_SQRT2), out=p)
        _erf(p, out=p)
        p += 1.0
        p *= 0.5
        if slope is not None:  # exp(-0.5 x x) / sqrt(2 pi) * x + Phi
            sb = np.multiply(xb, -0.5, out=slope.reshape(-1)[piece])
            np.exp(np.multiply(sb, xb, out=sb), out=sb)
            sb *= xb.dtype.type(_INV_SQRT2PI)
            sb *= xb
            sb += p
        np.multiply(p, xb, out=dst[piece])  # Phi x has the bits of x Phi
    return emit("gelu", out, (x,), lambda needs: lambda cot: (cot * slope,))


def sigmoid(x: Tensor) -> Tensor:
    pos = x.data >= 0
    z = np.exp(np.where(pos, -x.data, x.data))
    data = np.where(pos, 1.0 / (1.0 + z), z / (1.0 + z)).astype(x.data.dtype)
    return emit("sigmoid", data, (x,), lambda needs: lambda cot: (cot * data * (1.0 - data),))


def relu(x: Tensor) -> Tensor:
    def vjp_of(needs):
        mask = x.data > 0
        return lambda cot: (cot * mask,)

    return emit("relu", np.maximum(x.data, 0), (x,), vjp_of)


def add(x: Tensor, y: Tensor) -> Tensor:
    """Elementwise sum of equal-shape tensors (residual connections)."""
    if x.data.shape != y.data.shape:
        raise ShapeMismatch(f"add: {x.data.shape} vs {y.data.shape}")
    return emit("add", x.data + y.data, (x, y), lambda needs: lambda cot: (cot, cot))


def multiply(x: Tensor, y: Tensor) -> Tensor:
    """Elementwise product of equal-shape tensors."""
    if x.data.shape != y.data.shape:
        raise ShapeMismatch(f"multiply: {x.data.shape} vs {y.data.shape}")
    xd, yd = x.data, y.data
    return emit("multiply", xd * yd, (x, y), lambda needs: lambda cot: (cot * yd, cot * xd))


def slice_cols(x: Tensor, start: int, stop: int) -> Tensor:
    """Column slice ``x[:, start:stop]`` as its own tape node."""
    shape = x.data.shape

    def vjp(cot):
        g = np.zeros(shape, dtype=cot.dtype)
        g[:, start:stop] = cot
        return (g,)

    return emit("slice_cols", x.data[:, start:stop].copy(), (x,), lambda needs: vjp)


def weighted_level_sum(levels: Iterable[Tensor], gates: Tensor) -> Tensor:
    """``sum_l levels[l] * gates[:, l]`` with a scalar gate per (row, level).

    ``levels`` may be any iterable, a generator included; each level is
    added as it arrives (README, "Activation lifetimes").
    """
    gate_data = gates.data
    n_levels = gate_data.shape[1]
    acc, kept, n = None, [], 0
    for f in levels:
        if n == n_levels:
            raise ShapeMismatch(f"{n_levels} gate columns for more than {n_levels} levels")
        if acc is None:
            if f.data.shape[0] != gate_data.shape[0]:
                raise ShapeMismatch("gate rows != feature rows")
            acc = np.zeros_like(f.data)
        elif f.data.shape != acc.shape:
            raise ShapeMismatch("level feature shapes differ")
        acc += f.data * gate_data[:, n : n + 1]
        if active_tape(f, gates) is not None:
            if len(kept) < n:
                raise ShapeMismatch(f"level {n} carries a tape, earlier levels do not")
            kept.append(f)
        n += 1
        del f  # untaped, the producer now holds the last reference
    if acc is None or n != n_levels:
        raise ShapeMismatch(f"{n_levels} gate columns for {n} levels")

    def vjp_of(needs):
        level_data = [f.data for f in kept]

        def vjp(cot):
            grads = [cot * gate_data[:, l : l + 1] for l in range(n)]
            ggate = np.stack(
                [(cot * level_data[l]).sum(axis=1) for l in range(n)], axis=1
            )
            return (*grads, ggate)

        return vjp

    return emit("weighted_level_sum", acc, (*kept, gates), vjp_of)


def scatter_rows_sum(x: Tensor, groups: np.ndarray, n_groups: int) -> Tensor:
    """Sum rows of ``x`` into ``n_groups`` buckets given per-row group ids.

    Accumulation runs in ascending row order, so the result is independent
    of how callers ordered equal contributions.
    """
    if groups.shape != (x.data.shape[0],):
        raise ShapeMismatch("one group id per row required")
    out_data = np.zeros((n_groups, x.data.shape[1]), dtype=x.data.dtype)
    np.add.at(out_data, groups, x.data)
    return emit("scatter_rows_sum", out_data, (x,), lambda needs: lambda cot: (cot[groups],))


def gather_rows(x: Tensor, rows: np.ndarray) -> Tensor:
    """Select rows (with possible repetition); VJP scatter-adds back."""
    shape = x.data.shape

    def vjp(cot):
        g = np.zeros(shape, dtype=cot.dtype)
        np.add.at(g, rows, cot)
        return (g,)

    return emit("gather_rows", x.data[rows], (x,), lambda needs: vjp)


def row_l2(x: Tensor, row: int) -> Tensor:
    """L2 norm of one row as a scalar tensor; InvalidSpec if it is not finite."""
    v, shape, dtype = x.data[row], x.data.shape, x.data.dtype
    with np.errstate(over="ignore"):
        s = np.sqrt(np.sum(v * v))
    if not np.isfinite(s):
        raise InvalidSpec(f"row_l2: the norm of row {row} is not finite in {dtype}")

    def vjp(cot):
        g = np.zeros(shape, dtype=dtype)
        if s > 0:
            g[row] = cot * (v / s)
        return (g,)

    return emit("row_l2", np.asarray(s, dtype=dtype), (x,), lambda needs: vjp)


def mean_all(x: Tensor) -> Tensor:
    """Mean over every element, as a scalar tensor."""
    shape, size, dtype = x.data.shape, x.data.size, x.data.dtype

    def vjp(cot):
        return (np.full(shape, cot / size, dtype=dtype),)

    return emit("mean_all", np.asarray(x.data.mean(), dtype=dtype), (x,), lambda needs: vjp)


def _rerun_node(name: str, fn, operands: tuple[Tensor, ...]) -> Tensor:
    """``fn(*operands)``, recording ``fn``'s ops one by one, untaped or on
    an input-only tape.  On a tape that forms weight gradients
    (``tape.params``) it is one node that saves only its operands: the
    forward runs ``fn`` untaped, and the VJP reruns it on a new inner tape
    and replays that with the cotangent.  So the intermediates ``fn`` makes
    are not held from the forward to the replay, and each gradient has the
    bytes of ``fn``'s ops recorded one by one."""
    tape = active_tape(*operands)
    if tape is None or not tape.params:
        return fn(*operands)

    def vjp(cot):
        inner = GradTape()
        leaves = [Tensor(t.data, inner) for t in operands]
        grads = inner._replay(fn(*leaves).uid, cot)
        return tuple(grads[t.uid] for t in leaves)

    data = fn(*(Tensor(t.data) for t in operands)).data
    return emit(name, data, operands, lambda needs: vjp)


def _mlp(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """linear, gelu, linear; untaped, gelu overwrites the first linear's
    output, which nothing else reads."""
    h = linear(x, w1, b1)
    g = gelu(h, out=h.data if h.tape is None else None)
    del h  # taped, gelu's node keeps only its slope: the input dies here
    return linear(g, w2, b2)


def mlp_block(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """Single-hidden-layer MLP: linear, gelu, linear.

    On a tape that forms weight gradients the block is one node,
    ``mlp_block``, that reruns the three ops in its VJP
    (:func:`_rerun_node`), so the hidden layer (gelu's slope and the second
    linear's input) is not held from the forward to the replay.  Other
    tapes record the three ops: there the block saves only the slope, too
    little to pay for a recompute (README, "Gradient tape")."""
    return _rerun_node("mlp_block", _mlp, (x, w1, b1, w2, b2))


def modulation(levels: tuple[Tensor, ...], gates: Tensor, queries: Tensor,
               weight: Tensor, bias: Tensor) -> Tensor:
    """The mixer's modulation: ``queries * ((sum_l levels[l] * gates[:, l])
    @ weight + bias)``, the queries times the gated level sum projected back
    to query space.

    On a tape that forms weight gradients it is one node, ``modulation``,
    that saves only its operands (the levels, gates and queries, which the
    tape keeps anyway) and reruns the three ops in its VJP
    (:func:`_rerun_node`): the level sum and the context are not held from
    the forward to the replay.  Otherwise the three ops are recorded."""
    n = len(levels)
    return _rerun_node(
        "modulation",
        lambda *ts: multiply(ts[n + 1], linear(weighted_level_sum(ts[:n], ts[n]), *ts[n + 2 :])),
        (*levels, gates, queries, weight, bias))
