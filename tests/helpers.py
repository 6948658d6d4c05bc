"""Shared test fixtures: scene generators and independent dense oracles.

The dense oracles here never touch rulebooks or gather-scatter plans; they
work on dense float64 grids so that agreement with the sparse engine is a
real cross-check, not a tautology.  ``window_neighbor_rows`` reads a
window's rulebook instead: it is the oracle of ``bench.window_occupancy``'s
summed-area count.
"""

import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np

from focalvox.bench import _check_window
from focalvox.sparse import KernelSpec, SparseTensor, centered_offsets, raw_offsets, rulebook

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli_limited(argv, address_space=3 << 30, timeout=120, cwd=None):
    """``python -m focalvox.cli *argv`` in a subprocess, run in ``cwd``,
    whose address space is capped at ``address_space`` bytes: an oversized
    allocation there raises MemoryError instead of growing until the OS
    stops it.  Returns the ``CompletedProcess``, with stdout and stderr as
    text."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "focalvox.cli", *argv], capture_output=True, text=True,
        preexec_fn=limit, env={**os.environ, "PYTHONPATH": path}, timeout=timeout, cwd=cwd,
    )


def random_sparse(rng, spatial_shape, density, channels, batches=1, dtype=np.float32):
    """Uniform-occupancy random scene with standard-normal features."""
    cells = []
    for b in range(batches):
        mask = rng.random(spatial_shape) < density
        idx = np.argwhere(mask)
        if idx.size:
            cells.append(
                np.concatenate(
                    (np.full((idx.shape[0], 1), b, dtype=np.int64), idx.astype(np.int64)),
                    axis=1,
                )
            )
    if cells:
        coords = np.concatenate(cells, axis=0)
    else:
        coords = np.empty((0, 1 + len(spatial_shape)), dtype=np.int64)
    feats = rng.standard_normal((coords.shape[0], channels)).astype(dtype)
    return SparseTensor(coords, feats, spatial_shape)


def sparse_from_coords(coords, spatial_shape, channels, rng=None, dtype=np.float32):
    coords = np.asarray(coords, dtype=np.int64)
    if rng is None:
        feats = np.ones((coords.shape[0], channels), dtype=dtype)
    else:
        feats = rng.standard_normal((coords.shape[0], channels)).astype(dtype)
    return SparseTensor(coords, feats, spatial_shape)


def densify(t):
    """(B, *S, C) float64 grid plus (B, *S) occupancy mask."""
    n_batch = int(t.coords[:, 0].max()) + 1 if t.n_active else 1
    dense = np.zeros((n_batch, *t.spatial_shape, t.channels), dtype=np.float64)
    active = np.zeros((n_batch, *t.spatial_shape), dtype=bool)
    for row in range(t.n_active):
        key = tuple(t.coords[row])
        dense[key] = t.features.data[row]
        active[key] = True
    return dense, active


def _gather_shifted(dense, active, out_shape, stride, shift):
    """out[j] = x[j * stride + shift], zero where the source leaves the grid.

    Returns the gathered block and the per-position validity-and-active
    mask (used to decide which outputs are reachable).
    """
    spatial = dense.shape[1:-1]
    idxs, valids = [], []
    for d, extent in enumerate(out_shape):
        src = np.arange(extent) * stride[d] + shift[d]
        ok = (src >= 0) & (src < spatial[d])
        idxs.append(np.clip(src, 0, spatial[d] - 1))
        valids.append(ok)
    valid = valids[0]
    for v in valids[1:]:
        valid = valid[..., None] & v
    grid = np.ix_(*idxs)
    gathered = dense[(slice(None),) + grid] * valid[None, ..., None]
    touched = active[(slice(None),) + grid] & valid[None]
    return gathered, touched


def dense_subm_oracle(t, kernel, dilation, weights, bias):
    """Dense-grid submanifold convolution, evaluated at active sites.

    out[p] = bias + sum_o x[p - o*dilation] @ W_o over centered offsets o,
    masked to the input's active set.  Returns an (N, C_out) block aligned
    with t's row order.
    """
    dense, active = densify(t)
    weights = np.asarray(weights, dtype=np.float64)
    c_out = weights.shape[2]
    out = np.zeros((*dense.shape[:-1], c_out), dtype=np.float64)
    stride = (1,) * len(kernel)
    for m, off in enumerate(centered_offsets(kernel)):
        shift = tuple(-o * d for o, d in zip(off, dilation))
        gathered, _ = _gather_shifted(dense, active, t.spatial_shape, stride, shift)
        out += gathered @ weights[m]
    if bias is not None:
        out += np.asarray(bias, dtype=np.float64)
    rows = np.zeros((t.n_active, c_out), dtype=np.float64)
    for row in range(t.n_active):
        rows[row] = out[tuple(t.coords[row])]
    return rows


def dense_regular_oracle(t, spec, out_shape, weights, bias):
    """Dense-grid strided convolution plus the reachable-output mask.

    out[j] = bias + sum_o x[j*stride + o*dilation - padding] @ W_o over raw
    offsets; a position is reachable iff at least one source was active.
    Returns (out_grid (B, *out_shape, C_out), reachable (B, *out_shape)).
    """
    dense, active = densify(t)
    weights = np.asarray(weights, dtype=np.float64)
    c_out = weights.shape[2]
    out = np.zeros((dense.shape[0], *out_shape, c_out), dtype=np.float64)
    reachable = np.zeros((dense.shape[0], *out_shape), dtype=bool)
    for m, off in enumerate(raw_offsets(spec.kernel)):
        shift = tuple(
            o * d - p for o, d, p in zip(off, spec.dilation, spec.padding)
        )
        gathered, touched = _gather_shifted(dense, active, out_shape, spec.stride, shift)
        out += gathered @ weights[m]
        reachable |= touched
    if bias is not None:
        out += np.asarray(bias, dtype=np.float64)
    return out, reachable


def closed_form_param_count(cfg):
    """Trainable scalar count of a ``NetworkConfig``, audited layer by layer
    with every shape written out by hand (4 raw VFE features, 27-offset
    downsamples, 3**dims residual convs, 3 probe logits): the independent
    count that the layout-derived ``param_count`` is checked against."""
    def stage(s, dims):
        c, hidden = s.channels, 2 * s.channels  # the MLP is twice as wide
        levels = s.sfm.levels
        block = c * (2 * c + levels) + (2 * c + levels)  # fused projection
        block += sum(k**dims * c * c + c for k in s.sfm.kernels)  # level convs + biases
        block += c * c + c  # h projection
        block += 2 * (2 * c) + c * hidden + hidden + hidden * c + c  # two layer norms, mlp
        srb = 2 * (3**dims * c * c) + 2 * (2 * c)  # two bias-free convs, two batch norms
        return s.n_sfm * block + s.n_srb * max(s.n_sfm, 1) * srb

    c1, c4, c_bev = cfg.stages[0].channels, cfg.stages[3].channels, cfg.backbone2d.channels
    total = 4 * c1 + c1
    total += sum(stage(s, dims=3) for s in cfg.stages)
    for s_in, s_out in zip(cfg.stages, cfg.stages[1:]):  # downsamples
        total += 27 * s_in.channels * s_out.channels + 2 * s_out.channels
    total += c4 * c_bev + c_bev + 2 * c_bev  # BEV projection and layer norm
    total += stage(cfg.backbone2d, dims=2)
    return total + c_bev * 3 + 3  # probe


def rel_err(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(float(np.max(np.abs(b), initial=0.0)), 1e-12)
    return float(np.max(np.abs(a - b), initial=0.0)) / denom


def _sorted_key_lookup(coords, spatial_shape):
    """Row lookup over sorted flat keys, one ``searchsorted`` per call:
    the coordinate index the engine started from, kept independent of it."""
    shape = np.asarray(spatial_shape, dtype=np.int64)

    def flatten(c):
        keys = c[:, 0].astype(np.int64)
        for d, extent in enumerate(spatial_shape):
            keys = keys * extent + c[:, 1 + d]
        return keys

    order = np.argsort(flatten(coords), kind="stable")
    sorted_keys = flatten(coords)[order]

    def lookup_many(queries):
        result = np.full(queries.shape[0], -1, dtype=np.int64)
        valid = (queries[:, 0] >= 0) & (queries[:, 1:] >= 0).all(axis=1)
        valid &= (queries[:, 1:] < shape).all(axis=1)
        if sorted_keys.size == 0 or not valid.any():
            return result
        keys = flatten(queries[valid])
        pos = np.minimum(np.searchsorted(sorted_keys, keys), sorted_keys.size - 1)
        result[valid] = np.where(sorted_keys[pos] == keys, order[pos], -1)
        return result

    return lookup_many


def _sorted_pairs(in_rows, out_rows):
    order = np.lexsort((in_rows, out_rows))
    return np.stack((in_rows[order], out_rows[order]), axis=1)


def per_offset_rulebook_submanifold(t, spec):
    """Reference submanifold map search, one lookup per kernel offset.

    Returns (offsets, per-offset int64 (P, 2) pair blocks, out_coords) for
    comparison with ``build_rulebook_submanifold``.
    """
    lookup = _sorted_key_lookup(t.coords, t.spatial_shape)
    dilation = np.asarray(spec.dilation, dtype=np.int64)
    offsets = centered_offsets(spec.kernel)
    pairs = []
    for off in offsets:
        targets = t.coords.copy()
        targets[:, 1:] -= np.asarray(off, dtype=np.int64) * dilation
        in_rows = lookup(targets)
        out_rows = np.nonzero(in_rows >= 0)[0].astype(np.int64)
        pairs.append(_sorted_pairs(in_rows[out_rows], out_rows))
    return tuple(offsets), pairs, t.coords


def per_offset_rulebook_regular(t, spec, out_shape):
    """Reference regular map search: per-offset candidates, a row-wise
    ``np.unique`` for the output set, then one lookup per offset."""
    coords = t.coords
    dilation = np.asarray(spec.dilation, dtype=np.int64)
    stride = np.asarray(spec.stride, dtype=np.int64)
    padding = np.asarray(spec.padding, dtype=np.int64)
    shape = np.asarray(out_shape, dtype=np.int64)
    offsets = raw_offsets(spec.kernel)
    per_offset = []
    for off in offsets:
        num = coords[:, 1:] + padding - np.asarray(off, dtype=np.int64) * dilation
        ok = (num % stride == 0).all(axis=1)
        j = num // stride
        ok &= (j >= 0).all(axis=1) & (j < shape).all(axis=1)
        in_rows = np.nonzero(ok)[0].astype(np.int64)
        per_offset.append((in_rows, np.concatenate((coords[in_rows, :1], j[in_rows]), axis=1)))
    out_coords = np.unique(np.concatenate([p[1] for p in per_offset], axis=0), axis=0)
    lookup = _sorted_key_lookup(out_coords, out_shape)
    pairs = [_sorted_pairs(in_rows, lookup(out_pos)) for in_rows, out_pos in per_offset]
    return tuple(offsets), pairs, out_coords


def reference_gather_scatter_matmul(features, rulebook, weights, bias):
    """The per-offset executor the engine started from: every offset, the
    center included, gathers its input rows by fancy indexing and scatters
    its product into a float64 buffer, in offset order."""
    weights = np.asarray(weights)
    acc = np.zeros((rulebook.n_out, weights.shape[2]), dtype=np.float64)
    if bias is not None:
        acc += np.asarray(bias, dtype=np.float64)
    for o, p in enumerate(rulebook.pairs):
        if p.shape[0]:
            acc[p[:, 1]] += features[p[:, 0]] @ weights[o]
    return acc.astype(features.dtype, copy=False)


def reference_gather_scatter_vjp(features, rulebook, weights, cotangent):
    """Backward of :func:`reference_gather_scatter_matmul`, accumulating both
    the feature and the weight gradients in float64 buffers."""
    weights = np.asarray(weights)
    grad_features = np.zeros(features.shape, dtype=np.float64)
    grad_weights = np.zeros(weights.shape, dtype=np.float64)
    for o, p in enumerate(rulebook.pairs):
        if p.shape[0]:
            cot_rows = cotangent[p[:, 1]]
            grad_features[p[:, 0]] += cot_rows @ weights[o].T
            grad_weights[o] += features[p[:, 0]].T @ cot_rows
    out_dtype = features.dtype
    return (
        grad_features.astype(out_dtype, copy=False),
        grad_weights.astype(out_dtype, copy=False),
        cotangent.sum(axis=0).astype(out_dtype, copy=False),
    )


def window_neighbor_rows(t: SparseTensor, window_edge: int) -> list[np.ndarray]:
    """Active rows inside each voxel's centered Chebyshev window, in window
    offset order.

    Read from the geometry's submanifold rulebook of the window (kernel
    ``window_edge``, dilation 1), which it keeps from a second request on:
    its pair (i, j) at offset o says that row j sits at ``coords[i] + o``.
    """
    _check_window(window_edge)
    rb = rulebook(t, KernelSpec.same(window_edge, 1, dims=t.dims))
    table = np.full((t.n_active, len(rb.offsets)), -1, dtype=np.int64)
    for m, p in enumerate(rb.pairs):
        table[p[:, 0], m] = p[:, 1]
    return [row[row >= 0] for row in table]


def keep_all_replay(tape, output, cotangent):
    """Reverse replay that frees nothing and leaves the tape replayable.

    Returns the map of every cotangent it formed, intermediates included,
    as the tape's replay did before it released memory as it went.  A
    cotangent a VJP returns as a callable is called at once.
    """
    grads = {output.uid: np.asarray(cotangent)}
    for node in reversed(tape._nodes):
        out_cot = grads.get(node.out_uid)
        if out_cot is None:
            continue
        for uid, g in zip(node.in_uids, node.vjp(out_cot)):
            if callable(g):
                g = g()
            if g is not None:
                acc = grads.get(uid)
                grads[uid] = g if acc is None else acc + g
    return grads
