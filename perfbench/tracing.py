"""Spans around focalvox's layer functions, installed from outside.

The engine has no tracing of its own, so the traced run replaces public
functions with wrappers at the places where each call is resolved:

- ``conv`` and ``sfm`` import ``build_rulebook_*`` and ``gather_scatter_*``
  by name, so the wrappers go on ``focalvox.conv`` (and ``focalvox.sfm``),
  not only on ``focalvox.sparse``; the conv VJP closures also resolve
  ``gather_scatter_vjp`` through ``focalvox.conv``;
- ``backbone`` imports ``voxelize_vfe``, ``regular_conv_down``,
  ``sfm_block`` and ``srb_block`` by name;
- ``ops`` is always called through the module, so its attributes are
  patched, which also catches calls between ops functions;
- ``CoordIndex.__init__`` and ``GradTape.gradients`` are patched on their
  classes.

A span is (name, start, end, parent).  Spans stay in memory and are
written out at the end; the work counters they need (pair counts, active
sets, cotangent rows) are read from the recorded arguments after the pass,
outside every span.  :meth:`Tracer.uninstall` puts every original back.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections import defaultdict

import numpy as np

import focalvox.backbone as fb
import focalvox.conv as fc
import focalvox.erf as fe
import focalvox.ops as fo
import focalvox.points as fp
import focalvox.sfm as fs
import focalvox.sparse as fsp
import focalvox.tape as ft

LAYERS = ("points", "sparse", "conv", "sfm", "ops", "backbone", "tape", "erf", "params")

OPS_FUNCTIONS = (
    "linear", "layer_norm", "batch_norm_active", "gelu", "sigmoid", "relu", "add",
    "multiply", "slice_cols", "weighted_level_sum", "scatter_rows_sum",
    "gather_rows", "row_l2", "mean_all", "mlp_block",
)

# (span name, module or class, attribute, whether the counters need the call)
_SITES = [
    ("points.voxelize_vfe", fb, "voxelize_vfe", True),
    ("points.voxelize_vfe", fp, "voxelize_vfe", True),
    ("sparse.rulebook_subm", fc, "build_rulebook_submanifold", True),
    ("sparse.rulebook_subm", fs, "build_rulebook_submanifold", True),
    ("sparse.rulebook_subm", fsp, "build_rulebook_submanifold", True),
    ("sparse.rulebook_regular", fc, "build_rulebook_regular", True),
    ("sparse.rulebook_regular", fsp, "build_rulebook_regular", True),
    ("sparse.gs_fwd", fc, "gather_scatter_matmul", True),
    ("sparse.gs_fwd", fsp, "gather_scatter_matmul", True),
    ("sparse.gs_vjp", fc, "gather_scatter_vjp", True),
    ("sparse.gs_vjp", fsp, "gather_scatter_vjp", True),
    ("sparse.coord_index", fsp.CoordIndex, "__init__", False),
    ("conv.subm_conv", fs, "subm_conv", False),
    ("conv.regular_conv_down", fb, "regular_conv_down", False),
    ("sfm.sfm_block", fb, "sfm_block", False),
    ("sfm.srb_block", fb, "srb_block", False),
    ("sfm.context_levels", fs, "context_levels", False),
    ("backbone.sfmnet_forward", fb, "sfmnet_forward", False),
    ("backbone.run_stage", fb, "run_stage", True),
    ("backbone.downsample", fb, "downsample", False),
    ("backbone.bev_compress", fb, "bev_compress", True),
    ("tape.gradients", ft.GradTape, "gradients", True),
    ("erf.gradient_map", fe, "erf_gradient_map", True),
    ("params.init_network", fb, "init_network", False),
] + [(f"ops.{n}", fo, n, False) for n in OPS_FUNCTIONS]


class Tracer:
    """Records nested spans while installed; derives per-layer numbers."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, call]
        self.log: list[tuple] = []  # (root index, name, start, end, parent)
        self._roots = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, owner, attr, keep_call in _SITES:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, keep_call))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, name, fn, keep_call):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(record)
            stack.append(idx)
            record[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if keep_call:
                record[4] = (args, kwargs, out)
            return out

        return traced

    def root(self, name: str, fn, *args):
        """Run ``fn(*args)`` inside a top-level span; returns (result, span).

        The spans of the previous root are moved to :attr:`log` without
        the call records they kept for the counters."""
        self.release()
        return self._wrap(name, fn, False)(*args), self.spans[0]

    def release(self) -> None:
        if self.spans:
            self.log.extend((self._roots, *s[:4]) for s in self.spans)
            self._roots += 1
        self.spans.clear()

    def write(self, path) -> None:
        """All spans as JSON lines (times in seconds from the first span)."""
        self.release()
        t0 = self.log[0][2] if self.log else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for root, name, start, end, parent in self.log:
                fh.write(json.dumps({"root": root, "name": name, "start": start - t0,
                                     "end": end - t0, "parent": parent}) + "\n")

    # -- derived numbers --------------------------------------------------

    def pass_numbers(self, config) -> dict[str, float]:
        """Per-layer numbers of the spans recorded under one root span."""
        spans = self.spans
        dur = [s[2] - s[1] for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]
        self_t = [d - c for d, c in zip(dur, child)]

        ms = defaultdict(float)
        self_ms = defaultdict(float)
        calls = defaultdict(int)
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for i, s in enumerate(spans[1:], start=1):
            name = s[0]
            ms[name] += dur[i] * 1e3
            self_ms[name] += self_t[i] * 1e3
            calls[name] += 1
            layer_self[name.split(".")[0]] += self_t[i] * 1e3

        n = {}
        n["trace.pass_ms"] = dur[0] * 1e3
        n["trace.unaccounted_ms"] = self_t[0] * 1e3
        for layer, v in layer_self.items():
            if layer != "params":
                n[f"{layer}.self_ms"] = v
        n.update(_counters(spans, config))
        for key in ("points.voxelize_vfe", "sparse.rulebook_subm", "sparse.rulebook_regular",
                    "sparse.coord_index", "sparse.gs_fwd", "sparse.gs_vjp",
                    "sfm.sfm_block", "sfm.srb_block", "sfm.context_levels",
                    "backbone.downsample", "backbone.bev_compress", "tape.gradients",
                    "erf.gradient_map", "ops.linear", "ops.layer_norm", "ops.gelu",
                    "ops.batch_norm_active", "ops.mlp_block"):
            n[f"{key}.ms"] = ms[key]
        for key in ("sparse.rulebook_subm", "sparse.rulebook_regular", "sparse.gs_fwd",
                    "sparse.gs_vjp", "sfm.sfm_block", "sfm.srb_block"):
            n[f"{key}.calls"] = calls[key]
        n["sparse.coord_index.builds"] = calls["sparse.coord_index"]
        for key in ("conv.subm_conv", "conv.regular_conv_down", "tape.gradients"):
            n[f"{key}.self_ms"] = self_ms[key]
        gs_s = ms["sparse.gs_fwd"] / 1e3
        n["sparse.gs_fwd.gflops"] = n["sparse.gs_fwd.gflop"] / gs_s if gs_s > 0 else 0.0
        return n


def _active_set_key(coords: np.ndarray, shape, memo: dict) -> str:
    key = memo.get(id(coords))
    if key is None:
        h = hashlib.sha256(np.ascontiguousarray(coords).tobytes())
        h.update(repr(tuple(shape)).encode())
        key = memo[id(coords)] = h.hexdigest()
    return key


def _counters(spans, config) -> dict[str, float]:
    """Work counts from recorded arguments and results, computed here."""
    stage_of = {id(s): f"stage{i}" for i, s in enumerate(config.stages, start=1)}
    c = defaultdict(float)
    for k in range(1, 5):
        c[f"backbone.stage{k}.active_voxels"] = 0
    c["backbone.bev.cells"] = 0
    distinct, memo = set(), {}
    nonzero_rows = cot_rows = 0
    for name, _, _, _, call in spans:
        if call is None:
            continue
        args, kwargs, out = call
        if name == "points.voxelize_vfe":
            c["points.voxels_out"] += out.n_active
        elif name == "sparse.rulebook_subm":
            t, spec = args[0], args[1]
            distinct.add((_active_set_key(t.coords, t.spatial_shape, memo), spec))
            c["sparse.rulebook_subm.pairs"] += out.total_pairs
        elif name == "sparse.rulebook_regular":
            c["sparse.rulebook_regular.pairs"] += out.total_pairs
            c["sparse.rulebook_regular.out_voxels"] += out.n_out
        elif name == "sparse.gs_fwd":
            feats, rulebook, weights = args[0], args[1], np.asarray(args[2])
            p, (_, c_in, c_out) = rulebook.total_pairs, weights.shape
            c["sparse.gs_fwd.pairs"] += p
            c["sparse.gs_fwd.gflop"] += 2.0 * p * c_in * c_out / 1e9
            c["sparse.gs_fwd.mb_moved"] += _gs_fwd_bytes(p, feats, weights, out) / 1e6
        elif name == "sparse.gs_vjp":
            rulebook, weights, cot = args[1], np.asarray(args[2]), args[3]
            _, c_in, c_out = weights.shape
            c["sparse.gs_vjp.gflop"] += 4.0 * rulebook.total_pairs * c_in * c_out / 1e9
            nonzero_rows += int(np.count_nonzero(np.any(cot != 0, axis=1)))
            cot_rows += cot.shape[0]
        elif name == "backbone.run_stage":
            stage = stage_of.get(id(args[1]))
            if stage is not None:
                c[f"backbone.{stage}.active_voxels"] += out.n_active
        elif name == "backbone.bev_compress":
            c["backbone.bev.cells"] += out.n_active
        elif name == "tape.gradients":
            c["tape.nodes"] += len(args[0])
        elif name == "erf.gradient_map":
            mags = out.magnitudes
            c["erf.reached_ratio"] = np.count_nonzero(mags) / max(1, mags.size)
    calls = sum(1 for s in spans if s[0] == "sparse.rulebook_subm")
    c["sparse.rulebook_subm.distinct"] = len(distinct)
    c["sparse.rulebook_subm.distinct_ratio"] = len(distinct) / calls if calls else 0.0
    c["sparse.gs_vjp.nonzero_cot_ratio"] = nonzero_rows / cot_rows if cot_rows else 0.0
    for key in ("points.voxels_out", "sparse.rulebook_subm.pairs",
                "sparse.rulebook_regular.pairs", "sparse.rulebook_regular.out_voxels",
                "sparse.gs_fwd.pairs", "sparse.gs_fwd.gflop", "sparse.gs_fwd.mb_moved",
                "sparse.gs_vjp.gflop", "tape.nodes", "erf.reached_ratio"):
        c.setdefault(key, 0.0)
    return dict(c)


def _gs_fwd_bytes(pairs: int, feats: np.ndarray, weights: np.ndarray, out: np.ndarray) -> float:
    """Computed (not measured) bytes one gather-scatter forward moves.

    Pair indices read (two int64 per pair), gathered input rows read, the
    per-offset products written, a float64 accumulator row read and
    written per pair, every weight block read, and the result written.
    """
    _, c_in, c_out = weights.shape
    return float(
        pairs * 16
        + pairs * c_in * feats.itemsize
        + pairs * c_out * feats.itemsize
        + pairs * c_out * 8 * 2
        + weights.size * weights.itemsize
        + out.size * out.itemsize
    )
