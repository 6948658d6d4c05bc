"""The traced benchmark (``perfbench/tracing.py``) patches engine functions
by name.  Installing and uninstalling its tracer here makes a renamed or
deleted engine function fail the suite, not only a ``--trace 1`` run."""

import importlib
from pathlib import Path

import focalvox.backbone as fb
import numpy as np
import focalvox.ops as fo
from focalvox.points import PointCloud

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_restores_every_site(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    gelu, run_stage = fo.gelu, fb.run_stage
    tracer = tracing.Tracer()
    tracer.install()  # reads owner.__dict__[attr] for every site
    try:
        assert fo.gelu is not gelu
        assert fb.run_stage is not run_stage
    finally:
        tracer.uninstall()
    assert fo.gelu is gelu
    assert fb.run_stage is run_stage
    for _, owner, attr, _ in tracing._SITES:
        assert owner.__dict__[attr].__name__ != "traced", (owner, attr)


def test_level_convs_run_inside_context_levels(monkeypatch):
    """``sfm.context_levels.ms`` is the time of the level convs: every level
    conv of an untaped forward nests in an ``sfm.context_levels`` span, and
    every other submanifold conv in a residual block."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    cfg = fb.preset("tiny")
    store = fb.init_network(cfg)
    rng = np.random.default_rng(3)
    cloud = PointCloud(np.concatenate(
        (rng.uniform(-3.0, 3.0, (800, 3)), rng.uniform(0.0, 1.0, (800, 1))), axis=1))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.root("pass", fb.sfmnet_forward, cloud, cfg, store, None, "eval")
    finally:
        tracer.uninstall()
    spans = tracer.spans

    def enclosing(i, name):
        while i >= 0:
            if spans[i][0] == name:
                return i
            i = spans[i][3]
        return -1

    in_levels = {}
    for i, span in enumerate(spans):
        if span[0] == "conv.subm_conv":
            owner = enclosing(i, "sfm.context_levels")
            if owner < 0:
                assert enclosing(i, "sfm.srb_block") >= 0
            else:
                in_levels[owner] = in_levels.get(owner, 0) + 1
                assert spans[owner][1] <= span[1] and span[2] <= spans[owner][2]
    stages = [*cfg.stages, cfg.backbone2d]
    mixers = sum(s.n_sfm for s in stages)
    assert mixers == sum(1 for s in spans if s[0] == "sfm.context_levels") == len(in_levels)
    assert sorted(in_levels.values()) == sorted(
        s.sfm.levels for s in stages for _ in range(s.n_sfm))
