"""The traced benchmark (``perfbench/tracing.py``) patches engine functions
by name.  Installing and uninstalling its tracer here makes a renamed or
deleted engine function fail the suite, not only a ``--trace 1`` run."""

import importlib
from pathlib import Path

import focalvox.backbone as fb
import numpy as np
import pytest
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


@pytest.fixture
def tiny_spans(monkeypatch):
    """The spans of one traced, untaped ``tiny`` forward, and its config."""
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
    return tracer.spans, cfg


def enclosing(spans, i, name):
    """Index of the innermost ``name`` span around span ``i``; -1 if none."""
    while i >= 0:
        if spans[i][0] == name:
            return i
        i = spans[i][3]
    return -1


def test_level_convs_run_inside_context_levels(tiny_spans):
    """``sfm.context_levels.ms`` is the time of the level convs: every level
    conv of an untaped forward nests in an ``sfm.context_levels`` span, and
    every other submanifold conv in a residual block."""
    spans, cfg = tiny_spans
    in_levels = {}
    for i, span in enumerate(spans):
        if span[0] == "conv.subm_conv":
            owner = enclosing(spans, i, "sfm.context_levels")
            if owner < 0:
                assert enclosing(spans, i, "sfm.srb_block") >= 0
            else:
                in_levels[owner] = in_levels.get(owner, 0) + 1
                assert spans[owner][1] <= span[1] and span[2] <= spans[owner][2]
    stages = [*cfg.stages, cfg.backbone2d]
    mixers = sum(s.n_sfm for s in stages)
    assert mixers == sum(1 for s in spans if s[0] == "sfm.context_levels") == len(in_levels)
    assert sorted(in_levels.values()) == sorted(
        s.sfm.levels for s in stages for _ in range(s.n_sfm))


def test_every_rulebook_build_is_traced_inside_its_conv(tiny_spans):
    """The convs request rulebooks through ``sparse.rulebook``, so the builds
    are seen at the ``focalvox.sparse`` sites: one regular build per
    downsample and the submanifold builds, each inside its conv's span."""
    spans, _ = tiny_spans
    conv_of = {"sparse.rulebook_regular": "conv.regular_conv_down",
               "sparse.rulebook_subm": "conv.subm_conv"}
    builds = {name: [i for i, s in enumerate(spans) if s[0] == name] for name in conv_of}
    downsamples = [i for i, s in enumerate(spans) if s[0] == "backbone.downsample"]
    assert len(builds["sparse.rulebook_regular"]) == len(downsamples) == 3
    assert len(builds["sparse.rulebook_subm"]) >= 1
    for name, rows in builds.items():
        for i in rows:
            assert enclosing(spans, i, conv_of[name]) >= 0, (name, i)
    assert sorted(enclosing(spans, i, "backbone.downsample")
                  for i in builds["sparse.rulebook_regular"]) == downsamples
