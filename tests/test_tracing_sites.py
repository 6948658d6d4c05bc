"""The traced benchmark (``perfbench/tracing.py``) patches engine functions
by name.  Installing and uninstalling its tracer here makes a renamed or
deleted engine function fail the suite, not only a ``--trace 1`` run."""

import importlib
from pathlib import Path

import focalvox.backbone as fb
import focalvox.ops as fo

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
