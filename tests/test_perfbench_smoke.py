"""Pass 1 of each perfbench workload against its committed reference.

The benchmark drives the engine's public API (``perfbench/workloads.py``);
running its set-up and first timed pass here makes a change to what the
benchmark passes through fail the suite, not only a benchmark run."""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("name", ["tiny-train", "av2-infer", "erf-probe"])
def test_pass_one_matches_the_reference(monkeypatch, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    reference = importlib.import_module("reference")
    wl = workloads.WORKLOADS[name]
    state = wl.setup(0)
    inp = wl.make_input(state, 1)
    outcome = wl.outcome(state, inp, wl.run(state, inp))
    assert outcome.finite()
    assert reference.mismatches(outcome, reference.load()[name]["0"]) == []
