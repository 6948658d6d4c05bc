"""``tests/ab.py``'s rules on synthetic runs.  No benchmark runs here: the
end-to-end test drives the script against stub checkouts whose
``perfbench/run.py`` prints made-up results at once."""

import json
import os
import re
import subprocess
import sys

import pytest

import ab
from test_bench_files import BENCHMARK, METRICS, WORKLOADS, check_core_schema

# median 1.0, inclusive quartiles 0.99 and 1.01: an IQR of 0.02
PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.01, 0.99]


class TestClaim:
    def test_met_on_ten_wins_and_a_gap_past_the_iqr(self):
        met, detail = ab.claim(PARENT, [v - 0.1 for v in PARENT], "lower", [(1.0, 0.9)])
        assert met
        assert detail.startswith("change wins 10/10 pairs; median 1 -> 0.9 (-10.0%)")

    def test_ties_count_for_neither(self):
        change = [v - 0.1 for v in PARENT]
        change[0] = PARENT[0]  # 9 wins, 1 tie: nine tenths
        assert ab.claim(PARENT, change, "lower", [])[0]
        change[1] = PARENT[1]  # 8 wins, 2 ties
        met, detail = ab.claim(PARENT, change, "lower", [])
        assert not met and "8/10" in detail

    def test_gap_inside_the_parent_iqr_is_not_met(self):
        met, detail = ab.claim(PARENT, [v - 0.015 for v in PARENT], "lower", [])
        assert not met and "<= parent IQR 0.02" in detail

    def test_every_held_out_pair_must_be_better(self):
        change = [v - 0.1 for v in PARENT]
        met, detail = ab.claim(PARENT, change, "lower", [(1.0, 0.9), (1.0, 1.0)])
        assert not met and "held-out pairs better: 1/2" in detail

    def test_higher_is_better(self):
        assert ab.claim(PARENT, [v + 0.1 for v in PARENT], "higher", [(1.0, 1.1)])[0]
        assert not ab.claim(PARENT, [v - 0.1 for v in PARENT], "higher", [])[0]

    def test_unequal_runs_rejected(self):
        with pytest.raises(ValueError):
            ab.claim(PARENT, PARENT[:9], "lower", [])


class TestVerdict:
    def test_unchanged_within_the_bound(self):
        assert ab.verdict(PARENT, [v * 1.2 for v in PARENT], "lower", 0.25) == "unchanged"

    def test_worse_past_the_bound(self):
        assert ab.verdict(PARENT, [v * 1.3 for v in PARENT], "lower", 0.25) == "worse"
        assert ab.verdict(PARENT, [v * 0.7 for v in PARENT], "higher", 0.25) == "worse"

    def test_unresolved_when_the_parent_iqr_passes_the_bound(self):
        wide = [0.8, 1.2, 0.8, 1.2, 0.8, 1.0, 1.0, 1.2, 0.8, 1.2]  # quartiles 0.8, 1.2
        assert ab.spread(wide) == {"iqr": 0.4, "max_min": 0.4}
        assert ab.verdict(wide, [v * 0.95 for v in wide], "lower", 0.25) == "unresolved"
        # unless every change run reads better than every parent run
        assert ab.verdict(wide, [0.7] * 10, "lower", 0.25) == "unchanged"

    def test_one_outlier_does_not_make_it_unresolved(self):
        outlier = [*PARENT[:9], 1.5]
        assert ab.spread(outlier)["max_min"] > 0.25 > ab.spread(outlier)["iqr"]
        assert ab.verdict(outlier, PARENT, "lower", 0.25) == "unchanged"


STUB_RUN = """\
import json, pathlib, sys
args = sys.argv[1:]
workload, seed = args[args.index("--workload") + 1], int(args[args.index("--seed") + 1])
here = pathlib.Path.cwd()
with open(here.parent / "order.log", "a") as fh:
    fh.write(f"{{here.name}} {{workload}} {{seed}}\\n")
scale = float((here / "scale").read_text())
value = lambda m: (1 + seed % 3 / 100) * (scale if m == "peak_traced_mb" else 1.0)
print("env " + json.dumps({{"tree": here.name}}))
print(json.dumps({{"correct": True, "attempted": 4, "failed": 0,
                  "metrics": {{m: {{"value": value(m), "unit": "u"}} for m in {metrics!r}}}}}))
"""


def stub_checkout(root, scale, src_lines):
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(STUB_RUN.format(metrics=sorted(METRICS)))
    (root / "src" / "focalvox").mkdir(parents=True)
    (root / "src" / "focalvox" / "m.py").write_text("x = 1\n" * src_lines)
    (root / "scale").write_text(str(scale))


def test_writes_a_bench_file_in_the_core_schema(tmp_path, monkeypatch, capsys):
    stub_checkout(tmp_path / "parent", 1.0, 7)
    stub_checkout(tmp_path / "change", 0.9, 5)
    monkeypatch.chdir(tmp_path)
    assert ab.main(["--parent", "parent", "--change", "change", "--topic", "t",
                    "--claim", "peak_traced_mb", "av2-infer", "--held-out", "7919", "31"]) == 0
    doc = json.loads((tmp_path / "BENCH_t.json").read_text())
    check_core_schema(doc)
    assert doc["src_focalvox_lines"] == {"parent": 7, "change": 5}
    assert doc["claim"]["met"] and doc["claim"]["detail"].startswith("change wins 10/10")
    assert doc["env"]["change"]["tree"] == "change" and "blas_core" in doc["env"]["change"]
    for w in WORKLOADS:
        for m, e in doc["end_to_end"][w].items():
            assert e["verdict"] == "unchanged", (w, m)
            assert e["change_wins"] == ("10/10" if m == "peak_traced_mb" else "0/10")
        assert set(doc["held_out_seeds"][w]) == {"7919", "31"}
        assert doc["fail_ratio"][w]["parent"] == {"failed": 0, "attempted": 48,
                                                  "correct_runs": "12/12"}
    # one pair per seed and workload; the side run first alternates
    order = (tmp_path / "order.log").read_text().splitlines()
    workloads = [w["name"] for w in BENCHMARK["workloads"]]
    assert len(order) == 2 * len(workloads) * 12
    assert order[:4] == [f"parent {workloads[0]} 0", f"change {workloads[0]} 0",
                         f"change {workloads[1]} 0", f"parent {workloads[1]} 0"]
    assert "claim peak_traced_mb on av2-infer: met" in capsys.readouterr().out


def test_failing_run_stops_the_script(tmp_path):
    stub_checkout(tmp_path / "parent", 1.0, 1)
    stub_checkout(tmp_path / "change", 1.0, 1)
    (tmp_path / "change" / "perfbench" / "run.py").write_text(
        "import sys; sys.exit('no engine')\n")
    with pytest.raises(RuntimeError, match="exited 1\nno engine"):
        ab.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                 "--topic", "t"])


@pytest.mark.parametrize("argv", [
    ["--claim", "peak_traced_mb", "no-such-workload"],
    ["--held-out", "3"],
    ["--peak", "no-such-workload", "0"],
    ["--peak", "av2-infer", "-1"],
])
def test_bad_arguments_exit_two(tmp_path, argv):
    stub_checkout(tmp_path / "parent", 1.0, 1)
    with pytest.raises(SystemExit) as err:
        ab.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "parent"),
                 "--topic", "t", *argv])
    assert err.value.code == 2


def synthetic_bench(peak, lines):
    runs = {"median": peak, "q1": peak, "q3": peak, "runs": [peak] * 10}
    return {"end_to_end": {"tiny-train": {"peak_traced_mb": {"parent": runs, "change": runs}}},
            "src_focalvox_lines": {"parent": lines + 1, "change": lines}}


def test_trajectory_lists_bench_files_in_commit_order(tmp_path, monkeypatch, capsys):
    """Two BENCH files, the later name committed first: the trajectory
    follows the commit dates and reads each file as committed."""
    def commit(name, doc, date):
        (tmp_path / name).write_text(json.dumps(doc))
        env = {"GIT_AUTHOR_DATE": date, "GIT_COMMITTER_DATE": date}
        for argv in (["add", name], ["commit", "-q", "-m", name]):
            subprocess.run(["git", *argv], cwd=tmp_path, check=True,
                           env={**os.environ, **env})

    subprocess.run(["git", "init", "-q"], cwd=tmp_path, check=True)
    for key, value in (("user.name", "t"), ("user.email", "t@t")):
        subprocess.run(["git", "config", key, value], cwd=tmp_path, check=True)
    commit("BENCH_b.json", synthetic_bench(20.5, 3500), "2026-01-02T00:00:00+00:00")
    commit("BENCH_a.json", synthetic_bench(18.25, 3400), "2026-01-03T00:00:00+00:00")
    (tmp_path / "BENCH_a.json").write_text("not committed")
    (tmp_path / "BENCH_c.json").write_text("untracked")
    assert ab.trajectory(tmp_path) == [
        "2026-01-02 BENCH_b.json src_focalvox_lines 3501 -> 3500",
        "  tiny-train: peak_traced_mb 20.5",
        "2026-01-03 BENCH_a.json src_focalvox_lines 3401 -> 3400",
        "  tiny-train: peak_traced_mb 18.25",
    ]
    monkeypatch.setattr(ab, "ROOT", tmp_path)
    assert ab.main(["--trajectory"]) == 0
    assert capsys.readouterr().out.splitlines()[0].startswith("2026-01-02 BENCH_b.json")


def test_comparison_needs_both_trees_and_a_topic(tmp_path):
    with pytest.raises(SystemExit) as err:
        ab.main(["--parent", str(tmp_path), "--topic", "t"])
    assert err.value.code == 2


def test_peak_reads_as_run_py_and_names_the_engine_calls(capsys):
    """On one pass of this checkout the probe's peak is ``run.py``'s
    ``peak_traced_mb`` within 0.01 MB, and it names the calls then running,
    the forward outermost."""
    mb, at = ab.peak(ab.ROOT, "av2-infer", 0)
    argv = [sys.executable, ab.RUN, "--workload", "av2-infer", "--seed", "0",
            "--seconds", "0.1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=ab.ROOT, capture_output=True, text=True, check=True)
    reported = json.loads(proc.stdout.splitlines()[-1])["metrics"]["peak_traced_mb"]["value"]
    assert abs(mb - reported) <= 0.01
    assert re.fullmatch(r"sfmnet_forward(/[a-z0-9_]+(#[1-5])?)+", at), at
