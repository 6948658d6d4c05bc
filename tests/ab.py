"""A/B benchmark of two checkouts into one ``BENCH_<topic>.json``.

    python tests/ab.py --parent DIR --change DIR --topic TOPIC
                       [--claim METRIC WORKLOAD] [--held-out SEED ...]
    python tests/ab.py --trajectory

Runs each checkout's own ``perfbench/run.py --trace 0`` on every workload
of ``BENCHMARK.json``, one parent/change pair per seed 0-9 and per
held-out seed, alternating which side of a pair runs first.  Every run
lasts ``run_seconds`` of ``BENCHMARK.json``.  It writes
``BENCH_<topic>.json`` in the current directory:

- ``end_to_end.<workload>.<metric>``: ``parent`` and ``change``, each
  ``{median, q1, q3, runs}`` over seeds 0-9 (inclusive quartiles), the
  change's wins out of the pairs, the parent's relative spread and a
  ``verdict`` (see :func:`verdict`);
- ``held_out_seeds.<workload>.<seed>.<metric>``: the single pair's values;
- ``fail_ratio.<workload>.<side>``: failed and attempted passes, and the
  runs that reported ``correct``;
- ``claim``: :func:`claim` for ``--claim METRIC WORKLOAD``, or null;
- ``env``: each side's ``env`` line from ``run.py`` plus the BLAS core;
- ``src_focalvox_lines``: both trees' ``src/focalvox`` line counts.

It prints one verdict line per workload and metric, then the claim.  It
imports nothing from ``perfbench/``: it only runs each checkout's script.

``--trajectory`` runs nothing: it prints the change medians of every
committed ``BENCH_*.json`` of this checkout in commit order (see
:func:`trajectory`).
``tests/test_ab.py`` tests it on synthetic runs and stub checkouts.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from manifest import blas_core

ROOT = Path(__file__).resolve().parent.parent
SEEDS = tuple(range(10))
SIDES = ("parent", "change")
RUN = "perfbench/run.py"


def quartiles(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6),
            "runs": [round(v, 6) for v in runs]}


def _gain(parent: float, change: float, better: str) -> float:
    """How much better the change reads, in the metric's unit (> 0 is better)."""
    return parent - change if better == "lower" else change - parent


def wins(parent: list[float], change: list[float], better: str) -> int:
    """Pairs (same index, same seed) the change wins; ties count for neither."""
    return sum(_gain(p, c, better) > 0 for p, c in zip(parent, change))


def claim(parent: list[float], change: list[float], better: str,
          held_out: list[tuple[float, float]]) -> tuple[bool, str]:
    """The gain rule: the change wins at least nine tenths of the pairs, its
    median is better than the parent's by more than the parent's IQR, and
    it is better on every held-out ``(parent, change)`` pair."""
    if len(parent) != len(change) or not parent:
        raise ValueError("a claim needs equal, non-empty parent and change runs")
    won = wins(parent, change, better)
    p, c = quartiles(parent), quartiles(change)
    gap, iqr = _gain(p["median"], c["median"], better), p["q3"] - p["q1"]
    held = [_gain(hp, hc, better) > 0 for hp, hc in held_out]
    met = 10 * won >= 9 * len(parent) and gap > iqr and all(held)
    detail = (f"change wins {won}/{len(parent)} pairs; median {p['median']:.6g} -> "
              f"{c['median']:.6g} ({(c['median'] - p['median']) / p['median']:+.1%}); "
              f"median gap {gap:.6g} {'>' if gap > iqr else '<='} parent IQR {iqr:.6g}; "
              f"held-out pairs better: {sum(held)}/{len(held)}")
    return met, detail


def spread(runs: list[float]) -> dict:
    """The runs' spread as fractions of their median: the IQR, which
    :func:`verdict` reads, and max - min."""
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"iqr": round((q3 - q1) / abs(median), 4),
            "max_min": round((max(runs) - min(runs)) / abs(median), 4)}


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """``worse`` when the change's median is worse than the parent's by more
    than ``bound`` (a fraction of the parent's median); else ``unresolved``
    when the parent's own runs spread wider than ``bound``, taking their IQR
    as the spread as the claim rule does, unless every change run reads
    better than every parent run; else ``unchanged``."""
    pm, cm = statistics.median(parent), statistics.median(change)
    if -_gain(pm, cm, better) > bound * abs(pm):
        return "worse"
    all_better = all(_gain(p, c, better) > 0 for p in parent for c in change)
    if spread(parent)["iqr"] > bound and not all_better:
        return "unresolved"
    return "unchanged"


def src_lines(root: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((root / "src" / "focalvox").glob("*.py")))


def run_one(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``run.py --trace 0`` in ``root``: its JSON result plus its env."""
    argv = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(f"{root}: {' '.join(argv[1:])} exited {proc.returncode}\n"
                           f"{proc.stderr}")
    result = json.loads(lines[-1])
    result["env"] = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return result


def summarize(benchmark: dict, results: dict, held_out: list[int],
              claimed: tuple[str, str] | None) -> dict:
    """The BENCH document of ``results[(side, workload, seed)]``, each a
    ``run.py`` result."""
    def value(side, w, seed, metric):
        return results[side, w, seed]["metrics"][metric]["value"]

    doc = {"end_to_end": {}, "held_out_seeds": {}, "fail_ratio": {}, "claim": None}
    for w in (w["name"] for w in benchmark["workloads"]):
        doc["end_to_end"][w] = {}
        for m in benchmark["end_to_end"]:
            name, better = m["name"], m["better"]
            runs = {s: [value(s, w, seed, name) for seed in SEEDS] for s in SIDES}
            doc["end_to_end"][w][name] = {
                "unit": m["unit"], "better": better, "bound": m["bound"],
                **{s: quartiles(runs[s]) for s in SIDES},
                "change_wins": f"{wins(runs['parent'], runs['change'], better)}/{len(SEEDS)}",
                "parent_spread": spread(runs["parent"]),
                "verdict": verdict(runs["parent"], runs["change"], better, m["bound"]),
            }
            if claimed == (name, w):
                met, detail = claim(runs["parent"], runs["change"], better, [
                    tuple(value(s, w, seed, name) for s in SIDES) for seed in held_out])
                doc["claim"] = {"metric": name, "workload": w, "met": met, "detail": detail}
        doc["held_out_seeds"][w] = {
            str(seed): {m["name"]: {s: round(value(s, w, seed, m["name"]), 6) for s in SIDES}
                        for m in benchmark["end_to_end"]}
            for seed in held_out}
        doc["fail_ratio"][w] = {}
        for s in SIDES:
            rs = [results[s, w, seed] for seed in (*SEEDS, *held_out)]
            doc["fail_ratio"][w][s] = {"failed": sum(r["failed"] for r in rs),
                                       "attempted": sum(r["attempted"] for r in rs),
                                       "correct_runs": f"{sum(r['correct'] for r in rs)}/{len(rs)}"}
    return doc


def trajectory(root: Path) -> list[str]:
    """The committed ``BENCH_*.json`` files of the git checkout ``root`` in
    the order of each file's first commit (its committer date, then its
    name): per file a line with that date, the name and both
    ``src_focalvox_lines``, then one line per workload with the change's
    median of each end-to-end metric, as committed at HEAD."""
    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=root, capture_output=True, text=True,
                              check=True).stdout

    first = {}
    for name in git("ls-files", "BENCH_*.json").split():
        stamp, date = git("log", "--reverse", "--format=%ct %cs", "--", name).split()[:2]
        first[name] = (int(stamp), date)
    lines = []
    for name in sorted(first, key=lambda n: (first[n][0], n)):
        doc = json.loads(git("show", f"HEAD:{name}"))
        src = doc["src_focalvox_lines"]
        lines.append(f"{first[name][1]} {name} src_focalvox_lines "
                     f"{src['parent']} -> {src['change']}")
        for w, metrics in doc["end_to_end"].items():
            lines.append(f"  {w}: " + ", ".join(
                f"{m} {e['change']['median']:.6g}" for m, e in metrics.items()))
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--trajectory", action="store_true",
                   help="print the change medians of every committed BENCH file and exit")
    p.add_argument("--parent", type=Path, help="checkout of the parent commit")
    p.add_argument("--change", type=Path, help="checkout of the change")
    p.add_argument("--topic", help="writes BENCH_<topic>.json here")
    p.add_argument("--claim", nargs=2, metavar=("METRIC", "WORKLOAD"),
                   help="apply the gain rule to this end-to-end metric and workload")
    p.add_argument("--held-out", nargs="+", type=int, default=[7919], metavar="SEED",
                   help="seeds beyond 0-9 that the claim must also hold on (default 7919)")
    args = p.parse_args(argv)
    if args.trajectory:
        print("\n".join(trajectory(ROOT)))
        return 0
    if None in (args.parent, args.change, args.topic):
        p.error("--parent, --change and --topic are required without --trajectory")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = [m["name"] for m in benchmark["end_to_end"]]
    workloads = [w["name"] for w in benchmark["workloads"]]
    if args.claim and (args.claim[0] not in metrics or args.claim[1] not in workloads):
        p.error(f"--claim takes one of {metrics} and one of {workloads}")
    if set(args.held_out) & set(SEEDS):
        p.error("held-out seeds must lie outside 0-9")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    seconds = benchmark["run_seconds"]
    for side, root in roots.items():
        if not (root / RUN).is_file():
            p.error(f"--{side} {root} has no {RUN}")

    results, pair = {}, 0
    for seed in (*SEEDS, *args.held_out):
        for w in workloads:
            for side in (SIDES if pair % 2 == 0 else SIDES[::-1]):
                results[side, w, seed] = run_one(roots[side], w, seed, seconds)
                print(f"{w} seed {seed} {side}: " + ", ".join(
                    f"{m} {results[side, w, seed]['metrics'][m]['value']:.6g}" for m in metrics),
                    flush=True)
            pair += 1

    doc = {"topic": args.topic,
           "command": f"python3 {RUN} --workload W --seed S --seconds {seconds:g} --trace 0",
           "protocol": (f"one pair per seed ({SEEDS[0]}-{SEEDS[-1]}, held out "
                        f"{', '.join(map(str, args.held_out))}) and workload, in the order "
                        f"{', '.join(workloads)} per seed; the side run first alternates "
                        "across the pairs, parent first; end_to_end statistics use seeds "
                        "0-9 with statistics.quantiles(method='inclusive')"),
           "env": {s: {**results[s, workloads[0], SEEDS[0]]["env"], "blas_core": blas_core()}
                   for s in SIDES},
           "src_focalvox_lines": {s: src_lines(roots[s]) for s in SIDES},
           **summarize(benchmark, results, args.held_out,
                       tuple(args.claim) if args.claim else None)}
    out = Path(f"BENCH_{args.topic}.json")
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    for w, per_metric in doc["end_to_end"].items():
        for m, e in per_metric.items():
            print(f"{w} {m}: {e['parent']['median']:.6g} -> {e['change']['median']:.6g} "
                  f"{e['unit']}, change wins {e['change_wins']}, parent IQR "
                  f"{e['parent_spread']['iqr']:.1%} of its median, {e['verdict']}")
    if doc["claim"]:
        c = doc["claim"]
        print(f"claim {c['metric']} on {c['workload']}: {'met' if c['met'] else 'NOT met'}; "
              f"{c['detail']}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
