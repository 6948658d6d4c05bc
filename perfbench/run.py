"""End-to-end and per-layer benchmark of focalvox.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tiny-train --seed 0 --seconds 30 --trace 0

The engine is imported from ``src/`` of the same checkout; if it is not
there the script exits with code 1 and prints no result.  One process, no
extra threads: BLAS is pinned to one thread and FOCALVOX_THREADS is unset.

A run sets up several times (the median is ``setup_s``), then times passes
until ``--seconds`` have gone by.  After the timed passes it repeats pass 1
once with tracemalloc on (``peak_traced_mb``, and the repeat must match
pass 1 bit for bit) and checks pass 1 against the committed reference.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates an
untraced pass with a traced pass on the same input, checks that both give
the same bits, and reports the per-layer metrics of the traced passes.
Human-readable lines come first; the last line is one JSON object.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".perfbench"  # traced runs write their spans here
WORKLOAD_NAMES = ("tiny-train", "av2-infer", "erf-probe")
BLAS_THREADS = "1"
SETUP_REPS = 5
TAIL_BEYOND = 10  # the tail percentile keeps at least this many passes beyond it

END_TO_END_UNITS = {
    "pass_s_p50": "s",
    "pass_s_tail": "s",
    "voxels_per_s": "voxels/s",
    "peak_traced_mb": "MB",
    "setup_s": "s",
}


def per_layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last.endswith("ms"):
        return "ms"
    return {"gflop": "GFLOP", "gflops": "GFLOP/s", "mb_moved": "MB"}.get(
        last, "ratio" if last.endswith("ratio") else "count")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def pin_environment() -> dict:
    """Single-threaded BLAS, no engine worker pool; returns what was found."""
    found = {"FOCALVOX_THREADS": os.environ.pop("FOCALVOX_THREADS", None)}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    return found


def import_engine():
    package = SRC / "focalvox"
    if not (package / "__init__.py").is_file():
        sys.exit(f"focalvox sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import focalvox

    if Path(focalvox.__file__).resolve().parent != package.resolve():
        sys.exit(f"imported focalvox from {focalvox.__file__}, not from {package}")
    return focalvox


class Tally:
    """Attempted and failed passes; a failure prints why to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def attempt(self):
        self.attempted += 1

    def fail(self, why: str):
        self.failed += 1
        print(f"FAILED: {why}", file=sys.stderr)


def timed(wl, state, inp, tally: Tally, label: str):
    """Run one pass; returns (seconds, outcome) or (seconds, None) on failure."""
    tally.attempt()
    t0 = time.perf_counter()
    try:
        result = wl.run(state, inp)
    except Exception:  # a failing pass is counted, not fatal
        elapsed = time.perf_counter() - t0
        tally.fail(f"{label} raised\n{traceback.format_exc()}")
        return elapsed, None
    elapsed = time.perf_counter() - t0
    out = wl.outcome(state, inp, result)
    if not out.finite():
        tally.fail(f"{label} produced a non-finite value")
        return elapsed, None
    return elapsed, out


def tail(times: list[float]) -> tuple[float, int]:
    """Nearest-rank value of the highest whole percentile with at least
    TAIL_BEYOND passes beyond it; the maximum (as p100) if there are too
    few passes for that."""
    xs = sorted(times)
    n = len(xs)
    q = (100 * (n - TAIL_BEYOND)) // n if n > TAIL_BEYOND else 0
    if q <= 0:
        return xs[-1], 100
    rank = max(1, math.ceil(q * n / 100))
    return xs[rank - 1], q


def check_repeat_and_reference(wl, state, first, tally):
    """Repeat pass 1 under tracemalloc, then check the committed reference.

    Returns the tracemalloc peak in MB of the repeat pass."""
    import tracemalloc

    import reference

    inp = wl.make_input(state, 1)
    tally.attempt()
    tracemalloc.start()
    try:
        result = wl.run(state, inp)
        peak = tracemalloc.get_traced_memory()[1]
    except Exception:
        tally.fail(f"repeat of pass 1 raised\n{traceback.format_exc()}")
        result, peak = None, 0
    finally:
        tracemalloc.stop()
    if result is not None:
        out = wl.outcome(state, inp, result)
        if first is None or out.digest() != first.digest():
            tally.fail("repeat of pass 1 differs from pass 1")
    del result

    refs = reference.load()
    ref_seed = reference.reference_seed(refs, wl.name, state.seed)
    if ref_seed == state.seed:
        out = first
    else:
        ref_state = wl.setup(ref_seed)
        _, out = timed(wl, ref_state, wl.make_input(ref_state, 1), tally,
                       f"reference pass of seed {ref_seed}")
    if out is not None:
        bad = reference.mismatches(out, refs[wl.name][str(ref_seed)])
        if bad:
            tally.fail(f"seed {ref_seed} misses the committed reference: {', '.join(bad)}")
    print(f"reference: seed {ref_seed}"
          + (" (own seed)" if ref_seed == state.seed else " (own seed has none)"))
    return peak / 1e6


def environment(focalvox, found: dict) -> dict:
    import numpy as np
    import scipy

    lines = sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((SRC / "focalvox").glob("*.py"))
    )
    return {
        "nproc": os.cpu_count(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "FOCALVOX_THREADS": found["FOCALVOX_THREADS"],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "focalvox": focalvox.__version__,
        "src_focalvox_lines": lines,
    }


def untraced_metrics(wl, state, seconds, tally):
    times, voxels, wall, first = [], 0, 0.0, None
    deadline = time.perf_counter() + seconds
    i = 1
    while time.perf_counter() < deadline:
        inp = wl.make_input(state, i)
        elapsed, out = timed(wl, state, inp, tally, f"pass {i}")
        wall += elapsed
        if out is not None:
            times.append(elapsed)
            voxels += inp.voxels
        if i == 1:
            first = out
        i += 1
    if not times:
        raise RuntimeError("no pass succeeded")
    p50 = statistics.median(times)
    t_tail, q = tail(times)
    print(f"pass_s_p50 {p50:.6f} s (n={len(times)})")
    print(f"pass_s_tail {t_tail:.6f} s (p{q}, n={len(times)})")
    print(f"voxels_per_s {voxels / wall:.1f} voxels/s ({voxels} voxels in {wall:.3f} s timed)")
    return {"pass_s_p50": p50, "pass_s_tail": t_tail, "voxels_per_s": voxels / wall}, first


def traced_metrics(wl, state, seconds, tally):
    import focalvox.backbone as fb
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.root("setup", lambda: fb.init_network(state.config))
    finally:
        tracer.uninstall()
    name, start, end = tracer.spans[1][:3]
    assert name == "params.init_network"
    init_ms = (end - start) * 1e3

    per_pass, plain, traced, first = [], [], [], None
    deadline = time.perf_counter() + seconds
    i = 1
    while time.perf_counter() < deadline:
        inp = wl.make_input(state, i)
        # alternate which of the pair runs first, so that neither side
        # always finds the caches warmed by the other
        if i % 2:
            elapsed, out = timed(wl, state, inp, tally, f"pass {i}")
        tally.attempt()
        tracer.install()
        try:
            result, root = tracer.root("pass", wl.run, state, inp)
        except Exception:
            tally.fail(f"traced pass {i} raised\n{traceback.format_exc()}")
            result = None
        finally:
            tracer.uninstall()
        if not i % 2:
            elapsed, out = timed(wl, state, inp, tally, f"pass {i}")
        if i == 1:
            first = out
        if result is not None and out is not None:
            if wl.outcome(state, inp, result).digest() != out.digest():
                tally.fail(f"traced pass {i} differs from the untraced pass")
            else:
                plain.append(elapsed)
                traced.append(root[2] - root[1])
                per_pass.append(tracer.pass_numbers(state.config))
        tracer.release()
        del result
        i += 1
    SPANS_DIR.mkdir(exist_ok=True)
    spans_path = SPANS_DIR / f"spans-{wl.name}-seed{state.seed}.jsonl"
    tracer.write(spans_path)
    print(f"spans: {len(tracer.log)} written to {spans_path.relative_to(ROOT)}")
    if not per_pass:
        raise RuntimeError("no traced pass succeeded")
    metrics = {k: statistics.fmean(p[k] for p in per_pass) for k in per_pass[0]}
    metrics["params.init_network.ms"] = init_ms
    metrics["trace.overhead_ratio"] = statistics.fmean(traced) / statistics.fmean(plain)
    accounted = sum(metrics[f"{layer}.self_ms"] for layer in tracing.LAYERS if layer != "params")
    print(f"traced passes: {len(per_pass)}; layer self times {accounted:.3f} ms + "
          f"unaccounted {metrics['trace.unaccounted_ms']:.3f} ms = traced pass "
          f"{metrics['trace.pass_ms']:.3f} ms")
    for name in sorted(metrics):
        print(f"{name} {metrics[name]:.6g} {per_layer_unit(name)}")
    return metrics, first


def main(argv=None) -> int:
    args = parse_args(argv)
    found = pin_environment()
    focalvox = import_engine()
    import reference
    from workloads import WORKLOADS

    import_s = time.perf_counter() - _T0
    wl = WORKLOADS[args.workload]

    reps = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        state = wl.setup(args.seed)
        reps.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(reps)

    env = environment(focalvox, found)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {wl.name} seed {args.seed} (held-out seed {reference.HELD_OUT_SEED})")
    print(f"setup_s {setup_s:.6f} s (imports {import_s:.3f} s + median of "
          f"{SETUP_REPS} set-ups {[round(r, 3) for r in reps]})")

    tally = Tally()
    if args.trace:
        values, first = traced_metrics(wl, state, args.seconds, tally)
        units = {k: per_layer_unit(k) for k in values}
    else:
        values, first = untraced_metrics(wl, state, args.seconds, tally)
        values["setup_s"] = setup_s
    peak_mb = check_repeat_and_reference(wl, state, first, tally)
    if not args.trace:
        values["peak_traced_mb"] = peak_mb
        print(f"peak_traced_mb {peak_mb:.3f} MB (tracemalloc, repeat of pass 1)")
        units = END_TO_END_UNITS
    print(f"fail_ratio {tally.failed / tally.attempted:.6g} "
          f"({tally.failed}/{tally.attempted} passes)")

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(values[k]), "unit": units[k]} for k in sorted(units)},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
