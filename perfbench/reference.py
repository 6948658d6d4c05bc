"""Committed reference outcomes and the comparison against them.

``reference.json`` maps workload -> seed -> the outcome of timed pass 1
(the first timed pass) for that seed, as produced by ``make_reference.py``
at the commit that introduced the benchmark.  Exact arrays are stored as a
SHA-256 of their bytes; the others as little-endian float64 in base64 and
compared at float32 tolerance.
"""

from __future__ import annotations

import base64
import hashlib
import json
from pathlib import Path

import numpy as np

PATH = Path(__file__).resolve().parent / "reference.json"
SEEDS = tuple(range(16))
HELD_OUT_SEED = 7919  # never used while tuning; later claims must hold here too
RTOL = 1e-4  # float32 tolerance, relative to each value and to the array's scale


def _sha(arr: np.ndarray) -> str:
    arr = np.ascontiguousarray(arr)
    return hashlib.sha256(str(arr.shape).encode() + arr.astype("<i8").tobytes()).hexdigest()


def encode(outcome) -> dict:
    entry = {f"{k}.sha256": _sha(v) for k, v in outcome.exact.items()}
    for k, v in outcome.approx.items():
        arr = np.ascontiguousarray(v, dtype="<f8")
        entry[f"{k}.shape"] = list(arr.shape)
        entry[f"{k}.f64"] = base64.b64encode(arr.tobytes()).decode("ascii")
    return entry


def load() -> dict:
    with open(PATH, encoding="utf-8") as fh:
        return json.load(fh)


def reference_seed(table: dict, workload: str, seed: int) -> int:
    """The run's own seed if it has a reference, else a committed one."""
    return seed if str(seed) in table[workload] else SEEDS[seed % len(SEEDS)]


def mismatches(outcome, entry: dict) -> list[str]:
    """Names of the outcome arrays that miss the reference entry."""
    bad = [k for k, v in outcome.exact.items() if _sha(v) != entry[f"{k}.sha256"]]
    for k, v in outcome.approx.items():
        ref = np.frombuffer(base64.b64decode(entry[f"{k}.f64"]), dtype="<f8")
        ref = ref.reshape(entry[f"{k}.shape"])
        got = np.asarray(v, dtype=np.float64)
        if got.shape != ref.shape:
            bad.append(k)
            continue
        scale = float(np.abs(ref).max()) if ref.size else 0.0
        if not np.all(np.abs(got - ref) <= RTOL * (np.abs(ref) + scale)):
            bad.append(k)
    return bad
