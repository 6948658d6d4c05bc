"""The engine's import boundary: numpy is its only third-party dependency."""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# imports the package and its CLI, then runs one tiny forward pass (which
# calls gelu, and so erf) and reports every scipy module that got loaded
PROGRAM = """
import json, sys
sys.path.insert(0, {src!r})
import numpy as np
import focalvox, focalvox.cli
from focalvox import ops
from focalvox.backbone import init_network, preset, sfmnet_forward
from focalvox.points import PointCloud

erf_calls = 0
port = ops._erf
def counted(*args, **kwargs):
    global erf_calls
    erf_calls += 1
    return port(*args, **kwargs)
ops._erf = counted

rng = np.random.default_rng(0)
pts = np.concatenate((rng.uniform(-3, 3, (500, 3)), rng.uniform(0, 1, (500, 1))), axis=1)
cfg = preset("tiny")
_, logits = sfmnet_forward(PointCloud(pts), cfg, init_network(cfg))
print(json.dumps({{
    "erf_calls": erf_calls,
    "finite": bool(np.isfinite(logits.data).all()),
    "scipy": sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")),
}}))
"""


def test_engine_runs_without_importing_scipy():
    # -I: no PYTHONPATH, user site or working directory on the path, so the
    # package comes from src/ and nothing else imports scipy on its behalf
    proc = subprocess.run(
        [sys.executable, "-I", "-c", PROGRAM.format(src=str(SRC))],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["erf_calls"] > 0 and report["finite"]
    assert report["scipy"] == []
