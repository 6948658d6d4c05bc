"""Byte-identity manifest of a checkout: one sha256 per artifact.

    python tests/manifest.py --out M.json [--root CHECKOUT]
    python tests/manifest.py --compare A.json B.json

``--out`` runs the engine of ``CHECKOUT`` (default: the checkout holding
this script; its ``src/`` and ``perfbench/`` are imported, nothing is
installed) on inputs generated here from fixed seeds, and writes one
sha256 per artifact together with the BLAS core that numpy's bundled
OpenBLAS picked for this CPU.  The artifacts come in two groups:

- ``exact``: integers and index arithmetic, the same on every machine:
  voxel coordinates, rulebook pairs (on the scene and on random cases),
  BEV coordinates and the ``init_network`` weight bytes of each preset.
- ``float``: bytes that depend on float products and so on the BLAS
  kernel: the files, stdout and stderr of the CLI commands (``voxelize``,
  ``forward``, ``erf --stage 1..4``, an inactive ``--query``, ``bench`` for
  both mixers with ``wall_ns`` zeroed, ``selftest``, ``gradcheck``) and the
  perfbench outcome digests of passes 1-3 at seeds 0 and 7919.

``--compare A B`` prints every artifact whose digest differs or that only
one manifest has, and exits 1 if there is any.  To show that a change keeps
every byte, run ``--out`` with ``--root`` on fresh ``git archive`` copies
of the parent and of the change, then ``--compare`` the two files.
``tests/test_manifest.py`` checks the ``exact`` group against the committed
``tests/manifest.json`` on every machine, and the cheap CLI artifacts of
the ``float`` group when the BLAS core matches.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path
from typing import Callable, NamedTuple

if __name__ == "__main__":  # one BLAS thread, set before numpy loads, as the tests run
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
PRESETS = ("tiny", "argoverse2-like", "waymo-like")
PERFBENCH_SEEDS = (0, 7919)
PERFBENCH_PASSES = (1, 2, 3)
RANDOM_RULEBOOK_CASES = 80


def blas_core() -> str:
    """The kernel set numpy's bundled OpenBLAS chose for this CPU, read
    through ``scipy_openblas_get_corename64_``; "unknown" without one."""
    for lib in sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob(
            "libscipy_openblas*")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode("ascii")
    return "unknown"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _sha_arrays(arrays) -> str:
    """Digest of each array's dtype, shape, writeable flag and C-order bytes."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(f"{a.dtype}{a.shape}{a.flags.writeable}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def scene_points(seed: int = 0, n: int = 1500) -> np.ndarray:
    """A dense block of points inside the ``tiny`` grid: about a fifth of
    its 32 x 32 x 6 cells are occupied, so rulebooks have neighbours."""
    rng = np.random.default_rng(seed)
    xyz = rng.uniform((-1.6, -1.6, -0.6), (1.6, 1.6, 0.6), (n, 3))
    return np.concatenate((xyz, rng.uniform(0, 1, (n, 1))), axis=1)


def _rulebook_arrays(rb) -> list[np.ndarray]:
    offsets = np.asarray(rb.offsets, dtype=np.int64).reshape(len(rb.offsets), -1)
    return [offsets, *rb.pairs, rb.out_coords]


def _random_rulebooks(seed: int = 11) -> list[np.ndarray]:
    """Submanifold and regular rulebooks on small random 2-D and 3-D scenes:
    kernels 1/3/5, dilations 1-3, strides 1-2, padding 0-2, two batches in
    some and shuffled rows in half."""
    from focalvox.sparse import (KernelSpec, SparseTensor, build_rulebook_regular,
                                 build_rulebook_submanifold)

    rng = np.random.default_rng(seed)
    arrays = []
    for case in range(RANDOM_RULEBOOK_CASES):
        dims = int(rng.integers(2, 4))
        shape = tuple(int(s) for s in rng.integers(3, 10, dims))
        cells = np.argwhere(rng.random((int(rng.integers(1, 3)), *shape)) < rng.uniform(0.1, 0.6))
        if case % 2:
            cells = cells[rng.permutation(cells.shape[0])]
        t = SparseTensor(cells, np.zeros((cells.shape[0], 1)), shape)
        kernel = tuple(int(k) for k in rng.choice((1, 3, 5), dims))
        dilation = tuple(int(d) for d in rng.integers(1, 4, dims))
        arrays += _rulebook_arrays(build_rulebook_submanifold(t, KernelSpec.same(kernel, dilation)))
        spec = KernelSpec(kernel, dilation, tuple(int(s) for s in rng.integers(1, 3, dims)),
                          tuple(int(p) for p in rng.integers(0, 3, dims)))
        arrays += _rulebook_arrays(build_rulebook_regular(t, spec))
    return arrays


def exact_artifacts() -> dict[str, str]:
    """Digests that depend on no float product (see the module docstring)."""
    from focalvox.backbone import init_network, preset, sfmnet_forward
    from focalvox.points import PointCloud, voxelize_raw
    from focalvox.sparse import (KernelSpec, SparseTensor, build_rulebook_regular,
                                 build_rulebook_submanifold)
    from focalvox.weights import serialize_weights

    cfg = preset("tiny")
    cloud = PointCloud(scene_points())
    _, coords = voxelize_raw(cloud, cfg.voxelizer)
    t = SparseTensor(coords, np.zeros((coords.shape[0], 1)), cfg.voxelizer.grid_shape)
    books = [build_rulebook_submanifold(t, KernelSpec.same(k, d, dims=3))
             for k, d in ((3, 1), (3, 2), (5, 1), (3, 5))]
    down = KernelSpec.downsample(3)
    books.append(build_rulebook_regular(t, down))
    bev, _ = sfmnet_forward(cloud, cfg, init_network(cfg, seed=3), bn_mode="eval")
    art = {
        "exact.voxel_coords": _sha_arrays([coords]),
        "exact.rulebooks.scene": _sha_arrays([a for rb in books for a in _rulebook_arrays(rb)]),
        "exact.rulebooks.random": _sha_arrays(_random_rulebooks()),
        "exact.bev_coords": _sha_arrays([bev.coords]),
    }
    for name in PRESETS:
        art[f"exact.init_sha256.{name}"] = _sha(serialize_weights(init_network(preset(name))))
    return art


def _zero_wall_ns(text: str) -> str:
    return re.sub(r'"wall_ns": \d+', '"wall_ns": 0', text)


class CliRun(NamedTuple):
    """One CLI command; paths are relative to the working directory."""

    name: str
    argv: list[str]
    files: tuple[str, ...] = ()  # files it writes
    exit_code: int = 0
    cheap: bool = False  # recomputed by the tier-1 test
    stdout_filter: Callable[[str], str] | None = None


def cli_runs() -> list[CliRun]:
    common = ["--points", "scene.csv", "--config", "tiny.json", "--init-seed", "3"]
    runs = [
        CliRun("voxelize", ["voxelize", *common[:4], "--out", "voxels.csv"], ("voxels.csv",),
               cheap=True),
        CliRun("forward", ["forward", *common, "--dump", "bev.csv"], ("bev.csv",), cheap=True),
        CliRun("erf.inactive_query", ["erf", *common, "--query", "0,0,0", "--out-pgm", "no.pgm"],
               exit_code=1, cheap=True),
    ]
    for stage in (1, 2, 3, 4):
        files = (f"erf{stage}.pgm", f"erf{stage}.csv")
        runs.append(CliRun(f"erf.stage{stage}", ["erf", *common, "--seed", "7", "--stage",
                           str(stage), "--out-pgm", files[0], "--out-csv", files[1]],
                           files, cheap=stage == 1))
    for mixer in ("sfm", "local-attention"):
        runs.append(CliRun(f"bench.{mixer}.default", ["bench", "--mixer", mixer, "--n-list",
                           "200,400,800"], stdout_filter=_zero_wall_ns))
        runs.append(CliRun(f"bench.{mixer}.small_window", [
            "bench", "--mixer", mixer, "--n-list", "300,600", "--seed", "1", "--kernels", "3,5",
            "--dilations", "1,2", "--window", "3", "--density", "0.1"],
            stdout_filter=_zero_wall_ns))
    runs.append(CliRun("selftest", ["selftest"]))
    runs.append(CliRun("gradcheck", ["gradcheck", "--seed", "0"]))
    return runs


def cli_artifacts(cheap_only: bool = False) -> dict[str, str]:
    """Digests of each CLI run's stdout, exit code with stderr, and files,
    run in a fresh directory on the generated scene and the ``tiny`` config."""
    from focalvox import cli
    from focalvox.backbone import preset
    from focalvox.config import save_config

    art = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            rows = (",".join(repr(float(v)) for v in p) for p in scene_points())
            Path("scene.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
            save_config(preset("tiny"), "tiny.json")
            for run in cli_runs():
                if cheap_only and not run.cheap:
                    continue
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(run.argv)
                if code != run.exit_code:
                    raise RuntimeError(f"{run.name}: exit {code}: {err.getvalue()}")
                stdout = out.getvalue()
                if run.stdout_filter is not None:
                    stdout = run.stdout_filter(stdout)
                art[f"cli.{run.name}.stdout"] = _sha(stdout.encode())
                art[f"cli.{run.name}.stderr"] = _sha(f"exit {code}\n{err.getvalue()}".encode())
                for path in run.files:
                    art[f"cli.{run.name}.{path.rsplit('.', 1)[1]}"] = _sha(Path(path).read_bytes())
        finally:
            os.chdir(cwd)
    return art


def perfbench_artifacts(root: Path) -> dict[str, str]:
    """``Outcome.digest()`` of timed passes 1-3 of every perfbench workload
    at seeds 0 and 7919, each seed after its own ``setup``."""
    sys.path.insert(0, str(root / "perfbench"))
    import workloads

    art = {}
    for name, wl in workloads.WORKLOADS.items():
        for seed in PERFBENCH_SEEDS:
            state = wl.setup(seed)
            for i in PERFBENCH_PASSES:
                inp = wl.make_input(state, i)
                art[f"perfbench.{name}.seed{seed}.pass{i}"] = (
                    wl.outcome(state, inp, wl.run(state, inp)).digest())
    return art


def build(root: Path) -> dict:
    return {
        "blas_core": blas_core(),
        "numpy": np.__version__,
        "exact": exact_artifacts(),
        "float": {**cli_artifacts(), **perfbench_artifacts(root)},
    }


def compare(a: dict, b: dict) -> list[str]:
    """One line per artifact whose digest differs or that one side lacks."""
    lines = []
    for group in ("exact", "float"):
        for name in sorted(set(a[group]) | set(b[group])):
            if name not in a[group] or name not in b[group]:
                lines.append(f"only in {'B' if name not in a[group] else 'A'}: {name}")
            elif a[group][name] != b[group][name]:
                lines.append(f"differs: {name}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", help="write the manifest of --root here")
    mode.add_argument("--compare", nargs=2, metavar=("A", "B"), help="two manifests")
    p.add_argument("--root", default=str(ROOT), help="checkout to run (default: this one)")
    args = p.parse_args(argv)
    if args.compare:
        a, b = (json.loads(Path(f).read_text(encoding="utf-8")) for f in args.compare)
        for key in ("blas_core", "numpy"):
            if a[key] != b[key]:
                print(f"note: {key} {a[key]} (A) vs {b[key]} (B); float artifacts may differ")
        lines = compare(a, b)
        print("\n".join(lines) if lines else "no artifact differs")
        total = len(set(a["exact"]) | set(a["float"]) | set(b["exact"]) | set(b["float"]))
        print(f"{len(lines)} of {total} artifacts differ")
        return 1 if lines else 0
    root = Path(args.root).resolve()
    sys.path.insert(0, str(root / "src"))
    import focalvox

    if Path(focalvox.__file__).resolve().parent != root / "src" / "focalvox":
        sys.exit(f"imported focalvox from {focalvox.__file__}, not from {root / 'src'}")
    text = json.dumps(build(root), sort_keys=True, indent=1) + "\n"
    Path(args.out).write_text(text, encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
