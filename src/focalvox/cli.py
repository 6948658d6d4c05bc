"""Command-line surface.

Subcommands: voxelize, forward, erf, bench, gradcheck, selftest.  Exit
codes: 0 success, 1 validation/usage error, 2 I/O error.  All file output
is written atomically and is byte-identical for identical argv and seeds.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys

import numpy as np

from .backbone import SfmNet, init_network, network_template, sfmnet_forward
from .bench import MIXER_KINDS, scaling_experiment
from .config import load_config
from .erf import emit_pgm, erf_gradient_map, select_query
from .errors import FocalvoxError, InvalidSpec, IoError
from .fileio import atomic_write_text
from .params import Initializer, ParamStore
from .points import load_points, vfe_params, voxelize_vfe
from .selftest import GRADCHECK_MODULES, gradcheck_suite, oracle_suite
from .sfm import SFMConfig
from .weights import load_weights


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _seed(text: str) -> int:
    """A non-negative integer, as numpy seeds must be."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


_LIST_FLAGS = ("--n-list", "--query", "--kernels", "--dilations")  # parsed by _int_list


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="focalvox", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_points_config(p):
        p.add_argument("--points", required=True, help="point cloud file")
        p.add_argument("--format", default="csv", choices=("csv", "bin"))
        p.add_argument("--config", required=True, help="network config JSON")

    p = sub.add_parser("voxelize", help="dump the voxelized scene as CSV")
    add_points_config(p)
    p.add_argument("--out", required=True)

    p = sub.add_parser("forward", help="full network pass; dump BEV cells")
    add_points_config(p)
    p.add_argument("--weights", help="weights container path")
    p.add_argument("--init-seed", type=_seed, help="synthesize weights from a seed")
    p.add_argument("--dump", required=True)

    p = sub.add_parser("erf", help="gradient receptive-field probe")
    add_points_config(p)
    p.add_argument("--weights")
    p.add_argument("--init-seed", type=_seed)
    p.add_argument("--query", type=_int_list,
                   help="active voxel 'x,y,z' in the probed output grid")
    p.add_argument("--seed", type=_seed, help="seeded random query selection")
    p.add_argument("--stage", type=int, default=1, choices=(1, 2, 3, 4),
                   help="probe through stages 1..k of the 3-D backbone")
    p.add_argument("--out-pgm", required=True)
    p.add_argument("--out-csv")

    p = sub.add_parser("bench", help="interaction-count scaling experiment")
    p.add_argument("--mixer", required=True, choices=MIXER_KINDS)
    p.add_argument("--n-list", type=_int_list, required=True,
                   help="comma-separated voxel counts")
    p.add_argument("--density", type=float, default=0.05)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--kernels", type=_int_list, default="3,3")
    p.add_argument("--dilations", type=_int_list, default="1,3")
    p.add_argument("--window", type=int, default=5, help="attention window edge")
    p.add_argument("--report", help="JSON-lines output path (default stdout)")

    p = sub.add_parser("gradcheck", help="finite-difference gradient checks")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--module", default="all", choices=GRADCHECK_MODULES)

    sub.add_parser("selftest", help="run the built-in oracle suite")
    return parser


def _dump_rows(path, t, names, values) -> None:
    """CSV with one row per voxel of ``t``: its coordinates, then that
    row of ``values``, under the header ``b,x,y[,z],`` + ``names``."""
    lines = [",".join(("b", *"xyz"[: t.dims], *names))]
    for coord, row in zip(t.coords, values):
        lines.append(",".join((*(str(int(v)) for v in coord), *(repr(float(v)) for v in row))))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _load_net(args):
    cfg = load_config(args.config)
    if getattr(args, "weights", None):
        store = load_weights(args.weights, network_template(cfg))
    elif getattr(args, "init_seed", None) is not None:
        store = init_network(cfg, seed=args.init_seed)
    else:
        raise InvalidSpec("need --weights or --init-seed")
    return cfg, store


def cmd_voxelize(args) -> int:
    cfg = load_config(args.config)
    # the VFE tensors are the first draws of init_network with the config seed
    init = Initializer(ParamStore(), cfg.seed)
    vfe_w, vfe_b = vfe_params(init, cfg.stages[0].channels)
    cloud = load_points(args.points, args.format)
    t = voxelize_vfe(cloud, cfg.voxelizer, vfe_w, vfe_b)
    _dump_rows(args.out, t, [f"f{i}" for i in range(t.channels)], t.features.data)
    print(f"wrote {t.n_active} voxels to {args.out}")
    return 0


def cmd_forward(args) -> int:
    cfg, store = _load_net(args)
    cloud = load_points(args.points, args.format)
    bev, logits = sfmnet_forward(cloud, cfg, store)
    names = [f"f{i}" for i in range(bev.channels)]
    names += [f"logit{i}" for i in range(logits.data.shape[1])]
    _dump_rows(args.dump, bev, names, np.hstack((bev.features.data, logits.data)))
    print(f"wrote {bev.n_active} BEV cells to {args.dump}")
    return 0


def cmd_erf(args) -> int:
    cfg, store = _load_net(args)
    net = SfmNet(cfg, store)
    cloud = load_points(args.points, args.format)
    scene = voxelize_vfe(cloud, cfg.voxelizer, net.vfe_w, net.vfe_b)
    stack = functools.partial(net.backbone3d, bn_mode="eval", depth=args.stage)
    if args.query:
        if len(args.query) != 3:
            raise InvalidSpec("--query must be 'x,y,z'")
        # erf_gradient_map raises InactiveQuery when the stack output lacks it
        query = (0, *args.query)
    elif args.seed is not None:
        # the draw needs the output's active count: one untaped forward
        query = select_query(stack(scene), seed=args.seed)
    else:
        raise InvalidSpec("need --query or --seed")
    erf = erf_gradient_map(stack, scene, query)
    emit_pgm(erf, args.out_pgm, csv_path=args.out_csv)
    print(
        f"query {query}: {int(np.count_nonzero(erf.magnitudes))} "
        f"reached voxels, peak {erf.normalization:.6g}, wrote {args.out_pgm}"
    )
    return 0


def cmd_bench(args) -> int:
    config = SFMConfig(channels=16, kernels=args.kernels, dilations=args.dilations)
    reports, slope = scaling_experiment(
        args.mixer, list(args.n_list), args.density, args.seed,
        config=config, window_edge=args.window,
    )
    lines = [r.to_json() for r in reports]
    lines.append(
        '{"kind": "%s", "slope": %r, "runs": %d}' % (args.mixer, slope, len(reports))
    )
    text = "\n".join(lines) + "\n"
    if args.report:
        atomic_write_text(args.report, text)
        print(f"wrote {len(reports)} runs to {args.report} (slope {slope:.4f})")
    else:
        sys.stdout.write(text)
    return 0


def _report(checks, noun: str) -> int:
    """Print each (name, passed, detail) check and the tally; 1 if any failed."""
    failed = 0
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}{': ' + detail if detail else ''}")
        failed += not ok
    print(f"{len(checks) - failed}/{len(checks)} {noun} passed")
    return 0 if failed == 0 else 1


def cmd_gradcheck(args) -> int:
    return _report(gradcheck_suite(args.seed, args.module), "gradient checks")


def cmd_selftest(args) -> int:
    return _report(oracle_suite(), "checks")


_HANDLERS = {
    "voxelize": cmd_voxelize,
    "forward": cmd_forward,
    "erf": cmd_erf,
    "bench": cmd_bench,
    "gradcheck": cmd_gradcheck,
    "selftest": cmd_selftest,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        argv = list(sys.argv[1:] if argv is None else argv)
        for i in reversed(range(len(argv) - 1)):  # argparse reads "-3,5" as an option
            if argv[i] in _LIST_FLAGS and re.match(r"-\d", argv[i + 1]):
                argv[i : i + 2] = ["=".join(argv[i : i + 2])]
        args = parser.parse_args(argv)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return _HANDLERS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except IoError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except (FocalvoxError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
