"""Regenerate ``reference.json``: the outcome of timed pass 1 for every
workload and every committed seed.

    python3 perfbench/make_reference.py

Only rerun this when the engine's outputs are meant to change; the
benchmark's correctness check compares every run against this file.
"""

import json
import sys

from run import import_engine, pin_environment


def main() -> int:
    pin_environment()
    import_engine()
    import reference
    from workloads import WORKLOADS

    table = {}
    for name, wl in WORKLOADS.items():
        table[name] = {}
        for seed in (*reference.SEEDS, reference.HELD_OUT_SEED):
            state = wl.setup(seed)
            inp = wl.make_input(state, 1)
            table[name][str(seed)] = reference.encode(wl.outcome(state, inp, wl.run(state, inp)))
            print(f"{name} seed {seed}", file=sys.stderr)
    with open(reference.PATH, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
