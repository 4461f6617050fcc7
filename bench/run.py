"""One command for the benchmark: ``python3 -m bench.run``.

``--workload W --seed N --seconds S --trace 0|1`` runs one workload and
prints, as the last line of standard output, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` - the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Without ``--workload`` all four run; ``--repeat K`` runs K seeds of each in
fresh processes and prints every end-to-end metric's spread against its
bound.

Only the standard library is imported at module level: the store workers are
spawned processes that re-import this module before they start.
"""

from __future__ import annotations

import argparse
import json
import sys

DEFAULT_SEED = 7
DEFAULT_SECONDS = 15


def main(argv: list[str] | None = None) -> int:
    """Run the command, and whatever way it ends leave no process behind."""
    from bench.reap import exit_on_sigterm, reap_children

    exit_on_sigterm()
    try:
        return _main(argv)
    finally:
        reap_children()


def _main(argv: list[str] | None) -> int:
    from bench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(prog="python3 -m bench.run", description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, metavar="K",
                        help="run K seeds of each workload, print the spreads")
    parser.add_argument("--out", metavar="FILE",
                        help="with --repeat: write every run and the machine "
                             "fingerprint to FILE as JSON")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    names = [args.workload] if args.workload else list(WORKLOADS)

    if args.repeat:
        from bench.repeat import repeat

        return repeat(names, args.seed, args.seconds, args.repeat, args.out)

    from bench.runner import run_once

    results = {
        name: run_once(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        for name in names
    }
    last = results[names[0]] if args.workload else results
    print(json.dumps(last))
    return 0 if all(result["correct"] for result in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
