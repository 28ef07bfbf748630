"""Command-line interface: `ebmax run` for experiment sweeps, `ebmax gen` for
synthetic edge lists.

Exit codes: 0 on success, 2 on configuration errors, 3 on runtime failures.
"""

from __future__ import annotations

import argparse
import sys

from .harness import ALGORITHMS, ConfigError, ExperimentConfig, generate_synthetic, run_experiment


def _comma_floats(text):
    try:
        values = tuple(float(x) for x in text.split(",") if x)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from None
    if not values:
        # an empty config field means the default budgets; an empty flag is a mistake
        raise argparse.ArgumentTypeError(f"names no budget, got {text!r}")
    return values


def _comma_names(text):
    return tuple(x.strip() for x in text.split(",") if x.strip())


def build_parser():
    parser = argparse.ArgumentParser(prog="ebmax", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # each flag's dest is its ExperimentConfig field, and a flag not given is
    # left out, so the config's own defaults are the only ones
    run = sub.add_parser(
        "run", help="run a budget sweep and write a results CSV", argument_default=argparse.SUPPRESS
    )
    run.add_argument(
        "--graph", dest="graph_path", required=True, help="edge-list file (src dst [prob] per line)"
    )
    run.add_argument("--directed", action="store_true", help="treat input edges as directed")
    run.add_argument(
        "--prob",
        dest="probability",
        help="uniform:P, trivalency, or file (the edge list's own probability column)",
    )
    run.add_argument("--econ", dest="economics", choices=["random", "degprop"])
    run.add_argument(
        "--target-frac", dest="target_fraction", type=float, help="fraction of nodes made targets"
    )
    run.add_argument("--budgets", type=_comma_floats, help="comma-separated budget values")
    run.add_argument(
        "--algos",
        dest="algorithms",
        type=_comma_names,
        help=f"comma-separated algorithm names from: {','.join(ALGORITHMS)}",
    )
    run.add_argument("--samples", type=int, help="Monte Carlo samples per estimator")
    run.add_argument("--hop", dest="hops", type=int, help="hop radius for hbh")
    run.add_argument("--alpha", dest="cutoff", type=float, help="influence cutoff for hbh")
    run.add_argument("--seed", dest="master_seed", type=int, help="master seed")
    run.add_argument("--reps", dest="repetitions", type=int, help="held-out evaluation repetitions")
    run.add_argument("--out", dest="output_path", required=True, help="output CSV path")
    run.add_argument(
        "--no-timing",
        dest="record_timing",
        action="store_false",
        help="write 0.0 in the seconds column so the CSV is byte-reproducible",
    )
    run.add_argument(
        "--allow-igaag-large",
        dest="allow_eager_on_large",
        action="store_true",
        help="permit the eager greedy on graphs above the node limit",
    )
    run.add_argument(
        "--skip-zero",
        dest="skip_zero_scores",
        action="store_true",
        help="hbh stops at the first zero-score node instead of seeding it",
    )

    gen = sub.add_parser("gen", help="write a synthetic edge list")
    gen.add_argument("--kind", required=True, choices=["random", "preferential"])
    gen.add_argument("--nodes", type=int, required=True)
    gen.add_argument(
        "--param",
        type=float,
        required=True,
        help="avg degree (random) or arcs per new node (preferential)",
    )
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.command == "gen":
        try:
            generate_synthetic(args.kind, args.nodes, args.param, args.seed, args.out)
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return 0

    fields = vars(args)
    del fields["command"]
    config = ExperimentConfig(**fields)
    try:
        run_experiment(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
