"""Command-line interface.

Subcommands: info, merge, bisim, verify, report. Results go to stdout,
diagnostics to stderr. Exit codes are a stable contract:

  0  success (and Safe verdicts)
  1  resource or numeric failure
  2  file or parse error
  3  merge precondition violation
  4  Unsafe verdict
  5  Uncertain verdict
"""

import argparse
import dataclasses
import functools
import json
import os
import sys
from time import perf_counter

from .bisim import (DEFAULT_METHOD, DEFAULT_SPLITS, METHODS,
                    bisim_error_lower_mc, bisim_error_upper)
from .errors import MergePreconditionError, ParseError, ResourceLimitError
from .formats import parse_json_net, parse_nnet, parse_problem, write_json_net
from .merge import merge
from .norms import LINF, NORMS
from .safety import (DEFAULT_SEED, SAFE, UNSAFE, report_csv, report_table, verify,
                     verify_via_compressed)
from .star import DEFAULT_STAR_CAP

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_PARSE = 2
EXIT_MERGE = 3
EXIT_UNSAFE = 4
EXIT_UNCERTAIN = 5


def _load_network(path):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".nnet"):
        net, _meta = parse_nnet(text)
        return net
    if path.endswith(".json"):
        return parse_json_net(text)
    raise ParseError("unknown network extension (expected .nnet or .json)",
                     location=path)


def _load_problem(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_problem(fh.read())


def _resolve(args, options):
    """Settings precedence: explicit flag > problem file > default."""
    method = args.method or options.get("method", DEFAULT_METHOD)
    splits = args.splits if args.splits is not None else options.get("splits", DEFAULT_SPLITS)
    norm = getattr(args, "norm", None) or options.get("norm", LINF)
    return method, splits, norm


def _activation_summary(net):
    parts = []
    mixed = False
    for lay in net.layers:
        n_relu = int(lay.relu_mask.sum())
        n_id = lay.rows - n_relu
        if n_id == 0:
            parts.append(f"relu*{n_relu}")
        elif n_relu == 0:
            parts.append(f"identity*{n_id}")
        else:
            mixed = True
            parts.append(f"mixed(relu={n_relu}, identity={n_id})")
    summary = ", ".join(parts)
    if mixed:
        summary += "  [note: mixed activations within a layer]"
    return summary


def cmd_info(args):
    net = _load_network(args.net)
    print(f"layers: {net.num_layers}")
    print(f"widths: {net.layer_sizes()}")
    print(f"activations: {_activation_summary(net)}")
    print(f"parameters: {net.parameter_count()}")
    return EXIT_OK


def cmd_merge(args):
    merged = merge(_load_network(args.net_large), _load_network(args.net_small))
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(write_json_net(merged))
    print(f"wrote {args.out}", file=sys.stderr)
    return EXIT_OK


def cmd_bisim(args):
    if args.mc is not None and args.mc < 1:
        raise ValueError("samples must be >= 1")
    if args.jobs < 1:
        raise ValueError("jobs must be >= 1")
    net_big = _load_network(args.net_large)
    net_small = _load_network(args.net_small)
    box, _spec, options = _load_problem(args.problem)
    method, splits, norm = _resolve(args, options)
    bound = bisim_error_upper(net_big, net_small, box, method=method,
                              norm=norm, splits=splits,
                              star_cap=args.star_cap)
    print(f"epsilon_upper={bound.epsilon_upper:.6f}")
    if args.mc is not None:
        lower = bisim_error_lower_mc(net_big, net_small, box, samples=args.mc,
                                     seed=args.seed, norm=norm, jobs=args.jobs)
        print(f"epsilon_lower_mc={lower:.6f}")
    print(f"method={bound.method} norm={bound.norm} "
          f"time={bound.wall_time_seconds:.5f}s", file=sys.stderr)
    return EXIT_OK


def cmd_verify(args):
    net = _load_network(args.net)
    box, spec, options = _load_problem(args.problem)
    method, splits, _norm = _resolve(args, options)
    t0 = perf_counter()
    verdict = verify(net, box, spec, method=method, splits=splits,
                     star_cap=args.star_cap, seed=args.seed)
    print(f"verdict={verdict.status}")
    if verdict.witness is not None:
        print("witness=" + ",".join(f"{v:.17g}" for v in verdict.witness))
    print(f"time={perf_counter() - t0:.5f}s", file=sys.stderr)
    if verdict.status == SAFE:
        return EXIT_OK
    return EXIT_UNSAFE if verdict.status == UNSAFE else EXIT_UNCERTAIN


def _load_manifest(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            entries = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}", location=path) from None
    if not isinstance(entries, list):
        raise ParseError("manifest must be a list of pairs", location=path)
    pairs = []
    for i, entry in enumerate(entries):
        where = f"{path}[{i}]"
        if not isinstance(entry, dict):
            raise ParseError("must be an object", location=where)
        for key in ("id", "large", "small"):
            if key not in entry:
                raise ParseError(f"missing field {key!r}", location=where)
            if key != "id" and not isinstance(entry[key], str):
                raise ParseError("must be a path string", location=f"{where}.{key}")
        pairs.append((str(entry["id"]), entry["large"], entry["small"]))
    return pairs


def cmd_report(args):
    pairs = _load_manifest(args.manifest)
    box, spec, options = _load_problem(args.problem)
    method, splits, norm = _resolve(args, options)
    reports = []
    for pair_id, large_path, small_path in pairs:
        net_big = _load_network(large_path)
        net_small = _load_network(small_path)
        report = verify_via_compressed(
            net_big, net_small, box, spec, method=method, splits=splits,
            norm=norm, star_cap=args.star_cap, network_id=pair_id)
        if args.also_large:
            t0 = perf_counter()
            verdict = verify(net_big, box, spec, method=args.large_method or method,
                             splits=splits if args.large_splits is None else args.large_splits,
                             star_cap=args.star_cap, seed=args.seed)
            report = dataclasses.replace(report, verdict_large=verdict,
                                         time_large_seconds=perf_counter() - t0)
        reports.append(report)
    csv_text = report_csv(reports)
    if args.csv == "-":
        sys.stdout.write(csv_text)
    else:
        sys.stdout.write(report_table(reports))
        if args.csv:
            with open(args.csv, "w", encoding="utf-8") as fh:
                fh.write(csv_text)
            print(f"wrote {args.csv}", file=sys.stderr)
    return EXIT_OK


def _add_backend_flags(p, with_norm=False):
    p.add_argument("--method", choices=METHODS,
                   help="reachability back-end (default from problem file, else interval)")
    p.add_argument("--splits", type=int, help="cells per input dimension for --method split")
    if with_norm:
        p.add_argument("--norm", choices=NORMS, help="output norm (default inf)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="seed for sampling (default %(default)s)")
    p.add_argument("--star-cap", type=int, default=DEFAULT_STAR_CAP,
                   help="abort exact reachability beyond this many stars")


@functools.cache
def build_parser():
    """The argument parser, built once per process; parsing leaves it
    unchanged."""
    parser = argparse.ArgumentParser(
        prog="nnbisim",
        description="Certified output-discrepancy bounds between ReLU networks "
                    "and compressed-network safety verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="summarize a network file")
    p.add_argument("net")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("merge", help="write the merged difference network as JSON")
    p.add_argument("net_large")
    p.add_argument("net_small")
    p.add_argument("out")
    p.set_defaults(func=cmd_merge)

    p = sub.add_parser("bisim", help="certified bisimulation error bound")
    p.add_argument("net_large")
    p.add_argument("net_small")
    p.add_argument("problem")
    p.add_argument("--mc", type=int, metavar="N",
                   help="also print a sampled lower bound from N points")
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                   help="worker threads for the --mc sampler")
    _add_backend_flags(p, with_norm=True)
    p.set_defaults(func=cmd_bisim)

    p = sub.add_parser("verify", help="safety verification of one network")
    p.add_argument("net")
    p.add_argument("problem")
    _add_backend_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("report", help="compressed-path verification over a manifest of pairs")
    p.add_argument("manifest")
    p.add_argument("problem")
    p.add_argument("--csv", metavar="PATH", help="write CSV here ('-' for stdout)")
    p.add_argument("--also-large", action="store_true",
                   help="also verify the large networks directly")
    p.add_argument("--large-method", choices=METHODS,
                   help="back-end for the direct large-network runs")
    p.add_argument("--large-splits", type=int,
                   help="cells per dimension for the direct large-network runs")
    _add_backend_flags(p, with_norm=True)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MergePreconditionError as exc:
        print(f"error: merge precondition: {exc}", file=sys.stderr)
        return EXIT_MERGE
    # ArithmeticError: NumericError, DegenerateLPError, OverflowError.
    except (ResourceLimitError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    # ValueError: ParseError, and bad shapes or argument values from input files.
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
