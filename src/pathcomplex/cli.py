"""Command-line entry point.

Subcommands: ``lift`` (graph -> serialized complex), ``test`` (two graphs ->
distinguishability verdict), ``bench`` (family manifest -> failure-rate
reports), ``families`` (rings -> cyclic family listing), and ``time-lift``
(lifting wall-clock statistics).

Every subcommand builds one :class:`~pathcomplex.bench.RunConfig`: a setting
comes from its flag, else from the ``--config`` file, else from the
``RunConfig`` default, and ``RunConfig.validate`` checks them all before any
input is read, so the command line and the library accept the same values.
The config file is line-oriented ``key = value`` with ``#`` comments; a key
is a setting flag's name without the leading ``--``, and unknown keys are
fatal.  Exit codes: 0 success, 1 usage or configuration error, 2 input or
parse error (an input path that cannot be read included), 3 resource cap
exceeded.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .bench import (
    METHODS,
    ManifestError,
    RunConfig,
    network_outcomes,
    parse_manifest,
    reports_to_csv,
    reports_to_json,
    sweep,
    time_lifting,
)
from .complexes import (
    BOUNDARY_MODES,
    CapacityError,
    SerializationError,
    cyclic_families,
    serialize_complex,
)
from .graphs import GraphParseError, parse_edge_list, read_graph6_file, read_text
from .refine import distinguishes, refine_pair

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_CAP = 3

# the refinement method that lifts to each kind with its configured parameter
_LIFT_METHODS = {
    m.kind: name for name, m in METHODS.items()
    if not m.network and m.fixed_param is None
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def int_list(raw: str) -> tuple:
    """A comma list of integers; ``lo..hi`` stands for the range."""
    out = []
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        if ".." in part:
            lo, hi = (int(end) for end in part.split("..", 1))
            if hi < lo:
                raise ValueError(f"empty range {part!r}")
            out.extend(range(lo, hi + 1))
        else:
            out.append(int(part))
    return tuple(out)


# Config key -> (parser, flag options).  The file and the flag go through
# the same parser and choices; each flag fills the RunConfig field of its
# name, and output-format is the one key only the command line reads.
_SETTINGS = {
    "boundary-mode": (str, {"choices": BOUNDARY_MODES}),
    "member-cap": (int, {}),
    "hidden-dim": (int, {}),
    "embed-dim": (int, {}),
    "epsilon": (float, {}),
    "seeds": (int_list, {"help": "comma list, ranges like 0..9 allowed"}),
    "threads": (int, {}),
    "output-format": (str, {"choices": ("text", "csv", "json")}),
}


def _apply_config_file(args):
    """Give every setting that no flag set its value from ``--config``."""
    try:
        text = read_text(args.config, "UTF-8", _UsageError)
    except OSError as exc:
        raise _UsageError(f"cannot read config file {args.config}: {exc}")
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise _UsageError(f"{args.config}:{lineno}: expected 'key = value'")
        key, _, raw_value = (part.strip() for part in line.partition("="))
        if key not in _SETTINGS:
            raise _UsageError(f"unknown configuration key {key!r}")
        parse, options = _SETTINGS[key]
        try:
            value = parse(raw_value)
        except ValueError:
            raise _UsageError(f"bad value {raw_value!r} for configuration key {key!r}")
        choices = options.get("choices")
        if choices and value not in choices:
            raise _UsageError(f"bad {key} {value!r}")
        attr = key.replace("-", "_")
        if getattr(args, attr) is None:
            setattr(args, attr, value)


def _run_config(args, **fields) -> RunConfig:
    """The validated run settings of one subcommand call.

    Every ``RunConfig`` field that the parsed flags carry, after
    :func:`_apply_config_file`, is taken from them; ``fields`` override.
    """
    given = {
        f.name: getattr(args, f.name) for f in dataclasses.fields(RunConfig)
        if getattr(args, f.name, None) is not None
    }
    cfg = RunConfig(**{**given, **fields})
    cfg.validate()
    return cfg


def _add_common_flags(parser):
    parser.add_argument("--config", help="key = value configuration file")
    for key, (parse, options) in _SETTINGS.items():
        parser.add_argument(f"--{key}", type=parse, **options)


def _read_all_graphs(path: str, fmt: str, member_cap: int):
    if fmt == "auto":
        fmt = "graph6" if path.endswith((".g6", ".graph6")) else "edges"
    if fmt == "graph6":
        return read_graph6_file(path)
    return [parse_edge_list(read_text(path, "UTF-8", GraphParseError), member_cap)]


def _read_one_graph(path: str, fmt: str, index: int, member_cap: int):
    graphs = _read_all_graphs(path, fmt, member_cap)
    if not graphs:
        raise GraphParseError(f"{path}: no graphs found")
    if not 0 <= index < len(graphs):
        raise GraphParseError(
            f"{path}: graph index {index} out of range 0..{len(graphs) - 1}"
        )
    return graphs[index]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_lift(args) -> int:
    cfg = _run_config(args, method=_LIFT_METHODS[args.kind])
    complex_ = cfg.lift(_read_one_graph(args.input, args.format, args.index, cfg.member_cap))
    if args.out:
        with open(args.out, "w", encoding="ascii") as handle:
            handle.write(serialize_complex(complex_))
    counts = complex_.counts()
    if args.output_format == "json":
        print(json.dumps({"kind": args.kind, "counts": counts}))
    else:
        print(" ".join(str(c) for c in counts))
    return EXIT_OK


def _cmd_test(args) -> int:
    cfg = _run_config(args)
    g1 = _read_one_graph(args.graph_a, args.format, args.index_a, cfg.member_cap)
    g2 = _read_one_graph(args.graph_b, args.format, args.index_b, cfg.member_cap)
    c1, c2 = cfg.lift(g1), cfg.lift(g2)
    if cfg.is_network:
        # separated iff every seed pushes the pair past epsilon
        outcomes = network_outcomes([c1, c2], [(0, 1)], cfg)
        separated = not any(o.indistinguishable for o in outcomes)
        rounds = cfg.layers
    else:
        h1, h2, rounds = refine_pair(c1, c2, rule=args.rule)
        separated = distinguishes(h1, h2)
    verdict = "DISTINGUISHED" if separated else "NOT-DISTINGUISHED"
    if args.output_format == "json":
        print(json.dumps({"verdict": verdict, "rounds": rounds}))
    else:
        print(f"{verdict} rounds={rounds}")
        if args.histograms and not cfg.is_network:
            print(f"histogram-a: {sorted(h1.counts.items())}")
            print(f"histogram-b: {sorted(h2.counts.items())}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    if not args.layers:
        raise _UsageError("--layers names no layer count")
    configs = []
    for method in args.methods.split(","):
        for layers in args.layers:
            cfg = _run_config(args, method=method.strip(), layers=layers)
            configs.append(cfg)
            if not cfg.is_network:
                break  # refinement methods ignore the layer sweep
    specs = parse_manifest(args.manifest)
    if not specs:
        print("warning: empty manifest, nothing to do", file=sys.stderr)
        return EXIT_OK
    result = sweep(specs, configs)
    if args.out_prefix:
        with open(args.out_prefix + ".csv", "w", encoding="ascii") as handle:
            handle.write(reports_to_csv(result.reports))
        with open(args.out_prefix + ".json", "w", encoding="ascii") as handle:
            handle.write(reports_to_json(result.reports, result.errors))
    if args.output_format == "csv":
        print(reports_to_csv(result.reports), end="")
    elif args.output_format == "json":
        print(reports_to_json(result.reports, result.errors))
    else:
        print(result.comparison_table())
    for family, method, message in result.errors:
        print(f"error: {family} [{method}]: {message}", file=sys.stderr)
    if result.errors and not result.reports:
        return EXIT_INPUT
    return EXIT_OK


def _cmd_families(args) -> int:
    cfg = _run_config(args, method=_LIFT_METHODS["cell"])
    complex_ = cfg.lift(_read_one_graph(args.input, args.format, args.index, cfg.member_cap))
    rings = list(complex_.dim_range(2))
    if not rings:
        print("no rings")
        return EXIT_OK
    payload = []
    for gid in rings:
        fam = cyclic_families(complex_.member(gid))
        payload.append(fam)
        if args.output_format != "json":
            print("ring " + "-".join(str(v) for v in complex_.carrier_of(gid)))
            for p in range(fam.top_dim, -1, -1):
                paths = sorted(fam.families[p])
                text = " ".join("(" + ",".join(str(v) for v in s) + ")" for s in paths)
                print(f"  F{p}: {text}")
    if args.output_format == "json":
        print(json.dumps([
            {
                "ring": list(f.cell_seq),
                "families": [sorted(list(s) for s in fam) for fam in f.families],
            }
            for f in payload
        ]))
    return EXIT_OK


def _cmd_time_lift(args) -> int:
    cfg = _run_config(args, method=_LIFT_METHODS[args.kind])
    graphs = _read_all_graphs(args.input, args.format, cfg.member_cap)
    stats = time_lifting(graphs, cfg, repeats=args.repeats)
    if args.output_format == "json":
        print(json.dumps(stats.to_dict()))
    else:
        print(f"{stats.label}: mean {stats.seconds_mean:.4f}s "
              f"std {stats.seconds_std:.4f}s min {stats.seconds_min:.4f}s "
              f"max {stats.seconds_max:.4f}s over {stats.repeats} repeats")
        print(f"member counts: {stats.member_counts}")
        print(f"environment: {stats.fingerprint}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="pathcomplex",
        description="Lift graphs to higher-order complexes, run refinement "
        "isomorphism tests, and reproduce distinguishability benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # RunConfig holds the default of every flag named after one of its fields
    max_dim = {"type": int, "default": RunConfig.max_dim}
    max_ring = {"type": int, "default": RunConfig.max_ring}

    p_lift = sub.add_parser("lift", help="lift a graph and serialize the complex")
    p_lift.add_argument("input")
    p_lift.add_argument("--kind", choices=tuple(_LIFT_METHODS), default="path")
    p_lift.add_argument("--max-dim", **max_dim)
    p_lift.add_argument("--max-ring", **max_ring)
    p_lift.add_argument("--format", choices=("auto", "graph6", "edges"), default="auto")
    p_lift.add_argument("--index", type=int, default=0,
                        help="graph index within a multi-graph file")
    p_lift.add_argument("--out", help="write the PCX v1 serialization here")
    _add_common_flags(p_lift)
    p_lift.set_defaults(func=_cmd_lift)

    p_test = sub.add_parser("test", help="compare two graphs")
    p_test.add_argument("graph_a")
    p_test.add_argument("graph_b")
    p_test.add_argument("--method", choices=tuple(METHODS), default="pwl")
    p_test.add_argument("--rule", choices=("reduced", "full"), default="reduced")
    p_test.add_argument("--max-dim", **max_dim)
    p_test.add_argument("--max-ring", **max_ring)
    p_test.add_argument("--layers", type=int, default=RunConfig.layers)
    p_test.add_argument("--format", choices=("auto", "graph6", "edges"), default="auto")
    p_test.add_argument("--index-a", type=int, default=0)
    p_test.add_argument("--index-b", type=int, default=0)
    p_test.add_argument("--histograms", action="store_true",
                        help="also dump the stable histograms")
    _add_common_flags(p_test)
    p_test.set_defaults(func=_cmd_test)

    p_bench = sub.add_parser("bench", help="run a family manifest")
    p_bench.add_argument("manifest")
    p_bench.add_argument("--methods", default="pcn",
                         help="comma list from " + ",".join(METHODS))
    p_bench.add_argument("--max-dim", **max_dim)
    p_bench.add_argument("--max-ring", **max_ring)
    p_bench.add_argument("--layers", type=int_list, default=(RunConfig.layers,),
                         help="comma list or range, e.g. 3..6")
    p_bench.add_argument("--out-prefix", help="write PREFIX.csv and PREFIX.json")
    _add_common_flags(p_bench)
    p_bench.set_defaults(func=_cmd_bench)

    p_fam = sub.add_parser("families", help="print cyclic families per ring")
    p_fam.add_argument("input")
    p_fam.add_argument("--max-ring", type=int, default=6)
    p_fam.add_argument("--format", choices=("auto", "graph6", "edges"), default="auto")
    p_fam.add_argument("--index", type=int, default=0)
    _add_common_flags(p_fam)
    p_fam.set_defaults(func=_cmd_families)

    p_time = sub.add_parser("time-lift", help="lifting wall-clock statistics")
    p_time.add_argument("input")
    p_time.add_argument("--kind", choices=tuple(_LIFT_METHODS), default="path")
    p_time.add_argument("--max-dim", **max_dim)
    p_time.add_argument("--max-ring", **max_ring)
    p_time.add_argument("--repeats", type=int, default=10)
    p_time.add_argument("--format", choices=("auto", "graph6", "edges"), default="auto")
    _add_common_flags(p_time)
    p_time.set_defaults(func=_cmd_time_lift)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            _apply_config_file(args)
        if args.output_format is None:
            args.output_format = "text"
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (GraphParseError, SerializationError, ManifestError, OSError) as exc:
        # OSError: an input path that is missing, a directory or unreadable,
        # or an --out path that cannot be written
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CapacityError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
