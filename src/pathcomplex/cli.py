"""Command-line entry point.

Subcommands: ``lift`` (graph -> serialized complex), ``test`` (two graphs ->
distinguishability verdict), ``bench`` (family manifest -> failure-rate
reports), ``families`` (rings -> cyclic family listing), and ``time-lift``
(lifting wall-clock statistics).

Configuration precedence is defaults < ``--config`` file < flags; the config
file is line-oriented ``key = value`` with ``#`` comments and unknown keys
are fatal.  Exit codes: 0 success, 1 usage or configuration error, 2 input
or parse error, 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, fields

from .bench import (
    METHODS,
    ManifestError,
    RunConfig,
    parse_manifest,
    reports_to_csv,
    reports_to_json,
    run_family,
    sweep,
    time_lifting,
)
from .complexes import (
    CapacityError,
    DEFAULT_MEMBER_CAP,
    LIFT_PARAMS,
    SerializationError,
    cyclic_families,
    lift_complex,
    serialize_complex,
)
from .graphs import GraphParseError, parse_edge_list, read_graph6_file
from .network import NetworkParams, embedding_distance, forward, init_features
from .refine import distinguishes, refine_pair

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_CAP = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@dataclass
class CliConfig:
    """The key=value settings shared by every subcommand."""

    boundary_mode: str = "incidence"
    member_cap: int = DEFAULT_MEMBER_CAP
    hidden_dim: int = 16
    embed_dim: int = 32
    epsilon: float = 0.01
    seeds: tuple = tuple(range(10))
    threads: int = 1
    output_format: str = "text"

    _KEYS = {
        "boundary-mode": ("boundary_mode", str),
        "member-cap": ("member_cap", int),
        "hidden-dim": ("hidden_dim", int),
        "embed-dim": ("embed_dim", int),
        "epsilon": ("epsilon", float),
        "seeds": ("seeds", "seeds"),
        "threads": ("threads", int),
        "output-format": ("output_format", str),
    }

    def apply(self, key: str, raw: str):
        if key not in self._KEYS:
            raise _UsageError(f"unknown configuration key {key!r}")
        attr, conv = self._KEYS[key]
        try:
            value = _parse_seeds(raw) if conv == "seeds" else conv(raw)
        except ValueError:
            raise _UsageError(f"bad value {raw!r} for configuration key {key!r}")
        setattr(self, attr, value)

    def validate(self):
        if self.boundary_mode not in ("incidence", "truncation"):
            raise _UsageError(f"bad boundary-mode {self.boundary_mode!r}")
        if self.output_format not in ("text", "csv", "json"):
            raise _UsageError(f"bad output-format {self.output_format!r}")
        if self.epsilon <= 0:
            raise _UsageError("epsilon must be positive")
        if self.member_cap <= 0 or self.threads <= 0:
            raise _UsageError("member-cap and threads must be positive")
        if self.hidden_dim <= 0 or self.embed_dim <= 0:
            raise _UsageError("hidden-dim and embed-dim must be positive")


def _parse_seeds(raw: str) -> tuple:
    out = []
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        if ".." in part:
            lo, hi = part.split("..", 1)
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return tuple(out)


def _load_config_file(path: str, cfg: CliConfig):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise _UsageError(f"{path}:{lineno}: expected 'key = value'")
                key, _, value = line.partition("=")
                cfg.apply(key.strip(), value.strip())
    except OSError as exc:
        raise _UsageError(f"cannot read config file {path}: {exc}")


def _build_cli_config(args) -> CliConfig:
    cfg = CliConfig()
    if getattr(args, "config", None):
        _load_config_file(args.config, cfg)
    for key in cfg._KEYS:
        flag_attr = key.replace("-", "_")
        value = getattr(args, flag_attr, None)
        if value is not None:
            cfg.apply(key, value if isinstance(value, str) else str(value))
    cfg.validate()
    return cfg


def _add_common_flags(parser):
    parser.add_argument("--config", help="key = value configuration file")
    parser.add_argument("--boundary-mode", choices=("incidence", "truncation"))
    parser.add_argument("--member-cap", type=int)
    parser.add_argument("--hidden-dim", type=int)
    parser.add_argument("--embed-dim", type=int)
    parser.add_argument("--epsilon", type=float)
    parser.add_argument("--seeds", help="comma list, ranges like 0..9 allowed")
    parser.add_argument("--threads", type=int)
    parser.add_argument("--output-format", choices=("text", "csv", "json"))


def _read_all_graphs(path: str, fmt: str):
    if fmt == "auto":
        fmt = "graph6" if path.endswith((".g6", ".graph6")) else "edges"
    if fmt == "graph6":
        return read_graph6_file(path)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise GraphParseError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    return [parse_edge_list(text)]


def _read_one_graph(path: str, fmt: str, index: int):
    graphs = _read_all_graphs(path, fmt)
    if not graphs:
        raise GraphParseError(f"{path}: no graphs found")
    if not 0 <= index < len(graphs):
        raise GraphParseError(
            f"{path}: graph index {index} out of range 0..{len(graphs) - 1}"
        )
    return graphs[index]


def _run_config(args, cfg: CliConfig, method: str, layers: int = 4) -> RunConfig:
    return RunConfig(
        method=method,
        max_dim=args.max_dim,
        max_ring=args.max_ring,
        layers=layers,
        seeds=cfg.seeds,
        epsilon=cfg.epsilon,
        boundary_mode=cfg.boundary_mode,
        hidden_dim=cfg.hidden_dim,
        embed_dim=cfg.embed_dim,
        member_cap=cfg.member_cap,
        threads=cfg.threads,
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_lift(args) -> int:
    cfg = _build_cli_config(args)
    g = _read_one_graph(args.input, args.format, args.index)
    complex_ = lift_complex(
        g, args.kind, getattr(args, LIFT_PARAMS[args.kind]),
        boundary_mode=cfg.boundary_mode, member_cap=cfg.member_cap,
    )
    if args.out:
        with open(args.out, "w", encoding="ascii") as handle:
            handle.write(serialize_complex(complex_))
    counts = complex_.counts()
    if cfg.output_format == "json":
        print(json.dumps({"kind": args.kind, "counts": counts}))
    else:
        print(" ".join(str(c) for c in counts))
    return EXIT_OK


def _cmd_test(args) -> int:
    cfg = _build_cli_config(args)
    g1 = _read_one_graph(args.graph_a, args.format, args.index_a)
    g2 = _read_one_graph(args.graph_b, args.format, args.index_b)
    run_cfg = _run_config(args, cfg, args.method, args.layers)
    run_cfg.validate()
    c1, c2 = run_cfg.lift(g1), run_cfg.lift(g2)
    if run_cfg.is_network:
        # separated iff every seed pushes the pair past epsilon
        f1 = init_features(c1, cfg.hidden_dim)
        f2 = init_features(c2, cfg.hidden_dim)
        separated = True
        rounds = args.layers
        for seed in cfg.seeds:
            params = NetworkParams.create(
                seed=seed, layers=args.layers, max_dim=c1.max_dim,
                hidden_dim=cfg.hidden_dim, embed_dim=cfg.embed_dim,
            )
            dist = embedding_distance(
                forward(c1, f1, params), forward(c2, f2, params)
            )
            if dist < cfg.epsilon:
                separated = False
    else:
        h1, h2, rounds = refine_pair(c1, c2, rule=args.rule)
        separated = distinguishes(h1, h2)
    verdict = "DISTINGUISHED" if separated else "NOT-DISTINGUISHED"
    if cfg.output_format == "json":
        print(json.dumps({"verdict": verdict, "rounds": rounds}))
    else:
        print(f"{verdict} rounds={rounds}")
        if args.histograms and not run_cfg.is_network:
            print(f"histogram-a: {sorted(h1.counts.items())}")
            print(f"histogram-b: {sorted(h2.counts.items())}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    cfg = _build_cli_config(args)
    specs = parse_manifest(args.manifest)
    if not specs:
        print("warning: empty manifest, nothing to do", file=sys.stderr)
        return EXIT_OK
    configs = []
    for method in args.methods.split(","):
        for layers in _parse_seeds(args.layers):
            run_cfg = _run_config(args, cfg, method.strip(), layers)
            run_cfg.validate()
            configs.append(run_cfg)
            if not run_cfg.is_network:
                break  # refinement methods ignore the layer sweep
    result = sweep(specs, configs)
    if args.out_prefix:
        with open(args.out_prefix + ".csv", "w", encoding="ascii") as handle:
            handle.write(reports_to_csv(result.reports))
        with open(args.out_prefix + ".json", "w", encoding="ascii") as handle:
            handle.write(reports_to_json(result.reports, result.errors))
    if cfg.output_format == "csv":
        print(reports_to_csv(result.reports), end="")
    elif cfg.output_format == "json":
        print(reports_to_json(result.reports, result.errors))
    else:
        print(result.comparison_table())
    for family, method, message in result.errors:
        print(f"error: {family} [{method}]: {message}", file=sys.stderr)
    if result.errors and not result.reports:
        return EXIT_INPUT
    return EXIT_OK


def _cmd_families(args) -> int:
    cfg = _build_cli_config(args)
    g = _read_one_graph(args.input, args.format, args.index)
    complex_ = lift_complex(g, "cell", args.max_ring, member_cap=cfg.member_cap)
    rings = list(complex_.dim_range(2))
    if not rings:
        print("no rings")
        return EXIT_OK
    payload = []
    for gid in rings:
        fam = cyclic_families(complex_.member(gid))
        payload.append(fam)
        if cfg.output_format != "json":
            print("ring " + "-".join(str(v) for v in complex_.carrier_of(gid)))
            for p in range(fam.top_dim, -1, -1):
                paths = sorted(fam.families[p])
                text = " ".join("(" + ",".join(str(v) for v in s) + ")" for s in paths)
                print(f"  F{p}: {text}")
    if cfg.output_format == "json":
        print(json.dumps([
            {
                "ring": list(f.cell_seq),
                "families": [sorted(list(s) for s in fam) for fam in f.families],
            }
            for f in payload
        ]))
    return EXIT_OK


def _cmd_time_lift(args) -> int:
    cfg = _build_cli_config(args)
    graphs = _read_all_graphs(args.input, args.format)
    # the refinement method that lifts to this kind with its configured parameter
    method = next(
        name for name, m in METHODS.items()
        if m.kind == args.kind and not m.network and m.fixed_param is None
    )
    stats = time_lifting(graphs, _run_config(args, cfg, method), repeats=args.repeats)
    if cfg.output_format == "json":
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

    p_lift = sub.add_parser("lift", help="lift a graph and serialize the complex")
    p_lift.add_argument("input")
    p_lift.add_argument("--kind", choices=tuple(LIFT_PARAMS), default="path")
    p_lift.add_argument("--max-dim", type=int, default=3)
    p_lift.add_argument("--max-ring", type=int, default=4)
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
    p_test.add_argument("--max-dim", type=int, default=3)
    p_test.add_argument("--max-ring", type=int, default=4)
    p_test.add_argument("--layers", type=int, default=4)
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
    p_bench.add_argument("--max-dim", type=int, default=3)
    p_bench.add_argument("--max-ring", type=int, default=4)
    p_bench.add_argument("--layers", default="4",
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
    p_time.add_argument("--kind", choices=tuple(LIFT_PARAMS), default="path")
    p_time.add_argument("--max-dim", type=int, default=3)
    p_time.add_argument("--max-ring", type=int, default=4)
    p_time.add_argument("--repeats", type=int, default=10)
    p_time.add_argument("--format", choices=("auto", "graph6", "edges"), default="auto")
    _add_common_flags(p_time)
    p_time.set_defaults(func=_cmd_time_lift)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (GraphParseError, SerializationError, ManifestError,
            FileNotFoundError) as exc:
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
