"""Pairwise distinguishability harness over strongly-regular-graph families.

A family is a graph6 file plus its ``(n, k, lambda, mu)`` parameters; every
graph is validated on load.  :data:`METHODS` says how each method lifts a
graph and judges a pair: refinement methods (``pwl``, ``swl``, ``cwl``, and
``wl1``, the engine on the 1-dimensional path complex) call a pair
indistinguishable when the stable fingerprints are equal, one engine run per
graph; network methods (``pcn``, ``cwn``) when the embedding distance falls
below epsilon, once per seed.  Complexes are lifted once per graph and
shared across pairs, seeds, and sweep cells; ``lift_ms`` reports what
producing them (the lift and its boundary CSR) cost, also when they came
from the cache.  They keep no member-level upper triples: each engine run
over members builds its own, and the class quotients that the network and
warm pairs read are generated from the boundary CSR.
"""

from __future__ import annotations

import itertools
import json
import os
import platform
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .complexes import (
    CapacityError,
    DEFAULT_MEMBER_CAP,
    LIFT_PARAMS,
    check_lift_args,
    lift_complex,
)
from .graphs import check_integer, read_graph6_file, read_text
from .network import NetworkParams, embed, embedding_distance
from .refine import WL1_DIM, stable_fingerprint
from .srg import is_strongly_regular

__all__ = [
    "METHODS",
    "Method",
    "ManifestError",
    "FamilySpec",
    "RunConfig",
    "SeedOutcome",
    "FailureReport",
    "SweepResult",
    "TimingStats",
    "parse_manifest",
    "load_family",
    "run_family",
    "network_outcomes",
    "sweep",
    "time_lifting",
    "reports_to_csv",
    "reports_to_json",
]


@dataclass(frozen=True)
class Method:
    """How one method turns graphs into complexes and judges a pair.

    The lift takes the structural parameter that ``LIFT_PARAMS[kind]`` names
    from the run configuration, unless ``fixed_param`` pins it.
    """

    kind: str
    network: bool = False  # judged by embedding distance, not histograms
    fixed_param: Optional[int] = None


METHODS = {
    "pwl": Method("path"),
    "swl": Method("simplex"),
    "cwl": Method("cell"),
    # vertex refinement: the engine on the 1-dimensional path complex
    "wl1": Method("path", fixed_param=WL1_DIM),
    "pcn": Method("path", network=True),
    "cwn": Method("cell", network=True),
}


class ManifestError(ValueError):
    """Malformed family manifest line."""


@dataclass(frozen=True)
class FamilySpec:
    """One named family: a graph6 file and its strongly-regular parameters."""

    name: str
    path: str
    n: int
    k: int
    lam: int
    mu: int


@dataclass(frozen=True)
class RunConfig:
    """Method selection plus every knob the engines accept."""

    method: str = "pcn"
    max_dim: int = 3
    max_ring: int = 4
    layers: int = 4
    seeds: tuple = tuple(range(10))
    epsilon: float = 0.01
    boundary_mode: str = "incidence"
    hidden_dim: int = 16
    embed_dim: int = 32
    member_cap: int = DEFAULT_MEMBER_CAP
    threads: int = 1

    def validate(self):
        """Raise ``TypeError`` or ``ValueError`` for any setting the engines cannot run."""
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        check_lift_args(*self.lift_args[:3])
        NetworkParams.check_shape(self.layers, self.hidden_dim, self.embed_dim)
        if not 0 < self.epsilon < float("inf"):  # nan compares false too
            raise ValueError("epsilon must be positive and finite")
        check_integer("member_cap", self.member_cap)
        check_integer("threads", self.threads)
        if self.member_cap <= 0 or self.threads <= 0:
            raise ValueError("member-cap and threads must be positive")
        if self.is_network and not self.seeds:
            raise ValueError(f"method {self.method!r} needs a non-empty seed list")
        for seed in self.seeds:
            NetworkParams.check_seed(seed)

    @property
    def lift_args(self) -> tuple:
        """``(kind, param, boundary_mode, member_cap)`` for :func:`lift_complex`."""
        m = METHODS[self.method]
        param = m.fixed_param
        if param is None:
            param = getattr(self, LIFT_PARAMS[m.kind])
        return (m.kind, param, self.boundary_mode, self.member_cap)

    def lift(self, g):
        return lift_complex(g, *self.lift_args)

    @property
    def structural_param(self) -> int:
        """The configurable lift parameter; 0 when the method fixes it (wl1)."""
        if METHODS[self.method].fixed_param is not None:
            return 0
        return self.lift_args[1]

    @property
    def is_network(self) -> bool:
        return METHODS[self.method].network


@dataclass(frozen=True)
class SeedOutcome:
    seed: Optional[int]
    pairs: int
    indistinguishable: int
    failure_rate: float
    forward_ms: float


@dataclass
class FailureReport:
    family: str
    method: str
    structural_param: int
    layers: Optional[int]
    pairs: int
    outcomes: list = field(default_factory=list)
    lift_ms: float = 0.0
    skipped: bool = False
    diagnostic: str = ""

    @property
    def rates(self) -> list:
        return [o.failure_rate for o in self.outcomes]

    def aggregate(self) -> dict:
        rates = self.rates
        if not rates:
            return {"mean": None, "std": None, "min": None, "max": None}
        arr = np.asarray(rates, dtype=np.float64)
        return {
            "mean": float(arr.mean()),
            "std": float(arr.std()),
            "min": float(arr.min()),
            "max": float(arr.max()),
        }

    def to_dict(self) -> dict:
        return {**asdict(self), "aggregate": self.aggregate()}


def parse_manifest(path) -> list:
    """Line-oriented family manifest: ``name path n k lambda mu``.

    A malformed line raises :class:`ManifestError` naming ``file:line``.
    """
    text = read_text(path, "ASCII", ManifestError)
    specs = []
    base = os.path.dirname(os.path.abspath(path))
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 6 or not all(x.isdigit() for x in parts[2:]):
            raise ManifestError(
                f"{path}:{lineno}: expected 'name path n k lambda mu' "
                f"with integer parameters, got {line!r}"
            )
        name, rel = parts[0], parts[1]
        file_path = rel if os.path.isabs(rel) else os.path.join(base, rel)
        n, k, lam, mu = (int(x) for x in parts[2:])
        specs.append(FamilySpec(name, file_path, n, k, lam, mu))
    return specs


def load_family(spec: FamilySpec) -> list:
    graphs = read_graph6_file(spec.path)
    for i, g in enumerate(graphs):
        if not is_strongly_regular(g, spec.n, spec.k, spec.lam, spec.mu):
            raise ValueError(
                f"{spec.name}: graph {i} in {spec.path} fails the "
                f"({spec.n},{spec.k},{spec.lam},{spec.mu}) parameter check"
            )
    return graphs


def _lift_all(graphs, cfg: RunConfig):
    """Lift every graph; returns ``(complexes, milliseconds)``.

    The time covers the lift and its boundary CSR, the only index a lift
    keeps.  No member-level upper triples are cached: the first engine run
    on a complex builds them for that run alone, and its time lands in that
    cell's ``forward_ms``.
    """
    t0 = time.monotonic()
    complexes = [cfg.lift(g) for g in graphs]
    return complexes, (time.monotonic() - t0) * 1000.0


class _LiftCache:
    """Loaded and lifted families, with the time the lift took, shared
    across cells.

    A family is keyed by its file and its ``(n, k, lambda, mu)``, so a hit
    never skips a parameter check that a fresh load would fail; a lift also
    by every argument of the lift call, so two cells with different member
    caps never share complexes.
    """

    def __init__(self):
        self.families = {}
        self.store = {}

    def graphs(self, spec: FamilySpec) -> list:
        key = (spec.path, spec.n, spec.k, spec.lam, spec.mu)
        if key not in self.families:
            self.families[key] = load_family(spec)
        return self.families[key]

    def get(self, spec: FamilySpec, cfg: RunConfig):
        key = (spec.path, spec.n, spec.k, spec.lam, spec.mu, *cfg.lift_args)
        if key not in self.store:
            self.store[key] = _lift_all(self.graphs(spec), cfg)
        return self.store[key]


def _map_jobs(fn, jobs, threads: int):
    if threads > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, jobs))
    return [fn(job) for job in jobs]


def network_outcomes(complexes, pairs, cfg: RunConfig) -> list:
    """The network verdict on ``pairs`` of ``complexes``, one
    :class:`SeedOutcome` per seed of ``cfg``.

    Each seed draws one set of random weights for every complex; under it a
    pair is indistinguishable when the :func:`~pathcomplex.network.embed`
    embeddings (of each complex's initial features) lie within epsilon.
    Without pairs nothing is judged, so no network runs.
    """
    if not pairs:
        return [SeedOutcome(seed, 0, 0, 0.0, 0.0) for seed in cfg.seeds]
    outcomes = []
    for seed in cfg.seeds:
        params = NetworkParams.create(
            seed=seed,
            layers=cfg.layers,
            max_dim=complexes[0].max_dim,
            hidden_dim=cfg.hidden_dim,
            embed_dim=cfg.embed_dim,
        )
        t0 = time.monotonic()
        embeddings = _map_jobs(
            lambda i: embed(complexes[i], params),
            list(range(len(complexes))),
            cfg.threads,
        )
        fwd_ms = (time.monotonic() - t0) * 1000.0
        bad = sum(
            embedding_distance(embeddings[i], embeddings[j]) < cfg.epsilon
            for i, j in pairs
        )
        outcomes.append(SeedOutcome(seed, len(pairs), bad, bad / len(pairs), fwd_ms))
    return outcomes


def run_family(
    spec: FamilySpec,
    cfg: RunConfig,
    cache: Optional[_LiftCache] = None,
) -> FailureReport:
    """Failure rate of one method on every graph pair of one family."""
    cfg.validate()
    cache = _LiftCache() if cache is None else cache
    pairs = list(itertools.combinations(range(len(cache.graphs(spec))), 2))
    report = FailureReport(
        family=spec.name,
        method=cfg.method,
        structural_param=cfg.structural_param,
        layers=cfg.layers if cfg.is_network else None,
        pairs=len(pairs),
    )
    try:
        complexes, report.lift_ms = cache.get(spec, cfg)
    except CapacityError as exc:
        report.skipped = True
        report.diagnostic = f"member cap exceeded while lifting: {exc}"
        return report

    if cfg.is_network:
        report.outcomes = network_outcomes(complexes, pairs, cfg)
        return report

    # refinement methods: one outcome, seed None; b equal fingerprints make
    # b(b-1)/2 indistinguishable pairs.  Each job owns one complex's cache.
    t0 = time.monotonic()
    prints = _map_jobs(stable_fingerprint, complexes, cfg.threads) if pairs else ()
    bad = sum(b * (b - 1) // 2 for b in Counter(prints).values())
    rate = bad / len(pairs) if pairs else 0.0
    report.outcomes.append(
        SeedOutcome(None, len(pairs), bad, rate,
                    (time.monotonic() - t0) * 1000.0)
    )
    return report


@dataclass
class SweepResult:
    reports: list = field(default_factory=list)
    errors: list = field(default_factory=list)  # (family, method, message)

    def comparison_table(self) -> str:
        """Family x (method, layers) matrix of mean/std/min/max rates."""
        columns = sorted(
            {(r.method, r.structural_param, r.layers) for r in self.reports},
            key=lambda c: (c[0], c[1], c[2] if c[2] is not None else -1),
        )
        families = sorted({r.family for r in self.reports})
        by_cell = {
            (r.family, r.method, r.structural_param, r.layers): r
            for r in self.reports
        }

        def header(col):
            method, param, layers = col
            tag = f"{method}({param})"
            return f"{tag} L={layers}" if layers is not None else tag

        width = max([14] + [len(header(c)) + 2 for c in columns])
        lines = []
        head = " " * 26 + "".join(header(c).rjust(width) for c in columns)
        lines.append(head)
        for fam in families:
            for stat in ("mean", "std", "min", "max"):
                cells = []
                for col in columns:
                    r = by_cell.get((fam, col[0], col[1], col[2]))
                    if r is None:
                        cells.append("-".rjust(width))
                    elif r.skipped:
                        cells.append("skip".rjust(width))
                    else:
                        value = r.aggregate()[stat]
                        cells.append(f"{value:.5g}".rjust(width))
                label = fam if stat == "mean" else ""
                lines.append(f"{label:<20}{stat:>6}" + "".join(cells))
        return "\n".join(lines)


def sweep(specs, configs) -> SweepResult:
    """Run every (family, config) cell; one failing cell never aborts the rest."""
    result = SweepResult()
    cache = _LiftCache()
    for spec in specs:
        for cfg in configs:
            try:
                result.reports.append(run_family(spec, cfg, cache=cache))
            except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
                result.errors.append((spec.name, cfg.method, str(exc)))
    return result


@dataclass
class TimingStats:
    label: str
    repeats: int
    seconds_mean: float
    seconds_std: float
    seconds_min: float
    seconds_max: float
    member_counts: list
    fingerprint: str

    def to_dict(self) -> dict:
        return self.__dict__.copy()


# BLAS/OpenMP thread settings: bitwise equal embeddings need equal values.
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _environment_fingerprint() -> str:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:  # numpy builds before 1.26 cannot report their BLAS as a dict
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"BLAS {blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "BLAS unknown"
    threads = "".join(f"; {v}={os.environ[v]}" for v in _THREAD_VARS if v in os.environ)
    return (
        f"{cpu}; {os.cpu_count()} logical cpus; python {platform.python_version()}; "
        f"numpy {np.__version__}; {blas}{threads}"
    )


def time_lifting(graphs, cfg: RunConfig, repeats: int = 10) -> TimingStats:
    """Wall-clock statistics for lifting a graph list ``repeats`` times."""
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    samples = []
    counts = []
    for r in range(repeats):
        t0 = time.monotonic()
        lifted = [cfg.lift(g) for g in graphs]
        samples.append(time.monotonic() - t0)
        if r == 0:
            counts = [c.counts() for c in lifted]
    arr = np.asarray(samples)
    label = f"{cfg.method} param={cfg.structural_param} on {len(graphs)} graphs"
    return TimingStats(
        label=label,
        repeats=repeats,
        seconds_mean=float(arr.mean()),
        seconds_std=float(arr.std()),
        seconds_min=float(arr.min()),
        seconds_max=float(arr.max()),
        member_counts=counts,
        fingerprint=_environment_fingerprint(),
    )


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

_CSV_FIELDS = (
    "family", "method", "max_dim", "layers", "seed", "failure_rate",
    "pairs", "indistinguishable", "lift_ms", "forward_ms",
)


def reports_to_csv(reports) -> str:
    import csv
    import io

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(_CSV_FIELDS)
    for r in reports:
        layers = "" if r.layers is None else r.layers
        if r.skipped:
            writer.writerow(
                [r.family, r.method, r.structural_param, layers,
                 "", "", "", "", "skipped", ""]
            )
            continue
        for o in r.outcomes:
            writer.writerow(
                [r.family, r.method, r.structural_param, layers,
                 "" if o.seed is None else o.seed,
                 f"{o.failure_rate:.10g}", o.pairs, o.indistinguishable,
                 f"{r.lift_ms:.3f}", f"{o.forward_ms:.3f}"]
            )
    return out.getvalue()


def reports_to_json(reports, errors=()) -> str:
    doc = {
        "reports": [r.to_dict() for r in reports],
        "errors": [
            {"family": f, "method": m, "message": msg} for f, m, msg in errors
        ],
        "environment": _environment_fingerprint(),
    }
    return json.dumps(doc, indent=2, sort_keys=True)
