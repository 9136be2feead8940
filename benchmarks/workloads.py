"""Seeded inputs for the benchmark workloads.

Each workload is generated from its seed alone. The program under test sees
only what is generated here: sweep configs, or a list of CLI queries with
their symbol files.

A sweep workload is split into parts, one sweep config per (phi, g) pair
with every kind, alpha and beta, so that a run repeats each part several
times and its rate can be taken from the median time of each part.

The seed varies the inputs while keeping the amount of work equal, so that
runs at different seeds measure the same thing: it shuffles the order of
every sweep list, and the order of the queries of each cycle of the query
stream. The queries of a cycle are the same for every seed, because their
cost depends on the parameters (symbol and kind most) more than a run's
few dozen deep queries average out; they are drawn once in shuffled
rounds over all values, so each value is drawn equally often, within query
classes whose count in every block of the stream is fixed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

#: exponents of the standard sweep, on which acceptance 06 checks every ratio
EXPONENTS = [0.5, 1.0, 1.5, 2.0, 2.5]

#: sweep betas: standard exponents, on which acceptance 06 checks the ratios
SWEEP_BETAS = (1.0, 2.0)

PHI_Z = {"family": "scaled_identity", "params": {"c": 1.0}}
PHI_HALF = {"family": "scaled_identity", "params": {"c": 0.5}}
PHI_SQ = {"family": "poly", "params": {"coeffs": [0.0, 0.0, 1.0]}}
PHI_MOBIUS = {"family": "mobius", "params": {"a": 0.5}}
G_Z = {"family": "identity"}
G_SQ = {"family": "poly", "params": {"coeffs": [0.0, 0.0, 1.0]}}
G_LOG = {"family": "log_cesaro"}

SHALLOW_SYMBOLS = [{"phi": phi, "g": g}
                   for phi in (PHI_Z, PHI_HALF, PHI_SQ) for g in (G_Z, G_SQ)]
#: the 513-coefficient truncated symbols, each paired with z
DEEP_SYMBOLS = [{"phi": PHI_MOBIUS, "g": G_Z}, {"phi": PHI_Z, "g": G_LOG}]

#: a grid and sequence length small enough for the smoke tests
SMOKE_GRID = {"radii_count": 8, "angles": 64, "j_max": 12}
SMOKE_NSEQ = 64
SMOKE_FLAGS = ["--nseq", str(SMOKE_NSEQ), "--grid-angles",
               str(SMOKE_GRID["angles"]), "--jmax", str(SMOKE_GRID["j_max"])]

#: query classes and their count in every block of the query stream; the
#: norms query of the first block of each cycle takes the deep Mobius
#: symbol (about 2 s), the others a shallow one
QUERY_BLOCK = (("criterion-shallow", 11), ("essnorm-shallow", 8),
               ("criterion-deep", 2), ("essnorm-deep", 2),
               ("norms", 1), ("verify-testfns", 1))
BLOCK_SIZE = sum(n for _, n in QUERY_BLOCK)

#: blocks generated per queries workload; a run uses a prefix of them
QUERY_BLOCKS = 40
#: blocks in one cycle of the query stream, about one run's worth
CYCLE_BLOCKS = 8

TESTFN_A_GRID = [0.6, 0.7, 0.8, 0.9, 0.95]

SWEEPS = ("sweep-poly", "sweep-series")
WORKLOADS = SWEEPS + ("queries",)
#: the default 1200-cell sweep, timed for reference and never gated
REFERENCE = "reference-sweep"


@dataclass
class Query:
    """One CLI invocation; --config and --out are added when it runs."""
    cls: str
    argv: list
    symbol: int | None = None      # index into Workload.symbols
    kind: str | None = None
    alpha: float | None = None
    beta: float | None = None


@dataclass
class Workload:
    name: str
    grid: dict                     # DiskGrid config of every operation
    symbols: list                  # {"phi", "g"} specs certified in set-up
    sweeps: list = field(default_factory=list)  # sweep configs of the parts;
                                                # None is the default sweep
    queries: list = field(default_factory=list)


def _shuffled(rng: random.Random, items) -> list:
    out = list(items)
    rng.shuffle(out)
    return out


def _sweep(name: str, seed: int, kinds, smoke: bool) -> Workload:
    rng = random.Random(f"{name}/{seed}")
    if name == "sweep-poly":
        phis, gs, nseq = (PHI_Z, PHI_HALF, PHI_SQ), (G_Z, G_SQ), 4096
    else:
        phis, gs, nseq = (PHI_MOBIUS, PHI_Z), (G_Z, G_LOG), 512
    grid = dict(SMOKE_GRID) if smoke else {}
    pairs = _shuffled(rng, [(p, g) for p in phis for g in gs])
    parts = [{
        "kinds": _shuffled(rng, kinds),
        "phis": [phi],
        "gs": [g],
        "alphas": _shuffled(rng, EXPONENTS),
        "betas": _shuffled(rng, SWEEP_BETAS),
        "nseq": SMOKE_NSEQ if smoke else nseq,
        "grid": grid,
    } for phi, g in pairs]
    symbols = [{"phi": p, "g": g} for p, g in pairs]
    return Workload(name, grid, symbols, sweeps=parts)


class _Rounds:
    """Draws from ``items`` in shuffled rounds: every item once per round."""

    def __init__(self, rng: random.Random, items):
        self.rng, self.items, self.pending = rng, list(items), []

    def draw(self):
        if not self.pending:
            self.pending = _shuffled(self.rng, self.items)
        return self.pending.pop()


def _cycle(kinds, smoke: bool) -> dict:
    """The queries of one cycle of the query stream, by class. The norms
    query of the first block of a cycle takes the deep Mobius symbol."""
    rng = random.Random("queries/cycle")
    rounds: dict = {}

    def draw(cls: str, factor: str, items):
        if (cls, factor) not in rounds:
            rounds[cls, factor] = _Rounds(rng, items)
        return rounds[cls, factor].draw()

    shallow = range(len(SHALLOW_SYMBOLS))
    deep = range(len(SHALLOW_SYMBOLS), len(SHALLOW_SYMBOLS) + len(DEEP_SYMBOLS))
    extra = SMOKE_FLAGS if smoke else []
    cycle = {}
    for cls, count in QUERY_BLOCK:
        queries = cycle[cls] = []
        for i in range(count * CYCLE_BLOCKS):
            if cls.startswith(("criterion", "essnorm")):
                command = cls.split("-")[0]
                symbols = deep if cls.endswith("-deep") else shallow
                symbol, kind = draw(cls, "symbol-kind",
                                    [(s, k) for s in symbols for k in kinds])
                alpha = draw(cls, "alpha", EXPONENTS)
                beta = draw(cls, "beta", EXPONENTS)
                argv = [command, "--op", kind, "--alpha", repr(alpha), "--beta", repr(beta)]
                queries.append(Query(cls, argv + extra, symbol, kind, alpha, beta))
            elif cls == "norms":
                symbol = deep[0] if i == 0 else draw(cls, "symbol", shallow)
                alpha = draw(cls, "alpha", EXPONENTS)
                queries.append(Query(cls, ["norms", "--alphas", repr(alpha)] + extra,
                                     symbol, alpha=alpha))
            else:
                a_grid = sorted(rng.sample(TESTFN_A_GRID, 2))
                alphas = sorted(rng.sample(EXPONENTS, 2))
                argv = ["verify-testfns", "--a-grid", ",".join(map(repr, a_grid)),
                        "--alphas", ",".join(map(repr, alphas))]
                queries.append(Query(cls, argv + extra))
    return cycle


def _queries(seed: int, kinds, smoke: bool) -> Workload:
    rng = random.Random(f"queries/{seed}")
    cycle = _cycle(kinds, smoke)
    block = [cls for cls, count in QUERY_BLOCK for _ in range(count)]
    queries = []
    for _ in range(QUERY_BLOCKS // CYCLE_BLOCKS):
        # norms keep their order, so that each cycle starts with the deep one
        pending = {cls: list(qs) if cls == "norms" else _shuffled(rng, qs)
                   for cls, qs in cycle.items()}
        for _ in range(CYCLE_BLOCKS):
            queries += [pending[cls].pop(0) for cls in _shuffled(rng, block)]
    grid = dict(SMOKE_GRID) if smoke else {}
    return Workload("queries", grid, SHALLOW_SYMBOLS + DEEP_SYMBOLS, queries=queries)


def make_workload(name: str, seed: int, kinds, smoke: bool = False) -> Workload:
    """The inputs of workload ``name`` at ``seed``; ``kinds`` are the
    operator kinds of the package under test."""
    if name in SWEEPS:
        return _sweep(name, seed, kinds, smoke)
    if name == "queries":
        return _queries(seed, kinds, smoke)
    if name == REFERENCE:
        return Workload(name, {}, [], sweeps=[None])
    raise ValueError(f"unknown workload {name!r}")
