"""Command-line front end: experiments, sweeps, and CSV/JSON reports.

Subcommands
-----------
lemma25         monomial-norm asymptotics for standard and log weights
norms           Zygmund/Bloch/weighted norms of the configured symbols
verify-testfns  claim report for the boundary test-function families
identities      seeded property suite over the operator algebra
criterion       boundedness report for one operator
essnorm         essential-norm estimate for one operator
sweep           full grid of criterion + essential-norm reports

Exit codes: 0 success, 1 invariant failure, 2 configuration error.
All outputs are deterministic for a fixed config and seed: reports carry
no timestamps, floats are emitted with shortest-repr, keys are sorted.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import numbers
import sys
from pathlib import Path

import numpy as np

from .criteria import CriterionReport, cell_sups, check_boundedness, take_sups
from .essnorm import (EssNormEstimate, OperatorNotBoundedError, essential_norm,
                      inverse_log_fit)
from .operators import (KINDS, SelfMapSymbol, apply_product, apply_ug, apply_vg,
                        product_second_derivative, symbol_from_config)
from .series import TruncatedSeries
from .spaces import (DiskGrid, NonFiniteValueError, Weight, bloch_norm, config_int,
                     monomial_norm, weighted_sup_norm, zygmund_norm)
from .testfns import verify_family_claims

MAX_CHECKPOINT = 10 ** 7

#: checkpoints within this factor of the largest enter the a + b/log n fit
LOG_FIT_SPAN = 100.0

#: what reading a malformed symbol spec or sweep config raises
SPEC_FAULTS = (AttributeError, IndexError, KeyError, TypeError, ValueError)

DEFAULT_SWEEP_CONFIG = {
    "kinds": list(KINDS),
    "phis": [
        {"family": "scaled_identity", "params": {"c": 1.0}},
        {"family": "scaled_identity", "params": {"c": 0.5}},
        {"family": "mobius", "params": {"a": 0.5}},
        {"family": "poly", "params": {"coeffs": [0.0, 0.0, 1.0]}},
    ],
    "gs": [
        {"family": "identity"},
        {"family": "poly", "params": {"coeffs": [0.0, 0.0, 1.0]}},
        {"family": "log_cesaro"},
    ],
    "alphas": [0.5, 1.0, 1.5, 2.0, 2.5],
    "betas": [0.5, 1.0, 1.5, 2.0, 2.5],
    "nseq": 4096,
    "compact_tol": 1e-3,
    "grid": {},
}


class ConfigError(ValueError):
    """Invalid or missing configuration."""


# -- serialization helpers -----------------------------------------------------


def _complex_pair(obj):
    """json.dumps' hook for values JSON has no type for: complex becomes [re, im]."""
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def write_json(path: Path, payload) -> None:
    """The report ``payload`` as indented JSON with sorted keys, encoded in
    one ``json.dumps`` and written in one call."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=_complex_pair)
                    + "\n", encoding="utf-8")


def write_csv(path: Path, header: list, rows=(), columns=None) -> None:
    """A CSV of ``rows``, or the n-indexed table of ``columns``.

    ``columns`` are equal-length float arrays, written as the rows
    ``n, repr(col[n]), ...`` in one formatting pass. An int or a repr'd
    float holds no comma, quote or line break, so csv.writer would quote
    none of those fields: the bytes are the ones it writes for those rows.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        if columns is None:
            writer.writerows(rows)
            return
        line = ",".join(["{}"] + ["{!r}"] * len(columns)) + "\r\n"
        fh.write("".join(map(line.format, range(len(columns[0])),
                             *(c.tolist() for c in columns))))


def criterion_report_dict(report: CriterionReport) -> dict:
    return {
        "kind": report.kind,
        "alpha": report.alpha,
        "beta": report.beta,
        "verdict": report.verdict,
        "memberships": [
            {"label": m.label, "norm": m.norm, "diverging": bool(m.diverging),
             "finite": m.finite}
            for m in report.memberships
        ],
        "quantities": [
            {"label": q.label, "u": q.u_label, "scale": list(q.scale),
             "sequence_side": q.sequence_side, "pointwise_side": q.pointwise_side,
             "ratio": q.ratio, "n_at_sup": q.n_at_sup,
             "sequence_at_cap": bool(q.sequence_at_cap),
             "sequence_growing": bool(q.sequence_growing),
             "pointwise_diverging": bool(q.pointwise_diverging),
             "pointwise_argmax": complex(q.sup_estimate.argmax),
             "divergence_evidence": bool(q.divergence_evidence)}
            for q in report.quantities
        ],
    }


def essnorm_dict(est: EssNormEstimate) -> dict:
    return {
        "kind": est.kind,
        "alpha": est.alpha,
        "beta": est.beta,
        "combined": est.combined,
        "compact_flag": bool(est.compact_flag),
        "theorem_zero": bool(est.theorem_zero),
        "conditions": [
            {"label": c.label, "u": c.u_label, "scale": list(c.scale),
             "diagnostic_only": bool(c.diagnostic_only),
             "sequence_estimate": c.sequence_estimate,
             "sequence_trend": c.sequence_trend,
             "sequence_extrapolated": c.sequence_extrapolated,
             "boundary_estimate": c.boundary.estimate,
             "boundary_trend": c.boundary.trend,
             "boundary_ladder": [[e, s] for e, s in zip(c.boundary.eps, c.boundary.sups)]}
            for c in est.conditions
        ],
    }


# -- config plumbing -----------------------------------------------------------


def load_json_config(path: str | None) -> dict:
    if path is None:
        raise ConfigError("this subcommand requires --config")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc


def merge_flags(cfg: dict, args) -> dict:
    """``cfg`` with --nseq, --grid-angles and --jmax merged in as its nseq,
    grid.angles and grid.j_max: a flag fills a value ``cfg`` leaves out, and
    one that disagrees with a value it sets is a config error."""
    for path, value in (("nseq", args.nseq), ("grid.angles", args.grid_angles),
                        ("grid.j_max", args.jmax)):
        if value is None:
            continue
        *outer, key = path.split(".")
        section = cfg.setdefault("grid", {}) if outer else cfg
        if not isinstance(section, dict):
            raise ConfigError("sweep config entry 'grid' must be an object")
        if section.setdefault(key, value) != value:
            raise ConfigError(f"flag value {value} for {path} conflicts with the "
                              f"config's {section[key]!r}")
    return cfg


def grid_from_args(args) -> DiskGrid:
    try:
        return DiskGrid.from_config(merge_flags({}, args).get("grid", {}))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def is_number(value) -> bool:
    """A JSON number: an int or a float, never a bool or a string."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_operator_args(alphas, betas, n_seq: int) -> None:
    """The one rule for exponent arguments, from the criterion, essnorm,
    norms, verify-testfns and lemma25 flags or from a sweep config, as
    config errors before any work: every alpha and beta a positive finite
    number, never a bool, and nseq at least 1."""
    for name, value in [("alpha", a) for a in alphas] + [("beta", b) for b in betas]:
        if not (is_number(value) and value > 0 and math.isfinite(value)):
            raise ConfigError(f"{name} must be positive and finite, got {value!r}")
    if n_seq < 1:
        raise ConfigError(f"nseq must be >= 1, got {n_seq}")


def symbol_from_file(args, grid: DiskGrid) -> SelfMapSymbol:
    cfg = load_json_config(args.config)
    if not isinstance(cfg, dict) or "phi" not in cfg or "g" not in cfg:
        raise ConfigError('symbol config must contain "phi" and "g" entries')
    unknown = sorted(set(cfg) - {"phi", "g"})
    if unknown:
        raise ConfigError(f"unknown symbol config keys: {', '.join(unknown)} "
                          '(a symbol file holds only "phi" and "g")')
    try:
        return symbol_from_config(cfg, grid=grid)
    except SPEC_FAULTS as exc:
        raise ConfigError(f"bad symbol config: {exc}") from exc


def _parse_floats(text: str) -> list:
    try:
        values = [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated numbers, got {text!r}") from exc
    if not values:
        raise ConfigError("empty numeric list")
    return values


def _parse_ints(text: str) -> list:
    """Comma-separated integers, each as ``int`` parses it: the rule of
    --nseq, so 10.7 or 1e1 is an error, never rounded."""
    try:
        values = [int(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated integers, got {text!r}") from exc
    if not values:
        raise ConfigError("empty integer list")
    return values


def _parse_alphas(text: str) -> list:
    alphas = _parse_floats(text)
    check_operator_args(alphas, [], 1)
    return alphas


def _parse_a_grid(text: str) -> list:
    a_grid = _parse_floats(text)
    for a in a_grid:
        if not (0.0 < abs(a) < 1.0):
            raise ConfigError(f"parameter a must satisfy 0 < |a| < 1, got {a!r}")
    return a_grid


# -- lemma25 -------------------------------------------------------------------


def lemma25_log_fit(checkpoints, values) -> dict:
    """Least-squares a + b/log(n) over the top factor-LOG_FIT_SPAN checkpoints."""
    ns = np.asarray(checkpoints, dtype=float)
    vs = np.asarray(values, dtype=float)
    cut = ns.max() / LOG_FIT_SPAN
    mask = ns >= cut
    if mask.sum() < 3:
        mask = np.argsort(ns) >= len(ns) - 3
    a, b = inverse_log_fit(ns[mask], vs[mask])
    return {"a": a, "b": b, "fit_checkpoints": [int(n) for n in ns[mask]]}


def run_lemma25(alphas, checkpoints, out_dir: Path) -> dict:
    """Monomial-norm asymptotics tables; returns the summary dict.

    Writes lemma25_standard.csv with (alpha, n, scaled, target, rel_error)
    rows, lemma25_log.csv with (n, scaled) rows, and lemma25_log_fit.json
    with the a + b/log n extrapolation.
    """
    if not alphas:
        raise ConfigError("alpha list must be non-empty")
    if not checkpoints:
        raise ConfigError("checkpoint list must be non-empty")
    if max(checkpoints) > MAX_CHECKPOINT:
        raise ConfigError(f"checkpoints are capped at {MAX_CHECKPOINT}")
    if min(checkpoints) < 1:
        raise ConfigError("checkpoints must be >= 1")
    if max(checkpoints) < 2:
        raise ConfigError("at least one checkpoint must be >= 2: the log table's "
                          "a + b/log n fit reads n >= 2")

    std_rows = []
    standard = {}
    for alpha in alphas:
        target = (2.0 * alpha / math.e) ** alpha
        w = Weight.standard(alpha)
        per_n = {}
        for n in checkpoints:
            scaled = (n + 1.0) ** alpha * monomial_norm(n, w)
            per_n[n] = scaled
            std_rows.append([alpha, n, repr(scaled), repr(target),
                             repr(scaled / target - 1.0)])
        standard[alpha] = {"target": target, "scaled": per_n}

    wlog = Weight.logarithmic()
    log_rows = []
    log_values = {}
    for n in checkpoints:
        scaled = (math.log(n) * monomial_norm(n, wlog)) if n >= 2 else 0.0
        log_values[n] = scaled
        log_rows.append([n, repr(scaled)])
    fit_ns = [n for n in checkpoints if n >= 2]
    fit = lemma25_log_fit(fit_ns, [log_values[n] for n in fit_ns])

    write_csv(out_dir / "lemma25_standard.csv",
              ["alpha", "n", "scaled", "target", "rel_error"], std_rows)
    write_csv(out_dir / "lemma25_log.csv", ["n", "scaled"], log_rows)
    write_json(out_dir / "lemma25_log_fit.json", fit)
    return {"standard": standard, "log": log_values, "log_fit": fit}


# -- identities ----------------------------------------------------------------


def run_identity_suite(seed: int, count: int, grid: DiskGrid | None = None) -> dict:
    """Seeded property suite over the operator algebra.

    Checks, on ``count`` random draws each: the integration-by-parts
    identity on coefficients, derivative-of-antiderivative round trip,
    pointwise product against evaluated factors, the closed-form second
    derivative against finite differences of the series route, and norm
    homogeneity. Deterministic for a fixed seed.
    """
    if count < 1:
        raise ConfigError("count must be >= 1")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    from .spaces import default_grid
    grid = grid or default_grid()
    rng = np.random.default_rng(seed)

    def rand_series(deg, scale=1.0):
        c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        return TruncatedSeries(scale * c)

    report = {}

    err = 0.0
    for _ in range(count):
        f = rand_series(32)
        gs = rand_series(32)
        sym = SelfMapSymbol(TruncatedSeries([0.0, 0.5]), gs, grid=grid)
        lhs = apply_ug(sym, f) + apply_vg(sym, f)
        rhs = f.mul(gs) - f.coefficient(0) * gs.coefficient(0)
        n = max(len(lhs), len(rhs))
        diff = np.zeros(n, complex)
        diff[:len(lhs)] = lhs.coeffs
        diff[:len(rhs)] -= rhs.coeffs
        err = max(err, float(np.max(np.abs(diff))))
    report["integration_by_parts"] = {"max_error": err, "tolerance": 1e-12,
                                      "passed": err <= 1e-12, "count": count}

    err = 0.0
    for _ in range(count):
        s = rand_series(24)
        rt = s.integrate().derivative()
        n = max(len(s), len(rt))
        a = np.zeros(n, complex); a[:len(s)] = s.coeffs
        b = np.zeros(n, complex); b[:len(rt)] = rt.coeffs
        denom = 1.0 + float(np.max(np.abs(a)))
        err = max(err, float(np.max(np.abs(a - b))) / denom)
    report["derivative_of_antiderivative"] = {"max_error": err, "tolerance": 1e-14,
                                              "passed": err <= 1e-14, "count": count}

    err = 0.0
    for _ in range(count):
        a = rand_series(10)
        b = rand_series(10)
        z = complex(0.3, 0.2)
        err = max(err, abs(a.mul(b)(z) - a(z) * b(z)))
    report["product_pointwise"] = {"max_error": err, "tolerance": 1e-10,
                                   "passed": err <= 1e-10, "count": count}

    err = 0.0
    h = 1e-4
    pts_rng = np.random.default_rng(seed + 1)
    for _ in range(count):
        f = rand_series(8, scale=0.5)
        phi = rand_series(8)
        phi = phi / (2.0 * phi.l1() + 1e-9)  # certified self-map
        gs = rand_series(8, scale=0.5)
        sym = SelfMapSymbol(phi, gs, grid=grid)
        kind = KINDS[pts_rng.integers(0, 4)]
        F = apply_product(kind, sym, f)
        z = 0.4 * pts_rng.uniform(0.2, 1.0) * np.exp(2j * np.pi * pts_rng.uniform())
        fd = (F(z + h) - 2.0 * F(z) + F(z - h)) / h ** 2
        err = max(err, abs(product_second_derivative(kind, sym, f, z) - fd))
    report["second_derivative_vs_series"] = {"max_error": err, "tolerance": 1e-6,
                                             "passed": err <= 1e-6, "count": count}

    err = 0.0
    for _ in range(min(count, 20)):
        f = rand_series(16)
        c = complex(pts_rng.standard_normal(), pts_rng.standard_normal())
        if abs(c) < 1e-3:
            c = 1.0 + 0.5j
        n1 = zygmund_norm(f * c, 1.5, grid)
        n2 = abs(c) * zygmund_norm(f, 1.5, grid)
        err = max(err, abs(n1 - n2) / n2)
    report["norm_homogeneity"] = {"max_error": err, "tolerance": 1e-10,
                                  "passed": err <= 1e-10,
                                  "count": min(count, 20)}

    report["all_passed"] = all(v["passed"] for k, v in report.items()
                               if isinstance(v, dict))
    report["seed"] = seed
    return report


# -- norms ---------------------------------------------------------------------


def run_norms(sym: SelfMapSymbol, alphas, grid: DiskGrid, out_dir: Path) -> dict:
    """Norm tables for the configured symbols across the alpha list."""
    if not alphas:
        raise ConfigError("alpha list must be non-empty")
    out = {}
    for alpha in alphas:
        v = Weight.standard(alpha)
        out[f"alpha={alpha:g}"] = {
            "zygmund_g": zygmund_norm(sym.g, alpha, grid),
            "zygmund_phi": zygmund_norm(sym.phi, alpha, grid),
            "bloch_g": bloch_norm(sym.g, alpha, grid),
            "bloch_phi": bloch_norm(sym.phi, alpha, grid),
            "weighted_sup_g": weighted_sup_norm(sym.g, v, grid).value,
            "weighted_sup_g1": weighted_sup_norm(sym.g_d1, v, grid).value,
            "weighted_sup_g2": weighted_sup_norm(sym.g_d2, v, grid).value,
            "weighted_sup_phi1": weighted_sup_norm(sym.phi_d1, v, grid).value,
            "weighted_sup_phi2": weighted_sup_norm(sym.phi_d2, v, grid).value,
        }
    out["phi_sup_modulus"] = sym.phi_sup_modulus
    write_json(out_dir / "norms.json", out)
    return out


# -- criterion / essnorm -------------------------------------------------------


def _write_condition_csvs(prefix: Path, quantities) -> None:
    for idx, q in enumerate(quantities, start=1):
        write_csv(Path(f"{prefix}_cond{idx}.csv"), ["n", "s_n", "scaled_s_n"],
                  columns=(q.scan.raw, q.scan.scaled))


def run_criterion(kind, sym, alpha, beta, grid, n_seq, out_dir: Path):
    report = check_boundedness(kind, sym, alpha, beta, grid, n_seq=n_seq)
    stem = out_dir / f"criterion_{kind}_alpha{alpha:g}_beta{beta:g}"
    write_json(Path(f"{stem}.json"), criterion_report_dict(report))
    _write_condition_csvs(stem, report.quantities)
    return report


def run_essnorm(kind, sym, alpha, beta, grid, n_seq, out_dir: Path):
    est = essential_norm(kind, sym, alpha, beta, grid, n_seq=n_seq)
    stem = out_dir / f"essnorm_{kind}_alpha{alpha:g}_beta{beta:g}"
    write_json(Path(f"{stem}.json"), essnorm_dict(est))
    for idx, c in enumerate(est.conditions, start=1):
        write_csv(Path(f"{stem}_cond{idx}_sequence.csv"), ["n", "scaled_s_n"],
                  columns=(c.scan.scaled,))
        brows = [[repr(e), repr(s)] for e, s in zip(c.boundary.eps, c.boundary.sups)]
        write_csv(Path(f"{stem}_cond{idx}_boundary.csv"), ["eps", "sup"], brows)
    return est


# -- sweep ---------------------------------------------------------------------


def _validate_sweep_config(cfg: dict) -> dict:
    unknown = sorted(set(cfg) - set(DEFAULT_SWEEP_CONFIG))
    if unknown:
        raise ConfigError(f"unknown sweep config keys: {', '.join(unknown)}")
    merged = dict(DEFAULT_SWEEP_CONFIG)
    merged.update(cfg)
    for key in ("kinds", "phis", "gs", "alphas", "betas"):
        if not merged.get(key):
            raise ConfigError(f"sweep config entry {key!r} must be non-empty")
    for kind in merged["kinds"]:
        if kind not in KINDS:
            raise ConfigError(f"unknown operator kind {kind!r}")
    check_operator_args(merged["alphas"], merged["betas"], config_int("nseq", merged["nseq"]))
    compact_tol = merged["compact_tol"]
    if not (is_number(compact_tol) and compact_tol >= 0 and math.isfinite(compact_tol)):
        raise ConfigError(f"compact_tol must be finite and >= 0, got {compact_tol!r}")
    return merged


SWEEP_HEADER = ["kind", "alpha", "beta", "phi_family", "g_family",
                "cond1_label", "cond1_sequence", "cond1_pointwise", "cond1_ratio",
                "cond2_label", "cond2_sequence", "cond2_pointwise", "cond2_ratio",
                "memberships_finite", "verdict", "essnorm_combined",
                "compact_flag", "error"]


def run_sweep(cfg: dict, out_dir: Path) -> list:
    """Criterion + essential-norm reports for every sweep cell.

    One JSON pair per cell plus a summary CSV. A fault in the config, its
    grid or its symbols raises ConfigError before any cell runs; per-cell
    failures are recorded in the row's error column and the run continues.
    Output is byte-identical across reruns with the same config.
    """
    try:
        cfg = _validate_sweep_config(cfg)
        grid = DiskGrid.from_config(cfg.get("grid", {}))
        n_seq = cfg["nseq"]
        compact_tol = float(cfg["compact_tol"])
        symbols = {}
        for pi, phi_spec in enumerate(cfg["phis"]):
            for gi, g_spec in enumerate(cfg["gs"]):
                symbols[(pi, gi)] = symbol_from_config(
                    {"phi": phi_spec, "g": g_spec}, grid=grid)
    except SPEC_FAULTS as exc:
        raise ConfigError(f"bad sweep config: {exc}") from exc
    out_dir.mkdir(parents=True, exist_ok=True)

    rows = []
    cell = 0
    for pi, phi_spec in enumerate(cfg["phis"]):
        for gi, g_spec in enumerate(cfg["gs"]):
            sym = symbols[(pi, gi)]
            take_sups(sym, [request for kind in cfg["kinds"] for alpha in cfg["alphas"]
                            for beta in cfg["betas"]
                            for request in cell_sups(kind, sym, alpha, beta)], grid)
            for kind in cfg["kinds"]:
                for alpha in cfg["alphas"]:
                    for beta in cfg["betas"]:
                        cell += 1
                        row = [kind, repr(float(alpha)), repr(float(beta)),
                               phi_spec["family"], g_spec["family"]]
                        error = ""
                        try:
                            report = check_boundedness(kind, sym, alpha, beta,
                                                       grid, n_seq=n_seq)
                            stem = out_dir / (f"cell{cell:05d}_{kind}"
                                              f"_phi{pi}_g{gi}"
                                              f"_a{alpha:g}_b{beta:g}")
                            write_json(Path(f"{stem}_criterion.json"),
                                       criterion_report_dict(report))
                            for slot in range(2):
                                if slot < len(report.quantities):
                                    q = report.quantities[slot]
                                    row += [q.u_label, repr(q.sequence_side),
                                            repr(q.pointwise_side),
                                            "" if q.ratio is None else repr(q.ratio)]
                                else:
                                    row += ["", "", "", ""]
                            row.append(str(all(m.finite for m in report.memberships)))
                            row.append(report.verdict)
                            if report.verdict == "bounded":
                                est = essential_norm(kind, sym, alpha, beta, grid,
                                                     n_seq=n_seq,
                                                     compact_tol=compact_tol,
                                                     boundedness=report)
                                write_json(Path(f"{stem}_essnorm.json"),
                                           essnorm_dict(est))
                                row += [repr(est.combined), str(est.compact_flag)]
                            else:
                                row += ["", ""]
                                error = "essential norm skipped: boundedness not established"
                        except (OperatorNotBoundedError, ValueError) as exc:
                            while len(row) < len(SWEEP_HEADER) - 1:
                                row.append("")
                            error = str(exc)
                        row.append(error)
                        rows.append(row)
    write_csv(out_dir / "summary.csv", SWEEP_HEADER, rows)
    write_json(out_dir / "config_echo.json", cfg)
    return rows


# -- argument parsing ----------------------------------------------------------


#: the flags that several subcommands take, each declared once
SHARED_FLAGS = {
    "--config": {"help": "JSON config path"},
    "--out": {"default": "out", "help": "output directory"},
    "--seed": {"type": int, "default": 42},
    "--nseq": {"type": int, "default": 4096},
    "--grid-angles": {"type": int},
    "--jmax": {"type": int},
}
QUERY_FLAGS = ("--config", "--grid-angles", "--jmax", "--nseq")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diskvolterra",
        description="Volterra-composition operators between Zygmund-type "
                    "spaces: boundedness criteria and essential norms")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, flags=(), **kwargs):
        """A subcommand taking --out and the shared ``flags``."""
        p = sub.add_parser(name, **kwargs)
        for flag in ("--out", *flags):
            p.add_argument(flag, **SHARED_FLAGS[flag])
        return p

    p = command("lemma25", help="monomial-norm asymptotics tables")
    p.add_argument("--alphas", default="0.5,1,2")
    p.add_argument("--checkpoints",
                   default="10,100,1000,10000,100000,316228,1000000,3162278,10000000")

    command("identities", ["--seed"],
            help="seeded operator-algebra property suite").add_argument(
        "--count", type=int, default=100)

    # norms and verify-testfns read no --nseq: they take it only because the
    # benchmark's smoke queries (benchmarks/workloads.py SMOKE_FLAGS) pass it
    p = command("norms", QUERY_FLAGS, help="norm tables for the configured symbols")
    p.add_argument("--alphas", default="0.5,1,1.5,2,2.5")

    p = command("verify-testfns", ["--grid-angles", "--jmax", "--nseq"],
                help="claim report for the test-function families")
    p.add_argument("--a-grid", default="0.6,0.7,0.8,0.9,0.95,0.99")
    p.add_argument("--alphas", default="0.5,1,1.5,2")

    for name in ("criterion", "essnorm"):
        p = command(name, QUERY_FLAGS)
        p.add_argument("--op", required=True, choices=KINDS)
        p.add_argument("--alpha", type=float, required=True)
        p.add_argument("--beta", type=float, required=True)

    # a sweep's --nseq, like its grid flags, defaults to its config's value
    command("sweep", QUERY_FLAGS, help="criterion + essnorm over the full "
            "symbol/exponent grid").set_defaults(nseq=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out_dir = Path(args.out)
    try:
        if args.command == "lemma25":
            summary = run_lemma25(_parse_alphas(args.alphas),
                                  _parse_ints(args.checkpoints), out_dir)
            print(f"lemma25: wrote tables to {out_dir} "
                  f"(log fit a = {summary['log_fit']['a']:.4f})")
            return 0

        if args.command == "identities":
            report = run_identity_suite(args.seed, args.count)
            write_json(out_dir / "identities.json", report)
            for name, entry in report.items():
                if isinstance(entry, dict):
                    status = "pass" if entry["passed"] else "FAIL"
                    print(f"{name}: {status} (max error {entry['max_error']:.3e})")
            return 0 if report["all_passed"] else 1

        if args.command == "sweep":
            cfg = load_json_config(args.config) if args.config else {}
            if not isinstance(cfg, dict):
                raise ConfigError("sweep config must be a JSON object")
            rows = run_sweep(merge_flags(cfg, args), out_dir)
            print(f"sweep: {len(rows)} cells -> {out_dir / 'summary.csv'}")
            return 0

        grid = grid_from_args(args)
        if args.command == "norms":
            sym = symbol_from_file(args, grid)
            run_norms(sym, _parse_alphas(args.alphas), grid, out_dir)
            print(f"norms: wrote {out_dir / 'norms.json'}")
            return 0

        if args.command == "verify-testfns":
            report = verify_family_claims(a_grid=_parse_a_grid(args.a_grid),
                                          alpha_grid=_parse_alphas(args.alphas),
                                          grid=grid)
            for family in report.values():
                # float |a| keys as strings, so the JSON sorts them as strings
                for block in family["norm_bound"]:
                    block["norms"] = {str(a): v for a, v in block["norms"].items()}
            write_json(out_dir / "testfn_claims.json", report)
            mismatches = sum(1 for fam in report.values()
                             for c in fam["claims"] if c["status"] == "mismatch")
            print(f"verify-testfns: wrote {out_dir / 'testfn_claims.json'} "
                  f"({mismatches} mismatching claims reported)")
            return 0

        check_operator_args([args.alpha], [args.beta], args.nseq)
        sym = symbol_from_file(args, grid)
        run = run_criterion if args.command == "criterion" else run_essnorm
        try:
            result = run(args.op, sym, args.alpha, args.beta, grid, args.nseq, out_dir)
        except (OperatorNotBoundedError, NonFiniteValueError) as exc:
            print(f"{args.command}: {exc}", file=sys.stderr)
            return 1
        if args.command == "criterion":
            print(f"criterion {args.op}: verdict {result.verdict}")
        else:
            print(f"essnorm {args.op}: combined {result.combined:.6g} "
                  f"compact={result.compact_flag}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
