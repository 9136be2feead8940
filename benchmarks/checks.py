"""Output checks behind the benchmark's failure count.

The checks test invariants that any correct version of the program keeps,
never the outputs of one version, so an intended correctness fix is not
counted as a failure:

- every verdict is "bounded" or "not-determined";
- every quantity with no divergence evidence and both sides above 1e-9 has
  a ratio in [1/50, 50];
- the 2/e witness (vgcphi, phi = g = z, alpha = beta = 1) is within 5% and
  not compact, and every essential norm with phi = z/2 is compact;
- the h_n and g_n claims of verify-testfns are verified and g_a'(a) is
  reported as a mismatch;
- every exit code is 0, or 1 only for the documented essnorm refusal;
- no number in a report is NaN.

Each function returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

from workloads import G_Z, PHI_HALF, PHI_Z

VERDICTS = ("bounded", "not-determined")
RATIO_RANGE = (1.0 / 50.0, 50.0)
RATIO_FLOOR = 1e-9
WITNESS_VALUE = 2.0 / math.e
WITNESS_RTOL = 0.05
#: the sweep's note for a cell whose essential norm is not attempted
SKIP_NOTE = "essential norm skipped: boundedness not established"
#: the message of the documented essnorm refusal (exit code 1)
REFUSAL_NOTE = "is not established"

_CSV_NAN = re.compile(rb"(?:^|,)nan(?:,|\r?$)", re.MULTILINE | re.IGNORECASE)
_SWEEP_FILE = re.compile(
    r"cell(\d+)_(\w+?)_phi(\d+)_g(\d+)_a[^_]+_b[^_]+_(criterion|essnorm)\.json$")


def _reject_nan(token: str) -> float:
    if token == "NaN":
        raise ValueError("NaN in report")
    return float(token)


def load_report(path: Path):
    """Parse a JSON report, rejecting NaN; returns (payload, problems)."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        return None, [f"{path.name}: unreadable ({exc})"]
    try:
        return json.loads(text, parse_constant=_reject_nan), []
    except ValueError as exc:
        return None, [f"{path.name}: {exc}"]


def check_csv(path: Path) -> list:
    if _CSV_NAN.search(path.read_bytes()):
        return [f"{path.name}: NaN field"]
    return []


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def is_witness(kind, alpha, beta, phi, g) -> bool:
    return (kind == "vgcphi" and phi == PHI_Z and g == G_Z
            and alpha == 1.0 and beta == 1.0)


def check_criterion(rep: dict) -> list:
    problems = []
    if rep.get("verdict") not in VERDICTS:
        problems.append(f"verdict {rep.get('verdict')!r} not in {VERDICTS}")
    for q in rep.get("quantities", []):
        seq, pw, ratio = q.get("sequence_side"), q.get("pointwise_side"), q.get("ratio")
        if not (_number(seq) and _number(pw)):
            problems.append(f"{q.get('u')}: sides are not numbers")
            continue
        if q.get("divergence_evidence") or seq <= RATIO_FLOOR or pw <= RATIO_FLOOR:
            continue
        if not (_number(ratio) and RATIO_RANGE[0] <= ratio <= RATIO_RANGE[1]):
            problems.append(f"{q.get('u')}: ratio {ratio!r} outside [1/50, 50]")
    return problems


def check_essnorm(rep: dict, kind, alpha, beta, phi, g) -> list:
    problems = []
    combined = rep.get("combined")
    if not (_number(combined) and combined >= 0.0):
        return [f"essential norm {combined!r} is not a nonnegative number"]
    if is_witness(kind, alpha, beta, phi, g):
        rel = abs(combined - WITNESS_VALUE) / WITNESS_VALUE
        if rel > WITNESS_RTOL or rep.get("compact_flag"):
            problems.append(f"2/e witness: combined {combined!r} "
                            f"(rel {rel:.3g}), compact {rep.get('compact_flag')}")
    if phi == PHI_HALF and not rep.get("compact_flag"):
        problems.append(f"phi = z/2 not compact: combined {combined!r}")
    return problems


def check_testfn_claims(rep: dict) -> list:
    problems = []
    pinned = [c for kind in ("h_n", "g_n") for c in rep.get(kind, {}).get("claims", [])
              if c.get("status") != "reported"]
    if not pinned:
        problems.append("no h_n / g_n claims")
    problems += [f"{c['claim']} at a={c.get('a')}: {c['status']}"
                 for c in pinned if c.get("status") != "verified"]
    ga = [c for c in rep.get("g_a", {}).get("claims", [])
          if c.get("claim", "").startswith("g_a'(a)")]
    if not ga:
        problems.append("no g_a'(a) claims")
    problems += [f"g_a'(a) at a={c.get('a')}: {c['status']}, expected mismatch"
                 for c in ga if c.get("status") != "mismatch"]
    return problems


def check_norms(rep: dict) -> list:
    bad = [f"{block}.{key} = {value!r}"
           for block, entry in rep.items() if isinstance(entry, dict)
           for key, value in entry.items()
           if not (_number(value) and value >= 0.0)]
    return [f"norms not nonnegative numbers: {bad}"] if bad else []


def check_sweep(out_dir: Path) -> tuple[int, dict]:
    """Check one sweep's reports; returns (cells, {cell: [problems]}).

    Cells are read from summary.csv; the symbols of a cell are looked up in
    config_echo.json by the phi and g indices in its report names.
    """
    cfg, problems = load_report(out_dir / "config_echo.json")
    summary = out_dir / "summary.csv"
    if cfg is None or not summary.is_file():
        return 0, {0: problems or ["summary.csv missing"]}
    with open(summary, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    failed = {}

    def flag(cell, msgs):
        if msgs:
            failed.setdefault(cell, []).extend(msgs)

    flag(0, check_csv(summary))
    reports = {}
    for path in sorted(out_dir.glob("cell*.json")):
        m = _SWEEP_FILE.match(path.name)
        if m is None:
            flag(0, [f"unexpected report {path.name}"])
            continue
        reports[(int(m.group(1)), m.group(5))] = (path, m.group(2),
                                                  int(m.group(3)), int(m.group(4)))
    for cell, row in enumerate(rows, start=1):
        if row["error"] not in ("", SKIP_NOTE):
            flag(cell, [f"error: {row['error']}"])
        crit = reports.get((cell, "criterion"))
        if crit is None:
            flag(cell, ["no criterion report"])
            continue
        path, kind, pi, gi = crit
        phi, g = cfg["phis"][pi], cfg["gs"][gi]
        rep, msgs = load_report(path)
        flag(cell, msgs)
        if rep is None:
            continue
        flag(cell, check_criterion(rep))
        if rep.get("verdict") != row["verdict"]:
            flag(cell, ["summary verdict differs from the report"])
        ess = reports.get((cell, "essnorm"))
        alpha, beta = rep.get("alpha"), rep.get("beta")
        if ess is None:
            if rep.get("verdict") == "bounded":
                flag(cell, ["bounded cell without essential norm"])
            elif is_witness(kind, alpha, beta, phi, g):
                flag(cell, ["2/e witness not bounded"])
            continue
        ess_rep, msgs = load_report(ess[0])
        flag(cell, msgs)
        if ess_rep is not None:
            flag(cell, check_essnorm(ess_rep, kind, alpha, beta, phi, g))
    return len(rows), failed


def check_query(query, symbol: dict | None, exit_code, stderr: str,
                out_dir: Path) -> list:
    """Check one CLI query from its exit code, stderr and report files."""
    if isinstance(exit_code, BaseException):
        return [f"raised {type(exit_code).__name__}: {exit_code}"]
    command = query.argv[0]
    phi = symbol["phi"] if symbol else None
    g = symbol["g"] if symbol else None
    if exit_code == 1 and command == "essnorm" and REFUSAL_NOTE in stderr:
        if is_witness(query.kind, query.alpha, query.beta, phi, g):
            return ["2/e witness refused as not bounded"]
        if any(out_dir.glob("*.json")):
            return ["essnorm refused but wrote a report"]
        return []
    if exit_code != 0:
        return [f"exit code {exit_code}: {stderr.strip()[-200:]}"]
    problems = []
    for path in sorted(out_dir.glob("*.csv")):
        problems += check_csv(path)
    reports = sorted(out_dir.glob("*.json"))
    if len(reports) != 1:
        return problems + [f"expected one JSON report, found {len(reports)}"]
    rep, msgs = load_report(reports[0])
    if rep is None:
        return problems + msgs
    if command == "criterion":
        problems += check_criterion(rep)
    elif command == "essnorm":
        problems += check_essnorm(rep, query.kind, query.alpha, query.beta, phi, g)
    elif command == "norms":
        problems += check_norms(rep)
    elif command == "verify-testfns":
        problems += check_testfn_claims(rep)
    return problems
