#!/usr/bin/env python3
"""Benchmark of diskvolterra: batch sweeps and one-off CLI queries.

Run from the root of a source checkout:

    python3 benchmarks/run.py --workload sweep-poly --seed 1 --seconds 30 --trace 0

Workloads (inputs in workloads.py, all closed-loop with one client in one
process and BLAS threads pinned to 1):

- ``sweep-poly``: ``cli.main(["sweep"])`` over the shallow polynomial
  symbols at n_seq = 4096, where the sequence scans dominate;
- ``sweep-series``: the same over the 513-coefficient truncated symbols at
  n_seq = 512, where series evaluation and refinement dominate (each sweep
  runs in parts, one call per (phi, g) pair, cycled until the time is up);
- ``queries``: a seeded stream of criterion, essnorm, norms and
  verify-testfns invocations of ``cli.main``, each building its own grid,
  symbol and tables;
- ``all`` runs the three, each in its own process, and sums their results;
- ``reference-sweep`` times the default 1200-cell sweep once (never gated).

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics: ``setup_s`` (median of several cold set-ups:
package import, input generation, DiskGrid and symbol_from_config),
``ops_per_s`` (cells of the whole sweep over the sum of the median wall
time of each of its parts; or queries per second), ``op_ms_p50`` and
``op_ms_p90`` (latency of one sweep cell, taken when its last report is
written, over whole cycles of the parts; or of one query) and
``peak_rss_mb``. With ``--trace 1`` each operation runs untraced and under
the span tracer of tracing.py, alternating which goes first, and the line
holds the per-layer metrics. Outputs are checked by checks.py; a failed check counts
the operation as failed. Reports, spans and a result file go to
``.bench_out/<workload>/`` in the checkout.

Exit code 0 on a completed run (failures are counted, not fatal); 2 when
the checkout holds no ``src/diskvolterra``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

#: cold set-ups, each in a fresh process, behind setup_s
SETUP_PROBES = 5
#: queries per run, so that at least 10 latencies lie above p90
MIN_QUERIES = 125
#: a bound on sweep calls per run; the time budget ends a run long before
MAX_SWEEPS = 1000
#: leading queries whose reports enter the digest
DIGEST_QUERIES = 100
PROBE_TIMEOUT_S = 120

_CELL = re.compile(r"cell(\d+)_")


def pin_threads() -> dict:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return {var: os.environ[var] for var in THREAD_VARS}


# -- set-up -------------------------------------------------------------------


def set_up(name: str, seed: int, smoke: bool, inputs: Path):
    """Import the package, write the generated inputs, build the grid and
    certify every symbol; returns (workload, cli module, seconds)."""
    t0 = time.perf_counter()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import diskvolterra
    from diskvolterra import cli, operators, spaces

    if not Path(diskvolterra.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"diskvolterra imported from {diskvolterra.__file__}, "
                           f"not from {SRC}")
    import workloads

    wl = workloads.make_workload(name, seed, list(operators.KINDS), smoke)
    inputs.mkdir(parents=True, exist_ok=True)
    for k, part in enumerate(wl.sweeps):
        if part is not None:
            (inputs / f"sweep{k}.json").write_text(json.dumps(part, indent=1))
    for i, spec in enumerate(wl.symbols):
        (inputs / f"sym{i}.json").write_text(json.dumps(spec))
    grid = spaces.DiskGrid.from_config(wl.grid)
    for spec in wl.symbols:
        operators.symbol_from_config(spec, grid=grid)
    return wl, cli, time.perf_counter() - t0


def probe_setup(args, inputs: Path) -> float:
    """One cold set-up in a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=PROBE_TIMEOUT_S, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


# -- operations ---------------------------------------------------------------


@contextlib.contextmanager
def cell_clock(cli, done: dict):
    """Record when each sweep cell writes a report: done[cell] = time of its
    last write. The hook costs one clock read per report."""
    original = cli.write_json

    def write_json(path, payload):
        original(path, payload)
        m = _CELL.match(Path(path).name)
        if m:
            done[int(m.group(1))] = time.perf_counter()

    cli.write_json = write_json
    try:
        yield
    finally:
        cli.write_json = original


def call_cli(cli, argv):
    """Run cli.main(argv) with its output captured; returns (exit code or
    the exception raised, stderr text)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc
    except Exception as exc:  # a crash is a failed operation, not a failed run
        code = exc
    return code, err.getvalue()


def make_op(cli, wl, inputs: Path):
    """(op, count): op(i, out) runs operation i of the workload with its
    reports under ``out`` and returns its record."""
    if wl.name == "queries":
        def query(i: int, out: Path) -> dict:
            q = wl.queries[i]
            argv = list(q.argv)
            if q.symbol is not None:
                argv += ["--config", str(inputs / f"sym{q.symbol}.json")]
            out_dir = out / f"q{i:04d}"
            t0 = time.perf_counter()
            code, err = call_cli(cli, argv + ["--out", str(out_dir)])
            return {"query": q, "dir": out_dir, "code": code, "stderr": err,
                    "wall": time.perf_counter() - t0}
        return query, len(wl.queries)

    argvs = [["sweep"] if part is None else
             ["sweep", "--config", str(inputs / f"sweep{k}.json")]
             for k, part in enumerate(wl.sweeps)]

    def sweep(i: int, out: Path) -> dict:
        part = i % len(argvs)
        out_dir = out / f"sweep{i + 1:03d}"
        done = {}
        t0 = time.perf_counter()
        with cell_clock(cli, done):
            code, err = call_cli(cli, argvs[part] + ["--out", str(out_dir)])
        wall = time.perf_counter() - t0
        ends = [done[c] for c in sorted(done)]
        return {"dir": out_dir, "part": part, "code": code, "stderr": err, "wall": wall,
                "cell_s": [b - a for a, b in zip([t0] + ends, ends)]}
    return sweep, 1 if wl.sweeps == [None] else MAX_SWEEPS


def run_ops(op, count: int, out: Path, seconds: float, chunk: int, min_ops: int):
    """Operations in chunks of ``chunk`` until the next chunk would end after
    ``seconds`` and at least ``min_ops`` ran; returns (records, loop seconds)."""
    records = []
    t_start = chunk_start = time.perf_counter()
    for i in range(count):
        if i and i % chunk == 0:
            now = time.perf_counter()
            if i >= min_ops and (now - t_start) + (now - chunk_start) > seconds:
                break
            chunk_start = now
        records.append(op(i, out))
    return records, time.perf_counter() - t_start


def run_traced(op, count: int, out: Path, seconds: float, chunk: int, tracer):
    """Each operation untraced and traced, alternating which goes first so
    that drift in machine speed cancels, in chunks of ``chunk`` operations
    until the next chunk would end after ``seconds``. Returns (untraced,
    traced, untraced s, traced s)."""
    plain, traced = [], []
    plain_s = traced_s = 0.0
    t_start = time.perf_counter()
    for i in range(count):
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            t0 = time.perf_counter()
            if with_trace:
                tracer.install()
                try:
                    traced.append(op(i, out / "traced"))
                finally:
                    tracer.uninstall()
                traced_s += time.perf_counter() - t0
            else:
                plain.append(op(i, out / "untraced"))
                plain_s += time.perf_counter() - t0
        elapsed = time.perf_counter() - t_start
        if (i + 1) % chunk == 0 and elapsed * (i + 1 + chunk) / (i + 1) > seconds:
            break
    return plain, traced, plain_s, traced_s


# -- checks and digests -----------------------------------------------------------


def check_sweeps(calls) -> tuple[int, int, list]:
    """(cells attempted, cells failed, problems) over all sweep calls."""
    import checks

    attempted = failed = 0
    problems = []
    expected = None
    for call in calls:
        if call["code"] != 0:
            cells = expected or 1
            attempted += cells
            failed += cells
            problems.append(f"{call['dir'].name}: exit {call['code']!r} "
                            f"{call['stderr'].strip()[-200:]}")
            continue
        cells, bad = checks.check_sweep(call["dir"])
        expected = expected or cells
        attempted += max(cells, 1)
        failed += max(cells, 1) if 0 in bad else len(bad)
        problems += [f"{call['dir'].name} cell {c}: {'; '.join(msgs)}"
                     for c, msgs in sorted(bad.items())]
    return attempted, failed, problems


def check_queries(wl, records) -> tuple[int, int, list]:
    import checks

    failed = 0
    problems = []
    for rec in records:
        q = rec["query"]
        symbol = wl.symbols[q.symbol] if q.symbol is not None else None
        msgs = checks.check_query(q, symbol, rec["code"], rec["stderr"], rec["dir"])
        if msgs:
            failed += 1
            problems.append(f"{rec['dir'].name} {' '.join(q.argv)}: {'; '.join(msgs)}")
    return len(records), failed, problems


def digest(dirs) -> str:
    """sha256 over the relative path and bytes of every file under ``dirs``."""
    h = hashlib.sha256()
    for base in dirs:
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            h.update(f"{base.name}/{path.relative_to(base).as_posix()}\0".encode())
            h.update(path.read_bytes())
            h.update(b"\0")
    return h.hexdigest()


def report_dirs(ops) -> list:
    """The report directories behind the digest: the first call of each sweep
    part, or the first DIGEST_QUERIES queries."""
    if ops and "query" in ops[0]:
        return [r["dir"] for r in ops[:DIGEST_QUERIES]]
    first = {}
    for r in ops:
        first.setdefault(r["part"], r["dir"])
    return list(first.values())


# -- metrics ------------------------------------------------------------------


def percentiles_ms(samples_s) -> tuple[float, float, int]:
    """(p50, p90, samples above p90) in milliseconds."""
    ms = [1000.0 * s for s in samples_s]
    if len(ms) < 2:
        return ms[0], ms[0], 0
    p90 = statistics.quantiles(ms, n=10)[-1]
    return statistics.median(ms), p90, sum(1 for v in ms if v > p90)


def end_to_end(ops, setup_samples, loop_s) -> tuple[dict, dict]:
    """(gated metrics, the issue-named view of the same numbers)."""
    if "query" in ops[0]:
        lat = [r["wall"] for r in ops]
        rate = len(ops) / loop_s
        names = ("queries_per_s", "query_ms_p50", "query_ms_p90")
    else:
        parts = {}
        for c in ops:
            parts.setdefault(c["part"], []).append(c)
        # latencies of whole cycles only, so that every part weighs the same
        whole = len(ops) // len(parts) * len(parts)
        lat = [s for c in ops[:whole] for s in c["cell_s"]]
        rate = (sum(len(calls[0]["cell_s"]) for calls in parts.values())
                / sum(statistics.median(c["wall"] for c in calls) for calls in parts.values()))
        names = ("cells_per_s", "cell_ms_p50", "cell_ms_p90")
    p50, p90, above = percentiles_ms(lat)
    named = {names[0]: (rate, "1/s"), names[1]: (p50, "ms"), names[2]: (p90, "ms"),
             "latency_samples": (len(lat), "count"), "samples_above_p90": (above, "count")}
    if "query" in ops[0]:
        by_class = {}
        for r in ops:
            by_class.setdefault(r["query"].cls, []).append(r["wall"])
        for cls, walls in sorted(by_class.items()):
            named[f"{cls}_ms_p50"] = (1000.0 * statistics.median(walls), "ms")
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "ops_per_s": (rate, "1/s"),
        "op_ms_p50": (p50, "ms"),
        "op_ms_p90": (p90, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, named


def machine_info(threads: dict) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu_model": cpu, "threads": threads}


# -- one workload ---------------------------------------------------------------


def run_workload(args, threads: dict) -> dict:
    run_dir = OUT_ROOT / args.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    inputs = run_dir / "inputs"
    probes = [probe_setup(args, inputs) for _ in range(2 if args.smoke else SETUP_PROBES)]
    wl, cli, own_setup = set_up(args.workload, args.seed, args.smoke, inputs)
    setup_samples = probes + [own_setup]

    op, count = make_op(cli, wl, inputs)
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": machine_info(threads), "setup_samples_s": setup_samples}
    if wl.name == "queries":
        from workloads import BLOCK_SIZE

        chunk, min_ops = BLOCK_SIZE, BLOCK_SIZE if args.smoke else MIN_QUERIES
    else:
        chunk, min_ops = 1, len(wl.sweeps)
    if args.trace:
        from tracing import Tracer, metric_unit

        tracer = Tracer()
        plain, traced, plain_s, traced_s = run_traced(op, count, run_dir, args.seconds,
                                                      chunk, tracer)
        tracer.save(run_dir / "spans.npz")
        ops = plain + traced
        layer = tracer.layer_metrics(traced_s, plain_s)
        metrics = {name: (value, metric_unit(name)) for name, value in layer.items()}
        named = {}
        result["absent_targets"] = tracer.absent
        result["spans"] = len(tracer.start)
        result["report_sha256"] = digest(report_dirs(plain))
        result["traced_outputs_identical"] = (result["report_sha256"]
                                              == digest(report_dirs(traced)))
    else:
        ops, loop_s = run_ops(op, count, run_dir / "reports", args.seconds, chunk, min_ops)
        metrics, named = end_to_end(ops, setup_samples, loop_s)
        result["op_walls_s"] = [r["wall"] for r in ops]
        result["report_sha256"] = digest(report_dirs(ops))

    if "query" in ops[0]:
        attempted, failed, problems = check_queries(wl, ops)
    else:
        attempted, failed, problems = check_sweeps(ops)
    named["failed_frac"] = (failed / attempted if attempted else 1.0, "fraction")
    result.update(attempted=attempted, failed=failed, problems=problems[:50],
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                  named={k: {"value": v, "unit": u} for k, (v, u) in named.items()})
    (run_dir / "result.json").write_text(json.dumps(result, indent=1, default=str) + "\n")
    return result


def print_result(result: dict) -> None:
    m = result["machine"]
    print(f"workload {result['workload']} seed {result['seed']} trace {result['trace']}: "
          f"python {m['python']}, numpy {m['numpy']}, nproc {m['nproc']}, "
          f"cpu {m['cpu_model']}, threads {','.join(f'{k}={v}' for k, v in m['threads'].items())}")
    for key in ("named", "metrics"):
        for name, entry in result[key].items():
            print(f"  {name:32s} {entry['value']:.6g} {entry['unit']}")
    if "report_sha256" in result:
        print(f"  report_sha256 {result['report_sha256']}")
    if "absent_targets" in result:
        print(f"  spans {result['spans']}, absent targets {result['absent_targets'] or 'none'}, "
              f"traced outputs identical {result['traced_outputs_identical']}")
    for line in result["problems"]:
        print(f"  FAILED {line}")


def final_line(result: dict) -> str:
    return json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": result["metrics"]})


def run_all(args) -> int:
    """Each workload in its own process; their metrics are prefixed by name."""
    from workloads import WORKLOADS

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        part = json.loads(lines[-1])
        total["correct"] &= part["correct"]
        total["attempted"] += part["attempted"]
        total["failed"] += part["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in part["metrics"].items()})
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny grid and sequence length, for the smoke tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "diskvolterra" / "__init__.py").is_file():
        print(f"benchmark: no package sources at {SRC / 'diskvolterra'}", file=sys.stderr)
        return 2
    threads = pin_threads()
    import workloads

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS + (workloads.REFERENCE,):
        parser.error(f"unknown workload {args.workload!r}")
    if args.setup_probe:
        *_, seconds = set_up(args.workload, args.seed, args.smoke,
                             OUT_ROOT / args.workload / "inputs")
        print(repr(seconds))
        return 0
    result = run_workload(args, threads)
    print_result(result)
    print(final_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
