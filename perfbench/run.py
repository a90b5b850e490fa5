"""Benchmark of metabdc: one command, every metric by name and unit.

    python3 perfbench/run.py --workload {study,pretrain,meta-test} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
`src/`. With --trace 0 it times set-up and units untraced and prints the
end-to-end metrics. With --trace 1 it alternates untraced and traced
units and prints the per-layer metrics of the traced ones. The last line
of standard output is one JSON object: correct, attempted, failed,
metrics. A run record and, when traced, the spans are written under
perfbench/out/. A failed output check prints correct=false and exits 1;
a missing program exits 2 without a result.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402 - imports are part of the measured set-up
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, "perfbench", "out")
WORKLOADS = ("study", "pretrain", "meta-test")
# set-up processes per run, spread over the run; setup_s is their median wall time
SETUP_REPEATS = 5
END_TO_END = (("setup_s", "s"), ("unit_s", "s"), ("peak_rss_mb", "MB"))


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        ap.error("--seed must be a nonnegative 64-bit integer")
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def import_program() -> None:
    """Import metabdc from this checkout's src/ and nowhere else; exit 2
    without a result when it is not there."""
    if not os.path.isfile(os.path.join(SRC, "metabdc", "__init__.py")):
        print(f"error: no program at {os.path.join(SRC, 'metabdc')}; run from a source checkout", file=sys.stderr)
        raise SystemExit(2)
    sys.path[:0] = [SRC, ROOT]
    import metabdc

    if os.path.dirname(os.path.dirname(os.path.abspath(metabdc.__file__))) != SRC:
        print(f"error: imported metabdc from {metabdc.__file__}, not from {SRC}", file=sys.stderr)
        raise SystemExit(2)


def quartiles(values: list[float]) -> dict:
    """Median, quartiles, count, and the highest of the 50th..99th
    percentiles with at least ten samples beyond it (None below 20 samples)."""
    xs = sorted(values)
    n = len(xs)
    q1, _, q3 = statistics.quantiles(xs, n=4) if n >= 2 else (xs[0], None, xs[0])
    tail = None
    for pct in (99, 95, 90, 75, 50):
        rank = -(-n * pct // 100)  # nearest rank, 1-based
        if n - rank >= 10:
            tail = {"percentile": pct, "value": xs[rank - 1]}
            break
    return {"median": statistics.median(xs), "q1": q1, "q3": q3, "count": n, "tail": tail}


def blas_info() -> dict:
    import numpy as np

    cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": cfg.get("name"), "version": cfg.get("version"), "threads": threads}


def git_sha() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    return done.stdout.strip() if done.returncode == 0 else None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "metabdc", "**", "*.py"), recursive=True)):
        h.update(os.path.relpath(path, SRC).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def host_record(seed: int) -> dict:
    import numpy as np

    from perfbench import workloads as wl

    return {
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "seed": seed,
        "config_digest": {
            "study": wl.STUDY_CONFIG.digest(),
            "pretrain": wl.PRETRAIN_CONFIG.digest(),
            "meta-test": wl.META_TEST_CONFIG.digest(),
        },
    }


def timed_setup_process(args) -> float:
    """Seconds from starting a child process until it has imported the
    program and built the workload's inputs. The child prints its
    CLOCK_MONOTONIC reading at that moment, so its exit is not counted."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0", "--setup-only"]
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    done = subprocess.run(cmd, check=True, timeout=120, stdin=subprocess.DEVNULL, capture_output=True, text=True)
    return float(done.stdout.strip().splitlines()[-1]) - t0


def make_workload(name: str, seed: int, work_dir: str):
    from perfbench import workloads as wl

    if name == "study":
        return wl.Study(seed)
    if name == "pretrain":
        return wl.Pretrain(seed, work_dir)
    return wl.MetaTest(seed)


def run(args, import_s: float, work_dir: str) -> tuple[dict, dict]:
    """Set up, run units for the measured time, check outputs; returns the
    result line and the run record."""
    import numpy as np

    from perfbench.spans import LAYER_METRICS, SETUP_TIMED, Tracer, unit_layer_metrics
    from perfbench.workloads import CheckFailed

    workload = make_workload(args.workload, args.seed, work_dir)
    tracer = Tracer() if args.trace else None
    record: dict = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace}
    checks: list[str] = []

    t0 = time.perf_counter()
    setup_layers: dict = {}
    if tracer is not None:
        with tracer.installed():
            workload.setup()
        setup_layers = tracer.summary()
    else:
        workload.setup()
    record["setup"] = {"import_s": import_s, "in_process_s": import_s + time.perf_counter() - t0}
    # Set-up as a user meets it: a fresh process that starts, imports and
    # builds the inputs. One runs before the first unit and one after each
    # unit, so that their median samples the host over the whole run.
    setup_runs: list[float] = []

    def sample_setup() -> None:
        if tracer is None and len(setup_runs) < SETUP_REPEATS:
            setup_runs.append(timed_setup_process(args))

    sample_setup()
    units: list[dict] = []
    layer_rows: list[dict[str, float]] = []
    unit_spans: list[dict] = []
    summaries: list[dict] = []
    min_units = max(workload.min_units, 2 if tracer is not None else 1)
    measured = 0.0
    index = 0
    while index < min_units or measured < args.seconds:
        traced = tracer is not None and index % 2 == 1
        t_unit = time.perf_counter()
        try:
            if traced:
                tracer.clear()
                with tracer.installed():
                    t0 = time.perf_counter()
                    outcome = workload.unit(index)
                    wall = time.perf_counter() - t0
                summary = tracer.summary()
                layer_rows.append(unit_layer_metrics(tracer, summary, wall))
                summaries.append(summary)
                unit_spans.append(tracer.spans())
            else:
                t0 = time.perf_counter()
                outcome = workload.unit(index)
                wall = time.perf_counter() - t0
        except CheckFailed as exc:
            checks.append(f"unit {index}: {exc}")
            break
        measured += time.perf_counter() - t_unit
        units.append(
            {
                "index": index,
                "wall_s": wall,
                "traced": traced,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "reasons": outcome.reasons,
                "digest": outcome.digest,
                "quality": outcome.quality,
            }
        )
        index += 1
        sample_setup()
    while tracer is None and len(setup_runs) < SETUP_REPEATS:
        sample_setup()
    record["setup"]["process_runs_s"] = setup_runs
    record["measured_s"] = measured
    record["units"] = units

    ok = [u for u in units if u["failed"] < u["attempted"]]
    if not checks and not ok:
        checks.append("no unit produced an output")
    if args.workload in ("study", "pretrain"):
        digests = {u["digest"] for u in ok if u["failed"] == 0}
        if len(digests) > 1:
            checks.append(f"units of one seed differ: {len(digests)} distinct output digests")
    elif ok and not checks:
        first = next((u for u in ok if u["traced"]), ok[0])
        try:
            again = workload.unit(first["index"])
        except CheckFailed as exc:
            checks.append(f"recomputed unit {first['index']}: {exc}")
        else:
            if again.digest != first["digest"]:
                checks.append(f"recomputing unit {first['index']} gave different outputs")

    quality: dict = {}
    if ok and not checks:
        if args.workload == "meta-test":
            quality["auroc"] = float(np.mean([u["quality"]["auroc"] for u in ok if "auroc" in u["quality"]]))
        else:
            quality.update(ok[-1]["quality"])
    attempted = sum(u["attempted"] for u in units)
    failed = sum(u["failed"] for u in units)
    quality["failed_frac"] = failed / attempted if attempted else 1.0
    record["quality"] = quality
    record["failures"] = [r for u in units for r in u["reasons"]]

    plain = [u["wall_s"] for u in units if not u["traced"]]
    record["unit_s"] = quartiles(plain) if plain else None
    if plain:
        record["unit_s"]["mean"] = statistics.mean(plain)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["peak_rss_mb"] = peak_rss_mb

    metrics: dict[str, float] = {}
    if tracer is None:
        if plain and setup_runs:
            metrics = {
                "setup_s": statistics.median(setup_runs),
                "unit_s": statistics.mean(plain),
                "peak_rss_mb": peak_rss_mb,
            }
        units_of = dict(END_TO_END)
    else:
        if layer_rows:
            metrics = {k: float(np.mean([row[k] for row in layer_rows])) for k in layer_rows[0]}
            for name in (*SETUP_TIMED, "experiment.prepare_splits"):
                row = setup_layers.get(name, {"self_s": 0.0, "incl_s": 0.0})
                metrics[f"{name}.s"] = row["incl_s" if name.startswith("experiment.") else "self_s"]
            traced_walls = [u["wall_s"] for u in units if u["traced"]]
            metrics["trace.overhead_frac"] = statistics.mean(traced_walls) / statistics.mean(plain) - 1.0
            record["layers_per_unit"] = _mean_summaries(summaries)
            record["setup_layers"] = setup_layers
        units_of = dict(LAYER_METRICS)
    if set(metrics) != set(units_of):
        if not checks:
            checks.append(f"metrics missing: {sorted(set(units_of) - set(metrics))}")
        metrics = {}
    record["checks"] = checks
    result = {
        "correct": not checks,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units_of[k]} for k in sorted(metrics)},
    }
    record["result"] = result
    if tracer is not None and unit_spans:
        _write_spans(args, unit_spans)
    return result, record


def _mean_summaries(summaries: list[dict]) -> dict:
    names = sorted({n for s in summaries for n in s})
    zero = {"calls": 0, "incl_s": 0.0, "self_s": 0.0}
    return {
        n: {k: sum(s.get(n, zero)[k] for s in summaries) / len(summaries) for k in zero}
        for n in names
    }


def _write_spans(args, unit_spans: list[dict]) -> None:
    import numpy as np

    path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.npz")
    names = sorted({n for s in unit_spans for n in s["name"]})
    ids = {n: i for i, n in enumerate(names)}
    arrays = {"names": np.array(names)}
    for u, s in enumerate(unit_spans):
        arrays[f"unit{u}_name"] = np.array([ids[n] for n in s["name"]], dtype=np.int32)
        arrays[f"unit{u}_start"] = np.array(s["start"])
        arrays[f"unit{u}_end"] = np.array(s["end"])
        arrays[f"unit{u}_parent"] = np.array(s["parent"], dtype=np.int32)
    np.savez_compressed(path, **arrays)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import numpy  # noqa: F401 - counted in the import time

    from perfbench import spans, workloads  # noqa: F401

    import_s = time.perf_counter() - T_START
    if args.setup_only:
        make_workload(args.workload, args.seed, "").setup()
        print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
        return 0
    os.makedirs(OUT_DIR, exist_ok=True)
    work_dir = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    try:
        result, record = run(args, import_s, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    record["host"] = host_record(args.seed)
    record_path = os.path.join(OUT_DIR, f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    for line in summary_lines(record):
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def summary_lines(record: dict) -> list[str]:
    lines = [f"workload {record['workload']}, seed {record['host']['seed']}, trace {record['trace']}"]
    stats = record.get("unit_s")
    if stats:
        tail = stats["tail"]
        line = (
            f"  unit_s mean {stats['mean']:.4f} s, median {stats['median']:.4f} s "
            f"(q1 {stats['q1']:.4f}, q3 {stats['q3']:.4f}, {stats['count']} untraced units)"
        )
        if tail:
            line += f", p{tail['percentile']} {tail['value']:.4f}"
        lines.append(line)
    for key, value in sorted(record["quality"].items()):
        lines.append(f"  {key} {value:.6g}")
    for reason in record["failures"][:10]:
        lines.append(f"  failed: {reason}")
    for check in record["checks"]:
        lines.append(f"  CHECK FAILED: {check}")
    return lines


if __name__ == "__main__":
    sys.exit(main())
