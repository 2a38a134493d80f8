"""gatt benchmark runner.

    python3 perfbench/run.py --workload train-digit-plain --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --all [--seed 1] [--seconds 35] [--trace 0|1]

One workload runs in one process.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``.  The lines before it print every metric by name with its
unit, the run's environment and its notes.  ``--all`` runs every workload,
each in its own process, and prints a table.  Results also go to
``perfbench/out/``; a traced run writes its spans there as well.

The package is loaded from ``src/`` beside this directory and nowhere else;
without it the runner exits with code 2 before printing any result.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("train-digit-plain", "train-digit-full", "verify-suite")
TAIL_BEYOND = 10   # the tail percentile keeps at least this many samples above it


def cap_blas_threads():
    """Cap BLAS and OpenMP threads at the CPUs this process may use."""
    n = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        cur = os.environ.get(var, "")
        if not (cur.isdigit() and 0 < int(cur) <= n):
            os.environ[var] = str(n)
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def commit_id():
    """HEAD of the checkout's git directory, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "gatt").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(threads, seed):
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "threads": threads,
        "blas": " ".join(str(blas.get(k, "?")) for k in ("name", "version")),
        "blas_config": blas.get("openblas configuration", ""),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "commit": commit_id(),
        "src_sha256": source_digest(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# statistics

def tail(xs):
    """(value, percentile): the highest order statistic with at least
    TAIL_BEYOND samples above it, or the minimum when there are too few."""
    xs = sorted(xs)
    k = max(len(xs) - TAIL_BEYOND - 1, 0)
    return xs[k], 100.0 * k / len(xs)


def declared_units():
    """{"end_to_end": {name: unit}, "per_layer": {name: unit}} from BENCHMARK.json."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m["unit"] for m in bench[kind]}
            for kind in ("end_to_end", "per_layer")}


def end_to_end(res, import_s):
    tail_s, tail_pct = tail(res.steps)
    res.notes["step_ms_tail_percentile"] = tail_pct
    res.notes["step_samples"] = len(res.steps)
    res.notes["pass_samples"] = len(res.passes)
    return {
        "step_ms_p50": 1000.0 * median(res.steps),
        "step_ms_tail": 1000.0 * tail_s,
        "throughput_per_s": res.step_items / sum(res.steps),
        "pass_s": median(res.passes),
        "setup_s": import_s + median(res.setup_s),
        "peak_rss_mb": res.peak_rss_mib,
    }


def familiar_names(workload, e2e):
    """The same figures under the names a training or harness user knows."""
    import workloads
    if workload == "verify-suite":
        return {"verify_pass_s": (e2e["pass_s"], "s")}
    return {"train_samples_per_s": (e2e["throughput_per_s"], "1/s"),
            "eval_samples_per_s": (workloads.EVAL_SAMPLES / e2e["pass_s"], "1/s")}


# ---------------------------------------------------------------------------
# one workload

def run_one(args):
    threads = cap_blas_threads()
    if not (SRC / "gatt" / "__init__.py").is_file():
        print(f"error: no gatt package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import workloads
    import_s = perf_counter() - t0
    import gatt
    if Path(gatt.__file__).resolve().parent != (SRC / "gatt").resolve():
        print(f"error: gatt imported from {gatt.__file__}, not {SRC}", file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference_logits.json").read_text())
    units = declared_units()

    if args.workload == "verify-suite":
        res = workloads.run_verify(args.seconds, args.trace)
    else:
        res = workloads.run_train(args.workload, args.seed, args.seconds, args.trace,
                                  reference)
    e2e = end_to_end(res, import_s)
    if args.trace:
        res.layers["known_defects"] = res.known_defects
    # every declared metric, in declared order; a missing one is a KeyError
    values = res.layers if args.trace else e2e
    declared = units["per_layer" if args.trace else "end_to_end"]
    metrics = {k: {"value": values[k], "unit": u} for k, u in declared.items()}
    result = {"correct": res.failed == 0, "attempted": res.attempted,
              "failed": res.failed, "metrics": metrics}

    env = environment(threads, args.seed)
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("# env " + json.dumps(env))
    for k, v in e2e.items():
        print(f"{k} = {v:.6g} {units['end_to_end'][k]}")
    for k, (v, unit) in familiar_names(args.workload, e2e).items():
        print(f"{k} = {v:.6g} {unit}")
    print(f"error_rate = {res.failed / res.attempted:.6g} "
          f"({res.failed} failed / {res.attempted} attempted)")
    print(f"step_ms_tail is p{res.notes['step_ms_tail_percentile']:.1f} "
          f"of {res.notes['step_samples']} steps")
    for k, v in sorted(res.notes.items()):
        print(f"note {k} = {v}")
    for line in res.errors[:20]:
        print(f"failed: {line}")
    if args.trace:
        for k, m in metrics.items():
            print(f"{k} = {m['value']:.6g} {m['unit']}")

    OUT.mkdir(exist_ok=True)
    saved = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
             "env": env, "result": result, "end_to_end": e2e, "notes": res.notes,
             "errors": res.errors}
    if args.trace:
        phase = "verify" if args.workload == "verify-suite" else "train"
        saved["spans_by_name"] = res.tracer.summary(phase)
        res.tracer.write_spans(OUT / f"{args.workload}.spans.tsv")
    (OUT / f"{args.workload}.trace{args.trace}.json").write_text(
        json.dumps(saved, indent=1, default=str) + "\n")
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# every workload

def run_all(args):
    rows = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            print(f"{workload}: exited {proc.returncode}")
            return proc.returncode
        rows[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    names = list(next(iter(rows.values()))["metrics"])
    width = max(len(n) for n in names + ["error_rate"])
    print("\n" + " " * width + "".join(f"{w:>20}" for w in WORKLOADS) + "  unit")
    for name in names:
        cells = "".join(f"{rows[w]['metrics'][name]['value']:>20.6g}" for w in WORKLOADS)
        print(f"{name:<{width}}{cells}  {rows[WORKLOADS[0]]['metrics'][name]['unit']}")
    rates = "".join(f"{rows[w]['failed'] / rows[w]['attempted']:>20.6g}" for w in WORKLOADS)
    print(f"{'error_rate':<{width}}{rates}  1")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return run_all(args) if args.all else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
