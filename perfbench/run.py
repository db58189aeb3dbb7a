"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload quick_ci --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from its
`src/`. With --trace 0 the last line of standard output is a JSON object
with the end-to-end metrics; with --trace 1 it holds the per-layer
metrics from a traced run. The lines before it are a human-readable
report. The full result, and in traced runs every span, are written
under `.bench_out/` in the checkout. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# One caller, one process. BLAS may use at most the machine's CPUs.
BLAS_THREADS = min(2, os.cpu_count() or 1)
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = str(BLAS_THREADS)

WORKLOADS = ("quick_ci", "paper_cd", "ingest")
SETUP_REPEATS = {"quick_ci": 5, "paper_cd": 3, "ingest": 7}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


# -- machine and build record ------------------------------------------------------


def git_sha(root: str) -> str:
    """HEAD's commit, read from .git without running git; 'unknown' outside a clone."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_loc(root: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(os.path.join(root, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def mem_total_mb() -> float | None:
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20
    except (ValueError, OSError):
        return None


def machine_record() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "mem_total_mb": mem_total_mb(),
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_sha": git_sha(ROOT),
        "src_loc": src_loc(ROOT),
    }


# -- the run -----------------------------------------------------------------------


def declared_metrics() -> dict[str, list[tuple[str, str]]]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    return {key: [(m["name"], m["unit"]) for m in doc[key]] for key in ("end_to_end", "per_layer")}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(args, work: str):
    import report
    import spans as sp
    from workloads import IngestWorkload, ModelWorkload

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    rec = sp.SpanRecorder(run_id)
    traced = bool(args.trace)
    if args.workload == "ingest":
        wl = IngestWorkload(args.seed, work, rec)
    else:
        wl = ModelWorkload(args.workload, args.seed, work, rec)

    for _ in range(SETUP_REPEATS[args.workload]):
        wl.run_setup()
    # A traced run alternates untraced passes, recorded apart, with traced
    # ones, so both see the same machine and their ratio prices the tracing.
    untraced = sp.SpanRecorder(run_id + "-untraced")
    start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        if traced:
            wl.rec = untraced
            wl.run_pass(traced=False)
            wl.rec = rec
        wl.run_pass(traced)
        # Start another pass only if one as long as the last ends inside
        # the window, so a run never measures much past --seconds.
        now = time.perf_counter()
        if now - start + (now - begun) > args.seconds:
            break

    spans = rec.spans
    if traced:
        overhead = sp.median(s.duration for s in spans if s.name == "pass") / \
            sp.median(s.duration for s in untraced.spans if s.name == "pass") - 1.0
        metrics, summaries = report.per_layer(spans, wl.facts, 100.0 * overhead)
        extra = {"summaries": summaries, "self_time": sp.self_time_table(spans),
                 "absent": report.absent_layers(summaries)}
    else:
        metrics = report.end_to_end(spans, wl.throughput_span, peak_rss_mb())
        extra = {"workload_figures": report.workload_figures(spans, wl.facts),
                 "pass_s": [s.duration / 1e9 for s in spans if s.name == "pass"],
                 "throughput_per_s": [s.items * 1e9 / s.duration for s in spans
                                      if s.name == wl.throughput_span]}
    # After the measurement, so that it counts in no metric.
    if isinstance(wl, ModelWorkload):
        wl.run_reference()
    return wl, rec, metrics, extra


def print_report(args, machine, wl, metrics, extra) -> None:
    print(f"swhnet benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("machine: " + json.dumps(machine))
    print("concurrency: one caller, one process, one thread; no layer has a queue, "
          "so no time-waited figure is reported")
    print(f"operations: attempted={wl.attempted} failed={wl.failed}")
    for failure in wl.failures:
        print("  FAILED " + failure.replace("\n", "\n    "))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:>16.6g} {unit}")
    for name, (value, unit) in extra.get("workload_figures", {}).items():
        print(f"  {name:<48} {value:>16.6g} {unit}   (workload figure, not compared)")
    if "summaries" in extra:
        print("self time per span (ms):")
        for name, row in sorted(extra["self_time"].items(), key=lambda kv: -kv[1]["self_ms"]):
            print(f"  {name:<32} calls={row['calls']:<7} total={row['total_ms']:12.2f} self={row['self_ms']:12.2f}")
        for name, summ in extra["summaries"].items():
            if summ["n"] and (summ["tail_q"] or 0) < 90:
                tail = "none" if summ["tail_q"] is None else f"p{summ['tail_q']:g}={summ['tail']:.6g}"
                print(f"  note: {name} has n={summ['n']}; p90 has fewer than 10 samples beyond it "
                      f"(supported tail: {tail})")
        if extra["absent"]:
            print("  not exercised by this workload (reported as 0, n=0): " + ", ".join(extra["absent"]))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "swhnet", "__init__.py")):
        print(f"error: no program to benchmark: {SRC}/swhnet is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import swhnet

    if os.path.dirname(os.path.dirname(os.path.abspath(swhnet.__file__))) != SRC:
        print(f"error: imported swhnet from {swhnet.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    declared = declared_metrics()

    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(work)
    os.makedirs(out_dir, exist_ok=True)
    try:
        wl, rec, metrics, extra = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    expected = declared["per_layer" if args.trace else "end_to_end"]
    if [(n, u) for n, (_, u) in metrics.items()] != expected:
        print("error: measured metrics do not match BENCHMARK.json", file=sys.stderr)
        return 3
    machine = machine_record()
    print_report(args, machine, wl, metrics, extra)

    stem = os.path.join(out_dir, rec.run_id)
    if args.trace:
        rec.write_jsonl(stem + ".spans.jsonl")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "machine": machine, "attempted": wl.attempted,
                   "failed": wl.failed, "failures": wl.failures,
                   "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
                   **extra}, fh, indent=1, default=str)
        fh.write("\n")

    print(json.dumps({
        "correct": wl.failed == 0,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
