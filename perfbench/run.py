"""Benchmark of ucam: training, frozen-weight adaptation, long-utterance eval.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train_desk --seed 1 --seconds 30 \
        --trace 0

``--workload`` is one of train_desk, adapt_frozen and eval_long, or ``all``,
which runs each of them in its own process and prints every metric. With
``--trace 0`` the run measures the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` it measures half the time untraced and half traced and
reports the per-layer metrics. The last line of standard output is the
result as one JSON object; the line before it is a report with the
workload's own metric names, machine facts and sample counts. Both are also
written under ``.bench_out/`` with the traced run's spans.

The library is imported from ``src/`` of the checkout and nowhere else; a
checkout without it is an error.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
NAMES = ("train_desk", "adapt_frozen", "eval_long")

# One client in one process: BLAS gets one thread, at most nproc, set before
# numpy loads so every run of every workload uses the same setting.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Seconds of operation time per run of the reference kernel.
REF_EVERY_S = 0.15

# The set-up is timed this many times in a run, each in a fresh process,
# and the median is reported. Set-up is short, so its speed is that of the
# moment: each process runs the reference kernel SETUP_REF_RUNS times right
# after it, for its own factor to reference speed.
SETUP_REPEATS = 5
SETUP_REF_RUNS = 10

END_TO_END = {"setup_s": "s", "frames_per_s": "frames/s",
              "op_ms_p50": "ms", "peak_rss_mb": "MB"}

PER_LAYER_UNITS = {"bytes": "bytes", "calls": "count", "nodes": "count",
                   "useful_grad_ratio": "ratio", "overhead_ratio": "ratio",
                   "request_coverage": "ratio"}


class Usage(Exception):
    pass


def per_layer_unit(name: str) -> str:
    return PER_LAYER_UNITS.get(name.rsplit(".", 1)[1], "ms")


def import_library():
    src = ROOT / "src"
    if not (src / "ucam" / "__init__.py").is_file():
        raise Usage(f"no ucam sources at {src}; run from a checkout of the "
                    "repository")
    sys.path.insert(0, str(src))
    import ucam
    if Path(ucam.__file__).resolve().parent != (src / "ucam").resolve():
        raise Usage(f"imported ucam from {ucam.__file__}, not from {src}")


def percentile(xs, q: float) -> float:
    import numpy as np
    return float(np.percentile(xs, q))


def tail(xs) -> dict | None:
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    for q in (99, 95, 90, 75):
        if len(xs) * (1 - q / 100) >= 10:
            return {"pct": q, "value": percentile(xs, q)}
    return None


def machine_facts(seed: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError) as e:
            commit = f"unknown: {e}"
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": BLAS_THREADS,
            **{v: os.environ.get(v) for v in THREAD_VARS},
            "git_commit": commit, "seed": seed}


def make_workload(name: str, seed: int, work_dir: Path):
    from workloads import WORKLOADS
    wl = WORKLOADS[name](seed, str(work_dir))
    wl.prepare()
    return wl


def run_phase(wl, tracer, ref, seconds: float, stats: dict) -> None:
    """Closed loop: one operation after another until ``seconds`` passed.

    After each operation the reference kernel runs about once per
    ``REF_EVERY_S`` of the operation's time, so its samples follow the
    machine's speed over the phase.
    """
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        span = tracer.open("bench.op", request=i) if tracer.active else None
        dt = 0.0
        try:
            dt, frames, out = wl.run_op(i)
        except Exception as e:  # counted, and the loop goes on
            stats["failed"] += 1
            stats["errors"].append(f"op {i}: {type(e).__name__}: {e}")
            out = None
        finally:
            if span is not None:
                tracer.close(span)
        stats["attempted"] += 1
        if out is not None:
            was, tracer.active = tracer.active, False
            try:
                wl.check(i, out)
            except Exception as e:  # a wrong output is a failed operation
                stats["failed"] += 1
                stats["errors"].append(f"op {i}: {type(e).__name__}: {e}")
            else:
                stats["times"].append(dt)
                stats["frames"] += frames
            finally:
                tracer.active = was
        for _ in range(max(1, round(dt / REF_EVERY_S))):
            stats["ref_ms"].append(ref.time_ms())
        i += 1
        if time.perf_counter() >= deadline:
            break


def new_stats() -> dict:
    return {"attempted": 0, "failed": 0, "errors": [], "times": [],
            "frames": 0, "ref_ms": []}


def setup_repeats(args) -> list[tuple[float, float]]:
    """Set-up time of fresh processes that only import and prepare, each
    with its factor to reference speed measured right after."""
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr}")
        r = json.loads(proc.stdout.strip().splitlines()[-1])
        out.append((r["setup_s"], r["scale"]))
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def workload_report(wl, stats: dict) -> dict:
    """Wall-time figures under the workload's own metric names."""
    times = stats["times"]
    n = len(times)
    if not n:
        return {"samples": 0}
    fps = stats["frames"] / sum(times)
    if wl.name == "train_desk":
        return {"train_frames_per_s": [fps, "frames/s"],
                "train_dev_frame_acc": [wl.dev_acc, "ratio"],
                "fit_s_p50": [statistics.median(times), "s"],
                "fit_s_tail": tail(times), "samples": n}
    if wl.name == "adapt_frozen":
        return {"adapt_session_s_p50": [statistics.median(times), "s"],
                "adapt_session_s_tail": tail(times),
                "adapt_frames_per_s": [fps, "frames/s"], "samples": n}
    ms = [t * 1e3 for t in times]
    return {"eval_batch_ms_p50": [statistics.median(ms), "ms"],
            "eval_batch_ms_p90": ([percentile(ms, 90), "ms"]
                                  if n * 0.1 >= 10 else None),
            "eval_batch_ms_tail": tail(ms),
            "eval_frames_per_s": [fps, "frames/s"], "samples": n}


def end_to_end(args, wl, ref, tracer, stats):
    """Untraced run: the end-to-end metrics, times at reference speed."""
    setups = setup_repeats(args)
    run_phase(wl, tracer, ref, args.seconds, stats)
    k = ref.scale(stats["ref_ms"])
    times = [t * k for t in stats["times"]]
    metrics = {
        "setup_s": statistics.median(s * k for s, k in setups),
        "frames_per_s": stats["frames"] / sum(times) if times else 0.0,
        "op_ms_p50": statistics.median(times) * 1e3 if times else 0.0,
        "peak_rss_mb": peak_rss_mb()}
    extra = {"setup_s_samples": setups, "speed_scale": k,
             "ref_ms_p50": statistics.median(stats["ref_ms"])}
    return metrics, END_TO_END, [], extra


def per_layer(args, wl, ref, tracer, stats):
    """Half the time untraced, half traced: the per-layer metrics."""
    from spans import check_self_times, layer_metrics
    run_phase(wl, tracer, ref, args.seconds / 2, stats)
    traced = new_stats()
    tracer.install()
    tracer.active = True
    try:
        run_phase(wl, tracer, ref, args.seconds / 2, traced)
    finally:
        tracer.active = False
        tracer.uninstall()
    per_frame = [sum(s["times"]) * ref.scale(s["ref_ms"]) / s["frames"]
                 if s["frames"] else 0.0 for s in (stats, traced)]
    for key in ("attempted", "failed", "errors"):
        stats[key] += traced[key]
    metrics = layer_metrics(tracer, wl.request)
    metrics["trace.overhead_ratio"] = (
        per_frame[1] / per_frame[0] if per_frame[0] else 0.0)
    failed = check_self_times(tracer)
    coverage = metrics["trace.request_coverage"]
    if wl.name == "train_desk" and coverage < 0.9:
        failed.append(f"layer self times cover {coverage:.3f} of step wall "
                      "time, below 0.9")
    out = ROOT / ".bench_out" / f"spans-{wl.name}-s{args.seed}.jsonl"
    out.parent.mkdir(exist_ok=True)
    tracer.write_spans(out)
    extra = {"spans_file": str(out.relative_to(ROOT)),
             "spans": len(tracer.spans),
             "ops": {f"{layer}|{op}": rec
                     for (layer, op), rec in tracer.ops.items()}}
    return metrics, {k: per_layer_unit(k) for k in metrics}, failed, extra


def run_one(args) -> int:
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl = make_workload(args.workload, args.seed, work)
        setup_s = time.perf_counter() - T0
        from reference import ReferenceKernel
        if args.setup_only:
            ref = ReferenceKernel()
            k = ref.scale([ref.time_ms() for _ in range(SETUP_REF_RUNS)])
            print(json.dumps({"setup_s": setup_s, "scale": k}))
            return 0
        from spans import Tracer
        stats = new_stats()
        measure = per_layer if args.trace else end_to_end
        metrics, units, checks_failed, extra = measure(
            args, wl, ReferenceKernel(), Tracer(), stats)
        stats["attempted"] += len(checks_failed)
        stats["failed"] += len(checks_failed)
        report = {"workload": args.workload, "trace": args.trace,
                  "seconds": args.seconds,
                  "machine": machine_facts(args.seed),
                  "failed_ratio": stats["failed"] / stats["attempted"],
                  "peak_rss_mb": [peak_rss_mb(), "MB"],
                  **workload_report(wl, stats),
                  "errors": stats["errors"][:20] + checks_failed, **extra}
        out = ROOT / ".bench_out" / (
            f"{wl.name}-s{args.seed}-t{args.trace}.json")
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps(report, indent=1))
        print(json.dumps({"report": report}))
        print(json.dumps({
            "correct": stats["failed"] == 0,
            "attempted": stats["attempted"], "failed": stats["failed"],
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_all(args) -> int:
    """Each workload in its own process; prints every metric by name."""
    results = {}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600, cwd=ROOT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        results[name] = (json.loads(lines[-2])["report"],
                         json.loads(lines[-1]))
    metrics = {}
    for name, (report, result) in results.items():
        rows = [(k, *v) for k, v in report.items()
                if isinstance(v, list) and len(v) == 2]
        rows.append(("failed_ratio", report["failed_ratio"], "ratio"))
        for key, val in result["metrics"].items():
            metrics[f"{name}.{key}"] = val
            rows.append((key, val["value"], val["unit"]))
        for key, value, unit in rows:
            print(f"{name:13s} {key:40s} {value!s:>24s} {unit}")
    print(json.dumps({
        "correct": all(r["correct"] for _, r in results.values()),
        "attempted": sum(r["attempted"] for _, r in results.values()),
        "failed": sum(r["failed"] for _, r in results.values()),
        "metrics": metrics}))
    return 0


def parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse(argv)
    for var in THREAD_VARS:
        os.environ[var] = str(min(BLAS_THREADS, os.cpu_count() or 1))
    try:
        import_library()
    except Usage as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
