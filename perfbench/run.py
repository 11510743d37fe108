"""csrt benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; it imports csrt from ./src and
writes only under ./.bench_work, which it removes again. With --trace 0 it
reports the end-to-end metrics of BENCHMARK.json; with --trace 1 it
alternates untraced and traced iterations and reports the per-layer
metrics, the tracing overhead and the time no span covers. Human-readable
detail, the result stamp and the exact counts go to the lines before the
last; the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

from calibrate import Calibrator
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("finetune-short", "finetune-long", "decode-cs")
# One BLAS thread: the matrices are tiny, and a second thread only adds
# contention with whatever else runs on a 2-CPU machine.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# A run keeps iterating past --seconds only to reach MIN_OPS, and never
# past this many seconds.
HARD_STOP_S = 120.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def src_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def stamp(args):
    import numpy

    return {
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_iterations(wl, seconds, tracers, min_ops):
    """Iterate until `seconds` pass (and `min_ops` ops are timed), cycling through `tracers`.

    Each result gets its wall time and the median reference times of the
    calibration ticks taken during it.
    """
    from workloads import install

    cal = wl.cal
    results = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        ops = sum(len(r.ops_s) for r in results)
        if len(results) >= len(tracers) and (
            elapsed >= HARD_STOP_S or (elapsed >= seconds and ops >= min_ops)
        ):
            return results
        tracer = tracers[len(results) % len(tracers)]
        install(tracer)
        marks = cal.marks()
        t0 = time.perf_counter()
        try:
            res = wl.iteration(tracer)
        finally:
            tracer.uninstall()
        res.wall = time.perf_counter() - t0
        res.ref_ms = cal.ref_ms(marks)
        res.timed = tracer.timed
        results.append(res)


def tally(results):
    """Attempted/failed ops, with one more check per repeat that counts and outputs match."""
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    problems = [p for r in results for p in r.problems]
    first = results[0]
    for r in results[1:]:
        attempted += 1
        if r.counts != first.counts or r.outputs != first.outputs:
            failed += 1
            problems.append(f"iteration repeats differently: {r.counts} vs {first.counts}")
    return attempted, failed, problems


def end_to_end(wl, setup_times, results):
    """End-to-end metrics; the workloads have scaled every time (see calibrate.py)."""
    from workloads import median, percentile

    ops = [s * 1000.0 for r in results for s in r.ops_s]

    def med(key):
        return median([r.values[key] for r in results if key in r.values])

    metrics = {
        "setup_s": (median(setup_times), "s"),
        "full_pass_utts_per_s": (med("full_pass_utts_per_s"), "1/s"),
        "light_pass_utts_per_s": (med("light_pass_utts_per_s"), "1/s"),
        "op_ms_p50": (percentile(ops, 50), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    # Reported, but not bounded: fine-grained interference from other load
    # moved the 90th percentile by up to 0.36 between runs of one set.
    p90 = percentile(ops, 90)
    first = results[0]
    if wl.name == "decode-cs":
        named = {
            "decode_greedy_utts_per_s": metrics["light_pass_utts_per_s"][0],
            "decode_beam10_utts_per_s": metrics["full_pass_utts_per_s"][0],
            "decode_beam10_ms_p50": metrics["op_ms_p50"][0],
            "decode_beam10_ms_p90": p90,
            "test_cs_mer": med("test_cs_mer"),
        }
        counts = dict(first.counts)
        counts["beam_output_labels"] = first.values.get("output_labels", 0)
    else:
        named = {
            "pretrain_utts_per_s": metrics["light_pass_utts_per_s"][0],
            "finetune_utts_per_s": metrics["full_pass_utts_per_s"][0],
            "finetune_step_ms_p50": metrics["op_ms_p50"][0],
            "finetune_step_ms_p90": p90,
            "dev_loss_final": med("finetune_dev_loss_final"),
            "pretrain_dev_loss_final": med("pretrain_dev_loss_final"),
            "validate_s": med("pretrain_validate_s") + med("finetune_validate_s"),
        }
        counts = dict(first.counts)
        for ctx in ("pretrain", "finetune"):
            counts[f"tape_nodes_per_{ctx}_step"] = counts.get(f"{ctx}_tape_nodes", 0) / max(
                1, counts.get(f"{ctx}_steps", 0))
    detail = {
        "named": named,
        "counts": counts,
        "op_samples": len(ops),
        "iterations": len(results),
        "iteration_wall_s": [round(r.wall, 4) for r in results],
        "ref_median_ms": [r.ref_ms for r in results],
        "ref_nominal_ms": {k: v * 1000.0 for k, v in wl.cal.nominal.items()},
        "setup_ref_ms": wl.cal.ref_ms().get("setup"),
        "setup_s_each": setup_times,
    }
    return metrics, detail


def per_layer(setup_tracer, results, tracer):
    """Per-layer metrics from the traced iterations; see README.md for each one."""
    traced = [r for r in results if r.timed]
    untraced = [r for r in results if not r.timed]
    n_it = len(traced)
    T = tracer.total

    def per(name, ctx, kind, n, field=1):
        """Milliseconds (or calls, for field 0) per n operations."""
        scale = 1.0 if field == 0 else 1000.0
        return T(name, ctx, kind, field) * scale / n if n else 0.0

    def mean_ms(name, ctx=None):
        calls = T(name, ctx, field=0)
        return T(name, ctx) * 1000.0 / calls if calls else 0.0

    gen_calls = setup_tracer.total("data.gen_corpus", field=0)
    load_calls = setup_tracer.total("data.load_corpus", field=0)
    m = {
        "data.gen_corpus_s": (setup_tracer.total("data.gen_corpus", field=2) / gen_calls, "s"),
        "data.load_corpus_s": (setup_tracer.total("data.load_corpus") / load_calls, "s"),
    }

    n_f = int(tracer.segments["finetune", "step"])
    n_p = int(tracer.segments["pretrain", "step"])
    for ctx, n, suffix in (("finetune", n_f, "per_step"), ("pretrain", n_p, "per_pretrain_step")):
        for name in ("encode", "ctc_head"):
            m[f"model.{name}_ms_{suffix}"] = (per(f"model.{name}", ctx, "step", n), "ms")
        for name in ("ctc_fwd", "ctc_bwd"):
            m[f"losses.{name}_ms_{suffix}"] = (per(f"losses.{name}", ctx, "step", n), "ms")
        m[f"autodiff.backward_ms_{suffix}"] = (per("autodiff.backward", ctx, "step", n), "ms")
        m[f"autodiff.backward_self_ms_{suffix}"] = (
            per("autodiff.backward", ctx, "step", n, field=2), "ms")
        nodes = sum(r.counts.get(f"{ctx}_tape_nodes", 0) for r in traced)
        m[f"autodiff.tape_nodes_{suffix}"] = (nodes / n if n else 0.0, "count")
    for name in ("predict", "joint"):
        m[f"model.{name}_ms_per_step"] = (per(f"model.{name}", "finetune", "step", n_f), "ms")
    for name in ("rnnt_fwd", "rnnt_bwd"):
        m[f"losses.{name}_ms_per_step"] = (per(f"losses.{name}", "finetune", "step", n_f), "ms")
    m["model.checkpoint_save_ms"] = (mean_ms("model.save_checkpoint"), "ms")
    m["training.optimizer_step_ms"] = (mean_ms("training.optimizer_step", "finetune"), "ms")
    m["training.validate_s"] = (
        sum(r.values.get("pretrain_validate_s", 0.0) + r.values.get("finetune_validate_s", 0.0)
            for r in traced) / n_it, "s")

    n_b = int(T("decoding.rnnt_decode", "beam", field=0))
    labels = sum(r.values.get("output_labels", 0) for r in traced)
    steps_b = T("model.decoder_step", "beam", field=0)
    m.update({
        "decoding.encode_ms_per_utt": (per("model.encode_fused", "beam", None, n_b), "ms"),
        "decoding.decoder_step_calls_per_utt": (
            per("model.decoder_step", "beam", None, n_b, field=0), "count"),
        "decoding.decoder_step_ms_per_utt": (per("model.decoder_step", "beam", None, n_b), "ms"),
        "decoding.joint_row_calls_per_utt": (
            per("model.joint_row", "beam", None, n_b, field=0), "count"),
        "decoding.joint_row_ms_per_utt": (per("model.joint_row", "beam", None, n_b), "ms"),
        "decoding.search_self_ms_per_utt": (
            per("decoding.rnnt_decode", "beam", None, n_b, field=2), "ms"),
        "decoding.decoder_steps_per_output_label": (steps_b / labels if labels else 0.0, "ratio"),
        "metrics.score_ms_per_utt": (per("metrics.mixed_error_rate", "beam", None, n_b), "ms"),
    })

    # Accounting per traced iteration: the layers' self times plus the time
    # no span covers add up to the traced wall time.
    wall = sum(r.wall for r in traced)
    layers = tracer.self_by_layer()
    for layer in ("model", "losses", "autodiff", "training", "decoding", "metrics"):
        m[f"{layer}.self_s"] = (layers.get(layer, 0.0) / n_it, "s")
    m["trace.unspanned_s"] = ((wall - tracer.top) / n_it, "s")
    m["trace.wall_s"] = (wall / n_it, "s")
    m["trace.untraced_wall_s"] = (sum(r.wall for r in untraced) / len(untraced), "s")
    m["trace.overhead_s"] = (m["trace.wall_s"][0] - m["trace.untraced_wall_s"][0], "s")
    detail = {
        "traced_iterations": n_it,
        "untraced_iterations": len(untraced),
        "layer_self_plus_unspanned_s": sum(layers.values()) / n_it + (wall - tracer.top) / n_it,
        "finetune_steps": n_f,
        "pretrain_steps": n_p,
        "beam_utts": n_b,
    }
    return m, detail


def run(args, work):
    from workloads import MIN_OPS, WORKLOADS, install

    # Traced runs time spans in wall time and are not calibrated.
    cal = Calibrator(args.workload, enabled=not args.trace)
    wl = WORKLOADS[args.workload](args.workload, args.seed, work, cal)
    setup_tracer = Tracer(timed=bool(args.trace))
    install(setup_tracer)
    try:
        setup_times = wl.setup_all(setup_tracer)
    finally:
        setup_tracer.uninstall()
    if args.trace:
        tracer = Tracer(timed=True)
        results = run_iterations(wl, args.seconds, [Tracer(timed=False), tracer], 0)
        metrics, detail = per_layer(setup_tracer, results, tracer)
    else:
        results = run_iterations(wl, args.seconds, [Tracer(timed=False)], MIN_OPS)
        metrics, detail = end_to_end(wl, setup_times, results)
    attempted, failed, problems = tally(results)
    detail.update(stamp=stamp(args), corpus=wl.describe(), problems=problems[:20],
                  failed_ops_share=failed / attempted)
    return metrics, detail, attempted, failed


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    src = ROOT / "src"
    if not (src / "csrt" / "__init__.py").is_file():
        print(f"error: no csrt sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # workloads.py imports csrt, so it is imported only inside the functions
    # that run after this point.
    import csrt

    if Path(csrt.__file__).resolve().parent != (src / "csrt").resolve():
        print(f"error: imported csrt from {csrt.__file__}, not {src}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        metrics, detail, attempted, failed = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
