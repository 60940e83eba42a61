"""The repository's benchmark: ``fetch-detect`` timed the way users meet it.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Workloads (see ``perfbench/README.md`` for why each was chosen):

* ``serve-cold`` — one ``fetch-detect serve --tcp`` server with ``nproc``
  persistent clients, on binaries the server has never seen;
* ``eval-table3`` — ``run_tool_comparison`` passes (Table III).

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` the run measures the workload
untraced, then again with every layer boundary traced, and reports per-layer
metrics and the tracing overhead instead.  Lines before it are for people.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: set-up runs this many times per run; ``setup_s`` is the median
SETUP_REPEATS = 3

#: import-time measurements per traced run (median reported)
IMPORT_REPEATS = 3

#: packages whose cumulative import time the traced run reports
IMPORT_PACKAGES = (
    "repro.eval", "repro.baselines", "networkx", "repro.synth", "repro.store", "repro.service",
)

#: stage self times plus decode must cover at least this share of FETCH's detect
DETECT_ACCOUNTED_MIN = 0.9

E2E_UNITS = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "peak_rss_mb": "MB",
    "precision": "ratio",
    "recall": "ratio",
}

#: span name -> per-layer metric holding its self time per operation
SELF_TIME_METRICS = {
    "elf.load": "elf.load_s",
    "dwarf.eh_frame_parse": "dwarf.eh_frame_parse_s",
    "core.fde_extract": "core.fde_extract_s",
    "core.fde_validate": "core.fde_validate_s",
    "analysis.recursion": "analysis.recursion_s",
    "analysis.xref_collect": "analysis.xref_collect_s",
    "analysis.xref_validate": "analysis.xref_validate_s",
    "core.tailcall": "core.tailcall_s",
    "x86.decode": "x86.decode_s",
    "eval.metrics": "eval.metrics_s",
    "service.submit": "service.submit_s",
    "store.load_detection": "store.load_detection_s",
    "store.save_detection": "store.save_detection_s",
}


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("serve-cold", "eval-table3"))
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ----------------------------------------------------------------------
# --trace 0: end-to-end metrics
# ----------------------------------------------------------------------

def measure(workload: str, env, seconds: float) -> dict:
    import pb_stats
    import pb_workloads

    setup_times = []
    live = []  # the rig that may hold running processes, to abort on failure
    try:
        for index in range(SETUP_REPEATS):
            if live:
                live.pop().discard()
            began = time.perf_counter()
            live.append(pb_workloads.prepare(workload, env, f"setup{index}"))
            setup_times.append(time.perf_counter() - began)
        rig = live[0]
        window = rig.run(seconds)
        teardown = rig.close()
        live.clear()
    except BaseException:
        for rig in live:
            rig.abort()
        raise

    tail = pb_stats.block_tail(window.latencies)
    if tail is not None:
        tail_value, tail_label = tail.value, (
            f"median over {tail.blocks} block(s) of each block's p{tail.percentile:.1f} "
            f"(10 samples beyond), {tail.samples} samples")
    else:  # eval-table3: a handful of passes, no percentile leaves 10 beyond
        tail_value = max(window.latencies, default=0.0)
        tail_label = f"max of {len(window.latencies)} samples (too few for the 10-beyond rule)"
    values = {
        "setup_s": _median(setup_times),
        "throughput_ops_s": window.throughput,
        "latency_p50_s": _median(window.latencies),
        "latency_tail_s": tail_value,
        "peak_rss_mb": teardown["peak_rss_mb"],
        "precision": window.tally.precision,
        "recall": window.tally.recall,
    }
    print(f"setup runs (s): {', '.join(f'{t:.3f}' for t in setup_times)}")
    print(f"latency_tail_s is the {tail_label}")
    print(f"FETCH vs ground truth: TP {window.tally.true_positives} "
          f"FP {window.tally.false_positives} FN {window.tally.false_negatives}")
    if workload == "eval-table3":
        precision, recall = rig.baseline_precision_recall()
        print(f"baseline_precision = {precision:.6f}, baseline_recall = {recall:.6f} "
              f"(eight Table III baselines, micro-averaged)")
    if "client_close_s" in teardown:
        print("ServiceClient.close() per client (s): "
              + ", ".join(f"{t:.3f}" for t in teardown["client_close_s"]))
    return {
        "correct": window.attempted > 0 and window.failed == 0,
        "attempted": window.attempted,
        "failed": window.failed,
        "errors": window.errors,
        "metrics": {name: _metric(values[name], unit) for name, unit in E2E_UNITS.items()},
    }


# ----------------------------------------------------------------------
# --trace 1: per-layer metrics
# ----------------------------------------------------------------------

def parse_importtime(stderr: str) -> dict[str, float]:
    """Total self time and per-package cumulative time (s) from ``-X importtime``."""
    total = 0
    packages: dict[str, float] = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        try:
            self_us, cumulative_us = int(fields[0]), int(fields[1])
        except (ValueError, IndexError):
            continue  # the header line
        total += self_us
        name = fields[2].strip()
        if name in IMPORT_PACKAGES and name not in packages:
            packages[name] = cumulative_us / 1e6
    return {"total": total / 1e6, **packages}


def measure_imports(env, probe_args: list[str]) -> dict[str, float]:
    """``python -c pass`` and ``python -X importtime -m repro.cli <probe_args>``."""
    from pb_workloads import OP_TIMEOUT_S

    starts, profiles = [], []
    for _ in range(IMPORT_REPEATS):
        began = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=OP_TIMEOUT_S,
                       env=env.child_env())
        starts.append(time.perf_counter() - began)
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "repro.cli", *probe_args],
            capture_output=True, text=True, timeout=OP_TIMEOUT_S, env=env.child_env(),
            cwd=env.root,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"import probe exited {proc.returncode}: {proc.stderr[-300:]}")
        profiles.append(parse_importtime(proc.stderr))
    metrics = {"interp.start_s": _median(starts),
               "import.total_s": _median([p["total"] for p in profiles])}
    for package in IMPORT_PACKAGES:
        metrics[f"import.{package}_s"] = _median([p.get(package, 0.0) for p in profiles])
    return metrics


def trace(workload: str, env, seconds: float) -> dict:
    import pb_trace
    import pb_workloads

    plain_rig = pb_workloads.prepare(workload, env, "plain")
    try:
        plain = plain_rig.run(seconds)
        plain_teardown = plain_rig.close()
    except BaseException:
        plain_rig.abort()
        raise

    tracer = pb_trace.Tracer()
    undo = pb_trace.install(tracer)
    spans_out = env.work / "server-spans.json" if workload == "serve-cold" else None
    try:
        rig = pb_workloads.prepare(workload, env, "traced", tracer=tracer, spans_out=spans_out)
        try:
            setup_totals = pb_trace.layer_totals(tracer.spans)
            del tracer.spans[:]
            tracer.mark("window")
            traced = rig.run(seconds)
            tracer.mark("window")
            rig.close()
        except BaseException:
            rig.abort()
            raise
    finally:
        undo()

    data = rig.layer_data(tracer, traced)
    totals, counters = data.totals, data.counters
    ops = max(1, traced.completed)

    def per_op(span: str, key: str = "self_ns") -> float:
        return totals.get(span, {}).get(key, 0) / 1e9 / ops

    layers: dict[str, float] = {}
    for span, metric in SELF_TIME_METRICS.items():
        layers[metric] = per_op(span)
    for tool in pb_workloads.TABLE3_TOOLS:
        layers[f"baselines.{tool}.detect_s"] = per_op(f"baselines.{tool}.detect")
    detect_total = per_op("core.detect", "total_ns")
    layers["core.detect_s"] = detect_total
    layers["core.detect_self_s"] = per_op("core.detect")
    layers["core.detect_accounted_share"] = (
        1.0 - layers["core.detect_self_s"] / detect_total if detect_total else 0.0)
    layers["executor.task_s"] = per_op("executor.task", "total_ns")
    layers["executor.task_self_s"] = per_op("executor.task")
    layers["executor.queue_wait_s"] = per_op("executor.queue_wait", "total_ns")
    layers["x86.decode_calls"] = totals.get("x86.decode", {}).get("calls", 0) / ops
    layers["x86.raw_decodes"] = data.raw_decodes / ops
    lookups = data.decode_hits + data.decode_misses
    layers["eval.decode_hit_ratio"] = data.decode_hits / lookups if lookups else 0.0
    baseline = (plain_rig.baseline_precision_recall() if workload == "eval-table3"
                else (0.0, 0.0))
    layers["eval.baseline_precision"], layers["eval.baseline_recall"] = baseline

    loads = counters.get("store.load_detection.hits", 0) + counters.get(
        "store.load_detection.misses", 0)
    layers["store.hit_ratio"] = (
        counters.get("store.load_detection.hits", 0) / loads if loads else 0.0)
    stats = getattr(plain_rig, "stats", {})
    resilience = stats.get("resilience", {})
    layers["service.cache_hits"] = stats.get("cache_hits", 0)
    layers["service.detector_runs"] = stats.get("detector_runs", 0)
    layers["resilience.retries"] = (resilience.get("detector_retries", 0)
                                    + resilience.get("store_retries", 0))
    layers["resilience.degraded_units"] = resilience.get("degraded_units", 0)
    layers["resilience.worker_restarts"] = resilience.get("worker_restarts", 0)
    layers["server.ready_s"] = plain_rig.server.ready_s if hasattr(plain_rig, "server") else 0.0
    layers["client.submit_rtt_s"] = _median(plain.submit_rtts)
    layers["client.result_wait_s"] = _median(plain.result_waits)
    layers["client.close_s"] = _median(plain_teardown.get("client_close_s", []))
    layers["synth.generate_s"] = setup_totals.get("synth.generate", {}).get("total_ns", 0) / 1e9

    layers.update(measure_imports(env, rig.probe_args()))
    overhead = plain.throughput / traced.throughput - 1.0 if traced.throughput else 0.0
    layers["trace.overhead_share"] = overhead

    print(f"untraced {plain.throughput:.3f} ops/s, traced {traced.throughput:.3f} ops/s: "
          f"tracing overhead {overhead:+.1%}")
    share = layers["core.detect_accounted_share"]
    if detect_total:
        verdict = "within" if share >= DETECT_ACCOUNTED_MIN else "OUTSIDE"
        print(f"stage self times + decode cover {share:.1%} of core.detect_s "
              f"({verdict} the {DETECT_ACCOUNTED_MIN:.0%} tolerance)")
    print("unmeasured: the session's event write (ServeSession has no public "
          "boundary around it); left to in-program tracing")
    print("a zero marks a layer this workload does not exercise")
    errors = plain.errors + traced.errors
    return {
        "correct": plain.failed == 0 and traced.failed == 0 and traced.attempted > 0,
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "errors": errors,
        "metrics": {name: _metric(value, _layer_unit(name)) for name, value in layers.items()},
    }


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_ratio", "precision", "recall")):
        return "ratio"
    return "count"


# ----------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    source = ROOT / "src"
    if not (source / "repro" / "cli.py").is_file():
        print(f"perfbench: no program source at {source}/repro; run it from the root "
              "of a full checkout", file=sys.stderr)
        return 2
    # A shell starts background jobs with SIGINT ignored, and an ignored
    # signal stays ignored across exec: the server would never drain.  A
    # caught signal resets to the default in children, so catch it here.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    sys.path.insert(0, str(source))
    # byte-compile once, so no timed import pays for compilation
    compileall.compile_dir(str(source), quiet=1)

    import pb_workloads

    work = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    env = pb_workloads.Env(root=ROOT, work=work, seed=args.seed)
    try:
        run = trace if args.trace else measure
        result = run(args.workload, env, args.seconds)
    except pb_workloads.RunFailure as error:
        print(f"perfbench: {args.workload} failed: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass

    for error in result.pop("errors")[:5]:
        print(f"failed operation: {error}")
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
