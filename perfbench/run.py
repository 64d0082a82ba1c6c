#!/usr/bin/env python3
"""Benchmark for volseg: one workload per process, plain or traced.

Run from the root of a volseg checkout (it imports ``src/volseg``):

    python3 perfbench/run.py --workload infer-net --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload train-eval --smoke --seconds 1 --trace 1

Workloads (see workloads.py): infer-net, infer-scan, train-eval. Inputs
are generated from ``--seed`` into a working directory under
``.perfbench_work/`` and deleted afterwards; generating them and checking
the outputs are never timed. The run then

1. sets up the workload seven times, each in a fresh process (``setup_s``);
2. repeats the workload's operations for ``--seconds`` seconds; with
   ``--trace 1`` the first half runs plain and the second half with spans
   recorded around calls into volseg's modules (tracing.py);
3. checks every output against reference values (reference.py);
4. records machine facts and the machine's GEMM and copy rates.

It prints every metric by name and unit, then, as its last line, one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. Plain runs carry
the end-to-end metrics ``setup_s`` (median set-up), ``op_s`` (median time of
the workload's operation: one ``cmd_infer`` case on infer-*, one training
patch on train-eval) and ``peak_rss_mb``; traced runs carry the per-layer
metrics (seconds or counts per operation, and ``trace.overhead_s``). In that
line a layer metric the workload does not exercise, or whose functions no
longer exist, reads 0; the text above it and ``--report`` mark absent ones.
BLAS threads are capped at the usable core count; no process pools are used.
"""

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

import machine
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 7
END_TO_END = ("setup_s", "op_s", "peak_rss_mb")  # the metrics of a plain run's result line
SMOKE_SETUP_REPEATS = 2
SETUP_TIMEOUT_S = 120
P90_MIN_SAMPLES = 100  # the 90th percentile needs at least ten samples beyond it
OP_METRIC = {"case": "case_s", "patch": "patch_s", "eval": "eval_s"}
# the stages of one cmd_infer call; their self times add up to the traced case
INFER_STAGES = ("cli.infer_self_s", "nifti.read_s", "volume.resample_linear_s", "network.load_weights_s",
                "inference.window_self_s", "sampling.normalize_s", "network.forward_s",
                "inference.ensemble_s", "inference.argmax_s", "volume.restore_s", "nifti.write_s")
PIPELINE_STAGES = ("volume.resample_linear_s", "inference.window_self_s", "inference.ensemble_s",
                   "inference.argmax_s", "nifti.read_s", "nifti.write_s")


def parse_args(argv, names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy sizes that finish in seconds")
    parser.add_argument("--report", help="also write the full report as JSON to this file")
    return parser.parse_args(argv)


def setup_sample(spec, src):
    """Seconds from starting a fresh process to the workload being ready."""
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), json.dumps(dict(spec, src=src))]
    start = time.monotonic()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
    return float(done.stdout.split()[-1]) - start


def measure(wl, seconds, tracer=None):
    """Run each operation for its share of ``seconds``; op name -> durations."""
    durations = {}
    for op, share, fn in wl.ops:
        times = durations[op] = []
        start = time.perf_counter()
        while True:
            try:
                if tracer is None:
                    times.append(fn())
                else:
                    with tracer.root(op):
                        times.append(fn())
            except Exception as exc:  # a failed operation is counted, not fatal
                wl.raised += 1
                wl.fail(op, 1, f"{type(exc).__name__}: {exc}")
                break
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(times) > seconds * share:
                break
    return durations


def _median(values):
    return statistics.median(values) if values else None


def _fmt(value, unit):
    return "absent" if value is None else f"{value:.6g} {unit}"


def run(args, wl, volseg, cli, src):
    """Set up, measure and check one workload; returns the full report."""
    wl.prepare(cli)
    repeats = SMOKE_SETUP_REPEATS if args.smoke else SETUP_REPEATS
    setup = []
    for _ in range(repeats):
        try:
            setup.append(setup_sample(wl.setup_spec, src))
        except (subprocess.SubprocessError, ValueError, IndexError) as exc:
            lines = (getattr(exc, "stderr", None) or str(exc) or type(exc).__name__).strip().splitlines()
            wl.fail("setup", 1, lines[-1] if lines else type(exc).__name__)

    tracer = traced = None
    plain = measure(wl, args.seconds / 2 if args.trace else args.seconds)
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = measure(wl, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wl.check()

    main = wl.main_op
    attempted = repeats + sum(len(t) for d in (plain, traced or {}) for t in d.values()) + wl.raised
    failed = sum(wl.failed.values())
    e2e = {"setup_s": (_median(setup), "s", f"median of {len(setup)} set-ups"),
           "op_s": (_median(plain[main]), "s", f"the {OP_METRIC[main]} below")}
    for op, times in plain.items():
        e2e[OP_METRIC[op]] = (_median(times), "s", f"median of {len(times)} untraced, one {op} each")
        if len(times) >= P90_MIN_SAMPLES:
            e2e[OP_METRIC[op] + "_p90"] = (statistics.quantiles(times, n=10)[-1], "s", f"of {len(times)}")
    e2e["peak_rss_mb"] = (peak_rss_mb, "MB", "peak resident memory of this process")
    e2e["error_rate"] = (failed / attempted, "ratio", f"{failed} failed of {attempted} attempted")
    report = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "smoke": args.smoke, "machine": machine.describe(volseg, small=args.smoke),
              "correct": failed == 0 and all(ok for ok, _ in wl.checks), "attempted": attempted,
              "failed": failed, "checks": [{"ok": ok, "detail": d} for ok, d in wl.checks],
              "failures": wl.failures, "setup_samples": setup, "op_samples": plain,
              "end_to_end": {k: {"value": v, "unit": u, "note": n} for k, (v, u, n) in e2e.items()}}
    if tracer:
        layers = tracer.layer_metrics()
        base, traced_main = _median(plain[main]), _median(traced[main])
        overhead = traced_main - base if base is not None and traced_main is not None else None
        layers["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        report["per_layer"] = {k: dict(m, absent=m["value"] is None) for k, m in layers.items()}
        report["traced_ops"] = {op: len(times) for op, times in traced.items()}
        report["counter_errors"] = sorted(tracer.hook_errors)
    return report


def print_report(report, declared):
    """Every metric by name and unit, then the one-line result for ``declared`` metrics."""
    info = report["machine"]
    print(f"volseg benchmark: workload={report['workload']} seed={report['seed']} "
          f"seconds={report['seconds']:g} trace={report['trace']}{' smoke' if report['smoke'] else ''}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in info.items() if not isinstance(v, (dict, float))))
    print(f"machine: gemm_f32 {info['gemm_f32_gflop_per_s']:.1f} GFLOP/s on {info['gemm_shape']} "
          f"(A {info['gemm_a_mb']:.0f} MB), copy {info['copy_gb_per_s']:.1f} GB/s "
          f"over {info['copy_mb']:.0f} MB, "
          f"LLC {info['llc_mb']:.1f} MB ({info['llc_source']}), BLAS threads {info['blas_threads']}")
    print("end-to-end:")
    for name, m in report["end_to_end"].items():
        print(f"  {name:<16} {_fmt(m['value'], m['unit']):<18} {m['note']}")
    metrics = report["end_to_end"]
    if "per_layer" in report:
        metrics = report["per_layer"]
        counts = ", ".join(f"{n} x {op}" for op, n in report["traced_ops"].items())
        print(f"per-layer, per traced operation the layer runs under ({counts}):")
        for name, m in metrics.items():
            print(f"  {name:<40} {_fmt(m['value'], m['unit'])}")
        if "case_s" in report["end_to_end"] and report["end_to_end"]["case_s"]["value"]:
            _print_infer_accounting(metrics, report["end_to_end"]["case_s"]["value"])
        for error in report["counter_errors"]:
            print(f"  counter lost: {error}")
    print("checks:")
    for check in report["checks"]:
        print(f"  {'ok  ' if check['ok'] else 'FAIL'} {check['detail']}")
    for line in report["failures"]:
        print(f"  FAIL {line}")
    # absent or unexercised layers read 0 in the result line; a failed plain run has no op_s
    zero = 0.0 if "per_layer" in report else None
    result = {name: {"value": metrics[name]["value"] if metrics[name]["value"] is not None else zero,
                     "unit": metrics[name]["unit"]} for name in declared}
    print(json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": result}))


def _print_infer_accounting(layers, case_s):
    value = {k: (m["value"] or 0.0) for k, m in layers.items()}
    traced = sum(value[k] for k in INFER_STAGES)
    overhead = value["trace.overhead_s"]
    print(f"accounting: stage self times sum to {traced:.4f} s per traced case; untraced case_s "
          f"{case_s:.4f} s + tracing overhead {overhead:.4f} s = {case_s + overhead:.4f} s")
    print(f"accounting: of the traced case, network.forward_s is {value['network.forward_s'] / traced:.1%}; "
          f"resample, window self, ensemble, argmax and NIfTI IO are "
          f"{sum(value[k] for k in PIPELINE_STAGES) / traced:.1%}")


def _terminate(signum, frame):
    sys.exit(128 + signum)  # unwinds through the finally blocks that stop children and remove inputs


def main(argv=None):
    signal.signal(signal.SIGTERM, _terminate)
    machine.limit_blas_threads()
    import workloads

    args = parse_args(argv, workloads.NAMES)
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "volseg", "__init__.py")):
        print("error: src/volseg not found; run from the root of a volseg checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    try:
        import volseg
        from volseg import cli
    except ImportError as exc:
        print(f"error: cannot import volseg: {exc}", file=sys.stderr)
        return 2
    work_root = os.path.join(os.getcwd(), ".perfbench_work")
    workdir = os.path.join(work_root, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        report = run(args, workloads.make(args.workload, args.seed, workdir, args.smoke), volseg, cli, src)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass  # another run still uses it
    if args.report:
        with open(args.report, "w") as f:
            json.dump(report, f, indent=1)
    print_report(report, list(tracing.LAYER_METRICS) + ["trace.overhead_s"] if args.trace else END_TO_END)
    return 0


if __name__ == "__main__":
    sys.exit(main())
