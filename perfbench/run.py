"""The padicdyn benchmark: one workload per run, timed end to end or traced.

    python3 perfbench/run.py --workload conjugacy-batch --seed 20260809 \\
        --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads (see ``workloads.py``): ``conjugacy-batch``,
``order-scaling``, ``cli-jobs``; ``--workload all`` runs the three in turn,
each in its own process, at their default seeds unless ``--seed`` is given.

``--trace 0`` repeats whole passes over the workload's ops for about
``--seconds`` (at least one pass) in one thread, checks every output
against ``expected.json`` and reports the end-to-end metrics.  It also
times ``setup_s``: a fresh interpreter importing the package and making
the inputs, median of seven.  ``--trace 1`` makes one plain pass and one
traced pass (see ``tracing.py``), reports the per-layer metrics and
writes the spans to ``perfbench/out/``.

Pass and op times are in reference seconds (see ``speed.py``): wall-clock
seconds corrected for the host's drifting speed by a calibration slice
sampled during the run; ``wall_s.raw`` is the plain wall-clock figure.
``setup_s`` is plain wall-clock seconds.

Every metric is printed as ``metric <name> <value> <unit>``; the last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Malformed CLI jobs are expected to exit 2 (README); they
are counted in ``fail_frac`` and the ``malformed failed`` line but not
in ``failed``, which covers the well-formed ops.  Exit status: 0 after a
run (whether its outputs were right is ``correct``), 2 when the
benchmark cannot run here, without printing a result.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_PROBES = 7

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def import_package():
    """Import padicdyn from this checkout's src/, or exit 2."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import padicdyn
        import workloads
    except ImportError as exc:
        sys.stderr.write(f"cannot import the package from {ROOT / 'src'}: "
                         f"{exc}\n")
        sys.exit(2)
    if Path(padicdyn.__file__).resolve().parent != ROOT / "src" / "padicdyn":
        sys.stderr.write(f"padicdyn imported from {padicdyn.__file__}, "
                         f"not from this checkout\n")
        sys.exit(2)
    if not workloads.EXPECTED_PATH.exists():
        sys.stderr.write(f"missing {workloads.EXPECTED_PATH}\n")
        sys.exit(2)
    return workloads


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def percentile(samples, q: int) -> float:
    """The q-th percentile (q a multiple of 10) of at least two samples."""
    if q == 50:
        return statistics.median(samples)
    return statistics.quantiles(samples, n=10)[q // 10 - 1]


def measure_setup(workload: str, seed: int) -> float:
    """Median wall-clock seconds from starting a fresh interpreter until it
    has imported the package and made the inputs.

    The child reports the moment it is ready (``perf_counter`` is one
    clock for all processes), so neither its exit nor the 50 ms polling
    of ``subprocess.run(timeout=...)`` is counted.  Not speed-corrected:
    correcting process start-up was measured to add noise, not remove it.
    """
    times = []
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--setup-probe", "--workload", workload,
                               "--seed", str(seed)],
                              cwd=ROOT, check=True, timeout=60,
                              capture_output=True, text=True)
        times.append(float(proc.stdout) - started)
    return statistics.median(times)


class Pass:
    """One pass over the ops: when each ran, and which outputs were wrong."""

    def __init__(self, wl, workload, ops, expected, tracer=None,
                 checked=None):
        self.ok = []           # (op, start, end) of ops with right outputs
        self.failures = []     # (op, reason)
        self.output_bytes = 0
        self.check_failed = 0  # CLI jobs that exit 4: a check failed
        results = []
        clock = time.perf_counter
        self.start = clock()
        for index, op in enumerate(ops):
            if tracer is not None:
                tracer.op = index
            t0 = clock()
            try:
                result = wl.execute(workload, op)
            except Exception as exc:  # an op that raises counts as failed
                result = exc
            results.append((op, result, t0, clock()))
        self.end = clock()
        if tracer is not None:  # checks below must not add to the trace
            tracer.uninstall()
        for op, result, t0, t1 in results:
            if isinstance(result, Exception):
                self.failures.append(
                    (op, f"raised {type(result).__name__}: {result}"))
                continue
            if workload == "cli-jobs":
                self.output_bytes += len(result[1].encode())
                self.check_failed += result[0] == wl.cli.EXIT_CHECK_FAILED
            reason = wl.check(workload, op, result, expected.get(op.key),
                              checked)
            if reason is None:
                self.ok.append((op, t0, t1))
            else:
                self.failures.append((op, reason))


def run_passes(wl, workload, ops, expected, seconds):
    """Whole passes until the next would end after ``seconds``."""
    passes = []
    checked = {}
    started = time.perf_counter()
    while True:
        passes.append(Pass(wl, workload, ops, expected, checked=checked))
        elapsed = time.perf_counter() - started
        typical = statistics.median(p.end - p.start for p in passes)
        if elapsed + typical > seconds:
            return passes


def end_to_end(workload, passes, probe, setup_s) -> tuple:
    """Gated metrics, and the per-workload ones that are printed only."""
    ref = probe.smoothed()
    walls = [probe.ref_seconds(p.start, p.end, ref) for p in passes]
    raw_walls = [p.end - p.start - probe.probe_seconds(p.start, p.end)
                 for p in passes]
    ok = [(op, probe.ref_seconds(t0, t1, ref))
          for p in passes for op, t0, t1 in p.ok if not op.malformed]
    op_times = [s for _, s in ok]
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    failed = sum(len(p.failures) for p in passes)
    attempted = failed + sum(len(p.ok) for p in passes)
    detail = {"wall_s.raw": (statistics.median(raw_walls), "s"),
              "fail_frac": (failed / attempted, "ratio")}
    if workload == "conjugacy-batch":
        detail["map_s.p50"] = (percentile(op_times, 50), "s")
        detail["map_s.p80"] = (percentile(op_times, 80), "s")
    elif workload == "order-scaling":
        for label in ("capped.M64", "capped.M128", "exact.M64"):
            detail[f"build_s.{label}"] = (statistics.median(
                s for op, s in ok if op.label == label), "s")
        detail["order_exponent"] = (
            math.log2(detail["build_s.capped.M128"][0]
                      / detail["build_s.capped.M64"][0]), "1")
    else:
        detail["job_s.p50"] = (percentile(op_times, 50), "s")
        detail["job_s.p90"] = (percentile(op_times, 90), "s")
    return metrics, detail


def traced_run(wl, tracing, workload, seed, ops, expected, probe) -> tuple:
    """One plain and one traced pass; per-layer metrics; spans to out/."""
    checked = {}
    plain = Pass(wl, workload, ops, expected, checked=checked)
    tracer = tracing.Tracer()
    tracer.install()
    traced = Pass(wl, workload, ops, expected, tracer, checked)
    metrics = tracer.summary()
    metrics["cli.output_bytes"] = traced.output_bytes
    metrics["trace.overhead"] = (probe.ref_seconds(traced.start, traced.end)
                                 / probe.ref_seconds(plain.start, plain.end))
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{workload}-{seed}.jsonl"
    tracer.write(path)
    print(f"spans {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    detail = {"wall_s.raw.untraced": (plain.end - plain.start, "s"),
              "wall_s.raw.traced": (traced.end - traced.start, "s")}
    return [plain, traced], metrics, detail


def report(workload, seed, seconds, trace, metrics, units, detail,
           passes, ops) -> dict:
    print(f"workload {workload} seed {seed} seconds {seconds} trace {trace}")
    print(f"machine nproc={os.cpu_count()} arch={platform.machine()} "
          f"python={platform.python_version()} git={git_sha()}")
    for name, value in metrics.items():
        print(f"metric {name} {value:.6g} {units[name]}")
    for name, (value, unit) in detail.items():
        print(f"metric {name} {value:.6g} {unit}")
    failures = [f for p in passes for f in p.failures]
    wrong = [(op, reason) for op, reason in failures if not op.malformed]
    for op, reason in wrong[:10]:
        print(f"FAILED {op.key}: {reason}")
    malformed = sum(1 for op in ops if op.malformed) * len(passes)
    print(f"malformed failed {len(failures) - len(wrong)} of {malformed} "
          f"(README promises exit 2; a traceback or other code fails)")
    if workload == "cli-jobs":
        print(f"check-failed jobs (exit 4, as recorded at the baseline) "
              f"{sum(p.check_failed for p in passes)} of "
              f"{len(ops) * len(passes)}")
    attempted = sum(1 for p in passes for op, _, _ in p.ok
                    if not op.malformed) + len(wrong)
    return {"correct": not wrong, "attempted": attempted,
            "failed": len(wrong),
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def run_workload(wl, args) -> int:
    import speed
    import tracing
    seed = wl.DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    ops = wl.make_ops(args.workload, seed)
    if args.setup_probe:
        wl.load_expected()
        print(repr(time.perf_counter()))
        return 0
    expected = wl.load_expected()[args.workload]
    with speed.SpeedProbe() as probe:
        if args.trace:
            passes, metrics, detail = traced_run(
                wl, tracing, args.workload, seed, ops, expected, probe)
            units = tracing.units()
        else:
            passes = run_passes(wl, args.workload, ops, expected,
                                args.seconds)
    if not args.trace:
        setup_s = measure_setup(args.workload, seed)
        metrics, detail = end_to_end(args.workload, passes, probe, setup_s)
        units = END_TO_END
        print(f"passes {len(passes)} ops/pass {len(ops)}")
    result = report(args.workload, seed, args.seconds, args.trace, metrics,
                    units, detail, passes, ops)
    print(json.dumps(result))
    return 0


def run_all(wl, args) -> int:
    """Each workload in its own process; then one combined JSON line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in wl.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()),
                "--workload", workload, "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        if args.seed is not None:
            argv += ["--seed", str(args.seed)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=900)
        lines = proc.stdout.splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.stderr.write(proc.stderr)
        if proc.returncode or not lines:
            return 2
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for name, value in last["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = value
    print(json.dumps(combined))
    return 0


def main() -> int:
    wl = import_package()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=wl.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(wl, args)
    return run_workload(wl, args)


if __name__ == "__main__":
    sys.exit(main())
