"""Record a baseline of every metric on all three workloads.

    python3 perfbench/baseline.py [--seconds 10]

Runs ``run.py --workload all`` untraced and traced at the default seeds
and writes ``perfbench/baseline.json``: every printed metric with its
unit, per workload and mode, plus each workload's seed and why it was
chosen, and the machine (nproc, CPU model), Python version and git sha.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha() -> str:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def run_all(seconds: float, trace: int) -> dict:
    """{workload: {"seed": .., "metrics": {name: [value, unit]}}}"""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "all",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    out, current = {}, None
    for line in proc.stdout.splitlines():
        words = line.split()
        if words[:1] == ["workload"]:
            current = out.setdefault(words[1], {"seed": int(words[3]),
                                                "metrics": {}})
        elif words[:1] == ["metric"]:
            current["metrics"][words[1]] = [float(words[2]), words[3]]
        elif words[:1] == ["malformed"]:
            current["malformed_failed"] = f"{words[2]} of {words[4]}"
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    doc = {
        "machine": {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
                    "python": platform.python_version()},
        "git_sha": git_sha(),
        "seconds": args.seconds,
        "workloads": {w["name"]: {"seed": workloads.DEFAULT_SEEDS[w["name"]],
                                  "why": w["why"]}
                      for w in json.loads(
                          (ROOT / "BENCHMARK.json").read_text())["workloads"]},
        "end_to_end": run_all(args.seconds, 0),
        "per_layer": run_all(args.seconds, 1),
    }
    path = BENCH_DIR / "baseline.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
