"""Self-test of the benchmark harness at tiny sizes (a few seconds).

    python3 perfbench/selftest.py

Shows that (1) the output gate counts a corrupted Omega as a failed op,
(2) a malformed CLI job that raises is counted as failed, and (3) two
traced passes over the same inputs give identical counts.
"""

import dataclasses
import sys
import types

import run

wl = run.import_package()
import tracing  # noqa: E402  (needs the package on sys.path)

TINY_BUILDS = (("capped", 16), ("exact", 8))
TINY_MIX = {"degrees": 2, "transport": 2, "verify": 1, "cf": 1, "kummer": 1,
            "malformed": 1}


def tiny_ops() -> dict:
    return {"conjugacy-batch": wl.conjugacy_ops(1, count=3, order=8),
            "order-scaling": wl.order_ops(1, builds=TINY_BUILDS),
            "cli-jobs": wl.cli_ops(1, mix=TINY_MIX)}


def expectations(workload, ops) -> dict:
    """What a clean pass produces, in the form expected.json holds."""
    return {op.key: wl.observed(workload, op, wl.execute(workload, op))
            for op in ops if not op.malformed}


def corrupted(workload, op):
    """execute(), with one Omega coefficient changed after the build."""
    B, order = wl.execute(workload, op)
    k = B.omega.trunc - 2
    bad = B.omega.replace_coefficient(k, B.omega.coefficient(k) + 1)
    return dataclasses.replace(B, omega=bad), order


def main() -> int:
    problems = []
    ops = tiny_ops()
    for workload in ("conjugacy-batch", "order-scaling"):
        expected = expectations(workload, ops[workload])
        clean = run.Pass(wl, workload, ops[workload], expected)
        if clean.failures:
            problems.append(f"{workload}: clean pass failed {clean.failures}")
        shim = types.SimpleNamespace(execute=corrupted, check=wl.check)
        bad = run.Pass(shim, workload, ops[workload], expected)
        if len(bad.failures) != len(ops[workload]):
            problems.append(f"{workload}: corrupted Omega passed the gate")

    cli_ops = ops["cli-jobs"]
    cli = run.Pass(wl, "cli-jobs", cli_ops, expectations("cli-jobs", cli_ops))
    failed = sorted(op.key for op, _ in cli.failures)
    malformed = sorted(op.key for op in cli_ops if op.malformed)
    if failed != malformed:
        problems.append(f"cli-jobs: failed {failed}, malformed {malformed}")

    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        for workload, workload_ops in ops.items():
            tracer.install()
            run.Pass(wl, workload, workload_ops, {}, tracer)
        counts.append({name: value for name, value in tracer.summary().items()
                       if not name.endswith("_s")})
    if counts[0] != counts[1]:
        problems.append(f"traced counts differ: {counts}")
    if not counts[0]["series.mul.calls"]:
        problems.append("traced pass recorded no series products")

    for problem in problems:
        print(f"SELFTEST FAIL {problem}")
    print("SELFTEST", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
