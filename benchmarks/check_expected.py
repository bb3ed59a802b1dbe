"""Rebuild every recorded output of the benchmark pools and compare.

    python3 benchmarks/check_expected.py [workload ...]

Run from anywhere; the package is imported from this checkout's ``src/``
and the pools from ``perfbench/workloads.py``.  For each workload named
(all three by default) it rebuilds every entry that
``perfbench/expected.json`` records: the 400 maps of the conjugacy-batch
pool at M = 32, the 9 order-scaling builds and the 663 cli-jobs jobs, of
which the 33 malformed ones must exit 2 with empty stdout.  Each output
goes through the checks of a benchmark run (``workloads.check``: the
digest, and for builds ``verified_order`` and the functional equation to
full order) and is compared with the recorded value.

``perfbench/run.py`` checks only the entries its seed draws, and
``perfbench/record.py`` overwrites them; this script writes nothing.  It
prints each mismatch to stderr and one JSON summary to stdout, and exits
1 when any entry differs, raises or is missing from either side.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads as wl  # noqa: E402


def pool_ops(workload: str) -> list:
    """One ``Op`` for every entry of the workload's pool."""
    if workload == "conjugacy-batch":
        return [wl.Op(key, spec[1], (wl.make_map(*spec), wl.CONJ_ORDER))
                for key, spec in wl.conjugacy_pool().items()]
    if workload == "order-scaling":
        return [op for seed in range(len(wl.ORDER_POOL))
                for op in wl.order_ops(seed)]
    if workload == "cli-jobs":
        return [wl.Op(key, key.split(":")[0], (argv,),
                      malformed=key.startswith("malformed:"))
                for key, argv in wl.cli_pool().items()]
    raise SystemExit(f"unknown workload {workload!r}")


def mismatches(workload: str, recorded: dict) -> tuple:
    """(entries checked, list of (key, why) for those that differ)."""
    ops = pool_ops(workload)
    keys = {op.key for op in ops}
    out = [(key, "recorded but not in the pool")
           for key in sorted(set(recorded) - keys)]
    for op in ops:
        if op.key not in recorded:
            out.append((op.key, "in the pool but not recorded"))
            continue
        try:
            why = wl.check(workload, op, wl.execute(workload, op),
                           recorded[op.key])
        except Exception as exc:        # any failure is a mismatch
            why = f"raised {type(exc).__name__}: {exc}"
        if why is not None:
            out.append((op.key, why))
    return len(ops), out


def main(names) -> int:
    expected = wl.load_expected()
    summary = {}
    for name in names or wl.WORKLOADS:
        started = time.perf_counter()
        checked, bad = mismatches(name, expected.get(name, {}))
        for key, why in bad:
            print(f"{name} {key}: {why}", file=sys.stderr)
        summary[name] = {"entries": checked, "mismatches": len(bad),
                         "seconds": round(time.perf_counter() - started, 2)}
        print(f"{name}: {summary[name]}", file=sys.stderr)
    print(json.dumps(summary, indent=1))
    return 1 if any(row["mismatches"] for row in summary.values()) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
