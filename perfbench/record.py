"""Record the expected output of every input a benchmark run can draw.

    PYTHONPATH=src python3 perfbench/record.py [workload ...]

Writes ``perfbench/expected.json``: Omega/Omega^-1 digests for every map
of the conjugacy-batch and order-scaling pools, and (exit code, stdout
digest) for every job of the cli-jobs pool.  Malformed jobs are recorded
with the exit code README documents for them (2, empty stdout), not with
what the code does today.  Run it only on a commit whose outputs are
known to be right; a later commit is checked against what it wrote.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402


def record_builds(specs) -> dict:
    """specs: key -> (MonicPoly, M); every build must pass its own checks."""
    out = {}
    for key, (f, M) in specs.items():
        started = time.perf_counter()
        B = wl.boettcher.boettcher_series(f, M)
        order = wl.boettcher.functional_equation_check(B, M)
        if B.verified_order != M or order != M:
            raise SystemExit(f"{key}: build does not verify to {M}")
        out[key] = wl.series_digest(B)
        print(f"{key} {time.perf_counter() - started:.2f}s", file=sys.stderr)
    return out


def record_conjugacy() -> dict:
    return record_builds({
        key: (wl.make_map(*spec), wl.CONJ_ORDER)
        for key, spec in wl.conjugacy_pool().items()})


def record_order() -> dict:
    specs = {}
    for seed in range(len(wl.ORDER_POOL)):
        for op in wl.order_ops(seed):
            specs[op.key] = op.args
    return record_builds(specs)


def record_cli() -> dict:
    out = {}
    codes = {}
    for key, argv in wl.cli_pool().items():
        if key.startswith("malformed:"):
            out[key] = [2, wl.digest("")]
            continue
        code, text = wl.run_cli(argv)
        out[key] = [code, wl.digest(text)]
        codes[code] = codes.get(code, 0) + 1
    print(f"cli exit codes: {codes}", file=sys.stderr)
    return out


RECORDERS = {"conjugacy-batch": record_conjugacy,
             "order-scaling": record_order,
             "cli-jobs": record_cli}


def main(names) -> None:
    path = wl.EXPECTED_PATH
    expected = json.loads(path.read_text()) if path.exists() else {}
    for name in names or wl.WORKLOADS:
        expected[name] = RECORDERS[name]()
        path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
