"""Alternating benchmark runs of an earlier commit and this checkout.

    python3 benchmarks/ab.py BASE [--workload W] [--pairs N] [--seconds S]
        [--seed K] [--meter]

Run from anywhere inside a git checkout.  BASE is any commit git names
(``HEAD``, a hash, a branch); ``git archive BASE`` is unpacked into a
temporary directory, and the files of this checkout's working tree that
``git ls-files --cached --others --exclude-standard`` lists (tracked
ones as they are on disk, deleted ones skipped, untracked ones that are
not ignored) are copied into a second, so both sides run from a fresh
tree that holds nothing else.  ``perfbench/run.py --workload W
--seconds S --trace 0`` (with ``--seed K`` when given) runs in each, N
times, alternating which side runs first.  W is a workload of
``perfbench/run.py`` or ``all`` (the default).

For each ``end_to_end`` metric of ``BENCHMARK.json`` and each workload it
prints both medians, the base's quartiles (``statistics.quantiles``,
exclusive), how many pairs the change wins (ties count for neither) and
whether every run on each side reported ``correct``.  The runs write no
bytecode, and the checkout itself is only read.

``--meter`` times nothing.  It counts the work of one pass instead: for
each workload, in a fresh process in each tree, the workload's ops (at
seed K, else at the workload's default seed) run once to warm caches,
then once more under ``sys.settrace`` with ``frame.f_trace_opcodes``
set, and every ``opcode`` trace event of that pass is counted.  It
prints both counts and their ratio.  The count does not depend on the
host's speed or load: repeated runs give the same number.  Its limits:
it counts bytecodes, not C-level work, so a big-integer product, a
``sum`` or ``min`` builtin or argparse's C parts count as one opcode
each.  A change that moves a Python loop into a builtin reads as a large
gain, and one that widens integers reads as no change, so a speed claim
still needs wall time; the meter settles "no cost" claims and changes
at small sizes.  A counted pass takes about ten plain ones.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def copy_working_tree(root: Path, dest: Path) -> None:
    """Copy into dest the files git lists in root's working tree: tracked
    ones as they are on disk, skipping deleted ones, and untracked ones
    that are not ignored."""
    listing = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others",
         "--exclude-standard"], cwd=root, capture_output=True, check=True)
    for name in os.fsdecode(listing.stdout).split("\0"):
        source = root / name
        if name and source.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def run_once(tree: Path, workload: str, seconds: float, seed) -> dict:
    """The last line of one ``run.py --trace 0`` run in tree, as JSON."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seconds", str(seconds), "--trace", "0"]
    if seed is not None:
        argv += ["--seed", str(seed)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True,
                          env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    lines = proc.stdout.splitlines()
    if proc.returncode or not lines:
        raise SystemExit(f"run.py failed in {tree} (exit "
                         f"{proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-1])


def summarize(base: list, change: list, end_to_end: list) -> list:
    """One row per end-to-end metric and workload, from the paired runs'
    documents (``base[i]`` and ``change[i]`` are pair i): name, unit, both
    medians, the base's quartiles, the change's wins over the pairs, and
    whether every run of each side was correct."""
    better = {m["name"]: m["better"] for m in end_to_end}
    rows = []
    for key, metric in base[0]["metrics"].items():
        name = key.rsplit("/", 1)[-1]
        if name not in better:
            continue
        old = [doc["metrics"][key]["value"] for doc in base]
        new = [doc["metrics"][key]["value"] for doc in change]
        sign = 1 if better[name] == "lower" else -1
        q1, _, q3 = statistics.quantiles(old, n=4, method="exclusive")
        rows.append({
            "metric": key, "unit": metric["unit"],
            "base_median": statistics.median(old), "base_q1": q1,
            "base_q3": q3, "change_median": statistics.median(new),
            "wins": sum(sign * (b - a) > 0 for a, b in zip(new, old)),
            "pairs": len(old),
            "base_correct": all(doc["correct"] for doc in base),
            "change_correct": all(doc["correct"] for doc in change)})
    return rows


def format_rows(rows: list) -> str:
    lines = [f"{'metric':28} {'unit':4} {'base median':>12} "
             f"{'base q1-q3':>21} {'change median':>14} {'wins':>6}  correct"]
    for r in rows:
        lines.append(
            f"{r['metric']:28} {r['unit']:4} {r['base_median']:12.6g} "
            f"{r['base_q1']:10.6g}-{r['base_q3']:<10.6g} "
            f"{r['change_median']:14.6g} {r['wins']:>3}/{r['pairs']:<2}  "
            f"{r['base_correct']}/{r['change_correct']}")
    return "\n".join(lines)


def count_opcodes(fn) -> int:
    """Opcode trace events while fn() runs, in this thread; the tracer
    set before, if any, is set again after."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        count += event == "opcode"
        return local

    def on_call(frame, event, arg):
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return local

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        fn()
    finally:
        sys.settrace(previous)
    return count


def meter(wl, workload: str, ops) -> int:
    """``count_opcodes`` of one pass over ops after one warm pass; wl is
    ``perfbench/workloads.py``.  An op that raises is passed over, its
    work up to the raise counted (``run.py`` counts it failed)."""
    def one_pass():
        for op in ops:
            try:
                wl.execute(workload, op)
            except Exception:
                pass

    one_pass()
    return count_opcodes(one_pass)


def meter_tree(tree: Path, workload: str, seed) -> int:
    """``meter`` over the workload's ops at seed (None: its default), in
    a fresh process with the package and workloads imported from tree."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--meter-child",
            workload, "default" if seed is None else str(seed)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True,
                          env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    if proc.returncode:
        raise SystemExit(f"meter failed in {tree} (exit "
                         f"{proc.returncode}):\n{proc.stderr}")
    return int(proc.stdout)


def meter_child(workload: str, seed: str) -> int:
    """The child of ``meter_tree``: prints the count in the working
    directory's tree."""
    tree = Path.cwd()
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import workloads as wl
    seed = wl.DEFAULT_SEEDS[workload] if seed == "default" else int(seed)
    print(meter(wl, workload, wl.make_ops(workload, seed)))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", nargs="?")
    parser.add_argument("--workload", default="all")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--meter", action="store_true")
    parser.add_argument("--meter-child", nargs=2, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.meter_child:
        return meter_child(*args.meter_child)
    if args.base is None:
        parser.error("BASE is required")
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 (quartiles need two runs)")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    archive = subprocess.run(["git", "archive", args.base], cwd=ROOT,
                             capture_output=True)
    if archive.returncode:
        raise SystemExit(archive.stderr.decode())
    base, change = [], []
    with tempfile.TemporaryDirectory() as tmp, \
            tempfile.TemporaryDirectory() as work:
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout,
                       check=True)
        copy_working_tree(ROOT, Path(work))
        trees = (Path(tmp), Path(work))
        if args.meter:
            names = [w["name"] for w in bench["workloads"]]
            print(f"base {args.base} against this checkout: opcodes of one "
                  f"pass after a warm one, seed "
                  f"{'default' if args.seed is None else args.seed}")
            print(f"{'workload':16} {'base':>12} {'change':>12} {'ratio':>8}")
            for name in names if args.workload == "all" else [args.workload]:
                old, new = (meter_tree(tree, name, args.seed)
                            for tree in trees)
                print(f"{name:16} {old:12d} {new:12d} {new / old:8.4f}")
            return 0
        sides = list(zip(trees, (base, change)))
        for i in range(args.pairs):
            for tree, docs in sides if i % 2 == 0 else sides[::-1]:
                docs.append(run_once(tree, args.workload, args.seconds,
                                     args.seed))
            print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)
    print(f"base {args.base} against this checkout: workload "
          f"{args.workload}, {args.pairs} pairs of {args.seconds:g} s, "
          f"seed {'default' if args.seed is None else args.seed}")
    print(format_rows(summarize(base, change, bench["end_to_end"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
