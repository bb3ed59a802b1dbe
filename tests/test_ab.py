"""``benchmarks/ab.py``: its summary of paired benchmark runs, on fixed
numbers, and its opcode meter."""

import importlib.util
import pathlib
import sys

AB = pathlib.Path(__file__).parent.parent / "benchmarks" / "ab.py"


def _load_ab():
    spec = importlib.util.spec_from_file_location("ab", AB)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _doc(correct, values):
    """A run's last JSON line with these metric values."""
    return {"correct": correct, "attempted": 10, "failed": 0,
            "metrics": {name: {"value": v, "unit": "s"}
                        for name, v in values.items()}}


def test_summary_of_paired_runs():
    ab = _load_ab()
    end_to_end = [{"name": "wall_s", "better": "lower"},
                  {"name": "rate", "better": "higher"}]
    base = [_doc(True, {"w/wall_s": v, "w/rate": r, "w/other": 0})
            for v, r in zip([1, 2, 3, 4, 5], [10, 20, 30, 40, 50])]
    base[3]["correct"] = False
    change = [_doc(True, {"w/wall_s": v, "w/rate": r, "w/other": 1})
              for v, r in zip([0.5, 2, 3.5, 3, 4], [11, 20, 29, 41, 42])]
    rows = ab.summarize(base, change, end_to_end)
    assert [r["metric"] for r in rows] == ["w/wall_s", "w/rate"]
    wall, rate = rows
    # pairs: 0.5 < 1 wins, 2 = 2 ties, 3.5 > 3 loses, 3 < 4 and 4 < 5 win
    assert (wall["base_median"], wall["change_median"]) == (3, 3)
    assert (wall["base_q1"], wall["base_q3"]) == (1.5, 4.5)
    assert (wall["wins"], wall["pairs"]) == (3, 5)
    # higher is better: 11 > 10 and 41 > 40 win, 20 ties, 29 and 42 lose
    assert (rate["wins"], rate["base_median"], rate["change_median"]) == (
        2, 30, 29)
    assert all(not r["base_correct"] and r["change_correct"] for r in rows)
    text = ab.format_rows(rows)
    assert "w/wall_s" in text and "3/5" in text and "False/True" in text


def test_meter_counts_one_op_list_alike(monkeypatch):
    ab = _load_ab()
    path = AB.parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    wl = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", wl)  # for its dataclass
    spec.loader.exec_module(wl)
    ops = wl.make_ops("cli-jobs", 1)[:12]
    before = sys.gettrace()
    first, second = (ab.meter(wl, "cli-jobs", ops) for _ in range(2))
    assert first == second > 0
    assert sys.gettrace() is before   # a coverage or debugger tracer stays
