"""Per-layer timings of the series operations and the Böttcher build stages.

    python3 benchmarks/layers.py > layers.json

Run from anywhere; the package is imported from this checkout's ``src/``.
On the reference map z^2 + z/5 + 3 over Q_5, for the exact backend and
the capped one at precision 20, and for each truncation order M in 32,
64, 128 and 256, it times the four series operations the build is made
of and the build's three stages:

- ``mul_s``: xi * xi, xi the normalized root approximant (a unit series);
- ``nth_root_s``: one square root of beta_N = f^N(z)/z^(2^N);
- ``invert_unit_s``: the inverse of xi;
- ``compose_s``: omega(omega^-1);
- ``roots_s``: N successive square roots of beta_N, then omega = w / xi;
- ``reversion_s``: omega^-1 by ``lagrange_invert``;
- ``equation_s``: the functional-equation check omega(f) = omega^2.

Each time is the least of up to five runs that fit in half a second (one
run when a single run takes longer), in wall-clock seconds.  The script
prints one JSON document with the machine, the Python version and the
git commit; each row also goes to stderr as it is done.
"""

import json
import os
import platform
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from padicdyn import (CappedField, ExactField, MonicPoly,  # noqa: E402
                      lagrange_invert)
from padicdyn.boettcher import (_beta_series, _equation_order,  # noqa: E402
                                _root_chain)

PRECISION = 20
ORDERS = (32, 64, 128, 256)


def best_of(fn, budget=0.5, most=5):
    """(least seconds of the runs, the last result)."""
    times = []
    while len(times) < most and sum(times) < budget:
        started = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - started)
    return min(times), out


def layers(field, M: int) -> dict:
    f = MonicPoly(field, [Fraction(3), Fraction(1, 5)])
    d, N = f.degree, 1
    while d ** N < M:
        N += 1
    beta = _beta_series(f, N, M)[-1]
    row = {}

    def build_omega():
        return _root_chain(beta, d, N).invert_unit().shifted(1).truncate(M)

    row["roots_s"], omega = best_of(build_omega)
    row["reversion_s"], omega_inverse = best_of(lambda: lagrange_invert(omega))
    row["equation_s"], order = best_of(lambda: _equation_order(omega, f, M))
    if order != M:
        raise SystemExit(f"{field} M={M}: functional equation holds to "
                         f"{order} only")
    xi = _root_chain(beta, d, N)
    row["mul_s"], _ = best_of(lambda: xi * xi)
    row["nth_root_s"], _ = best_of(lambda: beta.nth_root(d))
    row["invert_unit_s"], _ = best_of(xi.invert_unit)
    row["compose_s"], _ = best_of(lambda: omega.compose(omega_inverse))
    return row


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": model, "nproc": os.cpu_count(),
            "arch": platform.machine()}


def git_sha() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    rows = []
    for backend, field in (("exact", ExactField(5)),
                           ("capped", CappedField(5, PRECISION))):
        for M in ORDERS:
            row = {"backend": backend, "M": M, **layers(field, M)}
            rows.append(row)
            print(json.dumps(row), file=sys.stderr)
    doc = {"map": "z^2 + z/5 + 3 over Q_5", "capped_precision": PRECISION,
           "unit": "s", "machine": machine(),
           "python": platform.python_version(), "git": git_sha(),
           "rows": rows}
    print(json.dumps(doc, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
