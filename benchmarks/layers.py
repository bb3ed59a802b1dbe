"""Per-layer timings of the series operations and the Böttcher build stages.

    python3 benchmarks/layers.py > layers.json

Run from anywhere; the package is imported from this checkout's ``src/``.
On the reference map z^2 + z/5 + 3 over Q_5, for the exact backend and
the capped one at precision 20, and for each truncation order M in 32,
64, 128 and 256, it times four series operations on the root
approximants of ``cauchy_rate_check``, the build's three stages, the
whole build, and general reversion and composition for comparison:

- ``mul_s``: xi * xi, xi the normalized root approximant (a unit series)
  for the least N with 2^N >= M;
- ``nth_root_s``: one square root of beta_N = f^N(z)/z^(2^N);
- ``invert_unit_s``: the inverse of xi;
- ``compose_s``: omega(omega^-1);
- ``roots_s``: omega from its own functional equation, as the build
  computes it: one composition through f and one square root per step,
  of which only the last root is checked, with the build's check (that
  root's own, unless the image is a fresh composition);
- ``reversion_s``: omega^-1 from its own functional equation, as the
  build computes it;
- ``lagrange_invert_s``: omega^-1 by ``lagrange_invert`` (Newton on the
  composition identity), which the build no longer uses;
- ``equation_s``: ``functional_equation_check`` on the build, the full
  recomputation of omega(f) = omega^2, whose composition through f runs
  by baby and giant steps;
- ``build_s``: the whole ``boettcher_series``, whose check is the one
  ``roots_s`` made;
- ``compose_horner_s``: that composition as ``TailSeries.compose`` sums it,
  by Horner in W = 1/f(z), which the check no longer uses.

``degrees`` times ``roots_s`` and ``build_s`` on both backends at
M = 32 and 64 for a cubic map, z^3 + z^2 + z/5 + 3 over Q_5, and a
quintic one, z^5 - z^4 + z^3 + z/7 + 2 over Q_7 (precision 20 when
capped), and gives the digest of their omega and omega^-1 as ``builds``
does: the conjugacy-batch workload draws degrees 2 to 5, and above 2
each step of the fixed point takes more than one Newton step for its
root.

``products`` times capped products of n = 8, 16, 24, 32, 64, 128, 256
and 512 terms, each two ways, to record the one crossover
``series._LONG``: the long routes, coefficient sums packed into one
big-integer product and the precision list from the operands' affine
runs (``routes``: "long", ``series._LONG`` set at n), against the short
ones, n dot products and the pairs one by one ("short", set above n).
``mul_s`` is omega * omega^-1 and ``square_s`` is omega * omega, both
cut to w^(n + 1) from a capped M = 513 build, at the scale 5^1 the
build gives them (``scale``: 5) and rebuilt from their elements
at scale 1 (``scale``: 1), where each representative also carries the
series' valuation slope of one digit per index.

``inverses`` times ``invert_unit`` over exact Q_5, at the same orders
M, on two units made from elements (scale 1) whose D is above 1:
``mixed_s`` the unit with coefficients
(-1)^i (i mod 7 + 1) / (2, 3, 5, 7)[i mod 4] for i >= 1 (D = 210), and
``geometric_s`` the geometric series sum (-2/15)^i w^i
(D = 15^(M - 1)), for which scale 1 is a wrong one (at scale 15 it is
an integer vector).  Over Q_5 capped at precision 20 it times the
inverse of the unit omega / w of the reference map: ``at_scale_s`` at
the scale 5^1 the build gives it, and ``scale_one_s`` rebuilt from its
elements at scale 1, whose valuations dip below that scale's line, so
the recurrence runs on the steepest line under them
(``series._slope``).  On both backends ``reciprocal_s`` times the
inverse of W's unit 1 + z/5 w + 3 w^2 to order M, at the scale the build
gives it, as ``boettcher._reciprocal`` takes it: a polynomial unit,
whose sums stop at its last coefficient.  Each inverse is checked by its
product with the unit.

``transport`` times, on both backends (precision 20 when capped), the
element work of a ``transport`` job in the quadratic Eisenstein
extension Q_5(sqrt 5) for the reference map at M = 32, at Q = pi^-3
(v(1/Q) = 3/2 lies inside the certified disk, eps = 1), and over capped
Q_5 in the quartic Q_5(10^(1/4)) at Q = pi^-5 (v(1/Q) = 5/4):
``omega_at_s`` is omega at Q; ``conjugates_s`` the conjugates of
omega(Q) in a new field on every run, as each job builds its own, so the
generator images are found each time (by Hensel lifts on the quartic
stage); and ``ext_mul_s`` one product omega(Q) * Q, the least of runs
of 1000 products divided by 1000.

``elements`` times single element operations, each the least of runs
of 1000 operations divided by 1000: over Q_5 capped at precision 20,
``capped_add_s``, ``capped_mul_s`` and ``capped_div_s`` of the units
2/3 and 35/11 (valuations 0 and 1), ``capped_add_zero_s`` and
``capped_mul_zero_s`` of 2/3 and the O(5^20) zero 2/3 - 2/3; over exact
Q_5, ``exact_add_s`` and ``exact_mul_s`` of the same two rationals; and
``ext_mul_s`` of (2/3 + 35/11 pi) and (-7/4 + pi/6) in Q_5(sqrt 5)
capped at precision 20, pi^2 = 5.

``builds`` times the stages and the whole of capped builds at M = 64,
128, 256 and 512 and of exact ones at M = 128 and 256, and gives the
digest of omega and omega^-1 as ``perfbench`` records it, so a change
that claims equal outputs can be checked at orders the benchmark pools
do not reach, and ``widest_bits``, the bit length of the widest
integer in their flat forms (a capped representative or an exact
numerator), a deterministic count.  ``jobs`` times one
``padicdyn verify`` job, one ``padicdyn transport`` job in the cubic
extension Q_7((-14)^(1/3)) (its conjugates need Hensel lifting), twenty
``padicdyn kummer --d 2 --N 2`` jobs (``kummer_20_s``: almost all of a
small job is fixed cost such as argument parsing), ``emit_s``, the
largest document of a seed-1 ``perfbench`` cli-jobs pass written by
``cli.emit`` (the least of runs of 100 writes to a discarded stdout,
divided by 100), ``degrees_job_s``, one six-level ``padicdyn degrees``
job through ``cli.main`` (z^2 + 1 over Q_3, P = 1/3), one degree
certificate at d^n = 64 (the same map and point) and one six-level
degree chain (z^2 over Q_3, P = 1/3); the job and both degree rows
take a new polynomial on every run, so no iterate is reused from the
run before.

``fresh`` times a CLI job as a user runs it, one job per process, where
interpreter start and import weigh most: over 11 rounds it gives the
median and quartiles of the wall time of ``python3 -c pass``
(``bare_s``), of a fresh ``import padicdyn.cli`` (``import_s``), of a
fresh ``padicdyn boettcher --prime 5 --poly 3,0,1 --order 8``
(``job_s``), and of ``-X importtime``'s cumulative time for
``padicdyn.cli`` (``importtime_s``), each run on a copy of the package
in a temporary directory: ``source`` without bytecode
(``PYTHONDONTWRITEBYTECODE=1``, so the package compiles on every run)
and ``bytecode`` with ``PYTHONPYCACHEPREFIX`` set to a temporary
directory one run warms, so nothing is written into the checkout.

Except in ``fresh``, each time is the least of up to five runs that fit
in half a second (one run when a single run takes longer), in wall-clock
seconds.  The script prints one JSON document with the machine, the
Python version and the git commit; each row also goes to stderr as it
is done.
"""

import contextlib
import hashlib
import io
import json
import operator
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from padicdyn import (CappedField, ExactField,  # noqa: E402
                      ExtensionField, MonicPoly, TailSeries,
                      boettcher_series, certify_degree, conjugates,
                      degree_chain, functional_equation_check,
                      lagrange_invert)
from padicdyn.boettcher import (_beta_series, _omega_inverse,  # noqa: E402
                                _omega_series, _reciprocal, _scale,
                                conjugacy, omega_at)
from padicdyn.cli import emit, main as cli_main, series_json  # noqa: E402
from padicdyn import series  # noqa: E402
import workloads  # noqa: E402

PRECISION = 20
ORDERS = (32, 64, 128, 256)
BUILDS = (("capped", 64), ("capped", 128), ("capped", 256), ("capped", 512),
          ("exact", 128), ("exact", 256))
PRODUCT_TERMS = (8, 16, 24, 32, 64, 128, 256, 512)
# (map, p, coefficients a_0 .. a_{d-1}) of the ``degrees`` rows
DEGREE_MAPS = (("z^3 + z^2 + z/5 + 3 over Q_5", 5, (3, Fraction(1, 5), 1)),
               ("z^5 - z^4 + z^3 + z/7 + 2 over Q_7", 7,
                (2, Fraction(1, 7), 0, 1, -1)))
DEGREE_ORDERS = (32, 64)
VERIFY_JOB = ["verify", "--prime", "7", "--poly", "2,1,0,1", "--order", "32",
              "--points", "5", "--seed", "1"]
# the cli-jobs pool's job transport:32:0: f = z^3 - 2 over Q_7 and
# Q = 1/pi with pi^3 = -14, so f(Q) = P = -1/14 - 2
TRANSPORT_JOB = ["transport", "--prime", "7", "--poly=-2,0,0,1",
                 "--point=-29/14", "--ext=14,0,0,1", "--ext-point=0,0,-1/14",
                 "--order", "12", "--backend", "capped", "--precision", "20"]
KUMMER_JOB = ["kummer", "--d", "2", "--N", "2"]
# Eisenstein stages of the ``transport`` rows: coefficients below the
# leading 1, and k for the point Q = pi^-k
TRANSPORT_STAGES = {"x^2 - 5": ([-5, 0], 3), "x^4 - 10": ([-10, 0, 0, 0], 5)}
DEGREES_JOB = ["degrees", "--prime", "3", "--poly", "1,0,1", "--point", "1/3",
               "--levels", "6", "--order", "8"]
FRESH_ROUNDS = 11
FRESH_JOB = ["boettcher", "--prime", "5", "--poly", "3,0,1", "--order", "8"]
# each a fresh interpreter's arguments; the job runs the body of the
# ``padicdyn`` console script, padicdyn.cli:main
FRESH_COMMANDS = {"bare_s": ["-c", "pass"],
                  "import_s": ["-c", "import padicdyn.cli"],
                  "job_s": ["-c", "import sys; from padicdyn.cli import main; "
                            "sys.exit(main())", *FRESH_JOB]}


def best_of(fn, budget=0.5, most=5):
    """(least seconds of the runs, the last result)."""
    times = []
    while len(times) < most and sum(times) < budget:
        started = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - started)
    return min(times), out


def reference_map(field) -> MonicPoly:
    return MonicPoly(field, [Fraction(3), Fraction(1, 5)])


def stages(f, M: int) -> tuple:
    """(row of the three stage times and the build's, omega, omega^-1)."""
    row = {}
    row["roots_s"], (omega, *_) = best_of(lambda: _omega_series(f, M))
    row["reversion_s"], omega_inverse = best_of(
        lambda: _omega_inverse(f, M))
    row["build_s"], B = best_of(lambda: boettcher_series(f, M))
    row["equation_s"], order = best_of(
        lambda: functional_equation_check(B, M))
    if order != M:
        raise SystemExit(f"{f.field} M={M}: functional equation holds to "
                         f"{order} only")
    return row, omega, omega_inverse


def layers(field, M: int) -> dict:
    f = reference_map(field)
    row, omega, omega_inverse = stages(f, M)
    N = next(n for n in range(1, M + 1) if f.degree ** n >= M)
    beta = _beta_series(f, N, M)[-1]
    row["lagrange_invert_s"], _ = best_of(lambda: lagrange_invert(omega))
    W = _reciprocal(f, M)
    row["compose_horner_s"], _ = best_of(
        lambda: omega.compose(W).truncate(M))
    xi = beta.nth_root(f.degree ** N)
    row["mul_s"], _ = best_of(lambda: xi * xi)
    row["nth_root_s"], _ = best_of(lambda: beta.nth_root(f.degree))
    row["invert_unit_s"], _ = best_of(xi.invert_unit)
    row["compose_s"], _ = best_of(lambda: omega.compose(omega_inverse))
    return row


def digest(omega: TailSeries, omega_inverse: TailSeries) -> str:
    """The digest of omega and omega^-1 as ``perfbench`` records it."""
    doc = [series_json(omega), series_json(omega_inverse)]
    return hashlib.sha256(json.dumps(
        doc, sort_keys=True).encode()).hexdigest()[:16]


def degree_row(p: int, coeffs, backend: str, M: int) -> dict:
    """roots_s, build_s and the digest of one map of degree above 2."""
    field = ExactField(p) if backend == "exact" else CappedField(
        p, PRECISION)
    f = MonicPoly(field, coeffs)
    row = {}
    row["roots_s"], _ = best_of(lambda: _omega_series(f, M))
    row["build_s"], B = best_of(lambda: boettcher_series(f, M))
    if B.verified_order != M:
        raise SystemExit(f"{field} M={M}: verified to {B.verified_order}")
    row["digest"] = digest(B.omega, B.omega_inverse)
    return row


@contextmanager
def long_routes(n: int, on: bool):
    """Products of n terms take the long routes (on) or the short ones."""
    saved = series._LONG
    series._LONG = n if on else n + 1
    try:
        yield
    finally:
        series._LONG = saved


def at_scale_one(S: TailSeries) -> TailSeries:
    """S rebuilt from its elements: the same series at scale 1."""
    return TailSeries(S.field, S.ord, S.coeffs, S.trunc)


def products() -> list:
    """mul_s and square_s rows of n-term capped products, on the short
    routes and on the long ones, at the build's scale and at scale 1."""
    f = reference_map(CappedField(5, PRECISION))
    M = max(PRODUCT_TERMS) + 1
    omega = _omega_series(f, M)[0]
    omega_inverse = _omega_inverse(f, M)
    rows = []
    for n in PRODUCT_TERMS:
        cut = omega.truncate(n + 1), omega_inverse.truncate(n + 1)
        pairs = (5, cut), (1, tuple(map(at_scale_one, cut)))
        for scale, (a, b) in pairs:
            for routes in ("short", "long"):
                with long_routes(n, routes == "long"):
                    row = {"backend": "capped", "n": n, "scale": scale,
                           "routes": routes}
                    row["mul_s"], ab = best_of(lambda: a * b)
                    row["square_s"], aa = best_of(lambda: a * a)
                if (ab.trunc - ab.ord, aa.trunc - aa.ord) != (n, n):
                    raise SystemExit(f"n={n}: the products have "
                                     f"{ab.trunc - ab.ord} and "
                                     f"{aa.trunc - aa.ord} terms")
                rows.append(row)
    return rows


INVERSE_UNITS = (
    ("mixed_s", lambda i: Fraction((-1) ** i * (i % 7 + 1),
                                   (2, 3, 5, 7)[i % 4])),
    ("geometric_s", lambda i: Fraction(-2, 15) ** i))


def reciprocal_unit(field, M: int) -> TailSeries:
    """W's unit f(z)/z^d of the reference map to order M, at the build's
    scale."""
    f = reference_map(field)
    return TailSeries.from_polynomial(field, f.w_coeffs(), M)._rescaled(
        _scale(f))


def inverses() -> list:
    """mixed_s, geometric_s and reciprocal_s rows of exact unit inverses,
    at_scale_s, scale_one_s and reciprocal_s rows of capped ones."""
    field = ExactField(5)
    rows = []
    for M in ORDERS:
        row = {"backend": "exact", "M": M}
        units = [(key, TailSeries(field, 0, [1] + [
            coefficient(i) for i in range(1, M)], M))
            for key, coefficient in INVERSE_UNITS]
        for key, unit in units + [("reciprocal_s",
                                   reciprocal_unit(field, M))]:
            row[key], inverse = best_of(unit.invert_unit)
            if not (unit * inverse).identical_to(
                    TailSeries.one(field, M), M):
                raise SystemExit(f"{key} M={M}: unit * inverse is not 1")
        rows.append(row)
    field = CappedField(5, PRECISION)
    omega = _omega_series(reference_map(field), max(ORDERS) + 1)[0]
    for M in ORDERS:
        unit = omega.truncate(M + 1).shifted(-1)
        row = {"backend": "capped", "M": M}
        for key, x in (("at_scale_s", unit),
                       ("scale_one_s", at_scale_one(unit)),
                       ("reciprocal_s", reciprocal_unit(field, M))):
            row[key], inverse = best_of(x.invert_unit)
            if not (x * inverse - TailSeries.one(x.field, M)).is_zero():
                raise SystemExit(f"{key} M={M}: unit * inverse is not 1")
        rows.append(row)
    return rows


def transport(backend: str, stage: str) -> dict:
    """omega_at_s, conjugates_s and ext_mul_s in one extension of Q_5."""
    field = ExactField(5) if backend == "exact" else CappedField(
        5, PRECISION)
    B = conjugacy(reference_map(field), 32)
    coeffs, k = TRANSPORT_STAGES[stage]

    def extension():
        return ExtensionField(field, coeffs, "eisenstein")

    def fresh_conjugates():
        E = extension()
        return conjugates(E, E.from_vector(value.vec), precision=16)

    Q = extension().generator() ** -k
    row = {"backend": backend, "stage": stage, "M": 32}
    row["omega_at_s"], value = best_of(lambda: omega_at(B, Q).value)
    row["conjugates_s"], conj = best_of(fresh_conjugates)
    if len(conj) != len(coeffs):
        raise SystemExit(f"{backend} {stage}: {len(conj)} conjugates")
    seconds, _ = best_of(lambda: [value * Q for _ in range(1000)])
    row["ext_mul_s"] = seconds / 1000
    return row


def elements() -> dict:
    """Seconds per element operation, capped, exact and in an extension."""
    K, Q = CappedField(5, PRECISION), ExactField(5)
    E = ExtensionField(K, [-5, 0], "eisenstein")
    a, b = K.from_rational(Fraction(2, 3)), K.from_rational(Fraction(35, 11))
    zero = a - a
    x, y = Q.from_rational(Fraction(2, 3)), Q.from_rational(Fraction(35, 11))
    s = E.from_vector([Fraction(2, 3), Fraction(35, 11)])
    t = E.from_vector([Fraction(-7, 4), Fraction(1, 6)])
    row = {}
    for key, op, u, w in (("capped_add_s", operator.add, a, b),
                          ("capped_mul_s", operator.mul, a, b),
                          ("capped_div_s", operator.truediv, a, b),
                          ("capped_add_zero_s", operator.add, a, zero),
                          ("capped_mul_zero_s", operator.mul, a, zero),
                          ("exact_add_s", operator.add, x, y),
                          ("exact_mul_s", operator.mul, x, y),
                          ("ext_mul_s", operator.mul, s, t)):
        seconds, _ = best_of(lambda: [op(u, w) for _ in range(1000)])
        row[key] = seconds / 1000
    return row


def build(backend: str, M: int) -> dict:
    """Stage times and the perfbench digest of one build."""
    field = ExactField(5) if backend == "exact" else CappedField(
        5, PRECISION)
    row, omega, omega_inverse = stages(reference_map(field), M)
    row["digest"] = digest(omega, omega_inverse)
    row["widest_bits"] = max(x.bit_length() for S in (omega, omega_inverse)
                             for x in S._flat[0])
    return row


def cli_job(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli_main(argv)


def largest_cli_document() -> dict:
    """The longest document a seed-1 cli-jobs pass of ``perfbench`` prints,
    read back from its JSON."""
    texts = [workloads.run_cli(op.args[0])[1]
             for op in workloads.cli_ops(1)]
    return json.loads(max(texts, key=len))


def jobs() -> dict:
    row = {}
    for name, argv, runs in (("verify_job_s", VERIFY_JOB, 1),
                             ("transport_job_s", TRANSPORT_JOB, 1),
                             ("kummer_20_s", KUMMER_JOB, 20),
                             ("degrees_job_s", DEGREES_JOB, 1)):
        row[name], codes = best_of(lambda: [cli_job(argv)
                                            for _ in range(runs)])
        if any(codes):
            raise SystemExit(f"{' '.join(argv)} exited {max(codes)}")
    doc = largest_cli_document()
    with contextlib.redirect_stdout(io.StringIO()) as out:
        emit(doc, None)
    if json.loads(out.getvalue()) != doc:
        raise SystemExit("cli.emit does not write the document back")

    def emit_100():
        with contextlib.redirect_stdout(io.StringIO()):
            for _ in range(100):
                emit(doc, None)

    row["emit_s"] = best_of(emit_100)[0] / 100
    row["certify_degree_64_s"], degree = best_of(lambda: certify_degree(
        MonicPoly(ExactField(3), [1, 0]), Fraction(1, 3), 6))
    if degree != 64:
        raise SystemExit(f"certify_degree gave {degree}, not 64")
    row["degree_chain_s"], chain = best_of(lambda: degree_chain(
        MonicPoly(ExactField(3), [0, 0]), Fraction(1, 3), 6))
    degrees = [r["certified_degree"] for r in chain.levels]
    if degrees != [2, 4, 8, 16, 32, 64]:
        raise SystemExit(f"degree_chain gave {degrees}")
    return row


def fresh_envs(src: Path, tmp: Path) -> dict:
    """The ``source`` and ``bytecode`` environments of the ``fresh`` row
    for a copy in tmp of the package under src; the bytecode cache is
    warmed by one run."""
    shutil.copytree(src / "padicdyn", tmp / "src" / "padicdyn",
                    ignore=shutil.ignore_patterns("__pycache__"))
    base = {key: value for key, value in os.environ.items()
            if key not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
    base["PYTHONPATH"] = str(tmp / "src")
    envs = {"source": dict(base, PYTHONDONTWRITEBYTECODE="1"),
            "bytecode": dict(base, PYTHONPYCACHEPREFIX=str(tmp / "cache"))}
    fresh_round(envs["bytecode"])
    return envs


def fresh_round(env: dict) -> dict:
    """One run of each fresh-process command under env, in wall seconds,
    and ``-X importtime``'s cumulative seconds for padicdyn.cli, which
    holds the package's own import."""
    row = {}
    for name, args in FRESH_COMMANDS.items():
        started = time.perf_counter()
        subprocess.run([sys.executable, *args], env=env, check=True,
                       stdout=subprocess.DEVNULL)
        row[name] = time.perf_counter() - started
    report = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import padicdyn.cli"],
        env=env, check=True, capture_output=True, text=True).stderr
    row["importtime_s"] = next(
        int(line.split("|")[1]) for line in report.splitlines()
        if line.split("|")[-1].strip() == "padicdyn.cli") / 1e6
    return row


def quartiles(xs) -> dict:
    q1, median, q3 = statistics.quantiles(xs, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def fresh() -> dict:
    """The ``fresh`` row, rounds alternating between the two
    environments."""
    with tempfile.TemporaryDirectory() as tmp:
        envs = fresh_envs(ROOT / "src", Path(tmp))
        rounds = {kind: [] for kind in envs}
        for _ in range(FRESH_ROUNDS):
            for kind, env in envs.items():
                rounds[kind].append(fresh_round(env))
    return {"rounds": FRESH_ROUNDS, "job": " ".join(["padicdyn", *FRESH_JOB]),
            **{kind: {name: quartiles([r[name] for r in runs])
                      for name in runs[0]}
               for kind, runs in rounds.items()}}


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
    degrees = []
    for text, p, coeffs in DEGREE_MAPS:
        for backend in ("exact", "capped"):
            for M in DEGREE_ORDERS:
                row = {"map": text, "backend": backend, "M": M,
                       **degree_row(p, coeffs, backend, M)}
                degrees.append(row)
                print(json.dumps(row), file=sys.stderr)
    product_rows = products()
    for row in product_rows:
        print(json.dumps(row), file=sys.stderr)
    inverse_rows = inverses()
    for row in inverse_rows:
        print(json.dumps(row), file=sys.stderr)
    transport_rows = [transport(backend, stage) for backend, stage in
                      (("exact", "x^2 - 5"), ("capped", "x^2 - 5"),
                       ("capped", "x^4 - 10"))]
    for row in transport_rows:
        print(json.dumps(row), file=sys.stderr)
    element_row = elements()
    print(json.dumps(element_row), file=sys.stderr)
    builds = []
    for backend, M in BUILDS:
        row = {"backend": backend, "M": M, **build(backend, M)}
        builds.append(row)
        print(json.dumps(row), file=sys.stderr)
    job_row = jobs()
    print(json.dumps(job_row), file=sys.stderr)
    fresh_row = fresh()
    print(json.dumps(fresh_row), file=sys.stderr)
    doc = {"map": "z^2 + z/5 + 3 over Q_5", "capped_precision": PRECISION,
           "unit": "s", "machine": machine(),
           "python": platform.python_version(), "git": git_sha(),
           "rows": rows, "degrees": degrees, "products": product_rows,
           "inverses": inverse_rows, "transport": transport_rows,
           "elements": element_row,
           "builds": builds, "jobs": job_row, "fresh": fresh_row}
    print(json.dumps(doc, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
