"""Inputs, operations and output checks of the padicdyn benchmark.

Every input a run can make comes from a fixed pool whose outputs were
recorded once into ``expected.json`` (see ``record.py``).  A run's seed
picks members of the pool, so different seeds give different inputs while
every output still has a recorded answer to be checked against.

An ``Op`` is one timed unit of work: one map (``conjugacy-batch``), one
build (``order-scaling``) or one CLI job (``cli-jobs``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from padicdyn import CappedField, ExactField, MonicPoly, boettcher, cli

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

WORKLOADS = ("conjugacy-batch", "order-scaling", "cli-jobs")

DEFAULT_SEEDS = {
    "conjugacy-batch": 20260809,
    "order-scaling": 0,
    "cli-jobs": 1,
}


@dataclass
class Op:
    """One timed unit of work and the key of its recorded expectation."""

    key: str
    label: str          # grouping for reported metrics
    args: tuple         # what ``execute`` needs
    malformed: bool = False


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def series_digest(B) -> str:
    """Digest of omega and omega^-1 encoded as the CLI encodes them."""
    doc = [cli.series_json(B.omega), cli.series_json(B.omega_inverse)]
    return digest(json.dumps(doc, sort_keys=True))


def load_expected() -> dict:
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# conjugacy-batch: the acceptance-1 generator over a pool of seeds
# ---------------------------------------------------------------------------

CONJ_BASE_SEED = 20260809
CONJ_POOL = 8
CONJ_MAPS = 50
CONJ_ORDER = 32
_COMBOS = [(p, d) for p in (3, 5, 7) for d in (2, 3, 4, 5) if d % p]


def acceptance_maps(gen_seed: int, count: int = CONJ_MAPS) -> list:
    """(p, backend, coeffs) exactly as acceptance 1 draws them."""
    rng = random.Random(gen_seed)
    out = []
    for trial in range(count):
        p, d = _COMBOS[trial % len(_COMBOS)]
        bad = trial % 2 == 1
        backend = "capped" if trial % 5 else "exact"
        coeffs = [Fraction(rng.randrange(-9, 10)) for _ in range(d)]
        if bad:
            i = rng.randrange(d)
            coeffs[i] = Fraction(rng.randrange(1, 9) * rng.choice([1, -1]),
                                 p ** rng.randrange(1, 3))
        out.append((p, backend, coeffs))
    return out


def make_map(p: int, backend: str, coeffs) -> MonicPoly:
    field = ExactField(p) if backend == "exact" else CappedField(p, 20)
    return MonicPoly(field, coeffs)


def conjugacy_pool() -> dict:
    """Every map a conjugacy-batch run can draw, keyed 'k:i'."""
    pool = {}
    for k in range(CONJ_POOL):
        for i, spec in enumerate(acceptance_maps(CONJ_BASE_SEED + k)):
            pool[f"{k}:{i}"] = spec
    return pool


def conjugacy_ops(seed: int, count: int = CONJ_MAPS,
                  order: int = CONJ_ORDER) -> list:
    """Slot i keeps acceptance 1's (p, d, reduction, backend) and takes its
    coefficients from pool seed 20260809 + k; seed 20260809 picks k = 0
    everywhere, which is acceptance 1 itself."""
    rng = random.Random(seed)
    specs = [acceptance_maps(CONJ_BASE_SEED + k, count)
             for k in range(CONJ_POOL)]
    ops = []
    for i in range(count):
        k = 0 if seed == CONJ_BASE_SEED else rng.randrange(CONJ_POOL)
        p, backend, coeffs = specs[k][i]
        ops.append(Op(f"{k}:{i}", backend,
                      (make_map(p, backend, coeffs), order)))
    return ops


# ---------------------------------------------------------------------------
# order-scaling: the reference map and its sign variants
# ---------------------------------------------------------------------------

# sign variants of equal cost (z^2 + z/5 - 3 was left out: its exact build
# costs ~11% more, which would make the seed move the timings)
ORDER_POOL = [(Fraction(3), Fraction(1, 5)), (Fraction(3), Fraction(-1, 5)),
              (Fraction(-3), Fraction(-1, 5))]
ORDER_BUILDS = (("capped", 64), ("capped", 128), ("exact", 64))


def order_ops(seed: int, builds=ORDER_BUILDS) -> list:
    """Seed s builds z^2 + a1 z + a0 with (a0, a1) = ORDER_POOL[s % 3];
    seed 0 is the ROADMAP reference map z^2 + z/5 + 3."""
    index = seed % len(ORDER_POOL)
    ops = []
    for backend, M in builds:
        f = make_map(5, backend, list(ORDER_POOL[index]))
        ops.append(Op(f"{index}:{backend}:{M}", f"{backend}.M{M}", (f, M)))
    return ops


# ---------------------------------------------------------------------------
# cli-jobs: a fixed mix of subcommands drawn from per-category pools
# ---------------------------------------------------------------------------

# jobs per run, by category; malformed jobs make 11 of 221 (5.0%)
CLI_MIX = {"degrees": 84, "transport": 42, "verify": 16, "boettcher": 16,
           "cf": 13, "newton-polygon": 13, "escape": 13, "kummer": 13,
           "malformed": 11}
_CLI_POOL_SEED = 4096
_CLI_VARIANTS = 3   # pool entries per job slot


def _poly(coeffs) -> str:
    return "--poly=" + ",".join(str(Fraction(c)) for c in coeffs) + ",1"


def _cli_job(category: str, shape, values) -> list:
    """One job.  ``shape`` draws what sets its cost (command, degree,
    prime, order, backend, levels); ``values`` draws the coefficients and
    points.  A slot's variants share ``shape``, so a seed changes the
    inputs but hardly the work."""
    if category == "degrees":
        d = shape.choice([2, 2, 3, 4])
        p = shape.choice([q for q in (3, 5, 7) if d % q])
        levels = shape.randrange(1, {2: 6, 3: 3, 4: 3}[d] + 1)
        point = Fraction(values.randrange(1, p), p ** shape.randrange(1, 3))
        coeffs = [values.randrange(-3, 4) for _ in range(d)]
        return ["degrees", "--prime", str(p), _poly(coeffs),
                f"--point={point}", "--levels", str(levels), "--order", "8"]
    backend = (["--backend", "exact"] if shape.random() < 0.5 else
               ["--backend", "capped", "--precision", "20"])
    if category == "transport":
        # mostly quadratic Eisenstein extensions as in acceptance 9; one in
        # six is cubic over Q_7 or quartic over Q_5, whose conjugates need
        # Hensel lifting (quartic only capped: exact takes ~0.7 s)
        if shape.random() < 1 / 6:
            p, e = shape.choice([(7, 3), (5, 4)])
            if e == 4:
                backend = ["--backend", "capped", "--precision", "20"]
        else:
            p, e = shape.choice([3, 5, 7]), 2
        order = shape.choice([12, 16])
        c = values.randrange(-3, 4)
        a = p * Fraction(values.choice([1, -1, 2, -2]), values.choice([1, 2]))
        point = 1 / a + c   # Q = 1/pi with pi^e = a, so f(Q) = Q^e + c = P
        zeros = ",0" * (e - 1)
        return ["transport", "--prime", str(p), _poly([c] + [0] * (e - 1)),
                f"--point={point}", f"--ext={-a}{zeros},1",
                f"--ext-point=0{zeros[:-2]},{1 / a}", "--order",
                str(order)] + backend
    if category in ("verify", "boettcher"):
        d = shape.choice([2, 3])
        p = shape.choice([q for q in (3, 5, 7) if d % q])
        order = shape.choice([8, 12, 16])
        bad = shape.randrange(d) if shape.random() < 0.5 else None
        job = [category, "--prime", str(p), None, "--order", str(order)]
        if category == "boettcher":
            if shape.random() < 0.3:
                job.append("--emit-latex")
        else:
            job += ["--points", str(shape.randrange(0, 4)),
                    "--seed", str(values.randrange(100))]
        coeffs = [values.randrange(-5, 6) for _ in range(d)]
        if bad is not None:
            coeffs[bad] = Fraction(values.choice([1, -1, 2]), p)
        job[3] = _poly(coeffs)
        return job + backend
    if category == "cf":
        d, p = shape.choice([2, 3, 4, 5]), shape.choice([2, 3, 5, 7])
        coeffs = [Fraction(values.randrange(-9, 10), p ** values.randrange(3))
                  for _ in range(d)]
        return ["cf", "--prime", str(p), _poly(coeffs)]
    if category == "newton-polygon":
        d, p = shape.choice([2, 3, 4, 5, 6]), shape.choice([2, 3, 5, 7])
        coeffs = [p * values.randrange(1, 5)] + [
            p ** values.randrange(0, 3) * values.randrange(-4, 5)
            for _ in range(d - 1)]
        return ["newton-polygon", "--prime", str(p), _poly(coeffs)]
    if category == "escape":
        d, p = shape.choice([2, 3]), shape.choice([3, 5, 7])
        max_iter = shape.randrange(2, 6)
        coeffs = [Fraction(values.randrange(-4, 5), p ** values.randrange(3))
                  for _ in range(d)]
        point = Fraction(values.randrange(1, 10), p ** values.randrange(3))
        return ["escape", "--prime", str(p), _poly(coeffs),
                f"--point={point}", "--max-iter", str(max_iter)]
    if category == "kummer":
        d, N = shape.choice([(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2)])
        m = d ** N
        units = [j for j in range(1, m) if j % d]
        gens = ";".join(f"{values.randrange(m)},{values.choice(units)}"
                        for _ in range(shape.randrange(1, 3)))
        return ["kummer", "--d", str(d), "--N", str(N), "--generators", gens]
    if category == "malformed":
        # inputs README promises exit 2 for
        kind = shape.randrange(3)
        if kind == 2:
            return ["kummer", "--d", "2", "--N", str(values.randrange(1, 4)),
                    "--generators", str(values.randrange(1, 4))]
        poly = "--poly=1/0,1" if kind == 0 else "--poly=abc,1"
        return [shape.choice(["cf", "boettcher", "newton-polygon"]),
                "--prime", str(values.choice([3, 5, 7])), poly]
    raise ValueError(f"unknown job category {category!r}")


def cli_pool() -> dict:
    """Every job a cli-jobs run can draw, keyed 'category:slot:variant'."""
    pool = {}
    for category, slots in CLI_MIX.items():
        for n in range(slots):
            for v in range(_CLI_VARIANTS):
                tag = f"{_CLI_POOL_SEED}:{category}:{n}"
                pool[f"{category}:{n}:{v}"] = _cli_job(
                    category, random.Random(tag), random.Random(f"{tag}:{v}"))
    return pool


def cli_ops(seed: int, mix=None) -> list:
    """The jobs of CLI_MIX (or the first ``mix[c]`` slots of each category
    c), each slot's variant picked by the seed, in seeded order."""
    mix = CLI_MIX if mix is None else mix
    pool = cli_pool()
    rng = random.Random(seed)
    ops = []
    for category, slots in mix.items():
        for n in range(slots):
            key = f"{category}:{n}:{rng.randrange(_CLI_VARIANTS)}"
            ops.append(Op(key, category, (pool[key],),
                          malformed=category == "malformed"))
    rng.shuffle(ops)
    return ops


def run_cli(argv) -> tuple:
    """(exit code, stdout) of one in-process ``padicdyn`` invocation."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# execution and checking
# ---------------------------------------------------------------------------


def make_ops(workload: str, seed: int) -> list:
    if workload == "conjugacy-batch":
        return conjugacy_ops(seed)
    if workload == "order-scaling":
        return order_ops(seed)
    if workload == "cli-jobs":
        return cli_ops(seed)
    raise ValueError(f"unknown workload {workload!r}")


def execute(workload: str, op: Op):
    """The timed part of one op."""
    if workload == "cli-jobs":
        return run_cli(op.args[0])
    f, M = op.args
    B = boettcher.boettcher_series(f, M)
    if workload == "conjugacy-batch":
        return B, boettcher.functional_equation_check(B, M)
    return B, None


def observed(workload: str, op: Op, result):
    """What is compared with the recorded expectation."""
    if workload == "cli-jobs":
        code, out = result
        return [code, digest(out)]
    return series_digest(result[0])


def check(workload: str, op: Op, result, expected,
          checked=None) -> str | None:
    """None when the op's output is right, else why it is not.

    ``checked`` (a dict the caller keeps for one run) remembers builds
    whose functional equation was already verified: a later pass that
    produces the same Omega digest for the same map needs no second check.
    """
    got = observed(workload, op, result)
    if workload == "cli-jobs":
        return None if got == expected else f"got {got}, expected {expected}"
    B, order = result
    M = op.args[1]
    if B.verified_order != M:
        return f"verified_order {B.verified_order} != {M}"
    checked = {} if checked is None else checked
    if order is None:
        order = checked.get((op.key, got))
    if order is None:
        order = boettcher.functional_equation_check(B, M)
    if order != M:
        return f"functional equation holds to {order} only, not {M}"
    checked[(op.key, got)] = order
    return None if got == expected else f"digest {got} != {expected}"
