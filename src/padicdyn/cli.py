"""Batch front end: parse a job, dispatch, emit JSON plus a summary line.

Output is deterministic for identical inputs (a --seed flag drives any
randomized sampling), all field constants travel as "num/den" strings or
base-p digit lists, and the exit status separates usage errors (2),
domain/precision errors (3), and failed mathematical checks (4).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import random
import sys
from collections import namedtuple
from fractions import Fraction

from .arboreal import (KummerLevel, degree_chain, subgroup_orbit_count,
                       transport_check)
from .boettcher import (MonicPoly, boettcher_series, cf_constant,
                        cf_sup_check, conjugacy, escape_test, good_reduction,
                        point_identity_report, rescaled_integrality_ok)
from .errors import (BudgetError, DomainError, InternalError, PrecisionError,
                     UsageError)
from .localfield import (ExactElement, ExtensionField, PadicElement,
                         Valuation, field_for)
from .newton import (build_polygon, root_valuations,
                     total_ramification_certificate)
from .series import TailSeries

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_CHECK_FAILED = 4


def is_prime(n: int) -> bool:
    """Trial division, quick enough below 2^31, the bound of --prime."""
    return n >= 2 and all(n % k for k in range(2, math.isqrt(n) + 1))


# ---------------------------------------------------------------------------
# JSON encoding of library values
# ---------------------------------------------------------------------------


def frac_str(q) -> str:
    """q as "num/den" for the output (JSON and LaTeX); past Python's
    int-to-str limit (4300 digits by default) it raises BudgetError."""
    try:
        return str(Fraction(q))
    except ValueError:
        raise BudgetError(f"rational of over {sys.get_int_max_str_digits()}"
                          f" digits exceeds the print limit") from None


def valuation_json(v: Valuation) -> str:
    return "inf" if v.is_infinite else str(v)


def element_json(x) -> dict:
    if isinstance(x, ExactElement):
        return {"backend": "exact", "p": x.field.p,
                "rational": frac_str(x.value),
                "valuation": valuation_json(x.valuation())}
    if isinstance(x, PadicElement):
        return {"backend": "capped", "p": x.field.p,
                "valuation": valuation_json(x.valuation()),
                "digits": x.digits(),
                "precision": x.rel}
    # extension elements serialize componentwise
    return {"backend": "extension",
            "valuation": valuation_json(x.valuation()),
            "vector": [element_json(c) for c in x.vec]}


def series_json(s: TailSeries) -> dict:
    return {"ord": s.ord, "trunc": s.trunc,
            "coeffs": [element_json(c) for c in s.coeffs]}


def series_latex(s: TailSeries, var: str = "z^{-1}") -> str:
    terms = []
    for i, c in enumerate(s.coeffs):
        if c.is_zero():
            continue
        k = s.ord + i
        q = c.value if isinstance(c, ExactElement) else None
        if q is None:
            coeff = "c_{%d}" % k
        elif q == 1:
            coeff = ""
        else:
            num, _, den = frac_str(q).partition("/")
            coeff = r"\frac{%s}{%s}" % (num, den) if den else num
        terms.append(f"{coeff}{var}^{{{k}}}" if k != 1
                     else f"{coeff}{var}")
    body = " + ".join(terms).replace("+ -", "- ")
    return f"{body} + O({var}^{{{s.trunc}}})"


# ---------------------------------------------------------------------------
# job specification
# ---------------------------------------------------------------------------


_JOB_DEFAULTS = {"prime": 0, "backend": "exact", "precision": 24,
                 "order": 16, "poly": (), "point": None, "levels": 3,
                 "max_iter": 16, "d": 2, "N": 1, "generators": (), "ext": (),
                 "ext_kind": "eisenstein", "ext_point": (), "points": 0,
                 "seed": 0, "emit_latex": False}


class JobSpec(namedtuple("JobSpec", ("command", *_JOB_DEFAULTS),
                         defaults=_JOB_DEFAULTS.values())):
    """One job: the subcommand and every flag's value, a flag left out at
    its default."""

    __slots__ = ()

    def validate(self):
        if self.command == "kummer":
            return
        if self.prime < 2 or self.prime > 2 ** 31 or not is_prime(self.prime):
            raise UsageError(f"--prime must be a prime below 2^31, "
                             f"got {self.prime}")
        if self.order < 2:
            raise UsageError("--order must be at least 2")
        if self.precision < 1:
            raise UsageError("--precision must be at least 1")
        for flag, value, least in (("--points", self.points, 0),
                                   ("--max-iter", self.max_iter, 0),
                                   ("--levels", self.levels, 1)):
            if value < least:
                raise UsageError(f"{flag} must be at least {least}")
        for name in ("poly", "point", "ext", "ext_point"):
            self.rationals(name)
        if self.ext and self.ext_point and \
                len(self.ext_point) != len(self.ext) - 1:
            raise UsageError(f"--ext-point needs {len(self.ext) - 1} "
                             f"coordinates (the degree of --ext), got "
                             f"{len(self.ext_point)}")

    def rationals(self, name: str) -> tuple:
        """The field ``name`` (poly, point, ext or ext_point) as a tuple of
        Fractions, one for each text (``point`` gives one, or none when it
        is unset); a malformed text is a usage error naming its flag,
        which ``validate`` raises before any runner parses a field."""
        texts = getattr(self, name)
        if name == "point":
            texts = () if texts is None else (texts,)
        flag = "--" + name.replace("_", "-")
        return tuple([parse_rational(text, flag) for text in texts])

    def inputs_json(self) -> dict:
        """Every field, tuples as JSON lists."""
        return {name: _nested(list, getattr(self, name))
                for name in self._fields}

    @classmethod
    def from_json(cls, doc: dict) -> "JobSpec":
        return cls(**{key: _nested(tuple, doc[key]) for key in doc})


def _nested(kind, value):
    """value with each list or tuple in it, at any depth, made a kind."""
    if isinstance(value, (list, tuple)):
        return kind(_nested(kind, item) for item in value)
    return value


def parse_rational(text: str, flag: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"{flag}: malformed rational {text!r}") from exc


def parse_list_arg(text: str, flag: str, least: int) -> tuple:
    """The fields of a comma-separated list flag; an empty field is a
    usage error, not a field to skip."""
    parts = tuple(part.strip() for part in text.split(","))
    if "" in parts:
        raise UsageError(f"{flag}: empty field in {text!r}")
    if len(parts) < least:
        raise UsageError(f"{flag} needs at least {least} comma-separated "
                         f"values")
    return parts


def parse_pairs(text: str) -> tuple:
    out = []
    for chunk in filter(None, map(str.strip, text.split(";"))):
        try:
            i, j = chunk.split(",")
            out.append((int(i), int(j)))
        except ValueError as exc:
            raise UsageError(f"--generators expects pairs \"i,j;i,j\", "
                             f"got {chunk!r}") from exc
    return tuple(out)


def _monic(job: JobSpec) -> MonicPoly:
    """The job's map over the field of its --prime, --backend, --precision."""
    coeffs = job.rationals("poly")
    if coeffs[-1] != 1:
        raise UsageError("--poly lists a0,...,a_{d-1},1 and must be monic")
    field = field_for(job.prime, job.backend, job.precision)
    return MonicPoly(field, coeffs[:-1])


# ---------------------------------------------------------------------------
# command runners: each returns (results, checks)
# ---------------------------------------------------------------------------


def run_cf(job: JobSpec):
    f = _monic(job)
    vcf = cf_constant(f)
    results = {"cf_valuation": frac_str(vcf),
               "good_reduction": good_reduction(f)}
    checks = [{"name": "cf-sup-agreement", "passed": cf_sup_check(f, vcf)}]
    return results, checks


def run_boettcher(job: JobSpec):
    f = _monic(job)
    B = boettcher_series(f, job.order)
    results = {
        "cf_valuation": frac_str(B.cf_valuation),
        "good_reduction": B.good_reduction,
        "verified_order": B.verified_order,
        "domain": {"center": B.domain.center, "eps": frac_str(B.domain.eps)},
        "omega": series_json(B.omega),
        "omega_inverse": series_json(B.omega_inverse),
    }
    if job.emit_latex:
        results["omega_latex"] = series_latex(B.omega)
    checks = [
        {"name": "functional-equation", "passed":
            B.verified_order >= job.order, "order": B.verified_order},
        {"name": "rescaled-integrality", "passed":
            rescaled_integrality_ok(B)},
    ]
    if f.field.backend == "exact":
        checks.append({"name": "cf-sup-agreement",
                       "passed": cf_sup_check(f, B.cf_valuation)})
    return results, checks


def run_verify(job: JobSpec):
    f = _monic(job)
    B = conjugacy(f, job.order)
    results = {"verified_order": B.verified_order}
    checks = [{"name": "functional-equation",
               "passed": B.verified_order >= job.order,
               "order": B.verified_order}]
    if job.points:
        rng = random.Random(job.seed)
        sampled = []
        for _ in range(job.points):
            num = rng.randrange(1, f.field.p)  # a unit numerator
            k = rng.randrange(1, 4)
            shift = int(-B.cf_valuation) + k   # v(point) < v(C_f) strictly
            point = Fraction(num, f.field.p ** shift)
            ok, residual, bound = point_identity_report(B, point)
            sampled.append({"point": frac_str(point), "passed": ok,
                            "residual": valuation_json(residual),
                            "bound": valuation_json(bound)})
        results["sampled_points"] = sampled
        checks.append({"name": "point-identity",
                       "passed": all(s["passed"] for s in sampled)})
    return results, checks


def run_newton_polygon(job: JobSpec):
    field = field_for(job.prime, job.backend, job.precision)
    coeffs = [field.embed(c) for c in job.rationals("poly")]
    polygon = build_polygon(coeffs)
    cert = total_ramification_certificate(polygon, coeffs)
    results = {
        "vertices": [[int(i), frac_str(v)] for i, v in polygon.hull],
        "segments": [{"slope": frac_str(s.slope), "length": s.length}
                     for s in polygon.segments],
        "root_valuations": [frac_str(v)
                            for v in reversed(root_valuations(polygon))],
        "certificate": ("inconclusive" if cert is None else
                        {"degree": cert.degree,
                         "ramification_index": cert.ramification_index,
                         "root_valuation": frac_str(cert.root_valuation)}),
    }
    return results, []


def run_escape(job: JobSpec):
    f = _monic(job)
    if job.point is None:
        raise UsageError("escape needs --point")
    (point,) = job.rationals("point")
    P = f.field.embed(point)
    res = escape_test(f, P, job.max_iter)
    results = {"status": res.status, "iterations": res.iterations,
               "certified": res.certified, "reason": res.reason,
               "cf_valuation": frac_str(cf_constant(f))}
    return results, []


def run_degrees(job: JobSpec):
    if job.backend != "exact":
        raise UsageError("degrees needs the exact backend")
    f = _monic(job)
    if job.point is None:
        raise UsageError("degrees needs --point")
    (point,) = job.rationals("point")
    chain = degree_chain(f, point, job.levels, job.order)
    levels = []
    consistent = True
    product = 1
    for record in chain.levels:
        product *= record["predicted_step"]
        certified = record["certified_degree"]
        if certified is not None and certified != product:
            consistent = False
        levels.append({**record, "certified_degree": (
            "uncertified" if certified is None else certified)})
    results = {"v_q": chain.v_q, "levels": levels}
    checks = [{"name": "certified-matches-predicted", "passed": consistent}]
    return results, checks


def run_kummer(job: JobSpec):
    L = KummerLevel(job.d, job.N)
    gens = list(job.generators)
    orbit_count = subgroup_orbit_count(gens, L)
    results = {"d": job.d, "N": job.N, "modulus": L.modulus,
               "group_order": L.order, "orbits": orbit_count}
    checks = []
    if job.N >= 2 and gens:
        L_down = KummerLevel(job.d, job.N - 1)
        m_down = job.d ** (job.N - 1)
        ok = all(
            L.act(g, k) % m_down == L_down.act(L.restrict(g), k % m_down)
            for g in gens for k in range(L.modulus))
        checks.append({"name": "restriction-compatibility", "passed": ok})
    return results, checks


def run_transport(job: JobSpec):
    f = _monic(job)
    if job.point is None or not job.ext or not job.ext_point:
        raise UsageError("transport needs --point, --ext and --ext-point")
    ext_coeffs = job.rationals("ext")
    if ext_coeffs[-1] != 1:
        raise UsageError("--ext lists c0,...,1 and must be monic")
    E = ExtensionField(f.field, ext_coeffs[:-1], job.ext_kind)
    Q = E.from_vector(job.rationals("ext_point"))
    B = conjugacy(f, job.order)
    (point,) = job.rationals("point")
    report = transport_check(B, E, Q, point,
                             precision=max(job.precision, 16))
    results = {"passed": report.passed,
               "checks": [{"name": c.name, "passed": c.passed,
                           "residual": valuation_json(c.residual),
                           "bound": valuation_json(c.bound)}
                          for c in report.checks]}
    checks = [{"name": c.name, "passed": c.passed} for c in report.checks]
    return results, checks


_RUNNERS = {
    "cf": run_cf,
    "boettcher": run_boettcher,
    "verify": run_verify,
    "newton-polygon": run_newton_polygon,
    "escape": run_escape,
    "degrees": run_degrees,
    "kummer": run_kummer,
    "transport": run_transport,
}


def run(job: JobSpec) -> tuple:
    """Execute a job; returns (document, exit_status)."""
    job.validate()
    runner = _RUNNERS.get(job.command)
    if runner is None:
        raise UsageError(f"unknown command {job.command!r}")
    results, checks = runner(job)
    doc = {"inputs": job.inputs_json(), "results": results,
           "checks": checks, "seed": job.seed}
    status = EXIT_OK if all(c["passed"] for c in checks) else EXIT_CHECK_FAILED
    return doc, status


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The padicdyn parser, built on the first call and shared after it.

    Parsing reads the parser and changes nothing in it: each call gets a
    new namespace, and help and errors go to the sys.stdout and
    sys.stderr of that moment.  Each flag names a ``JobSpec`` field, and
    a flag left out parses to None and takes that field's default; only
    ``verify --order`` sets a default of its own.  ``commands`` maps each
    subcommand to its own parser (see ``parse_args``).
    """
    parser = argparse.ArgumentParser(
        prog="padicdyn",
        description="Conjugacy series, Newton polygons, escape tests, and "
                    "preimage-tree degree growth over p-adic fields.")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    def common(sp, backend=True):
        sp.add_argument("--prime", type=int, required=True)
        sp.add_argument("--poly", required=True,
                        help='coefficients "a0,a1,...,1", rationals as '
                             'num/den, monic')
        if backend:
            sp.add_argument("--backend", choices=["exact", "capped"])
            sp.add_argument("--precision", type=int)
        sp.add_argument("--seed", type=int)
        sp.add_argument("--output")

    sp = sub.add_parser("cf", help="escape-radius constant and reduction type")
    common(sp)

    sp = sub.add_parser("boettcher", help="construct the conjugacy series")
    common(sp)
    sp.add_argument("--order", type=int)
    sp.add_argument("--emit-latex", action="store_true")

    sp = sub.add_parser("verify", help="functional equation at given order")
    common(sp)
    sp.add_argument("--order", type=int, default=32)
    sp.add_argument("--points", type=int,
                    help="also sample this many in-disk points")

    sp = sub.add_parser("newton-polygon", help="polygon and certificates")
    common(sp)

    sp = sub.add_parser("escape", help="orbit escape classification")
    common(sp)
    sp.add_argument("--point", required=True)
    sp.add_argument("--max-iter", type=int)

    sp = sub.add_parser("degrees", help="preimage-tree degree chain")
    common(sp, backend=False)
    sp.add_argument("--point", required=True)
    sp.add_argument("--levels", type=int)
    sp.add_argument("--order", type=int)

    sp = sub.add_parser("kummer", help="tree automorphism group report")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--generators",
                    help='semicolon-separated pairs "i,j;i,j"')
    sp.add_argument("--seed", type=int)
    sp.add_argument("--output")

    sp = sub.add_parser("transport", help="equivariance transport check")
    common(sp)
    sp.add_argument("--point", required=True)
    sp.add_argument("--ext", required=True,
                    help='defining polynomial "c0,...,1" of the extension')
    sp.add_argument("--ext-kind", choices=["eisenstein", "unramified"])
    sp.add_argument("--ext-point", required=True,
                    help='coordinates of Q over the base, "q0,q1,..."')
    sp.add_argument("--order", type=int)
    return parser


_LIST_FLAGS = {"poly": 2, "ext": 2, "ext_point": 1}   # least field counts


def job_from_args(args: argparse.Namespace) -> JobSpec:
    """The job the parsed flags name; a flag left out keeps the field's
    default."""
    kwargs = {name: value for name, value in vars(args).items()
              if name in JobSpec._fields and value is not None}
    for name, least in _LIST_FLAGS.items():
        if name in kwargs:
            flag = "--" + name.replace("_", "-")
            kwargs[name] = parse_list_arg(kwargs[name], flag, least)
    if "generators" in kwargs:
        kwargs["generators"] = parse_pairs(kwargs["generators"])
    return JobSpec(**kwargs)


def to_json(value, newline: str = "\n") -> str:
    """``json.dumps(value, sort_keys=True, indent=2)`` for the values a
    document holds: dicts with str keys, lists, strs, ints, bools and
    None.  Any other type raises TypeError.  ``newline`` is the line
    break and indent before the value's closing bracket.  A container
    writes its str and int items itself, the most common ones, without
    a call for each."""
    kind = type(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = newline + "  "
        parts = []
        for key in sorted(value):
            x = value[key]
            parts.append(_quote(key) + ": " + (
                _quote(x) if type(x) is str else
                int.__repr__(x) if type(x) is int else to_json(x, inner)))
        return "{" + inner + ("," + inner).join(parts) + newline + "}"
    if kind is list:
        if not value:
            return "[]"
        inner = newline + "  "
        parts = [_quote(x) if type(x) is str else
                 int.__repr__(x) if type(x) is int else to_json(x, inner)
                 for x in value]
        return "[" + inner + ("," + inner).join(parts) + newline + "]"
    if kind is str:
        return _quote(value)
    if kind is int:
        return int.__repr__(value)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    raise TypeError(f"Object of type {kind.__name__} is not JSON "
                    f"serializable")


_quote = json.encoder.encode_basestring_ascii


def emit(doc: dict, output: str | None) -> None:
    """Write the document: the bytes of ``json.dumps(doc, sort_keys=True,
    indent=2)`` and a newline, to ``output`` or else to stdout."""
    text = to_json(doc) + "\n"
    if output:
        try:
            with open(output, "w") as handle:
                handle.write(text)
        except OSError as exc:
            raise UsageError(f"--output: {exc.strerror}: {output}") from exc
    else:
        sys.stdout.write(text)


def parse_args(argv) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, argv None meaning the
    command line.  When argv starts with a subcommand, the full parser
    only hands the rest to that subcommand's parser, so that parser is
    called here directly; anything else (no subcommand first, or
    arguments the subcommand does not know) goes to the full parser,
    which gives the same namespace or the same help, message and exit."""
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = parser.commands.get(argv[0]) if argv else None
    if command is not None:
        args, extra = command.parse_known_args(argv[1:])
        if not extra:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        job = job_from_args(args)
        doc, status = run(job)
        emit(doc, args.output)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except (DomainError, PrecisionError, BudgetError) as exc:
        sys.stderr.write(f"domain error: {exc}\n")
        return EXIT_DOMAIN
    except InternalError as exc:
        sys.stderr.write(f"check failure: {exc}\n")
        return EXIT_CHECK_FAILED
    if status == EXIT_CHECK_FAILED:
        sys.stderr.write("one or more checks failed\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
