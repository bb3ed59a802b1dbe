"""Spans and counters around padicdyn's public functions, kept in memory.

The wrappers live here, in the benchmark, not in the package: ``install``
replaces each wrapped function in every padicdyn namespace that binds it
(``boettcher`` imports ``lagrange_invert``, ``cli`` imports
``certify_degree`` and so on), and ``uninstall`` puts the originals back.

A span is ``[name, start, end, parent index, op id]``.  Element operations
run millions of times per pass, so they get bare counters, not spans.
Span times are plain wall-clock seconds of the traced pass: ``busy_s``
is the time covered by a name's outermost spans, ``self_s`` a span's time
minus its children's.
"""

from __future__ import annotations

import json
import sys
import time

from padicdyn import arboreal, boettcher, cli, localfield, newton, series

# (owner, attribute, span name)
SPANS = [
    (series.TailSeries, "__mul__", "series.mul"),
    (series.TailSeries, "__rmul__", "series.mul"),
    (series.TailSeries, "nth_root", "series.nth_root"),
    (series.TailSeries, "invert_unit", "series.invert_unit"),
    (series.TailSeries, "compose", "series.compose"),
    (series, "lagrange_invert", "series.lagrange_invert"),
    (series, "evaluate", "series.evaluate"),
    (boettcher, "boettcher_series", "boettcher.build"),
    (boettcher, "compose_through_poly", "boettcher.compose_through_poly"),
    (boettcher, "functional_equation_check", "boettcher.equation_check"),
    (boettcher.MonicPoly, "iterate", "boettcher.iterate"),
    (newton, "build_polygon", "newton.build_polygon"),
    (newton, "total_ramification_certificate", "newton.certificate"),
    (arboreal, "certify_degree", "arboreal.certify_degree"),
    (arboreal, "transport_check", "arboreal.transport_check"),
    (localfield, "hensel_lift", "localfield.hensel_lift"),
    (localfield, "conjugates", "localfield.conjugates"),
    (cli, "build_parser", "cli.parse"),
    (cli, "job_from_args", "cli.parse"),
    (cli, "run", "cli.run"),
    (cli, "emit", "cli.encode"),
]

# (class, attributes, counter name): binary operators, counted only
COUNTERS = [
    (localfield.PadicElement, ("__add__", "__radd__"),
     "localfield.capped.add"),
    (localfield.PadicElement, ("__mul__", "__rmul__"),
     "localfield.capped.mul"),
    (localfield.PadicElement, ("__truediv__", "__rtruediv__"),
     "localfield.capped.div"),
    (localfield.ExactElement, ("__add__", "__radd__"), "localfield.exact.add"),
    (localfield.ExactElement, ("__mul__", "__rmul__"), "localfield.exact.mul"),
    (localfield.ExtElement, ("__mul__", "__rmul__"), "localfield.ext.mul"),
]

STAGES = {"series.nth_root": "roots", "series.invert_unit": "roots",
          "series.lagrange_invert": "reversion",
          "boettcher.compose_through_poly": "equation"}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.counters = {name: [0] for _, _, name in COUNTERS}
        self.certificates = [0, 0]          # issued, attempted
        self.min_rel = {"omega": None, "omega_inverse": None}
        self._undo = []

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapped(*args, **kwargs):
            record = [name, clock(), None, stack[-1] if stack else -1,
                      self.op]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()

        return wrapped

    def _counter(self, cell, fn):
        def wrapped(a, b):
            cell[0] += 1
            return fn(a, b)

        return wrapped

    def _observe_build(self, fn):
        def wrapped(f, M):
            B = fn(f, M)
            if f.field.backend == "capped":
                for part in self.min_rel:
                    digits = [c.rel for c in getattr(B, part).coeffs
                              if not c.is_exact_zero]
                    if digits:
                        low = min(digits)
                        seen = self.min_rel[part]
                        self.min_rel[part] = low if seen is None else min(
                            seen, low)
            return B

        return wrapped

    def _observe_certificate(self, fn):
        def wrapped(polygon, coeffs):
            cert = fn(polygon, coeffs)
            self.certificates[1] += 1
            self.certificates[0] += cert is not None
            return cert

        return wrapped

    def _observe_parser(self, fn):
        def wrapped():
            parser = fn()
            parser.parse_args = self._span("cli.parse", parser.parse_args)
            return parser

        return wrapped

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _patch_everywhere(self, owner, attr, new):
        """Rebind in the owner and in every padicdyn module that imported
        the same object."""
        old = owner.__dict__[attr]
        if isinstance(owner, type):
            self._patch(owner, attr, new)
            return
        for name, module in list(sys.modules.items()):
            if name == "padicdyn" or name.startswith("padicdyn."):
                for key, value in list(vars(module).items()):
                    if value is old:
                        self._patch(module, key, new)

    def install(self) -> None:
        for owner, attr, name in SPANS:
            fn = owner.__dict__[attr]
            if attr == "boettcher_series":
                fn = self._observe_build(fn)
            elif attr == "total_ramification_certificate":
                fn = self._observe_certificate(fn)
            new = self._span(name, fn)
            if attr == "build_parser":
                new = self._observe_parser(new)
            self._patch_everywhere(owner, attr, new)
        for cls, attrs, name in COUNTERS:
            for attr in attrs:
                self._patch(cls, attr,
                            self._counter(self.counters[name],
                                          cls.__dict__[attr]))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- results -------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(json.dumps([name, start, end, parent, op]) + "\n")

    def summary(self) -> dict:
        """Per-layer metrics from the recorded spans and counters."""
        spans = self.spans
        calls, busy, self_s = {}, {}, {}
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        stage = {"roots": 0.0, "reversion": 0.0, "equation": 0.0}
        roots_in_builds = 0
        for i, (name, start, end, parent, _) in enumerate(spans):
            duration = end - start
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + duration - child_time[i]
            names_above = set()
            j = parent
            while j >= 0:
                names_above.add(spans[j][0])
                j = spans[j][3]
            in_build = "boettcher.build" in names_above
            if name not in names_above:     # outermost of its name: busy
                busy[name] = busy.get(name, 0.0) + duration
            if in_build and name == "series.nth_root":
                roots_in_builds += 1
            if (in_build and name in STAGES
                    and not names_above.intersection(STAGES)):
                stage[STAGES[name]] += duration
        builds = calls.get("boettcher.build", 0)
        issued, attempted = self.certificates
        low = [v for v in self.min_rel.values() if v is not None]

        def digits(value):  # -1: no capped build ran
            return -1 if value is None else value

        out = {}
        for _, _, name in COUNTERS:
            out[f"{name}.calls"] = self.counters[name][0]
        out.update({
            "localfield.hensel_lift.calls": calls.get(
                "localfield.hensel_lift", 0),
            "localfield.conjugates.busy_s": busy.get(
                "localfield.conjugates", 0.0),
            "localfield.min_rel_digits": digits(min(low) if low else None),
            "localfield.min_rel_digits.omega": digits(self.min_rel["omega"]),
            "localfield.min_rel_digits.omega_inverse": digits(
                self.min_rel["omega_inverse"]),
            "series.mul.calls": calls.get("series.mul", 0),
            "series.mul.self_s": self_s.get("series.mul", 0.0),
            "series.nth_root.calls": calls.get("series.nth_root", 0),
            "series.nth_root.busy_s": busy.get("series.nth_root", 0.0),
            "series.invert_unit.busy_s": busy.get("series.invert_unit", 0.0),
            "series.compose.calls": calls.get("series.compose", 0),
            "series.compose.busy_s": busy.get("series.compose", 0.0),
            "series.lagrange_invert.busy_s": busy.get(
                "series.lagrange_invert", 0.0),
            "series.evaluate.calls": calls.get("series.evaluate", 0),
            "boettcher.build.calls": builds,
            "boettcher.build.busy_s": busy.get("boettcher.build", 0.0),
            "boettcher.self_s": self_s.get("boettcher.build", 0.0),
            "boettcher.roots_s": stage["roots"],
            "boettcher.reversion_s": stage["reversion"],
            "boettcher.equation_s": stage["equation"],
            "boettcher.roots.count": (roots_in_builds / builds
                                      if builds else 0.0),
            "boettcher.iterate.busy_s": busy.get("boettcher.iterate", 0.0),
            "newton.build_polygon.calls": calls.get("newton.build_polygon", 0),
            "newton.build_polygon.busy_s": busy.get(
                "newton.build_polygon", 0.0),
            "newton.certified_ratio": (issued / attempted
                                       if attempted else 0.0),
            "arboreal.certify_degree.calls": calls.get(
                "arboreal.certify_degree", 0),
            "arboreal.certify_degree.self_s": self_s.get(
                "arboreal.certify_degree", 0.0),
            "arboreal.transport_check.busy_s": busy.get(
                "arboreal.transport_check", 0.0),
            "cli.parse.busy_s": busy.get("cli.parse", 0.0),
            "cli.run.busy_s": busy.get("cli.run", 0.0),
            "cli.encode.busy_s": busy.get("cli.encode", 0.0),
        })
        return out


# per-layer metrics and units, in report order (cli.output_bytes and
# trace.overhead are measured by the runner)
def units() -> dict:
    names = list(Tracer().summary()) + ["cli.output_bytes", "trace.overhead"]
    out = {}
    for name in names:
        if name.endswith("_s"):
            out[name] = "s"
        elif "digits" in name:
            out[name] = "digits"
        elif name.endswith(("ratio", "overhead")):
            out[name] = "ratio"
        elif name.endswith("bytes"):
            out[name] = "bytes"
        else:
            out[name] = "count"
    return out
