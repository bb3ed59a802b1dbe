"""The benchmark's tracer patches padicdyn in place: ``install`` must find
every function and operator it wraps where it looks for them (each
counted operator in its own class's ``__dict__``), and ``uninstall``
must put every patched attribute back.  The harness's own self-test
(its output gate and traced-count determinism) must pass against this
checkout, and its output gate must fail a corrupted omega on its
output.  ``perfbench/`` is only read.
"""

import importlib.util
import os
import pathlib
import subprocess
import sys
import types

PERFBENCH = pathlib.Path(__file__).parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(tracing):
    """(owner, attribute) -> object over every padicdyn module and every
    class the tracer patches; an owner is named by its module name or its
    class's qualified name."""
    owners = [module for name, module in sys.modules.items()
              if name == "padicdyn" or name.startswith("padicdyn.")]
    owners += [owner for owner, _, _ in tracing.SPANS + tracing.COUNTERS
               if isinstance(owner, type)]
    return {(getattr(owner, "__qualname__", owner.__name__), key): value
            for owner in owners for key, value in vars(owner).items()}


def _changed(before, after):
    return {key for key in before.keys() | after.keys()
            if before.get(key) is not after.get(key)}


def test_tracer_uninstall_restores_every_patched_attribute():
    tracing = _load_tracing()
    before = _bindings(tracing)
    tracer = tracing.Tracer()
    # cli.build_parser is not called here: the parser it returns would
    # keep the tracer's wrapper after uninstall
    tracer.install()
    try:
        installed = _bindings(tracing)
        patched = {(getattr(owner, "__qualname__", owner.__name__), attr)
                   for owner, attr, _ in tracer._undo}
    finally:
        tracer.uninstall()
    assert patched and _changed(before, installed) == patched
    assert not _changed(before, _bindings(tracing))


def test_benchmark_selftest_passes():
    """``perfbench/selftest.py`` in a subprocess: a corrupted omega and a
    malformed job fail the output gate, and two traced passes count the
    same.  No bytecode is written under ``perfbench/``."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "SELFTEST PASS" in done.stdout


def test_output_gate_fails_a_corrupted_omega(monkeypatch):
    """The self-test's corrupted-omega check, with omega changed by the
    record's own ``_replace``: ``selftest.corrupted`` calls
    ``dataclasses.replace``, which raises on a named tuple, so there each
    op fails by raising.  Here every op builds and fails on its output."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    selftest = importlib.import_module("selftest")
    wl = selftest.wl

    def corrupted(workload, op):
        B, order = wl.execute(workload, op)
        k = B.omega.trunc - 2
        bad = B.omega.replace_coefficient(k, B.omega.coefficient(k) + 1)
        return B._replace(omega=bad), order

    shim = types.SimpleNamespace(execute=corrupted, check=wl.check)
    ops = selftest.tiny_ops()
    for workload in ("conjugacy-batch", "order-scaling"):
        expected = selftest.expectations(workload, ops[workload])
        failures = selftest.run.Pass(shim, workload, ops[workload],
                                     expected).failures
        reasons = [reason for _, reason in failures]
        assert len(reasons) == len(ops[workload]), reasons
        assert not any(r.startswith("raised") for r in reasons), reasons
