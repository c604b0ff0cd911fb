"""The benchmark's own self-test, run as part of the suite.

perfbench wraps package functions by name (see perfbench/tracer.py), so a
refactor that renames or drops one passes every package test and breaks only
the benchmark. Running the self-test here catches that, and the traced-name
test below catches a wrapped function the package no longer calls through
its module global, whose metric would silently read 0.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import toca.config
import toca.model
from toca.model import Conditioning
from toca.sampler import NoiseSchedule, run_generation

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]


def _load(monkeypatch, name: str):
    """perfbench/<name>.py as module ``name``, as perfbench imports it; no bytecode is written."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, mod)  # dataclasses and later imports look it up
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_name_is_reached(monkeypatch):
    """A toy-dit and a smoke generation give every self-time and set-up metric a span."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    tracer, workloads = _load(monkeypatch, "tracer"), _load(monkeypatch, "workloads")
    harness = _load(monkeypatch, "harness")
    with tracer.Tracer().installed() as tr:
        for w in (workloads.WORKLOADS["toy-dit"], workloads.SMOKE):
            rc = toca.config.parse_config_string(w.config_text(1))
            model = toca.model.init_model(rc.model, seed=rc.init_seed)
            cfg = rc.model
            make = Conditioning.random_text if cfg.text_tokens else Conditioning.random_class
            run_generation(
                model, make(cfg, 1), NoiseSchedule.linear(rc.steps, rc.beta_start, rc.beta_end),
                rc.cache, seed=1, sampler=rc.sampler, guidance=rc.guidance,
            )
    want = set(harness.SELF_TIME_METRIC) - {tracer.ROOT} | {"parse_config_string", "init_model"}
    assert len(want) == 19
    assert want - {sp.name for sp in tr.spans} == set()
