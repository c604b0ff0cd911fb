"""The engine against a dense reference: x0, every eps and the cache counts, bitwise.

tests/reference.py recomputes a run with every module on all N rows and a
plain dict of slots. It shares no buffer, thread or plan with the engine, so
the two agreeing says the engine serves what the schedule asks for: which
slot row is served when, how counters age and how guided halves couple.
The engine runs with the worker forced off or on: at the rule's floors on a
toy model, and at the real thresholds on a 1 x 128 model. The reference
always runs with it off, since every kernel decides its own row split.
"""

import dataclasses

import pytest

import toca.model as tm
from reference import reference_generation
from toca import (
    PROFILES,
    CacheSchedule,
    Conditioning,
    ModelConfig,
    NoiseSchedule,
    init_model,
    run_generation,
)

STEPS = 20
SCHEDULES = {
    **{name: PROFILES[name] for name in ("naive-full", "toca-dit", "toca-pixart", "off")},
    "uniform": CacheSchedule(ratio=0.7, cycle=3, lam3=0.25, grid_size=2),
    # partial dispatches that read no map: the engine keeps no s1/s2 aggregate
    "age-only": CacheSchedule(
        ratio=0.7, cycle=3, lam1=0.0, lam2=0.0, lam3=1.0, lam4=0.0, grid_size=2
    ),
}
# (text tokens, sampler, guidance, coupled)
MODES = {
    "class-ddpm": (0, "ddpm", None, True),
    "text-ddim-cfg": (6, "ddim", 4.0, True),
    "text-ddim-cfg-uncoupled": (6, "ddim", 4.0, False),
    "text-ddpm": (6, "ddpm", None, True),
}
CASES = [
    (schedule, mode, worker)
    for schedule in SCHEDULES
    for mode in MODES
    for worker in (False, True)
    if not (schedule == "off" and not MODES[mode][3])  # off couples nothing
]


# a 1 x 128 model on 16 x 16 tokens crosses the real thresholds: guided pairs
# split by member, unguided full and partial calls (128 rows and up) by rows
UNIFORM_HALF = CacheSchedule(ratio=0.5, cycle=3, lam3=0.25, grid_size=2)
# (text tokens, schedule, sampler, guidance)
REAL = {
    "pair-toca-pixart": (16, PROFILES["toca-pixart"], "ddim", 4.0),
    "pair-uniform": (16, UNIFORM_HALF, "ddim", 4.0),
    "rows-off": (0, PROFILES["off"], "ddpm", None),
    "rows-uniform": (0, UNIFORM_HALF, "ddpm", None),
}


def _engine_equals_reference(monkeypatch, model, cond, sched, steps, sampler, guidance, worker):
    """The number of splits the engine's run made; its x0, eps and counts equal the reference's."""
    noise = NoiseSchedule.linear(steps)
    monkeypatch.setattr(tm, "two_cpus", lambda: worker)
    trips, run_halves = [], tm.run_halves
    monkeypatch.setattr(tm, "run_halves", lambda work: trips.append(1) or run_halves(work))
    x0, stats = run_generation(
        model, cond, noise, sched, seed=11, sampler=sampler, guidance=guidance, collect_eps=True
    )
    monkeypatch.setattr(tm, "two_cpus", lambda: False)  # the reference's kernels never split
    want_x0, want_eps, want_counts = reference_generation(
        model, cond, noise, sched, 11, sampler, guidance
    )
    assert x0.values.tobytes() == want_x0.tobytes()
    assert [e.tobytes() for e in stats.eps_history] == [e.tobytes() for e in want_eps]
    if sched.is_noop:
        assert stats.cache_counts is None and not want_counts.any()
    else:
        assert stats.cache_counts.tobytes() == want_counts.tobytes()
    return len(trips)


@pytest.mark.parametrize("schedule,mode,worker", CASES)
def test_engine_equals_the_dense_reference(monkeypatch, schedule, mode, worker):
    text, sampler, guidance, coupled = MODES[mode]
    sched = dataclasses.replace(SCHEDULES[schedule], cfg_coupled=coupled)
    # the rule at its floors: pairs split, and 64-row calls split by rows
    monkeypatch.setattr(tm, "_SPLIT_FLOPS", 0)
    c = ModelConfig(depth=4, hidden=32, heads=4, grid_h=8, grid_w=8, text_tokens=text)
    model = init_model(c, seed=3)
    cond = Conditioning.random_text(c, 5) if text else Conditioning.random_class(c, 5)
    trips = _engine_equals_reference(
        monkeypatch, model, cond, sched, STEPS, sampler, guidance, worker
    )
    assert bool(trips) == worker


@pytest.mark.parametrize("case", REAL)
def test_engine_equals_the_dense_reference_at_the_real_thresholds(monkeypatch, case):
    text, sched, sampler, guidance = REAL[case]
    c = ModelConfig(depth=1, hidden=128, heads=8, grid_h=16, grid_w=16, text_tokens=text)
    model = init_model(c, seed=3)
    cond = Conditioning.random_text(c, 5) if text else Conditioning.random_class(c, 5)
    assert _engine_equals_reference(monkeypatch, model, cond, sched, 6, sampler, guidance, True)
