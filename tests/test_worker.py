"""The worker thread that runs the second half of a guided call.

Every test forces the split on or off through the one decision function,
model.split_halves, so a runner with a single CPU still runs the threaded
path.
"""

import concurrent.futures
import dataclasses
import os
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import toca.model as tm
from toca import (
    PROFILES,
    Conditioning,
    FlopCounter,
    ModelConfig,
    NoiseSchedule,
    Workspace,
    init_model,
    run_generation,
)
from toca.model import KIND_CROSS, KIND_FINAL, KIND_MLP, KIND_SELF

STEPS = 10
# the real decision function, kept before any test patches it
split_halves = tm.split_halves


def _force(monkeypatch, on: bool):
    monkeypatch.setattr(tm, "split_halves", lambda flops: on)


def _toy(text: bool):
    c = ModelConfig(depth=2, hidden=16, heads=2, grid_h=4, grid_w=4, text_tokens=3 if text else 0)
    cond = Conditioning.random_text(c, 5) if text else Conditioning.random_class(c, 5)
    return init_model(c, seed=3), cond


def _generate(model, cond, profile="toca-pixart", sampler="ddim", coupled=True, seed=7, **kw):
    sched = dataclasses.replace(PROFILES[profile], cfg_coupled=coupled)
    return run_generation(
        model, cond, NoiseSchedule.linear(STEPS), sched, seed=seed, sampler=sampler,
        guidance=3.0, collect_eps=True, record_masks=True, **kw,
    )


def _record(x0, stats):
    """Everything a generation leaves behind, as comparable bytes and tuples."""
    masks = [(s, l, k, [m.tobytes() for m in idx]) for s, l, k, idx in stats.mask_log or []]
    counts = None if stats.cache_counts is None else stats.cache_counts.tobytes()
    return (
        x0.values.tobytes(),
        [e.tobytes() for e in stats.eps_history],
        [dataclasses.astuple(e) for e in stats.events],
        stats.fresh_steps,
        counts,
        masks,
    )


@pytest.mark.parametrize("coupled", [True, False])
@pytest.mark.parametrize("sampler", ["ddpm", "ddim"])
@pytest.mark.parametrize("profile", ["off", "naive-full", "toca-dit", "toca-pixart"])
@pytest.mark.parametrize("text", [False, True])
def test_worker_on_and_off_agree_bitwise(monkeypatch, text, profile, sampler, coupled):
    model, cond = _toy(text)
    runs = {}
    real = tm.run_halves
    for on in (False, True):
        _force(monkeypatch, on)
        calls = []
        monkeypatch.setattr(tm, "run_halves", lambda work: calls.append(1) or real(work))
        runs[on] = _record(*_generate(model, cond, profile, sampler, coupled))
        assert bool(calls) == on
    assert runs[True] == runs[False]


def test_worker_runs_half_one_on_its_own_thread_and_scratch(monkeypatch):
    _force(monkeypatch, True)
    model, cond = _toy(text=True)
    seen = {}
    real = model._apply

    def apply(layer, kind, c, h, rows=None, out=None, ws=None):
        seen.setdefault(c is cond, set()).add((threading.get_ident(), id(ws)))
        return real(layer, kind, c, h, rows, out=out, ws=ws)

    monkeypatch.setattr(model, "_apply", apply)
    _generate(model, cond)
    (half0,), (half1,) = seen[False], seen[True]  # one thread and one scratch per half
    assert half0[0] == threading.get_ident()
    assert half1[0] != half0[0] and half1[1] != half0[1]


def test_concurrent_guided_runs_share_one_worker(monkeypatch):
    # three callers and the worker on fewer cores, switching threads often
    model, cond = _toy(text=True)
    _force(monkeypatch, False)
    want = {seed: _record(*_generate(model, cond, seed=seed)) for seed in (1, 2, 3)}
    _force(monkeypatch, True)
    monkeypatch.setattr(tm, "_worker", None)

    pools = []

    class SlowStart(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            time.sleep(0.05)  # room for the other callers to try to start one too
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SlowStart)
    before = set(threading.enumerate())
    got = {}

    def run(seed):
        got[seed] = _record(*_generate(model, cond, seed=seed))

    callers = [threading.Thread(target=run, args=(seed,)) for seed in want]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    started = [t for t in threading.enumerate() if t not in before and t not in callers]
    if tm._worker is not None:
        tm._worker.shutdown()
    assert not any(t.is_alive() for t in callers)
    assert got == want
    assert len(pools) == len(started) == 1


def test_batch_one_and_small_guided_runs_never_start_the_worker(monkeypatch):
    monkeypatch.setattr(tm, "_worker", None)
    model, cond = _toy(text=True)
    _force(monkeypatch, True)
    for profile in ("off", "toca-pixart"):
        sched = PROFILES[profile]
        run_generation(model, cond, NoiseSchedule.linear(STEPS), sched, seed=1)
    assert tm._worker is None
    monkeypatch.setattr(tm, "split_halves", split_halves)
    _generate(model, cond)
    _generate(model, cond, profile="off")
    assert tm._worker is None


def test_split_needs_the_size_and_two_cpus(monkeypatch):
    big = tm._SPLIT_FLOPS
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert split_halves(big) and not split_halves(big - 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3})
    assert not split_halves(10 * big)
    monkeypatch.delattr(os, "sched_getaffinity")  # no affinity API: count the CPUs
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert split_halves(big)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert not split_halves(10 * big)


def test_worker_starts_off_the_callers_cpu(monkeypatch):
    cpu = tm._current_cpu()
    assert cpu is None or cpu in os.sched_getaffinity(0)
    moves = []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: moves.append(set(cpus)))
    for caller_cpu in (1, None, 5):  # only a known caller CPU among the allowed moves it
        t = threading.Thread(target=tm._start_worker, args=(caller_cpu,))
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()
    assert moves == [{0}, {0, 1}]  # to the other CPU, then the full set again


def test_batch_one_run_imports_no_thread_pool():
    code = (
        "import sys\n"
        "from toca import *\n"
        "c = ModelConfig(depth=1, hidden=8, heads=2, grid_h=2, grid_w=2)\n"
        "m, cond = init_model(c, seed=0), Conditioning.random_class(c, 1)\n"
        "for p in ('off', 'toca-dit'):\n"
        "    run_generation(m, cond, NoiseSchedule.linear(4), PROFILES[p], seed=2)\n"
        "assert 'concurrent.futures' not in sys.modules\n"
    )
    src = str(Path(tm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=120)


@pytest.mark.parametrize("cached", [True, False])
@pytest.mark.parametrize("bad", [0, 1])
def test_error_in_either_half_leaves_after_both_stop(monkeypatch, bad, cached):
    _force(monkeypatch, True)
    model, cond = _toy(text=True)
    profile = "toca-pixart" if cached else "off"
    clean = _record(*_generate(model, cond, profile))
    finished = []
    real = model._apply

    def apply(layer, kind, c, h, rows=None, out=None, ws=None):
        if kind == KIND_MLP:
            half = 1 if c is cond else 0
            if half == bad:
                raise RuntimeError(f"half {half} fails")
            time.sleep(0.05)
            finished.append(half)
        return real(layer, kind, c, h, rows, out=out, ws=ws)

    monkeypatch.setattr(model, "_apply", apply)
    with pytest.raises(RuntimeError, match=f"half {bad} fails"):
        _generate(model, cond, profile)
    assert finished == [1 - bad]
    monkeypatch.setattr(model, "_apply", real)
    assert _record(*_generate(model, cond, profile)) == clean


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_starts_its_own_worker(monkeypatch):
    _force(monkeypatch, True)
    model, cond = _toy(text=True)
    _generate(model, cond, seed=1)
    assert tm._worker is not None
    x0 = _generate(model, cond, seed=2)[0].values.tobytes()

    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: a second guided run, on a worker of its own
        try:
            os.close(r)
            os.write(w, _generate(model, cond, seed=2)[0].values.tobytes())
        finally:
            os._exit(0)
    os.close(w)
    got = b""
    try:
        while select.select([r], [], [], 60)[0]:
            chunk = os.read(r, 1 << 16)
            if not chunk:
                break
            got += chunk
        else:
            os.kill(pid, signal.SIGKILL)
    finally:
        os.close(r)
        os.waitpid(pid, 0)
    assert got == x0


def test_workspace_names_share_one_buffer_across_shapes():
    ws = Workspace()
    a = ws.take("logits", 4, 8)
    assert ws.take("logits", 4, 8) is a
    b = ws.take("logits", 8, 2)
    assert np.shares_memory(a, b) and b.shape == (8, 2) and b.flags.c_contiguous
    assert not np.shares_memory(a, ws.take("map", 4, 8))
    grown = ws.take("logits", 6, 8)  # more elements than the buffer holds
    assert not np.shares_memory(a, grown)
    assert np.shares_memory(grown, ws.take("logits", 8, 2))


@pytest.mark.parametrize("rows", [None, [0, 5, 6]])
def test_call_flops_is_what_the_counter_records(rows):
    c = ModelConfig(depth=1, hidden=16, heads=4, grid_h=3, grid_w=3, text_tokens=5)
    model = init_model(c, seed=2)
    x = np.random.default_rng(0).standard_normal((c.n_tokens, c.hidden))
    text = Conditioning.random_text(c, 1).text
    g = model.groups[0]
    m = c.n_tokens if rows is None else len(rows)
    for kind, run in (
        (KIND_SELF, lambda ctr: tm.self_attention_forward(x, g.self_attn, c.heads, rows, ctr)),
        (KIND_CROSS, lambda ctr: tm.cross_attention_forward(x, text, g.cross_attn, c.heads, rows, ctr)),
        (KIND_MLP, lambda ctr: tm.mlp_forward(x, g.mlp, rows, ctr)),
    ):
        counter = FlopCounter()
        run(counter)
        assert tm.call_flops(c, kind, m) == counter.flops
    assert tm.call_flops(c, KIND_FINAL, m) == 2 * m * c.hidden**2
