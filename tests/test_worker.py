"""The worker thread that runs the second half of a guided call or of a call's query rows.

One rule decides both, where the split happens: model._split_pays, true when
the second half executes model._SPLIT_FLOPS, no other split holds the
worker, and model.two_cpus, the CPU check, holds. A test forces the check on
or off, so a runner with a single CPU still runs the threaded path, and
lowers the rule to its floors by setting model._SPLIT_FLOPS to 0: a pair then
splits any call that computes a row, a batch-1 call any of
2 * _SPLIT_MIN_ROWS rows.
"""

import concurrent.futures
import dataclasses
import gc
import os
import select
import signal
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

import toca.model as tm
import toca.sampler
from toca import (
    PROFILES,
    CacheContext,
    Conditioning,
    FlopCounter,
    ModelConfig,
    NoiseSchedule,
    Workspace,
    init_model,
    run_generation,
)
from toca.model import KIND_CROSS, KIND_FINAL, KIND_MLP, KIND_SELF, KINDS

STEPS = 10


def _force(monkeypatch, on: bool):
    """The CPU check forced, and the rule at its floors (_SPLIT_FLOPS 0)."""
    monkeypatch.setattr(tm, "two_cpus", lambda: on)
    monkeypatch.setattr(tm, "_SPLIT_FLOPS", 0)


def _toy(text: bool, grid: int = 4):
    c = ModelConfig(
        depth=2, hidden=16, heads=2, grid_h=grid, grid_w=grid, text_tokens=3 if text else 0
    )
    cond = Conditioning.random_text(c, 5) if text else Conditioning.random_class(c, 5)
    return init_model(c, seed=3), cond


def _rows_split(monkeypatch, text: bool):
    """A toy model whose full calls (64 rows) split by rows wherever two_cpus allows."""
    monkeypatch.setattr(tm, "_SPLIT_FLOPS", 0)
    model, cond = _toy(text, grid=8)
    assert model.config.n_tokens // 2 >= tm._SPLIT_MIN_ROWS
    return model, cond


def _generate(
    model, cond, profile="toca-pixart", sampler="ddim", coupled=True, seed=7, guidance=3.0, **kw
):
    sched = dataclasses.replace(PROFILES[profile], cfg_coupled=coupled)
    return run_generation(
        model, cond, NoiseSchedule.linear(STEPS), sched, seed=seed, sampler=sampler,
        guidance=guidance, collect_eps=True, record_masks=True, **kw,
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


# None: an unguided batch-1 run, whose full calls split by rows
@pytest.mark.parametrize("coupled", [True, False, None], ids=["True", "False", "batch1"])
@pytest.mark.parametrize("sampler", ["ddpm", "ddim"])
@pytest.mark.parametrize("profile", ["off", "naive-full", "toca-dit", "toca-pixart"])
@pytest.mark.parametrize("text", [False, True])
def test_worker_on_and_off_agree_bitwise(monkeypatch, text, profile, sampler, coupled):
    if coupled is None:
        model, cond = _rows_split(monkeypatch, text)
        kw = dict(guidance=None)
    else:
        model, cond = _toy(text)
        kw = dict(coupled=coupled)
    runs = {}
    real = tm.run_halves
    for on in (False, True):
        _force(monkeypatch, on)
        calls = []
        monkeypatch.setattr(tm, "run_halves", lambda work: calls.append(1) or real(work))
        runs[on] = _record(*_generate(model, cond, profile, sampler, **kw))
        assert bool(calls) == on
    assert runs[True] == runs[False]


@pytest.mark.parametrize("profile", ["off", "toca-pixart"])
def test_a_pair_split_is_one_round_trip_and_never_splits_rows(monkeypatch, profile):
    # every call of this model could split by rows, were it not one half of a pair
    model, cond = _rows_split(monkeypatch, text=True)
    _force(monkeypatch, True)
    trips, held = [], []
    run_halves, by_rows = tm.run_halves, tm._by_rows

    def one_trip(work):
        # a half asks for no round trip, on either thread
        assert threading.current_thread() is threading.main_thread()
        trips.append(1)
        run_halves(work)

    monkeypatch.setattr(tm, "run_halves", one_trip)
    monkeypatch.setattr(
        tm, "_by_rows", lambda *args: held.append(tm._worker_lock.locked()) or by_rows(*args)
    )
    _, stats = _generate(model, cond, profile)
    computing = STEPS * len(model.config.sites) if profile == "off" else sum(
        1 for e in stats.events if e.computed
    )
    assert len(trips) == computing
    assert held and all(held)  # every kernel ran while its pair's split held the worker


def test_dispatches_that_compute_no_row_stay_on_the_caller(monkeypatch):
    # toca-pixart reuses all of self-attention at non-fresh steps: such a
    # dispatch calls no module, so a thread round trip would buy nothing
    model, cond = _toy(text=True)
    _force(monkeypatch, False)
    want = _record(*_generate(model, cond))
    _force(monkeypatch, True)
    site, split = [None], []
    dispatch, run_halves = CacheContext.dispatch, tm.run_halves

    def recording_dispatch(ctx, layer, kind, xs, fns):
        site[0] = (ctx.step, layer, kind)
        return dispatch(ctx, layer, kind, xs, fns)

    monkeypatch.setattr(CacheContext, "dispatch", recording_dispatch)
    monkeypatch.setattr(tm, "run_halves", lambda work: split.append(site[0]) or run_halves(work))
    x0, stats = _generate(model, cond)
    assert _record(x0, stats) == want
    n = model.config.n_tokens
    assert split == [(e.step, e.layer, e.kind) for e in stats.events if e.cached < n]
    assert any(e.cached == n for e in stats.events) and split


def test_worker_runs_half_one_on_its_own_thread_and_scratch(monkeypatch):
    """Half h computes in ws.member(h) of the workspace its caller passed, on either thread."""
    _force(monkeypatch, True)
    model, cond = _toy(text=True)
    seen, passed = {}, []
    real = model._apply

    def apply(layer, kind, c, h, rows=None, ws=None):
        seen.setdefault(c is cond, set()).add((threading.get_ident(), ws))
        return real(layer, kind, c, h, rows, ws=ws)

    class Passed(Workspace):
        def __init__(self):
            super().__init__()
            passed.append(self)

    monkeypatch.setattr(model, "_apply", apply)
    monkeypatch.setattr(toca.sampler, "Workspace", Passed)
    _generate(model, cond)
    (half0,), (half1,) = seen[False], seen[True]  # one thread and one scratch per half
    assert half0[0] == threading.get_ident() != half1[0]
    (ws,) = passed
    assert half0[1] is ws.member(0) and half1[1] is ws.member(1)


def test_no_workspace_outlives_a_guided_split_run(monkeypatch):
    """The worker owns no buffer: after a run, every Workspace made for it is gone."""
    _force(monkeypatch, True)
    monkeypatch.setattr(tm, "_worker", None)  # a fresh worker, started by this run
    made = []
    init = Workspace.__init__

    def recording_init(self):
        init(self)
        made.append(weakref.ref(self))

    monkeypatch.setattr(Workspace, "__init__", recording_init)
    trips, real = [], tm.run_halves
    monkeypatch.setattr(tm, "run_halves", lambda work: trips.append(1) or real(work))
    model, cond = _toy(text=True)
    try:
        _generate(model, cond)
        assert trips and tm._worker is not None and made
        gc.collect()
        assert [r for r in made if r() is not None] == []
    finally:
        if tm._worker is not None:
            tm._worker.shutdown()


class _CallerOnly(dict):
    """A store table that only the calling (main) thread may add to or rebind."""

    def __setitem__(self, key, value):
        assert threading.current_thread() is threading.main_thread(), key
        super().__setitem__(key, value)


def test_cache_state_is_made_once_on_the_caller(monkeypatch):
    _force(monkeypatch, True)
    model, cond = _toy(text=True)
    made = []

    class Recorded(CacheContext):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)
            for store in self.stores:
                store.values, store.counters = _CallerOnly(), _CallerOnly()

    def tables(ctx):
        return [(dict(store.values), dict(store.counters)) for store in ctx.stores]

    seen = {}  # step -> every store's tables after the step's forward

    def hook(step, *_):
        seen[step] = tables(made[0])

    monkeypatch.setattr(toca.sampler, "CacheContext", Recorded)
    trips, real = [], tm.run_halves
    monkeypatch.setattr(tm, "run_halves", lambda work: trips.append(1) or real(work))
    _, stats = _generate(model, cond, step_hook=hook)
    assert trips and len(made) == 1 and len(stats.fresh_steps) > 1
    sites = set(model.config.sites)
    for (values0, counters0), (values, counters) in zip(seen[0], seen[STEPS - 1]):
        assert set(values0) == set(counters0) == sites
        assert all(values[k] is values0[k] and counters[k] is counters0[k] for k in sites)


# "off": every member uses its output up in its own half's work, on the worker
# too; each run's halves compute in that run's own member workspaces
@pytest.mark.parametrize("profile", ["toca-pixart", "off"])
def test_concurrent_guided_runs_share_one_worker(monkeypatch, profile):
    # three callers and the worker on fewer cores, switching threads often
    model, cond = _toy(text=True)
    _force(monkeypatch, False)
    want = {seed: _record(*_generate(model, cond, profile, seed=seed)) for seed in (1, 2, 3)}
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
        got[seed] = _record(*_generate(model, cond, profile, seed=seed))

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


def test_concurrent_batch_one_runs_borrow_the_worker_in_turn(monkeypatch):
    # a run that finds another's split holding the worker computes both blocks itself
    model, cond = _rows_split(monkeypatch, text=False)

    def run(seed):
        return _record(*_generate(model, cond, seed=seed, guidance=None))

    _force(monkeypatch, False)
    want = {seed: run(seed) for seed in (1, 2, 3)}
    _force(monkeypatch, True)
    got = {}

    def run_into(seed):
        got[seed] = run(seed)

    callers = [threading.Thread(target=run_into, args=(seed,)) for seed in want]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert got == want


def test_a_split_inside_either_half_runs_on_that_halfs_thread():
    """run_halves inside a half finds the worker held and runs both inner halves in place.

    In a child process with a timeout: an inner split that queued behind the
    worker would wait on itself, and the call would never return.
    """
    code = (
        "import threading\n"
        "import toca.model as tm\n"
        "seen = {}\n"
        "def outer(h):\n"
        "    seen[h] = threading.get_ident()\n"
        "    tm.run_halves(lambda i: seen.setdefault((h, i), threading.get_ident()))\n"
        "tm.run_halves(outer)\n"
        "assert seen[0] == seen[0, 0] == seen[0, 1] == threading.get_ident(), seen\n"
        "assert seen[1] == seen[1, 0] == seen[1, 1] != seen[0], seen\n"
    )
    src = str(Path(tm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=30)


def test_a_caller_that_finds_the_worker_held_runs_both_halves_itself():
    held, release = threading.Event(), threading.Event()

    def first(h):  # the other run's split: its half 1 holds the worker until released
        if h:
            held.set()
            release.wait(timeout=10)

    other = threading.Thread(target=tm.run_halves, args=(first,))
    seen = []
    try:
        other.start()
        assert held.wait(timeout=10)
        tm.run_halves(lambda h: seen.append((h, threading.get_ident())))
        still_held = other.is_alive()  # returned while the other split held the worker
    finally:
        release.set()
        other.join(timeout=10)
    me = threading.get_ident()
    assert still_held and seen == [(0, me), (1, me)]
    assert not other.is_alive()


def test_calls_below_the_size_rule_never_start_the_worker(monkeypatch):
    monkeypatch.setattr(tm, "_worker", None)
    monkeypatch.setattr(tm, "two_cpus", lambda: True)  # the real _SPLIT_FLOPS

    def batch_one_runs(model, cond):
        for profile in ("off", "toca-pixart"):
            _generate(model, cond, profile, guidance=None)

    batch_one_runs(*_toy(text=True, grid=8))  # 64-row calls: below _SPLIT_FLOPS
    model, cond = _toy(text=True)
    _generate(model, cond)  # guided pairs below _SPLIT_FLOPS
    _generate(model, cond, profile="off")
    assert tm._worker is None
    _force(monkeypatch, True)
    batch_one_runs(*_toy(text=True))  # 16-row calls: below the row floor
    assert tm._worker is None
    batch_one_runs(*_toy(text=True, grid=8))  # at the floor, and past the FLOPs: it splits
    assert tm._worker is not None
    tm._worker.shutdown()


def test_split_rows_are_the_fewest_that_hold_the_floor_and_the_flops(monkeypatch):
    """Each mode splits from the fewest rows that pay, on a free worker.

    Pair mode from call_flops, row mode from the kernels' block FLOPs and the row floor.
    """
    sizes = [(4, 32, 4, 8), (8, 128, 8, 16), (12, 256, 8, 32)]  # toy, mid, big
    configs = [ModelConfig(*size, size[3], text) for size in sizes for text in (0, 16)] + [
        ModelConfig(depth=4, hidden=64, heads=4, grid_h=12, grid_w=12),
        ModelConfig(depth=4, hidden=96, heads=4, grid_h=12, grid_w=12),
        ModelConfig(depth=4, hidden=64, heads=4, grid_h=16, grid_w=16),
        ModelConfig(depth=2, hidden=512, heads=8, grid_h=8, grid_w=8, text_tokens=4),
    ]
    by_rows = tm._by_rows
    trips = []
    monkeypatch.setattr(tm, "two_cpus", lambda: True)
    monkeypatch.setattr(tm, "run_halves", lambda work: trips.append(1))

    def splits(call):
        trips.clear()
        call()
        return bool(trips)

    def kernel_row_flops(c, kind):
        """The FLOPs per query row the kernel of ``kind`` hands _by_rows on a full call."""
        d, got = c.hidden, []
        x, text = np.zeros((c.n_tokens, d)), np.zeros((c.text_tokens, d))
        attn = tm.AttnWeights(*(np.zeros((d, d)) for _ in range(4)))
        mlp = tm.MlpWeights(np.zeros((d, c.mlp_hidden)), np.zeros((c.mlp_hidden, d)))
        with monkeypatch.context() as patch:
            patch.setattr(tm, "_by_rows", lambda flops, *args: got.append(flops))
            if kind == KIND_SELF:
                tm.self_attention_forward(x, attn, c.heads)
            elif kind == KIND_CROSS:
                tm.cross_attention_forward(x, text, attn, c.heads)
            else:
                tm.mlp_forward(x, mlp)
        return got[0]

    fewest = {}  # (config, mode, kind) -> fewest rows that split
    for c in configs:
        for kind in KINDS:
            for rows in range(c.n_tokens + 1):
                pair = rows >= 1 and tm.call_flops(c, kind, rows) >= tm._SPLIT_FLOPS
                assert splits(lambda: tm.each_half(c, kind, rows, 2, lambda h: None)) == pair
                if pair:
                    fewest.setdefault((c, 2, kind), rows)
        for kind in c.group_kinds:  # the head has no row kernel
            row_flops = kernel_row_flops(c, kind)
            for rows in range(c.n_tokens + 1):
                block = rows // 2  # a row block's FLOPs leave out the K/V projections
                flops = tm.call_flops(c, kind, block) - tm.call_flops(c, kind, 0)
                assert row_flops * block == flops
                fits = block >= tm._SPLIT_MIN_ROWS and flops >= tm._SPLIT_FLOPS
                blocks = (np.empty((rows, 0)),)
                assert splits(lambda: by_rows(row_flops, lambda x: None, blocks)) == fits
                if fits:
                    fewest.setdefault((c, 1, kind), rows)
    mid = ModelConfig(depth=8, hidden=128, heads=8, grid_h=16, grid_w=16)
    mid_text = dataclasses.replace(mid, text_tokens=16)
    assert (fewest[mid, 1, KIND_SELF], fewest[mid, 1, KIND_MLP]) == (118, 92)
    assert (fewest[mid, 2, KIND_MLP], fewest[mid_text, 2, KIND_CROSS]) == (46, 148)
    with tm._worker_lock:  # held by another split: neither mode splits
        assert not splits(lambda: tm.each_half(mid, KIND_MLP, 256, 2, lambda h: None))
        blocks = (np.empty((256, 0)),)
        assert not splits(lambda: by_rows(tm._SPLIT_FLOPS, lambda x: None, blocks))


class _OneSite:
    """A batch-1 context stand-in that calls one site's module on its first ``rows`` rows."""

    batch = 1

    def __init__(self, config, kind, rows):
        self.config, self.kind, self.rows = config, kind, rows

    def dispatch(self, layer, kind, xs, fns):
        if kind == self.kind:
            rows = None if self.rows == xs[0].shape[0] else np.arange(self.rows)
            fns[0](xs[0], rows)
        return [np.zeros_like(xs[0])]


def test_a_batch_one_call_splits_its_rows_from_the_memo_up(monkeypatch):
    """From the fewest rows whose blocks pay, and not one row below."""
    c = ModelConfig(depth=1, hidden=128, heads=8, grid_h=16, grid_w=16)
    model, cond = init_model(c, seed=1), Conditioning.random_class(c, 1)
    x = tm.FeatureMatrix(np.zeros((c.n_tokens, c.hidden)), c.grid)
    asked, trips = [], []
    monkeypatch.setattr(tm, "two_cpus", lambda: asked.append(1) or True)
    monkeypatch.setattr(tm, "run_halves", lambda work: trips.append(1) or [work(0), work(1)])
    # the mid thresholds: 118 self-attention rows, 92 MLP rows
    cases = [(k, fewest + d, d == 0) for k, fewest in ((KIND_SELF, 118), (KIND_MLP, 92))
             for d in (-1, 0)]
    for kind, rows, want in cases + [(KIND_FINAL, c.n_tokens, False)]:
        trips.clear()
        model.forward_batch([x], 1.0, [cond], cache_ctx=_OneSite(c, kind, rows))
        assert bool(trips) == want, (kind, rows)
    assert len(asked) == 2  # only the calls whose blocks pay ask for two CPUs


def test_split_needs_the_size_and_two_cpus(monkeypatch):
    c = ModelConfig(depth=8, hidden=128, heads=8, grid_h=16, grid_w=16)
    trips = []
    monkeypatch.setattr(tm, "run_halves", lambda work: trips.append(1))

    def splits(rows):
        trips.clear()
        tm.each_half(c, KIND_MLP, rows, 2, lambda h: None)
        return bool(trips)

    big = 46  # the fewest rows a mid MLP pair splits at
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert splits(big) and not splits(big - 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3})
    assert not splits(c.n_tokens)
    monkeypatch.delattr(os, "sched_getaffinity")  # no affinity API: count the CPUs
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert splits(big)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert not splits(c.n_tokens)


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

    def apply(layer, kind, c, h, rows=None, ws=None):
        if kind == KIND_MLP:
            half = 1 if c is cond else 0
            if half == bad:
                raise RuntimeError(f"half {half} fails")
            time.sleep(0.05)
            finished.append(half)
        return real(layer, kind, c, h, rows, ws=ws)

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
    xr = x if rows is None else x[rows]  # only self-attention takes query ids
    for kind, run in (
        (KIND_SELF, lambda ctr: tm.self_attention_forward(x, g.self_attn, c.heads, rows, ctr)),
        (KIND_CROSS, lambda ctr: tm.cross_attention_forward(xr, text, g.cross_attn, c.heads, ctr)),
        (KIND_MLP, lambda ctr: tm.mlp_forward(xr, g.mlp, ctr)),
    ):
        counter = FlopCounter()
        run(counter)
        assert tm.call_flops(c, kind, m) == counter.flops
    assert tm.call_flops(c, KIND_FINAL, m) == 2 * m * c.hidden**2
