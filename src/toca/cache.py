"""Token-wise feature caching: schedules, scores, selection and dispatch.

The engine works in forced-activation cycles. The first step of each cycle is
a fresh step: every module computes all tokens and the cache is refilled. At
the remaining steps each (layer, module) dispatch ranks tokens by a caching
score and recomputes only the highest-scoring ones; the lowest-scoring
floor(R_eff * N) tokens are served from the cache, which is then updated with
the freshly computed rows.

Scores combine, per token: the column mass it receives in the layer's
self-attention map (s1), the entropy of its cross-attention row (s2, zero for
class-conditional models), and how many dispatches it has sat in the cache
(s3), followed by a spatial boost that promotes one token per G x G grid cell.
Aggregates for s1/s2 come from the layer's most recent fully computed
attention; partially computed maps never feed the scores.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from . import model
from .flops import flops_cross_attention, flops_mlp
from .model import KIND_CROSS, KIND_FINAL, KIND_MLP, KIND_SELF

TYPE_MODES = ("uniform", "flops-share", "lambda-type")


@dataclass(frozen=True)
class CacheSchedule:
    """Every knob that shapes where and how hard the cache bites.

    ratio is the base cached fraction R; cycle is the forced-activation cycle
    length N0. lam1..lam4 weight the score terms, lam_depth/lam_time tilt the
    ratio across layers and steps around ``center``, cycle_slope stretches the
    cycle over the run, and type_mode decides how the ratio is redistributed
    between module kinds (see type_ratio_factors). Schedules are frozen, so
    equal schedules hash alike and can key the shared dispatch_plan.
    """

    ratio: float = 0.0
    cycle: int = 1
    lam1: float = 1.0
    lam2: float = 1.0
    lam3: float = 0.0
    lam4: float = 1.0
    lam_depth: float = 0.0
    lam_time: float = 0.0
    lam_type: float = 0.0
    cycle_slope: float = 0.0
    grid_size: int = 1
    center: float = 1.0
    cfg_coupled: bool = True
    type_mode: str = "uniform"
    fixed_cycle_start: int | None = None
    fixed_cycle_end: int | None = None
    fixed_cycle_len: int | None = None

    def validate(self) -> None:
        if not 0.0 <= self.ratio <= 1.0:
            raise ValueError(f"ratio must be in [0, 1], got {self.ratio}")
        if self.cycle < 1:
            raise ValueError(f"cycle must be >= 1, got {self.cycle}")
        for name in ("lam1", "lam2", "lam3", "lam4", "lam_depth", "lam_time", "lam_type", "cycle_slope"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.grid_size < 1:
            raise ValueError("grid_size must be >= 1")
        if self.center - abs(self.cycle_slope) / 2 <= 0:
            raise ValueError("center too small for cycle_slope, cycle length would diverge")
        if self.type_mode not in TYPE_MODES:
            raise ValueError(f"type_mode must be one of {TYPE_MODES}")
        window = (self.fixed_cycle_start, self.fixed_cycle_end, self.fixed_cycle_len)
        if any(v is not None for v in window) and not all(v is not None for v in window):
            raise ValueError("fixed cycle window needs start, end and length together")
        if self.fixed_cycle_len is not None and self.fixed_cycle_len < 1:
            raise ValueError("fixed_cycle_len must be >= 1")

    @property
    def is_noop(self) -> bool:
        """True when the schedule can never cache anything (R = 0)."""
        return self.ratio == 0.0


PROFILES: dict[str, CacheSchedule] = {
    "off": CacheSchedule(),
    "naive-full": CacheSchedule(
        ratio=1.0, cycle=3, lam1=0.0, lam2=0.0, lam3=0.0, lam4=0.0,
        grid_size=1, type_mode="uniform",
    ),
    "toca-dit": CacheSchedule(
        ratio=0.93, cycle=3, lam1=1.0, lam2=1.0, lam3=0.25, lam4=1.0,
        lam_depth=0.06, lam_time=0.03, lam_type=2.5, cycle_slope=0.4,
        grid_size=2, type_mode="lambda-type",
        fixed_cycle_start=50, fixed_cycle_end=100, fixed_cycle_len=2,
    ),
    "toca-pixart": CacheSchedule(
        ratio=0.70, cycle=2, lam1=1.0, lam2=1.0, lam3=0.25, lam4=1.0,
        lam_depth=0.3, lam_time=0.4, cycle_slope=0.1,
        grid_size=2, type_mode="flops-share",
    ),
}


def cycle_plan(schedule: CacheSchedule, total_steps: int) -> list[int]:
    """Fresh (full-compute) step indices over a run of ``total_steps`` steps.

    Step 0 is always fresh. After a fresh step t the next one follows after
    round(N_t) steps where N_t = cycle / (center + cycle_slope * (t/T - 0.5)),
    rounded half-up and clamped to at least 1. Inside the optional fixed
    window [start, end) the cycle length is pinned to fixed_cycle_len.
    """
    schedule.validate()
    if total_steps < 1:
        raise ValueError("total_steps must be >= 1")
    fresh = []
    t = 0
    while t < total_steps:
        fresh.append(t)
        if (
            schedule.fixed_cycle_start is not None
            and schedule.fixed_cycle_start <= t < schedule.fixed_cycle_end
        ):
            n = schedule.fixed_cycle_len
        else:
            denom = schedule.center + schedule.cycle_slope * (t / total_steps - 0.5)
            n = math.floor(schedule.cycle / denom + 0.5)
        t += max(1, n)
    return fresh


def type_ratio_factors(
    schedule: CacheSchedule, hidden: int, heads: int, n_tokens: int, n_text: int
) -> dict[str, float | None]:
    """Per-module-kind factors interpreted by effective_cache_ratio.

    uniform: factor 1 for everything (the ratio applies as-is).

    flops-share: self-attention is fully cached at non-fresh steps (factor
    None) and the remaining kinds multiply the ratio by their share of the
    full-module FLOPs, renormalized so the mean over those kinds is 1.

    lambda-type: the factors scale the *computed* fraction instead, trading
    attention work for MLP work: self-attention computes (1 - 0.4 * lam_type)
    of its share and the MLP 1 + 0.6 * lam_type. At lam_type = 2.5 attention is
    entirely cached and its work shifts to the MLP.
    """
    kinds = [KIND_SELF] + ([KIND_CROSS] if n_text > 0 else []) + [KIND_MLP]
    if schedule.type_mode == "uniform":
        factors: dict[str, float | None] = {k: 1.0 for k in kinds}
        factors[KIND_FINAL] = 1.0
        return factors
    if schedule.type_mode == "flops-share":
        factors = {KIND_SELF: None}
        if n_text > 0:
            fc = flops_cross_attention(n_tokens, n_text, hidden, heads)
            fm = flops_mlp(n_tokens, hidden)
            factors[KIND_CROSS] = 2.0 * fc / (fc + fm)
            factors[KIND_MLP] = 2.0 * fm / (fc + fm)
        else:
            factors[KIND_MLP] = 1.0
        factors[KIND_FINAL] = factors[KIND_MLP]
        return factors
    # lambda-type
    factors = {
        KIND_SELF: max(0.0, 1.0 - 0.4 * schedule.lam_type),
        KIND_MLP: 1.0 + 0.6 * schedule.lam_type,
    }
    if n_text > 0:
        factors[KIND_CROSS] = 1.0
    factors[KIND_FINAL] = factors[KIND_MLP]
    return factors


def effective_cache_ratio(
    layer: int,
    step: int,
    kind: str,
    schedule: CacheSchedule,
    depth: int,
    total_steps: int,
    type_factors: dict[str, float | None],
) -> float:
    """Cached token fraction for one (layer, step, module kind) dispatch.

    The base ratio is tilted by depth (r_l = c + lam_depth * (l/L - 0.5)) and
    by progress through the run (r_t = c + lam_time * (0.5 - t/T)), then
    redistributed across module kinds per the schedule's type mode. The result
    is clamped to [0, 1]. A zero base ratio disables caching entirely for
    every kind, whatever the type mode says.
    """
    if schedule.ratio == 0.0:
        return 0.0
    c = schedule.center
    r_l = c + schedule.lam_depth * (layer / depth - 0.5)
    r_t = c + schedule.lam_time * (0.5 - step / total_steps)
    factor = type_factors[kind]
    if schedule.type_mode == "lambda-type":
        base = min(1.0, max(0.0, schedule.ratio * r_l * r_t))
        return min(1.0, max(0.0, 1.0 - (1.0 - base) * factor))
    if factor is None:  # flops-share: attention fully cached at non-fresh steps
        return 1.0
    return min(1.0, max(0.0, schedule.ratio * r_l * factor * r_t))


def cache_token_count(r_eff: float, n_tokens: int) -> int:
    """floor(r_eff * N), with a tiny guard against float round-down."""
    n = int(math.floor(r_eff * n_tokens + 1e-9))
    return min(max(n, 0), n_tokens)


@functools.lru_cache(maxsize=64)
def dispatch_plan(
    schedule: CacheSchedule, config, total_steps: int
) -> tuple[MappingProxyType, ...]:
    """The cached ratio and token count of every dispatch of a run.

    plan[step][(layer, kind)] = (r_eff, n_cache) for every site of
    ``config.sites``, with r_eff = 0 at the fresh steps of cycle_plan. This is
    the one place the schedule becomes per-dispatch counts: the cache engine
    serves its dispatches from the table and the FLOPs model prices it.

    The plan depends on nothing but its arguments, so it is built once per
    (schedule, config, total_steps) and shared read-only: a tuple of
    read-only mappings, which every context of that config reads.
    """
    fresh = set(cycle_plan(schedule, total_steps))
    factors = type_ratio_factors(
        schedule, config.hidden, config.heads, config.n_tokens, config.text_tokens
    )
    plan = []
    for step in range(total_steps):
        row = {}
        for layer, kind in config.sites:
            r_eff = 0.0 if step in fresh else effective_cache_ratio(
                layer, step, kind, schedule, config.depth, total_steps, factors
            )
            row[(layer, kind)] = (r_eff, cache_token_count(r_eff, config.n_tokens))
        plan.append(MappingProxyType(row))
    return tuple(plan)


# -- scores ---------------------------------------------------------------


def score_s1(attn: np.ndarray, lam1: float = 1.0) -> np.ndarray:
    """Attention influence: lam1 times the column sums of a row-stochastic map.

    Token j's score is the total attention mass other tokens pay it, so the
    scores sum to lam1 * (number of map rows).
    """
    a = np.asarray(attn, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("attention map must be 2-D")
    dev = a.sum(axis=1)
    dev -= 1.0
    if np.abs(dev, out=dev).max() > 1e-6:
        raise ValueError("attention map rows must sum to 1")
    return lam1 * a.sum(axis=0)


def score_s2(cross_attn: np.ndarray | None, n_tokens: int | None = None) -> np.ndarray:
    """Cross-attention row entropy, -sum_j c_ij ln c_ij with 0 ln 0 = 0.

    Class-conditional models have no cross-attention map; passing None with an
    explicit token count returns zeros (the score is disabled).
    """
    if cross_attn is None:
        if n_tokens is None:
            raise ValueError("need n_tokens when there is no cross-attention map")
        return np.zeros(n_tokens)
    c = np.asarray(cross_attn, dtype=np.float64)
    if c.ndim != 2:
        raise ValueError("cross-attention map must be 2-D")
    terms = np.where(c > 0.0, c * np.log(np.where(c > 0.0, c, 1.0)), 0.0)
    return -terms.sum(axis=1)


def score_s3(counters: np.ndarray, cycle_len: int) -> np.ndarray:
    """Cache-age score n_i / N: dispatches spent cached since last computation."""
    if cycle_len < 1:
        raise ValueError("cycle_len must be >= 1")
    c = np.asarray(counters)
    if np.any(c < 0):
        raise ValueError("counters must be non-negative")
    return c.astype(np.float64) / float(cycle_len)


def apply_spatial_boost(
    base: np.ndarray, grid: tuple[int, int], grid_size: int, lam4: float
) -> np.ndarray:
    """Promote the best token of every G x G grid cell.

    The token with the highest base score in each cell (ties going to the
    lowest flat index) gets its score multiplied by (1 + lam4); everyone else
    keeps their base score. Trailing cells at the right/bottom edges are
    simply smaller.
    """
    h, w = grid
    base = np.asarray(base, dtype=np.float64)
    if base.shape != (h * w,):
        raise ValueError(f"expected {h * w} scores for a {h}x{w} grid")
    g = grid_size
    if g < 1:
        raise ValueError("grid_size must be >= 1")
    if g > min(h, w):
        raise ValueError(f"grid_size {g} exceeds grid {grid}")
    cells = _boost_cells(h, w, g)
    idx = cells[np.arange(cells.shape[0]), base[cells].argmax(axis=1)]
    boosted = base.copy()
    boosted[idx] = base[idx] * (1.0 + lam4)
    return boosted


@functools.lru_cache(maxsize=64)
def _boost_cells(h: int, w: int, g: int) -> np.ndarray:
    """Flat token ids of every G x G cell of an h x w grid, one row per cell.

    Cells run row-major over the grid and ids row-major within a cell, so a
    row's first argmax is the cell's lowest flat index among ties. Cells cut
    by the right/bottom edge are padded with their top-left id: a padded
    entry equals the top-left score, which precedes it, so it never wins.
    The array is read-only and shared by every call with the same grid.
    """
    ch, cw = (h + g - 1) // g, (w + g - 1) // g
    rr = np.arange(ch * g).reshape(ch, 1, g, 1)
    cc = np.arange(cw * g).reshape(1, cw, 1, g)
    ids = rr * w + cc
    ids = np.where((rr < h) & (cc < w), ids, ids[:, :, :1, :1]).reshape(ch * cw, g * g)
    ids.flags.writeable = False
    return ids


# -- selection and slots ---------------------------------------------------


@dataclass
class ComputeMask:
    """Partition of the token ids into computed and cached sets."""

    compute_idx: np.ndarray
    cache_idx: np.ndarray

    @property
    def n_computed(self) -> int:
        return self.compute_idx.shape[0]

    @property
    def n_cached(self) -> int:
        return self.cache_idx.shape[0]


def select_compute_set(scores, r_eff: float) -> ComputeMask:
    """Cache the floor(r_eff * N) lowest-scoring tokens, compute the rest.

    Ties cache the lowest index first.
    """
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 1:
        raise ValueError("scores must be a vector")
    n = s.shape[0]
    n_cache = cache_token_count(r_eff, n)
    order = np.argsort(s, kind="stable")
    cache_idx = np.sort(order[:n_cache])
    compute_idx = np.sort(order[n_cache:])
    return ComputeMask(compute_idx=compute_idx, cache_idx=cache_idx)


def cached_layer_apply(fn, x: np.ndarray, mask: ComputeMask, slot_values: np.ndarray):
    """Splice freshly computed rows into the cache slot, which is the module output.

    fn(x, rows) evaluates the module for the given query rows of the raw
    residual stream x, normalising what the module reads itself, and returns
    (rows_out, map or None); the map is dropped. The fresh rows overwrite
    their rows of the slot in place. Returns (slot_values, fresh_rows);
    fresh_rows is None when the mask computes nothing.
    """
    if slot_values is None:
        raise RuntimeError("cache slot is empty; a fresh step must run first")
    if mask.n_computed == 0:
        return slot_values, None
    fresh = fn(x, mask.compute_idx)[0]
    slot_values[mask.compute_idx] = fresh
    return slot_values, fresh


def cache_update(counters: np.ndarray, mask: ComputeMask) -> None:
    """Reset the counters of the computed tokens, age everything still cached."""
    counters[mask.compute_idx] = 0
    counters[mask.cache_idx] += 1


class CacheStore:
    """Per-sample cache state: slots, counters and score aggregates.

    A slot is the output of the module's last full computation, kept without
    a copy; partial dispatches overwrite their computed rows in place, and
    every dispatch hands the slot itself to the model as the module output.
    """

    def __init__(self) -> None:
        self.values: dict[tuple[int, str], np.ndarray] = {}
        self.counters: dict[tuple[int, str], np.ndarray] = {}
        self.attn_influence: dict[int, np.ndarray] = {}  # raw s1 column sums per layer
        self.cross_entropy: dict[int, np.ndarray] = {}  # raw s2 row entropies per layer


@dataclass
class DispatchEvent:
    step: int
    layer: int
    kind: str
    r_eff: float
    computed: int
    cached: int


class CacheContext:
    """Caching state for one generation run; the model calls dispatch per module.

    ``plan`` is the run's dispatch_plan, shared read-only by every context of
    the same (schedule, config, total_steps): every dispatch takes its r_eff
    and cached-token count from it, and a dispatch for a site outside
    ``config.sites`` is rejected. State is single-run: one context per
    sampling trajectory (or guidance pair). The dispatches of a run come from
    one thread; inside a dispatch of a pair, half 1's share may run on the
    model's worker thread (see _serve). Independent runs get independent
    contexts and can execute in parallel processes.
    """

    def __init__(
        self,
        schedule: CacheSchedule,
        config,
        total_steps: int,
        batch: int = 1,
        record_masks: bool = False,
    ):
        schedule.validate()
        if batch < 1:
            raise ValueError("batch must be >= 1")
        self.schedule = schedule
        self.config = config
        self.total_steps = total_steps
        self.batch = batch
        self.fresh_steps = cycle_plan(schedule, total_steps)
        self.plan = dispatch_plan(schedule, config, total_steps)
        # map every step to the extent of the cycle it belongs to
        bounds = self.fresh_steps + [total_steps]
        self._cycle_len = [b - a for a, b in zip(bounds, bounds[1:]) for _ in range(a, b)]
        # the masks of dispatches that cache nothing or everything; every such
        # dispatch and its mask_log entry share these read-only index arrays
        every, none = np.arange(config.n_tokens), np.arange(0)
        every.flags.writeable = none.flags.writeable = False
        self._compute_all = ComputeMask(compute_idx=every, cache_idx=none)
        self._cache_all = ComputeMask(compute_idx=none, cache_idx=every)
        self.stores = [CacheStore() for _ in range(batch)]
        self.events: list[DispatchEvent] = []
        self.cache_counts = np.zeros((batch, config.n_tokens), dtype=np.int64)
        self.mask_log: list[tuple[int, int, str, list[np.ndarray]]] | None = (
            [] if record_masks else None
        )
        self.step: int | None = None

    def begin_step(self, step: int) -> None:
        if not 0 <= step < self.total_steps:
            raise ValueError(f"step {step} outside [0, {self.total_steps})")
        self.step = step

    def _base_scores(self, layer: int, kind: str, half: int) -> np.ndarray:
        sched = self.schedule
        store = self.stores[half]
        key = (layer, kind)
        stats_layer = min(layer, self.config.depth - 1)
        if sched.lam1 > 0:
            base = sched.lam1 * store.attn_influence[stats_layer]
        else:
            base = np.zeros(self.config.n_tokens)
        if sched.lam2 > 0 and stats_layer in store.cross_entropy:
            base += sched.lam2 * store.cross_entropy[stats_layer]
        if sched.lam3 > 0:
            base += sched.lam3 * score_s3(store.counters[key], self._cycle_len[self.step])
        return base

    def dispatch(self, layer: int, kind: str, xs: list, fns: list) -> list:
        """Serve one (layer, module kind) application for every batch half.

        xs[h] is half h's raw residual stream. fns[h](x, rows=None) runs the
        module for half h on all tokens, or on the given query rows, and
        returns (output, attention map or None); it normalises only the rows
        the module reads, and a dispatch that caches every token never calls
        it. Every dispatch caches the plan's n_cache = floor(r_eff * N)
        lowest-scoring tokens and computes the rest; fresh steps have
        r_eff = 0, and coupled guidance halves share the mask of their summed
        scores. A dispatch that caches nothing keeps the module's output
        itself as the slot, without a copy, so a full call must return an
        array that nothing else writes; it also refreshes the score
        aggregates from the map. Any other splices fresh rows into the slot
        and ages the cached ones. Returns the per-half slots, which are the
        module outputs until the next dispatch of the same (layer, kind).

        Once the masks are chosen, a pair whose call passes model.split_halves
        (sized by the computed rows) runs half 1's share on the model's worker
        thread while half 0's runs here; dispatch returns after both.
        """
        if self.step is None:
            raise RuntimeError("begin_step must be called before dispatch")
        if not (len(xs) == len(fns) == self.batch):
            raise ValueError("dispatch inputs do not match the context batch")
        n = self.config.n_tokens
        key = (layer, kind)
        if key not in self.plan[self.step]:
            raise ValueError(f"dispatch for site {key}, which the model does not have")
        r_eff, n_cache = self.plan[self.step][key]
        if n_cache > 0 and any(key not in store.values for store in self.stores):
            raise RuntimeError(f"dispatch for {key} before any fresh step")

        if 0 < n_cache < n:
            scores = [
                apply_spatial_boost(
                    self._base_scores(layer, kind, h),
                    self.config.grid,
                    self.schedule.grid_size,
                    self.schedule.lam4,
                )
                for h in range(self.batch)
            ]
            if self.schedule.cfg_coupled and self.batch > 1:
                masks = [select_compute_set(np.sum(scores, axis=0), r_eff)] * self.batch
            else:
                masks = [select_compute_set(s, r_eff) for s in scores]
        else:
            masks = [self._compute_all if n_cache == 0 else self._cache_all] * self.batch

        if self.batch == 2 and model.split_halves(model.call_flops(self.config, kind, n - n_cache)):
            model.run_halves(lambda h: self._serve(h, layer, kind, xs[h], fns[h], masks[h]))
            outs = [store.values[key] for store in self.stores]
        else:
            outs = []
            for h in range(self.batch):
                outs.append(self._serve(h, layer, kind, xs[h], fns[h], masks[h]))
        self.events.append(DispatchEvent(self.step, layer, kind, r_eff, n - n_cache, n_cache))
        if self.mask_log is not None:
            self.mask_log.append((self.step, layer, kind, [m.compute_idx for m in masks]))
        return outs

    def _serve(self, h: int, layer: int, kind: str, x, fn, mask: ComputeMask) -> np.ndarray:
        """Half h's share of a dispatch: its module call, splice and bookkeeping.

        Touches only half h's store and row of cache_counts, so the two
        halves of a pair may run on two threads. Returns half h's slot.
        """
        store = self.stores[h]
        key = (layer, kind)
        if mask is self._compute_all:  # n_cache == 0: compute every token
            slot, attn = fn(x)
            store.values[key] = slot
            store.counters[key] = np.zeros(self.cache_counts.shape[1], dtype=np.int64)
            if kind == KIND_SELF:
                store.attn_influence[layer] = score_s1(attn)
            elif kind == KIND_CROSS:
                store.cross_entropy[layer] = score_s2(attn)
            return slot
        slot, _ = cached_layer_apply(fn, x, mask, store.values[key])
        cache_update(store.counters[key], mask)
        self.cache_counts[h][mask.cache_idx] += 1
        return slot
