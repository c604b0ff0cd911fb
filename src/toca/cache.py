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
attention, and are kept only while their weight is positive; partially
computed maps never feed the scores. CacheContext.score is the whole policy.
"""

from __future__ import annotations

import functools
import math
import sys
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
    window [start, end) the cycle length is pinned to fixed_cycle_len. A
    cycle with N_t >= total_steps reaches past the run's end and ends the plan.
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
            # N_t >= total_steps decided in integers: denom * total_steps may
            # overflow, cycle may lie beyond every float, and inf is 1/0
            num, den = denom.as_integer_ratio() if denom < math.inf else (1, 0)
            if schedule.cycle * den >= num * total_steps:
                break
            if schedule.cycle <= sys.float_info.max:
                n = math.floor(schedule.cycle / denom + 0.5)
            else:  # rounded half-up exactly
                n = (2 * schedule.cycle * den + num) // (2 * num)
        t += max(1, n)
    return fresh


@functools.lru_cache(maxsize=64)
def _cycles(schedule: CacheSchedule, total_steps: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """cycle_plan's fresh steps, and per step the length of the cycle it belongs to.

    Built once per (schedule, total_steps) and shared read-only as tuples, like
    the dispatch plan: every CacheContext of the config reads them.
    """
    fresh = tuple(cycle_plan(schedule, total_steps))
    bounds = fresh + (total_steps,)
    return fresh, tuple(b - a for a, b in zip(bounds, bounds[1:]) for _ in range(a, b))


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


@dataclass(frozen=True)
class DispatchEvent:
    """One (step, layer, module kind) dispatch: its r_eff and token counts."""

    step: int
    layer: int
    kind: str
    r_eff: float
    computed: int
    cached: int


@functools.lru_cache(maxsize=64)
def dispatch_plan(
    schedule: CacheSchedule, config, total_steps: int
) -> tuple[MappingProxyType, ...]:
    """The DispatchEvent of every dispatch of a run.

    plan[step][(layer, kind)] caches floor(r_eff * N) tokens of that site of
    ``config.sites`` and computes the rest, with r_eff = 0 at cycle_plan's
    fresh steps. This is the one place the schedule becomes per-dispatch
    counts: the engine serves these events, the sampler returns them and the
    FLOPs model prices them.

    The plan depends on nothing but its arguments, so it is built once per
    (schedule, config, total_steps) and shared read-only: a tuple of
    read-only mappings of frozen events, which every run of that config reads.
    """
    fresh = set(_cycles(schedule, total_steps)[0])
    factors = type_ratio_factors(
        schedule, config.hidden, config.heads, config.n_tokens, config.text_tokens
    )
    n = config.n_tokens
    plan = []
    for step in range(total_steps):
        row = {}
        for layer, kind in config.sites:
            r_eff = 0.0 if step in fresh else effective_cache_ratio(
                layer, step, kind, schedule, config.depth, total_steps, factors
            )
            n_cache = cache_token_count(r_eff, n)
            row[(layer, kind)] = DispatchEvent(step, layer, kind, r_eff, n - n_cache, n_cache)
        plan.append(MappingProxyType(row))
    return tuple(plan)


# -- scores ---------------------------------------------------------------


def score_s1(attn: np.ndarray, lam1: float = 1.0) -> np.ndarray:
    """Attention influence: lam1 times the column sums of a row-stochastic map.

    Token j's score is the total attention mass other tokens pay it, so the
    scores sum to lam1 * (number of map rows). A row that does not sum to 1
    within 1e-6, a NaN row included, raises. The sums are np.add.reduce,
    what ndarray.sum calls, without its Python wrapper.
    """
    a = np.asarray(attn, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("attention map must be 2-D")
    dev = np.add.reduce(a, 1)
    dev -= 1.0
    if not np.maximum.reduce(np.abs(dev, out=dev)) <= 1e-6:  # NaN compares False
        raise ValueError("attention map rows must sum to 1")
    return lam1 * np.add.reduce(a, 0)


def score_s2(cross_attn: np.ndarray) -> np.ndarray:
    """Cross-attention row entropy, -sum_j c_ij ln c_ij with 0 ln 0 = 0."""
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
    if c.size and np.minimum.reduce(c, None) < 0:
        raise ValueError("counters must be non-negative")
    return np.true_divide(c, float(cycle_len), dtype=np.float64)


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
    cells, first = _boost_cells(h, w, g)
    idx = cells.take(first + base[cells].argmax(axis=1))
    boosted = base.copy()
    boosted[idx] *= 1.0 + lam4  # winners are unique, so each is scaled once
    return boosted


@functools.lru_cache(maxsize=64)
def _boost_cells(h: int, w: int, g: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat token ids of every G x G cell of an h x w grid, and each cell's offset.

    The ids hold one row per cell; ``first[i]`` is row i's offset into the
    flattened ids, so ``ids.take(first + j)`` reads entry j[i] of row i.
    Cells run row-major over the grid and ids row-major within a cell, so a
    row's first argmax is the cell's lowest flat index among ties. Cells cut
    by the right/bottom edge are padded with their top-left id: a padded
    entry equals the top-left score, which precedes it, so it never wins.
    The arrays are read-only and shared by every call with the same grid.
    """
    ch, cw = (h + g - 1) // g, (w + g - 1) // g
    rr = np.arange(ch * g).reshape(ch, 1, g, 1)
    cc = np.arange(cw * g).reshape(1, cw, 1, g)
    ids = rr * w + cc
    ids = np.where((rr < h) & (cc < w), ids, ids[:, :, :1, :1]).reshape(ch * cw, g * g)
    first = np.arange(0, ids.size, g * g)
    ids.flags.writeable = first.flags.writeable = False
    return ids, first


# -- selection and slots ---------------------------------------------------


@dataclass
class ComputeMask:
    """Partition of the token ids into computed and cached sets."""

    compute_idx: np.ndarray
    cache_idx: np.ndarray


def select_compute_set(scores, r_eff: float) -> ComputeMask:
    """Cache the floor(r_eff * N) lowest-scoring tokens, compute the rest.

    Ties cache the lowest index first.
    """
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 1:
        raise ValueError("scores must be a vector")
    n = s.shape[0]
    n_cache = cache_token_count(r_eff, n)
    order = s.argsort(kind="stable")
    cache_idx, compute_idx = order[:n_cache], order[n_cache:]
    cache_idx.sort()  # each slice in place: the two are disjoint views of order
    compute_idx.sort()
    return ComputeMask(compute_idx, cache_idx)


def cached_layer_apply(fn, x: np.ndarray, mask: ComputeMask, slot_values: np.ndarray):
    """Splice freshly computed rows into the cache slot.

    fn(x, rows) evaluates the module for the given query rows of the raw
    residual stream x, normalising what the module reads itself, and returns
    (rows_out, map or None); the map is dropped. The fresh rows are copied
    into their rows of the slot; a mask that computes nothing leaves the
    slot as it is.
    """
    if slot_values is None:
        raise RuntimeError("cache slot is empty; a fresh step must run first")
    if mask.compute_idx.size:
        slot_values[mask.compute_idx] = fn(x, mask.compute_idx)[0]


def cache_update(counters: np.ndarray, mask: ComputeMask) -> None:
    """Reset the counters of the computed tokens, age everything still cached."""
    counters[mask.compute_idx] = 0
    counters[mask.cache_idx] += 1


class CacheStore:
    """Per-sample cache state: slots, counters and score aggregates.

    A site's (N, hidden) slot and counters live as long as the context;
    dispatches copy module outputs, or their computed rows, into the slot and
    hand the slot itself to the model as the module output.
    """

    def __init__(self) -> None:
        self.values: dict[tuple[int, str], np.ndarray] = {}
        self.counters: dict[tuple[int, str], np.ndarray] = {}
        self.attn_influence: dict[int, np.ndarray] = {}  # raw s1 column sums per layer
        self.cross_entropy: dict[int, np.ndarray] = {}  # raw s2 row entropies per layer


class CacheContext:
    """Caching state for one generation run; the model calls dispatch per module.

    ``plan`` is the run's dispatch_plan, shared read-only by every context of
    the same (schedule, config, total_steps): each dispatch serves the
    DispatchEvent one lookup finds there, and a site outside ``config.sites``
    has none and is rejected. ``fresh_steps``, cycle_plan's steps as a
    tuple, is shared the same way. The events are also the run's dispatch
    log; the context records what they cannot tell, the per-token cache
    counts and, on request, every dispatch's compute ids (``mask_log``).
    State is single-run: one context per sampling trajectory (or guidance
    pair). The dispatches of a run come from one thread; inside a dispatch
    of a pair, half 1's share may run on the model's worker thread (see
    _serve). Independent runs get independent contexts and can run in
    parallel.
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
        # shared read-only with every context of the same schedule and steps
        self.fresh_steps, self._cycle_len = _cycles(schedule, total_steps)
        self.plan = dispatch_plan(schedule, config, total_steps)
        # the masks of dispatches that cache nothing or everything; every such
        # dispatch and its mask_log entry share these read-only index arrays
        every, none = np.arange(config.n_tokens), np.arange(0)
        every.flags.writeable = none.flags.writeable = False
        self._compute_all = ComputeMask(compute_idx=every, cache_idx=none)
        self._cache_all = ComputeMask(compute_idx=none, cache_idx=every)
        self.stores = [CacheStore() for _ in range(batch)]
        self.cache_counts = np.zeros((batch, config.n_tokens), dtype=np.int64)
        self.mask_log: list[tuple[int, int, str, list[np.ndarray]]] | None = (
            [] if record_masks else None
        )
        self.step: int | None = None

    def begin_step(self, step: int) -> None:
        if not 0 <= step < self.total_steps:
            raise ValueError(f"step {step} outside [0, {self.total_steps})")
        self.step = step

    def score(self, layer: int, kind: str, h: int) -> np.ndarray:
        """Member h's caching score per token at (layer, kind): the selection policy.

        lam1 * s1 + lam2 * s2 + lam3 * s3, spatially boosted. s1 and s2 come
        from the layer's last fully computed maps (the head reads the deepest
        layer's), and only a positive lam1 or lam2 has them kept (_serve).
        dispatch caches the lowest-scoring tokens, so a subclass that
        overrides score changes which tokens are cached, never how many.
        """
        sched = self.schedule
        store = self.stores[h]
        stats_layer = min(layer, self.config.depth - 1)
        if sched.lam1 > 0:
            base = sched.lam1 * store.attn_influence[stats_layer]
        else:
            base = np.zeros(self.config.n_tokens)
        if sched.lam2 > 0 and stats_layer in store.cross_entropy:
            base += sched.lam2 * store.cross_entropy[stats_layer]
        if sched.lam3 > 0:
            s3 = score_s3(store.counters[layer, kind], self._cycle_len[self.step])
            s3 *= sched.lam3  # s3 is a new array, so it is scaled in place, not copied
            base += s3
        return apply_spatial_boost(base, self.config.grid, sched.grid_size, sched.lam4)

    def dispatch(self, layer: int, kind: str, xs: list, fns: list) -> list:
        """Serve one (layer, module kind) application for every batch half.

        xs[h] is half h's raw residual stream. fns[h](x, rows=None) runs the
        module for half h on all tokens, or on the given query rows, and
        returns (output, attention map or None) (model.Model._apply); a
        dispatch that caches every token never calls it. Every dispatch
        caches its plan event's floor(r_eff * N) lowest-scoring tokens
        (score) and computes the rest; fresh steps have r_eff = 0, and
        coupled guidance halves share the mask of their summed scores. A
        site's first dispatch must cache nothing; it makes the
        site's slots and counters here, on the calling thread. A dispatch
        whose module call raises drops them for every half, so the site's
        next dispatch must again cache nothing. A dispatch that caches
        nothing copies each module output into its slot, zeroes the counters
        and refreshes the score aggregates score reads; any other splices
        fresh rows into the slot and ages the cached ones.
        Returns the slots, the module outputs until the site's next dispatch.
        """
        if self.step is None:
            raise RuntimeError("begin_step must be called before dispatch")
        if not (len(xs) == len(fns) == self.batch):
            raise ValueError("dispatch inputs do not match the context batch")
        key = (layer, kind)
        event = self.plan[self.step].get(key)
        if event is None:
            raise ValueError(f"dispatch for site {key}, which the model does not have")
        if key not in self.stores[0].values:  # no thread owns it: made here, off the worker's arena
            if event.cached:
                raise RuntimeError(f"dispatch for {key} before any fresh step")
            for store in self.stores:
                store.values[key] = np.empty((self.config.n_tokens, self.config.hidden))
                store.counters[key] = np.zeros(self.config.n_tokens, dtype=np.int64)

        if event.cached and event.computed:
            scores = [self.score(layer, kind, h) for h in range(self.batch)]
            if self.schedule.cfg_coupled and self.batch > 1:
                masks = [select_compute_set(np.sum(scores, axis=0), event.r_eff)] * self.batch
            else:
                masks = [select_compute_set(s, event.r_eff) for s in scores]
        else:
            masks = [self._cache_all if event.cached else self._compute_all] * self.batch

        try:
            model.each_half(
                self.config, kind, event.computed, self.batch,
                functools.partial(self._serve, key, xs, fns, masks),
            )
        except BaseException:  # slots left unfilled or stale: no later dispatch may serve them
            for store in self.stores:
                del store.values[key], store.counters[key]
            raise
        if self.mask_log is not None:
            self.mask_log.append((self.step, layer, kind, [m.compute_idx for m in masks]))
        return [store.values[key] for store in self.stores]

    def _serve(self, key: tuple, xs: list, fns: list, masks: list, h: int) -> None:
        """Half h's share of a dispatch: its module call fns[h](xs[h]), splice and bookkeeping.

        Touches only half h's store and row of cache_counts, so a pair's halves
        may run on two threads; the module's output is copied at once, so it
        may be scratch. Full reuse calls nothing: whole-array adds age every
        counter, as cache_update over every index would.
        """
        store = self.stores[h]
        mask = masks[h]
        if mask is self._compute_all:  # n_cache == 0: compute every token
            out, attn = fns[h](xs[h])
            np.copyto(store.values[key], out)
            store.counters[key].fill(0)
            layer, kind = key
            if kind == KIND_SELF and self.schedule.lam1 > 0:  # kept only if score reads it
                store.attn_influence[layer] = score_s1(attn)
            elif kind == KIND_CROSS and self.schedule.lam2 > 0:
                store.cross_entropy[layer] = score_s2(attn)
        elif mask is self._cache_all:
            store.counters[key] += 1
            self.cache_counts[h] += 1
        else:
            cached_layer_apply(fns[h], xs[h], mask, store.values[key])
            cache_update(store.counters[key], mask)
            self.cache_counts[h][mask.cache_idx] += 1
