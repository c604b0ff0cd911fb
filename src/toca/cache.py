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

import math
from dataclasses import dataclass

import numpy as np

from .flops import flops_cross_attention, flops_mlp
from .model import KIND_CROSS, KIND_FINAL, KIND_MLP, KIND_SELF

TYPE_MODES = ("uniform", "flops-share", "lambda-type")


@dataclass
class CacheSchedule:
    """Every knob that shapes where and how hard the cache bites.

    ratio is the base cached fraction R; cycle is the forced-activation cycle
    length N0. lam1..lam4 weight the score terms, lam_depth/lam_time tilt the
    ratio across layers and steps around ``center``, cycle_slope stretches the
    cycle over the run, and type_mode decides how the ratio is redistributed
    between module kinds (see type_ratio_factors).
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


# -- scores ---------------------------------------------------------------


def score_s1(attn: np.ndarray, lam1: float = 1.0) -> np.ndarray:
    """Attention influence: lam1 times the column sums of a row-stochastic map.

    Token j's score is the total attention mass other tokens pay it, so the
    scores sum to lam1 * (number of map rows).
    """
    a = np.asarray(attn, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("attention map must be 2-D")
    row_sums = a.sum(axis=1)
    if np.max(np.abs(row_sums - 1.0)) > 1e-6:
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
    # Pad to whole cells with -inf; one row-major argmax per cell sends ties to
    # the lowest flat index, and padding never precedes a cell's real top-left.
    ch, cw = (h + g - 1) // g, (w + g - 1) // g
    padded = np.full((ch * g, cw * g), -np.inf)
    padded[:h, :w] = base.reshape(h, w)
    cells = padded.reshape(ch, g, cw, g).swapaxes(1, 2).reshape(ch, cw, g * g)
    rr, cc = np.divmod(cells.argmax(axis=2), g)
    rr += np.arange(0, h, g)[:, None]
    cc += np.arange(0, w, g)[None, :]
    idx = (rr * w + cc).ravel()
    boosted = base.copy()
    boosted[idx] = base[idx] * (1.0 + lam4)
    return boosted


# -- selection and slots ---------------------------------------------------


@dataclass
class ComputeMask:
    """Partition of the token ids into computed and cached sets."""

    compute_idx: np.ndarray
    cache_idx: np.ndarray
    gamma: np.ndarray  # True where the token is computed

    @property
    def n_tokens(self) -> int:
        return self.gamma.shape[0]

    @property
    def n_computed(self) -> int:
        return self.compute_idx.shape[0]

    @property
    def n_cached(self) -> int:
        return self.cache_idx.shape[0]


def select_compute_set(scores, r_eff: float, cfg_coupled: bool = False) -> ComputeMask:
    """Cache the floor(r_eff * N) lowest-scoring tokens, compute the rest.

    Ties cache the lowest index first. ``scores`` may be a list of per-half
    score vectors from a guidance pair; with cfg_coupled they are summed per
    token position so both halves share one mask.
    """
    if isinstance(scores, (list, tuple)):
        if not cfg_coupled:
            raise ValueError("multiple score vectors require cfg_coupled=True")
        stack = [np.asarray(s, dtype=np.float64) for s in scores]
        if len({s.shape for s in stack}) != 1:
            raise ValueError("score vectors must share a shape")
        s = np.sum(stack, axis=0)
    else:
        s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 1:
        raise ValueError("scores must be a vector")
    n = s.shape[0]
    n_cache = cache_token_count(r_eff, n)
    order = np.argsort(s, kind="stable")
    cache_idx = np.sort(order[:n_cache])
    compute_idx = np.sort(order[n_cache:])
    gamma = np.ones(n, dtype=bool)
    gamma[cache_idx] = False
    return ComputeMask(compute_idx=compute_idx, cache_idx=cache_idx, gamma=gamma)


def cached_layer_apply(rows_fn, x: np.ndarray, mask: ComputeMask, slot_values: np.ndarray):
    """Splice freshly computed rows into the cached module output.

    rows_fn(x, rows) evaluates the module for the given query rows against the
    full input stream. Returns (output, fresh_rows, fresh_attn); fresh_rows is
    None when the mask computes nothing.
    """
    if slot_values is None:
        raise RuntimeError("cache slot is empty; a fresh step must run first")
    out = slot_values.copy()
    if mask.n_computed == 0:
        return out, None, None
    fresh, attn = rows_fn(x, mask.compute_idx)
    out[mask.compute_idx] = fresh
    return out, fresh, attn


def cache_update(
    slot_values: np.ndarray, counters: np.ndarray, mask: ComputeMask, fresh_rows
) -> None:
    """Store fresh rows, reset their counters, age everything still cached."""
    if fresh_rows is not None:
        slot_values[mask.compute_idx] = fresh_rows
        counters[mask.compute_idx] = 0
    counters[mask.cache_idx] += 1


class CacheStore:
    """Per-sample cache state: slots, counters and score aggregates."""

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

    State is single-run and single-threaded: one context per sampling
    trajectory (or guidance pair). Independent runs get independent contexts
    and can execute in parallel processes.
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
        self._fresh_set = set(self.fresh_steps)
        # map every step to (cycle start, actual cycle extent)
        bounds = self.fresh_steps + [total_steps]
        self._cycle_of: list[tuple[int, int]] = []
        for i in range(len(self.fresh_steps)):
            start, end = bounds[i], bounds[i + 1]
            self._cycle_of += [(start, end - start)] * (end - start)
        self.type_factors = type_ratio_factors(
            schedule, config.hidden, config.heads, config.n_tokens, config.text_tokens
        )
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

    @property
    def is_fresh_step(self) -> bool:
        return self.step in self._fresh_set

    @property
    def current_cycle_len(self) -> int:
        return self._cycle_of[self.step][1]

    # -- internals -------------------------------------------------------

    def _log_masks(self, layer: int, kind: str, per_half: list[np.ndarray]) -> None:
        if self.mask_log is not None:
            self.mask_log.append((self.step, layer, kind, per_half))

    def _dispatch_full(self, layer, kind, xs, full_fns, r_eff):
        n = self.config.n_tokens
        key = (layer, kind)
        outs, attns = [], []
        for h in range(self.batch):
            out, attn = full_fns[h](xs[h])
            store = self.stores[h]
            store.values[key] = out.copy()
            store.counters[key] = np.zeros(n, dtype=np.int64)
            if attn is not None and attn.shape[0] == n and kind != KIND_FINAL:
                if kind == KIND_SELF:
                    store.attn_influence[layer] = attn.sum(axis=0)
                elif kind == KIND_CROSS:
                    store.cross_entropy[layer] = score_s2(attn)
            outs.append(out)
            attns.append(attn)
        self.events.append(DispatchEvent(self.step, layer, kind, r_eff, n, 0))
        self._log_masks(layer, kind, [np.arange(n)] * self.batch)
        return outs, attns

    def _base_scores(self, layer: int, kind: str, half: int) -> np.ndarray:
        sched = self.schedule
        store = self.stores[half]
        key = (layer, kind)
        if key not in store.counters:
            raise RuntimeError(f"dispatch for {key} before any fresh step")
        stats_layer = min(layer, self.config.depth - 1)
        n = self.config.n_tokens
        base = np.zeros(n)
        if sched.lam1 > 0:
            base = base + sched.lam1 * store.attn_influence[stats_layer]
        if sched.lam2 > 0 and stats_layer in store.cross_entropy:
            base = base + sched.lam2 * store.cross_entropy[stats_layer]
        if sched.lam3 > 0:
            base = base + sched.lam3 * score_s3(store.counters[key], self.current_cycle_len)
        return base

    def dispatch(self, layer: int, kind: str, xs: list, full_fns: list, rows_fns: list):
        """Serve one (layer, module kind) application for every batch half.

        Fresh steps compute everything and refill the cache. Other steps pick
        a compute set per the schedule, splice cached rows with fresh ones and
        update the cache. Returns (outputs, attention maps); a map is present
        only when the module was fully computed this dispatch.
        """
        if self.step is None:
            raise RuntimeError("begin_step must be called before dispatch")
        if not (len(xs) == len(full_fns) == len(rows_fns) == self.batch):
            raise ValueError("dispatch inputs do not match the context batch")
        n = self.config.n_tokens
        key = (layer, kind)

        if self.is_fresh_step:
            return self._dispatch_full(layer, kind, xs, full_fns, r_eff=0.0)

        r_eff = effective_cache_ratio(
            layer, self.step, kind, self.schedule, self.config.depth,
            self.total_steps, self.type_factors,
        )
        n_cache = cache_token_count(r_eff, n)
        if n_cache == 0:
            # nothing cached this dispatch: identical to the uncached path
            return self._dispatch_full(layer, kind, xs, full_fns, r_eff)

        for store in self.stores:
            if key not in store.values:
                raise RuntimeError(f"dispatch for {key} before any fresh step")

        if n_cache == n:
            outs = []
            for h in range(self.batch):
                store = self.stores[h]
                outs.append(store.values[key].copy())
                store.counters[key] += 1
                self.cache_counts[h] += 1
            self.events.append(DispatchEvent(self.step, layer, kind, r_eff, 0, n))
            self._log_masks(layer, kind, [np.arange(0)] * self.batch)
            return outs, [None] * self.batch

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
            shared = select_compute_set(scores, r_eff, cfg_coupled=True)
            masks = [shared] * self.batch
        else:
            masks = [select_compute_set(s, r_eff) for s in scores]

        outs = []
        for h in range(self.batch):
            store = self.stores[h]
            mask = masks[h]
            out, fresh, _ = cached_layer_apply(rows_fns[h], xs[h], mask, store.values[key])
            cache_update(store.values[key], store.counters[key], mask, fresh)
            self.cache_counts[h][mask.cache_idx] += 1
            outs.append(out)
        self.events.append(
            DispatchEvent(self.step, layer, kind, r_eff, masks[0].n_computed, masks[0].n_cached)
        )
        self._log_masks(layer, kind, [m.compute_idx for m in masks])
        return outs, [None] * self.batch
