"""Reverse-diffusion sampling loop over the cache-aware transformer.

DDPM ancestral steps plus a deterministic DDIM option, with optional
classifier-free guidance run as a lockstep batch of two streams through one
shared cache context. Per-step noise is drawn from a stream keyed by
(seed, t) so toggling the cache never shifts noise alignment between runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .cache import CacheContext, CacheSchedule, DispatchEvent
from .model import Conditioning, FeatureMatrix, Model, Workspace

SAMPLERS = ("ddpm", "ddim")


@dataclass
class NoiseSchedule:
    """Per-step variances beta_t and the derived alpha / alpha-bar products.

    Index convention: t runs 1..T, stored arrays are 0-based, so beta(t) =
    betas[t-1]. alpha_bar(0) is defined as 1 (the clean-data endpoint).
    """

    betas: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.betas, dtype=np.float64)
        if b.ndim != 1 or b.size < 1:
            raise ValueError("betas must be a non-empty vector")
        if np.any(b <= 0.0) or np.any(b >= 1.0):
            raise ValueError("every beta must lie in (0, 1)")
        self.betas = b
        self.alphas = 1.0 - b
        self.alpha_bars = np.cumprod(self.alphas)

    @classmethod
    def linear(cls, total_steps: int, beta_start: float = 1e-4, beta_end: float = 2e-2):
        if total_steps < 1:
            raise ValueError("total_steps must be >= 1")
        if total_steps == 1:
            return cls(np.array([beta_start]))
        return cls(np.linspace(beta_start, beta_end, total_steps))

    @property
    def total_steps(self) -> int:
        return self.betas.size

    def beta(self, t: int) -> float:
        self._check_t(t)
        return float(self.betas[t - 1])

    def alpha(self, t: int) -> float:
        self._check_t(t)
        return float(self.alphas[t - 1])

    def alpha_bar(self, t: int) -> float:
        if t == 0:
            return 1.0
        self._check_t(t)
        return float(self.alpha_bars[t - 1])

    def _check_t(self, t: int) -> None:
        if not 1 <= t <= self.total_steps:
            raise ValueError(f"t must be in [1, {self.total_steps}], got {t}")


def ddpm_step(
    x_t: np.ndarray, eps_hat: np.ndarray, t: int, schedule: NoiseSchedule, seed: int = 0
) -> np.ndarray:
    """One ancestral denoising step.

    x_{t-1} = (x_t - (1-alpha_t)/sqrt(1-abar_t) * eps_hat) / sqrt(alpha_t)
              + sqrt(beta_t) * z
    with z ~ N(0, I) drawn from the (seed, t) stream, and z = 0 at t = 1.
    """
    x_t = np.asarray(x_t, dtype=np.float64)
    eps_hat = np.asarray(eps_hat, dtype=np.float64)
    if x_t.shape != eps_hat.shape:
        raise ValueError("x_t and eps_hat must share a shape")
    a = schedule.alpha(t)
    abar = schedule.alpha_bar(t)
    if abar >= 1.0:
        raise ValueError("alpha_bar(t) = 1 makes the noise coefficient singular")
    # in place, bitwise (x_t - c * eps_hat) / sqrt(a) + sqrt(beta) * z
    mean = np.multiply((1.0 - a) / np.sqrt(1.0 - abar), eps_hat)
    np.subtract(x_t, mean, out=mean)
    mean /= np.sqrt(a)
    if t == 1:
        return mean
    seq = np.random.SeedSequence((seed, t))
    mean += linalg.gaussian(x_t.shape, np.sqrt(schedule.beta(t)), seq)
    return mean


def ddim_step(
    x_t: np.ndarray, eps_hat: np.ndarray, t: int, schedule: NoiseSchedule
) -> np.ndarray:
    """One deterministic step via the predicted clean sample.

    x0 = (x_t - sqrt(1-abar_t) eps_hat) / sqrt(abar_t), then
    x_{t-1} = sqrt(abar_{t-1}) x0 + sqrt(1-abar_{t-1}) eps_hat.
    """
    x_t = np.asarray(x_t, dtype=np.float64)
    eps_hat = np.asarray(eps_hat, dtype=np.float64)
    if x_t.shape != eps_hat.shape:
        raise ValueError("x_t and eps_hat must share a shape")
    abar_t = schedule.alpha_bar(t)
    abar_prev = schedule.alpha_bar(t - 1)
    x0 = (x_t - np.sqrt(1.0 - abar_t) * eps_hat) / np.sqrt(abar_t)
    return np.sqrt(abar_prev) * x0 + np.sqrt(1.0 - abar_prev) * eps_hat


def cfg_combine(eps_uncond: np.ndarray, eps_cond: np.ndarray, w: float) -> np.ndarray:
    """Guidance blend eps_u + w (eps_c - eps_u); w=0 unconditional, w=1 conditional."""
    eps_uncond = np.asarray(eps_uncond, dtype=np.float64)
    eps_cond = np.asarray(eps_cond, dtype=np.float64)
    if eps_uncond.shape != eps_cond.shape:
        raise ValueError("guidance halves must share a shape")
    return eps_uncond + w * (eps_cond - eps_uncond)


@dataclass
class RunStats:
    """Everything a generation leaves behind besides the sample itself."""

    total_steps: int
    fresh_steps: list[int] = field(default_factory=list)
    events: list[DispatchEvent] = field(default_factory=list)
    cache_counts: np.ndarray | None = None
    eps_history: list[np.ndarray] | None = None
    mask_log: list | None = None

    @property
    def computed_tokens(self) -> int:
        return sum(e.computed for e in self.events)

    @property
    def cached_tokens(self) -> int:
        return sum(e.cached for e in self.events)


def run_generation(
    model: Model,
    cond: Conditioning,
    schedule: NoiseSchedule,
    cache_schedule: CacheSchedule | None = None,
    seed: int = 0,
    sampler: str = "ddpm",
    guidance: float | None = None,
    collect_eps: bool = False,
    record_masks: bool = False,
    step_hook=None,
    site_hook=None,
) -> tuple[FeatureMatrix, RunStats]:
    """Run the full reverse trajectory and return (x0, stats).

    The denoising loop visits t = T..1 (step index s = t - T counts up from
    0). A schedule that can never cache (R = 0, or none at all) runs the
    plain uncached forward; otherwise every module application routes through
    one CacheContext shared across the whole trajectory. With guidance w the
    model runs a two-stream batch [unconditional, conditional] in lockstep
    and blends the halves.

    step_hook, when given, is called as step_hook(step, t, x_t, halves) with
    the pre-update sample and the per-half noise predictions (a list of
    FeatureMatrix); handy for trajectory diagnostics. site_hook, when given,
    is passed to every Model.forward_batch call: it sees the live per-half
    residual streams right before every module, head included, and may edit
    them. They are reused buffers, so it copies what it keeps. One Workspace
    serves every step, so steps reuse the forward's buffers. Under guidance,
    module calls large enough to pass model.split_halves run the conditional
    half on the model's worker thread (see Model.forward_batch); the blend
    and the sampler step stay on this thread, and hooks run here too.
    """
    if sampler not in SAMPLERS:
        raise ValueError(f"sampler must be one of {SAMPLERS}")
    cfg = model.config
    cond.validate_for(cfg)
    total = schedule.total_steps

    use_cache = cache_schedule is not None and not cache_schedule.is_noop
    batch = 2 if guidance is not None else 1
    ctx = None
    if use_cache:
        ctx = CacheContext(
            cache_schedule, cfg, total, batch=batch, record_masks=record_masks
        )

    x = linalg.gaussian(
        (cfg.n_tokens, cfg.hidden), 1.0, np.random.SeedSequence((seed, 0))
    )
    conds = [Conditioning.null_for(cfg), cond] if guidance is not None else [cond]

    ws = Workspace()
    eps_history: list[np.ndarray] | None = [] if collect_eps else None
    for step in range(total):
        t = total - step
        if ctx is not None:
            ctx.begin_step(step)
        xm = FeatureMatrix(x, cfg.grid)
        halves = model.forward_batch(
            [xm] * batch, float(t), conds, cache_ctx=ctx, ws=ws, site_hook=site_hook
        )
        if guidance is not None:
            eps = cfg_combine(halves[0].values, halves[1].values, guidance)
        else:
            eps = halves[0].values
        if step_hook is not None:
            step_hook(step, t, xm, halves)
        if eps_history is not None:
            eps_history.append(eps.copy())
        if sampler == "ddpm":
            x = ddpm_step(x, eps, t, schedule, seed=seed)
        else:
            x = ddim_step(x, eps, t, schedule)

    stats = RunStats(
        total_steps=total,
        fresh_steps=list(ctx.fresh_steps) if ctx is not None else list(range(total)),
        events=list(ctx.events) if ctx is not None else [],
        cache_counts=ctx.cache_counts.copy() if ctx is not None else None,
        eps_history=eps_history,
        mask_log=ctx.mask_log if ctx is not None else None,
    )
    return FeatureMatrix(x, cfg.grid), stats
