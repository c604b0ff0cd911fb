"""Diagnostics behind the caching design, at desk scale.

Three experiments: how much per-token features move between adjacent
denoising steps (the redundancy caching exploits), how far a perturbation of
one token's features spreads by the final output (the risk caching takes),
and which tokens actually get cached over a run (frequency maps).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .config import SCALE_LIMIT
from .model import KIND_FINAL, KIND_SELF, KINDS, Conditioning, FeatureMatrix, Model
from .sampler import NoiseSchedule, RunStats, run_generation


def row_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row Euclidean distance between two equally shaped feature arrays."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("feature arrays must share a shape")
    return np.linalg.norm(a - b, axis=-1)


@dataclass
class RedundancyProfile:
    """Per-token feature drift between adjacent steps, for chosen layers.

    distances[k, s, i] is the distance between layer layers[k]'s output row i
    at trajectory steps s and s+1, so each layer contributes N*(T-1) numbers.
    """

    layers: list[int]
    distances: np.ndarray  # (len(layers), T-1, N)

    @property
    def per_layer_mean(self) -> np.ndarray:
        """Mean over tokens: one curve of length T-1 per layer."""
        return self.distances.mean(axis=2)

    @property
    def n_steps(self) -> int:
        return self.distances.shape[1] + 1

    @property
    def n_tokens(self) -> int:
        return self.distances.shape[2]


def measure_temporal_redundancy(
    model: Model,
    cond: Conditioning,
    schedule: NoiseSchedule,
    layers: list[int] | None = None,
    seed: int = 0,
    sampler: str = "ddpm",
) -> RedundancyProfile:
    """Track layer outputs along an uncached trajectory and diff adjacent steps.

    Layer l's output at a step is the residual stream as it enters layer
    l + 1's first module (or the head, for the last layer), which a site hook
    copies out of that step's forward. Caching is disabled; this measures
    the trajectory caching would be approximating.
    """
    cfg = model.config
    if layers is None:
        layers = list(range(cfg.depth))
    for l in layers:
        if not 0 <= l < cfg.depth:
            raise ValueError(f"layer {l} out of range")

    wanted = set(layers)
    per_step: list[np.ndarray] = []
    after: dict[int, np.ndarray] = {}

    def site_hook(layer, kind, streams):
        if kind in (KIND_SELF, KIND_FINAL) and layer - 1 in wanted:
            after[layer - 1] = streams[0].copy()
        if kind == KIND_FINAL:
            per_step.append(np.stack([after[l] for l in layers]))

    run_generation(
        model, cond, schedule, cache_schedule=None, seed=seed, sampler=sampler,
        site_hook=site_hook,
    )

    total = schedule.total_steps
    dist = np.zeros((len(layers), max(total - 1, 0), cfg.n_tokens))
    for s in range(total - 1):
        dist[:, s, :] = row_distances(per_step[s + 1], per_step[s])
    return RedundancyProfile(layers=list(layers), distances=dist)


@dataclass
class PropagationProfile:
    """Final-output error per token after perturbing one token mid-network."""

    layer: int
    kind: str
    token: int
    sigma: float  # the std actually applied, after any relative scaling
    errors: np.ndarray  # (N,)
    normalized: bool = False


def measure_error_propagation(
    model: Model,
    x: FeatureMatrix,
    t: float,
    cond: Conditioning,
    layer: int,
    kind: str,
    token: int,
    sigma: float,
    seed: int = 0,
    relative: bool = False,
    normalize: bool = False,
) -> PropagationProfile:
    """Perturb one token's features at one site and diff the two forwards.

    The perturbation is Gaussian noise of std sigma added to the chosen
    token's row of the residual stream entering (layer, kind). With
    relative=True, sigma is first scaled by that row's norm, so 0.5 means
    "half the token's own magnitude". normalize divides the reported errors
    by the clean run's mean output row norm. sigma must lie in
    [0, config.SCALE_LIMIT], the bound ``[analyze] sigma`` has: far above
    it the perturbed row's squares overflow and the errors read nan.
    """
    if not 0 <= sigma <= SCALE_LIMIT:
        raise ValueError(f"sigma must be in [0, {SCALE_LIMIT:g}], got {sigma}")
    cfg = model.config
    if (layer, kind) not in cfg.sites:
        raise ValueError(f"no module at layer {layer} kind {kind!r}")
    if not 0 <= token < cfg.n_tokens:
        raise ValueError(f"token {token} not in [0, {cfg.n_tokens})")

    def at_site(edit):
        """A site hook that hands stream 0 entering (layer, kind) to ``edit``."""
        def hook(l, k, streams):
            if (l, k) == (layer, kind):
                edit(streams[0])
        return hook

    norms = []
    read_norm = at_site(lambda stream: norms.append(float(np.linalg.norm(stream[token]))))
    eps_clean = model.forward(x, float(t), cond, site_hook=read_norm if relative else None)

    sigma_used = float(sigma)
    if relative:
        sigma_used *= norms[0]
    kind_idx = KINDS.index(kind)
    delta = linalg.gaussian(
        (cfg.hidden,), sigma_used, np.random.SeedSequence((seed, layer, kind_idx, token))
    )

    def inject(stream):
        stream[token] += delta

    eps_pert = model.forward(x, float(t), cond, site_hook=at_site(inject))

    errors = row_distances(eps_pert.values, eps_clean.values)
    if normalize:
        denom = float(np.mean(np.linalg.norm(eps_clean.values, axis=1)))
        if denom == 0.0:
            raise ValueError("clean output is all zero, nothing to normalize by")
        errors = errors / denom
    return PropagationProfile(
        layer=layer, kind=kind, token=token, sigma=sigma_used,
        errors=errors, normalized=normalize,
    )


@dataclass
class FrequencyMap:
    """How many times each spatial token was served from the cache."""

    counts: np.ndarray  # (H, W) integer grid

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def to_pgm(self, comment: str | None = None) -> bytes:
        """Render as a binary PGM; more-cached tokens print darker."""
        h, w = self.counts.shape
        mx = int(self.counts.max())
        if mx > 0:
            scaled = np.round(self.counts / mx * 255.0)
        else:
            scaled = np.zeros((h, w))
        pixels = (255 - scaled).astype(np.uint8)
        header = b"P5\n"
        if comment:
            header += b"# " + comment.encode("ascii") + b"\n"
        header += f"{w} {h}\n255\n".encode("ascii")
        return header + pixels.tobytes()


def build_cache_frequency_map(stats: RunStats, grid: tuple[int, int]) -> FrequencyMap:
    """Fold member 0's per-token cache counts onto the spatial grid.

    Member 0 is the run's only stream, or the unconditional half under guidance.
    """
    if stats.cache_counts is None:
        raise ValueError("stats carry no cache counts (run had caching disabled)")
    h, w = grid
    counts = stats.cache_counts[0]
    if counts.size != h * w:
        raise ValueError(f"{counts.size} counts do not fill a {h}x{w} grid")
    return FrequencyMap(counts=counts.reshape(h, w).copy())
