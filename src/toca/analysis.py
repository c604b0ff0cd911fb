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
from .model import (
    KIND_FINAL,
    KINDS,
    Conditioning,
    FeatureMatrix,
    Injection,
    Model,
)
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

    Layer l's output at a step is the residual stream after l's whole module
    group, rebuilt from the module outputs a tap copies out of that step's
    forward. Caching is disabled; this measures the trajectory caching would
    be approximating.
    """
    cfg = model.config
    if layers is None:
        layers = list(range(cfg.depth))
    for l in layers:
        if not 0 <= l < cfg.depth:
            raise ValueError(f"layer {l} out of range")

    wanted = set(layers)
    per_step: list[np.ndarray] = []
    outputs = _Recorder()

    def hook(step, t, xm, halves):
        stream = model.input_stream(xm, float(t), cond)
        outs = {}
        k = 0
        for layer in range(cfg.depth):
            for _ in cfg.group_kinds:
                stream = stream + outputs[k]
                k += 1
            if layer in wanted:
                outs[layer] = stream
        per_step.append(np.stack([outs[l] for l in layers]))
        outputs.clear()

    run_generation(
        model, cond, schedule, cache_schedule=None, seed=seed, sampler=sampler,
        step_hook=hook, tap=outputs.tap,
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


class _Recorder(list):
    """Copies of stream 0's block-module outputs, in forward order."""

    def tap(self, layer, kind, outs):
        self.append(outs[0].copy())


def _stream_at_site(model, x, t, cond, outputs, layer, kind):
    """Rebuild the residual stream as it stood entering (layer, kind)."""
    cfg = model.config
    stream = model.input_stream(x, float(t), cond)
    k = 0
    for l in range(cfg.depth):
        for kd in cfg.group_kinds:
            if (l, kd) == (layer, kind):
                return stream
            stream = stream + outputs[k]
            k += 1
    if layer == cfg.depth and kind == KIND_FINAL:
        return stream
    raise ValueError(f"no module at layer {layer} kind {kind!r}")


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
    by the clean run's mean output row norm.
    """
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    cfg = model.config
    outputs = _Recorder()
    eps_clean = model.forward(x, float(t), cond, tap=outputs.tap if relative else None)

    sigma_used = float(sigma)
    if relative:
        stream = _stream_at_site(model, x, t, cond, outputs, layer, kind)
        sigma_used *= float(np.linalg.norm(stream[token]))

    kind_idx = KINDS.index(kind)
    delta = linalg.gaussian(
        (cfg.hidden,), sigma_used, np.random.SeedSequence((seed, layer, kind_idx, token))
    )
    inject = Injection(layer=layer, kind=kind, token=token, delta=delta)
    eps_pert = model.forward(x, float(t), cond, inject=inject)

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


def build_cache_frequency_map(
    stats: RunStats, grid: tuple[int, int], half: int = 0
) -> FrequencyMap:
    """Fold a run's per-token cache counts onto the spatial grid."""
    if stats.cache_counts is None:
        raise ValueError("stats carry no cache counts (run had caching disabled)")
    h, w = grid
    counts = stats.cache_counts[half]
    if counts.size != h * w:
        raise ValueError(f"{counts.size} counts do not fill a {h}x{w} grid")
    return FrequencyMap(counts=counts.reshape(h, w).copy())
