"""Analytic FLOPs model for the toy transformer, plus an instrumented counter.

Cost conventions used throughout:

- one multiply-accumulate = 2 flops, so a matmul (m,k)@(k,n) costs 2*m*k*n
- softmax = 5 flops per element of the attention map
- the MLP activation = 6 flops per element
- sort/argmax overheads use log base 2

Layer norms, residual additions and the attention scaling divide are not
charged; the closed forms price exactly the matrix products, softmaxes and
activations the model executes, which is what the instrumented counter
cross-check verifies.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

FLOPS_PER_MAC = 2
SOFTMAX_FLOPS_PER_ELEMENT = 5
ACTIVATION_FLOPS_PER_ELEMENT = 6


def flops_self_attention(n_tokens: int, hidden: int, heads: int) -> int:
    """Q/K/V/output projections plus per-head map build, softmax and apply.

    Attention of the N tokens against themselves, priced by the general form
    flops_cross_attention(N, N, D, H) = 8*N*D^2 + 4*N^2*D + 5*N^2*H.
    """
    return flops_cross_attention(n_tokens, n_tokens, hidden, heads)


def flops_cross_attention(n_img: int, n_text: int, hidden: int, heads: int) -> int:
    """Image-query / text-key attention: 4*(N1+N2)*D^2 + 4*N1*N2*D + 5*N1*N2*H."""
    n1, n2, d, h = n_img, n_text, hidden, heads
    return 4 * (n1 + n2) * d * d + 4 * n1 * n2 * d + 5 * n1 * n2 * h


def flops_mlp(n_tokens: int, hidden: int) -> int:
    """Two projections through a 4*D hidden layer plus the activation: 16*N*D^2 + 24*N*D."""
    n, d = n_tokens, hidden
    return 16 * n * d * d + 24 * n * d


def flops_selection_overhead(n_tokens: int, grid_size: int) -> float:
    """Per-dispatch cost of computing scores and picking the cached token set.

    Charges N for the attention-influence score, 2N for the entropy score,
    3N for the counter score, N*log2(G^2) + 2N/G^2 for the per-cell argmax
    boost, and N*log2(N) for the global sort.
    """
    n = n_tokens
    g = grid_size
    if n < 1 or g < 1:
        raise ValueError("n_tokens and grid_size must be >= 1")
    s1 = n
    s2 = 2 * n
    s3 = 3 * n
    s4 = n * math.log2(g * g) + 2 * n / (g * g)
    global_sort = n * math.log2(n) if n > 1 else 0.0
    return float(s1 + s2 + s3 + s4 + global_sort)


class FlopCounter:
    """Accumulates flops for the primitive ops the cost model prices."""

    def __init__(self) -> None:
        self.flops = 0

    def matmul(self, m: int, k: int, n: int) -> None:
        self.flops += FLOPS_PER_MAC * m * k * n

    def softmax(self, elements: int) -> None:
        self.flops += SOFTMAX_FLOPS_PER_ELEMENT * elements

    def activation(self, elements: int) -> None:
        self.flops += ACTIVATION_FLOPS_PER_ELEMENT * elements


@dataclass
class FlopsReport:
    """Totals for one generation run under a caching schedule."""

    baseline_flops: float
    cached_flops: float
    overhead_flops: float
    speedup: float
    fresh_steps: int
    total_steps: int
    per_type_baseline: dict[str, float] = field(default_factory=dict)
    per_type_cached: dict[str, float] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return asdict(self)


def _partial_module_cost(kind: str, f: float, n: int, n2: int, d: int, h: int) -> float:
    # f is the computed token fraction. Projection terms (token count * D^2)
    # scale linearly with f; attention-map terms scale quadratically, matching
    # the complexity model the schedule is tuned against.
    if f <= 0.0:
        return 0.0
    if kind == "self_attn":
        return f * (8 * n * d * d) + f * f * (4 * n * n * d + 5 * n * n * h)
    if kind == "cross_attn":
        return f * (4 * (n + n2) * d * d) + f * f * (4 * n * n2 * d + 5 * n * n2 * h)
    if kind == "mlp":
        return f * (16 * n * d * d + 24 * n * d)
    raise ValueError(f"unknown module kind {kind!r}")


def estimate_run_flops(
    depth: int,
    hidden: int,
    heads: int,
    n_tokens: int,
    n_text: int,
    total_steps: int,
    cfg_doubled: bool,
    schedule,
) -> FlopsReport:
    """Price a full generation run analytically.

    Walks the DispatchEvents of the run's dispatch_plan, which the cache
    engine serves: every dispatch except the head pays its computed fraction
    (event.computed / N) of the module cost plus, whenever an actual selection
    runs (event.cached and event.computed both nonzero), the scoring/sort
    overhead. The baseline prices the same dispatches with nothing cached.
    Classifier-free guidance doubles everything.
    """
    from .cache import _cycles, dispatch_plan
    from .model import KIND_FINAL, ModelConfig

    # the plan reads only the token count, so one row of n_tokens serves as grid
    config = ModelConfig(depth, hidden, heads, n_tokens, 1, n_text)
    plan = dispatch_plan(schedule, config, total_steps)
    halves = 2 if cfg_doubled else 1

    baseline = cached = overhead = 0.0
    per_type_baseline: dict[str, float] = {}
    per_type_cached: dict[str, float] = {}
    for row in plan:
        for event in row.values():
            kind = event.kind
            if kind == KIND_FINAL:
                continue
            f = event.computed / n_tokens
            full = halves * _partial_module_cost(kind, 1.0, n_tokens, n_text, hidden, heads)
            cost = halves * _partial_module_cost(kind, f, n_tokens, n_text, hidden, heads)
            baseline += full
            cached += cost
            per_type_baseline[kind] = per_type_baseline.get(kind, 0.0) + full
            per_type_cached[kind] = per_type_cached.get(kind, 0.0) + cost
            if event.cached and event.computed:
                overhead += halves * flops_selection_overhead(n_tokens, schedule.grid_size)

    total = cached + overhead
    return FlopsReport(
        baseline_flops=baseline,
        cached_flops=total,
        overhead_flops=overhead,
        speedup=baseline / total,
        fresh_steps=len(_cycles(schedule, total_steps)[0]),
        total_steps=total_steps,
        per_type_baseline=per_type_baseline,
        per_type_cached=per_type_cached,
    )


def verify_closed_forms(n_tokens: int, hidden: int, heads: int, n_text: int = 0, seed: int = 0) -> dict[str, bool]:
    """Run each module once with a counter attached and compare against the closed forms."""
    from . import linalg, model

    rng_seed = np.random.SeedSequence((seed, 7))
    x = linalg.gaussian((n_tokens, hidden), 1.0, rng_seed)
    rng = np.random.Generator(np.random.PCG64((seed, 11)))
    scale = hidden ** -0.5

    results: dict[str, bool] = {}

    def attn_weights():
        return model.AttnWeights(*(rng.standard_normal((hidden, hidden)) * scale for _ in range(4)))

    counter = FlopCounter()
    model.self_attention_forward(x, attn_weights(), heads, counter=counter)
    results["self_attn"] = counter.flops == flops_self_attention(n_tokens, hidden, heads)

    if n_text > 0:
        text = linalg.gaussian((n_text, hidden), 1.0, np.random.SeedSequence((seed, 13)))
        counter = FlopCounter()
        model.cross_attention_forward(x, text, attn_weights(), heads, counter=counter)
        results["cross_attn"] = counter.flops == flops_cross_attention(
            n_tokens, n_text, hidden, heads
        )

    mlp = model.MlpWeights(
        w1=rng.standard_normal((hidden, 4 * hidden)) * scale,
        w2=rng.standard_normal((4 * hidden, hidden)) * (4 * hidden) ** -0.5,
    )
    counter = FlopCounter()
    model.mlp_forward(x, mlp, counter=counter)
    results["mlp"] = counter.flops == flops_mlp(n_tokens, hidden)
    return results
