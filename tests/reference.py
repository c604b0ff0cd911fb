"""A dense reference sampler: what run_generation should compute, from the public kernels.

It has no Workspace, worker, CacheContext or plan memo. Every module runs on
all N rows. Per (member, site) a slot keeps the module's last output; a
dispatch overwrites the rows it computes and the stream adds the whole slot.
Only the schedule arithmetic (cycle_plan, the ratio and count rules), the
score functions, the boost, the selection and the sampler steps come from
the package, each of which has its own oracle test.
"""

import numpy as np

from toca import linalg
from toca.cache import (
    apply_spatial_boost,
    cache_token_count,
    cycle_plan,
    effective_cache_ratio,
    score_s1,
    score_s2,
    score_s3,
    select_compute_set,
    type_ratio_factors,
)
from toca.model import (
    KIND_CROSS,
    KIND_FINAL,
    KIND_MLP,
    KIND_SELF,
    Conditioning,
    FeatureMatrix,
    cross_attention_forward,
    layer_norm_rows,
    mlp_forward,
    self_attention_forward,
)
from toca.sampler import cfg_combine, ddim_step, ddpm_step


def _module(model, layer, kind, cond, stream):
    """(output, map or None) of one module on every row of the raw stream."""
    if kind == KIND_FINAL:  # the head reads the raw stream
        return stream @ model.out_proj, None
    x, g, heads = layer_norm_rows(stream), model.groups[layer], model.config.heads
    if kind == KIND_SELF:
        return self_attention_forward(x, g.self_attn, heads)
    if kind == KIND_CROSS:
        return cross_attention_forward(x, cond.text, g.cross_attn, heads)
    assert kind == KIND_MLP
    return mlp_forward(x, g.mlp), None


def _score(sched, grid, s1, s2, counters, cycle_len):
    """One member's boosted score: s1 and s2 from the layer's maps, s3 from the counters."""
    base = sched.lam1 * s1 if sched.lam1 > 0 else np.zeros(counters.shape)
    if sched.lam2 > 0 and s2 is not None:
        base = base + sched.lam2 * s2
    if sched.lam3 > 0:
        base = base + sched.lam3 * score_s3(counters, cycle_len)
    return apply_spatial_boost(base, grid, sched.grid_size, sched.lam4)


def reference_generation(model, cond, noise, sched, seed, sampler="ddpm", guidance=None):
    """(x0, every step's eps, cache_counts) of a cached run, computed densely."""
    cfg, total, n = model.config, noise.total_steps, model.config.n_tokens
    fresh = cycle_plan(sched, total)
    bounds = fresh + [total]
    cycle_len = [b - a for a, b in zip(bounds, bounds[1:]) for _ in range(a, b)]
    factors = type_ratio_factors(sched, cfg.hidden, cfg.heads, n, cfg.text_tokens)
    conds = [Conditioning.null_for(cfg), cond] if guidance is not None else [cond]
    members = range(len(conds))
    slots, counters, s1, s2 = {}, {}, {}, {}  # per (member, site), or (member, layer)
    counts = np.zeros((len(conds), n), dtype=np.int64)
    x = linalg.gaussian((n, cfg.hidden), 1.0, np.random.SeedSequence((seed, 0)))
    eps_history = []
    for step in range(total):
        t = total - step
        streams = [model.input_stream(FeatureMatrix(x, cfg.grid), float(t), c) for c in conds]
        for site in cfg.sites:
            layer, kind = site
            r_eff = 0.0 if step in fresh else effective_cache_ratio(
                layer, step, kind, sched, cfg.depth, total, factors
            )
            n_cache = cache_token_count(r_eff, n)
            stats = min(layer, cfg.depth - 1)  # the head scores with the deepest layer's maps
            if 0 < n_cache < n:
                scores = [
                    _score(sched, cfg.grid, s1.get((h, stats)), s2.get((h, stats)),
                           counters[h, site], cycle_len[step])
                    for h in members
                ]
                if sched.cfg_coupled and len(scores) > 1:
                    scores = [np.sum(scores, axis=0)] * len(scores)
                masks = [select_compute_set(score, r_eff) for score in scores]
            for h in members:
                out, attn = _module(model, layer, kind, conds[h], streams[h])
                if n_cache == 0:  # compute all: the only dispatches that refresh the aggregates
                    slots[h, site], counters[h, site] = out.copy(), np.zeros(n, dtype=np.int64)
                    if kind == KIND_SELF:
                        s1[h, layer] = score_s1(attn)
                    elif kind == KIND_CROSS:
                        s2[h, layer] = score_s2(attn)
                else:
                    if n_cache == n:  # reuse all: every counter ages
                        compute, cache = np.arange(0), np.arange(n)
                    else:
                        compute, cache = masks[h].compute_idx, masks[h].cache_idx
                    slots[h, site][compute] = out[compute]
                    counters[h, site][compute] = 0
                    counters[h, site][cache] += 1
                    counts[h][cache] += 1
                if kind != KIND_FINAL:
                    streams[h] = streams[h] + slots[h, site]
        eps = [slots[h, (cfg.depth, KIND_FINAL)] for h in members]
        eps = cfg_combine(eps[0], eps[1], guidance) if guidance is not None else eps[0].copy()
        eps_history.append(eps)
        if sampler == "ddpm":
            x = ddpm_step(x, eps, t, noise, seed=seed)
        else:
            x = ddim_step(x, eps, t, noise)
    return x, eps_history, counts
