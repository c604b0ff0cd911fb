"""The benchmark's workloads and metric names, as plain data.

Kept free of NumPy so that run.py can validate its arguments and pin the
BLAS thread count before anything imports NumPy.
"""

from __future__ import annotations

from dataclasses import dataclass

STEPS = 20


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    depth: int
    hidden: int
    heads: int
    grid: int
    text_tokens: int
    profile: str
    sampler: str
    guidance: float | None

    def config_text(self, init_seed: int) -> str:
        guidance = "none" if self.guidance is None else repr(self.guidance)
        return (
            "[model]\n"
            f"depth = {self.depth}\nhidden = {self.hidden}\nheads = {self.heads}\n"
            f"grid_h = {self.grid}\ngrid_w = {self.grid}\n"
            f"text_tokens = {self.text_tokens}\ninit_seed = {init_seed}\n"
            "[sampler]\n"
            f"steps = {STEPS}\nkind = {self.sampler}\nguidance = {guidance}\n"
            "[cache]\n"
            f"profile = {self.profile}\n"
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mid-off",
            "cache bypassed: dense attention, softmax and MLP kernels do all the work",
            8, 128, 8, 16, 0, "off", "ddpm", None,
        ),
        Workload(
            "mid-pixart-cfg",
            "guided two-stream batch with cross-attention, DDIM and partial dispatches",
            8, 128, 8, 16, 16, "toca-pixart", "ddim", 4.0,
        ),
        Workload(
            "toy-dit",
            "tiny model, many generations: per-dispatch Python and cache-engine overhead",
            4, 32, 4, 8, 0, "toca-dit", "ddpm", None,
        ),
    )
}

# Used by the self-test only: every layer, cross-attention and guidance on a
# model small enough to run in milliseconds.
SMOKE = Workload("smoke", "self-test", 2, 16, 2, 4, 2, "toca-pixart", "ddim", 2.0)

# (name, unit) of every metric the benchmark reports in its result line.
END_TO_END = [
    ("gen_s.min", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

_KERNELS = ("self_attn", "cross_attn", "mlp")
PER_LAYER = (
    [("config.parse_s", "s"), ("model.init_s", "s")]
    + [
        (f"model.{k}.{suffix}", unit)
        for k in _KERNELS
        for suffix, unit in (
            ("s", "s/gen"), ("calls", "count/gen"), ("rows", "count/gen"),
            ("flops", "flop/gen"), ("gflops_s", "GFLOP/s"),
        )
    ]
    + [
        ("model.layer_norm.s", "s/gen"),
        ("model.layer_norm.rows", "count/gen"),
        ("model.forward_batch.self_s", "s/gen"),
        ("model.attn_map_bytes", "B/gen"),
        ("linalg.softmax.s", "s/gen"),
        ("linalg.softmax.calls", "count/gen"),
        ("linalg.softmax.elements", "count/gen"),
        ("cache.init.s", "s/gen"),
        ("cache.dispatch.self_s", "s/gen"),
        ("cache.boost.s", "s/gen"),
        ("cache.select.s", "s/gen"),
        ("cache.score.s", "s/gen"),
        ("cache.splice.s", "s/gen"),
        ("cache.update.s", "s/gen"),
        ("cache.dispatch.fresh", "count/gen"),
        ("cache.dispatch.partial", "count/gen"),
        ("cache.dispatch.reuse", "count/gen"),
        ("cache.tokens_computed", "count/gen"),
        ("cache.tokens_cached", "count/gen"),
        ("cache.hit_frac", "frac"),
        ("cache.overhead_share", "frac"),
        ("cache.wall_share", "frac"),
        ("cache.slot_bytes", "B"),
        ("sampler.fresh_step_s", "s/step"),
        ("sampler.cached_step_s", "s/step"),
        ("sampler.update.s", "s/gen"),
        ("sampler.cfg.s", "s/gen"),
        ("flops.analytic_baseline", "flop/gen"),
        ("flops.analytic_cached", "flop/gen"),
        ("flops.executed", "flop/gen"),
        ("speedup.analytic", "x"),
        ("speedup.executed", "x"),
        ("speedup.wall", "x"),
        ("x0_relerr", "frac"),
        ("trace.gen_s", "s"),
        ("trace.overhead_frac", "frac"),
        ("trace.unattributed_s", "s/gen"),
    ]
)
