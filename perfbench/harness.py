"""Workloads, the closed generation loop, correctness gates and metrics.

The benchmark drives the package only through the calls `toca sample`
makes: `parse_config_string` -> `init_model` -> `Conditioning.random_*` ->
`run_generation`. One process runs one workload as a closed loop with one
client: generations run back to back, each with the next seed derived from
the workload seed, until the measuring time is used up.

Import this module only after the BLAS thread count is pinned (see run.py):
it imports NumPy.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np

import toca.config
import toca.model
from toca.flops import estimate_run_flops, flops_cross_attention, flops_mlp, flops_self_attention
from toca.model import KIND_FINAL, Conditioning
from toca.sampler import NoiseSchedule, run_generation

from tracer import ROOT, Tracer
from workloads import END_TO_END, PER_LAYER, STEPS, Workload

RELERR_REFS = 3  # same-seed uncached references per traced run, outside the timed loop
KEEP_X0 = 50  # x0 kept per run for the replay, reference and traced comparisons
TRACED_SETUP_REPS = 9
SETUP_GEN = -1  # generation id of the traced set-up spans
P90_MIN_SAMPLES = 100  # at least ten samples beyond the 90th percentile


# Span name -> the per-layer self-time metric it feeds. Every span recorded
# inside a generation maps here, so these metrics plus trace.unattributed_s
# (the root's self time) add up to trace.gen_s.
SELF_TIME_METRIC = {
    "forward_batch": "model.forward_batch.self_s",
    "layer_norm_rows": "model.layer_norm.s",
    "self_attention_forward": "model.self_attn.s",
    "cross_attention_forward": "model.cross_attn.s",
    "mlp_forward": "model.mlp.s",
    "softmax_rows": "linalg.softmax.s",
    "__init__": "cache.init.s",
    "dispatch": "cache.dispatch.self_s",
    "apply_spatial_boost": "cache.boost.s",
    "select_compute_set": "cache.select.s",
    "score_s2": "cache.score.s",
    "score_s3": "cache.score.s",
    "cached_layer_apply": "cache.splice.s",
    "cache_update": "cache.update.s",
    "ddpm_step": "sampler.update.s",
    "ddim_step": "sampler.update.s",
    "cfg_combine": "sampler.cfg.s",
    ROOT: "trace.unattributed_s",
}
CACHE_ENGINE = (
    "cache.init.s", "cache.dispatch.self_s", "cache.boost.s", "cache.select.s",
    "cache.score.s", "cache.splice.s", "cache.update.s",
)
MODEL_KERNELS = ("model.self_attn.s", "model.cross_attn.s", "model.mlp.s", "linalg.softmax.s")


# -- correctness gates -----------------------------------------------------


def gate_x0(x0: np.ndarray) -> list[str]:
    """A generation's x0 must be finite everywhere."""
    if not np.all(np.isfinite(x0)):
        return [f"x0 has {int(np.size(x0) - np.isfinite(x0).sum())} non-finite values"]
    return []


def gate_identical(a: np.ndarray, b: np.ndarray, what: str) -> list[str]:
    """Two runs of the same seed must agree bit for bit."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape or a.dtype != b.dtype or a.tobytes() != b.tobytes():
        return [f"{what} is not bitwise identical"]
    return []


def gate_events(events, n_tokens: int, cached: bool) -> list[str]:
    """Every dispatch covers all tokens; an uncached run dispatches nothing."""
    if not cached:
        return [f"uncached run logged {len(events)} cache events"] if events else []
    bad = [e for e in events if e.computed + e.cached != n_tokens]
    return [f"{len(bad)} dispatches with computed + cached != {n_tokens}"] if bad else []


def gate_fresh_flops(step_flops, fresh_steps, expected: int) -> list[str]:
    """Executed FLOPs of each fresh step equal the closed forms exactly."""
    bad = [s for s in fresh_steps if step_flops[s] != expected]
    return [f"fresh steps {bad} executed FLOPs != closed form {expected}"] if bad else []


class Gates:
    """Counts attempted generations and the ones that failed a gate."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, problems: list[str], what: str) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"FAIL {what}: {p}", file=sys.stderr)
        return not problems

    def run(self, what: str, fn, *args):
        """Call a generation; a raise counts as an attempted, failed one."""
        try:
            return fn(*args)
        except Exception:  # a failed generation is a result, not a crash
            traceback.print_exc()
            self.record(["raised"], what)
            return None


# -- environment -----------------------------------------------------------


def cores() -> int:
    return len(os.sched_getaffinity(0))


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted((root / "src" / "toca").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def environment(root: Path, blas_threads: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "python": platform.python_version(),
        "nproc": cores(),
        "git_commit": git_commit(root),
        "src_sha256": source_digest(root),
    }


# -- running ---------------------------------------------------------------


def seed_stream(workload_seed: int):
    """Model seed first, then one seed per generation, all from the workload seed."""
    i = 0
    while True:
        yield int(np.random.SeedSequence((workload_seed, i)).generate_state(1)[0])
        i += 1


class Bench:
    """One workload in one process: set-up, closed loop, gates, metrics."""

    def __init__(self, workload: Workload, seed: int, seconds: float, trace_dir: Path | None):
        """trace_dir, when given, turns on the traced run and receives its spans."""
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.trace_dir = trace_dir
        self.seeds = seed_stream(seed)
        self.config_text = workload.config_text(next(self.seeds))
        self.gates = Gates()

    def setup(self):
        """Config parse plus model build: what a process pays before its first generation."""
        rc = toca.config.parse_config_string(self.config_text)
        return rc, toca.model.init_model(rc.model, seed=rc.init_seed)

    def time_setup(self) -> float:
        t0 = perf_counter()
        self.setup()
        return perf_counter() - t0

    @property
    def cached(self) -> bool:
        return not self.rc.cache.is_noop

    @property
    def batch(self) -> int:
        return 1 if self.rc.guidance is None else 2

    def generate(self, seed: int, cached: bool = True, step_hook=None):
        cfg = self.rc.model
        cond = (
            Conditioning.random_text(cfg, seed) if cfg.text_tokens > 0
            else Conditioning.random_class(cfg, seed)
        )
        return run_generation(
            self.model, cond, self.ns,
            cache_schedule=self.rc.cache if cached else None,
            seed=seed, sampler=self.rc.sampler, guidance=self.rc.guidance,
            step_hook=step_hook,
        )

    def closed_loop(self, seconds: float):
        """Generations back to back for `seconds`; returns seeds, walls, x0s, loop time.

        After each generation, and left out of the loop time, its output is
        gated and the set-up is repeated once, so that the set-up times sample
        the same stretch of machine time as the generations.
        """
        n_tokens = self.rc.model.n_tokens
        seeds, walls, x0s = [], [], {}
        aside_s = 0.0
        t0 = perf_counter()
        while perf_counter() - t0 - aside_s < seconds:
            seed = next(self.seeds)
            a = perf_counter()
            out = self.gates.run(f"generation {seed}", self.generate, seed)
            g0 = perf_counter()
            wall = g0 - a
            if out is not None and self.gates.record(
                gate_x0(out[0].values) + gate_events(out[1].events, n_tokens, self.cached),
                f"generation {seed}",
            ):
                seeds.append(seed)
                walls.append(wall)
                if len(x0s) < KEEP_X0:
                    x0s[seed] = out[0].values
            self.setup_times.append(self.time_setup())
            aside_s += perf_counter() - g0
        return seeds, walls, x0s, perf_counter() - t0 - aside_s

    def replay(self, seeds, x0s) -> None:
        """Replay the first timed seed; it must reproduce x0 bit for bit."""
        if seeds:
            out = self.gates.run("replay", self.generate, seeds[0])
            if out is not None:
                problems = gate_identical(out[0].values, x0s[seeds[0]], "replay x0")
                self.gates.record(problems, "replay")

    def references(self, seeds, x0s):
        """Same-seed uncached references, outside the timed loop.

        Returns (x0 relative errors, reference walls). An uncached workload's
        reference is a replay, so it is also checked bitwise.
        """
        relerrs, walls = [], []
        for seed in seeds[:RELERR_REFS]:
            a = perf_counter()
            out = self.gates.run(f"reference {seed}", self.generate, seed, False)
            if out is None:
                continue
            walls.append(perf_counter() - a)
            ref = out[0].values
            problems = gate_x0(ref)
            if not self.cached:
                problems += gate_identical(ref, x0s[seed], "replay x0")
            self.gates.record(problems, f"reference {seed}")
            relerrs.append(float(np.linalg.norm(x0s[seed] - ref) / np.linalg.norm(ref)))
        return relerrs, walls

    def run(self) -> dict:
        t0 = perf_counter()
        self.rc, self.model = self.setup()
        self.setup_times = [perf_counter() - t0]
        self.ns = NoiseSchedule.linear(self.rc.steps, self.rc.beta_start, self.rc.beta_end)
        warm = self.gates.run("warm-up", self.generate, next(self.seeds))
        if warm is not None:
            self.gates.record(gate_x0(warm[0].values), "warm-up")
        loop_s = self.seconds / 2 if self.trace_dir else self.seconds
        seeds, walls, x0s, elapsed = self.closed_loop(loop_s)
        self.replay(seeds, x0s)
        nan = float("nan")
        res = {
            "n": len(walls),
            "samples_per_s": len(walls) / elapsed,
            "gen_s.min": min(walls, default=nan),
            "gen_s.p50": statistics.median(walls) if walls else nan,
            "setup_s": min(self.setup_times),
            "setup_s.p50": statistics.median(self.setup_times),
            "setup_reps": len(self.setup_times),
        }
        if len(walls) >= P90_MIN_SAMPLES:
            res["gen_s.p90"] = statistics.quantiles(walls, n=10)[8]
        if self.trace_dir:
            relerrs, ref_walls = self.references(seeds, x0s)
            res["x0_relerr"] = statistics.median(relerrs) if relerrs else nan
            res["ref_s.p50"] = statistics.median(ref_walls) if ref_walls else nan
            res["layers"] = self.traced(seeds, x0s, res)
        res["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return res

    def result(self, res: dict) -> dict:
        """The result line: gate counts and every metric of this run's kind."""
        names, values = (PER_LAYER, res["layers"]) if self.trace_dir else (END_TO_END, res)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in names}
        return {
            "correct": self.gates.failed == 0
            and all(math.isfinite(m["value"]) for m in metrics.values()),
            "attempted": self.gates.attempted,
            "failed": self.gates.failed,
            "metrics": metrics,
        }

    # -- traced run --------------------------------------------------------

    def traced(self, seeds, x0s, res) -> dict:
        """Re-run kept seeds under the tracer and derive the per-layer metrics."""
        tracer = Tracer()
        with tracer.installed():
            tracer.gen = SETUP_GEN
            for _ in range(TRACED_SETUP_REPS):
                self.setup()
            setup = tracer.aggregate([SETUP_GEN])
            gens, steps, events = [], [], []
            t0 = perf_counter()
            for i, seed in enumerate(s for s in seeds if s in x0s):
                if i and perf_counter() - t0 >= self.seconds / 2:
                    break
                out, st = self.traced_generation(tracer, i, seed)
                if out is None:
                    continue
                gens.append(i)
                steps.append(st)
                events.extend(out[1].events)
                self.gates.record(
                    gate_identical(out[0].values, x0s[seed], "traced x0")
                    + gate_fresh_flops(st["flops"], out[1].fresh_steps, self.fresh_step_flops()),
                    f"traced generation {seed}",
                )
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(self.trace_dir / f"{self.w.name}-seed{self.seed}.csv.gz")
        return self.layer_metrics(tracer, gens, steps, events, setup, res)

    def traced_generation(self, tracer: Tracer, gen: int, seed: int):
        st = {"t_ns": [], "flops": []}
        marks = {"t": 0, "flops": 0}

        def hook(step, t, x_t, halves):
            now = perf_counter_ns()
            st["t_ns"].append(now - marks["t"])
            st["flops"].append(tracer.flops - marks["flops"])
            marks["t"], marks["flops"] = now, tracer.flops

        tracer.live_context = None
        tracer.gen = gen
        with tracer.span(ROOT):
            marks["t"], marks["flops"] = perf_counter_ns(), tracer.flops
            out = self.gates.run(f"traced generation {seed}", self.generate, seed, True, hook)
        if out is None:
            return None, st
        st["fresh"] = set(out[1].fresh_steps)
        st["flops_total"] = sum(st["flops"]) + self.final_projection_flops(out[1])
        st["slot_bytes"] = slot_bytes(tracer.live_context)
        return out, st

    def fresh_step_flops(self) -> int:
        """Closed-form FLOPs of one fully computed forward of the whole batch."""
        c = self.rc.model
        n, d, h = c.n_tokens, c.hidden, c.heads
        per_layer = flops_self_attention(n, d, h) + flops_mlp(n, d)
        if c.text_tokens > 0:
            per_layer += flops_cross_attention(n, c.text_tokens, d, h)
        return self.batch * c.depth * per_layer

    def final_projection_flops(self, stats) -> int:
        """2*m*D^2 per final-projection dispatch (m computed rows, per batch member)."""
        c = self.rc.model
        if not self.cached:
            return stats.total_steps * self.batch * 2 * c.n_tokens * c.hidden**2
        return sum(
            self.batch * 2 * e.computed * c.hidden**2 for e in stats.events if e.kind == KIND_FINAL
        )

    def layer_metrics(self, tracer, gens, steps, events, setup, res) -> dict:
        c = self.rc.model
        n_gen = max(len(gens), 1)
        agg = tracer.aggregate(gens)
        out = {name: 0.0 for name, _ in PER_LAYER}

        def per_gen(v):
            return v / n_gen

        out["config.parse_s"] = setup["parse_config_string"].incl_ns / 1e9 / TRACED_SETUP_REPS
        out["model.init_s"] = setup["init_model"].incl_ns / 1e9 / TRACED_SETUP_REPS
        for name, a in agg.items():
            out[SELF_TIME_METRIC[name]] += per_gen(a.self_ns / 1e9)
        for kind, span in (
            ("self_attn", "self_attention_forward"),
            ("cross_attn", "cross_attention_forward"),
            ("mlp", "mlp_forward"),
        ):
            a = agg.get(span)
            if a is None:
                continue
            out[f"model.{kind}.calls"] = per_gen(a.calls)
            out[f"model.{kind}.rows"] = per_gen(a.attrs["rows"])
            out[f"model.{kind}.flops"] = per_gen(a.attrs["flops"])
            out[f"model.{kind}.gflops_s"] = a.attrs["flops"] / a.incl_ns
            out["model.attn_map_bytes"] += per_gen(a.attrs.get("map_bytes", 0))
        if "layer_norm_rows" in agg:
            out["model.layer_norm.rows"] = per_gen(agg["layer_norm_rows"].attrs["rows"])
        if "softmax_rows" in agg:
            out["linalg.softmax.calls"] = per_gen(agg["softmax_rows"].calls)
            out["linalg.softmax.elements"] = per_gen(agg["softmax_rows"].attrs["elements"])

        n = c.n_tokens
        out["cache.dispatch.fresh"] = per_gen(sum(e.computed == n for e in events))
        out["cache.dispatch.partial"] = per_gen(sum(0 < e.computed < n for e in events))
        out["cache.dispatch.reuse"] = per_gen(sum(e.computed == 0 for e in events))
        computed = self.batch * sum(e.computed for e in events)
        cached = self.batch * sum(e.cached for e in events)
        out["cache.tokens_computed"] = per_gen(computed)
        out["cache.tokens_cached"] = per_gen(cached)
        out["cache.hit_frac"] = cached / (cached + computed) if events else 0.0
        engine = sum(out[k] for k in CACHE_ENGINE)
        kernels = sum(out[k] for k in MODEL_KERNELS)
        out["cache.overhead_share"] = engine / kernels if kernels else 0.0
        out["cache.slot_bytes"] = statistics.fmean(s["slot_bytes"] for s in steps) if steps else 0.0

        fresh_t, cached_t = [], []
        for st in steps:
            for s, dt in enumerate(st["t_ns"]):
                (fresh_t if s in st["fresh"] else cached_t).append(dt / 1e9)
        out["sampler.fresh_step_s"] = statistics.fmean(fresh_t) if fresh_t else 0.0
        out["sampler.cached_step_s"] = statistics.fmean(cached_t) if cached_t else 0.0

        report = estimate_run_flops(
            c.depth, c.hidden, c.heads, n, c.text_tokens, STEPS,
            self.rc.guidance is not None, self.rc.cache,
        )
        out["flops.analytic_baseline"] = report.baseline_flops
        out["flops.analytic_cached"] = report.cached_flops
        out["flops.executed"] = statistics.fmean(s["flops_total"] for s in steps) if steps else 0.0
        uncached = STEPS * (self.fresh_step_flops() + self.batch * 2 * n * c.hidden**2)
        out["speedup.analytic"] = report.speedup
        out["speedup.executed"] = uncached / out["flops.executed"] if steps else 0.0
        out["speedup.wall"] = res["ref_s.p50"] / res["gen_s.p50"]
        out["x0_relerr"] = res["x0_relerr"]

        traced_gens = set(gens)
        roots = [
            sp.duration / 1e9 for sp in tracer.spans if sp.name == ROOT and sp.gen in traced_gens
        ]
        out["trace.gen_s"] = statistics.fmean(roots) if roots else 0.0
        out["cache.wall_share"] = engine / out["trace.gen_s"] if roots else 0.0
        traced_p50 = statistics.median(roots) if roots else float("nan")
        out["trace.overhead_frac"] = (traced_p50 - res["gen_s.p50"]) / res["gen_s.p50"]
        return out


def slot_bytes(ctx) -> int:
    """Bytes the cache context holds in slots, counters and score aggregates."""
    if ctx is None:
        return 0
    total = 0
    for store in ctx.stores:
        for table in (store.values, store.counters, store.attn_influence, store.cross_entropy):
            total += sum(a.nbytes for a in table.values())
    return total

