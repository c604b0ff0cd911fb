"""Toy diffusion transformer over an H x W grid of D-dimensional tokens.

Each of the ``depth`` block groups applies pre-normalized self-attention,
optional cross-attention against a fixed set of text tokens, and an MLP, each
with a residual connection (x <- x + module(norm(x))). A final linear
projection maps the token stream to the noise prediction. Every module call,
including the final projection, can be routed through a cache context so that
individual tokens are served from cached outputs instead of being recomputed.

Conditioning is either a set of text tokens (consumed by cross-attention) or a
class embedding added to the stream at the input together with the sinusoidal
timestep embedding.

Every intermediate of a forward (streams, norms, q/k/v, logits, maps, MLP
hidden, module outputs) can live in a ``Workspace`` that the caller keeps for
a whole trajectory, so steady-state steps allocate no (N, D) array per module.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .flops import FlopCounter, flops_cross_attention, flops_mlp

KIND_SELF = "self_attn"
KIND_CROSS = "cross_attn"
KIND_MLP = "mlp"
KIND_FINAL = "final"
# Every module kind in forward order. The order is fixed: the error-propagation
# diagnostic seeds its perturbation with a kind's index in this tuple.
KINDS = (KIND_SELF, KIND_CROSS, KIND_MLP, KIND_FINAL)

WEIGHTS_MAGIC = "TOCA-W1"

# float64 logits one group of attention heads may stack (256 KiB); see _attend
_LOGITS_BUDGET = 32768

# FLOPs one half of a guided module call must execute before the other half
# runs on the worker thread; see split_halves
_SPLIT_FLOPS = 12_000_000


@dataclass(frozen=True)
class ModelConfig:
    depth: int
    hidden: int
    heads: int
    grid_h: int
    grid_w: int
    text_tokens: int = 0
    time_scale: float = 1.0  # 0 makes features time-independent, used by diagnostics

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if self.heads < 1:
            raise ValueError("heads must be >= 1")
        if self.hidden < 1 or self.hidden % self.heads != 0:
            raise ValueError(f"hidden ({self.hidden}) must be a positive multiple of heads ({self.heads})")
        if self.grid_h < 1 or self.grid_w < 1:
            raise ValueError("grid dimensions must be >= 1")
        if self.text_tokens < 0:
            raise ValueError("text_tokens must be >= 0")

    @property
    def n_tokens(self) -> int:
        return self.grid_h * self.grid_w

    @property
    def mlp_hidden(self) -> int:
        return 4 * self.hidden

    @property
    def grid(self) -> tuple[int, int]:
        return (self.grid_h, self.grid_w)

    @property
    def group_kinds(self) -> tuple[str, ...]:
        if self.text_tokens > 0:
            return (KIND_SELF, KIND_CROSS, KIND_MLP)
        return (KIND_SELF, KIND_MLP)

    @cached_property
    def sites(self) -> tuple[tuple[int, str], ...]:
        """Every (layer, kind) module in forward order; the head is (depth, final)."""
        blocks = tuple((layer, kind) for layer in range(self.depth) for kind in self.group_kinds)
        return blocks + ((self.depth, KIND_FINAL),)


@dataclass
class FeatureMatrix:
    """An (N, D) token feature matrix tied to its H x W spatial layout."""

    values: np.ndarray
    grid: tuple[int, int]

    def __post_init__(self):
        self.values = linalg.as_matrix(self.values)
        h, w = self.grid
        if h * w != self.values.shape[0]:
            raise ValueError(f"grid {self.grid} does not cover {self.values.shape[0]} tokens")

    @property
    def n_tokens(self) -> int:
        return self.values.shape[0]

    @property
    def hidden(self) -> int:
        return self.values.shape[1]


@dataclass
class Conditioning:
    """Exactly one of text tokens (N2, D) or a class embedding (D,)."""

    text: np.ndarray | None = None
    class_embedding: np.ndarray | None = None

    def __post_init__(self):
        if (self.text is None) == (self.class_embedding is None):
            raise ValueError("provide exactly one of text or class_embedding")
        if self.text is not None:
            self.text = linalg.as_matrix(self.text)
        else:
            self.class_embedding = np.ascontiguousarray(self.class_embedding, dtype=np.float64)
            if self.class_embedding.ndim != 1:
                raise ValueError("class_embedding must be a 1-D vector")

    def validate_for(self, config: ModelConfig) -> None:
        if config.text_tokens > 0:
            if self.text is None or self.text.shape != (config.text_tokens, config.hidden):
                raise ValueError(
                    f"expected text tokens of shape {(config.text_tokens, config.hidden)}"
                )
        else:
            if self.class_embedding is None or self.class_embedding.shape != (config.hidden,):
                raise ValueError(f"expected a class embedding of shape ({config.hidden},)")

    @classmethod
    def random_text(cls, config: ModelConfig, seed: int) -> "Conditioning":
        if config.text_tokens == 0:
            raise ValueError("model is class-conditional, it has no text tokens")
        text = linalg.gaussian(
            (config.text_tokens, config.hidden), 1.0, np.random.SeedSequence((seed, 1 << 32))
        )
        return cls(text=text)

    @classmethod
    def random_class(cls, config: ModelConfig, seed: int) -> "Conditioning":
        if config.text_tokens > 0:
            raise ValueError("model is text-conditional, use random_text")
        emb = linalg.gaussian((1, config.hidden), 1.0, np.random.SeedSequence((seed, 1 << 32)))
        return cls(class_embedding=emb[0])

    @classmethod
    def null_for(cls, config: ModelConfig) -> "Conditioning":
        """The unconditional branch used by classifier-free guidance."""
        if config.text_tokens > 0:
            return cls(text=np.zeros((config.text_tokens, config.hidden)))
        return cls(class_embedding=np.zeros(config.hidden))


@dataclass
class AttnWeights:
    """Query, key, value and output projections of one attention module."""

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray

    def arrays(self) -> list[np.ndarray]:
        return [self.wq, self.wk, self.wv, self.wo]


@dataclass
class MlpWeights:
    w1: np.ndarray
    w2: np.ndarray

    def arrays(self) -> list[np.ndarray]:
        return [self.w1, self.w2]


@dataclass
class GroupWeights:
    self_attn: AttnWeights
    cross_attn: AttnWeights | None
    mlp: MlpWeights

    def arrays(self) -> list[np.ndarray]:
        out = self.self_attn.arrays()
        if self.cross_attn is not None:
            out += self.cross_attn.arrays()
        return out + self.mlp.arrays()


def timestep_embedding(t: float, dim: int, scale: float = 1.0) -> np.ndarray:
    """Sinusoidal embedding of the diffusion timestep, length ``dim``."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    half = (dim + 1) // 2
    if half > 1:
        freqs = np.exp(-math.log(10000.0) * np.arange(half) / (half - 1))
    else:
        freqs = np.ones(1)
    angles = float(t) * freqs
    emb = np.concatenate([np.sin(angles), np.cos(angles)])[:dim]
    return scale * emb


class Workspace:
    """Named float64 buffers that a forward reuses from call to call.

    ``take(name, m, n)`` returns a C-contiguous (m, n) view of the start of
    the one flat buffer kept under ``name``, allocated on first use and
    regrown only when a call needs more elements than any before it. Every
    shape of a name shares that memory: a 256 x 256 self-attention map and a
    256 x 16 cross-attention map, or the attention logits and the MLP hidden
    layer, which are never live together. The next take of a name overwrites
    what a view holds, so callers copy what they keep. A workspace is used
    by one thread at a time: run_generation builds one per run, and the
    worker thread that runs the second half of a guided call keeps its own
    (see run_halves).
    """

    def __init__(self) -> None:
        self._bufs: dict = {}  # name -> flat buffer
        self._views: dict[tuple, np.ndarray] = {}  # (name, m, n) -> view of it

    def take(self, name, m: int, n: int) -> np.ndarray:
        view = self._views.get((name, m, n))
        if view is None:
            buf = self._bufs.get(name)
            if buf is None or buf.size < m * n:
                if buf is not None:  # views of the dropped buffer would keep it alive
                    self._views = {k: v for k, v in self._views.items() if k[0] != name}
                buf = self._bufs[name] = np.empty(m * n)
            view = self._views[name, m, n] = buf[: m * n].reshape(m, n)
        return view


# The one worker thread that runs the second half of a guided call (an
# executor, started on first use under the lock; see run_halves), and its
# thread-local scratch Workspace
_worker = None
_worker_start = threading.Lock()
_worker_local = threading.local()


def _forget_worker() -> None:
    global _worker, _worker_start
    _worker, _worker_start = None, threading.Lock()


# a forked child has no worker thread; its first split starts a new one
os.register_at_fork(after_in_child=_forget_worker)


def call_flops(config: ModelConfig, kind: str, rows: int) -> int:
    """FLOPs of one module call that computes ``rows`` query rows.

    The count a FlopCounter records for the call. Attention of m query rows
    against n key rows costs what the cross-attention closed form prices;
    self-attention's keys span the N tokens, cross-attention's the text.
    """
    d = config.hidden
    if kind == KIND_MLP:
        return flops_mlp(rows, d)
    if kind == KIND_FINAL:
        return 2 * rows * d * d
    keys = config.n_tokens if kind == KIND_SELF else config.text_tokens
    return flops_cross_attention(rows, keys, d, config.heads)


def split_halves(flops: int) -> bool:
    """Whether a two-member call runs its halves on two threads.

    Only when one half executes at least _SPLIT_FLOPS (call_flops) and the
    process may run on two CPUs (os.sched_getaffinity, which ``taskset``
    restricts). A split costs a thread round trip of about 20 us, and the
    halves share the GIL: the NumPy calls of small modules mostly hold it,
    so only calls whose matrix products release it for long enough gain.
    Measured on a 2-vCPU VM with one BLAS thread, as the median over 40
    interleaved rounds of guided toca-pixart DDIM generations against no
    split: splitting at 8 MFLOP made a 4 x 64 model on 12 x 12 tokens, whose
    largest calls are ~10 MFLOP, 6% slower; at 12 MFLOP an 8 x 128 model on
    16 x 16 ran at 0.69 of its serial time (0.72 at 16 MFLOP), 4 x 96 on
    12 x 12 at 0.94 and 4 x 64 on 16 x 16 at 0.82. Callers ask only for
    batches of two, so a batch-1 run never starts the worker.
    """
    if flops < _SPLIT_FLOPS:
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) > 1
    return (os.cpu_count() or 1) > 1


def run_halves(work) -> None:
    """Run work(1) on the worker thread while work(0) runs on the caller.

    Returns only after both halves have stopped; an error of either half
    then propagates, half 0's first. The worker computes in its own
    Workspace, which ``scratch_for`` hands it.
    """
    global _worker
    with _worker_start:  # callers on several threads still start one worker
        if _worker is None:
            from concurrent.futures import ThreadPoolExecutor

            _worker = ThreadPoolExecutor(1, "toca-half", _start_worker, (_current_cpu(),))
    half1 = _worker.submit(work, 1)
    try:
        work(0)
    except BaseException:
        half1.exception()  # waits for half 1 to stop
        raise
    half1.result()


def _current_cpu() -> int | None:
    """The CPU the calling thread runs on, where /proc tells it."""
    try:
        with open("/proc/thread-self/stat") as fh:
            # field 39; the command name in field 2 may hold spaces
            return int(fh.read().rsplit(")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def _start_worker(caller_cpu: int | None) -> None:
    """Worker initializer: its own scratch, and a start off the caller's CPU.

    On the 2-vCPU VM this was measured on, the kernel often started the
    worker on its creator's CPU and never moved it: both halves then shared
    one CPU while the other idled, and a split ran at 1.0-1.1x the serial
    time. Narrowing the worker's affinity to the other allowed CPUs moves it
    once; restoring the full set right after leaves ``taskset`` limits as
    they were, and the worker kept waking on its own CPU (0.5-0.8x in the
    same state).
    """
    if hasattr(os, "sched_setaffinity"):
        allowed = os.sched_getaffinity(0)
        others = allowed - {caller_cpu}
        try:
            if others and others != allowed:
                os.sched_setaffinity(0, others)
                os.sched_setaffinity(0, allowed)
        except OSError:  # a placement hint only; the worker runs wherever it is
            pass
    _worker_local.ws = Workspace()


def scratch_for(ws: Workspace) -> Workspace:
    """The worker thread's own Workspace on the worker, ``ws`` elsewhere."""
    return getattr(_worker_local, "ws", ws)


def _buffer(ws: Workspace | None, name, m: int, n: int, out=None) -> np.ndarray:
    """``out`` if given, else an (m, n) buffer from ``ws``, else a new array."""
    if out is not None:
        return out
    return np.empty((m, n)) if ws is None else ws.take(name, m, n)


def layer_norm_rows(x: np.ndarray, eps: float = 1e-6, out=None, ws=None) -> np.ndarray:
    """Parameter-free layer norm over the feature axis.

    Bitwise ``(x - x.mean(1)) / sqrt(x.var(1) + eps)``, written into the
    squared deviations (``out``, if given) instead of a third matrix.
    """
    n, d = x.shape
    centred = np.subtract(x, x.sum(axis=1, keepdims=True) / d, out=_buffer(ws, "centred", n, d))
    out = np.square(centred, out=_buffer(ws, "normed", n, d, out))
    denom = out.sum(axis=1, keepdims=True) / d
    denom += eps
    np.sqrt(denom, out=denom)
    return np.divide(centred, denom, out=out)


def _take_rows(x: np.ndarray, rows, ws: Workspace | None, out=None) -> np.ndarray:
    """x[rows], gathered into the first rows of ``out`` when given."""
    if rows is None:
        return x
    idx = np.asarray(rows, dtype=np.intp)
    n = x.shape[0]
    # viewed as unsigned, a negative id exceeds any n: one max checks both ends
    if idx.size and idx.view(np.uintp).max() >= n:
        raise IndexError(f"row ids must lie in [0, {n})")
    if out is not None:
        out = out[: idx.shape[0]]
    elif ws is None:
        return x[idx]
    else:
        out = ws.take("rows", idx.shape[0], x.shape[1])
    # the ids are in range, so "clip" clips nothing; mode="raise" would stage
    # the rows through a temporary
    return np.take(x, idx, axis=0, out=out, mode="clip")


def _attend(
    xq, kv, weights: AttnWeights, heads: int, counter: FlopCounter | None, out=None, ws=None
):
    """Multi-head attention of (m, d) query rows against (n, d) key/value rows.

    Projects queries from ``xq`` and keys/values from ``kv``. Heads run in
    groups of g = max(1, min(H, _LOGITS_BUDGET // (m * n))), stacked in one
    (g * m, n) logits buffer: per group one logits matmul, one scale, one
    softmax, one attention x V matmul and one sum into the map, so NumPy's
    per-call overhead is paid per group, not per head. The budget keeps a
    group's logits in cache. Per call, on one BLAS thread of a 2-vCPU VM:
    toy self-attention (64 x 64, 4 heads, one group) took about 120 us
    against 160 us head by head, and a 130-row cross-attention (130 x 16,
    8 heads, one group) about 380 us against 470-630 us, while stacking 2, 4
    or 8 heads of a 256 x 256 self-attention was 3-10% slower than one head
    per group. Outputs are bitwise those of a per-head loop: each head's
    matmuls see the same strided operands, and heads enter the map in order
    0..H-1. Returns the projected output (m, d), written into ``out`` when
    given, and the head-averaged attention map (m, n), which lives in ``ws``.
    """
    m, d = xq.shape
    n = kv.shape[0]
    if d % heads != 0:
        raise ValueError(f"hidden size {d} not divisible by {heads} heads")
    q = np.matmul(xq, weights.wq, out=_buffer(ws, "q", m, d))
    k = np.matmul(kv, weights.wk, out=_buffer(ws, "k", n, d))
    v = np.matmul(kv, weights.wv, out=_buffer(ws, "v", n, d))
    dh = d // heads
    if counter is not None:
        counter.matmul(m, d, d)
        counter.matmul(n, d, d)
        counter.matmul(n, d, d)
        for _ in range(heads):
            counter.matmul(m, dh, n)
            counter.softmax(m * n)
            counter.matmul(m, n, dh)

    scale = 1.0 / math.sqrt(dh)
    out_heads = _buffer(ws, "heads", m, d)
    # (H, rows, dh) views of q, v and the head outputs, and k as (H, dh, n):
    # none of them copies
    q3 = q.reshape(m, heads, dh).transpose(1, 0, 2)
    k3 = k.reshape(n, heads, dh).transpose(1, 2, 0)
    v3 = v.reshape(n, heads, dh).transpose(1, 0, 2)
    o3 = out_heads.reshape(m, heads, dh).transpose(1, 0, 2)
    attn_sum = _buffer(ws, "map", m, n)
    g = max(1, min(heads, _LOGITS_BUDGET // max(1, m * n)))
    logits = _buffer(ws, "logits", g * m, n)
    for h0 in range(0, heads, g):
        h1 = min(h0 + g, heads)
        a = logits[: (h1 - h0) * m]
        a3 = a.reshape(h1 - h0, m, n)
        np.matmul(q3[h0:h1], k3[h0:h1], out=a3)
        a *= scale
        linalg.softmax_rows(a, out=a)
        np.matmul(a3, v3[h0:h1], out=o3[h0:h1])
        # float addition is not associative: heads enter the map one at a
        # time, in order, as np.sum does along the stacked axis
        if h0 == 0:
            np.sum(a3, axis=0, out=attn_sum)
        else:
            for j in range(h1 - h0):
                attn_sum += a3[j]
    attn_sum /= heads

    out = np.matmul(out_heads, weights.wo, out=_buffer(ws, "out", m, d, out))
    if counter is not None:
        counter.matmul(m, d, d)
    return out, attn_sum


def self_attention_forward(
    x,
    weights: AttnWeights,
    heads: int,
    rows=None,
    counter: FlopCounter | None = None,
    out=None,
    ws: Workspace | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Multi-head self-attention over the token stream.

    ``rows`` restricts the query side to a subset of tokens (keys and values
    always come from the full stream), which is how partially cached dispatch
    evaluates only the tokens it needs. Returns the module output together
    with the head-averaged attention map (rows = queries, columns = tokens).
    The output goes to ``out`` when given; intermediates, and the output
    otherwise, go to ``ws`` when given.
    """
    x = linalg.as_matrix(x)
    return _attend(_take_rows(x, rows, ws), x, weights, heads, counter, out, ws)


def cross_attention_forward(
    x,
    text,
    weights: AttnWeights,
    heads: int,
    rows=None,
    counter: FlopCounter | None = None,
    out=None,
    ws: Workspace | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Attention with image-token queries against text-token keys/values."""
    x = linalg.as_matrix(x)
    if text is None:
        raise ValueError("cross-attention needs text tokens")
    text = linalg.as_matrix(text)
    if text.shape[0] < 1:
        raise ValueError("cross-attention needs at least one text token")
    if text.shape[1] != x.shape[1]:
        raise ValueError(f"text hidden size {text.shape[1]} != {x.shape[1]}")
    return _attend(_take_rows(x, rows, ws), text, weights, heads, counter, out, ws)


def mlp_forward(
    x,
    weights: MlpWeights,
    rows=None,
    counter: FlopCounter | None = None,
    out=None,
    ws: Workspace | None = None,
) -> np.ndarray:
    """Token-wise two-layer MLP with a ReLU between the projections."""
    x = linalg.as_matrix(x)
    xr = _take_rows(x, rows, ws)
    m, d = xr.shape
    d2 = weights.w1.shape[1]
    # the hidden layer shares its workspace memory with the attention logits
    h = np.matmul(xr, weights.w1, out=_buffer(ws, "logits", m, d2))
    np.maximum(h, 0.0, out=h)
    out = np.matmul(h, weights.w2, out=_buffer(ws, "out", m, d, out))
    if counter is not None:
        counter.matmul(m, d, d2)
        counter.activation(m * d2)
        counter.matmul(m, d2, d)
    return out


class Model:
    """The denoiser: block groups over a token grid plus a final projection."""

    def __init__(self, config: ModelConfig, groups: list[GroupWeights], out_proj: np.ndarray):
        if len(groups) != config.depth:
            raise ValueError(f"expected {config.depth} weight groups, got {len(groups)}")
        self.config = config
        self.groups = groups
        self.out_proj = linalg.as_matrix(out_proj)
        if self.out_proj.shape != (config.hidden, config.hidden):
            raise ValueError("final projection must be hidden x hidden")

    # -- weights ---------------------------------------------------------

    def weight_arrays(self) -> list[np.ndarray]:
        return [arr for g in self.groups for arr in g.arrays()] + [self.out_proj]

    # -- forward ---------------------------------------------------------

    def input_stream(
        self, x: FeatureMatrix, t: float, cond: Conditioning, out=None
    ) -> np.ndarray:
        """Token stream entering the first block: x plus timestep (and class) embedding."""
        cfg = self.config
        if x.grid != cfg.grid or x.hidden != cfg.hidden:
            raise ValueError(f"input {x.values.shape}/{x.grid} does not match model {cfg}")
        cond.validate_for(cfg)
        emb = timestep_embedding(t, cfg.hidden, cfg.time_scale)
        stream = np.add(x.values, emb[None, :], out=out)
        if cfg.text_tokens == 0:
            stream += cond.class_embedding[None, :]
        return stream

    def _apply(self, layer: int, kind: str, cond: Conditioning, h, rows=None, out=None, ws=None):
        """One module on the (normed) stream h: (output, attention map or None).

        ``rows`` computes only those query rows against the full stream; the
        cache engine passes them at partial dispatches. The output goes to
        ``out`` when given; intermediates, and the output otherwise, go to the
        workspace ``ws`` when given.
        """
        heads = self.config.heads
        if kind == KIND_SELF:
            w = self.groups[layer].self_attn
            return self_attention_forward(h, w, heads, rows=rows, out=out, ws=ws)
        if kind == KIND_CROSS:
            w = self.groups[layer].cross_attn
            return cross_attention_forward(h, cond.text, w, heads, rows=rows, out=out, ws=ws)
        if kind == KIND_MLP:
            return mlp_forward(h, self.groups[layer].mlp, rows=rows, out=out, ws=ws), None
        if kind == KIND_FINAL:
            hr = _take_rows(h, rows, ws)
            return np.matmul(hr, self.out_proj, out=_buffer(ws, "out", *hr.shape, out)), None
        raise ValueError(f"unknown module kind {kind!r}")

    def forward(
        self,
        x: FeatureMatrix,
        t: float,
        cond: Conditioning,
        cache_ctx=None,
        ws: Workspace | None = None,
        site_hook=None,
    ) -> FeatureMatrix:
        return self.forward_batch(
            [x], t, [cond], cache_ctx=cache_ctx, ws=ws, site_hook=site_hook
        )[0]

    def forward_batch(
        self,
        xs: list[FeatureMatrix],
        t: float,
        conds: list[Conditioning],
        cache_ctx=None,
        ws: Workspace | None = None,
        site_hook=None,
    ) -> list[FeatureMatrix]:
        """Run the denoiser on one or more streams in lockstep.

        Lockstep batching is what lets a cache context coordinate token
        selection across the halves of a guidance pair.

        Every intermediate lives in ``ws``; pass the same workspace on every
        step of a trajectory so steps reuse its buffers (a new one is made
        per call otherwise). Module outputs are the context's cache slots
        under a context, and one reused buffer per stream without one;
        nothing else keeps them past the residual add.

        A batch of two whose modules pass split_halves runs each module's
        second half on the worker thread while the first runs here (see
        run_halves): without a context here, under one in the context's
        dispatch. The worker computes its scratch in its own Workspace and
        writes only its own stream's rows, output and slot in ``ws``; the
        residual adds stay on this thread, so no output bit depends on it.

        Under a context, each dispatch gets the raw residual streams, and its
        module callables normalise only the rows the module reads: all N for
        self-attention, whose keys and values span the stream, the computed
        rows for cross-attention and the MLP, none for the head, and none at
        all when the dispatch reuses every token. A layer norm of a row
        subset is bitwise those rows of the full layer norm, so outputs do
        not depend on it. Without a context every module but the head reads
        the fully normalised stream.

        ``site_hook``, when given, is called as
        ``site_hook(layer, kind, streams)`` right before every module of
        ``config.sites``, the head included, with the live per-stream
        residual streams, cached or not: it may read them, or edit them in
        place to perturb what the module and everything after it see. The
        streams are reused buffers, so a hook copies what it keeps. Returns
        one newly allocated noise prediction per stream.
        """
        cfg = self.config
        if len(xs) != len(conds) or not xs:
            raise ValueError("need one conditioning per input")
        if cache_ctx is not None and cache_ctx.batch != len(xs):
            raise ValueError(f"cache context batch {cache_ctx.batch} != {len(xs)} inputs")
        if ws is None:
            ws = Workspace()
        n, d = cfg.n_tokens, cfg.hidden
        halves = range(len(xs))

        def per_stream(name):
            return [ws.take((name, h), n, d) for h in halves]

        streams, normed = per_stream("stream"), per_stream("normed")
        for h in halves:
            self.input_stream(xs[h], t, conds[h], out=streams[h])
        # every output is added only after all streams have run, so each
        # stream of an uncached forward needs its own output buffer
        outputs = per_stream("out") if cache_ctx is None else None

        def cached_module(layer, kind, h):
            # A full call computes into this site's slot buffer, which the
            # context keeps as its cache slot; row subsets go to scratch.
            slot = ws.take(("slot", layer, kind, h), n, d)

            def fn(x, rows=None):
                scratch = ws if h == 0 else scratch_for(ws)
                out = slot if rows is None else None
                if rows is not None and kind != KIND_SELF:
                    # the rows the module reads go straight to this stream's
                    # normed rows, and are normalised there
                    x, rows = _take_rows(x, rows, None, out=normed[h]), None
                    if kind != KIND_FINAL:
                        x = layer_norm_rows(x, out=x, ws=scratch)
                elif kind != KIND_FINAL:
                    x = layer_norm_rows(x, out=normed[h], ws=scratch)
                return self._apply(layer, kind, conds[h], x, rows, out=out, ws=scratch)

            return fn

        def uncached_module(layer, kind, h):
            scratch = ws if h == 0 else scratch_for(ws)
            x = streams[h]
            if kind != KIND_FINAL:
                x = layer_norm_rows(x, out=normed[h], ws=scratch)
            self._apply(layer, kind, conds[h], x, out=outputs[h], ws=scratch)

        def run(layer, kind):
            if cache_ctx is not None:
                fns = [cached_module(layer, kind, h) for h in halves]
                return cache_ctx.dispatch(layer, kind, streams, fns)
            if len(xs) == 2 and split_halves(call_flops(cfg, kind, n)):
                run_halves(lambda h: uncached_module(layer, kind, h))
            else:
                for h in halves:
                    uncached_module(layer, kind, h)
            return outputs

        for layer, kind in cfg.sites:
            if site_hook is not None:
                site_hook(layer, kind, streams)
            outs = run(layer, kind)
            if kind == KIND_FINAL:
                return [FeatureMatrix(o.copy(), cfg.grid) for o in outs]
            for s, o in zip(streams, outs):
                s += o


def init_model(config: ModelConfig, seed: int, zero_init: bool = False) -> Model:
    """Build a model with seeded Gaussian weights.

    Projections are drawn at scale 1/sqrt(fan_in) from a single PCG64(seed)
    stream in a fixed order (per group: self-attention q,k,v,o; cross q,k,v,o;
    mlp w1,w2; then the final projection). ``zero_init`` zeroes every module so
    the residual stream passes the input through, and makes the final
    projection the identity.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    d, f = config.hidden, config.mlp_hidden

    def draw(m, n, fan_in):
        if zero_init:
            return np.zeros((m, n))
        return rng.standard_normal((m, n)) * (fan_in ** -0.5)

    groups = []
    for _ in range(config.depth):
        sa = AttnWeights(draw(d, d, d), draw(d, d, d), draw(d, d, d), draw(d, d, d))
        ca = None
        if config.text_tokens > 0:
            ca = AttnWeights(draw(d, d, d), draw(d, d, d), draw(d, d, d), draw(d, d, d))
        mlp = MlpWeights(draw(d, f, d), draw(f, d, f))
        groups.append(GroupWeights(sa, ca, mlp))

    if zero_init:
        out_proj = np.eye(d)
    else:
        out_proj = rng.standard_normal((d, d)) * (d ** -0.5)
    return Model(config, groups, out_proj)


def save_weights(model: Model, path) -> None:
    """Write "TOCA-W1 L D Hd H W N2" plus all weights as raw little-endian f32.

    Arrays follow the init order (groups then the final projection), each
    flattened row-major. Values are truncated from f64 to f32.
    """
    from .artifacts import atomic_write_bytes  # artifacts imports this module

    cfg = model.config
    header = (
        f"{WEIGHTS_MAGIC} {cfg.depth} {cfg.hidden} {cfg.heads} "
        f"{cfg.grid_h} {cfg.grid_w} {cfg.text_tokens}\n"
    )
    payload = b"".join(
        np.ascontiguousarray(arr, dtype="<f4").tobytes() for arr in model.weight_arrays()
    )
    atomic_write_bytes(path, header.encode("ascii") + payload)


def load_weights(path) -> Model:
    """Rebuild a model from a weights file written by save_weights.

    Raises ValueError on a malformed file or any non-finite weight.
    """
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii").strip()
        parts = header.split()
        if len(parts) != 7 or parts[0] != WEIGHTS_MAGIC:
            raise ValueError(f"not a {WEIGHTS_MAGIC} weights file: {header!r}")
        depth, hidden, heads, grid_h, grid_w, text_tokens = (int(p) for p in parts[1:])
        config = ModelConfig(depth, hidden, heads, grid_h, grid_w, text_tokens)
        raw = fh.read()

    model = init_model(config, seed=0, zero_init=True)
    offset = 0
    arrays = model.weight_arrays()
    for arr in arrays:
        count = arr.size
        chunk = np.frombuffer(raw, dtype="<f4", count=count, offset=offset)
        if chunk.size != count:
            raise ValueError("weights file truncated")
        if not np.isfinite(chunk).all():
            raise ValueError("weights file holds a non-finite value")
        arr[...] = chunk.reshape(arr.shape).astype(np.float64)
        offset += count * 4
    if offset != len(raw):
        raise ValueError("weights file has trailing bytes")
    return model
