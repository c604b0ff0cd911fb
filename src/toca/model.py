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

import functools
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

# FLOPs the second half of a split must execute to run on the worker thread;
# see _split_pays
_SPLIT_FLOPS = 12_000_000

# fewest query rows each row block of a split call holds; see _by_rows
_SPLIT_MIN_ROWS = 16


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

    @cached_property
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
    """Sinusoidal embedding of the diffusion timestep, length ``dim``; a new array."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    half = (dim + 1) // 2
    freqs = np.exp(-math.log(10000.0) * np.arange(half) / (half - 1)) if half > 1 else np.ones(1)
    angles = float(t) * freqs
    emb = np.concatenate([np.sin(angles), np.cos(angles)])[:dim]
    return scale * emb


@functools.lru_cache(maxsize=1024)
def _embedding(t: float, dim: int, scale: float) -> np.ndarray:
    """timestep_embedding(t, dim, scale), made once and read-only: input_stream's memo."""
    (emb := timestep_embedding(t, dim, scale)).flags.writeable = False
    return emb


class Workspace:
    """Named float64 buffers that a forward reuses from call to call: the buffer rule.

    ``take(name, m, n)`` returns a C-contiguous (m, n) view of the start of
    the one flat buffer kept under ``name``, allocated on first use and
    regrown only when a call needs more elements than any before it. Every
    shape of a name shares that memory: a 256 x 256 self-attention map and a
    256 x 16 cross-attention map, or the attention logits and the MLP hidden
    layer, which are never live together. The next take of a name overwrites
    what a view holds, so callers copy what they keep. ``frame`` keeps a
    kernel's per-shape views the same way.

    run_generation builds one per run. A forward keeps each member's
    residual stream in it, and ``member(h)`` holds member h's scratch: the
    layer norm, intermediates and output of every module call of that
    member. No thread owns a buffer: a call takes from the scratch of the
    member it serves, on whichever thread runs it, and a row block split off
    a call (_by_rows) writes only its rows of buffers the calling thread
    took. A member's output stays valid until that member's next module call
    on the same workspace, so no run overwrites another run's scratch, and
    cache contexts, which copy what they keep, may share one workspace.
    """

    def __init__(self) -> None:
        self._bufs: dict = {}  # name -> flat buffer
        self._views: dict[tuple, np.ndarray] = {}  # (name, m, n) -> view of it
        self._frames: dict[tuple, object] = {}  # (builder, *shape) -> frame
        self._members: dict[int, Workspace] = {}  # h -> member h's scratch

    def member(self, h: int) -> Workspace:
        """Member h's scratch: a child workspace made at the first request and kept."""
        child = self._members.get(h)
        if child is None:
            child = self._members[h] = Workspace()
        return child

    def take(self, name, m: int, n: int) -> np.ndarray:
        view = self._views.get((name, m, n))
        if view is None:
            buf = self._bufs.get(name)
            if buf is None or buf.size < m * n:
                if buf is not None:  # views and frames of the dropped buffer would keep it alive
                    self._views = {k: v for k, v in self._views.items() if k[0] != name}
                    self._frames = {k: f for k, f in self._frames.items() if name not in k[0].names}
                buf = self._bufs[name] = np.empty(m * n)
            view = self._views[name, m, n] = buf[: m * n].reshape(m, n)
        return view

    def frame(self, build, *shape):
        """build(self, *shape), made at the first request and kept until a buffer in build.names regrows."""
        frame = self._frames.get((build, *shape))
        if frame is None:
            frame = self._frames[build, *shape] = build(self, *shape)
        return frame


# The one worker thread that runs the second half of a split, and the lock a
# split holds while it uses it; see run_halves
_worker = None
_worker_lock = threading.Lock()


def _forget_worker() -> None:
    global _worker, _worker_lock
    _worker, _worker_lock = None, threading.Lock()


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


def two_cpus() -> bool:
    """Whether the process may run on two CPUs (os.sched_getaffinity; ``taskset`` limits it)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) > 1
    return (os.cpu_count() or 1) > 1


def _split_pays(flops: int) -> bool:
    """The worker rule: may a split whose second half executes ``flops`` use the worker?

    Yes when that half executes at least _SPLIT_FLOPS, no other split holds
    the worker (_worker_lock), and the process may use two CPUs. So a half of
    a split never splits again, on either thread. The rule has two modes,
    each evaluated where its split happens: a guided pair splits into its
    halves (each_half), and an attention or MLP call splits its query rows
    into two blocks (_by_rows). A value is computed by the same arithmetic on
    either thread, so no output bit depends on the worker, and a cache
    context sees neither mode.

    A split costs a thread round trip of about 20 us, and the halves share
    the GIL: the NumPy calls of small modules mostly hold it, so only calls
    whose matrix products release it for long enough gain. Measured on a
    2-vCPU VM with one BLAS thread, as the median over 40 interleaved rounds
    of guided toca-pixart DDIM generations against no split: splitting at
    8 MFLOP made a 4 x 64 model on 12 x 12 tokens, whose largest calls are
    ~10 MFLOP, 6% slower; at 12 MFLOP an 8 x 128 model on 16 x 16 ran at 0.69
    of its serial time (0.72 at 16 MFLOP), 4 x 96 on 12 x 12 at 0.94 and
    4 x 64 on 16 x 16 at 0.82.
    """
    return flops >= _SPLIT_FLOPS and not _worker_lock.locked() and two_cpus()


def each_half(config: ModelConfig, kind: str, rows: int, batch: int, work) -> None:
    """Run work(h) for each member h of a module call computing ``rows`` rows each.

    The pair mode of the worker rule: a pair that computes a row, and whose
    half 1 pays (_split_pays of call_flops), runs work(0) here and work(1)
    on the worker (run_halves). Every other call, one that computes no row
    included, runs its members here in turn.
    """
    if batch == 2 and rows >= 1 and _split_pays(call_flops(config, kind, rows)):
        run_halves(work)
    else:
        for h in range(batch):
            work(h)


def run_halves(work) -> None:
    """Run work(1) on the worker thread while work(0) runs on the caller.

    The caller borrows the worker: it takes _worker_lock without waiting,
    starts the worker if none runs, and holds the lock until both halves
    have stopped. A caller that finds the lock held (a half of a split, on
    either thread, or another run's thread) runs work(0) and then work(1)
    itself. Either way it returns only after both halves have stopped; an
    error of either half then propagates, half 0's first.
    """
    global _worker
    lock = _worker_lock
    if not lock.acquire(blocking=False):
        work(0)
        work(1)
        return
    try:
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
    finally:
        lock.release()


def _current_cpu() -> int | None:
    """The CPU the calling thread runs on, where /proc tells it."""
    try:
        with open("/proc/thread-self/stat") as fh:
            # field 39; the command name in field 2 may hold spaces
            return int(fh.read().rsplit(")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def _start_worker(caller_cpu: int | None) -> None:
    """Worker initializer: a start off the caller's CPU.

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


def layer_norm_rows(x: np.ndarray, eps: float = 1e-6, out=None, ws=None) -> np.ndarray:
    """Parameter-free layer norm over the feature axis.

    Bitwise ``(x - x.mean(1)) / sqrt(x.var(1) + eps)``, written into the
    squared deviations (``out``, if given) instead of a third matrix, with
    ``np.add.reduce``, ``ndarray.sum``'s pairwise sum without its Python
    wrapper. Buffers come from ``ws``, or a workspace made for the call.
    """
    n, d = x.shape
    ws = Workspace() if ws is None else ws
    centred = np.subtract(x, np.add.reduce(x, 1, keepdims=True) / d, out=ws.take("centred", n, d))
    out = np.square(centred, out=ws.take("normed", n, d) if out is None else out)
    denom = np.add.reduce(out, 1, keepdims=True) / d
    denom += eps
    np.sqrt(denom, out=denom)
    return np.divide(centred, denom, out=out)


def _take_rows(x: np.ndarray, rows, out: np.ndarray) -> np.ndarray:
    """x[rows], gathered into the first rows of ``out``; an id outside [0, N) raises."""
    idx = np.asarray(rows, dtype=np.intp)
    # viewed as unsigned, a negative id exceeds any n: one max checks both ends
    if idx.size and np.maximum.reduce(idx.view(np.uintp)) >= x.shape[0]:
        raise IndexError(f"row ids must lie in [0, {x.shape[0]})")
    # the ids are in range, so "clip" clips nothing; mode="raise" would stage
    # the rows through a temporary. The method spares np.take's Python wrapper.
    return x.take(idx, 0, out[: idx.shape[0]], "clip")


def _by_rows(row_flops: int, kernel, rows: tuple, *shared) -> None:
    """kernel(*rows, *shared), or rows [0, m // 2) here and [m // 2, m) on the worker.

    The row mode of the worker rule: the call splits when each block holds
    at least _SPLIT_MIN_ROWS rows and the smaller block's FLOPs, row_flops
    times m // 2, pay (_split_pays). ``rows`` are arrays over the same m
    query rows; both blocks read ``shared``. A kernel writes only the rows
    it is given, with each row's arithmetic that of the unsplit call, so no
    output bit depends on the split. The row floor keeps it so: on OpenBLAS,
    the mid MLP's (m, 512) @ (512, 128) on 1-15 rows differs in the last bit
    from those rows of a product on 16 or more, while every shape tested
    matched from 16 rows up.
    """
    half = rows[0].shape[0] // 2
    if half >= _SPLIT_MIN_ROWS and _split_pays(row_flops * half):
        run_halves(lambda h: kernel(*(r[half:] if h else r[:half] for r in rows), *shared))
    else:
        kernel(*rows, *shared)


class _AttendFrame:
    """_attend's buffers, views and constants for m query rows against n key rows of width d."""

    names = ("q", "k", "v", "head_out", "map", "logits", "out")

    def __init__(self, ws: Workspace, m: int, n: int, d: int, heads: int):
        self.n_heads, dh = heads, d // heads
        self.g = max(1, min(heads, _LOGITS_BUDGET // max(1, m * n)))
        # (m, g * n) logits: a block's rows of it hold the block's own (g * rows, n) stack
        shapes = ((m, d), (n, d), (n, d), (m, d), (m, n), (m, self.g * n), (m, d))
        self.q, self.k, self.v, self.head_out, self.map, self.logits, self.out = (
            ws.take(name, *shape) for name, shape in zip(self.names, shapes))
        # k as (H, dh, n) and v as (H, n, dh): neither view copies
        self.k3 = self.k.reshape(n, heads, dh).transpose(1, 2, 0)
        self.v3 = self.v.reshape(n, heads, dh).transpose(1, 0, 2)
        self.rows = (self.q, self.head_out, self.map, self.out, self.logits)
        self.row_flops = flops_cross_attention(1, n, d, heads) - flops_cross_attention(0, n, d, heads)
        self.scale = 1.0 / math.sqrt(dh)
        self.groups = _head_groups(self, self.q, self.head_out, self.logits)


def _attend(xq, kv, weights: AttnWeights, heads: int, counter: FlopCounter | None, ws=None):
    """Multi-head attention of (m, d) query rows against (n, d) key/value rows.

    Projects keys/values from ``kv``, then queries from ``xq``. Heads run in
    groups of g = max(1, min(H, _LOGITS_BUDGET // (m * n))), stacked in one
    (g * m, n) logits stack: per group one logits matmul, one scale, one
    softmax, one attention x V matmul and one sum into the map, so NumPy's
    per-call overhead is paid per group, not per head. The budget keeps a
    group's logits in cache. Per call, on one BLAS thread of a 2-vCPU VM:
    toy self-attention (64 x 64, 4 heads, one group) took about 120 us
    against 160 us head by head, and a 130-row cross-attention (130 x 16,
    8 heads, one group) about 380 us against 470-630 us, while stacking 2, 4
    or 8 heads of a 256 x 256 self-attention was 3-10% slower than one head
    per group. Outputs are bitwise those of a per-head loop: each head's
    matmuls see the same strided operands, and heads enter the map in order
    0..H-1. Returns the projected output (m, d) and the head-averaged
    attention map (m, n), both in ``ws``, like every intermediate.

    Keys and values are projected here, once; the query rows then run
    through _by_rows, a row block with its own logits stack in its rows of
    one (m, g * n) buffer. A block's FLOPs leave out the key/value
    projections: they are linear in its rows.
    """
    m, d = xq.shape
    n = kv.shape[0]
    if d % heads != 0:
        raise ValueError(f"hidden size {d} not divisible by {heads} heads")
    f = ws.frame(_AttendFrame, m, n, d, heads)
    np.matmul(kv, weights.wk, out=f.k)
    np.matmul(kv, weights.wv, out=f.v)
    if counter is not None:
        dh = d // heads
        counter.matmul(m, d, d)
        counter.matmul(n, d, d)
        counter.matmul(n, d, d)
        for _ in range(heads):
            counter.matmul(m, dh, n)
            counter.softmax(m * n)
            counter.matmul(m, n, dh)
        counter.matmul(m, d, d)
    _by_rows(f.row_flops, _attend_rows, (xq, *f.rows), f, weights)
    return f.out, f.map


def _head_groups(f: _AttendFrame, q, out_heads, logits) -> tuple:
    """Per head group, the views _attend_rows uses for the rows of q, out_heads and logits.

    A group's logits and their (g, rows, n) stack, its heads of q, k, v and
    the head outputs, head 0's map (None past group 0) and the maps added after it.
    """
    m = q.shape[0]
    heads, dh, n = f.k3.shape
    # (H, rows, dh) views of q and the head outputs: neither copies
    q3 = q.reshape(m, heads, dh).transpose(1, 0, 2)
    o3 = out_heads.reshape(m, heads, dh).transpose(1, 0, 2)
    logits = logits.reshape(f.g * m, n)
    groups = []
    for h0 in range(0, heads, f.g):
        h1 = min(h0 + f.g, heads)
        a = logits[: (h1 - h0) * m]
        a3 = a.reshape(h1 - h0, m, n)
        maps = tuple(a3)
        views = (q3[h0:h1], f.k3[h0:h1], f.v3[h0:h1], o3[h0:h1])
        groups.append((a, a3, *views, *((maps[0], maps[1:]) if h0 == 0 else (None, maps))))
    return tuple(groups)


def _attend_rows(xq, q, out_heads, attn_sum, out, logits, f: _AttendFrame, weights: AttnWeights):
    """_attend's work for the query rows xq, written into the same rows of the rest.

    The unsplit call reads the frame's head-group views; a row block makes its own.
    """
    np.matmul(xq, weights.wq, out=q)
    groups = f.groups if q is f.q else _head_groups(f, q, out_heads, logits)
    for a, a3, q3, k3, v3, o3, head0, rest in groups:
        np.matmul(q3, k3, out=a3)
        a *= f.scale
        linalg.softmax_rows(a, out=a)
        np.matmul(a3, v3, out=o3)
        # float addition is not associative: heads enter the map one at a time,
        # in order, head 0 copied in (np.sum over the stack: same bits, slower)
        if head0 is not None:
            np.copyto(attn_sum, head0)
        for head in rest:
            attn_sum += head
    attn_sum /= f.n_heads
    np.matmul(out_heads, weights.wo, out=out)


def self_attention_forward(
    x,
    weights: AttnWeights,
    heads: int,
    rows=None,
    counter: FlopCounter | None = None,
    ws: Workspace | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Multi-head self-attention over the token stream.

    ``rows`` restricts the query side to those tokens while keys and values
    come from the whole stream: the one kernel whose keys span more rows
    than its queries, so the only one that takes row ids. Returns the module
    output together with the head-averaged attention map (rows = queries,
    columns = tokens). Buffers come from ``ws``, or a workspace made for the
    call.
    """
    x, ws = linalg.as_matrix(x), Workspace() if ws is None else ws
    xq = x if rows is None else _take_rows(x, rows, ws.take("rows", len(rows), x.shape[1]))
    return _attend(xq, x, weights, heads, counter, ws)


def cross_attention_forward(
    x,
    text,
    weights: AttnWeights,
    heads: int,
    counter: FlopCounter | None = None,
    ws: Workspace | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Attention of every row of x (a partial call's rows only) against text keys/values.

    Buffers as in self_attention_forward.
    """
    x = linalg.as_matrix(x)
    if text is None:
        raise ValueError("cross-attention needs text tokens")
    text = linalg.as_matrix(text)
    if text.shape[0] < 1:
        raise ValueError("cross-attention needs at least one text token")
    if text.shape[1] != x.shape[1]:
        raise ValueError(f"text hidden size {text.shape[1]} != {x.shape[1]}")
    return _attend(x, text, weights, heads, counter, Workspace() if ws is None else ws)


def mlp_forward(
    x,
    weights: MlpWeights,
    counter: FlopCounter | None = None,
    ws: Workspace | None = None,
) -> np.ndarray:
    """Token-wise two-layer MLP with a ReLU between the projections, on every row of x.

    Buffers as in self_attention_forward; the rows run through _by_rows.
    """
    x, ws = linalg.as_matrix(x), Workspace() if ws is None else ws
    m, d = x.shape
    d2 = weights.w1.shape[1]
    # the hidden layer shares its workspace memory with the attention logits
    h, out = ws.take("logits", m, d2), ws.take("out", m, d)
    _by_rows(flops_mlp(1, d), _mlp_rows, (x, h, out), weights)
    if counter is not None:
        counter.matmul(m, d, d2)
        counter.activation(m * d2)
        counter.matmul(m, d2, d)
    return out


def _mlp_rows(x, h, out, weights: MlpWeights) -> None:
    """mlp_forward's work for the rows x, written into the same rows of h and out."""
    np.matmul(x, weights.w1, out=h)
    np.maximum(h, 0.0, out=h)
    np.matmul(h, weights.w2, out=out)


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
        stream = np.add(x.values, _embedding(t, cfg.hidden, cfg.time_scale), out=out)
        if cfg.text_tokens == 0:
            stream += cond.class_embedding
        return stream

    def _apply(self, layer: int, kind: str, cond: Conditioning, x, rows=None, ws=None):
        """One module on the raw residual stream x: (output, attention map or None).

        The normalisation rule: ``rows``, when given, are the query rows the
        call computes. Self-attention normalises all N rows, since its keys
        and values span the stream, and takes the row ids; any other kind
        gathers the rows into ws's "normed", normalises them there, and sees
        nothing else. The head reads the raw stream. A dispatch that reuses
        every token makes no call, so it normalises nothing. Row subsets of a
        layer norm, and of a module call on _SPLIT_MIN_ROWS rows or more, are
        bitwise those rows of the full call; fewer may differ in the last bit
        (_by_rows). Buffers come from ``ws``, the scratch of the member the
        call serves, or a workspace made for the call.
        """
        ws = Workspace() if ws is None else ws
        if rows is not None and kind != KIND_SELF:
            x, rows = _take_rows(x, rows, ws.take("normed", *x.shape)), None
            if kind != KIND_FINAL:
                x = layer_norm_rows(x, out=x, ws=ws)
        elif kind != KIND_FINAL:
            x = layer_norm_rows(x, ws=ws)
        heads = self.config.heads
        if kind == KIND_SELF:
            return self_attention_forward(x, self.groups[layer].self_attn, heads, rows, ws=ws)
        if kind == KIND_CROSS:
            w = self.groups[layer].cross_attn
            return cross_attention_forward(x, cond.text, w, heads, ws=ws)
        if kind == KIND_MLP:
            return mlp_forward(x, self.groups[layer].mlp, ws=ws), None
        if kind == KIND_FINAL:
            return np.matmul(x, self.out_proj, out=ws.take("out", *x.shape)), None
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
        """Run the denoiser on one or more streams in lockstep: one new noise prediction each.

        Lockstep batching lets a cache context coordinate token selection
        across the halves of a guidance pair. Pass the same ``ws`` on every
        step of a trajectory so steps reuse its buffers (a new one is made
        per call otherwise); Workspace states what a forward keeps there.

        ``cache_ctx``, when given, has ``batch`` (the number of streams),
        ``config`` (this model's) and ``dispatch(layer, kind, streams, fns)``,
        called at every site of ``config.sites`` with the raw residual
        streams and member h's module callable fns[h](x, rows=None), which
        runs _apply at that site; dispatch returns each member's module
        output. Without a context each member runs every module on all rows
        (each_half). _split_pays decides which calls use the worker thread.

        ``site_hook``, when given, is called as
        ``site_hook(layer, kind, streams)`` right before every module of
        ``config.sites``, the head included, with the live per-stream
        residual streams, cached or not: it may read them, or edit them in
        place to perturb what the module and everything after it see. The
        streams are reused buffers, so a hook copies what it keeps.
        """
        cfg = self.config
        if len(xs) != len(conds) or not xs:
            raise ValueError("need one conditioning per input")
        if cache_ctx is not None and cache_ctx.batch != len(xs):
            raise ValueError(f"cache context batch {cache_ctx.batch} != {len(xs)} inputs")
        if cache_ctx is not None and cache_ctx.config != cfg:
            raise ValueError(f"cache context built for {cache_ctx.config}, not this model's {cfg}")
        ws = Workspace() if ws is None else ws
        n, d = cfg.n_tokens, cfg.hidden
        halves = range(len(xs))
        streams = [ws.take(("stream", h), n, d) for h in halves]
        for h in halves:
            self.input_stream(xs[h], t, conds[h], out=streams[h])

        apply, outs = self._apply, [None] * len(xs)
        # member h's module callable runs the site the loop below is at
        fns = [
            lambda x, rows=None, cond=conds[h], s=ws.member(h): apply(layer, kind, cond, x, rows, s)
            for h in halves
        ]

        def uncached(h):  # an output is its member's scratch: used before its next call
            outs[h] = fns[h](streams[h])[0]

        for layer, kind in cfg.sites:
            if site_hook is not None:
                site_hook(layer, kind, streams)
            if cache_ctx is None:
                each_half(cfg, kind, n, len(xs), uncached)
            else:
                outs[:] = cache_ctx.dispatch(layer, kind, streams, fns)
            if kind == KIND_FINAL:
                return [FeatureMatrix(out.copy(), cfg.grid) for out in outs]
            for h in halves:
                np.add(streams[h], outs[h], out=streams[h])


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

    Raises ValueError on a malformed file, a payload size the header's shapes
    do not call for (checked before allocating) or any non-finite weight.
    """
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii").strip()
        parts = header.split()
        if len(parts) != 7 or parts[0] != WEIGHTS_MAGIC:
            raise ValueError(f"not a {WEIGHTS_MAGIC} weights file: {header!r}")
        depth, hidden, heads, grid_h, grid_w, text_tokens = (int(p) for p in parts[1:])
        config = ModelConfig(depth, hidden, heads, grid_h, grid_w, text_tokens)
        raw = fh.read()

    # f32 bytes save_weights writes: per group q/k/v/o (twice with text), the MLP; the head
    d = config.hidden
    attn = (8 if config.text_tokens > 0 else 4) * d * d
    expected = 4 * (config.depth * (attn + 2 * d * config.mlp_hidden) + d * d)
    if len(raw) != expected:
        short = len(raw) < expected
        raise ValueError("weights file truncated" if short else "weights file has trailing bytes")
    values = np.frombuffer(raw, dtype="<f4")
    if not np.isfinite(values).all():
        raise ValueError("weights file holds a non-finite value")
    model = init_model(config, seed=0, zero_init=True)
    offset = 0
    for arr in model.weight_arrays():
        arr[...] = values[offset:offset + arr.size].reshape(arr.shape)
        offset += arr.size
    return model
