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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .flops import FlopCounter

KIND_SELF = "self_attn"
KIND_CROSS = "cross_attn"
KIND_MLP = "mlp"
KIND_FINAL = "final"

WEIGHTS_MAGIC = "TOCA-W1"


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

    def copy(self) -> "FeatureMatrix":
        return FeatureMatrix(self.values.copy(), self.grid)


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
class LayerRecord:
    layer: int
    kind: str
    output: np.ndarray
    attention: np.ndarray | None  # full row-stochastic map, None if not fully computed


@dataclass(frozen=True)
class Injection:
    """A single-token perturbation applied to a module's input stream."""

    layer: int
    kind: str
    token: int
    delta: np.ndarray


@dataclass
class SelfAttnWeights:
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray

    def arrays(self) -> list[np.ndarray]:
        return [self.wq, self.wk, self.wv, self.wo]


@dataclass
class CrossAttnWeights:
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
    self_attn: SelfAttnWeights
    cross_attn: CrossAttnWeights | None
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


def layer_norm_rows(x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Parameter-free layer norm over the feature axis.

    Bitwise ``(x - x.mean(1)) / sqrt(x.var(1) + eps)``, written into the
    squared deviations instead of a third matrix.
    """
    d = x.shape[1]
    centred = x - x.sum(axis=1, keepdims=True) / d
    out = np.square(centred)
    denom = out.sum(axis=1, keepdims=True) / d
    denom += eps
    np.sqrt(denom, out=denom)
    return np.divide(centred, denom, out=out)


def _maybe_rows(x: np.ndarray, rows) -> np.ndarray:
    if rows is None:
        return x
    idx = np.asarray(rows, dtype=np.intp)
    return x[idx]


def _attend(q, k, v, heads: int, counter: FlopCounter | None):
    """Scaled dot-product attention of (m, d) queries against (n, d) keys/values.

    Heads run one after another in one (m, n) logits buffer that each step
    overwrites in place; stacking the heads into (H, m, n) temporaries was
    measured slower. Returns the concatenated head outputs (m, d) and the
    head-averaged attention map (m, n).
    """
    m, d = q.shape
    n = k.shape[0]
    if d % heads != 0:
        raise ValueError(f"hidden size {d} not divisible by {heads} heads")
    dh = d // heads
    scale = 1.0 / math.sqrt(dh)
    out_heads = np.empty((m, d))
    attn_sum = np.zeros((m, n))
    a = np.empty((m, n))
    for h in range(heads):
        sl = slice(h * dh, (h + 1) * dh)
        np.matmul(q[:, sl], k[:, sl].T, out=a)
        a *= scale
        linalg.softmax_rows(a, out=a)
        np.matmul(a, v[:, sl], out=out_heads[:, sl])
        attn_sum += a
        if counter is not None:
            counter.matmul(m, dh, n)
            counter.softmax(m * n)
            counter.matmul(m, n, dh)
    attn_sum /= heads
    return out_heads, attn_sum


def self_attention_forward(
    x,
    weights: SelfAttnWeights,
    heads: int,
    rows=None,
    counter: FlopCounter | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Multi-head self-attention over the token stream.

    ``rows`` restricts the query side to a subset of tokens (keys and values
    always come from the full stream), which is how partially cached dispatch
    evaluates only the tokens it needs. Returns the module output together
    with the head-averaged attention map (rows = queries, columns = tokens).
    """
    x = linalg.as_matrix(x)
    n, d = x.shape
    xq = _maybe_rows(x, rows)
    m = xq.shape[0]

    q = xq @ weights.wq
    k = x @ weights.wk
    v = x @ weights.wv
    if counter is not None:
        counter.matmul(m, d, d)
        counter.matmul(n, d, d)
        counter.matmul(n, d, d)

    out_heads, attn = _attend(q, k, v, heads, counter)
    out = out_heads @ weights.wo
    if counter is not None:
        counter.matmul(m, d, d)
    return out, attn


def cross_attention_forward(
    x,
    text,
    weights: CrossAttnWeights,
    heads: int,
    rows=None,
    counter: FlopCounter | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Attention with image-token queries against text-token keys/values."""
    x = linalg.as_matrix(x)
    if text is None:
        raise ValueError("cross-attention needs text tokens")
    text = linalg.as_matrix(text)
    n, d = x.shape
    n2 = text.shape[0]
    if n2 < 1:
        raise ValueError("cross-attention needs at least one text token")
    if text.shape[1] != d:
        raise ValueError(f"text hidden size {text.shape[1]} != {d}")
    xq = _maybe_rows(x, rows)
    m = xq.shape[0]

    q = xq @ weights.wq
    k = text @ weights.wk
    v = text @ weights.wv
    if counter is not None:
        counter.matmul(m, d, d)
        counter.matmul(n2, d, d)
        counter.matmul(n2, d, d)

    out_heads, attn = _attend(q, k, v, heads, counter)
    out = out_heads @ weights.wo
    if counter is not None:
        counter.matmul(m, d, d)
    return out, attn


def mlp_forward(
    x,
    weights: MlpWeights,
    rows=None,
    counter: FlopCounter | None = None,
) -> np.ndarray:
    """Token-wise two-layer MLP with a ReLU between the projections."""
    x = linalg.as_matrix(x)
    xr = _maybe_rows(x, rows)
    m, d = xr.shape
    d2 = weights.w1.shape[1]
    h = xr @ weights.w1
    np.maximum(h, 0.0, out=h)
    out = h @ weights.w2
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

    def group_weight_arrays(self) -> list[np.ndarray]:
        out: list[np.ndarray] = []
        for g in self.groups:
            out += g.arrays()
        return out

    def weight_arrays(self) -> list[np.ndarray]:
        return self.group_weight_arrays() + [self.out_proj]

    # -- forward ---------------------------------------------------------

    def input_stream(self, x: FeatureMatrix, t: float, cond: Conditioning) -> np.ndarray:
        """Token stream entering the first block: x plus timestep (and class) embedding."""
        cfg = self.config
        if x.grid != cfg.grid or x.hidden != cfg.hidden:
            raise ValueError(f"input {x.values.shape}/{x.grid} does not match model {cfg}")
        cond.validate_for(cfg)
        stream = x.values + timestep_embedding(t, cfg.hidden, cfg.time_scale)[None, :]
        if cfg.text_tokens == 0:
            stream = stream + cond.class_embedding[None, :]
        return stream

    def _module_fns(self, layer: int, kind: str, cond: Conditioning):
        cfg = self.config
        if kind == KIND_SELF:
            w = self.groups[layer].self_attn

            def full(h, w=w):
                return self_attention_forward(h, w, cfg.heads)

            def part(h, rows, w=w):
                return self_attention_forward(h, w, cfg.heads, rows=rows)

        elif kind == KIND_CROSS:
            w = self.groups[layer].cross_attn
            text = cond.text

            def full(h, w=w, text=text):
                return cross_attention_forward(h, text, w, cfg.heads)

            def part(h, rows, w=w, text=text):
                return cross_attention_forward(h, text, w, cfg.heads, rows=rows)

        elif kind == KIND_MLP:
            w = self.groups[layer].mlp

            def full(h, w=w):
                return mlp_forward(h, w), None

            def part(h, rows, w=w):
                return mlp_forward(h, w, rows=rows), None

        elif kind == KIND_FINAL:

            def full(h):
                return h @ self.out_proj, None

            def part(h, rows):
                return h[np.asarray(rows, dtype=np.intp)] @ self.out_proj, None

        else:
            raise ValueError(f"unknown module kind {kind!r}")
        return full, part

    def _check_injection(self, inject: Injection) -> None:
        cfg = self.config
        site_ok = (
            0 <= inject.layer < cfg.depth and inject.kind in cfg.group_kinds
        ) or (inject.layer == cfg.depth and inject.kind == KIND_FINAL)
        if not site_ok:
            raise ValueError(f"no module at layer {inject.layer} kind {inject.kind!r}")
        if not 0 <= inject.token < cfg.n_tokens:
            raise ValueError(f"token {inject.token} out of range")
        delta = np.asarray(inject.delta, dtype=np.float64)
        if delta.shape != (cfg.hidden,):
            raise ValueError(f"delta must have shape ({cfg.hidden},)")

    def forward(
        self,
        x: FeatureMatrix,
        t: float,
        cond: Conditioning,
        cache_ctx=None,
        inject: Injection | None = None,
    ) -> tuple[FeatureMatrix, list[LayerRecord]]:
        return self.forward_batch([x], t, [cond], cache_ctx=cache_ctx, inject=inject)[0]

    def forward_batch(
        self,
        xs: list[FeatureMatrix],
        t: float,
        conds: list[Conditioning],
        cache_ctx=None,
        inject: Injection | None = None,
    ) -> list[tuple[FeatureMatrix, list[LayerRecord]]]:
        """Run the denoiser on one or more streams in lockstep.

        Lockstep batching is what lets a cache context coordinate token
        selection across the halves of a guidance pair. The injection, when
        given, perturbs stream 0 right before the targeted module.
        """
        cfg = self.config
        if len(xs) != len(conds) or not xs:
            raise ValueError("need one conditioning per input")
        if cache_ctx is not None and cache_ctx.batch != len(xs):
            raise ValueError(f"cache context batch {cache_ctx.batch} != {len(xs)} inputs")
        if inject is not None:
            self._check_injection(inject)

        streams = [self.input_stream(x, t, c) for x, c in zip(xs, conds)]
        records: list[list[LayerRecord]] = [[] for _ in xs]

        def maybe_inject(layer, kind):
            if inject is not None and inject.layer == layer and inject.kind == kind:
                streams[0][inject.token] = streams[0][inject.token] + np.asarray(
                    inject.delta, dtype=np.float64
                )

        for layer in range(cfg.depth):
            for kind in cfg.group_kinds:
                maybe_inject(layer, kind)
                normed = [layer_norm_rows(s) for s in streams]
                fns = [self._module_fns(layer, kind, c) for c in conds]
                fulls = [f for f, _ in fns]
                parts = [p for _, p in fns]
                if cache_ctx is not None:
                    outs, attns = cache_ctx.dispatch(layer, kind, normed, fulls, parts)
                else:
                    pairs = [fulls[h](normed[h]) for h in range(len(xs))]
                    outs = [o for o, _ in pairs]
                    attns = [a for _, a in pairs]
                for h in range(len(xs)):
                    records[h].append(LayerRecord(layer, kind, outs[h], attns[h]))
                for s, o in zip(streams, outs):
                    s += o

        maybe_inject(cfg.depth, KIND_FINAL)
        fns = [self._module_fns(cfg.depth, KIND_FINAL, c) for c in conds]
        fulls = [f for f, _ in fns]
        parts = [p for _, p in fns]
        if cache_ctx is not None:
            outs, _ = cache_ctx.dispatch(cfg.depth, KIND_FINAL, streams, fulls, parts)
        else:
            outs = [fulls[h](streams[h])[0] for h in range(len(xs))]

        return [
            (FeatureMatrix(outs[h], cfg.grid), records[h]) for h in range(len(xs))
        ]


def init_model(config: ModelConfig, seed: int, zero_init: bool = False) -> Model:
    """Build a model with seeded Gaussian weights.

    Projections are drawn at scale 1/sqrt(fan_in) from a single PCG64(seed)
    stream in a fixed order (per group: self-attention q,k,v,o; cross q,k,v,o;
    mlp w1,w2; then the final projection). ``zero_init`` zeroes every module so
    the residual stream passes the input through, and makes the final
    projection the identity.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    d = config.hidden

    def draw(m, n, fan_in):
        if zero_init:
            return np.zeros((m, n))
        return rng.standard_normal((m, n)) * (fan_in ** -0.5)

    groups = []
    for _ in range(config.depth):
        sa = SelfAttnWeights(draw(d, d, d), draw(d, d, d), draw(d, d, d), draw(d, d, d))
        ca = None
        if config.text_tokens > 0:
            ca = CrossAttnWeights(draw(d, d, d), draw(d, d, d), draw(d, d, d), draw(d, d, d))
        mlp = MlpWeights(draw(d, 4 * d, d), draw(4 * d, d, 4 * d))
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
    """Rebuild a model from a weights file written by save_weights."""
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
        arr[...] = chunk.reshape(arr.shape).astype(np.float64)
        offset += count * 4
    if offset != len(raw):
        raise ValueError("weights file has trailing bytes")
    return model
