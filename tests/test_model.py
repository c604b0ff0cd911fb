import math
import tracemalloc

import numpy as np
import pytest

from toca import (
    PROFILES,
    CacheContext,
    Conditioning,
    FeatureMatrix,
    ModelConfig,
    init_model,
    linalg,
)
from toca import model as toca_model
from toca.flops import FLOPS_PER_MAC, SOFTMAX_FLOPS_PER_ELEMENT, FlopCounter
from toca.model import (
    KIND_CROSS,
    KIND_FINAL,
    KIND_MLP,
    KIND_SELF,
    AttnWeights,
    MlpWeights,
    Workspace,
    layer_norm_rows,
    mlp_forward,
    self_attention_forward,
    cross_attention_forward,
    timestep_embedding,
    load_weights,
    save_weights,
)


def cfg(**kw):
    base = dict(depth=2, hidden=8, heads=2, grid_h=2, grid_w=2)
    base.update(kw)
    return ModelConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(depth=0, hidden=8, heads=2, grid_h=2, grid_w=2)
    with pytest.raises(ValueError):
        ModelConfig(depth=1, hidden=7, heads=2, grid_h=2, grid_w=2)  # not divisible
    with pytest.raises(ValueError):
        ModelConfig(depth=1, hidden=8, heads=2, grid_h=0, grid_w=2)
    with pytest.raises(ValueError):
        ModelConfig(depth=1, hidden=8, heads=2, grid_h=2, grid_w=2, text_tokens=-1)


def test_config_properties():
    c = cfg(text_tokens=3)
    assert c.n_tokens == 4
    assert c.mlp_hidden == 32
    assert c.grid == (2, 2)
    assert c.group_kinds == (KIND_SELF, "cross_attn", KIND_MLP)
    assert cfg().group_kinds == (KIND_SELF, KIND_MLP)


def test_feature_matrix_grid_check():
    with pytest.raises(ValueError):
        FeatureMatrix(np.zeros((5, 8)), (2, 2))
    fm = FeatureMatrix(np.zeros((4, 8)), (2, 2))
    assert fm.n_tokens == 4 and fm.hidden == 8


def test_timestep_embedding_at_zero():
    emb = timestep_embedding(0.0, 4)
    assert np.allclose(emb, [0.0, 0.0, 1.0, 1.0])


def test_timestep_embedding_scale_and_dim():
    emb = timestep_embedding(2.0, 5, scale=3.0)
    assert emb.shape == (5,)
    assert np.allclose(emb, 3.0 * timestep_embedding(2.0, 5))
    # lowest frequency is 1, so the first slot is sin(t)
    assert emb[0] == pytest.approx(3.0 * np.sin(2.0))


def test_timestep_embedding_distinguishes_steps():
    assert not np.allclose(timestep_embedding(3.0, 8), timestep_embedding(4.0, 8))


def _plain_timestep_embedding(t, dim, scale=1.0):
    """The embedding's formula, computed afresh on every call."""
    half = (dim + 1) // 2
    freqs = np.exp(-math.log(10000.0) * np.arange(half) / (half - 1)) if half > 1 else np.ones(1)
    angles = float(t) * freqs
    return scale * np.concatenate([np.sin(angles), np.cos(angles)])[:dim]


@pytest.mark.parametrize("dim", [1, 2, 3, 8, 31, 32, 128])
@pytest.mark.parametrize("t, scale", [(0.0, 1.0), (1.0, 1.0), (7.5, 0.5), (1000.0, 3.0)])
def test_timestep_embedding_is_the_plain_formula_bitwise(t, dim, scale):
    emb = timestep_embedding(t, dim, scale)
    want = _plain_timestep_embedding(t, dim, scale)
    assert emb.shape == (dim,) and emb.dtype == want.dtype
    assert emb.tobytes() == want.tobytes()


def test_timestep_embedding_returns_its_own_array_over_read_only_frequencies():
    first = timestep_embedding(5.0, 9)
    first[:] = np.nan  # a caller's edit reaches no later call
    assert timestep_embedding(5.0, 9).tobytes() == _plain_timestep_embedding(5.0, 9).tobytes()


def test_input_stream_reads_a_read_only_embedding_memo():
    """input_stream adds the memoised embedding, bitwise timestep_embedding's, and none can edit it."""
    c = cfg(grid_h=3, grid_w=3, time_scale=0.5)
    model, cond = init_model(c, seed=3, zero_init=True), Conditioning.random_class(c, 4)
    x = FeatureMatrix(np.random.default_rng(5).normal(size=(9, 8)), c.grid)
    memo = toca_model._embedding(7.0, c.hidden, c.time_scale)
    assert memo is toca_model._embedding(7.0, c.hidden, c.time_scale) and not memo.flags.writeable
    assert memo.tobytes() == timestep_embedding(7.0, c.hidden, c.time_scale).tobytes()
    want = x.values + timestep_embedding(7.0, c.hidden, c.time_scale)[None, :]
    want += cond.class_embedding[None, :]
    assert model.input_stream(x, 7.0, cond).tobytes() == want.tobytes()


def test_layer_norm_rows_centers_and_scales():
    out = layer_norm_rows(np.array([[1.0, 3.0], [10.0, 10.0]]))
    assert np.allclose(out[0], [-1.0, 1.0], atol=1e-4)
    assert np.allclose(out[1], [0.0, 0.0])  # constant row stays finite
    assert np.allclose(out.mean(axis=1), 0.0, atol=1e-12)


def test_layer_norm_rows_matches_mean_var_formula():
    rng = np.random.default_rng(12)
    for shape in ((1, 1), (4, 3), (9, 32), (64, 128)):
        x = rng.normal(loc=3.0, scale=5.0, size=shape)
        x[0] = x[0, 0]  # a constant row: zero variance
        ref = (x - x.mean(axis=1, keepdims=True)) / np.sqrt(x.var(axis=1, keepdims=True) + 1e-6)
        assert np.array_equal(layer_norm_rows(x), ref)


@pytest.mark.parametrize("hidden", [8, 32, 128])
@pytest.mark.parametrize("with_ws", [False, True], ids=["new", "ws"])
def test_layer_norm_of_a_row_subset_is_those_rows(hidden, with_ws):
    """A cached dispatch normalises only the rows it computes; that must not move a bit."""
    rng = np.random.default_rng(hidden)
    n = 40
    x = rng.normal(loc=2.0, scale=3.0, size=(n, hidden))
    x[7] = x[7, 0]  # a constant row: zero variance
    ws = Workspace() if with_ws else None
    full = layer_norm_rows(x, ws=ws).copy()
    for rows in ([7], [0, 39], [3, 7, 21], np.sort(rng.choice(n, 17, replace=False)), range(n)):
        rows = np.asarray(rows)
        assert np.array_equal(layer_norm_rows(x[rows], ws=ws), full[rows])


def test_mlp_linear_region_oracle():
    # positive weights and input keep ReLU in its linear region:
    # out = x * sum_k w1[0,k] * w2[k,0] = 4 * x * 0.5 * 0.25
    w = MlpWeights(w1=np.full((1, 4), 0.5), w2=np.full((4, 1), 0.25))
    out = mlp_forward(np.array([[2.0]]), w)
    assert out == pytest.approx(np.array([[1.0]]))


def test_mlp_relu_kills_negative_branch():
    w = MlpWeights(w1=np.full((1, 4), 0.5), w2=np.full((4, 1), 0.25))
    out = mlp_forward(np.array([[-2.0]]), w)
    assert np.array_equal(out, [[0.0]])


def test_mlp_rows_subset_matches_full():
    rng = np.random.default_rng(0)
    w = MlpWeights(w1=rng.normal(size=(4, 16)), w2=rng.normal(size=(16, 4)))
    x = rng.normal(size=(6, 4))
    full = mlp_forward(x, w)
    rows = np.array([1, 4])
    assert np.array_equal(mlp_forward(x[rows], w), full[rows])


def test_self_attention_map_is_row_stochastic():
    rng = np.random.default_rng(1)
    d = 8
    w = AttnWeights(*(rng.normal(size=(d, d)) for _ in range(4)))
    x = rng.normal(size=(5, d))
    out, attn = self_attention_forward(x, w, heads=2)
    assert out.shape == (5, d)
    assert attn.shape == (5, 5)
    assert np.allclose(attn.sum(axis=1), 1.0, atol=1e-12)


def test_self_attention_zero_queries_give_uniform_map():
    rng = np.random.default_rng(2)
    d = 4
    w = AttnWeights(
        wq=np.zeros((d, d)), wk=rng.normal(size=(d, d)),
        wv=rng.normal(size=(d, d)), wo=rng.normal(size=(d, d)),
    )
    _, attn = self_attention_forward(rng.normal(size=(3, d)), w, heads=1)
    assert np.allclose(attn, 1.0 / 3.0)


def test_self_attention_partial_rows_match_full():
    rng = np.random.default_rng(3)
    d = 8
    w = AttnWeights(*(rng.normal(size=(d, d)) for _ in range(4)))
    x = rng.normal(size=(7, d))
    full_out, full_attn = self_attention_forward(x, w, heads=2)
    rows = np.array([0, 3, 6])
    part_out, part_attn = self_attention_forward(x, w, heads=2, rows=rows)
    assert np.array_equal(part_out, full_out[rows])
    assert np.array_equal(part_attn, full_attn[rows])


def _softmax_ref(m):
    shifted = m - m.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _attention_ref(x, kv, w, heads, rows):
    """Per-head loop with a fresh matrix at every step: the reference kernel."""
    xq = x if rows is None else x[rows]
    q, k, v = xq @ w.wq, kv @ w.wk, kv @ w.wv
    m, d = q.shape
    dh = d // heads
    out_heads = np.empty((m, d))
    attn_sum = np.zeros((m, kv.shape[0]))
    for h in range(heads):
        sl = slice(h * dh, (h + 1) * dh)
        a = _softmax_ref((q[:, sl] @ k[:, sl].T) * (1.0 / np.sqrt(dh)))
        out_heads[:, sl] = a @ v[:, sl]
        attn_sum += a
    return out_heads @ w.wo, attn_sum / heads


@pytest.mark.parametrize("kind", ["self", "cross"])
@pytest.mark.parametrize("rows", [None, [0, 2, 3, 9, 12], [7]], ids=["full", "rows", "one"])
def test_attention_matches_reference_loop(kind, rows):
    rng = np.random.default_rng(13)
    d, heads = 24, 4
    x = rng.normal(size=(13, d))
    if kind == "self":
        w = AttnWeights(*(rng.normal(size=(d, d)) for _ in range(4)))
        out, attn = self_attention_forward(x, w, heads, rows=rows)
        kv = x
    else:
        w = AttnWeights(*(rng.normal(size=(d, d)) for _ in range(4)))
        kv = rng.normal(size=(5, d))
        out, attn = cross_attention_forward(x if rows is None else x[rows], kv, w, heads)
    ref_out, ref_attn = _attention_ref(x, kv, w, heads, None if rows is None else np.array(rows))
    assert np.array_equal(out, ref_out)
    assert np.array_equal(attn, ref_attn)


@pytest.mark.parametrize("group", [1, 2, 4, 6], ids=["g1", "g2", "g4+2", "all"])
@pytest.mark.parametrize("kind", ["self", "cross"])
@pytest.mark.parametrize("rows", [None, [0, 2, 3, 9, 12], [7]], ids=["full", "rows", "one"])
def test_attention_groups_match_reference_loop(monkeypatch, group, kind, rows):
    """Every grouping of 6 heads equals the per-head loop bitwise and counts per head."""
    rng = np.random.default_rng(17)
    d, heads = 24, 6
    x = rng.normal(size=(13, d))
    w = AttnWeights(*(rng.normal(size=(d, d)) for _ in range(4)))
    kv = x if kind == "self" else rng.normal(size=(5, d))
    m, n = (13 if rows is None else len(rows)), kv.shape[0]
    # the largest budget that still gives `group` heads per group
    monkeypatch.setattr(toca_model, "_LOGITS_BUDGET", (group + 1) * m * n - 1)
    calls = []
    softmax = linalg.softmax_rows
    monkeypatch.setattr(linalg, "softmax_rows", lambda a, out=None: calls.append(a.shape) or softmax(a, out))

    counter = FlopCounter()
    ws = Workspace()
    if kind == "self":
        out, attn = self_attention_forward(x, w, heads, rows=rows, counter=counter, ws=ws)
    else:
        xq = x if rows is None else x[rows]
        out, attn = cross_attention_forward(xq, kv, w, heads, counter=counter, ws=ws)
    ref_out, ref_attn = _attention_ref(x, kv, w, heads, None if rows is None else np.array(rows))
    assert np.array_equal(out, ref_out)
    assert np.array_equal(attn, ref_attn)

    sizes = [min(group, heads - h0) for h0 in range(0, heads, group)]
    assert calls == [(g * m, n) for g in sizes]
    dh = d // heads
    projections = FLOPS_PER_MAC * (2 * m * d * d + 2 * n * d * d)
    per_head = 2 * FLOPS_PER_MAC * m * dh * n + SOFTMAX_FLOPS_PER_ELEMENT * m * n
    assert counter.flops == projections + heads * per_head


def test_cross_attention_needs_text():
    rng = np.random.default_rng(4)
    d = 4
    w = AttnWeights(*(rng.normal(size=(d, d)) for _ in range(4)))
    x = rng.normal(size=(3, d))
    with pytest.raises(ValueError):
        cross_attention_forward(x, None, w, heads=1)
    out, attn = cross_attention_forward(x, rng.normal(size=(5, d)), w, heads=1)
    assert out.shape == (3, d)
    assert attn.shape == (3, 5)
    assert np.allclose(attn.sum(axis=1), 1.0)


def test_conditioning_exactly_one_mode():
    with pytest.raises(ValueError):
        Conditioning(text=np.zeros((2, 8)), class_embedding=np.zeros(8))
    with pytest.raises(ValueError):
        Conditioning()


def test_conditioning_validate_for():
    c_class = cfg()
    c_text = cfg(text_tokens=3)
    Conditioning.random_class(c_class, 0).validate_for(c_class)
    Conditioning.random_text(c_text, 0).validate_for(c_text)
    with pytest.raises(ValueError):
        Conditioning.random_class(c_class, 0).validate_for(c_text)
    with pytest.raises(ValueError):
        Conditioning.random_text(c_text, 0).validate_for(c_class)


def test_conditioning_null_is_zero():
    c = cfg(text_tokens=2)
    null = Conditioning.null_for(c)
    assert np.all(null.text == 0.0)
    assert np.all(Conditioning.null_for(cfg()).class_embedding == 0.0)


def test_conditioning_seeded():
    c = cfg()
    a = Conditioning.random_class(c, 5)
    b = Conditioning.random_class(c, 5)
    assert np.array_equal(a.class_embedding, b.class_embedding)
    assert not np.array_equal(a.class_embedding, Conditioning.random_class(c, 6).class_embedding)


def test_init_model_deterministic():
    c = cfg()
    a, b = init_model(c, seed=9), init_model(c, seed=9)
    for wa, wb in zip(a.weight_arrays(), b.weight_arrays()):
        assert np.array_equal(wa, wb)
    other = init_model(c, seed=10)
    assert not all(
        np.array_equal(wa, wo)
        for wa, wo in zip(a.weight_arrays(), other.weight_arrays())
    )


def test_zero_init_forward_is_input_stream():
    c = cfg()
    model = init_model(c, seed=0, zero_init=True)
    cond = Conditioning.random_class(c, 1)
    x = FeatureMatrix(np.random.default_rng(2).normal(size=(4, 8)), (2, 2))
    streams = []
    eps = model.forward(
        x, 3.0, cond, site_hook=lambda layer, kind, ss: streams.append(ss[0].copy())
    )
    # all residual modules are zero and the output head is identity
    stream = model.input_stream(x, 3.0, cond)
    assert np.array_equal(eps.values, stream)
    assert len(streams) == len(c.sites)
    assert all(np.array_equal(s, stream) for s in streams)


def test_forward_record_layout():
    for c in (cfg(text_tokens=3), cfg()):
        model = init_model(c, seed=0)
        cond = Conditioning.random_text(c, 1) if c.text_tokens else Conditioning.random_class(c, 1)
        x = FeatureMatrix(np.zeros((4, 8)), (2, 2))
        sites = []
        eps = model.forward(
            x, 1.0, cond, site_hook=lambda layer, kind, ss: sites.append((layer, kind))
        )
        assert eps.values.shape == (4, 8)
        assert tuple(sites) == c.sites
        assert len(sites) == c.depth * len(c.group_kinds) + 1
        assert sites[:len(c.group_kinds)] == [(0, kind) for kind in c.group_kinds]
        assert sites[-1] == (c.depth, KIND_FINAL)


@pytest.mark.parametrize("kind", ["self_attn", "cross_attn", "mlp", "final"])
def test_apply_rows_match_full_rows(kind):
    """Self-attention takes query ids; every other kind runs on the gathered rows.

    _apply reads the raw stream: the rows of a partial call equal those of
    a full call, with or without a workspace, and the stream is left as is.
    """
    c = cfg(text_tokens=3, grid_h=3, grid_w=3)
    model = init_model(c, seed=5)
    cond = Conditioning.random_text(c, 2)
    h = np.random.default_rng(6).normal(size=(9, 8))
    raw = h.copy()
    layer = c.depth if kind == KIND_FINAL else 1
    idx = np.array([0, 4, 5, 8])
    full = model._apply(layer, kind, cond, h)[0].copy()
    for ws in (None, Workspace()):
        assert np.array_equal(model._apply(layer, kind, cond, h, rows=idx, ws=ws)[0], full[idx])
        if kind != KIND_SELF:  # the gathered rows are all the module sees
            assert np.array_equal(model._apply(layer, kind, cond, h[idx], ws=ws)[0], full[idx])
    assert np.array_equal(h, raw)
    normed = h if kind == KIND_FINAL else layer_norm_rows(h)
    if kind == KIND_SELF:
        want = self_attention_forward(normed, model.groups[layer].self_attn, c.heads)[0]
    elif kind == KIND_CROSS:
        want = cross_attention_forward(normed, cond.text, model.groups[layer].cross_attn, c.heads)[0]
    elif kind == KIND_MLP:
        want = mlp_forward(normed, model.groups[layer].mlp)
    else:
        want = h @ model.out_proj
    assert np.array_equal(full, want)


@pytest.mark.parametrize("with_ws", [False, True], ids=["new", "ws"])
@pytest.mark.parametrize("kind", ["self_attn", "cross_attn", "mlp", "final"])
def test_out_of_range_rows_are_rejected(kind, with_ws):
    """Row ids outside [0, N) raise instead of clipping or wrapping to another token.

    Self-attention checks its query ids; for every other kind _apply's
    gather of a partial call's rows checks them.
    """
    c = cfg(text_tokens=3)
    model = init_model(c, seed=5)
    cond = Conditioning.random_text(c, 2)
    h = np.random.default_rng(6).normal(size=(4, 8))
    layer = c.depth if kind == KIND_FINAL else 1
    ws = Workspace() if with_ws else None

    def part(rows):
        return model._apply(layer, kind, cond, h, rows=rows, ws=ws)[0]

    for rows in ([7], [-1], [0, 4], np.array([3, -4])):
        with pytest.raises(IndexError):
            part(rows)
    full, _ = model._apply(layer, kind, cond, h)
    assert np.array_equal(part([1, 3]), full[[1, 3]])


def _inject(layer, kind, token, delta):
    """A site hook that adds ``delta`` to stream 0's row ``token`` entering (layer, kind)."""
    def hook(l, k, streams):
        if (l, k) == (layer, kind):
            streams[0][token] += delta
    return hook


def test_injection_perturbs_single_site():
    c = cfg()
    model = init_model(c, seed=3)
    cond = Conditioning.random_class(c, 1)
    x = FeatureMatrix(np.random.default_rng(0).normal(size=(4, 8)), (2, 2))
    clean = model.forward(x, 2.0, cond)
    delta = np.full(8, 0.5)
    pert = model.forward(x, 2.0, cond, site_hook=_inject(c.depth, KIND_FINAL, 2, delta))
    diff = pert.values - clean.values
    assert np.all(diff[[0, 1, 3]] == 0.0)
    assert np.any(diff[2] != 0.0)
    # the head is linear in the stream, so the row moves by exactly delta @ out_proj
    assert np.allclose(diff[2], delta @ model.out_proj)
    # an edit before the first module reaches every token through attention
    early = model.forward(x, 2.0, cond, site_hook=_inject(0, KIND_SELF, 2, delta))
    assert np.all(np.any(early.values != clean.values, axis=1))


def test_injection_site_validation():
    from toca.analysis import measure_error_propagation

    # the injection helper is the one place that validates a site; the
    # delta is drawn there at the model's width, so no width case remains
    c = cfg()
    model = init_model(c, seed=3)
    cond = Conditioning.random_class(c, 1)
    x = FeatureMatrix(np.zeros((4, 8)), (2, 2))
    for layer, kind, token in (
        (5, KIND_SELF, 0),
        (0, "cross_attn", 0),
        (0, KIND_SELF, 9),
    ):
        with pytest.raises(ValueError):
            measure_error_propagation(model, x, 1.0, cond, layer, kind, token, 0.1)


def test_class_conditioning_enters_input_stream():
    c = cfg(time_scale=0.0)  # silence the timestep term to isolate the class one
    model = init_model(c, seed=0, zero_init=True)
    cond = Conditioning.random_class(c, 7)
    x = FeatureMatrix(np.zeros((4, 8)), (2, 2))
    eps = model.forward(x, 5.0, cond)
    assert np.allclose(eps.values, cond.class_embedding[None, :])


def test_weights_roundtrip(tmp_path, monkeypatch):
    import toca.artifacts

    atomic_paths = []
    real_write = toca.artifacts.atomic_write_bytes

    def spy(path, data):
        atomic_paths.append(path)
        real_write(path, data)

    monkeypatch.setattr(toca.artifacts, "atomic_write_bytes", spy)
    c = cfg(text_tokens=3)
    model = init_model(c, seed=11)
    path = tmp_path / "m.bin"
    save_weights(model, path)
    assert atomic_paths == [path]
    loaded = load_weights(path)
    assert loaded.config == c
    for wa, wb in zip(model.weight_arrays(), loaded.weight_arrays()):
        assert np.allclose(wa, wb, atol=1e-6)  # float32 storage
    # a second save of the loaded model is byte-identical
    path2 = tmp_path / "m2.bin"
    save_weights(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()
    # written through a temp file and rename, which leaves nothing else behind
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.bin", "m2.bin"]


def test_weights_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE 1 2 3\n")
    with pytest.raises(ValueError):
        load_weights(path)
    path.write_bytes(b"TOCA-W1 2 8 2 2 2 0\n" + b"\x00" * 10)
    with pytest.raises(ValueError):
        load_weights(path)


def test_weights_payload_size_checked_before_allocation(tmp_path):
    import tracemalloc

    path = tmp_path / "w.bin"
    # a 2 x 512 model needs 52 MB of float64 weights; the payload is 4 bytes
    path.write_bytes(b"TOCA-W1 2 512 1 1 1 0\n" + b"\x00" * 4)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="weights file truncated"):
            load_weights(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    good = tmp_path / "good.bin"
    save_weights(init_model(cfg(), seed=2), good)
    path.write_bytes(good.read_bytes() + b"\x00" * 4)
    with pytest.raises(ValueError, match="trailing bytes"):
        load_weights(path)
    path.write_bytes(good.read_bytes()[:-1])
    with pytest.raises(ValueError, match="truncated"):
        load_weights(path)


def test_forward_batch_lockstep_matches_separate():
    c = cfg()
    model = init_model(c, seed=5)
    rng = np.random.default_rng(8)
    x = FeatureMatrix(rng.normal(size=(4, 8)), (2, 2))
    cond_a = Conditioning.random_class(c, 1)
    cond_b = Conditioning.null_for(c)
    sep_a = model.forward(x, 2.0, cond_a)
    sep_b = model.forward(x, 2.0, cond_b)
    both = model.forward_batch([x, x], 2.0, [cond_b, cond_a])
    assert np.array_equal(both[1].values, sep_a.values)
    assert np.array_equal(both[0].values, sep_b.values)


@pytest.mark.parametrize("ctx_config", [
    ModelConfig(depth=1, hidden=8, heads=2, grid_h=4, grid_w=16),  # same N and hidden, other grid
    ModelConfig(depth=1, hidden=8, heads=4, grid_h=8, grid_w=8),  # other heads: other flops shares
], ids=["grid", "heads"])
def test_forward_batch_rejects_a_context_built_for_another_config(ctx_config):
    c = ModelConfig(depth=1, hidden=8, heads=2, grid_h=8, grid_w=8)
    model, cond = init_model(c, seed=1), Conditioning.random_class(c, 2)
    x = FeatureMatrix(np.random.default_rng(3).normal(size=(64, 8)), c.grid)
    ctx = CacheContext(PROFILES["toca-pixart"], ctx_config, 4)
    ctx.begin_step(0)
    with pytest.raises(ValueError, match="cache context built for"):
        model.forward(x, 4.0, cond, cache_ctx=ctx)
    ctx = CacheContext(PROFILES["toca-pixart"], ModelConfig(1, 8, 2, 8, 8), 4)  # equal to c, not c
    ctx.begin_step(0)
    assert np.isfinite(model.forward(x, 4.0, cond, cache_ctx=ctx).values).all()


# -- the module callables a cache context runs -------------------------------

# A one-row call may differ from its row of the full call in the last bits
# (NumPy's matrix-vector path): up to 5 ulps of the row's largest entry over
# 60 seeds of this test's shapes
ONE_ROW_ULPS = 8


class _CheckingContext:
    """A cache context that calls every module callable on row subsets too.

    Each dispatch runs the full call, then each subset, records the pair,
    and serves the full outputs, so the forward runs as without a cache.
    """

    def __init__(self, config, batch, subsets):
        self.config, self.batch, self.subsets, self.pairs = config, batch, subsets, []

    def dispatch(self, layer, kind, xs, fns):
        outs = []
        for h, (x, fn) in enumerate(zip(xs, fns)):
            full = fn(x)[0].copy()
            for rows in self.subsets:
                self.pairs.append(((layer, kind, h), rows, fn(x, rows)[0].copy(), full[rows]))
            with pytest.raises(IndexError):
                fn(x, np.array([0, x.shape[0]]))
            outs.append(full)
        return outs


@pytest.mark.parametrize("text", [True, False], ids=["text", "class"])
def test_module_callables_gather_what_the_full_call_computes(text):
    """The live partial call: fn(x, rows) is fn(x)[rows] at every site and half."""
    c = cfg(depth=2, hidden=16, heads=4, grid_h=4, grid_w=4, text_tokens=3 if text else 0)
    model = init_model(c, seed=3)
    cond = Conditioning.random_text(c, 4) if text else Conditioning.random_class(c, 4)
    x = FeatureMatrix(np.random.default_rng(5).normal(size=(16, 16)), c.grid)
    multi = [np.array([0, 5, 6, 11]), np.array([3, 9]), np.array([1, 2, 7, 8, 13, 14, 15])]
    one = [np.array([7]), np.array([15])]
    ctx = _CheckingContext(c, 2, multi + one)
    want = model.forward_batch([x, x], 5.0, [Conditioning.null_for(c), cond])
    got = model.forward_batch([x, x], 5.0, [Conditioning.null_for(c), cond], cache_ctx=ctx)
    assert all(np.array_equal(a.values, b.values) for a, b in zip(got, want))
    assert {site for site, *_ in ctx.pairs} == {(*s, h) for s in c.sites for h in (0, 1)}
    for site, rows, part, full_rows in ctx.pairs:
        if len(rows) > 1:
            assert np.array_equal(part, full_rows), (site, rows)
        else:
            ulp = np.finfo(np.float64).eps * np.abs(full_rows).max()
            np.testing.assert_allclose(part, full_rows, rtol=0, atol=ONE_ROW_ULPS * ulp)


def test_mid_mlp_row_blocks_from_the_floor_up_are_the_full_call(monkeypatch):
    """What a row split relies on, at the mid MLP: 128 -> 512 -> 128 on a 256-row stream.

    Near-equal row blocks of at least _SPLIT_MIN_ROWS rows are bitwise the
    rows of the call they split, run through the kernel's own split too (the
    rule at its floors). A one-row call still differs from its row of the
    full call in the last bit (NumPy's matrix-vector path), and on OpenBLAS
    so does every call of 1-15 rows here: hence the floor.
    """
    c = ModelConfig(depth=1, hidden=128, heads=8, grid_h=16, grid_w=16)
    w = init_model(c, seed=7).groups[0].mlp
    x = layer_norm_rows(np.random.default_rng(0).standard_normal((256, 128)))
    floor = toca_model._SPLIT_MIN_ROWS
    for m in (2 * floor, 2 * floor + 1, 92, 201, 256):
        full = mlp_forward(x[:m], w)
        half = m // 2
        assert np.array_equal(mlp_forward(x[:half], w), full[:half]), m
        assert np.array_equal(mlp_forward(x[half:m], w), full[half:]), m
        with monkeypatch.context() as patch:
            trips, run_halves = [], toca_model.run_halves
            patch.setattr(toca_model, "two_cpus", lambda: True)
            patch.setattr(toca_model, "_SPLIT_FLOPS", 0)
            patch.setattr(toca_model, "run_halves", lambda f: trips.append(1) or run_halves(f))
            split = mlp_forward(x[:m], w)
        assert trips and np.array_equal(split, full), m
    full = mlp_forward(x, w)
    one = mlp_forward(x[7:8], w)
    assert not np.array_equal(one, full[7:8])
    ulp = np.finfo(np.float64).eps * np.abs(full[7]).max()
    np.testing.assert_allclose(one, full[7:8], rtol=0, atol=ONE_ROW_ULPS * ulp)


def _frame_arrays(ws):
    """(buffer name, array) for every array each of ws's frames holds."""
    for (build, *_), frame in ws._frames.items():
        yield from ((name, getattr(frame, name)) for name in build.names)
        yield from (("k", frame.k3), ("v", frame.v3))
        for a, a3, q3, k3, v3, o3, head0, rest in frame.groups:
            yield from (("logits", a), ("logits", a3), ("q", q3), ("k", k3), ("v", v3))
            yield from (("head_out", o3), *(("logits", h) for h in (head0, *rest) if h is not None))


def test_frames_survive_a_shared_regrowing_workspace(monkeypatch):
    """One workspace serves mixed kernel calls with each call's bits on a fresh workspace.

    A regrown buffer drops exactly the frames that view it, and every array
    a kept or rebuilt frame holds is a view of the current buffer of its
    name. Forced row splits read the same frames and give the same bits.
    """
    rng = np.random.default_rng(29)
    d, heads = 16, 4
    x, text, big = rng.normal(size=(256, d)), rng.normal(size=(5, d)), rng.normal(size=(300, d))
    attn = AttnWeights(*(rng.normal(size=(d, d)) for _ in range(4)))
    mlp = MlpWeights(rng.normal(size=(d, 4 * d)), rng.normal(size=(4 * d, d)))
    rows = [0, 3, 7, 12, 40, 63]
    calls = {
        "self": lambda ws: self_attention_forward(x[:64], attn, heads, ws=ws),
        "self-rows": lambda ws: self_attention_forward(x[:64], attn, heads, rows=rows, ws=ws),
        "cross": lambda ws: cross_attention_forward(x[:64], text, attn, heads, ws=ws),
        "mlp-64": lambda ws: mlp_forward(x[:64], mlp, ws=ws),
        "mlp-12": lambda ws: mlp_forward(x[:12], mlp, ws=ws),
        "mlp-256": lambda ws: mlp_forward(x, mlp, ws=ws),
        "cross-more-text": lambda ws: cross_attention_forward(x[:8], big[:80], attn, heads, ws=ws),
        "self-300": lambda ws: self_attention_forward(big, attn, heads, ws=ws),
    }

    def outputs(result):
        return [r.copy() for r in (result if isinstance(result, tuple) else (result,))]

    want = {name: outputs(call(Workspace())) for name, call in calls.items()}
    ws = Workspace()

    def run(*names):
        for name in names:
            got = outputs(calls[name](ws))
            assert all(np.array_equal(g, w) for g, w in zip(got, want[name])), name
        for name, arr in _frame_arrays(ws):
            assert np.shares_memory(arr, ws._bufs[name]), name

    def mlp_in_current_buffers():
        for m in (12, 64):
            out = mlp_forward(x[:m], mlp, ws=ws)
            assert np.shares_memory(out, ws._bufs["out"]), m
            hidden = ws._views["logits", m, 4 * d]  # the view the call took for its hidden layer
            assert np.shares_memory(hidden, ws._bufs["logits"]), m

    # the 256-row MLP regrows "out" and drops every frame made before it
    run("self", "self-rows", "cross", "mlp-64", "mlp-12", "mlp-256", "self", "mlp-12", "mlp-64")
    mlp_in_current_buffers()
    before = dict(ws._bufs)
    run("cross-more-text")  # 80 key rows regrow "k" and "v" only
    regrown = {name for name, buf in ws._bufs.items() if buf is not before[name]}
    assert regrown == {"k", "v"}
    assert all("k" not in k[0].names or k[1:] == (8, 80, d, heads) for k in ws._frames)
    mlp_in_current_buffers()
    before = dict(ws._bufs)
    run("self-300")
    regrown = {name for name, buf in ws._bufs.items() if buf is not before[name]}
    assert {"logits", "out"} <= regrown
    mlp_in_current_buffers()
    run(*calls)

    trips, run_halves = [], toca_model.run_halves
    monkeypatch.setattr(toca_model, "two_cpus", lambda: True)
    monkeypatch.setattr(toca_model, "_SPLIT_FLOPS", 0)
    monkeypatch.setattr(toca_model, "run_halves", lambda f: trips.append(1) or run_halves(f))
    run("self", "mlp-64")
    assert len(trips) == 2


# -- reused buffers and the site hook ---------------------------------------


def _text_model(seed=5):
    c = cfg(text_tokens=3, grid_h=3, grid_w=3)
    conds = [Conditioning.null_for(c), Conditioning.random_text(c, seed)]
    return c, init_model(c, seed=seed), conds


def test_forward_output_survives_later_calls():
    c, model, (_, cond) = _text_model()
    rng = np.random.default_rng(1)
    ws = Workspace()
    first = model.forward(FeatureMatrix(rng.normal(size=(9, 8)), c.grid), 2.0, cond, ws=ws)
    kept = first.values.copy()
    model.forward(FeatureMatrix(rng.normal(size=(9, 8)), c.grid), 1.0, cond, ws=ws)
    assert np.array_equal(first.values, kept)


def test_guided_batch_matches_single_streams_with_reused_workspaces():
    """Stream 1 must not overwrite stream 0's buffers before its residual add."""
    c, model, conds = _text_model()
    rng = np.random.default_rng(8)
    ws_batch, ws_single = Workspace(), Workspace()
    for t in (3.0, 2.0, 1.0):
        x = FeatureMatrix(rng.normal(size=(9, 8)), c.grid)
        both = model.forward_batch([x, x], t, conds, ws=ws_batch)
        for h, cond in enumerate(conds):
            assert np.array_equal(both[h].values, model.forward(x, t, cond, ws=ws_single).values)


class _Recording(Workspace):
    """A workspace that records every name taken from it."""

    def __init__(self):
        super().__init__()
        self.names = set()

    def take(self, name, m, n):
        self.names.add(name)
        return super().take(name, m, n)


@pytest.mark.parametrize("cached", [False, True])
@pytest.mark.parametrize("batch", [1, 2])
def test_a_forward_keeps_only_each_members_stream_in_the_workspace(batch, cached):
    """Every other buffer of a member is scratch of the thread that runs its module call."""
    c, model, conds = _text_model()
    steps = 6
    ctx = CacheContext(PROFILES["toca-pixart"], c, steps, batch=batch) if cached else None
    ws = _Recording()
    rng = np.random.default_rng(2)
    for step in range(steps):
        if ctx is not None:
            ctx.begin_step(step)
        x = FeatureMatrix(rng.normal(size=(9, 8)), c.grid)
        model.forward_batch([x] * batch, float(steps - step), conds[-batch:], ctx, ws)
    assert ctx is None or any(0 < e.cached < c.n_tokens for row in ctx.plan for e in row.values())
    per_member = {name for name in ws.names if isinstance(name, tuple)}
    assert per_member == {("stream", h) for h in range(batch)}


def test_site_hook_sees_every_stream():
    """The hook's streams are bitwise the residual streams a plain rebuild computes."""
    c, model, conds = _text_model(seed=2)
    x = FeatureMatrix(np.random.default_rng(3).normal(size=(9, 8)), c.grid)
    seen = []

    def hook(layer, kind, streams):
        seen.append((layer, kind, [s.copy() for s in streams]))

    eps = model.forward_batch([x, x], 2.0, conds, ws=Workspace(), site_hook=hook)
    assert [(layer, kind) for layer, kind, _ in seen] == list(c.sites)
    for h, cond in enumerate(conds):
        stream = model.input_stream(x, 2.0, cond)
        for layer, kind, streams in seen[:-1]:
            assert np.array_equal(streams[h], stream)
            stream = stream + model._apply(layer, kind, cond, stream)[0]
        assert np.array_equal(seen[-1][2][h], stream)
        assert np.array_equal(eps[h].values, model._apply(c.depth, KIND_FINAL, cond, stream)[0])


def test_forward_without_hook_keeps_no_module_outputs():
    """What a forward holds on to does not grow with the number of modules."""
    nd_bytes = 64 * 16 * 8
    held = {}
    for depth in (1, 8):
        c = cfg(depth=depth, hidden=16, grid_h=8, grid_w=8)
        model = init_model(c, seed=1)
        cond = Conditioning.random_class(c, 2)
        x = FeatureMatrix(np.random.default_rng(0).normal(size=(64, 16)), c.grid)
        ws = Workspace()
        model.forward(x, 3.0, cond, ws=ws)  # the first call sizes the workspace
        tracemalloc.start()
        try:
            eps = model.forward(x, 3.0, cond, ws=ws)
            held[depth] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert eps.values.shape == (64, 16)
    current, peak = held[8]
    assert current < 1.5 * nd_bytes  # the returned prediction, nothing per module
    # 16 modules ran; per-module outputs kept alive would add 15 (N, D) arrays
    assert peak - held[1][1] < nd_bytes
