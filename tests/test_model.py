import numpy as np
import pytest

from toca import Conditioning, FeatureMatrix, Injection, ModelConfig, init_model
from toca.model import (
    KIND_FINAL,
    KIND_MLP,
    KIND_SELF,
    CrossAttnWeights,
    MlpWeights,
    SelfAttnWeights,
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
    part = mlp_forward(x, w, rows=np.array([1, 4]))
    assert np.array_equal(part, full[[1, 4]])


def test_self_attention_map_is_row_stochastic():
    rng = np.random.default_rng(1)
    d = 8
    w = SelfAttnWeights(*(rng.normal(size=(d, d)) for _ in range(4)))
    x = rng.normal(size=(5, d))
    out, attn = self_attention_forward(x, w, heads=2)
    assert out.shape == (5, d)
    assert attn.shape == (5, 5)
    assert np.allclose(attn.sum(axis=1), 1.0, atol=1e-12)


def test_self_attention_zero_queries_give_uniform_map():
    rng = np.random.default_rng(2)
    d = 4
    w = SelfAttnWeights(
        wq=np.zeros((d, d)), wk=rng.normal(size=(d, d)),
        wv=rng.normal(size=(d, d)), wo=rng.normal(size=(d, d)),
    )
    _, attn = self_attention_forward(rng.normal(size=(3, d)), w, heads=1)
    assert np.allclose(attn, 1.0 / 3.0)


def test_self_attention_partial_rows_match_full():
    rng = np.random.default_rng(3)
    d = 8
    w = SelfAttnWeights(*(rng.normal(size=(d, d)) for _ in range(4)))
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
        w = SelfAttnWeights(*(rng.normal(size=(d, d)) for _ in range(4)))
        out, attn = self_attention_forward(x, w, heads, rows=rows)
        kv = x
    else:
        w = CrossAttnWeights(*(rng.normal(size=(d, d)) for _ in range(4)))
        kv = rng.normal(size=(5, d))
        out, attn = cross_attention_forward(x, kv, w, heads, rows=rows)
    ref_out, ref_attn = _attention_ref(x, kv, w, heads, None if rows is None else np.array(rows))
    assert np.array_equal(out, ref_out)
    assert np.array_equal(attn, ref_attn)


def test_cross_attention_needs_text():
    rng = np.random.default_rng(4)
    d = 4
    w = CrossAttnWeights(*(rng.normal(size=(d, d)) for _ in range(4)))
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
    eps, records = model.forward(x, 3.0, cond)
    # all residual modules are zero and the output head is identity
    assert np.array_equal(eps.values, model.input_stream(x, 3.0, cond))
    assert all(np.all(r.output == 0.0) for r in records)


def test_forward_record_layout():
    c = cfg(text_tokens=3)
    model = init_model(c, seed=0)
    cond = Conditioning.random_text(c, 1)
    x = FeatureMatrix(np.zeros((4, 8)), (2, 2))
    eps, records = model.forward(x, 1.0, cond)
    assert eps.values.shape == (4, 8)
    assert len(records) == c.depth * 3
    kinds = [r.kind for r in records[:3]]
    assert kinds == list(c.group_kinds)
    # self and cross attention carry maps, the mlp does not
    assert records[0].attention is not None
    assert records[1].attention is not None
    assert records[2].attention is None


def test_injection_perturbs_single_site():
    c = cfg()
    model = init_model(c, seed=3)
    cond = Conditioning.random_class(c, 1)
    x = FeatureMatrix(np.random.default_rng(0).normal(size=(4, 8)), (2, 2))
    clean, _ = model.forward(x, 2.0, cond)
    delta = np.full(8, 0.5)
    pert, _ = model.forward(
        x, 2.0, cond, inject=Injection(layer=c.depth, kind=KIND_FINAL, token=2, delta=delta)
    )
    diff = pert.values - clean.values
    assert np.all(diff[[0, 1, 3]] == 0.0)
    assert np.any(diff[2] != 0.0)


def test_injection_site_validation():
    c = cfg()
    model = init_model(c, seed=3)
    cond = Conditioning.random_class(c, 1)
    x = FeatureMatrix(np.zeros((4, 8)), (2, 2))
    for bad in (
        Injection(layer=5, kind=KIND_SELF, token=0, delta=np.zeros(8)),
        Injection(layer=0, kind="cross_attn", token=0, delta=np.zeros(8)),
        Injection(layer=0, kind=KIND_SELF, token=9, delta=np.zeros(8)),
        Injection(layer=0, kind=KIND_SELF, token=0, delta=np.zeros(3)),
    ):
        with pytest.raises(ValueError):
            model.forward(x, 1.0, cond, inject=bad)


def test_class_conditioning_enters_input_stream():
    c = cfg(time_scale=0.0)  # silence the timestep term to isolate the class one
    model = init_model(c, seed=0, zero_init=True)
    cond = Conditioning.random_class(c, 7)
    x = FeatureMatrix(np.zeros((4, 8)), (2, 2))
    eps, _ = model.forward(x, 5.0, cond)
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


def test_forward_batch_lockstep_matches_separate():
    c = cfg()
    model = init_model(c, seed=5)
    rng = np.random.default_rng(8)
    x = FeatureMatrix(rng.normal(size=(4, 8)), (2, 2))
    cond_a = Conditioning.random_class(c, 1)
    cond_b = Conditioning.null_for(c)
    sep_a, _ = model.forward(x, 2.0, cond_a)
    sep_b, _ = model.forward(x, 2.0, cond_b)
    both = model.forward_batch([x, x], 2.0, [cond_b, cond_a])
    assert np.array_equal(both[1][0].values, sep_a.values)
    assert np.array_equal(both[0][0].values, sep_b.values)
