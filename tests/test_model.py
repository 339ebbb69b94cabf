"""Variant wiring checks: embeddings against hand oracles, adjacency and
attention structure, permutation equivariance, exact offset telescoping, and
end-to-end gradients for the cheap variants."""

import warnings

import numpy as np
import pytest

from g2k import autodiff as ad
from g2k import data as da
from g2k import model as md
from g2k import neighborhood as nb
from g2k import training as tr
from g2k.config import VARIANTS, ModelConfig, desk_config


def desk_batch(kind="group_walk", n=3, seed=11, noise=0.0):
    sc = da.SyntheticScenario(kind=kind, n_peds=n, noise_sigma=noise, seed=seed,
                              obs_len=3, pred_len=2)
    return da.synthesize(sc)[0]


def desk_model(variant="mcr_n", seed=0, **overrides):
    cfg = desk_config(variant)
    for k, v in overrides.items():
        setattr(cfg, k, v)
    return md.TrajectoryModel(cfg, seed=seed)


def adjacency(m, h):
    """One scene's adjacency map over node states h."""
    return m.adjacency_map(h, nb.SceneBlocks([h.data.shape[0]], 0))


def steps(node):
    """The (N, 2) blocks of a decoded (N, 2 * pred_len) node, one per step."""
    return np.split(node.data, node.data.shape[1] // 2, axis=1)


# ---------------------------------------------------------------------------
# embeddings


def test_embed_positions_identity_maps():
    m = desk_model("g_lstm", embed_pos=2, num_blocks=1)
    m.w_pos1.data[...] = np.eye(2)
    m.w_pos2.data[...] = np.eye(2)
    x = np.array([[0.5, -1.5], [2.0, 3.0]])
    assert np.array_equal(m.embed_positions(ad.constant(x)).data, x)


def test_embed_positions_annihilator_and_oracle():
    m = desk_model("g_lstm", embed_pos=2, num_blocks=1)
    g = np.random.default_rng(0)
    w1, w2 = g.normal(size=(2, 2)), g.normal(size=(2, 2))
    m.w_pos1.data[...] = w1
    m.w_pos2.data[...] = w2
    x = np.array([[1.0, 2.0]])
    assert np.allclose(m.embed_positions(ad.constant(x)).data, x @ w1 @ w2, atol=1e-15)
    m.w_pos2.data[...] = 0.0
    assert np.all(m.embed_positions(ad.constant(x)).data == 0.0)


def test_embed_vislets_identity_and_column_selection():
    m = desk_model("mc", embed_pos=2, embed_vis=2, num_blocks=1)
    m.w_vis.data[...] = np.eye(2)
    v = np.array([[0.0, 1.0], [0.0, 0.0]])  # pan pi/2 and absent
    out = m.embed_vislets(ad.constant(v))
    assert np.array_equal(out.data, v)
    g = np.random.default_rng(1)
    w = g.normal(size=(2, 2))
    m.w_vis.data[...] = w
    out = m.embed_vislets(ad.constant(np.array([[0.0, 1.0]])))
    assert np.allclose(out.data, w[1], atol=1e-15)  # second row = pan pi/2 image


def test_embed_vislets_rejects_non_unit():
    m = desk_model("mc")
    with pytest.raises(md.InputError, match="unit"):
        m.embed_vislets(ad.constant([[0.5, 0.5]]))


# ---------------------------------------------------------------------------
# attention / adjacency pieces


def test_attention_constant_row_is_uniform():
    m = desk_model()
    out = m.attention(ad.constant(np.full((2, 5), 3.7)))
    assert np.allclose(out.data, 0.2, atol=1e-12)


def test_attention_dominant_column_no_overflow():
    m = desk_model()
    x = np.zeros((1, 4))
    x[0, 2] = 1000.0
    out = m.attention(ad.constant(x))
    assert np.isfinite(out.data).all()
    assert out.data[0, 2] == pytest.approx(1.0, abs=1e-12)


def test_attention_reference_oracle():
    m = desk_model()
    out = m.attention(ad.constant([[1.0, 2.0, 3.0]]))
    e = np.exp([1.0, 2.0, 3.0])
    assert np.max(np.abs(out.data - e / e.sum())) < 1e-12


def test_node_softmax_rows_in_unit_interval():
    # mcr_n squashes node states with ad.stable_softmax before the adjacency
    g = np.random.default_rng(2)
    out = ad.stable_softmax(ad.constant(g.normal(size=(4, 6)) * 10))
    assert np.all((out.data >= 0) & (out.data <= 1))
    assert np.allclose(out.data.sum(axis=1), 1.0, atol=1e-12)


def test_adjacency_rows_sum_to_one():
    m = desk_model()
    g = np.random.default_rng(3)
    h = ad.constant(g.normal(size=(5, m.cfg.hidden_size)))
    a = adjacency(m, h)
    assert a.data.shape == (5, 5)
    assert np.allclose(a.data.sum(axis=1), 1.0, atol=1e-9)


def test_adjacency_single_node():
    m = desk_model()
    a = adjacency(m, ad.constant(np.ones((1, m.cfg.hidden_size))))
    assert a.data.shape == (1, 1)
    assert a.data[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_adjacency_identical_rows_uniform():
    m = desk_model()
    h = ad.constant(np.tile(np.linspace(0, 1, m.cfg.hidden_size), (3, 1)))
    a = adjacency(m, h)
    assert np.allclose(a.data, 1.0 / 3.0, atol=1e-12)


def test_adjacency_matches_bilinear_oracle():
    m = desk_model()
    g = np.random.default_rng(4)
    h = g.normal(size=(3, m.cfg.hidden_size))
    a = adjacency(m, ad.constant(h))
    logits = h @ m.w_a.data @ h.T
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    assert np.max(np.abs(a.data - e / e.sum(axis=1, keepdims=True))) < 1e-12


def test_adjacency_self_loop_flag():
    m = desk_model(self_loops=False)
    g = np.random.default_rng(5)
    a = adjacency(m, ad.constant(g.normal(size=(3, m.cfg.hidden_size))))
    assert np.allclose(np.diag(a.data), 0.0, atol=1e-12)
    assert np.allclose(a.data.sum(axis=1), 1.0, atol=1e-9)


def test_update_states_cases():
    # state mixing H* = A @ H, as run() applies it with ad.matmul
    g = np.random.default_rng(6)
    h = g.normal(size=(3, 4))
    assert np.array_equal(ad.matmul(ad.constant(np.eye(3)), ad.constant(h)).data, h)
    uniform = np.full((3, 3), 1.0 / 3.0)
    mixed = ad.matmul(ad.constant(uniform), ad.constant(h)).data
    assert np.allclose(mixed, np.tile(h.mean(axis=0), (3, 1)), atol=1e-15)
    a = np.array([[0.25, 0.75], [0.5, 0.5]])
    h2 = np.array([[2.0, 0.0], [0.0, 4.0]])
    assert np.allclose(
        ad.matmul(ad.constant(a), ad.constant(h2)).data,
        [[0.5, 3.0], [1.0, 2.0]], atol=1e-15,
    )


def test_message_pass_tau_zero_keeps_everything():
    m = desk_model("mcr_mp")
    g = np.random.default_rng(7)
    h = ad.constant(g.normal(size=(3, 8)))
    w = ad.constant(g.normal(size=(3, 8)))
    out = m.message_pass(h, w, tau=0.0)
    assert np.allclose(out.data.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(out.data > 0)


def test_message_pass_thresholds_sub_uniform():
    m = desk_model("mcr_mp")
    h = ad.constant([[1.0, 2.0], [3.0, 1.0]])
    w = ad.constant(np.ones((2, 2)))
    soft = np.exp([[1.0, 2.0], [3.0, 1.0]])
    soft = soft / soft.sum(axis=1, keepdims=True)
    out = m.message_pass(h, w, tau=0.5)
    expect = np.where(soft >= 0.5, soft, 0.0)
    assert np.max(np.abs(out.data - expect)) < 1e-12
    assert (out.data == 0).sum() == 2  # exactly the sub-uniform entry per row


def test_fuse_features_term_by_term_oracle():
    m = desk_model("mcr_n", seed=3)
    g = np.random.default_rng(8)
    d, dv, z = m.cfg.feature_dim, m.cfg.embed_vis, m.cfg.zones
    f_s = g.normal(size=(2, d))
    v = g.normal(size=(2, dv))
    out = m.fuse_features(ad.constant(f_s), ad.constant(v), ad.constant(f_s),
                          nb.SceneBlocks([2], m.cfg.num_cells))
    u = np.hstack([f_s, v]) @ m.w_v.data + m.b_v.data
    r = f_s @ m.w_r.data
    assert np.max(np.abs(out.data - u * r)) < 1e-12
    assert out.data.shape == (2, z)


def test_fuse_features_wr_zero_annihilates():
    m = desk_model("mcr_n")
    m.w_r.data[...] = 0.0
    g = np.random.default_rng(9)
    out = m.fuse_features(
        ad.constant(g.normal(size=(2, m.cfg.feature_dim))),
        ad.constant(g.normal(size=(2, m.cfg.embed_vis))),
        ad.constant(g.normal(size=(2, m.cfg.feature_dim))),
        nb.SceneBlocks([2], m.cfg.num_cells),
    )
    assert np.all(out.data == 0.0)


def test_fuse_features_conv_context_term():
    m = desk_model("mcr_mpc", seed=3)
    g = np.random.default_rng(10)
    f_s = g.normal(size=(2, m.cfg.feature_dim))
    v = g.normal(size=(2, m.cfg.embed_vis))
    rel = g.normal(size=(2, m.cfg.num_cells))
    c_mat = g.normal(size=(m.cfg.num_cells, m.cfg.cell_channels + m.cfg.feature_dim))
    out = m.fuse_features(ad.constant(f_s), ad.constant(v), ad.constant(rel),
                          nb.SceneBlocks([2], m.cfg.num_cells), ad.constant(c_mat))
    u = np.hstack([f_s, v]) @ m.w_v.data + m.b_v.data
    ctx = c_mat.mean(axis=0, keepdims=True) @ m.w_c.data
    assert np.max(np.abs(out.data - u * (rel @ m.w_r.data) * ctx)) < 1e-12


# ---------------------------------------------------------------------------
# full runs


@pytest.mark.parametrize("variant", VARIANTS)
def test_prediction_shape_contract(variant):
    m = desk_model(variant)
    run = m.run(desk_batch())
    assert run.predictions.shape == (3, 2, 2)


def test_zero_decoder_repeats_last_position():
    m = desk_model("mcr_mp")
    m.w_out.data[...] = 0.0
    m.b_out.data[...] = 0.0
    batch = desk_batch()
    run = m.run(batch)
    last = da.obs_positions(batch)[-1]
    for pos in steps(run.positions):
        assert np.array_equal(pos, last)


@pytest.mark.parametrize("variant", VARIANTS)
def test_offsets_telescope_exactly(variant):
    m = desk_model(variant, seed=2)
    batch = desk_batch(seed=5)
    run = m.run(batch)
    prev = da.obs_positions(batch)[-1]
    for pos, off in zip(steps(run.positions), steps(run.offsets)):
        assert np.array_equal(pos - prev, off) or np.array_equal(
            pos, prev + off
        )
        prev = pos


def test_g_lstm_ignores_vislets():
    m = desk_model("g_lstm")
    batch = desk_batch(seed=13)
    run1 = m.run(batch)
    batch.vislets = np.zeros_like(batch.vislets)
    run2 = m.run(batch)
    assert np.array_equal(run1.predictions, run2.predictions)


def test_multi_cue_requires_vislets():
    batch = desk_batch()
    batch.vislets = None
    m = desk_model("mc")
    with pytest.raises(md.InputError, match="vislet"):
        m.run(batch)


def test_obs_length_mismatch_rejected():
    m = desk_model("g_lstm")
    sc = da.SyntheticScenario(kind="group_walk", n_peds=3, seed=1, obs_len=4, pred_len=2)
    with pytest.raises(md.InputError, match="observed steps"):
        m.run(da.synthesize(sc)[0])


def test_empty_scene_rejected_alone_and_in_pack():
    m = desk_model("mcr_n")
    empty = desk_batch().take([])
    with pytest.raises(md.InputError, match="scene 0 of the pack has no pedestrians"):
        m.run(empty)
    with pytest.raises(md.InputError, match="scene 1 of the pack has no pedestrians"):
        m.run([desk_batch(), empty, desk_batch(seed=12)])


@pytest.mark.parametrize("variant", VARIANTS)
def test_permutation_equivariance(variant):
    m = desk_model(variant, seed=4)
    batch = desk_batch(seed=17)
    perm = [2, 0, 1]
    permuted = batch.take(perm)
    base = m.run(batch)
    swapped = m.run(permuted)
    assert np.max(np.abs(base.predictions[perm] - swapped.predictions)) < 1e-9
    if variant in md.RELATIONAL:
        p = np.eye(3)[perm]
        for a_base, a_perm in zip(base.diagnostics.adjacency, swapped.diagnostics.adjacency):
            assert np.max(np.abs(p @ a_base @ p.T - a_perm)) < 1e-9


@pytest.mark.parametrize("variant", VARIANTS)
def test_no_grad_run_is_bit_identical(variant):
    m = desk_model(variant, seed=5)
    batch = desk_batch(seed=19)
    targets = da.target_positions(batch)
    run = m.run(batch)
    loss = tr.loss_graph(run, targets)
    with ad.no_grad():
        free = m.run(batch)
        free_loss = tr.loss_graph(free, targets)
    assert free.predictions.tobytes() == run.predictions.tobytes()
    assert free_loss.data.tobytes() == loss.data.tobytes()
    for node in (free.positions, free.offsets, free_loss):
        assert node.parents == () and not node.requires_grad
        assert node.grad is None and node._backward is None
    assert loss.requires_grad and loss.parents


def test_adjacency_diagnostics_row_stochastic():
    m = desk_model("mcr_mp", seed=6)
    run = m.run(desk_batch(seed=19))
    assert len(run.diagnostics.adjacency) == 3
    for a in run.diagnostics.adjacency:
        assert np.allclose(a.sum(axis=1), 1.0, atol=1e-9)
    for att in run.diagnostics.attention:
        assert np.allclose(att.sum(axis=1), 1.0, atol=1e-9)


def test_static_diagnostics_present_only_with_grid():
    diag = desk_model("mcr_mp", seed=8).run(desk_batch(seed=23)).diagnostics
    assert len(diag.ped_cell_attention) == len(diag.cell_attention) == 3
    for a_ped, a_cells in zip(diag.ped_cell_attention, diag.cell_attention):
        assert np.allclose(a_ped.sum(axis=1), 1.0, atol=1e-9)
        assert a_cells.shape == (4,) and abs(a_cells.sum() - 1.0) < 1e-9
    no_grid = desk_model("mcr_n", seed=8).run(desk_batch(seed=23))
    assert no_grid.diagnostics.ped_cell_attention == []
    assert no_grid.diagnostics.cell_attention == []


def test_recorded_maps_survive_backward_update_and_rerun():
    # the maps are the forward's own arrays, not copies: nothing may write
    # them once recorded
    m = desk_model("mcr_mp", seed=8, lambda_reg=1.0, init_scale=0.3)
    batch = desk_batch(seed=23)

    def maps(run):
        d = run.diagnostics
        return [*d.adjacency, *d.attention, *d.ped_cell_attention, *d.cell_attention]

    run = m.run(batch)
    before = [a.copy() for a in maps(run)]
    ad.backward(tr.loss_graph(run, da.target_positions(batch)))
    tr.Adam(lr=0.1).step(m.params)
    again = maps(m.run(batch))
    for a, b, c in zip(maps(run), before, again):
        assert a.tobytes() == b.tobytes()
        assert a.tobytes() != c.tobytes()  # the update moved every map


def test_attention_ablated_still_runs():
    m = desk_model("mcr_mp", seed=10, attention_enabled=False)
    run = m.run(desk_batch(seed=31))
    for att in run.diagnostics.attention:
        assert np.allclose(att, att[0, 0], atol=0)  # uniform rows


def test_mpc_without_image_warns_and_runs():
    # the check warns, once per call; the forward runs on the fallback map
    # without a warning
    m = desk_model("mcr_mpc", seed=12)
    batch = desk_batch(seed=37)
    with pytest.warns(UserWarning) as caught:
        m.warn_missing_images([batch, batch])
    assert [str(w.message) for w in caught] == [
        "no scene image in 2 of 2 scenes; using a constant fallback map"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run = m.run(batch)
        # no static grid reads an image here
        desk_model("mcr_mp").warn_missing_images([batch])
    assert run.predictions.shape == (3, 2, 2)


def test_mpc_with_image_uses_it_silently():
    m = desk_model("mcr_mpc", seed=12)
    batch = desk_batch(seed=37)
    batch.scene_image = np.random.default_rng(0).integers(0, 255, (8, 8)).astype(np.uint8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m.warn_missing_images([batch])
        run = m.run(batch)
    assert run.predictions.shape == (3, 2, 2)


def test_same_seed_same_model():
    a = desk_model("mcr_mp", seed=21)
    b = desk_model("mcr_mp", seed=21)
    batch = desk_batch(seed=41)
    assert np.array_equal(a.run(batch).predictions, b.run(batch).predictions)


@pytest.mark.parametrize("variant,budget", [("g_lstm", 70), ("mcr_mp", 490)])
def test_paper_scale_node_budget(variant, budget):
    # each grid-LSTM step, social and static, is one fused node and two
    # slices; decode and loss are a handful of nodes for all pred_len steps
    sc = da.SyntheticScenario(kind="group_walk", n_peds=16, seed=3)
    batch = da.synthesize(sc)[0]
    model = md.TrajectoryModel(ModelConfig(variant=variant), seed=0)
    loss = tr.loss_graph(model.run(batch), da.target_positions(batch))
    assert len(ad._topo_order(loss)) <= budget


# ---------------------------------------------------------------------------
# decode and loss against the per-step oracle


def per_step_decode(model, h_final, last_obs):
    """Oracle decode: one slice and one add per predicted step."""
    flat = ad.bias_add(ad.matmul(h_final, model.w_out), model.b_out)
    positions = []
    prev = ad.constant(last_obs)
    for s in range(model.cfg.pred_len):
        prev = ad.add(prev, ad.slice_cols(flat, 2 * s, 2 * s + 2))
        positions.append(prev)
    return positions


def per_step_loss(positions, sizes, targets):
    """Oracle loss: squared error summed step by step, each pedestrian of a
    packed scene s weighted by N / (S * n_s)."""
    n = positions[0].data.shape[0]
    weights = None
    if len(sizes) > 1:
        per_scene = n / (len(sizes) * np.array(sizes, dtype=np.float64))
        weights = ad.constant(np.repeat(per_scene, sizes)[:, None] * np.ones((1, 2)))
    total = None
    for k, pos in enumerate(positions):
        diff = ad.sub(pos, ad.constant(targets[k]))
        sq = ad.mul(diff, diff)
        if weights is not None:
            sq = ad.mul(sq, weights)
        sq = ad.sum_all(sq)
        total = sq if total is None else ad.add(total, sq)
    return ad.scale(total, 1.0 / (n * len(positions)))


def decode_case(scale, variant, packed):
    """A model at desk or paper scale predicting 12 steps, and one scene or
    a pack of five; mcr_mpc scenes alternate with and without an image."""
    cfg = ModelConfig(variant=variant) if scale == "paper" else desk_config(variant)
    cfg.pred_len = 12
    sizes = (1, 3, 7, 2, 24) if packed else (5,)
    scenes = [
        da.synthesize(da.SyntheticScenario(kind="group_walk", n_peds=n, seed=20 + i,
                                           obs_len=cfg.obs_len, pred_len=12))[0]
        for i, n in enumerate(sizes)
    ]
    images = np.random.default_rng(4).integers(0, 256, (len(sizes), 24, 24))
    for b, img in list(zip(scenes, images))[::2]:
        b.scene_image = img.astype(np.uint8)
    return md.TrajectoryModel(cfg, seed=3), scenes


@pytest.mark.parametrize("packed", [False, True], ids=["single", "pack"])
@pytest.mark.parametrize("scale", ["desk", "paper"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_decode_and_loss_match_per_step_oracle(variant, scale, packed, monkeypatch):
    model, scenes = decode_case(scale, variant, packed)
    batch = scenes if packed else scenes[0]
    targets = np.concatenate([da.target_positions(b) for b in scenes], axis=1)

    run = model.run(batch)
    loss = tr.loss_graph(run, targets)
    ad.backward(loss)
    grads = {p.name: p.value.grad.tobytes() for p in model.params}

    model.params.zero_grad()
    monkeypatch.setattr(model, "_decode", lambda h, last_obs, diag, sizes: (
        per_step_decode(model, h, last_obs), sizes))
    positions, sizes = model.run(batch)
    oracle = per_step_loss(positions, sizes, targets)
    ad.backward(oracle)

    assert run.predictions.tobytes() == np.stack([p.data for p in positions], axis=1).tobytes()
    for p in model.params:
        assert p.value.grad.tobytes() == grads[p.name], p.name
    assert abs(loss.data[0, 0] - oracle.data[0, 0]) <= 1e-15 * abs(oracle.data[0, 0])


# ---------------------------------------------------------------------------
# gradients (cheap variants here; all five in the acceptance suite)


def test_gradcheck_g_lstm():
    report = tr.quick_grad_check("g_lstm")
    assert report.passed(1e-4), report.format()


def test_gradcheck_mcr_n():
    report = tr.quick_grad_check("mcr_n")
    assert report.passed(1e-4), report.format()
