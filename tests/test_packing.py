"""Scene packing: several scenes unrolled in one graph must predict, lose and
backpropagate exactly what running each scene alone does (to float
rounding), and one scene must build the unpacked graph."""

import warnings

import numpy as np
import pytest

from g2k import autodiff as ad
from g2k import data as da
from g2k import evaluation as ev
from g2k import model as md
from g2k import neighborhood as nb
from g2k import training as tr
from g2k.config import VARIANTS, TrainConfig, desk_config

CROWDS = (1, 24, 3, 2, 7)  # rows 0, 1..24, 25..27, 28..29, 30..36
TOL = 1e-10


def scenes(sizes=CROWDS, seed=0):
    out = []
    for i, n in enumerate(sizes):
        sc = da.SyntheticScenario(kind="group_walk", n_peds=n, seed=seed + i,
                                  noise_sigma=0.05, obs_len=3, pred_len=2)
        out.append(da.synthesize(sc)[0])
    return out


def packing_model(variant, **overrides):
    cfg = desk_config(variant)
    cfg.lambda_reg = 1.0  # keeps the static pathway's softmax off uniform
    cfg.init_scale = 0.3
    for k, v in overrides.items():
        setattr(cfg, k, v)
    return md.TrajectoryModel(cfg, seed=2)


def with_images(batch_list, every=2):
    """Scene images on every `every`-th scene, none on the others."""
    g = np.random.default_rng(1)
    for i, b in enumerate(batch_list):
        if i % every == 1:
            b.scene_image = g.integers(0, 255, (9, 7)).astype(np.uint8)
    return batch_list


def grads(model):
    return {p.name: p.value.grad.copy() for p in model.params}


CASES = [
    {},
    {"self_loops": False},
    {"attention_enabled": False},
    {"static_grid_enabled": False},
    {"tau": 0.0},
]


@pytest.mark.filterwarnings("ignore:no scene image")
@pytest.mark.parametrize("overrides", CASES, ids=lambda o: "-".join(o) or "default")
@pytest.mark.parametrize("variant", VARIANTS)
def test_packed_run_matches_per_scene_loop(variant, overrides):
    model = packing_model(variant, **overrides)
    batch_list = scenes()
    if variant == "mcr_mpc":
        with_images(batch_list)
    targets = [da.target_positions(b) for b in batch_list]

    preds, losses, edges, want = [], [], [], None
    for b, t in zip(batch_list, targets):
        model.params.zero_grad()
        run = model.run(b)
        loss = tr.loss_graph(run, t)
        ad.backward(loss)
        preds.append(run.predictions)
        losses.append(float(loss.data[0, 0]))
        edges.append([model.edges(a, run.sizes) for a in run.diagnostics.adjacency])
        g = grads(model)
        want = g if want is None else {k: want[k] + g[k] for k in g}

    model.params.zero_grad()
    run = model.run(batch_list)
    loss = tr.loss_graph(run, np.concatenate(targets, axis=1))
    ad.backward(loss)

    assert run.sizes == list(CROWDS)
    for got, ref in zip(run.scene_predictions(), preds):
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) < TOL
    assert abs(float(loss.data[0, 0]) - np.mean(losses)) < TOL
    for name, g in grads(model).items():
        assert np.max(np.abs(g - want[name] / len(batch_list))) < TOL, name

    # edges stay inside each scene's block, and are that scene's own edges
    starts = np.cumsum([0, *CROWDS])
    for t, a in enumerate(run.diagnostics.adjacency):
        packed = model.edges(a, run.sizes)
        shifted = [(i + s0, j + s0) for s0, per_scene in zip(starts, edges)
                   for i, j in per_scene[t]]
        assert packed == sorted(shifted)


@pytest.mark.filterwarnings("ignore:no scene image")
@pytest.mark.parametrize("variant", VARIANTS)
def test_single_scene_builds_the_unpacked_graph(variant):
    model = packing_model(variant)
    batch = scenes((4,))[0]
    targets = da.target_positions(batch)
    alone = tr.loss_graph(model.run(batch), targets)
    packed = tr.loss_graph(model.run([batch]), targets)
    assert alone.data.tobytes() == packed.data.tobytes()
    assert len(ad._topo_order(alone)) == len(ad._topo_order(packed))


@pytest.mark.parametrize("variant", ["mcr_n", "mcr_mp"])
def test_reordering_scenes_reorders_outputs(variant):
    model = packing_model(variant)
    batch_list = scenes()
    base = model.run(batch_list).scene_predictions()
    rng = np.random.default_rng(8)
    for _ in range(3):
        perm = rng.permutation(len(batch_list))
        run = model.run([batch_list[p] for p in perm])
        assert run.sizes == [CROWDS[p] for p in perm]
        for got, p in zip(run.scene_predictions(), perm):
            assert np.max(np.abs(got - base[p])) < TOL


def test_packed_adjacency_is_block_diagonal():
    model = packing_model("mcr_mp", self_loops=False)
    run = model.run(scenes((3, 1, 2)))
    blocks = nb.SceneBlocks([3, 1, 2], 4)
    for a in run.diagnostics.adjacency:
        assert np.all(a[~blocks.same_scene] == 0.0)
        np.testing.assert_allclose(a.sum(axis=1), 1.0, atol=1e-9)
        # no self loops in crowds of two or more; a lone pedestrian keeps its own
        assert np.diag(a)[[0, 1, 2, 4, 5]].max() < 1e-12 and a[3, 3] == 1.0


def test_scene_blocks_one_scene_is_the_plain_mean():
    blocks = nb.SceneBlocks([5], 4)
    assert np.array_equal(blocks.ped_mean, np.full((1, 5), 1.0 / 5))
    assert np.array_equal(blocks.ped_weight, np.full((1, 5), 1.0 / 5))
    assert np.array_equal(blocks.cell_spread, np.ones((4, 1)))
    assert np.array_equal(blocks.cell_mean, np.full((1, 4), 1.0 / 4))
    x = ad.constant(np.ones((5, 4)))
    assert blocks.own_cells(x) is x and blocks.spread_cells(x) is x
    assert blocks.link_mask(self_loops=True) is None


def test_fallback_warning_once_per_run_counts_scenes():
    model = packing_model("mcr_mpc")
    batch_list = with_images(scenes((2, 3, 1, 4)))  # images on scenes 1 and 3
    with pytest.warns(UserWarning) as caught:
        model.run(batch_list)
    assert len(caught) == 1
    assert "no scene image in 2 of 4 scenes" in str(caught[0].message)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model.run([batch_list[1], batch_list[3]])


def test_evaluate_packs_match_scene_by_scene(monkeypatch):
    model = packing_model("mcr_mp")
    batch_list = scenes((5, 2, 1, 4, 3, 6, 2))
    packed = ev.evaluate(model, batch_list)
    monkeypatch.setattr(ev, "EVAL_PACK", 1)
    alone = ev.evaluate(model, batch_list)
    assert abs(packed.rows[0].ade - alone.rows[0].ade) < TOL
    assert np.max(np.abs(np.subtract(packed.rows[0].step_errors,
                                     alone.rows[0].step_errors))) < TOL
    assert packed.rows[0].n_peds == alone.rows[0].n_peds == 23


def train_bytes(tmp_path, tag, budget, monkeypatch):
    monkeypatch.setattr(tr, "TRAIN_PACK_ROWS", budget)
    tc = TrainConfig(epochs=2, batch_size=4, lr=0.01, seed=3)
    res = tr.train(scenes((2, 5, 1, 3, 4, 2, 6), seed=4), desk_config("mcr_n"), tc)
    path = tmp_path / tag
    tr.save_checkpoint(str(path), res.model, tc, 2, res.history)
    return res, path.read_bytes()


def test_packed_training_is_deterministic(tmp_path, monkeypatch):
    _, a = train_bytes(tmp_path, "a", 8, monkeypatch)
    _, b = train_bytes(tmp_path, "b", 8, monkeypatch)
    assert a == b


def test_pack_budget_does_not_change_the_step(tmp_path, monkeypatch):
    # one graph per group, one per scene, and a split in between take the
    # same optimizer steps up to float rounding
    runs = [train_bytes(tmp_path, str(b), b, monkeypatch)[0] for b in (1, 8, 100)]
    ref = runs[0].model.params.state()
    for res in runs[1:]:
        assert np.allclose(res.history, runs[0].history, rtol=0, atol=TOL)
        for name, arr in res.model.params.state().items():
            assert np.max(np.abs(arr - ref[name])) < 1e-9, name


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.parametrize("budget", [100, 4], ids=["one-pack", "split"])
def test_divergence_names_first_bad_scene_of_a_pack(monkeypatch, budget):
    monkeypatch.setattr(tr, "TRAIN_PACK_ROWS", budget)
    batch_list = scenes((2, 3, 2, 1))
    for bad in (1, 3):
        w = batch_list[bad].windows[0]
        w.obs = [da.TrackPoint(p.frame_id, p.ped_id, 1e200, p.y, p.pan) for p in w.obs]
    with pytest.raises(tr.DivergenceError) as exc:
        tr.train(batch_list, desk_config("mcr_n"),
                 TrainConfig(epochs=1, batch_size=4, lr=0.01, seed=0))
    # the group runs in shuffled order; the first bad scene in it is named
    order = list(np.random.default_rng(0).permutation(4))
    assert exc.value.batch == next(i for i in order if i in (1, 3))
    assert exc.value.epoch == 0 and "loss is not finite" in str(exc.value)
