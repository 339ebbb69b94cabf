"""Scene packing: several scenes unrolled in one graph must predict, lose and
backpropagate exactly what running each scene alone does (to float
rounding), and one scene must build the unpacked graph."""

import os
import re
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

from forking import (Rendezvous, assert_no_child_left, forks, only_caller_returns,
                     record_forks, use_cpus)

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
    {"tau": 0.0},
]


@pytest.mark.parametrize("overrides", CASES, ids=lambda o: "-".join(o) or "default")
@pytest.mark.parametrize("variant", VARIANTS)
def test_packed_run_matches_per_scene_loop(variant, overrides):
    model = packing_model(variant, **overrides)
    batch_list = scenes()
    if variant == "mcr_mpc":
        with_images(batch_list)
    targets = [da.target_positions(b) for b in batch_list]

    preds, losses, maps, want = [], [], [], None
    for b, t in zip(batch_list, targets):
        model.params.zero_grad()
        run = model.run(b)
        loss = tr.loss_graph(run, t)
        ad.backward(loss)
        preds.append(run.predictions)
        losses.append(float(loss.data[0, 0]))
        maps.append(run.diagnostics.adjacency)
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

    # each scene's adjacency block is that scene's own map, and no weight
    # crosses scenes
    blocks = nb.SceneBlocks(CROWDS, model.cfg.num_cells)
    starts = np.cumsum([0, *CROWDS])
    for t, a in enumerate(run.diagnostics.adjacency):
        assert np.all(a[~blocks.same_scene] == 0.0)
        for s0, s1, per_scene in zip(starts, starts[1:], maps):
            assert np.max(np.abs(a[s0:s1, s0:s1] - per_scene[t])) < TOL


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
    # evaluate() warns once, counting the call's scenes; run() itself never
    # warns
    model = packing_model("mcr_mpc")
    batch_list = with_images(scenes((2, 3, 1, 4)))  # images on scenes 1 and 3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model.run(batch_list)
    with pytest.warns(UserWarning) as caught:
        ev.evaluate(model, batch_list + batch_list[:1])
    assert [str(w.message) for w in caught] == [
        "no scene image in 3 of 5 scenes; using a constant fallback map"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ev.evaluate(model, [batch_list[1], batch_list[3]])


def test_evaluate_packs_match_scene_by_scene(monkeypatch):
    model = packing_model("mcr_mp")
    batch_list = scenes((5, 2, 1, 4, 3, 6, 2))
    packed = ev.evaluate(model, batch_list)
    monkeypatch.setattr(ev, "EVAL_PACK_ROWS", 1)  # every scene in a pack of its own
    alone = ev.evaluate(model, batch_list)
    assert abs(packed.rows[0].ade - alone.rows[0].ade) < TOL
    assert np.max(np.abs(np.subtract(packed.rows[0].step_errors,
                                     alone.rows[0].step_errors))) < TOL
    assert packed.rows[0].n_peds == alone.rows[0].n_peds == 23


def train_bytes(tmp_path, tag, budget, monkeypatch, optimizer="adam", seed=3):
    monkeypatch.setattr(tr, "TRAIN_PACK_ROWS", budget)
    tc = TrainConfig(epochs=2, batch_size=4, lr=0.01, seed=seed, optimizer=optimizer)
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


@pytest.mark.parametrize("budget", [100, 4], ids=["one-pack", "split"])
def test_divergence_names_first_bad_scene_of_a_pack(monkeypatch, tmp_path, budget):
    monkeypatch.setattr(tr, "TRAIN_PACK_ROWS", budget)
    batch_list = scenes((2, 3, 2, 1))
    for bad in (1, 3):
        batch_list[bad].obs[:, 0, 0] = 1e200
    # the group runs in shuffled order [2, 0, 1, 3]; the first bad scene in
    # it is named. Split, the bad scenes share the second pack, which any
    # worker may pull when there are several
    order = list(np.random.default_rng(0).permutation(4))
    for cpus in (1, 3):
        use_cpus(monkeypatch, cpus)
        with pytest.raises(tr.DivergenceError) as exc, only_caller_returns(tmp_path / "log"):
            tr.train(batch_list, desk_config("mcr_n"),
                     TrainConfig(epochs=1, batch_size=4, lr=0.01, seed=0))
        assert_no_child_left()
        assert exc.value.batch == next(i for i in order if i in (1, 3))
        assert exc.value.epoch == 0 and "loss is not finite" in str(exc.value)


# ---------------------------------------------------------------------------
# training packs spread over workers


PACK_ROWS, PACK_GRADIENT = tr.pack_rows, tr._pack_gradient


def share_packs(monkeypatch, log, meet, forked, pack_gradient=PACK_GRADIENT):
    """Patch train() so that each step's packs are shared by every worker of
    its pool, whatever the scheduler does: before a step of n packs the
    caller expects min(w, n) workers at meet (see Rendezvous), w the pool's
    size once the run has grown it (forked lists its children), and every
    pack arrives there. Each pack then appends "pid step" to log, step
    being the hex bytes of decode.b, which every optimizer step changes.
    Returns the list of pack counts per step, filled in as train() runs."""
    n_packs = []

    def packing(group, batches, cap):
        packs = PACK_ROWS(group, batches, cap)
        n_packs.append(len(packs))
        if len(packs) > 1:
            w = max(len(forked) + 1, ad._workers(len(packs)))
            meet.expect(min(w, len(packs)))
        return packs

    def logged(model, *args):
        meet.arrive()
        with open(log, "a") as f:
            f.write(f"{os.getpid()} {model.params['decode.b'].value.data.tobytes().hex()}\n")
        return pack_gradient(model, *args)

    monkeypatch.setattr(tr, "pack_rows", packing)
    monkeypatch.setattr(tr, "_pack_gradient", logged)
    return n_packs


def pids_per_step(log):
    """{step: the pids that ran its packs}, steps in order, from a
    share_packs log."""
    steps: dict[str, set] = {}
    for pid, step in map(str.split, log.read_text().splitlines()):
        steps.setdefault(step, set()).add(int(pid))
    return steps


def steps_without_timing(res):
    return [re.sub(r" wall_ms=\S+", "", line) for line in res.log.lines]


@forks
@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
def test_training_is_bit_identical_for_any_worker_count(tmp_path, monkeypatch, optimizer):
    # seed 1 takes steps of 3, 2, 3 and 1 packs, so three CPUs fork two
    # children at the first step; seed 3 takes steps of 2, 2, 3 and 1, so
    # the pool starts with one child and grows a second at the third step
    for seed, want_packs in ((1, [3, 2, 3, 1]), (3, [2, 2, 3, 1])):
        runs = []
        for cpus in (1, 2, 3):
            use_cpus(monkeypatch, cpus)
            forked = record_forks(monkeypatch)
            tag = f"{optimizer}-{seed}-{cpus}"
            log = tmp_path / f"packs-{tag}"
            n_packs = share_packs(monkeypatch, log, Rendezvous(tmp_path / f"meet-{tag}"),
                                  forked)
            with only_caller_returns(tmp_path / "log"):
                res, ckpt = train_bytes(tmp_path, tag, 8, monkeypatch,
                                        optimizer=optimizer, seed=seed)
            assert_no_child_left()
            runs.append((ckpt, steps_without_timing(res)))
            # one pool per call: it grows to cpus - 1 children, which run
            # packs of every later step of two or more
            assert n_packs == want_packs and len(forked) == cpus - 1
            steps = pids_per_step(log)
            assert [len(pids) for pids in steps.values()] == [min(cpus, n) for n in n_packs]
            assert set().union(*steps.values()) == {os.getpid(), *forked}
        assert runs[0] == runs[1] == runs[2], seed
        steps = [line for line in runs[0][1] if "summary_loss" not in line]
        assert len(steps) == 4 and all(" grad_norm=" in line for line in steps)


def test_groups_of_one_pack_fork_nothing(tmp_path, monkeypatch):
    use_cpus(monkeypatch, 3)
    forked = record_forks(monkeypatch)
    tc = TrainConfig(epochs=2, batch_size=1, lr=0.01, seed=3)
    res = tr.train(scenes((2, 5, 1), seed=4), desk_config("mcr_n"), tc)
    ev.evaluate(res.model, scenes((2, 5, 1), seed=9))  # one pack
    assert forked == []


def test_step_log_records_the_pre_clip_gradient_norm(monkeypatch):
    norms = []
    clip = tr.clip_gradients

    def recorded(params, clip_norm):
        norms.append(clip(params, clip_norm))
        return norms[-1]

    monkeypatch.setattr(tr, "clip_gradients", recorded)
    tc = TrainConfig(epochs=2, batch_size=2, lr=0.01, seed=3, clip_norm=1e-3)
    res = tr.train(scenes((2, 5, 1)), desk_config("mcr_n"), tc)
    logged = [float(re.search(r"grad_norm=(\S+)", line).group(1))
              for line in res.log.lines if "grad_norm=" in line]
    assert logged == [float(f"{n:.10g}") for n in norms] and len(logged) == 4
    assert min(logged) > 1e-3  # above the clip, so the norm is taken before it


@forks
def test_training_forks_nothing_without_blas_thread_control(tmp_path, monkeypatch):
    use_cpus(monkeypatch, 3)
    forked = record_forks(monkeypatch)
    share_packs(monkeypatch, tmp_path / "packs-forked", Rendezvous(tmp_path / "meet"), forked)
    with only_caller_returns(tmp_path / "log"):
        _, with_workers = train_bytes(tmp_path, "forked", 8, monkeypatch)
    assert_no_child_left()
    steps = pids_per_step(tmp_path / "packs-forked")
    assert forked and set().union(*steps.values()) == {os.getpid(), *forked}
    monkeypatch.setattr(ad, "_blas", lambda: None)
    forked = record_forks(monkeypatch)
    share_packs(monkeypatch, tmp_path / "packs-alone", Rendezvous(tmp_path / "meet"), forked)
    _, alone = train_bytes(tmp_path, "alone", 8, monkeypatch)
    steps = pids_per_step(tmp_path / "packs-alone")
    assert set().union(*steps.values()) == {os.getpid()} and forked == []
    assert alone == with_workers


@forks
@pytest.mark.parametrize("how", ["raise", "exit"])
def test_training_reports_a_failed_child_and_reaps_every_child(tmp_path, monkeypatch, how):
    # the first step's packs go to the caller and a child, which fails
    use_cpus(monkeypatch, 3)
    caller = os.getpid()

    def failing(*args):
        if os.getpid() != caller:
            if how == "exit":
                os._exit(7)
            raise ValueError(f"pack in {os.getpid()}")
        return PACK_GRADIENT(*args)

    share_packs(monkeypatch, tmp_path / "packs", Rendezvous(tmp_path / "meet"),
                record_forks(monkeypatch), failing)
    want = (RuntimeError, "status 7") if how == "exit" else (ValueError, "pack in")
    with pytest.raises(want[0], match=want[1]), only_caller_returns(tmp_path / "log"):
        train_bytes(tmp_path, how, 8, monkeypatch)
    assert_no_child_left()
    assert not (tmp_path / "log").exists()


@forks
def test_evaluate_is_bit_identical_for_any_worker_count(monkeypatch, tmp_path):
    model = packing_model("mcr_mp")
    batch_list = scenes((5, 2, 1, 4, 3, 6, 2))
    monkeypatch.setattr(ev, "EVAL_PACK_ROWS", 6)  # packs of 5, 3, 4, 3, 6, 2 rows
    reports = []
    for cpus in (1, 2, 3):
        use_cpus(monkeypatch, cpus)
        forked = record_forks(monkeypatch)
        with only_caller_returns(tmp_path / "log"):
            report = ev.evaluate(model, batch_list)
        assert_no_child_left()
        assert len(forked) == cpus - 1
        reports.append([(r.label, r.ade.hex(), r.fde.hex(), [e.hex() for e in r.step_errors],
                         r.n_scenes, r.n_peds) for r in report.rows])
    assert reports[0] == reports[1] == reports[2]
    assert [row[-1] for row in reports[0]] == [23]


def test_training_shows_pack_warnings_in_pack_order(tmp_path, monkeypatch):
    # train() warns once for the call's scenes that lack an image; its
    # packs, of at most 6 rows and most of them in children, warn nothing.
    # Every process shows warnings through show, which logs them to a file
    def show(message, category, filename, lineno, file=None, line=None):
        with open(tmp_path / "shown", "a") as f:
            f.write(f"{os.getpid()} {category.__name__} {filename}:{lineno} {message}\n")

    def shown(cpus):
        use_cpus(monkeypatch, cpus)
        forked = record_forks(monkeypatch)
        monkeypatch.setattr(tr, "TRAIN_PACK_ROWS", 6)
        batch_list = with_images(scenes((2, 5, 1, 3, 4, 2, 6, 3), seed=4), every=3)
        (tmp_path / "shown").write_text("")
        with warnings.catch_warnings(), only_caller_returns(tmp_path / "log"):
            warnings.simplefilter("always")
            warnings.showwarning = show
            tr.train(batch_list, desk_config("mcr_mpc"),
                     TrainConfig(epochs=2, batch_size=8, lr=0.01, seed=3))
        assert_no_child_left()
        assert len(forked) == cpus - 1
        return (tmp_path / "shown").read_text().splitlines()

    alone = shown(1)
    assert len(alone) == 1 and alone[0].startswith(f"{os.getpid()} UserWarning ")
    assert alone[0].endswith(" no scene image in 5 of 8 scenes; using a constant fallback map")
    assert shown(3) == alone
