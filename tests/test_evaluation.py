"""Metric oracles, baseline behavior, report plumbing, the ablation sweep."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2k import data as da
from g2k import evaluation as ev
from g2k import model as md
from g2k import training as tr
from g2k.config import InputError, TrainConfig, config_hash, desk_config


def scene(kind="constant_velocity", n=3, seed=1, **kw):
    sc = da.SyntheticScenario(kind=kind, n_peds=n, seed=seed,
                              obs_len=3, pred_len=2, **kw)
    return da.synthesize(sc)[0]


def gt_of(batch):
    return np.transpose(da.target_positions(batch), (1, 0, 2))


# ---------------------------------------------------------------------------
# metric oracles


def test_identity_is_zero():
    p = np.random.default_rng(0).normal(size=(3, 4, 2))
    assert ev.ade(p, p.copy()) == 0.0
    assert ev.fde(p, p.copy()) == 0.0


def test_constant_unit_offset():
    gt = np.zeros((2, 5, 2))
    pred = gt.copy()
    pred[..., 0] += 1.0
    assert abs(ev.ade(pred, gt) - 1.0) < 1e-12
    assert abs(ev.fde(pred, gt) - 1.0) < 1e-12


def test_hand_computed_mixed_offsets():
    # N=2, T=2: offsets (1,0), (0,2), (3,4), (0,0)
    gt = np.zeros((2, 2, 2))
    pred = np.array([[[1.0, 0.0], [0.0, 2.0]], [[3.0, 4.0], [0.0, 0.0]]])
    dists = [1.0, 2.0, 5.0, 0.0]
    assert abs(ev.ade(pred, gt) - sum(dists) / 4) < 1e-12
    assert abs(ev.fde(pred, gt) - (2.0 + 0.0) / 2) < 1e-12


def test_final_step_only_offset():
    gt = np.zeros((1, 4, 2))
    pred = gt.copy()
    pred[0, -1, 1] = 2.0
    assert abs(ev.fde(pred, gt) - 2.0) < 1e-12
    assert abs(ev.ade(pred, gt) - 2.0 / 4) < 1e-12


def test_random_case_matches_loop_oracle():
    rng = np.random.default_rng(77)
    pred = rng.normal(size=(5, 7, 2))
    gt = rng.normal(size=(5, 7, 2))
    total, final = 0.0, 0.0
    for i in range(5):
        for t in range(7):
            d = math.hypot(pred[i, t, 0] - gt[i, t, 0], pred[i, t, 1] - gt[i, t, 1])
            total += d
            if t == 6:
                final += d
    assert abs(ev.ade(pred, gt) - total / 35) < 1e-12
    assert abs(ev.fde(pred, gt) - final / 5) < 1e-12


def test_single_step_ade_equals_fde():
    rng = np.random.default_rng(3)
    pred = rng.normal(size=(4, 1, 2))
    gt = rng.normal(size=(4, 1, 2))
    assert ev.ade(pred, gt) == ev.fde(pred, gt)


def test_shape_mismatch_rejected():
    with pytest.raises(InputError):
        ev.ade(np.zeros((2, 3, 2)), np.zeros((2, 4, 2)))
    with pytest.raises(InputError):
        ev.fde(np.zeros((2, 3)), np.zeros((2, 3)))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=999))
def test_translation_rotation_invariance(seed):
    rng = np.random.default_rng(seed)
    pred = rng.normal(size=(3, 4, 2))
    gt = rng.normal(size=(3, 4, 2))
    theta = rng.uniform(0, 2 * np.pi)
    rot = np.array([[np.cos(theta), -np.sin(theta)],
                    [np.sin(theta), np.cos(theta)]])
    shift = rng.normal(size=2)
    p2 = pred @ rot.T + shift
    g2 = gt @ rot.T + shift
    assert abs(ev.ade(pred, gt) - ev.ade(p2, g2)) < 1e-9
    assert abs(ev.fde(pred, gt) - ev.fde(p2, g2)) < 1e-9


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=999))
def test_ade_bounded_by_max_step_error(seed):
    rng = np.random.default_rng(seed)
    pred = rng.normal(size=(3, 5, 2))
    gt = rng.normal(size=(3, 5, 2))
    per_step = ev.point_errors(pred, gt).mean(axis=0)
    a = ev.ade(pred, gt)
    assert a >= 0.0
    assert a <= per_step.max() + 1e-12
    assert abs(ev.fde(pred, gt) - per_step[-1]) < 1e-12


# ---------------------------------------------------------------------------
# constant-velocity baseline


def test_baseline_exact_on_constant_velocity():
    batch = scene()
    pred = ev.baseline_predictions(batch)
    assert ev.ade(pred, gt_of(batch)) < 1e-12


def test_baseline_stationary_repeats_last_position():
    pts = da.Tracks(np.arange(0, 50, 10, dtype=np.int64), np.zeros(5, dtype=np.int64),
                    np.tile([2.5, -1.0], (5, 1)), np.full(5, np.nan))
    (batch,) = da.make_windows(pts, obs_len=3, pred_len=2)
    pred = ev.baseline_predictions(batch)
    assert np.allclose(pred, [[[2.5, -1.0], [2.5, -1.0]]], atol=1e-12)


def test_baseline_matches_scripted_extrapolation():
    batch = scene(kind="group_walk", seed=9)
    preds = ev.baseline_predictions(batch)
    for i in range(batch.n_peds):
        (x1, y1), (x2, y2) = batch.obs[-2, i].tolist(), batch.obs[-1, i].tolist()
        vx, vy = x2 - x1, y2 - y1
        for k in range(2):
            assert abs(preds[i, k, 0] - (x2 + (k + 1) * vx)) < 1e-12
            assert abs(preds[i, k, 1] - (y2 + (k + 1) * vy)) < 1e-12


def test_baseline_positive_error_on_curved_track():
    batch = scene(kind="group_walk", seed=9)
    assert ev.ade(ev.baseline_predictions(batch), gt_of(batch)) > 0.0


def test_baseline_needs_two_observations():
    batch = scene()
    short = da.SceneBatch(batch.ped_ids, batch.obs[-1:], batch.target)
    with pytest.raises(InputError):
        ev.baseline_predictions(short)


# ---------------------------------------------------------------------------
# reports


def test_evaluate_report_structure():
    model = md.TrajectoryModel(desk_config("mcr_n"), seed=2)
    batches = [scene(seed=1), scene(seed=2)]
    rep = ev.evaluate(model, batches, label="cv")
    assert rep.variant == "mcr_n"
    assert rep.cfg_hash == config_hash(model.cfg)
    assert len(rep.rows) == 1
    assert rep.rows[0].label == "cv"
    assert rep.rows[0].n_scenes == 2
    assert rep.rows[0].n_peds == 6
    assert rep.runtime_s > 0.0
    assert ev.check_invariants(rep) == []


@pytest.mark.parametrize("bad", [{"ade": math.nan}, {"fde": math.inf},
                                 {"step_errors": [0.5, math.nan, 2.0]}],
                         ids=["nan-ade", "inf-fde", "nan-step"])
def test_check_invariants_flags_non_finite_metrics(bad):
    # every comparison with NaN is false, so the order checks cannot see it
    sound = dict(label="a", ade=4 / 3, fde=2.0, step_errors=[0.5, 1.5, 2.0],
                 n_scenes=1, n_peds=3)
    assert ev.check_invariants(ev.EvalReport("v", "h", [ev.EvalRow(**sound)])) == []
    report = ev.EvalReport("v", "h", [ev.EvalRow(**{**sound, **bad})])
    assert "a: non-finite metric" in ev.check_invariants(report)


def test_evaluate_empty_label_rejected():
    model = md.TrajectoryModel(desk_config("g_lstm"), seed=2)
    with pytest.raises(InputError):
        ev.evaluate(model, [], label="empty")


def test_report_csv_deterministic_and_runtime_free():
    model = md.TrajectoryModel(desk_config("mcr_n"), seed=2)
    batches = [scene(seed=1)]
    csv1 = ev.report_csv(ev.evaluate(model, batches))
    csv2 = ev.report_csv(ev.evaluate(model, batches))
    assert csv1 == csv2
    assert "runtime" not in csv1
    assert csv1.startswith("variant,label,ade,fde,")


def test_report_table_shows_runtime():
    model = md.TrajectoryModel(desk_config("g_lstm"), seed=0)
    rep = ev.evaluate(model, [scene(seed=1)])
    txt = ev.report_table(rep)
    assert "runtime" in txt
    assert "g_lstm" in txt


def test_baseline_report_zero_on_cv():
    rep = ev.evaluate_baseline([scene(seed=1), scene(seed=4)])
    assert rep.variant == "constant_velocity"
    assert rep.rows[0].ade < 1e-12


# ---------------------------------------------------------------------------
# ablation sweep


def small_train_cfg():
    return TrainConfig(epochs=2, batch_size=2, lr=0.01, seed=3)


def sweep_cfg(variant="mcr_mp"):
    cfg = desk_config(variant)
    cfg.neighborhood_size = 32
    return cfg


def test_cap_scene_regains_vislets_of_kept_pedestrians():
    sc = da.SyntheticScenario(n_peds=3, seed=1, obs_len=3, pred_len=2)
    pts = da.scenario_points(sc)
    pts.pan[pts.ped == 2] = np.nan
    (batch,) = da.make_windows(pts, obs_len=3, pred_len=2)
    assert da.obs_vislets(batch) is None  # ped 2 has no pan
    capped = ev._cap_scene(batch, 2)
    assert capped.ped_ids.tolist() == [0, 1]
    assert np.array_equal(da.obs_vislets(capped), da.obs_vislets(scene(seed=1))[:, :2])


def test_ablation_grid_has_eight_cells():
    cells = ev.ablation_grid()
    assert len(cells) == 8
    assert len(set(c.label for c in cells)) == 8


def test_ablate_full_table():
    batches = [scene(seed=1), scene(kind="group_walk", seed=2)]
    result = ev.ablate(batches, sweep_cfg(), small_train_cfg())
    assert len(result.outcomes) == 8
    assert all(o.report is not None for o in result.outcomes), [
        o.error for o in result.outcomes if o.error
    ]
    rel = result.relative_change()
    assert len(rel) == 8
    ref_row = next(r for r in rel if r[0] == result.reference.label)
    assert ref_row[1] == 0.0 and ref_row[2] == 0.0
    table = result.table()
    assert "reference" in table
    assert all(o.cell.label in table for o in result.outcomes)


def test_ablate_deterministic():
    batches = [scene(seed=1)]
    r1 = ev.ablate(batches, sweep_cfg(), small_train_cfg())
    r2 = ev.ablate(batches, sweep_cfg(), small_train_cfg())
    assert ev.ablation_csv(r1) == ev.ablation_csv(r2)


def rows_bits(report):
    return [(r.label, r.ade.hex(), r.fde.hex(), [e.hex() for e in r.step_errors],
             r.n_scenes, r.n_peds) for r in report.rows]


def test_ablate_nostatic_cells_train_mcr_n():
    batches = [scene(seed=1), scene(kind="group_walk", seed=2)]
    result = ev.ablate(batches, sweep_cfg(), small_train_cfg())
    cfg = replace(sweep_cfg("mcr_n"), attention_enabled=False)
    want = ev.evaluate(tr.train(batches, cfg, small_train_cfg()).model, batches)
    for n in (32, 64):
        cell = ev.AblationCell(n, False, False)
        got = result.outcome(cell).report
        assert got.variant == "mcr_n"
        assert got.cfg_hash == config_hash(replace(cfg, neighborhood_size=n))
        assert rows_bits(got) == rows_bits(replace(want, rows=[
            replace(r, label=cell.label) for r in want.rows]))


def test_ablate_trains_each_distinct_cell_once(monkeypatch):
    calls = []
    real_train = ev.train

    def counted(batches, cfg, tcfg):
        calls.append(cfg.neighborhood_size)
        return real_train(batches, cfg, tcfg)

    monkeypatch.setattr(ev, "train", counted)
    three = [scene(seed=1)]
    ev.ablate(three, sweep_cfg(), small_train_cfg())
    assert calls == [32] * 4  # both caps keep all 3: the n64 cells share
    calls.clear()
    result = ev.ablate(three, replace(sweep_cfg(), neighborhood_size=2),
                       small_train_cfg(), neighborhoods=(2, 3))
    assert calls == [2] * 4 + [3] * 4  # a cap of 2 drops a pedestrian
    assert [o.report.rows[0].n_peds for o in result.outcomes] == [2] * 4 + [3] * 4


def test_ablate_isolates_cell_failures(monkeypatch):
    real_train = ev.train

    def flaky(batches, cfg, tcfg):
        if not cfg.attention_enabled:
            raise RuntimeError("boom")
        return real_train(batches, cfg, tcfg)

    monkeypatch.setattr(ev, "train", flaky)
    result = ev.ablate([scene(seed=1)], sweep_cfg(), small_train_cfg())
    failed = [o for o in result.outcomes if o.report is None]
    assert len(failed) == 4
    assert all("boom" in o.error for o in failed)
    rel = result.relative_change()  # reference survived; failures become None
    assert sum(1 for _, a, _ in rel if a is None) == 4
    assert "failed: RuntimeError: boom" in result.table()


def test_ablate_rejects_non_relational():
    with pytest.raises(InputError):
        ev.ablate([scene(seed=1)], sweep_cfg("g_lstm"), small_train_cfg())


def test_ablate_requires_reference_capacity():
    with pytest.raises(InputError):
        ev.ablate([scene(seed=1)], sweep_cfg(), small_train_cfg(),
                  neighborhoods=(64, 128))
