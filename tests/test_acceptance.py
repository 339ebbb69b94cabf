"""Release gates, one test per numbered criterion.

Every gate states its tolerance inline and prints a single summary line on
success, so `pytest -v -s tests/test_acceptance.py` reads as a checklist.
The recipes behind the slow gates live in g2k.training so the scripts and
this suite cannot drift apart.
"""

import time

import numpy as np

from g2k import autodiff as ad
from g2k import data as da
from g2k import evaluation as ev
from g2k import gridlstm as gl
from g2k import model as md
from g2k import training as tr
from g2k.cli import entry
from g2k.config import VARIANTS, desk_config, TrainConfig


# ---------------------------------------------------------------------------
# 1. gradient integrity


def test_c1_gradient_integrity():
    t0 = time.perf_counter()
    worst = 0.0
    for variant in VARIANTS:
        report = tr.quick_grad_check(variant)
        assert report.passed(1e-4), f"{variant}:\n{report.format()}"
        worst = max(worst, report.worst)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"gradient checks took {elapsed:.1f}s"
    print(f"\n[C1] gradient integrity: PASS "
          f"(5 variants, worst rel err {worst:.2e}, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 2. grid cell reduces to a textbook LSTM


def test_c2_grid_reduction_to_textbook_lstm():
    t0 = time.perf_counter()
    cfg = gl.GridLSTMConfig(hidden_size=6, num_blocks=1, cell_units=1)
    pset = ad.ParameterSet()
    params = gl.init_params(cfg, 5, pset, "cell", np.random.default_rng(3))
    rng = np.random.default_rng(4)
    xs = [rng.normal(size=(4, 5)) for _ in range(100)]

    state = gl.init_state(cfg, 4)
    mine = []
    for x in xs:
        out, state = gl.step(cfg, ad.constant(x), state, params)
        mine.append(out.data)

    # independent reference, gate layout [i|f|g|o]
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    h = np.zeros((4, 6))
    c = np.zeros((4, 6))
    wx, wh, b = params.wx.data, params.wh.data, params.bias.data
    worst = 0.0
    for x, got in zip(xs, mine):
        z = x @ wx + h @ wh + b
        i, f = sig(z[:, :6]), sig(z[:, 6:12])
        g, o = np.tanh(z[:, 12:18]), sig(z[:, 18:])
        c = f * c + i * g
        h = o * np.tanh(c)
        worst = max(worst, float(np.max(np.abs(got - h))))
    assert worst < 1e-12, f"grid cell drifts from textbook LSTM by {worst:.2e}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"reduction oracle took {elapsed:.1f}s"
    print(f"\n[C2] grid cell vs textbook LSTM: PASS "
          f"(100 steps, max |diff| {worst:.2e}, {elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 3. displacement metrics against scripted values


def test_c3_metric_oracles():
    def make(dists_nt):
        """Build a pred/gt pair whose per-point distances equal dists_nt."""
        d = np.asarray(dists_nt, dtype=float)
        n, t = d.shape
        gt = np.zeros((n, t, 2))
        pred = np.zeros((n, t, 2))
        pred[:, :, 0] = d
        return pred, gt

    cases = []
    # 1: exact match
    rng = np.random.default_rng(0)
    same = rng.normal(size=(3, 5, 2))
    cases.append(("identity", same, same.copy(), 0.0, 0.0))
    # 2: one meter ahead at every step
    p, g = make(np.ones((2, 4)))
    cases.append(("unit offset", p, g, 1.0, 1.0))
    # 3: 3-4-5 offset both axes
    g = np.zeros((1, 3, 2))
    p = g + np.array([3.0, 4.0])
    cases.append(("3-4-5", p, g, 5.0, 5.0))
    # 4: single step, ADE and FDE are the same number
    p, g = make([[2.5]])
    cases.append(("t=1", p, g, 2.5, 2.5))
    # 5: linearly growing offset 0.5k
    p, g = make([[0.5, 1.0, 1.5, 2.0]])
    cases.append(("growing", p, g, 1.25, 2.0))
    # 6: two pedestrians at constant 3 and 4
    p, g = make([[3.0, 3.0], [4.0, 4.0]])
    cases.append(("two peds", p, g, 3.5, 3.5))
    # 7: error only at the final step
    p, g = make([[0.0, 0.0, 0.0, 2.0]])
    cases.append(("final only", p, g, 0.5, 2.0))
    # 8: y-axis offset
    g = np.zeros((2, 3, 2))
    p = g + np.array([0.0, 0.25])
    cases.append(("y offset", p, g, 0.25, 0.25))
    # 9: mixed hand case, step means (3, 1)
    p, g = make([[1.0, 2.0], [5.0, 0.0]])
    cases.append(("mixed", p, g, 2.0, 1.0))
    # 10: case 9 translated; distances are translation invariant
    t_vec = np.array([17.3, -4.2])
    cases.append(("translated", p + t_vec, g + t_vec, 2.0, 1.0))

    assert len(cases) == 10
    for name, pred, gt, want_ade, want_fde in cases:
        assert abs(ev.ade(pred, gt) - want_ade) < 1e-12, name
        assert abs(ev.fde(pred, gt) - want_fde) < 1e-12, name
    p, g = make([[2.5]])
    assert ev.ade(p, g) == ev.fde(p, g)
    print("\n[C3] metric oracles: PASS (10 scripted cases, tol 1e-12)")


# ---------------------------------------------------------------------------
# 4. overfit regressions


def test_c4_overfit_regressions():
    t0 = time.perf_counter()
    batches, cfg, tcfg = tr.overfit_straight_setup()
    straight = ev.evaluate(tr.train(batches, cfg, tcfg).model, batches)
    t_straight = time.perf_counter() - t0
    assert straight.mean_ade < 0.05, f"straight ADE {straight.mean_ade:.4f}"
    assert t_straight < 300.0

    t0 = time.perf_counter()
    batches, cfg, tcfg = tr.overfit_crossing_setup()
    crossing = ev.evaluate(tr.train(batches, cfg, tcfg).model, batches)
    t_crossing = time.perf_counter() - t0
    assert crossing.mean_ade < 0.10, f"crossing ADE {crossing.mean_ade:.4f}"
    assert t_crossing < 300.0
    print(f"\n[C4] overfit regressions: PASS "
          f"(straight ADE {straight.mean_ade:.4f} < 0.05 in {t_straight:.1f}s, "
          f"crossing ADE {crossing.mean_ade:.4f} < 0.10 in {t_crossing:.1f}s)")


# ---------------------------------------------------------------------------
# 5. constant-velocity baseline sanity


def test_c5_baseline_sanity():
    straight = da.synthesize(da.SyntheticScenario(
        kind="constant_velocity", n_peds=4, seed=2, obs_len=8, pred_len=12,
    ))
    exact = ev.evaluate_baseline(straight)
    assert exact.mean_ade < 1e-12, "baseline must be exact on straight tracks"

    batches, tcfg = tr.curved_comparison_setup()
    base_ade = ev.evaluate_baseline(batches).mean_ade
    scores = {}
    for variant in VARIANTS:
        cfg = tr.curved_comparison_config(variant)
        result = tr.train(batches, cfg, tcfg)
        scores[variant] = ev.evaluate(result.model, batches).mean_ade
        assert scores[variant] < base_ade, (
            f"{variant} ADE {scores[variant]:.4f} does not beat "
            f"baseline {base_ade:.4f}"
        )
    summary = ", ".join(f"{v} {a:.3f}" for v, a in scores.items())
    print(f"\n[C5] baseline sanity: PASS "
          f"(baseline exact on straight; curved baseline {base_ade:.3f} "
          f"beaten by {summary})")


# ---------------------------------------------------------------------------
# 6. structural invariants


def test_c6_structural_invariants():
    cfg = tr.curved_comparison_config("mcr_mp")
    model = md.TrajectoryModel(cfg, seed=5)
    batches, _ = tr.curved_comparison_setup()
    batch = batches[0]
    run = model.run(batch)
    diag = run.diagnostics

    for a in diag.adjacency:
        np.testing.assert_allclose(a.sum(axis=1), 1.0, atol=1e-9)
    for att in diag.attention + diag.ped_cell_attention:
        assert np.all(att >= 0.0)
        np.testing.assert_allclose(att.sum(axis=1), 1.0, atol=1e-9)

    # permutation equivariance of predictions and adjacency conjugation
    rng = np.random.default_rng(8)
    n = batch.n_peds
    for _ in range(4):
        perm = rng.permutation(n)
        shuffled = batch.take(perm)
        run_p = model.run(shuffled)
        for k in range(cfg.pred_len):
            np.testing.assert_allclose(
                run_p.predictions[:, k],
                run.predictions[perm, k],
                atol=1e-9,
            )
        for a, a_p in zip(diag.adjacency, run_p.diagnostics.adjacency):
            np.testing.assert_allclose(
                a_p, a[np.ix_(perm, perm)], atol=1e-9
            )

    # offsets telescope: replaying the additions reproduces positions bit
    # for bit
    prev = da.obs_positions(batch)[-1].copy()
    for k in range(cfg.pred_len):
        prev = prev + run.offsets.data[:, 2 * k : 2 * k + 2]
        assert np.array_equal(prev, run.predictions[:, k])
    print("\n[C6] structural invariants: PASS "
          "(row-stochastic maps at 1e-9, permutation equivariance at 1e-9, "
          "exact telescoping)")


# ---------------------------------------------------------------------------
# 7. determinism


def test_c7_determinism(tmp_path):
    def one_run(tag):
        batches = da.synthesize(da.SyntheticScenario(
            kind="group_walk", n_peds=3, seed=11, obs_len=3, pred_len=2,
        ))
        cfg = desk_config("mcr_n")
        tcfg = TrainConfig(epochs=3, batch_size=2, lr=0.01, seed=21)
        result = tr.train(batches, cfg, tcfg)
        path = tmp_path / f"ckpt-{tag}"
        tr.save_checkpoint(str(path), result.model, tcfg,
                           len(result.history), result.history)
        report = ev.evaluate(result.model, batches)
        return path.read_bytes(), ev.report_csv(report)

    ckpt_a, csv_a = one_run("a")
    ckpt_b, csv_b = one_run("b")
    assert ckpt_a == ckpt_b, "same seed produced different checkpoint bytes"
    assert csv_a == csv_b, "same seed produced different eval reports"
    print(f"\n[C7] determinism: PASS "
          f"(checkpoints byte-identical, {len(ckpt_a)} bytes; reports equal)")


# ---------------------------------------------------------------------------
# 8. ablation grid


def test_c8_ablation_grid():
    batches, tcfg = tr.curved_comparison_setup()
    base = tr.curved_comparison_config("mcr_mp")
    base.neighborhood_size = 32
    result = ev.ablate(batches, base, tcfg)

    assert len(result.outcomes) == 8
    for outcome in result.outcomes:
        assert outcome.report is not None, (
            f"{outcome.cell.label} failed: {outcome.error}"
        )
    changes = result.relative_change()
    assert len(changes) == 8
    ref_label = result.reference.label
    by_label = {label: (d_ade, d_fde) for label, d_ade, d_fde in changes}
    assert by_label[ref_label] == (0.0, 0.0)
    for label, (d_ade, d_fde) in by_label.items():
        assert np.isfinite(d_ade) and np.isfinite(d_fde), label
    table = result.table()
    for outcome in result.outcomes:
        assert outcome.cell.label in table
    print(f"\n[C8] ablation grid: PASS (8/8 cells trained, reference "
          f"{ref_label}, all relative changes finite)")


# ---------------------------------------------------------------------------
# 9. format round-trips and visual exports


def test_c9_round_trips_and_viz(tmp_path):
    # canonical TSV: bit-exact through write -> load -> write
    points = da.scenario_points(da.SyntheticScenario(
        kind="group_walk", n_peds=3, seed=13, obs_len=3, pred_len=2,
    ))
    p1 = tmp_path / "a.tsv"
    p2 = tmp_path / "b.tsv"
    da.write_dataset(points, str(p1))
    loaded = da.load_dataset(str(p1))
    assert sorted(loaded, key=lambda p: (p.ped_id, p.frame_id)) == sorted(
        points, key=lambda p: (p.ped_id, p.frame_id)
    )
    da.write_dataset(loaded, str(p2))
    assert p1.read_bytes() == p2.read_bytes()

    # checkpoint: every parameter restores bit for bit
    batches = da.synthesize(da.SyntheticScenario(
        kind="group_walk", n_peds=3, seed=11, obs_len=3, pred_len=2,
    ))
    cfg = desk_config("mcr_mp")
    tcfg = TrainConfig(epochs=2, batch_size=2, lr=0.01, seed=4)
    result = tr.train(batches, cfg, tcfg)
    ck_path = tmp_path / "ckpt"
    tr.save_checkpoint(str(ck_path), result.model, tcfg,
                       len(result.history), result.history)
    restored = tr.load_checkpoint(str(ck_path)).restore()
    for name in result.model.params.names():
        assert np.array_equal(
            restored.params[name].value.data,
            result.model.params[name].value.data,
        ), name

    # viz exports: row-stochastic adjacency CSV, grid heatmap sized to the
    # configured occupancy grid
    wdir = tmp_path / "viz"
    wdir.mkdir()
    scen = tmp_path / "walk.cfg"
    scen.write_text(
        "kind = group_walk\nn_peds = 3\nseed = 11\n"
        "obs_len = 3\npred_len = 2\n"
    )
    dcfg = tmp_path / "desk.cfg"
    dcfg.write_text(
        "hidden_size = 8\nnum_blocks = 2\ncell_units = 2\n"
        "embed_pos = 4\nembed_vis = 4\nfeature_dim = 4\nzones = 4\n"
        "grid_size = 2\ncell_channels = 4\nstatic_input_dim = 8\n"
        "static_hidden = 8\nobs_len = 3\npred_len = 2\n"
        "neighborhood_size = 8\nepochs = 2\nbatch_size = 2\nlr = 0.01\n"
    )
    assert entry(["train", "--variant", "mcr_mp", "--config", str(dcfg),
                  "--scenario", str(scen), "--seed", "4",
                  "--out", str(wdir / "run")]) == 0
    assert entry(["viz", "--ckpt", str(wdir / "run" / "ckpt"),
                  "--scenario", str(scen), "--out", str(wdir / "plots")]) == 0
    adj = np.loadtxt(wdir / "plots" / "adjacency.csv",
                     delimiter=",", comments="#")
    assert adj.shape == (3, 3)
    np.testing.assert_allclose(adj.sum(axis=1), 1.0, atol=1e-9)
    grid = da.read_pgm(str(wdir / "plots" / "grid.pgm"))
    assert grid.shape == (2, 2)
    print("\n[C9] round-trips and viz: PASS (TSV and checkpoint bit-exact, "
          "adjacency row-stochastic, heatmap 2x2)")
