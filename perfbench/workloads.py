"""The benchmark workloads, driven through g2k's public API only.

Each workload has four parts:
  make_inputs(seed, size, workdir)  benchmark side: write the program's inputs
  ingest(g2k, inputs)               program side, timed as set-up
  warm_up(g2k, state)               first-call costs, timed as set-up
  unit(g2k, state, workdir)         one fixed amount of measured work

unit() returns a Unit: its wall time (checks excluded), the ops it attempted
and failed, per-phase figures and a fingerprint of every output, so a traced
unit can be compared bit for bit with an untraced one. An op is an optimizer
step, an evaluated scene or a variant audit. A raised exception or a failed
check fails the ops of the phase it covers; nothing is retried or re-seeded.
"""

from __future__ import annotations

import math
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

# train_paper: scene counts per split, epochs per unit, scene frame spacing
PAPER_SCENES = {"full": (32, 16), "smoke": (4, 2)}
PAPER_EPOCHS = 1
CROWD_MIN, CROWD_MAX = 4, 24
SCENE_FRAMES = 1000
PEDS_PER_SCENE_ID = 100

# gradcheck_audit runs quick_grad_check of the variants without a static
# grid (g_lstm, mc, mcr_n). Gate C1 also checks mcr_mp and mcr_mpc, but the
# five together take 30-45 s, so a run could time the audit only once and
# its wall time would follow the host's drift of 20-70 % over minutes; the
# three take 5-9 s and a run medians five or more. The static grid is timed
# in train_paper. The checks run at quick_grad_check's own seeds, exactly as
# C1 does: its finite-difference instance is tuned to them, and with
# (model_seed, data_seed) = (8, 42) the mcr_n check reads 1.2e-4 and fails,
# so feeding the workload seed in would fail runs for reasons unrelated to
# the backward pass.
AUDIT_VARIANTS = {"full": ("g_lstm", "mc", "mcr_n"), "smoke": ("g_lstm",)}
GRAD_THRESHOLD = 1e-4


@dataclass
class Unit:
    wall_s: float = 0.0
    ops: int = 0
    failed: int = 0
    phases: dict[str, float] = field(default_factory=dict)
    fingerprint: list[bytes] = field(default_factory=list)

    def fail(self, n: int, why: str) -> None:
        self.failed += n
        print(f"check failed: {why}", file=sys.stderr)

    def mark(self, *values) -> None:
        for v in values:
            self.fingerprint.append(np.asarray(v, dtype=np.float64).tobytes())


def _guard(unit: Unit, n_ops: int, what: str, fn):
    """Run fn; an exception fails n_ops ops and returns None."""
    try:
        return fn()
    except Exception:  # noqa: BLE001 - one failed phase must not end the run
        traceback.print_exc(file=sys.stderr)
        unit.fail(n_ops, f"{what} raised")
        return None


def _finite(history) -> bool:
    return bool(history) and all(math.isfinite(v) for v in history)


def _forward_backward(g2k, model, batch) -> None:
    tr, da, ad = g2k.training, g2k.data, g2k.autodiff
    run = model.run(batch)
    ad.backward(tr.loss_graph(run, da.target_positions(batch)))


# ---------------------------------------------------------------------------
# train_paper: paper-scale mcr_mp, multi-scene Adam steps, held-out eval


@dataclass
class PaperState:
    seed: int
    train: list
    heldout: list


def paper_inputs(g2k, seed: int, size: str, workdir: Path) -> dict:
    """A canonical TSV of one 20-frame scene per crowd. The multiset of crowd
    sizes (4..24) and of speeds is fixed per split and only their order, the
    crowd kind and the tracks vary with the seed, so the cost of a unit does
    not depend on the seed."""
    da = g2k.data
    rng = np.random.default_rng(seed)
    n_train, n_eval = PAPER_SCENES[size]
    crowds = []
    for count in (n_train, n_eval):
        sizes = np.linspace(CROWD_MIN, CROWD_MAX, count).round().astype(int)
        speeds = np.linspace(0.6, 1.4, count)
        crowds += zip(rng.permutation(sizes), rng.permutation(speeds))
    points = []
    for s, (n, v) in enumerate(crowds):
        sc = da.SyntheticScenario(
            kind=("group_walk", "constant_velocity")[int(rng.integers(2))],
            n_peds=int(n), speed_min=float(v), speed_max=float(v) + 0.3,
            noise_sigma=0.02, seed=int(rng.integers(2**31)),
        )
        for p in da.scenario_points(sc):
            points.append(da.TrackPoint(
                p.frame_id + s * SCENE_FRAMES, p.ped_id + s * PEDS_PER_SCENE_ID,
                p.x, p.y, p.pan))
    path = workdir / "paper.tsv"
    da.write_dataset(points, str(path))
    return {"tsv": str(path), "n_train": n_train, "n_eval": n_eval, "seed": seed}


def paper_ingest(g2k, inputs: dict) -> PaperState:
    da = g2k.data
    batches = da.make_windows(da.load_dataset(inputs["tsv"]), obs_len=8, pred_len=12)
    n_train = inputs["n_train"]
    if len(batches) != n_train + inputs["n_eval"]:
        raise RuntimeError(f"expected one window per scene, got {len(batches)}")
    return PaperState(inputs["seed"], batches[:n_train], batches[n_train:])


def paper_warm_up(g2k, st: PaperState) -> None:
    model = g2k.model.TrajectoryModel(g2k.config.ModelConfig(), seed=st.seed)
    _forward_backward(g2k, model, st.train[0])


def paper_unit(g2k, st: PaperState, workdir: Path) -> Unit:
    tr, ev, cfg = g2k.training, g2k.evaluation, g2k.config
    mcfg = cfg.ModelConfig()
    tcfg = cfg.TrainConfig(epochs=PAPER_EPOCHS, seed=st.seed)
    steps = -(-len(st.train) // tcfg.batch_size) * tcfg.epochs
    n_eval = len(st.heldout)
    u = Unit(ops=steps + n_eval)

    t0 = perf_counter()
    res = _guard(u, steps + n_eval, "train", lambda: tr.train(st.train, mcfg, tcfg))
    t_train = perf_counter() - t0
    if res is None:
        return u
    if not _finite(res.history):
        u.fail(steps, f"non-finite loss history {res.history}")
    u.mark(res.history)

    ckpt = str(workdir / "paper.ckpt")

    def round_trip():
        tr.save_checkpoint(ckpt, res.model, tcfg, tcfg.epochs, res.history)
        return tr.load_checkpoint(ckpt).restore()

    t0 = perf_counter()
    model = _guard(u, n_eval, "checkpoint round trip", round_trip)
    t_ckpt = perf_counter() - t0
    if model is None:
        return u
    before = res.model.run(st.heldout[0]).predictions
    after = model.run(st.heldout[0]).predictions
    if before.tobytes() != after.tobytes():
        u.fail(n_eval, "restored checkpoint changes held-out predictions")
    u.mark(after)

    t0 = perf_counter()
    report = _guard(u, n_eval, "evaluate",
                    lambda: ev.evaluate(model, st.heldout, label="heldout"))
    t_eval = perf_counter() - t0
    if report is None:
        return u
    bad = ev.check_invariants(report)
    if bad:
        u.fail(n_eval, f"report invariants: {bad}")
    row = report.rows[0]
    u.mark(row.ade, row.fde, row.step_errors)

    u.wall_s = t_train + t_ckpt + t_eval
    u.phases = {
        "train_scenes_per_s": len(st.train) * tcfg.epochs / t_train,
        "eval_scenes_per_s": n_eval / t_eval,
        "eval_ade_m": report.mean_ade,
    }
    return u


# ---------------------------------------------------------------------------
# gradcheck_audit: training.quick_grad_check of three variants (from gate C1)


@dataclass
class AuditState:
    seed: int
    variants: tuple


def audit_inputs(g2k, seed: int, size: str, workdir: Path) -> dict:
    return {"seed": seed, "variants": list(AUDIT_VARIANTS[size])}


def audit_ingest(g2k, inputs: dict) -> AuditState:
    return AuditState(inputs["seed"], tuple(inputs["variants"]))


def audit_warm_up(g2k, st: AuditState) -> None:
    da, cfg = g2k.data, g2k.config
    scenario = da.SyntheticScenario(kind="group_walk", n_peds=3, seed=st.seed,
                                    obs_len=3, pred_len=2)
    batch = da.synthesize(scenario)[0]
    for variant in st.variants:
        model = g2k.model.TrajectoryModel(cfg.desk_config(variant), seed=st.seed)
        _forward_backward(g2k, model, batch)


def audit_unit(g2k, st: AuditState, workdir: Path) -> Unit:
    tr = g2k.training
    u = Unit(ops=len(st.variants))
    t0 = perf_counter()
    for variant in st.variants:
        rep = _guard(u, 1, f"grad check {variant}",
                     lambda: tr.quick_grad_check(variant))
        if rep is None:
            continue
        if not rep.passed(GRAD_THRESHOLD):
            u.fail(1, f"{variant}:\n{rep.format(GRAD_THRESHOLD)}")
        u.mark([rep.per_param[k] for k in sorted(rep.per_param)])
    u.wall_s = perf_counter() - t0
    u.phases = {"gradcheck_s": u.wall_s}
    return u


@dataclass(frozen=True)
class Workload:
    make_inputs: object
    ingest: object
    warm_up: object
    unit: object


WORKLOADS = {
    "train_paper": Workload(paper_inputs, paper_ingest, paper_warm_up, paper_unit),
    "gradcheck_audit": Workload(audit_inputs, audit_ingest, audit_warm_up, audit_unit),
}
