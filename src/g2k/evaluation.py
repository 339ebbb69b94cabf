"""Displacement metrics, the constant-velocity baseline, and ablations.

ADE averages Euclidean point errors over every pedestrian and predicted step;
FDE keeps only the final step. Reports carry the per-step error sequence so
the two stay consistent by construction (FDE is its last entry). The CSV
writers emit repr() floats and no wall-clock times, which makes same-seed
reports byte-identical; runtimes show up only in the human-readable tables.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from . import data as da
from .config import (RELATIONAL, InputError, ModelConfig, TrainConfig, config_hash,
                     write_text)
from .data import SceneBatch
from .model import TrajectoryModel
from .training import pack_rows, train


# pedestrian rows per forward graph in evaluate(). The packs are what the
# evaluation workers pull, so the cap trades parallel grain against graph
# overhead; it does not depend on the CPU count, so neither do the
# predictions. 120 rows keep the dense packed adjacency near 0.1 MB and split
# 16 paper-scale held-out scenes (about 224 rows) into two packs
EVAL_PACK_ROWS = 120


# ---------------------------------------------------------------------------
# metrics


def _check_pair(pred: np.ndarray, gt: np.ndarray) -> None:
    if pred.shape != gt.shape:
        raise InputError(f"shape mismatch: pred {pred.shape} vs gt {gt.shape}")
    if pred.ndim != 3 or pred.shape[2] != 2:
        raise InputError(f"expected (N, T, 2) arrays, got {pred.shape}")
    if pred.shape[1] < 1:
        raise InputError("need at least one predicted step")


def point_errors(pred: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """(N, T) Euclidean distances between prediction and ground truth."""
    _check_pair(pred, gt)
    return np.sqrt(((pred - gt) ** 2).sum(axis=2))


def ade(pred: np.ndarray, gt: np.ndarray) -> float:
    """Mean displacement over all pedestrians and steps, in meters."""
    return float(point_errors(pred, gt).mean())


def fde(pred: np.ndarray, gt: np.ndarray) -> float:
    """Mean displacement at the final step only, in meters."""
    return float(point_errors(pred, gt)[:, -1].mean())


# ---------------------------------------------------------------------------
# constant-velocity baseline


def baseline_predictions(batch: SceneBatch) -> np.ndarray:
    """(N, pred_len, 2) constant-velocity forecasts for a whole scene: the
    last observed velocity extrapolated."""
    if batch.obs_len < 2:
        raise InputError("baseline needs at least two observed points")
    last = batch.obs[-1]
    v = last - batch.obs[-2]
    steps = np.arange(1, batch.pred_len + 1)[:, None, None]
    return np.transpose(last + steps * v, (1, 0, 2))


# ---------------------------------------------------------------------------
# reports


@dataclass
class EvalRow:
    """Metrics for one labeled dataset slice."""

    label: str
    ade: float
    fde: float
    step_errors: list[float]
    n_scenes: int
    n_peds: int


@dataclass
class EvalReport:
    variant: str
    cfg_hash: str
    rows: list[EvalRow]
    runtime_s: float = 0.0

    @property
    def mean_ade(self) -> float:
        return float(np.mean([r.ade for r in self.rows]))

    @property
    def mean_fde(self) -> float:
        return float(np.mean([r.fde for r in self.rows]))


def check_invariants(report: EvalReport) -> list[str]:
    """Internal consistency violations; empty list when the report is sound."""
    bad = []
    for r in report.rows:
        if not np.isfinite([r.ade, r.fde, *r.step_errors]).all():
            bad.append(f"{r.label}: non-finite metric")
        if r.ade < 0 or r.fde < 0:
            bad.append(f"{r.label}: negative metric")
        if r.step_errors:
            if r.ade > max(r.step_errors) + 1e-12:
                bad.append(f"{r.label}: ADE exceeds max per-step error")
            if abs(r.fde - r.step_errors[-1]) > 1e-12:
                bad.append(f"{r.label}: FDE is not the last per-step error")
    return bad


def _pooled_row(label: str, preds: list[np.ndarray], gts: list[np.ndarray]) -> EvalRow:
    errors = np.concatenate(
        [point_errors(p, g) for p, g in zip(preds, gts)], axis=0
    )
    steps = errors.mean(axis=0)
    return EvalRow(
        label=label,
        ade=float(steps.mean()),
        fde=float(steps[-1]),
        step_errors=[float(v) for v in steps],
        n_scenes=len(preds),
        n_peds=int(errors.shape[0]),
    )


def _targets(batches: list[SceneBatch]) -> list[np.ndarray]:
    return [np.transpose(da.target_positions(b), (1, 0, 2)) for b in batches]


def evaluate(
    model: TrajectoryModel,
    batches: list[SceneBatch],
    label: str = "synthetic",
) -> EvalReport:
    """Run the model over scenes and pool their displacement errors in one
    row under label.

    The scenes are packed, in order, into forward-only graphs of at most
    EVAL_PACK_ROWS pedestrians (training.pack_rows), and the packs run under
    no_grad() on the CPUs the process may use, through one ad.spread() call.
    Scenes that lack the image an mcr_mpc model reads are counted in one
    warning for the call."""
    if not batches:
        raise InputError(f"no scenes under label {label!r}")
    model.warn_missing_images(batches)
    t0 = time.perf_counter()
    packs = pack_rows(range(len(batches)), batches, EVAL_PACK_ROWS)
    preds = [p for scenes in ad.spread(lambda pack: _predict(model, batches, pack), packs)
             for p in scenes]
    return EvalReport(
        variant=model.cfg.variant,
        cfg_hash=config_hash(model.cfg),
        rows=[_pooled_row(label, preds, _targets(batches))],
        runtime_s=time.perf_counter() - t0,
    )


def _predict(model: TrajectoryModel, batches: list[SceneBatch],
             pack: list[int]) -> list[np.ndarray]:
    with ad.no_grad():
        return model.run([batches[i] for i in pack]).scene_predictions()


def evaluate_baseline(batches: list[SceneBatch], label: str = "synthetic") -> EvalReport:
    t0 = time.perf_counter()
    preds = [baseline_predictions(b) for b in batches]
    return EvalReport(
        variant="constant_velocity",
        cfg_hash="baseline",
        rows=[_pooled_row(label, preds, _targets(batches))],
        runtime_s=time.perf_counter() - t0,
    )


def report_csv(report: EvalReport) -> str:
    # runtime deliberately absent: same-seed runs must emit identical bytes
    lines = ["variant,label,ade,fde,n_scenes,n_peds,cfg_hash"]
    for r in report.rows:
        lines.append(
            f"{report.variant},{r.label},{r.ade!r},{r.fde!r},"
            f"{r.n_scenes},{r.n_peds},{report.cfg_hash}"
        )
    return "\n".join(lines) + "\n"


def write_report_csv(report: EvalReport, path: str) -> None:
    write_text(path, report_csv(report))


def report_table(report: EvalReport) -> str:
    head = f"{'label':<16} {'ADE(m)':>10} {'FDE(m)':>10} {'scenes':>7} {'peds':>6}"
    lines = [f"variant {report.variant}  config {report.cfg_hash[:12]}", head,
             "-" * len(head)]
    for r in report.rows:
        lines.append(
            f"{r.label:<16} {r.ade:>10.4f} {r.fde:>10.4f} "
            f"{r.n_scenes:>7d} {r.n_peds:>6d}"
        )
    lines.append(f"runtime {report.runtime_s:.2f} s")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# ablations


@dataclass(frozen=True)
class AblationCell:
    neighborhood: int
    attention: bool
    static_grid: bool

    @property
    def label(self) -> str:
        att = "att" if self.attention else "noatt"
        st = "static" if self.static_grid else "nostatic"
        return f"n{self.neighborhood}-{att}-{st}"


@dataclass
class AblationOutcome:
    cell: AblationCell
    report: EvalReport | None = None
    error: str | None = None


@dataclass
class AblationResult:
    reference: AblationCell
    outcomes: list[AblationOutcome]

    def outcome(self, cell: AblationCell) -> AblationOutcome:
        for o in self.outcomes:
            if o.cell == cell:
                return o
        raise InputError(f"no outcome for {cell}")

    def relative_change(self) -> list[tuple[str, float | None, float | None]]:
        """(label, dADE, dFDE) fractions vs the reference cell; None on failure."""
        ref = self.outcome(self.reference)
        if ref.report is None:
            raise InputError(f"reference cell failed: {ref.error}")
        ra, rf = ref.report.mean_ade, ref.report.mean_fde
        out = []
        for o in self.outcomes:
            if o.report is None:
                out.append((o.cell.label, None, None))
            else:
                out.append((
                    o.cell.label,
                    (o.report.mean_ade - ra) / ra if ra > 0 else 0.0,
                    (o.report.mean_fde - rf) / rf if rf > 0 else 0.0,
                ))
        return out

    def table(self) -> str:
        head = f"{'cell':<22} {'ADE(m)':>10} {'FDE(m)':>10} {'dADE':>8} {'dFDE':>8}"
        lines = [head, "-" * len(head)]
        for label, da_, df_ in self.relative_change():
            o = next(x for x in self.outcomes if x.cell.label == label)
            if o.report is None:
                lines.append(f"{label:<22} failed: {o.error}")
                continue
            mark = " *" if o.cell == self.reference else ""
            lines.append(
                f"{label:<22} {o.report.mean_ade:>10.4f} {o.report.mean_fde:>10.4f} "
                f"{da_:>+8.1%} {df_:>+8.1%}{mark}"
            )
        lines.append("* reference")
        return "\n".join(lines) + "\n"


def ablation_csv(result: AblationResult) -> str:
    lines = ["cell,ade,fde,d_ade,d_fde,status"]
    for label, da_, df_ in result.relative_change():
        o = next(x for x in result.outcomes if x.cell.label == label)
        if o.report is None:
            lines.append(f"{label},,,,,{o.error}")
        else:
            lines.append(
                f"{label},{o.report.mean_ade!r},{o.report.mean_fde!r},"
                f"{da_!r},{df_!r},ok"
            )
    return "\n".join(lines) + "\n"


def _cap_scene(batch: SceneBatch, capacity: int) -> SceneBatch:
    """Clamp a scene to the first `capacity` pedestrians."""
    if batch.n_peds <= capacity:
        return batch
    return batch.take(slice(capacity))


def ablation_grid(neighborhoods=(32, 64)) -> list[AblationCell]:
    cells = []
    for n in neighborhoods:
        for att in (True, False):
            for st in (True, False):
                cells.append(AblationCell(n, att, st))
    return cells


def ablate(
    batches: list[SceneBatch],
    base_cfg: ModelConfig,
    train_cfg: TrainConfig,
    neighborhoods=(32, 64),
) -> AblationResult:
    """Retrain one model per grid cell and compare against the reference.

    The reference is the base config's own cell (its neighborhood capacity,
    attention and the base variant). A cell without the static grid trains
    mcr_n, the variant the paper gets by taking the static grid away. Cells
    whose configs differ only in neighborhood capacity and whose capped
    scenes have the same sizes train identical models, so they share one
    training; each gets the report under its own label and config hash. A
    failing cell is recorded and skipped; the sweep always finishes.
    """
    if base_cfg.variant not in RELATIONAL:
        raise InputError(
            f"ablation needs a relational variant, got {base_cfg.variant!r}"
        )
    if base_cfg.neighborhood_size not in neighborhoods:
        raise InputError(
            f"reference capacity {base_cfg.neighborhood_size} missing from "
            f"sweep values {tuple(neighborhoods)}"
        )
    reference = AblationCell(base_cfg.neighborhood_size, True, True)
    trained: dict[tuple, EvalReport | str] = {}
    outcomes = []
    for cell in ablation_grid(neighborhoods):
        cfg = replace(
            base_cfg,
            variant=base_cfg.variant if cell.static_grid else "mcr_n",
            neighborhood_size=cell.neighborhood,
            attention_enabled=cell.attention,
        )
        capped = [_cap_scene(b, cell.neighborhood) for b in batches]
        key = (config_hash(replace(cfg, neighborhood_size=0)),
               tuple(b.n_peds for b in capped))
        if key not in trained:
            try:
                trained[key] = evaluate(train(capped, cfg, train_cfg).model, capped)
            except Exception as e:  # noqa: BLE001 - cell isolation is the contract
                trained[key] = f"{type(e).__name__}: {e}"
        done = trained[key]
        if isinstance(done, str):
            outcomes.append(AblationOutcome(cell=cell, error=done))
        else:
            outcomes.append(AblationOutcome(cell=cell, report=replace(
                done, cfg_hash=config_hash(cfg),
                rows=[replace(r, label=cell.label) for r in done.rows],
            )))
    return AblationResult(reference=reference, outcomes=outcomes)
