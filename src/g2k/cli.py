"""Command line front end: train, eval, viz, gradcheck, synth.

Configuration resolves in three layers: dataclass defaults, then a key=value
config file, then explicit flags.

Exit codes, mapped in entry() by error class:
  0  ok
  1  the eval report failed its own invariants
  2  usage or bad input: InputError, or an OSError on a path the user named
  3  training diverged: DivergenceError
  4  unusable checkpoint, or flags that contradict it: CheckpointError
  5  gradient check failure
"""

from __future__ import annotations

import argparse
import os
import stat
import sys

import numpy as np

from . import autodiff as ad
from . import data as da
from . import evaluation as ev
from . import training as tr
from .config import (VARIANTS, InputError, ModelConfig, TrainConfig,
                     parse_fields, read_key_values, read_text, write_text)

# flag -> field; argparse converts each value with parse_fields
_MODEL_FLAGS = [
    ("--hidden", "hidden_size"),
    ("--blocks", "num_blocks"),
    ("--cell-units", "cell_units"),
    ("--embed-pos", "embed_pos"),
    ("--embed-vis", "embed_vis"),
    ("--feature-dim", "feature_dim"),
    ("--zones", "zones"),
    ("--grid-size", "grid_size"),
    ("--cell-channels", "cell_channels"),
    ("--static-input", "static_input_dim"),
    ("--static-hidden", "static_hidden"),
    ("--lambda", "lambda_reg"),
    ("--neighborhood", "neighborhood_size"),
    ("--obs-len", "obs_len"),
    ("--pred-len", "pred_len"),
    ("--tau", "tau"),
    ("--init-scale", "init_scale"),
]

_TRAIN_FLAGS = [
    ("--epochs", "epochs"),
    ("--batch-size", "batch_size"),
    ("--lr", "lr"),
    ("--optimizer", "optimizer"),
    ("--seed", "seed"),
    ("--clip-norm", "clip_norm"),
]


def _add_field_flags(sub: argparse.ArgumentParser, flags, cls) -> None:
    for flag, dest in flags:
        def convert(raw: str, dest=dest):
            try:
                return parse_fields(cls, [(dest, raw)])[dest]
            except InputError as e:
                raise argparse.ArgumentTypeError(str(e)) from None
        sub.add_argument(flag, dest=dest, type=convert, default=None)


def _add_config_flags(sub: argparse.ArgumentParser, with_variant: bool) -> None:
    if with_variant:
        sub.add_argument("--variant", required=True, choices=VARIANTS)
    sub.add_argument("--config", help="key=value file of hyperparameters")
    _add_field_flags(sub, _MODEL_FLAGS, ModelConfig)
    sub.add_argument("--no-attention", action="store_true",
                     help="replace learned attention by uniform weights")
    _add_field_flags(sub, _TRAIN_FLAGS, TrainConfig)


def _out_path(raw: str) -> str:
    """--out's value; an empty one names no path and is a usage error."""
    if not raw:
        raise argparse.ArgumentTypeError("must not be empty")
    return raw


def _add_data_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--scenario", help="synthetic scenario spec file")
    sub.add_argument("--dataset", help="canonical TSV track file")
    sub.add_argument("--image", help="PGM scene map attached to every batch")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="g2k", description="pedestrian trajectory prediction workbench"
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_train = subs.add_parser("train", help="fit a variant, write ckpt + log")
    _add_config_flags(p_train, with_variant=True)
    _add_data_flags(p_train)
    p_train.add_argument("--out", required=True, type=_out_path, help="output directory")

    p_eval = subs.add_parser("eval", help="score a checkpoint or the baseline")
    p_eval.add_argument("--ckpt")
    p_eval.add_argument("--baseline", action="store_true",
                        help="constant-velocity reference, no checkpoint")
    _add_data_flags(p_eval)
    p_eval.add_argument("--out", type=_out_path, help="write the report CSV here")
    _add_field_flags(p_eval, _MODEL_FLAGS, ModelConfig)

    p_viz = subs.add_parser("viz", help="export adjacency, attention, heatmap")
    p_viz.add_argument("--ckpt", required=True)
    _add_data_flags(p_viz)
    p_viz.add_argument("--scene", type=int, default=0, help="batch index")
    p_viz.add_argument("--out", required=True, type=_out_path, help="output directory")

    p_grad = subs.add_parser("gradcheck", help="finite-difference gradient audit")
    g = p_grad.add_mutually_exclusive_group(required=True)
    g.add_argument("--variant", choices=VARIANTS)
    g.add_argument("--all", action="store_true", help="check every variant")

    p_synth = subs.add_parser("synth", help="emit a synthetic scenario as TSV")
    p_synth.add_argument("--scenario", required=True)
    p_synth.add_argument("--out", required=True, type=_out_path, help="output TSV path")

    return parser


# ---------------------------------------------------------------------------
# config resolution


def _set_flags(args, flags, cfg):
    """cfg with the value of every flag in flags that args sets."""
    for _, dest in flags:
        v = getattr(args, dest, None)
        if v is not None:
            setattr(cfg, dest, v)
    return cfg


def resolve_configs(args) -> tuple[ModelConfig, TrainConfig]:
    """defaults <- config file <- flags, then validation."""
    model_kw, train_kw = {}, {}
    if getattr(args, "config", None):
        text = read_text(args.config)
        try:
            model_kw, train_kw = read_key_values(text, ModelConfig, TrainConfig)
        except InputError as e:
            raise InputError(f"{args.config}: {e}") from None
    mc, tc = ModelConfig(**model_kw), TrainConfig(**train_kw)
    if getattr(args, "variant", None):
        mc.variant = args.variant
    _set_flags(args, _MODEL_FLAGS, mc)
    if getattr(args, "no_attention", False):
        mc.attention_enabled = False
    _set_flags(args, _TRAIN_FLAGS, tc)
    mc.validate()
    tc.validate()
    return mc, tc


def load_batches(args, mc: ModelConfig | None) -> list[da.SceneBatch]:
    """Scenario or TSV input as scene batches.

    With a model config the window lengths must agree with it. Without one
    (baseline evaluation) a scenario keeps its own lengths, and a dataset is
    cut at the --obs-len/--pred-len flags, else the ModelConfig defaults.
    """
    if getattr(args, "scenario", None):
        sc = da.load_scenario(args.scenario)
        if mc is not None and (sc.obs_len, sc.pred_len) != (mc.obs_len, mc.pred_len):
            raise InputError(
                f"scenario windows {sc.obs_len}/{sc.pred_len} do not match "
                f"model obs/pred {mc.obs_len}/{mc.pred_len}"
            )
        batches = da.synthesize(sc)
    elif getattr(args, "dataset", None):
        points = da.load_dataset(args.dataset)
        cfg = mc if mc is not None else _set_flags(args, _MODEL_FLAGS, ModelConfig())
        cfg.validate()
        batches = da.make_windows(
            points, cfg.obs_len, cfg.pred_len, max_peds=cfg.neighborhood_size
        )
    else:
        raise InputError("need --scenario or --dataset")
    if not batches:
        raise InputError("input produced no complete windows")
    if getattr(args, "image", None):
        img = da.read_pgm(args.image)
        for b in batches:
            b.scene_image = img
    return batches


# ---------------------------------------------------------------------------
# subcommands


def _check_out_dir(path: str) -> None:
    """InputError if path cannot become a directory: it names an existing
    non-directory, or its first existing ancestor is not a directory.
    Creates nothing. Any other OSError of the probe, such as a name too long
    for the file system, propagates; it names the path."""
    probe = path
    while probe:
        try:
            is_dir = stat.S_ISDIR(os.stat(probe).st_mode)
        except (FileNotFoundError, NotADirectoryError):
            probe = os.path.dirname(probe)
            continue
        if not is_dir:
            raise InputError(f"--out {path}: {probe} is not a directory")
        return


def cmd_train(args) -> int:
    mc, tc = resolve_configs(args)
    batches = load_batches(args, mc)
    _check_out_dir(args.out)
    result = tr.train(batches, mc, tc)
    os.makedirs(args.out, exist_ok=True)
    ckpt_path = os.path.join(args.out, "ckpt")
    tr.save_checkpoint(ckpt_path, result.model, tc, tc.epochs, result.history)
    result.log.write(os.path.join(args.out, "log"))
    print(f"trained {mc.variant} for {tc.epochs} epochs, "
          f"final loss {result.history[-1]:.6g}")
    print(f"checkpoint {ckpt_path}")
    return 0


def _check_flags_match(args, cfg: ModelConfig) -> None:
    """CheckpointError naming every model flag that contradicts cfg."""
    bad = []
    for _, dest in _MODEL_FLAGS:
        v = getattr(args, dest, None)
        if v is not None and getattr(cfg, dest) != v:
            bad.append(f"{dest}: checkpoint has {getattr(cfg, dest)}, flag says {v}")
    if bad:
        raise tr.CheckpointError("config mismatch: " + "; ".join(bad))


def cmd_eval(args) -> int:
    if args.baseline:
        batches = load_batches(args, None)
        report = ev.evaluate_baseline(batches)
    else:
        if not args.ckpt:
            raise InputError("need --ckpt (or --baseline)")
        ck = tr.load_checkpoint(args.ckpt)
        _check_flags_match(args, ck.model_cfg)
        model = ck.restore()
        batches = load_batches(args, ck.model_cfg)
        report = ev.evaluate(model, batches)
    problems = ev.check_invariants(report)
    if problems:
        for p in problems:
            print(f"invariant violated: {p}", file=sys.stderr)
        return 1
    sys.stdout.write(ev.report_table(report))
    if args.out is not None:
        ev.write_report_csv(report, args.out)
        print(f"report {args.out}")
    return 0


def write_matrix_csv(path: str, arr: np.ndarray, cfg_hash: str) -> None:
    """One repr() float row per matrix row under a config header, written
    atomically."""
    lines = [f"# config {cfg_hash}"]
    lines.extend(",".join(repr(float(v)) for v in row) for row in np.atleast_2d(arr))
    write_text(path, "\n".join(lines) + "\n")


def cmd_viz(args) -> int:
    ck = tr.load_checkpoint(args.ckpt)
    model = ck.restore()
    batches = load_batches(args, ck.model_cfg)
    if not 0 <= args.scene < len(batches):
        raise InputError(f"--scene {args.scene} out of range "
                         f"(have {len(batches)} batches)")
    model.warn_missing_images([batches[args.scene]])
    with ad.no_grad():
        run = model.run(batches[args.scene])
    diag = run.diagnostics
    if not diag.adjacency:
        raise InputError(f"variant {ck.model_cfg.variant} infers no adjacency; "
                         "nothing to export")
    os.makedirs(args.out, exist_ok=True)
    h = ck.cfg_hash

    def save(name: str, arr: np.ndarray) -> None:
        path = os.path.join(args.out, name)
        write_matrix_csv(path, arr, h)
        print(f"wrote {path}")

    save("adjacency.csv", diag.adjacency[-1])
    save("attention.csv", diag.attention[-1])
    if diag.cell_attention:
        g = ck.model_cfg.grid_size
        cells = np.asarray(diag.cell_attention[-1]).reshape(g, g)
        save("grid.csv", cells)
        peak = float(cells.max())
        img = np.zeros_like(cells) if peak <= 0 else cells / peak * 255.0
        pgm = os.path.join(args.out, "grid.pgm")
        da.write_pgm(pgm, img, comment=f"config {h}")
        print(f"wrote {pgm}")
    return 0


def cmd_gradcheck(args) -> int:
    names = list(VARIANTS) if args.all else [args.variant]
    all_ok = True
    for name in names:
        report = tr.quick_grad_check(name)
        ok = report.passed(1e-4)
        all_ok &= ok
        print(f"== {name}")
        print(report.format())
        if not ok:
            offenders = ", ".join(report.failures(1e-4))
            print(f"{name} offenders: {offenders}", file=sys.stderr)
    return 0 if all_ok else 5


def cmd_synth(args) -> int:
    sc = da.load_scenario(args.scenario)
    points = da.scenario_points(sc)
    da.write_dataset(points, args.out)
    print(f"wrote {len(points)} points ({sc.kind}, {sc.n_peds} pedestrians) "
          f"to {args.out}")
    return 0


_DISPATCH = {
    "train": cmd_train,
    "eval": cmd_eval,
    "viz": cmd_viz,
    "gradcheck": cmd_gradcheck,
    "synth": cmd_synth,
}


def _fail(err: Exception, code: int) -> int:
    print(f"error: {err}", file=sys.stderr)
    return code


def entry(argv: list[str] | None = None) -> int:
    """Run one subcommand; its errors become exit codes by class (module
    docstring). Any other error propagates with its traceback: it is a fault
    of the program, not of its input."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return _DISPATCH[args.command](args)
    except tr.CheckpointError as e:
        return _fail(e, 4)
    except tr.DivergenceError as e:
        return _fail(e, 3)
    except (InputError, OSError) as e:
        if isinstance(e, OSError) and e.filename is None:
            raise  # names no path the user gave
        return _fail(e, 2)


def main() -> None:
    sys.exit(entry())


if __name__ == "__main__":
    main()
