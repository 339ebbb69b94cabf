"""Configuration dataclasses shared by the model, trainer and CLI.

Values are plain floats/ints/bools/strings so a config can round-trip through
the key=value text formats and be hashed stably. parse_fields is the one place
a raw string becomes a typed field value; config files, scenario files,
checkpoints and CLI flags all go through it. Validation happens in
validate() rather than __post_init__ so partially-built configs (e.g. during
CLI merge) do not explode early.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, fields

VARIANTS = ("g_lstm", "mc", "mcr_n", "mcr_mp", "mcr_mpc")


class InputError(ValueError):
    """Input from outside the program that g2k cannot use: a config, scenario,
    track file, scene image, flag value or batch. The CLI exits 2 on it."""


@dataclass
class ModelConfig:
    """Architecture hyperparameters.

    hidden_size, static_hidden and each cell input width must divide evenly
    into num_blocks slices (checked in validate).
    """

    variant: str = "mcr_mp"
    hidden_size: int = 128
    num_blocks: int = 4
    cell_units: int = 2
    embed_pos: int = 32
    embed_vis: int = 32
    feature_dim: int = 10
    zones: int = 8
    grid_size: int = 4
    cell_channels: int = 16
    static_input_dim: int = 32
    static_hidden: int = 64
    lambda_reg: float = 0.0005
    neighborhood_size: int = 32
    obs_len: int = 8
    pred_len: int = 12
    tau: float = -1.0  # -1 means 1/hidden_size, a message row's uniform level
    self_loops: bool = True
    attention_enabled: bool = True
    init_scale: float = 0.1

    def validate(self) -> None:
        if self.variant not in VARIANTS:
            raise InputError(f"unknown variant {self.variant!r}, expected one of {VARIANTS}")
        for name in ("hidden_size", "num_blocks", "cell_units", "embed_pos",
                     "embed_vis", "feature_dim", "zones", "grid_size",
                     "cell_channels", "static_input_dim", "static_hidden",
                     "neighborhood_size", "obs_len", "pred_len"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise InputError(f"{name} must be a positive integer, got {v!r}")
        for name, width in (("hidden_size", self.hidden_size),
                            ("static_hidden", self.static_hidden),
                            ("social input width", self.social_input_width()),
                            ("static_input_dim", self.static_input_dim)):
            if width % self.num_blocks != 0:
                raise InputError(
                    f"{name} {width} not divisible by num_blocks {self.num_blocks}"
                )
        if self.lambda_reg <= 0:
            raise InputError(f"lambda_reg must be positive, got {self.lambda_reg}")
        if self.tau != -1.0 and not (0.0 <= self.tau <= 1.0):
            raise InputError(f"tau must be -1 (auto) or in [0, 1], got {self.tau}")
        if self.init_scale <= 0:
            raise InputError(f"init_scale must be positive, got {self.init_scale}")

    @property
    def num_cells(self) -> int:
        return self.grid_size * self.grid_size

    def social_input_width(self) -> int:
        w = self.embed_pos
        if self.variant != "g_lstm":
            w += self.embed_vis
        return w


@dataclass
class TrainConfig:
    """Optimization settings. optimizer is "adam" or "sgd"."""

    epochs: int = 10
    batch_size: int = 16
    lr: float = 0.001
    optimizer: str = "adam"
    seed: int = 7
    clip_norm: float = 0.0  # 0 disables clipping

    def validate(self) -> None:
        if self.optimizer not in ("adam", "sgd"):
            raise InputError(f"optimizer must be adam or sgd, got {self.optimizer!r}")
        if self.epochs < 1 or self.batch_size < 1:
            raise InputError("epochs and batch_size must be >= 1")
        if self.lr < 0:
            raise InputError(f"lr must be nonnegative, got {self.lr}")
        if self.clip_norm < 0:
            raise InputError(f"clip_norm must be >= 0, got {self.clip_norm}")


def config_items(cfg) -> list[tuple[str, str]]:
    """Stable (name, repr) pairs for hashing and serialization."""
    out = []
    for f in sorted(fields(cfg), key=lambda f: f.name):
        v = getattr(cfg, f.name)
        if isinstance(v, bool):
            s = "true" if v else "false"
        elif isinstance(v, float):
            s = repr(v)
        else:
            s = str(v)
        out.append((f.name, s))
    return out


def _parse_bool(raw: str) -> bool:
    if raw not in ("true", "false"):
        raise ValueError
    return raw == "true"


def _parse_float(raw: str) -> float:
    v = float(raw)
    if not math.isfinite(v):
        raise ValueError
    return v


_PARSERS = {"bool": _parse_bool, "int": int, "float": _parse_float, "str": str}


def parse_fields(cls, pairs) -> dict[str, object]:
    """Typed values for (key, raw) string pairs naming fields of dataclass cls.

    The type comes from the field's annotation, a string such as "int" under
    postponed evaluation. Bools are exactly true/false and floats must be
    finite; an unknown key or a malformed value raises InputError naming the
    key. Inverse of config_items.
    """
    types = {f.name: f.type for f in fields(cls)}
    out = {}
    for key, raw in pairs:
        if key not in types:
            raise InputError(f"unknown key {key!r}")
        try:
            out[key] = _PARSERS[types[key]](raw)
        except ValueError:
            raise InputError(
                f"bad value for {key}: expected {types[key]}, got {raw!r}"
            ) from None
    return out


def read_key_values(text: str, *classes) -> list[dict[str, object]]:
    """Parse `key = value` lines into one field dict per dataclass in classes.

    '#' starts a comment that runs to the end of the line and blank lines are
    skipped. Each key goes to the first class that has a field of that name;
    a later line for the same key wins. Errors are InputErrors that carry
    the 1-based line number, counted in newlines.
    """
    out: list[dict[str, object]] = [{} for _ in classes]
    names = [{f.name for f in fields(c)} for c in classes]
    for lineno, raw_line in enumerate(text.split("\n"), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, raw = (s.strip() for s in line.partition("="))
        if not eq:
            raise InputError(f"line {lineno}: expected key = value, got {line!r}")
        j = next((j for j, n in enumerate(names) if key in n), 0)
        try:
            out[j].update(parse_fields(classes[j], [(key, raw)]))
        except InputError as e:
            raise InputError(f"line {lineno}: {e}") from None
    return out


def read_text(path: str, error: type[Exception] = InputError) -> str:
    """A UTF-8 file's text, each CRLF or CR line end read as LF; undecodable
    bytes raise error, not a traceback."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        raise error(f"{path}: not UTF-8 text (byte {e.start})") from None


def write_bytes(path: str, data: bytes) -> None:
    """Write data atomically: into a temp file beside path, then os.replace
    it onto path. On any failure the previous file at path is left as it
    was, the temp file is removed and OS errors name path."""
    head, name = os.path.split(path)
    tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException as e:
        try:
            os.remove(tmp)
        except OSError:
            pass
        if isinstance(e, OSError) and e.filename == tmp:
            e.filename = path
        raise


def write_text(path: str, text: str) -> None:
    """Write text as UTF-8 through write_bytes, atomically."""
    write_bytes(path, text.encode("utf-8"))


def config_hash(model_cfg: ModelConfig, train_cfg: TrainConfig | None = None) -> str:
    """sha256 over the sorted key=value lines of the config(s)."""
    lines = [f"model.{k}={v}" for k, v in config_items(model_cfg)]
    if train_cfg is not None:
        lines += [f"train.{k}={v}" for k, v in config_items(train_cfg)]
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def desk_config(variant: str = "mcr_mp") -> ModelConfig:
    """Tiny instance for gradient checking: finishes in seconds, exercises
    multiple blocks, stacked cell units and a 2x2 static grid."""
    return ModelConfig(
        variant=variant,
        hidden_size=8,
        num_blocks=2,
        cell_units=2,
        embed_pos=4,
        embed_vis=4,
        feature_dim=4,
        zones=4,
        grid_size=2,
        cell_channels=4,
        static_input_dim=8,
        static_hidden=8,
        neighborhood_size=8,
        obs_len=3,
        pred_len=2,
    )
