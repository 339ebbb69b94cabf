"""Trajectory ingestion, windowing and synthetic crowds.

Canonical on-disk format: whitespace-separated columns
frame_id ped_id x y [pan], '#' starting a comment line, UTF-8. Coordinates
are world meters (pre-projected; homography application is a preprocessing
requirement, not handled here). pan is a head-pose angle in radians, world
frame, in (-pi, pi].

Scene images ride along as PGM grayscale (P2 and P5, read and written).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import (InputError, read_key_values, read_text, write_bytes,
                     write_text)

DT_SECONDS = 0.4  # sampling period the window lengths are quoted in


@dataclass(frozen=True)
class TrackPoint:
    frame_id: int
    ped_id: int
    x: float
    y: float
    pan: float | None = None


@dataclass
class TrajectoryWindow:
    """One pedestrian's observed and future points at a fixed frame stride.

    vislets holds per-observed-step unit vectors (cos pan, sin pan), present
    only when every observed point carries a pan angle.
    """

    ped_id: int
    obs: list[TrackPoint]
    target: list[TrackPoint]
    vislets: np.ndarray | None = None


@dataclass
class SceneBatch:
    """Co-present pedestrian windows over one shared time span."""

    windows: list[TrajectoryWindow]
    scene_image: np.ndarray | None = None

    @property
    def n_peds(self) -> int:
        return len(self.windows)

    @property
    def obs_len(self) -> int:
        return len(self.windows[0].obs)

    @property
    def pred_len(self) -> int:
        return len(self.windows[0].target)


@dataclass
class SyntheticScenario:
    """Pure description of a synthetic crowd; same fields → same output."""

    kind: str = "constant_velocity"
    n_peds: int = 3
    speed_min: float = 1.0
    speed_max: float = 1.0
    noise_sigma: float = 0.0
    seed: int = 0
    obs_len: int = 8
    pred_len: int = 12

    KINDS = ("constant_velocity", "crossing_pair", "group_walk")

    def validate(self) -> None:
        if self.kind not in self.KINDS:
            raise InputError(f"unknown kind {self.kind!r}, expected one of {self.KINDS}")
        if self.kind == "crossing_pair" and self.n_peds != 2:
            raise InputError("crossing_pair requires n_peds == 2")
        if self.n_peds < 1:
            raise InputError("n_peds must be >= 1")
        if not (0.0 < self.speed_min <= self.speed_max):
            raise InputError("need 0 < speed_min <= speed_max")
        if self.noise_sigma < 0:
            raise InputError("noise_sigma must be >= 0")
        if self.obs_len < 2 or self.pred_len < 1:
            raise InputError("obs_len >= 2 and pred_len >= 1 required")


def _wrap_angle(a: float) -> float:
    """Into (-pi, pi]."""
    a = math.atan2(math.sin(a), math.cos(a))
    if a <= -math.pi:
        a = math.pi
    return a


# ---------------------------------------------------------------------------
# canonical TSV


def load_dataset(path: str) -> list[TrackPoint]:
    points: list[TrackPoint] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(read_text(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        cols = line.split()
        if len(cols) not in (4, 5):
            raise InputError(f"{path}:{lineno}: expected 4 or 5 columns, got {len(cols)}")
        try:
            frame = int(cols[0])
            ped = int(cols[1])
            x = float(cols[2])
            y = float(cols[3])
            pan = float(cols[4]) if len(cols) == 5 else None
        except ValueError as e:
            raise InputError(f"{path}:{lineno}: {e}") from None
        if not (math.isfinite(x) and math.isfinite(y)):
            raise InputError(f"{path}:{lineno}: non-finite coordinates")
        if pan is not None and not (-math.pi < pan <= math.pi + 1e-12):
            raise InputError(f"{path}:{lineno}: pan {pan} outside (-pi, pi]")
        key = (frame, ped)
        if key in seen:
            raise InputError(
                f"{path}:{lineno}: duplicate (frame {frame}, ped {ped})"
            )
        seen.add(key)
        points.append(TrackPoint(frame, ped, x, y, pan))
    points.sort(key=lambda p: (p.ped_id, p.frame_id))
    return points


def write_dataset(points: list[TrackPoint], path: str) -> None:
    """Inverse of load_dataset up to whitespace and row order: floats are
    written with repr so values round-trip bit-exactly. The file is
    replaced atomically."""
    lines = ["# frame_id ped_id x y [pan]"]
    for p in sorted(points, key=lambda p: (p.ped_id, p.frame_id)):
        cols = [str(p.frame_id), str(p.ped_id), repr(p.x), repr(p.y)]
        if p.pan is not None:
            cols.append(repr(p.pan))
        lines.append("\t".join(cols))
    write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# windowing


def infer_stride(points: list[TrackPoint]) -> int:
    """Smallest positive frame gap between a pedestrian's consecutive samples."""
    best = None
    by_ped: dict[int, list[int]] = {}
    for p in points:
        by_ped.setdefault(p.ped_id, []).append(p.frame_id)
    for frames in by_ped.values():
        frames.sort()
        for a, b in zip(frames, frames[1:]):
            d = b - a
            if d > 0 and (best is None or d < best):
                best = d
    return best if best is not None else 1


def make_windows(
    points: list[TrackPoint],
    obs_len: int = 8,
    pred_len: int = 12,
    max_peds: int = 32,
    stride: int | None = None,
) -> list[SceneBatch]:
    """Slide an (obs_len + pred_len)-frame span over the dataset.

    A batch is emitted per span start where at least one pedestrian has full
    contiguous coverage; pedestrians with gaps in that span are dropped from
    it. More than max_peds co-present keeps the lowest ped_ids. Each span
    start tests only the pedestrians present at its first frame.
    """
    if obs_len < 2 or pred_len < 1:
        raise InputError("obs_len >= 2 and pred_len >= 1 required")
    if not points:
        return []
    s = infer_stride(points) if stride is None else stride
    total = obs_len + pred_len
    by_ped: dict[int, dict[int, TrackPoint]] = {}
    at_frame: dict[int, set[int]] = {}  # pedestrians present, by frame
    for p in points:
        by_ped.setdefault(p.ped_id, {})[p.frame_id] = p
        at_frame.setdefault(p.frame_id, set()).add(p.ped_id)

    batches: list[SceneBatch] = []
    for f0 in sorted(at_frame):
        span = [f0 + k * s for k in range(total)]
        windows: list[TrajectoryWindow] = []
        for ped_id in sorted(at_frame[f0]):
            track = by_ped[ped_id]
            if all(f in track for f in span):
                pts = [track[f] for f in span]
                obs, target = pts[:obs_len], pts[obs_len:]
                vis = None
                if all(p.pan is not None for p in obs):
                    vis = np.array([[math.cos(p.pan), math.sin(p.pan)] for p in obs])
                windows.append(TrajectoryWindow(ped_id, obs, target, vis))
        if windows:
            batches.append(SceneBatch(windows=windows[:max_peds]))
    return batches


def obs_positions(batch: SceneBatch) -> np.ndarray:
    """(obs_len, n_peds, 2) array of observed coordinates."""
    return np.array(
        [[[w.obs[t].x, w.obs[t].y] for w in batch.windows] for t in range(batch.obs_len)]
    )


def target_positions(batch: SceneBatch) -> np.ndarray:
    """(pred_len, n_peds, 2) array of future coordinates."""
    return np.array(
        [
            [[w.target[t].x, w.target[t].y] for w in batch.windows]
            for t in range(batch.pred_len)
        ]
    )


def obs_vislets(batch: SceneBatch) -> np.ndarray | None:
    """(obs_len, n_peds, 2) unit vectors, or None if any window lacks them."""
    if any(w.vislets is None for w in batch.windows):
        return None
    return np.stack([w.vislets for w in batch.windows], axis=1)


# ---------------------------------------------------------------------------
# synthetic crowds


def scenario_points(scenario: SyntheticScenario) -> list[TrackPoint]:
    """Deterministic crowds with head poses aligned to walking direction.

    constant_velocity: straight tracks, ped 0 exactly along +x, others fanned
    around the circle. crossing_pair: one track along +x, one along +y,
    intersecting mid-window. group_walk: a group on a shared circular arc
    (constant turn rate) with small per-pedestrian jitter, so a straight-line
    extrapolation is measurably wrong on it.
    """
    scenario.validate()
    rng = np.random.default_rng(scenario.seed)
    T = scenario.obs_len + scenario.pred_len
    dt = DT_SECONDS
    frame_stride = 10
    points: list[TrackPoint] = []

    def speed() -> float:
        if scenario.speed_min == scenario.speed_max:
            return scenario.speed_min
        return float(rng.uniform(scenario.speed_min, scenario.speed_max))

    def emit(ped: int, xs: np.ndarray, ys: np.ndarray, pans: list[float]):
        if scenario.noise_sigma > 0:
            xs = xs + rng.normal(0.0, scenario.noise_sigma, T)
            ys = ys + rng.normal(0.0, scenario.noise_sigma, T)
        for j in range(T):
            points.append(
                TrackPoint(j * frame_stride, ped, float(xs[j]), float(ys[j]),
                           _wrap_angle(pans[j]))
            )

    j = np.arange(T, dtype=np.float64)
    if scenario.kind == "constant_velocity":
        for i in range(scenario.n_peds):
            theta = 2.0 * math.pi * i / scenario.n_peds
            v = speed()
            x0, y0 = (0.0, 3.0 * i) if i else (0.0, 0.0)
            xs = x0 + j * (v * dt * math.cos(theta))
            ys = y0 + j * (v * dt * math.sin(theta))
            emit(i, xs, ys, [theta] * T)
    elif scenario.kind == "crossing_pair":
        v0, v1 = speed(), speed()
        half = (T - 1) / 2.0
        xs0 = -v0 * dt * half + j * (v0 * dt)
        emit(0, xs0, np.zeros(T), [0.0] * T)
        ys1 = -v1 * dt * half + j * (v1 * dt)
        emit(1, np.zeros(T), ys1, [math.pi / 2.0] * T)
    else:  # group_walk
        omega = 0.15  # rad per step; the arc that defeats straight extrapolation
        base_theta = float(rng.uniform(0.0, 2.0 * math.pi))
        base_speed = speed()
        for i in range(scenario.n_peds):
            off = rng.uniform(-0.6, 0.6, 2)
            th0 = base_theta + float(rng.uniform(-0.05, 0.05))
            sp = base_speed * float(rng.uniform(0.95, 1.05))
            xs = np.empty(T)
            ys = np.empty(T)
            xs[0], ys[0] = float(off[0]), float(off[1])
            pans = [th0]
            for k in range(1, T):
                th = th0 + omega * (k - 1)
                xs[k] = xs[k - 1] + sp * dt * math.cos(th)
                ys[k] = ys[k - 1] + sp * dt * math.sin(th)
                pans.append(th0 + omega * k)
            emit(i, xs, ys, pans)

    return points


def synthesize(scenario: SyntheticScenario) -> list[SceneBatch]:
    """Scenario points windowed into scene batches."""
    return make_windows(scenario_points(scenario), scenario.obs_len, scenario.pred_len)


# ---------------------------------------------------------------------------
# scenario spec files (key=value)


def parse_scenario(text: str) -> SyntheticScenario:
    """Scenario from `key = value` lines, the grammar of --config files."""
    (kw,) = read_key_values(text, SyntheticScenario)
    sc = SyntheticScenario(**kw)
    sc.validate()
    return sc


def load_scenario(path: str) -> SyntheticScenario:
    text = read_text(path)
    try:
        return parse_scenario(text)
    except InputError as e:
        raise InputError(f"{path}: {e}") from None


# ---------------------------------------------------------------------------
# PGM scene images


def read_pgm(path: str) -> np.ndarray:
    """P2 or P5 grayscale, maxval <= 255, as a (rows, cols) uint8 array
    with samples scaled from 0..maxval to 0..255."""
    with open(path, "rb") as fh:
        blob = fh.read()

    tokens: list[bytes] = []
    i = 0
    # header needs 4 tokens: magic, width, height, maxval; '#' comments skipped
    while len(tokens) < 4 and i < len(blob):
        c = blob[i : i + 1]
        if c == b"#":
            while i < len(blob) and blob[i : i + 1] != b"\n":
                i += 1
        elif c.isspace():
            i += 1
        else:
            start = i
            while i < len(blob) and not blob[i : i + 1].isspace() and blob[i : i + 1] != b"#":
                i += 1
            tokens.append(blob[start:i])
    if len(tokens) < 4:
        raise InputError(f"{path}: truncated PGM header")
    magic = tokens[0]
    if magic not in (b"P2", b"P5"):
        raise InputError(f"{path}: not a PGM (magic {magic!r})")
    try:
        width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    except ValueError:
        raise InputError(f"{path}: non-numeric PGM header") from None
    if width < 1 or height < 1:
        raise InputError(f"{path}: bad dimensions {width}x{height}")
    if not (0 < maxval <= 255):
        raise InputError(f"{path}: unsupported maxval {maxval}")

    if magic == b"P5":
        i += 1  # single whitespace after maxval
        raster = blob[i : i + width * height]
        if len(raster) != width * height:
            raise InputError(f"{path}: raster size mismatch")
        img = np.frombuffer(raster, dtype=np.uint8)
        if img.max() > maxval:
            raise InputError(f"{path}: sample outside [0, {maxval}]")
    else:
        vals = blob[i:].split()
        if len(vals) != width * height:
            raise InputError(
                f"{path}: expected {width * height} samples, got {len(vals)}"
            )
        try:
            samples = [int(v) for v in vals]
        except ValueError:
            raise InputError(f"{path}: non-numeric sample") from None
        # range-checked as Python ints: a sample past int64 must not overflow
        if min(samples) < 0 or max(samples) > maxval:
            raise InputError(f"{path}: sample outside [0, {maxval}]")
        img = np.array(samples, dtype=np.uint8)
    scaled = (img.astype(np.int64) * 255 + maxval // 2) // maxval  # rounded
    return scaled.astype(np.uint8).reshape(height, width)


def write_pgm(path: str, img: np.ndarray, magic: str = "P5",
              comment: str | None = None) -> None:
    """Binary (P5) or plain (P2) 8-bit PGM, values rounded and clipped to
    0..255; the file is replaced atomically."""
    arr = np.asarray(img)
    if arr.ndim != 2:
        raise InputError("PGM image must be 2-D")
    if comment is not None and "\n" in comment:
        raise InputError("PGM comment must be a single line")
    arr = np.clip(np.rint(arr), 0, 255).astype(np.uint8)
    h, w = arr.shape
    note = f"# {comment}\n" if comment else ""
    header = f"{magic}\n{note}{w} {h}\n255\n".encode("ascii")
    if magic == "P5":
        body = arr.tobytes()
    elif magic == "P2":
        body = "".join(" ".join(map(str, r)) + "\n" for r in arr.tolist()).encode("ascii")
    else:
        raise InputError(f"unsupported PGM magic {magic!r}")
    write_bytes(path, header + body)
