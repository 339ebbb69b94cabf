"""Trajectory ingestion, windowing and synthetic crowds.

Canonical on-disk format: whitespace-separated columns
frame_id ped_id x y [pan], '#' starting a comment line, UTF-8. Coordinates
are world meters (pre-projected; homography application is a preprocessing
requirement, not handled here). pan is a head-pose angle in radians, world
frame, in (-pi, pi].

Scene images ride along as PGM grayscale: P2 and P5 are read, P2 written.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
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
class Tracks:
    """A dataset as columns, one row per point, sorted by (ped, frame) with
    one point per key: frame and ped (n,) int64, xy (n, 2) float64 and pan
    (n,) float64, NaN where a point has no pan. len() counts the points;
    iterating yields them as TrackPoints of Python numbers, so write_dataset
    takes Tracks as they are."""

    frame: np.ndarray
    ped: np.ndarray
    xy: np.ndarray
    pan: np.ndarray

    def __len__(self) -> int:
        return len(self.frame)

    def __iter__(self):
        for f, p, (x, y), a in zip(self.frame.tolist(), self.ped.tolist(),
                                   self.xy.tolist(), self.pan.tolist()):
            yield TrackPoint(f, p, x, y, None if math.isnan(a) else a)


@dataclass
class SceneBatch:
    """Co-present pedestrians over one shared span of frames.

    ped_ids is (N,); obs (obs_len, N, 2) and target (pred_len, N, 2) hold
    their positions; vislets holds the observed unit vectors (cos pan,
    sin pan) as (obs_len, N, 2), NaN where a pedestrian lacks a pan, so that
    take() keeps the vislets of the pedestrians it keeps.
    """

    ped_ids: np.ndarray
    obs: np.ndarray
    target: np.ndarray
    vislets: np.ndarray | None = None
    scene_image: np.ndarray | None = None

    @property
    def n_peds(self) -> int:
        return len(self.ped_ids)

    @property
    def obs_len(self) -> int:
        return self.obs.shape[0]

    @property
    def pred_len(self) -> int:
        return self.target.shape[0]

    def take(self, rows) -> SceneBatch:
        """The pedestrians at rows (indices or a slice), in that order."""
        vis = None if self.vislets is None else self.vislets[:, rows]
        return SceneBatch(self.ped_ids[rows], self.obs[:, rows], self.target[:, rows],
                          vis, self.scene_image)


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


def load_dataset(path: str) -> Tracks:
    """The points of a canonical TSV. InputError names the first bad line: a
    wrong column count, a malformed number, an id outside int64, a
    non-finite coordinate, a pan outside (-pi, pi] or a (frame, ped) key
    seen on an earlier line."""
    cols: tuple[list, ...] = ([], [], [], [], [])  # frame, ped, x, y, pan
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(read_text(path).split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            row = _parse_row(line.split())
        except InputError as e:
            raise InputError(f"{path}:{lineno}: {e}") from None
        key = row[:2]
        if key in seen:
            raise InputError(
                f"{path}:{lineno}: duplicate (frame {key[0]}, ped {key[1]})"
            )
        seen.add(key)
        for col, v in zip(cols, row):
            col.append(v)
    frame = np.array(cols[0], dtype=np.int64)
    ped = np.array(cols[1], dtype=np.int64)
    order = np.lexsort((frame, ped))
    xy = np.array(cols[2:4], dtype=np.float64).T
    return Tracks(frame[order], ped[order], xy[order],
                  np.array(cols[4], dtype=np.float64)[order])


_INT64 = range(-2**63, 2**63)


def _parse_row(cols: list[str]) -> tuple[int, int, float, float, float]:
    """(frame, ped, x, y, pan) of one data line, pan NaN in a 4-column line."""
    if len(cols) not in (4, 5):
        raise InputError(f"expected 4 or 5 columns, got {len(cols)}")
    try:
        frame = int(cols[0])
        ped = int(cols[1])
        x = float(cols[2])
        y = float(cols[3])
        pan = float(cols[4]) if len(cols) == 5 else math.nan
    except ValueError as e:
        raise InputError(str(e)) from None
    if frame not in _INT64 or ped not in _INT64:
        raise InputError("frame and ped ids must fit in 64 bits")
    if not (math.isfinite(x) and math.isfinite(y)):
        raise InputError("non-finite coordinates")
    if len(cols) == 5 and not (-math.pi < pan <= math.pi + 1e-12):
        raise InputError(f"pan {pan} outside (-pi, pi]")
    return frame, ped, x, y, pan


def _as_tracks(points: Tracks | Iterable[TrackPoint]) -> Tracks:
    """points as Tracks; of points with the same (frame, ped) the last wins."""
    if isinstance(points, Tracks):
        return points
    pts = list(points)
    frame = np.array([p.frame_id for p in pts], dtype=np.int64)
    ped = np.array([p.ped_id for p in pts], dtype=np.int64)
    order = np.lexsort((frame, ped))  # equal keys stay in their own order
    fo, po = frame[order], ped[order]
    last = np.ones(len(order), dtype=bool)
    last[:-1] = (fo[1:] != fo[:-1]) | (po[1:] != po[:-1])
    keep = order[last]
    xy = np.array([(p.x, p.y) for p in pts], dtype=np.float64).reshape(-1, 2)
    pan = np.array([math.nan if p.pan is None else p.pan for p in pts], dtype=np.float64)
    return Tracks(frame[keep], ped[keep], xy[keep], pan[keep])


def write_dataset(points: Iterable[TrackPoint], path: str) -> None:
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


def infer_stride(t: Tracks) -> int:
    """Smallest positive frame gap between a pedestrian's consecutive samples."""
    same = t.ped[1:] == t.ped[:-1]
    # the gaps are positive, so uint64 holds them exactly, wide ones included
    frame = t.frame.astype(np.uint64)
    gaps = frame[1:][same] - frame[:-1][same]
    return int(gaps.min()) if gaps.size else 1


def make_windows(
    points: Tracks | Iterable[TrackPoint],
    obs_len: int = 8,
    pred_len: int = 12,
    max_peds: int = 32,
) -> list[SceneBatch]:
    """Cut the tracks into (obs_len + pred_len)-frame windows at the
    inferred stride s.

    A pedestrian's window is a run of obs_len + pred_len consecutive rows of
    the (ped, frame)-sorted points whose frames step by exactly s, so a gap
    in the span drops that pedestrian from it. Windows with the same first
    frame form one batch, batches ordered by that frame; more than max_peds
    co-present keeps the lowest ped_ids.
    """
    if obs_len < 2 or pred_len < 1:
        raise InputError("obs_len >= 2 and pred_len >= 1 required")
    t = _as_tracks(points)
    rows = _spans(t, obs_len + pred_len, infer_stride(t))
    if not rows.size:
        return []
    starts = t.frame[rows[0]]
    batches = []
    for idx in np.split(rows, np.flatnonzero(np.diff(starts)) + 1, axis=1):
        idx = idx[:, :max_peds]
        pan = t.pan[idx[:obs_len]]  # NaN (no pan) gives NaN vislets
        vis = np.stack([np.cos(pan), np.sin(pan)], axis=2)
        batches.append(SceneBatch(t.ped[idx[0]], t.xy[idx[:obs_len]], t.xy[idx[obs_len:]], vis))
    return batches


def _spans(t: Tracks, total: int, s: int) -> np.ndarray:
    """(total, m) rows of t: column j holds the points at frames f0, f0 + s,
    ..., f0 + (total - 1) s of one pedestrian, for every (pedestrian, f0)
    whose span has no gap, ordered by f0 and then ped.

    Rows i .. i + k (k = total - 1) form such a span iff they share a ped
    and their frames lie k s apart: t is sorted by (ped, frame) with one
    point per key and s is the smallest gap, so k gaps summing to k s are
    each exactly s."""
    k = total - 1
    if k * s >= 2**64:  # wider than any two int64 frames lie apart
        return np.zeros((total, 0), dtype=np.intp)
    # uint64 wraps, so the ascending difference of a ped's frames is exact
    frame = t.frame.astype(np.uint64)
    first = np.flatnonzero((t.ped[k:] == t.ped[:-k])
                           & (frame[k:] - frame[:-k] == np.uint64(k * s)))
    first = first[np.argsort(t.frame[first], kind="stable")]
    return first + np.arange(total)[:, None]


def obs_positions(batch: SceneBatch) -> np.ndarray:
    """(obs_len, n_peds, 2) array of observed coordinates."""
    return batch.obs


def target_positions(batch: SceneBatch) -> np.ndarray:
    """(pred_len, n_peds, 2) array of future coordinates."""
    return batch.target


def obs_vislets(batch: SceneBatch) -> np.ndarray | None:
    """(obs_len, n_peds, 2) unit vectors, or None if a pedestrian lacks them."""
    v = batch.vislets
    return None if v is None or np.isnan(v).any() else v


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


def write_pgm(path: str, img: np.ndarray, comment: str | None = None) -> None:
    """Plain (P2) 8-bit PGM, values rounded and clipped to 0..255; the file
    is replaced atomically."""
    arr = np.asarray(img)
    if arr.ndim != 2:
        raise InputError("PGM image must be 2-D")
    if comment is not None and "\n" in comment:
        raise InputError("PGM comment must be a single line")
    arr = np.clip(np.rint(arr), 0, 255).astype(np.uint8)
    h, w = arr.shape
    note = f"# {comment}\n" if comment else ""
    header = f"P2\n{note}{w} {h}\n255\n"
    body = "".join(" ".join(map(str, r)) + "\n" for r in arr.tolist())
    write_bytes(path, (header + body).encode("ascii"))
