"""Ingestion, windowing, synthesis and image-format checks."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from g2k import data as d
from g2k import neighborhood as nb
from g2k.cli import entry
from g2k.config import InputError


def write(tmp_path, text, name="t.tsv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


# ---------------------------------------------------------------------------
# canonical TSV


def test_load_minimal_two_rows(tmp_path):
    pts = d.load_dataset(write(tmp_path, "0 1 0.0 0.0\n10 1 0.4 0.0\n"))
    assert len(pts) == 2
    assert list(pts)[0] == d.TrackPoint(0, 1, 0.0, 0.0, None)
    assert d.infer_stride(pts) == 10


def test_load_pan_column(tmp_path):
    pts = d.load_dataset(write(tmp_path, "0 1 0.0 0.0 1.5708\n"))
    assert list(pts)[0].pan == pytest.approx(math.pi / 2, abs=1e-4)


def test_load_comments_and_blank_lines(tmp_path):
    text = "# header\n\n0 1 0.0 0.0  # trailing\n10 1 0.4 0.0\n"
    assert len(d.load_dataset(write(tmp_path, text))) == 2


def test_load_ends_lines_at_newlines_only(tmp_path):
    """A form feed or Unicode line separator stays inside its comment, line
    numbers count newlines, and CRLF files load."""
    p = tmp_path / "t.tsv"
    text = "0 1 0.0 0.0 # note\x0cx\x85y\u2028z\r\n10 1 0.4 0.0\r\n"
    p.write_bytes(text.encode("utf-8"))
    assert len(d.load_dataset(str(p))) == 2
    p.write_bytes((text + "0 2 oops 0.0\r\n").encode("utf-8"))
    with pytest.raises(InputError, match=":3: could not convert"):
        d.load_dataset(str(p))


def test_load_duplicate_key_rejected(tmp_path):
    with pytest.raises(InputError, match="duplicate"):
        d.load_dataset(write(tmp_path, "0 1 0.0 0.0\n0 1 1.0 1.0\n"))


def test_load_malformed_row_reports_line(tmp_path):
    with pytest.raises(InputError, match=":2:"):
        d.load_dataset(write(tmp_path, "0 1 0.0 0.0\n0 2 oops 0.0\n"))
    with pytest.raises(InputError, match=":1:"):
        d.load_dataset(write(tmp_path, "0 1 0.0\n"))


def test_load_mixed_four_and_five_columns(tmp_path):
    pts = d.load_dataset(write(tmp_path, "0 1 0.0 0.0 0.5\n10 1 0.4 0.0\n0 2 1.0 1.0\n"))
    assert [p.pan for p in pts] == [0.5, None, None]
    assert np.isnan(pts.pan[1:]).all()


@pytest.mark.parametrize("text, line, message", [
    ("0 1 0.0 0.0\n0 1 1.0 1.0\n0 2 oops 0.0\n", 2, "duplicate (frame 0, ped 1)"),
    ("0 1 0.0 0.0\n0 2 oops 0.0\n0 1 1.0 1.0\n", 2,
     "could not convert string to float: 'oops'"),
    ("0 1 0.0 0.0\n0 2 0.0 0.0 7.0\n0 1 0.0 0.0\n", 2, "pan 7.0 outside (-pi, pi]"),
    ("0 1 0.0 0.0\n10 1 nan 0.0\n0 1 0.0 0.0\n", 2, "non-finite coordinates"),
    ("0 1 0.0 0.0\n0 1 0.0\n0 1 0.0 0.0\n", 2, "expected 4 or 5 columns, got 3"),
], ids=["duplicate-first", "value-first", "pan-first", "nan-first", "columns-first"])
def test_load_two_faults_names_the_earlier_line(tmp_path, text, line, message):
    path = write(tmp_path, text)
    with pytest.raises(InputError) as exc:
        d.load_dataset(path)
    assert str(exc.value) == f"{path}:{line}: {message}"


@pytest.mark.parametrize("row", [f"{2**63} 1 0.0 0.0", f"0 {-2**63 - 1} 0.0 0.0"])
def test_load_id_beyond_int64_names_its_line(tmp_path, row):
    with pytest.raises(InputError, match=r":2: frame and ped ids must fit in 64 bits"):
        d.load_dataset(write(tmp_path, "0 1 0.0 0.0\n" + row + "\n"))


def test_windows_at_the_int64_limits(tmp_path):
    # ids at both ends of int64, and frame spans wider than int64: the
    # consecutive rows' frame differences must neither overflow nor wrap
    lo, hi = -2**63, 2**63 - 1
    wide = [(lo, 5), (-1, 5), (hi - 1, 5), (lo, 7), (hi, 7)]  # gaps 2**63 - 1, 2**64 - 1
    edge = [(hi - 20 + k * 10, p) for p in (lo, hi) for k in range(3)]  # stride 10
    only_wide = wide[:3]  # the inferred stride is 2**63 - 1, a span 2**64 - 2
    for name, rows, stride in (("e.tsv", wide + edge, 10), ("o.tsv", only_wide, 2**63 - 1)):
        text = "".join(f"{f} {p} {0.5 * i} 1.0\n" for i, (f, p) in enumerate(rows))
        pts = d.load_dataset(write(tmp_path, text, name))
        assert d.infer_stride(pts) == stride
        got = d.make_windows(pts, obs_len=2, pred_len=1)
        want = windows_oracle(list(pts), 2, 1, 32, stride)
        assert [list(zip(b.ped_ids.tolist(), np.swapaxes(b.obs, 0, 1).tolist()))
                for b in got] == [[(ped, [[p.x, p.y] for p in obs]) for ped, obs, _ in wins]
                                  for wins in want]
        assert len(got) == 1
    # an inferred stride whose span, (obs_len + pred_len - 1) strides, is
    # wider than uint64 finds no window rather than overflowing
    wide_gap = d.load_dataset(write(tmp_path, f"0 1 0.0 0.0\n{10**18} 1 1.0 0.0\n", "w.tsv"))
    assert d.infer_stride(wide_gap) == 10**18
    assert d.make_windows(wide_gap) == []


def test_load_rejects_out_of_range_pan(tmp_path):
    with pytest.raises(InputError, match="pan"):
        d.load_dataset(write(tmp_path, "0 1 0.0 0.0 7.0\n"))


def test_load_sorts_by_ped_then_frame(tmp_path):
    text = "10 2 1.0 0.0\n0 1 0.0 0.0\n0 2 0.5 0.0\n"
    pts = d.load_dataset(write(tmp_path, text))
    assert [(p.ped_id, p.frame_id) for p in pts] == [(1, 0), (2, 0), (2, 10)]


def test_write_load_round_trip(tmp_path):
    src = [
        d.TrackPoint(0, 1, 0.1, -2.5, 0.5),
        d.TrackPoint(10, 1, 0.30000000000000004, -2.0, None),
        d.TrackPoint(0, 2, 1e-17, 3.25, -3.14),
    ]
    path = str(tmp_path / "rt.tsv")
    d.write_dataset(src, path)
    assert list(d.load_dataset(path)) == sorted(src, key=lambda p: (p.ped_id, p.frame_id))


# ---------------------------------------------------------------------------
# windowing


def track(ped, n, f0=0, s=10, x0=0.0):
    return [d.TrackPoint(f0 + i * s, ped, x0 + 0.4 * i, 0.0) for i in range(n)]


def as_tracks(points):
    """Tracks of TrackPoints with distinct (frame, ped) keys."""
    pts = sorted(points, key=lambda p: (p.ped_id, p.frame_id))
    return d.Tracks(np.array([p.frame_id for p in pts], dtype=np.int64),
                    np.array([p.ped_id for p in pts], dtype=np.int64),
                    np.array([(p.x, p.y) for p in pts], dtype=np.float64).reshape(-1, 2),
                    np.array([math.nan if p.pan is None else p.pan for p in pts]))


def test_exact_fit_gives_one_window():
    batches = d.make_windows(as_tracks(track(1, 20)))
    assert len(batches) == 1
    assert batches[0].n_peds == 1
    assert batches[0].obs.shape == (8, 1, 2)
    assert batches[0].target.shape == (12, 1, 2)


def test_21_samples_give_two_windows():
    batches = d.make_windows(as_tracks(track(1, 21)))
    assert sum(b.n_peds for b in batches) == 2


def test_seven_frame_overlap_never_shares_a_batch():
    pts = track(1, 20, f0=0) + track(2, 20, f0=130)
    for b in d.make_windows(as_tracks(pts)):
        assert b.n_peds == 1


def test_gap_breaks_coverage():
    pts = [p for p in track(1, 21) if p.frame_id != 100]
    assert d.make_windows(as_tracks(pts)) == []


def test_windowing_is_loss_free():
    pts = track(1, 25)
    for b in d.make_windows(as_tracks(pts)):
        joined = np.concatenate([b.obs[:, 0], b.target[:, 0]]).tolist()
        # every point of the track has its own position
        i0 = next(i for i, p in enumerate(pts) if [p.x, p.y] == joined[0])
        assert joined == [[p.x, p.y] for p in pts[i0 : i0 + 20]]


def test_neighborhood_cap_keeps_lowest_ids():
    pts = track(3, 20) + track(1, 20) + track(2, 20)
    b = d.make_windows(as_tracks(pts), max_peds=2)[0]
    assert b.ped_ids.tolist() == [1, 2]


def windows_oracle(points, obs_len, pred_len, max_peds, stride):
    """The original windowing loop: every pedestrian tested at every start."""
    total = obs_len + pred_len
    by_ped = {}
    for p in points:
        by_ped.setdefault(p.ped_id, {})[p.frame_id] = p
    out = []
    for f0 in sorted({p.frame_id for p in points}):
        span = [f0 + k * stride for k in range(total)]
        wins = []
        for ped in sorted(by_ped):
            if all(f in by_ped[ped] for f in span):
                pts = [by_ped[ped][f] for f in span]
                wins.append((ped, pts[:obs_len], pts[obs_len:]))
        if wins:
            out.append(wins[:max_peds])
    return out


def smallest_gap(points):
    """The smallest step between two frames of one pedestrian, 1 if none."""
    frames = {}
    for p in points:
        frames.setdefault(p.ped_id, set()).add(p.frame_id)
    gaps = [b - a for fs in frames.values() for a, b in zip(sorted(fs), sorted(fs)[1:])]
    return min(gaps, default=1)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.sampled_from([1, 3, 10]))
def test_make_windows_matches_double_loop_oracle(seed, n_peds, stride):
    # random tracks with gaps, frame steps of stride or 2 * stride, start
    # frames off the stride's grid and more than max_peds pedestrians
    # present at once
    g = np.random.default_rng(seed)
    points = []
    for ped in g.permutation(n_peds):
        start = int(g.integers(0, 8 * stride))
        step = stride * int(g.integers(1, 3))
        for k in range(int(g.integers(2, 16))):
            if g.random() > 0.1:
                pan = float(g.uniform(-3.0, 3.0)) if g.random() > 0.2 else None
                points.append(d.TrackPoint(start + k * step, int(ped),
                                           float(g.normal()), float(g.normal()), pan))
    got = d.make_windows(as_tracks(points), obs_len=2, pred_len=3, max_peds=3)
    want = windows_oracle(points, 2, 3, 3, smallest_gap(points))
    # the positions are drawn at random, so they identify the points
    assert [list(zip(b.ped_ids.tolist(), np.swapaxes(b.obs, 0, 1).tolist(),
                     np.swapaxes(b.target, 0, 1).tolist())) for b in got] == [
        [(ped, [[p.x, p.y] for p in obs], [[p.x, p.y] for p in target])
         for ped, obs, target in wins] for wins in want]
    for b, wins in zip(got, want):
        if all(p.pan is not None for _, obs, _ in wins for p in obs):
            assert np.array_equal(np.swapaxes(d.obs_vislets(b), 0, 1), [
                [[math.cos(p.pan), math.sin(p.pan)] for p in obs] for _, obs, _ in wins])
        else:
            assert d.obs_vislets(b) is None


def test_batch_windows_share_frames():
    # both tracks sit at x = 0.04 * frame, so equal positions mean equal frames
    pts = track(1, 22) + track(2, 22)
    for b in d.make_windows(as_tracks(pts)):
        assert b.n_peds == 2
        assert np.array_equal(b.obs[:, 0], b.obs[:, 1])
        assert np.array_equal(b.target[:, 0], b.target[:, 1])


# ---------------------------------------------------------------------------
# synthesis


def cv_scenario(**kw):
    base = dict(kind="constant_velocity", n_peds=1, speed_min=1.0, speed_max=1.0,
                noise_sigma=0.0, seed=0)
    base.update(kw)
    return d.SyntheticScenario(**base)


def test_constant_velocity_noiseless_kinematics():
    b = d.synthesize(cv_scenario())[0]
    for k in range(12):
        assert b.target[k, 0, 0] - b.obs[7, 0, 0] == pytest.approx(0.4 * (k + 1), abs=1e-12)
        assert b.target[k, 0, 1] == 0.0


def test_constant_velocity_pan_along_x_is_zero():
    for p in d.scenario_points(cv_scenario()):
        assert p.pan == 0.0
    # cos 0 = 1 and sin 0 = 0 exactly, and sin is 0.0 only at pan 0
    b = d.synthesize(cv_scenario())[0]
    assert np.all(d.obs_vislets(b) == [1.0, 0.0])


def test_crossing_pair_seed_determinism():
    sc = d.SyntheticScenario(kind="crossing_pair", n_peds=2, speed_min=0.8,
                             speed_max=1.4, noise_sigma=0.05, seed=7)
    a = d.synthesize(sc)
    b = d.synthesize(sc)
    assert d.obs_positions(a[0]).tobytes() == d.obs_positions(b[0]).tobytes()
    assert d.target_positions(a[0]).tobytes() == d.target_positions(b[0]).tobytes()


def test_crossing_pair_paths_intersect_mid_window():
    b = d.synthesize(d.SyntheticScenario(kind="crossing_pair", n_peds=2, seed=1))[0]
    pos = np.concatenate([d.obs_positions(b), d.target_positions(b)])
    # ped 0 rides y=0, ped 1 rides x=0; both pass the origin inside the window
    assert np.all(pos[:, 0, 1] == 0.0) and np.all(pos[:, 1, 0] == 0.0)
    assert pos[0, 0, 0] < 0 < pos[-1, 0, 0]
    assert pos[0, 1, 1] < 0 < pos[-1, 1, 1]


def test_group_walk_is_curved():
    b = d.synthesize(d.SyntheticScenario(kind="group_walk", n_peds=4, seed=3))[0]
    obs = d.obs_positions(b)
    tgt = d.target_positions(b)
    vel = obs[-1] - obs[-2]
    worst = 0.0
    for k in range(tgt.shape[0]):
        extrap = obs[-1] + (k + 1) * vel
        worst = max(worst, float(np.linalg.norm(extrap - tgt[k], axis=1).max()))
    assert worst > 0.5  # straight-line extrapolation must visibly fail


def test_group_walk_shares_heading():
    b = d.synthesize(d.SyntheticScenario(kind="group_walk", n_peds=5, seed=9))[0]
    vis = d.obs_vislets(b)
    pans = np.arctan2(vis[..., 1], vis[..., 0])  # (obs_len, n_peds)
    assert np.ptp(pans, axis=1).max() < 0.15  # jitter only


def test_pan_matches_velocity_direction():
    sc = d.SyntheticScenario(kind="group_walk", n_peds=2, seed=5)
    pts = [p for p in d.scenario_points(sc) if p.ped_id == 0]  # its one window
    for a, bb in zip(pts, pts[1:]):
        step = math.atan2(bb.y - a.y, bb.x - a.x)
        # pan is the analytic heading at the segment start
        assert abs(math.atan2(math.sin(step - a.pan), math.cos(step - a.pan))) < 1e-9


def test_vislets_are_unit_vectors():
    b = d.synthesize(d.SyntheticScenario(kind="group_walk", n_peds=3, seed=2))[0]
    vis = d.obs_vislets(b)
    assert vis.shape == (8, 3, 2)
    assert np.allclose(np.linalg.norm(vis, axis=2), 1.0, atol=1e-12)


def test_scenario_validation():
    with pytest.raises(InputError):
        d.SyntheticScenario(kind="teleport").validate()
    with pytest.raises(InputError):
        d.SyntheticScenario(kind="crossing_pair", n_peds=3).validate()
    with pytest.raises(InputError):
        d.SyntheticScenario(speed_min=0.0).validate()


@settings(max_examples=20, deadline=None)
@given(
    kind=st.sampled_from(["constant_velocity", "group_walk"]),
    n=st.integers(1, 5),
    seed=st.integers(0, 1000),
)
def test_synthesize_referentially_transparent(kind, n, seed):
    sc = d.SyntheticScenario(kind=kind, n_peds=n, noise_sigma=0.1, seed=seed)
    a, b = d.synthesize(sc), d.synthesize(sc)
    assert d.obs_positions(a[0]).tobytes() == d.obs_positions(b[0]).tobytes()


# ---------------------------------------------------------------------------
# PGM


def test_pgm_p5_round_trip(tmp_path):
    img = np.arange(20, dtype=np.uint8).reshape(4, 5)
    p = tmp_path / "a.pgm"
    p.write_bytes(b"P5\n5 4\n255\n" + img.tobytes())
    assert np.array_equal(d.read_pgm(str(p)), img)


def test_pgm_p2_round_trip(tmp_path):
    img = np.arange(12, dtype=np.uint8).reshape(3, 4) * 20
    p = str(tmp_path / "a.pgm")
    d.write_pgm(p, img, comment="made by write_pgm")
    assert open(p, "rb").read().startswith(b"P2\n# made by write_pgm\n4 3\n255\n")
    assert np.array_equal(d.read_pgm(p), img)


def test_pgm_with_header_comment(tmp_path):
    p = tmp_path / "c.pgm"
    p.write_bytes(b"P2\n# made by hand\n2 2\n255\n0 128\n255 64\n")
    assert np.array_equal(d.read_pgm(str(p)), [[0, 128], [255, 64]])


def test_pgm_bad_magic(tmp_path):
    p = tmp_path / "b.pgm"
    p.write_bytes(b"P6\n1 1\n255\nxxx")
    with pytest.raises(InputError, match="magic"):
        d.read_pgm(str(p))


def test_pgm_truncated_raster(tmp_path):
    p = tmp_path / "t.pgm"
    p.write_bytes(b"P5\n3 3\n255\nab")
    with pytest.raises(InputError, match="raster"):
        d.read_pgm(str(p))


@pytest.mark.parametrize("body", [b"P2\n2 2\n15\n0 5\n10 15\n",
                                  b"P5\n2 2\n15\n" + bytes([0, 5, 10, 15])],
                         ids=["P2", "P5"])
def test_pgm_samples_scale_from_maxval_to_255(tmp_path, body):
    p = tmp_path / "m.pgm"
    p.write_bytes(body)
    img = d.read_pgm(str(p))
    assert img.dtype == np.uint8
    assert np.array_equal(img, [[0, 85], [170, 255]])
    assert nb.downsample_image(img, 2)[1, 1] == 1.0  # white is white


def test_pgm_p5_sample_above_maxval_exits_2(tmp_path, capsys):
    p = tmp_path / "o.pgm"
    p.write_bytes(b"P5\n2 2\n15\n" + bytes([0, 5, 16, 15]))
    with pytest.raises(InputError, match=r"sample outside \[0, 15\]"):
        d.read_pgm(str(p))
    scenario = tmp_path / "walk.cfg"
    scenario.write_text("kind = group_walk\nobs_len = 3\npred_len = 2\n")
    assert entry(["eval", "--baseline", "--scenario", str(scenario),
                  "--image", str(p)]) == 2
    assert "sample outside" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# scenario files


def test_parse_scenario_file():
    sc = d.parse_scenario(
        "# crossing demo\nkind = crossing_pair\nn_peds = 2\nseed = 42\n"
        "speed_min = 0.9\nspeed_max = 1.1\n"
    )
    assert sc.kind == "crossing_pair"
    assert sc.seed == 42


def test_scenario_file_ends_lines_at_newlines_only(tmp_path):
    p = tmp_path / "s.cfg"
    p.write_bytes("kind = group_walk # a\x0cb\u2029c\r\nn_peds = 4\r\n".encode("utf-8"))
    sc = d.load_scenario(str(p))
    assert (sc.kind, sc.n_peds) == ("group_walk", 4)
    p.write_bytes(b"n_peds = 4 # a\x0cb\nseed\n")
    with pytest.raises(InputError, match="line 2: expected key = value, got 'seed'"):
        d.load_scenario(str(p))


def test_parse_scenario_rejects_unknown_key():
    with pytest.raises(InputError, match="unknown key"):
        d.parse_scenario("kind = group_walk\ngravity = 9.8\n")


def test_parse_scenario_rejects_bad_value():
    with pytest.raises(InputError, match="bad value"):
        d.parse_scenario("kind = group_walk\nn_peds = many\n")


# ---------------------------------------------------------------------------
# fuzz: only the typed errors may escape the readers

FIELD = st.one_of(
    st.integers(-10**30, 10**30).map(str),
    st.floats().map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e999", "0x1p3", "1_0", "3.5", "",
                     "#", "+2", "-0"]),
    st.text(max_size=6),
)
TSV_TEXT = st.lists(
    st.one_of(st.lists(FIELD, max_size=6).map(" ".join), st.text(max_size=20)),
    max_size=12,
).map("\n".join)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=TSV_TEXT)
def test_fuzz_load_dataset(tmp_path, capsys, text):
    path = tmp_path / "fuzz.tsv"
    path.write_bytes(text.encode("utf-8", "surrogatepass"))
    try:
        d.load_dataset(str(path))
    except InputError:
        pass
    # twelve lines never hold a complete window, so the CLI always exits 2
    assert entry(["eval", "--baseline", "--dataset", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


SAMPLE = st.one_of(st.integers(-5, 300), st.integers(-10**30, 10**30),
                   st.sampled_from([0, 255, 256, 70000, 2**63, 10**9])).map(lambda v: str(v).encode())
HEADER_FIELD = st.one_of(
    SAMPLE, st.sampled_from([b"1.5", b"nan", b"inf", b"1e3", b"0x10", b"\xff"]),
    st.binary(max_size=4),
)


@st.composite
def pgm_blobs(draw):
    """Mostly well-formed headers with a raster of the declared size, so the
    sample checks are reached, plus corrupt headers, bodies and truncations."""
    magic = draw(st.sampled_from([b"P2", b"P2", b"P5", b"P5", b"P6", b"P", b"p2"])
                 | st.binary(max_size=3))
    w, h = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    maxval = draw(st.sampled_from([b"255", b"255", b"7", b"0", b"70000", b"-1"]))
    header = [str(w).encode(), str(h).encode(), maxval]
    if draw(st.integers(0, 3)) == 0:
        header = draw(st.lists(HEADER_FIELD, max_size=3))
    comment = draw(st.sampled_from([b"", b"# note\n", b"#"]))
    if draw(st.booleans()):
        count = draw(st.sampled_from([w * h, w * h, w * h + 1, w * h - 1]))
        body = draw(st.lists(SAMPLE, min_size=count, max_size=count).map(b" ".join))
    else:
        body = draw(st.binary(min_size=w * h, max_size=w * h + 2) | st.binary(max_size=40))
    blob = b"\n".join([magic, comment + b" ".join(header), body])
    if draw(st.integers(0, 3)) == 0:
        blob = blob[: draw(st.integers(0, len(blob)))]
    return blob


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(blob=pgm_blobs())
@example(blob=b"P2\n1 1\n255\n" + b"9" * 30)  # a sample past int64
@example(blob=b"P2\n2 1\n255\n7 -99999999999999999999999")
@example(blob=b"P5\n99999999999 99999999999\n255\n\x00")
@example(blob=b"P2\n1 1\n0\n0")
@example(blob=b"P5\n1 1\n70000\n\x00")
def test_fuzz_read_pgm(tmp_path, capsys, blob):
    path = tmp_path / "fuzz.pgm"
    path.write_bytes(blob)
    scenario = tmp_path / "walk.cfg"
    scenario.write_text("kind = group_walk\nobs_len = 3\npred_len = 2\n")
    code = entry(["eval", "--baseline", "--scenario", str(scenario),
                  "--image", str(path)])
    capsys.readouterr()
    try:
        img = d.read_pgm(str(path))
    except InputError:
        assert code == 2
        return
    assert img.dtype == np.uint8 and img.ndim == 2
    assert code == 0
