"""Ingestion, windowing, synthesis and image-format checks."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from g2k import data as d
from g2k import neighborhood as nb
from g2k.cli import entry


def write(tmp_path, text, name="t.tsv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


# ---------------------------------------------------------------------------
# canonical TSV


def test_load_minimal_two_rows(tmp_path):
    pts = d.load_dataset(write(tmp_path, "0 1 0.0 0.0\n10 1 0.4 0.0\n"))
    assert len(pts) == 2
    assert pts[0] == d.TrackPoint(0, 1, 0.0, 0.0, None)
    assert d.infer_stride(pts) == 10


def test_load_pan_column(tmp_path):
    pts = d.load_dataset(write(tmp_path, "0 1 0.0 0.0 1.5708\n"))
    assert pts[0].pan == pytest.approx(math.pi / 2, abs=1e-4)


def test_load_comments_and_blank_lines(tmp_path):
    text = "# header\n\n0 1 0.0 0.0  # trailing\n10 1 0.4 0.0\n"
    assert len(d.load_dataset(write(tmp_path, text))) == 2


def test_load_duplicate_key_rejected(tmp_path):
    with pytest.raises(d.IntegrityError, match="duplicate"):
        d.load_dataset(write(tmp_path, "0 1 0.0 0.0\n0 1 1.0 1.0\n"))


def test_load_malformed_row_reports_line(tmp_path):
    with pytest.raises(d.ParseError, match=":2:"):
        d.load_dataset(write(tmp_path, "0 1 0.0 0.0\n0 2 oops 0.0\n"))
    with pytest.raises(d.ParseError, match=":1:"):
        d.load_dataset(write(tmp_path, "0 1 0.0\n"))


def test_load_rejects_out_of_range_pan(tmp_path):
    with pytest.raises(d.ParseError, match="pan"):
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
    assert d.load_dataset(path) == sorted(src, key=lambda p: (p.ped_id, p.frame_id))


# ---------------------------------------------------------------------------
# windowing


def track(ped, n, f0=0, s=10, x0=0.0):
    return [d.TrackPoint(f0 + i * s, ped, x0 + 0.4 * i, 0.0) for i in range(n)]


def test_exact_fit_gives_one_window():
    batches = d.make_windows(track(1, 20))
    assert len(batches) == 1
    assert batches[0].n_peds == 1
    assert len(batches[0].windows[0].obs) == 8
    assert len(batches[0].windows[0].target) == 12


def test_21_samples_give_two_windows():
    batches = d.make_windows(track(1, 21))
    assert sum(b.n_peds for b in batches) == 2


def test_seven_frame_overlap_never_shares_a_batch():
    pts = track(1, 20, f0=0) + track(2, 20, f0=130)
    for b in d.make_windows(pts):
        assert b.n_peds == 1


def test_gap_breaks_coverage():
    pts = [p for p in track(1, 21) if p.frame_id != 100]
    assert d.make_windows(pts) == []


def test_windowing_is_loss_free():
    pts = track(1, 25)
    for b in d.make_windows(pts):
        w = b.windows[0]
        joined = w.obs + w.target
        i0 = next(i for i, p in enumerate(pts) if p.frame_id == joined[0].frame_id)
        assert joined == pts[i0 : i0 + 20]


def test_neighborhood_cap_keeps_lowest_ids():
    pts = track(3, 20) + track(1, 20) + track(2, 20)
    b = d.make_windows(pts, max_peds=2)[0]
    assert [w.ped_id for w in b.windows] == [1, 2]


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


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.sampled_from([1, 3, 10]))
def test_make_windows_matches_double_loop_oracle(seed, n_peds, stride):
    # random tracks with gaps, staggered starts, more than max_peds
    # pedestrians present at once and repeated (frame, ped) keys, of which
    # the last point wins
    g = np.random.default_rng(seed)
    points = []
    for ped in g.permutation(n_peds):
        start = int(g.integers(0, 8)) * stride
        for k in range(int(g.integers(2, 16))):
            for _ in range(1 + (g.random() < 0.05)):
                if g.random() > 0.1:
                    pan = float(g.uniform(-3.0, 3.0)) if g.random() > 0.2 else None
                    points.append(d.TrackPoint(start + k * stride, int(ped),
                                               float(g.normal()), float(g.normal()), pan))
    got = d.make_windows(points, obs_len=2, pred_len=3, max_peds=3, stride=stride)
    want = windows_oracle(points, 2, 3, 3, stride)
    assert [[(w.ped_id, w.obs, w.target) for w in b.windows] for b in got] == want
    for b in got:
        for w in b.windows:
            if all(p.pan is not None for p in w.obs):
                assert np.array_equal(
                    w.vislets, [[math.cos(p.pan), math.sin(p.pan)] for p in w.obs])
            else:
                assert w.vislets is None


def test_batch_windows_share_frames():
    pts = track(1, 22) + track(2, 22)
    for b in d.make_windows(pts):
        f = [p.frame_id for p in b.windows[0].obs + b.windows[0].target]
        for w in b.windows[1:]:
            assert [p.frame_id for p in w.obs + w.target] == f


# ---------------------------------------------------------------------------
# synthesis


def cv_scenario(**kw):
    base = dict(kind="constant_velocity", n_peds=1, speed_min=1.0, speed_max=1.0,
                noise_sigma=0.0, seed=0)
    base.update(kw)
    return d.SyntheticScenario(**base)


def test_constant_velocity_noiseless_kinematics():
    b = d.synthesize(cv_scenario())[0]
    w = b.windows[0]
    for k in range(12):
        assert w.target[k].x - w.obs[7].x == pytest.approx(0.4 * (k + 1), abs=1e-12)
        assert w.target[k].y == 0.0


def test_constant_velocity_pan_along_x_is_zero():
    b = d.synthesize(cv_scenario())[0]
    for p in b.windows[0].obs + b.windows[0].target:
        assert p.pan == 0.0


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
    pans = np.array([[p.pan for p in w.obs] for w in b.windows])
    assert np.ptp(pans, axis=0).max() < 0.15  # jitter only


def test_pan_matches_velocity_direction():
    b = d.synthesize(d.SyntheticScenario(kind="group_walk", n_peds=2, seed=5))[0]
    w = b.windows[0]
    pts = w.obs + w.target
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
    with pytest.raises(d.ScenarioError):
        d.SyntheticScenario(kind="teleport").validate()
    with pytest.raises(d.ScenarioError):
        d.SyntheticScenario(kind="crossing_pair", n_peds=3).validate()
    with pytest.raises(d.ScenarioError):
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
    p = str(tmp_path / "a.pgm")
    d.write_pgm(p, img, "P5")
    assert np.array_equal(d.read_pgm(p), img)


def test_pgm_p2_round_trip(tmp_path):
    img = np.arange(12, dtype=np.uint8).reshape(3, 4) * 20
    p = str(tmp_path / "a.pgm")
    d.write_pgm(p, img, "P2")
    assert np.array_equal(d.read_pgm(p), img)


def test_pgm_with_header_comment(tmp_path):
    p = tmp_path / "c.pgm"
    p.write_bytes(b"P2\n# made by hand\n2 2\n255\n0 128\n255 64\n")
    assert np.array_equal(d.read_pgm(str(p)), [[0, 128], [255, 64]])


def test_pgm_bad_magic(tmp_path):
    p = tmp_path / "b.pgm"
    p.write_bytes(b"P6\n1 1\n255\nxxx")
    with pytest.raises(d.ParseError, match="magic"):
        d.read_pgm(str(p))


def test_pgm_truncated_raster(tmp_path):
    p = tmp_path / "t.pgm"
    p.write_bytes(b"P5\n3 3\n255\nab")
    with pytest.raises(d.ParseError, match="raster"):
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
    with pytest.raises(d.ParseError, match=r"sample outside \[0, 15\]"):
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


def test_parse_scenario_rejects_unknown_key():
    with pytest.raises(d.ScenarioError, match="unknown key"):
        d.parse_scenario("kind = group_walk\ngravity = 9.8\n")


def test_parse_scenario_rejects_bad_value():
    with pytest.raises(d.ScenarioError, match="bad value"):
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
    except (d.ParseError, d.IntegrityError):
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
    except d.ParseError:
        assert code == 2
        return
    assert img.dtype == np.uint8 and img.ndim == 2
    assert code == 0
