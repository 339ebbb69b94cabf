"""Static-grid checks: the vectorised cell lookup against the per-scene
loop, occupancy pooling, the im2col convolution against a direct oracle, and
the attention-weighted cell path."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2k import autodiff as ad
from g2k import neighborhood as nb
from g2k.config import InputError

from finite_differences import assert_stacked_differences_match


def test_bounds_cover_all_points():
    obs = np.array([[[0.0, -2.0], [5.0, 3.0], [2.5, 0.0]]])
    rows = nb.SceneBlocks([3], 16).static_rows(obs, 4)
    assert rows.shape == (1, 3)
    assert np.all((rows >= 0) & (rows < 16))


def test_assign_cells_corners():
    # each scene's box is its own 4 m square; the second scene lies far away
    # and its cells follow the first scene's k = 4 static rows
    square = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0], [4.0, 4.0]])
    obs = np.concatenate([square, square + [1e6, -1e6]])[None]
    rows = nb.SceneBlocks([4, 4], 4).static_rows(obs, 2)
    assert rows.tolist() == [[0, 1, 2, 3, 4, 5, 6, 7]]


def test_degenerate_bounds_still_finite():
    # an extent under the margin is widened to 1 m: all-equal points share
    # cell 0, and points on one line spread along the other axis only
    blocks = nb.SceneBlocks([3], 16)
    assert np.all(blocks.static_rows(np.zeros((2, 3, 2)), 4) == 0)
    line = np.array([[[0.0, 7.0], [1.0, 7.0], [2.0, 7.0]]])
    assert blocks.static_rows(line, 4).tolist() == [[0, 1, 3]]


def static_rows_loop(obs, sizes, grid_size):
    """The per-scene loop static_rows replaced: fit each scene's box to its
    observed points, widen and inflate it, assign cells, offset by s*k."""
    margin = 1e-6
    rows = np.empty(obs.shape[:2], dtype=np.int64)
    start = 0
    for s, n in enumerate(sizes):
        pts = obs[:, start : start + n].reshape(-1, 2)
        xmin, ymin = pts.min(axis=0)
        xmax, ymax = pts.max(axis=0)
        if xmax - xmin < margin:
            xmax = xmin + 1.0
        if ymax - ymin < margin:
            ymax = ymin + 1.0
        xmax, ymax = float(xmax) + margin, float(ymax) + margin
        col = np.clip(((pts[:, 0] - xmin) / (xmax - xmin) * grid_size).astype(np.int64),
                      0, grid_size - 1)
        row = np.clip(((pts[:, 1] - ymin) / (ymax - ymin) * grid_size).astype(np.int64),
                      0, grid_size - 1)
        rows[:, start : start + n] = (s * grid_size**2 + row * grid_size + col).reshape(-1, n)
        start += n
    return rows


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 5), st.integers(1, 4))
def test_static_rows_match_the_per_scene_loop(seed, scenes, grid_size, obs_len):
    # per scene: spread points, all-equal coordinates, one axis constant or an
    # extent around the margin, each scene shifted near or far from the others
    g = np.random.default_rng(seed)
    sizes = g.integers(1, 6, scenes).tolist()
    parts = []
    for n in sizes:
        pts = g.normal(size=(obs_len, n, 2)) * g.choice([1e-9, 1e-6, 1.0, 50.0], 2)
        pts[..., g.random(2) < 0.2] = 0.0
        parts.append(pts + g.choice([0.0, 3.0, -1e6, 1e9], 2))
    obs = np.concatenate(parts, axis=1)
    want = static_rows_loop(obs, sizes, grid_size)
    got = nb.SceneBlocks(sizes, grid_size**2).static_rows(obs, grid_size)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_occupancy_pool_single_occupant():
    v = ad.constant([[1.0, 2.0]])
    pooled = nb.occupancy_pool(v, np.array([3]), 4)
    assert pooled.data.shape == (4, 2)
    assert np.array_equal(pooled.data[3], [1.0, 2.0])
    assert np.all(pooled.data[[0, 1, 2]] == 0.0)


def test_occupancy_pool_means_cohabitants():
    v = ad.constant([[2.0, 0.0], [4.0, 2.0], [1.0, 1.0]])
    pooled = nb.occupancy_pool(v, np.array([1, 1, 0]), 2)
    assert np.array_equal(pooled.data[1], [3.0, 1.0])
    assert np.array_equal(pooled.data[0], [1.0, 1.0])


def test_occupancy_pool_empty_crowd():
    pooled = nb.occupancy_pool(ad.constant(np.zeros((0, 3))), np.zeros(0, int), 4)
    assert pooled.data.shape == (4, 3)
    assert np.all(pooled.data == 0.0)


def test_downsample_shape_and_range():
    img = np.arange(64, dtype=np.uint8).reshape(8, 8)
    down = nb.downsample_image(img, 4)
    assert down.shape == (4, 4)
    assert down.max() <= 1.0


def test_downsample_scales_by_dtype_not_content():
    # the brightest sample of a uint8 map is 1 of 255, not white
    img = np.zeros((8, 8), dtype=np.uint8)
    img[0, 0] = 1
    dim = nb.downsample_image(img, 2)
    img[0, 1] = 2
    brighter = nb.downsample_image(img, 2)
    assert dim[0, 0] == 1 / 255 / 16
    assert brighter[0, 0] == 3 / 255 / 16
    white = nb.downsample_image(np.ones((8, 8)), 2)
    assert np.all(white == 1.0)


@pytest.mark.parametrize("value", [1.5, -0.25, np.nan])
def test_downsample_rejects_float_samples_outside_unit_range(value):
    img = np.full((8, 8), 0.5)
    img[3, 3] = value
    with pytest.raises(InputError, match="floats in"):
        nb.downsample_image(img, 2)


def test_downsample_rejects_small_image():
    with pytest.raises(InputError, match="smaller than grid"):
        nb.downsample_image(np.zeros((2, 8)), 4)


def direct_conv3(down, kernel, bias_val):
    """Nested-loop 3x3 same-padded convolution, the oracle."""
    g = down.shape[0]
    out = np.zeros((g, g))
    for r in range(g):
        for c in range(g):
            acc = bias_val
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    rr, cc = r + dr, c + dc
                    if 0 <= rr < g and 0 <= cc < g:
                        acc += down[rr, cc] * kernel[dr + 1, dc + 1]
            out[r, c] = acc
    return out


def test_conv_matches_direct_oracle_on_checkerboard():
    down = np.indices((4, 4)).sum(axis=0) % 2 * 1.0
    g = np.random.default_rng(0)
    kernel = g.normal(size=(3, 3))
    bias = 0.37
    w = ad.constant(kernel.reshape(9, 1))
    b = ad.constant([[bias]])
    mask = ad.constant(np.ones((16, 1)))
    out = nb.conv_encode(down, w, b, mask)
    oracle = direct_conv3(down, kernel, bias).reshape(16, 1)
    assert np.max(np.abs(out.data - oracle)) < 1e-12


def test_conv_constant_image_delta_kernel_all_cells_equal():
    down = np.full((4, 4), 0.7)
    delta = np.zeros((3, 3))
    delta[1, 1] = 1.0
    out = nb.conv_encode(
        down, ad.constant(delta.reshape(9, 1)), ad.constant([[0.0]]),
        ad.constant(np.ones((16, 1))),
    )
    assert np.allclose(out.data, 0.7, atol=1e-15)


def test_conv_zero_mask_gates_everything():
    down = np.random.default_rng(1).random((4, 4))
    w = ad.constant(np.random.default_rng(2).normal(size=(9, 3)))
    out = nb.conv_encode(down, w, ad.constant(np.zeros((1, 3))),
                         ad.constant(np.zeros((16, 1))))
    assert np.all(out.data == 0.0)
    c = nb.append_social_context(out, ad.constant(np.ones((2, 4))),
                                 nb.SceneBlocks([2], 16), 4)
    assert np.all(c.data[:, 3:] == 1.0)  # only the social mean survives


def test_append_social_context_first_step_zeros():
    base = ad.constant(np.ones((4, 2)))
    c = nb.append_social_context(base, None, nb.SceneBlocks([1], 4), 3)
    assert c.data.shape == (4, 5)
    assert np.all(c.data[:, 2:] == 0.0)


def test_regularize_cases():
    ones = ad.constant(np.ones((4, 3)))
    assert np.all(nb.regularize(ones, 0.0005).data == 0.0005)
    assert np.array_equal(nb.regularize(ones, 1.0).data, ones.data)
    assert np.all(nb.regularize(ones, 0.0).data == 0.0)


def test_fuse_mask_hand_oracle():
    f_s = ad.constant([[1.0, 2.0], [0.0, -1.0]])
    f_o = ad.constant([[3.0, 0.5], [1.0, 1.0]])
    f = nb.fuse_mask(f_s, f_o)
    assert np.array_equal(f.data, [[4.0, 3.0], [-0.5, -1.0]])


def test_fuse_mask_orthogonal_rows_score_zero():
    f_s = ad.constant([[1.0, 0.0]])
    f_o = ad.constant([[0.0, 5.0], [0.0, -2.0]])
    assert np.all(nb.fuse_mask(f_s, f_o).data == 0.0)


def test_fuse_mask_is_bilinear():
    g = np.random.default_rng(3)
    f_s = g.normal(size=(3, 4))
    f_o = g.normal(size=(5, 4))
    once = nb.fuse_mask(ad.constant(f_s), ad.constant(f_o)).data
    twice = nb.fuse_mask(ad.constant(2 * f_s), ad.constant(f_o)).data
    assert np.allclose(twice, 2 * once, atol=0, rtol=0)


def test_fuse_mask_width_mismatch():
    with pytest.raises(ad.ShapeMismatch):
        nb.fuse_mask(ad.constant(np.zeros((2, 3))), ad.constant(np.zeros((4, 5))))


def test_attend_cells_uniform_scales():
    g = np.random.default_rng(4)
    f_o = ad.constant(g.normal(size=(4, 3)))
    h_o = ad.constant(g.normal(size=(4, 6)))
    w_ho = ad.constant(g.normal(size=(6, 3)))
    out = nb.attend_cells(f_o, h_o, nb.uniform_cell_attention(4), w_ho)
    expect = 0.25 * f_o.data * (h_o.data @ w_ho.data)
    assert np.allclose(out.data, expect, atol=1e-15)


def test_attend_cells_one_hot_selects():
    g = np.random.default_rng(5)
    f_o = ad.constant(g.normal(size=(4, 3)))
    h_o = ad.constant(g.normal(size=(4, 3)))
    w_ho = ad.constant(np.eye(3))
    a = np.zeros((4, 1))
    a[2, 0] = 1.0
    out = nb.attend_cells(f_o, h_o, ad.constant(a), w_ho)
    assert np.all(out.data[[0, 1, 3]] == 0.0)
    assert np.any(out.data[2] != 0.0)


def test_cell_attention_from_ped_preserves_mass():
    g = np.random.default_rng(6)
    a_ped = ad.stable_softmax(ad.constant(g.normal(size=(5, 4))))
    a_cells = nb.cell_attention_from_ped(a_ped, nb.SceneBlocks([5], 4))
    assert a_cells.data.shape == (4, 1)
    assert a_cells.data.sum() == pytest.approx(1.0, abs=1e-12)


def test_gradients_flow_through_grid_path():
    # mask -> conv scaling -> fuse -> scalar must produce correct gradients
    g = np.random.default_rng(7)
    pset = ad.ParameterSet()
    w = pset.register("w", g.normal(size=(9, 2)))
    b = pset.register("b", g.normal(size=(1, 2)))
    mask = pset.register("mask", g.normal(size=(4, 1)))
    down = g.random((2, 2))
    f_s = ad.constant(g.normal(size=(3, 2)))

    def build():
        conv = nb.conv_encode(down, w.value, b.value, mask.value)
        return ad.sum_all(nb.fuse_mask(f_s, conv))

    report = ad.grad_check(build, pset)
    assert report.passed(1e-4), report.format()


@pytest.mark.parametrize("scenes", [1, 2])
def test_grad_check_of_the_conv_path_matches_the_per_element_loop(scenes):
    g = np.random.default_rng(8)
    pset = ad.ParameterSet()
    w = pset.register("w", g.normal(size=(9, 2)))
    b = pset.register("b", g.normal(size=(1, 2)))
    mask = pset.register("mask", g.normal(size=(4, 1)))
    down = g.random((scenes, 2, 2))
    blocks = nb.SceneBlocks([3] * scenes, 4)
    f_s = ad.constant(g.normal(size=(3 * scenes, 2)))

    def build():
        conv = nb.conv_encode(down, w.value, b.value, mask.value)
        c_mat = nb.append_social_context(conv, f_s, blocks, 2)
        fused = blocks.own_cells(nb.fuse_mask(f_s, ad.slice_cols(c_mat, 0, 2)))
        return ad.sum_all(ad.mul(fused, fused))

    assert_stacked_differences_match(build, pset)
