"""Static-grid checks: cell assignment, occupancy pooling, the im2col
convolution against a direct oracle, and the attention-weighted cell path."""

import numpy as np
import pytest

from g2k import autodiff as ad
from g2k import neighborhood as nb


def test_bounds_cover_all_points():
    pts = np.array([[0.0, -2.0], [5.0, 3.0], [2.5, 0.0]])
    b = nb.bounds_from_positions(pts)
    idx = nb.assign_cells(pts, b, 4)
    assert idx.shape == (3,)
    assert np.all((idx >= 0) & (idx < 16))


def test_assign_cells_corners():
    b = nb.GridBounds(0.0, 4.0, 0.0, 4.0)
    pts = np.array([[0.1, 0.1], [3.9, 0.1], [0.1, 3.9], [3.9, 3.9]])
    assert nb.assign_cells(pts, b, 2).tolist() == [0, 1, 2, 3]


def test_degenerate_bounds_still_finite():
    pts = np.zeros((3, 2))
    b = nb.bounds_from_positions(pts)
    assert b.width > 0 and b.height > 0
    assert np.all(nb.assign_cells(pts, b, 4) == 0)


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


def test_downsample_rejects_small_image():
    with pytest.raises(nb.GridError, match="smaller than grid"):
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
    with pytest.raises(nb.GridError):
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
