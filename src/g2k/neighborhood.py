"""Static scene grid: discretize the scene into k = grid_size^2 cells, encode
context per cell, pool pedestrian gaze cues by occupancy, and weight cells by
attention carried over from the previous step.

The grid works in world coordinates. Bounds come from the batch's observed
positions so every pedestrian lands in a cell; the scene image (optional) is
mean-pooled down to the same grid before a single 3x3 same-padded
convolution realized as an im2col matmul.

Several scenes can share one graph. Their pedestrians are stacked row-wise
and each scene has its own k static rows, its own bounds and its own cell
attention; SceneBlocks holds the constant matrices that move values between
those rows without letting scenes mix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import autodiff as ad
from .autodiff import DiffValue
from .config import InputError


@dataclass(frozen=True)
class GridBounds:
    xmin: float
    xmax: float
    ymin: float
    ymax: float

    @property
    def width(self) -> float:
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        return self.ymax - self.ymin


class SceneBlocks:
    """Row layout of S scenes unrolled in one graph.

    Scene s owns the next sizes[s] pedestrian rows, in scene order, and the
    static grid rows s*k:(s+1)*k. For one scene the averaging matrices are the
    plain crowd and cell means, and the block maps that would be identities
    are skipped, so a single scene builds the same graph nodes as an
    unpacked run. The matrices are built on first use, once per run.
    """

    def __init__(self, sizes: list[int], k: int):
        self.sizes = [int(n) for n in sizes]
        self.k = k
        self.count = len(self.sizes)
        self.n = sum(self.sizes)

    @cached_property
    def scene_of(self) -> np.ndarray:
        """(N,) scene index of every pedestrian row."""
        return np.repeat(np.arange(self.count), self.sizes)

    @cached_property
    def member(self) -> np.ndarray:
        """(S, N) bool: pedestrian row j belongs to scene s."""
        return np.arange(self.count)[:, None] == self.scene_of[None, :]

    @cached_property
    def ped_mean(self) -> np.ndarray:
        """(S, N): row s is the mean over scene s's pedestrians."""
        return self.member / np.array(self.sizes, dtype=np.float64)[:, None]

    @cached_property
    def ped_weight(self) -> np.ndarray:
        """(1, N): 1/n_s for each pedestrian of scene s."""
        return self.ped_mean.sum(axis=0, keepdims=True)

    @cached_property
    def cell_spread(self) -> np.ndarray:
        """(S*k, S): every static row of scene s copies row s."""
        return np.repeat(np.eye(self.count), self.k, axis=0)

    @cached_property
    def cell_mean(self) -> np.ndarray:
        """(S, S*k): row s is the mean over scene s's static rows."""
        return self.cell_spread.T / self.k

    @cached_property
    def _own(self) -> np.ndarray:
        # (N, S*k): the static row belongs to the pedestrian's scene
        return np.repeat(self.member.T, self.k, axis=1)

    @cached_property
    def _fold(self) -> np.ndarray:
        # (S*k, k): static row s*k + c onto cell c
        return np.tile(np.eye(self.k), (self.count, 1))

    @cached_property
    def same_scene(self) -> np.ndarray:
        """(N, N) bool: both pedestrians belong to one scene."""
        return self.scene_of[:, None] == self.scene_of[None, :]

    def own_cells(self, scores: DiffValue) -> DiffValue:
        """(N, S*k) pedestrian-by-static-row scores to (N, k): each
        pedestrian keeps the k cells of its own scene."""
        if self.count == 1:
            return scores
        return ad.matmul(ad.mul(scores, ad.constant(self._own)),
                         ad.constant(self._fold))

    def spread_cells(self, a: DiffValue) -> DiffValue:
        """Inverse layout of own_cells: (N, k) to (N, S*k), zero outside
        the pedestrian's own scene."""
        if self.count == 1:
            return a
        return ad.mul(ad.matmul(a, ad.constant(self._fold.T)),
                      ad.constant(self._own))

    def scene_row_mul(self, a: DiffValue, rows: DiffValue) -> DiffValue:
        """a (N, w) times row s of rows (S, w) for every pedestrian of s."""
        return ad.mul(a, ad.matmul(ad.constant(self.member.T), rows))

    def link_mask(self, self_loops: bool) -> np.ndarray | None:
        """(N, N) additive softmax mask: -1e30 on links to other scenes and,
        without self loops, on each pedestrian's own link in crowds of two
        or more. None when nothing is masked."""
        if self.count == 1 and (self_loops or self.n < 2):
            return None
        mask = np.where(self.same_scene, 0.0, -1e30)
        if not self_loops:
            solo = np.array(self.sizes)[self.scene_of] == 1
            mask[np.diag_indices(self.n)] = np.where(solo, 0.0, -1e30)
        return mask


_MARGIN = 1e-6  # box inflation; a narrower extent is widened to 1 m


def bounds_from_positions(positions: np.ndarray) -> GridBounds:
    """Tight box around (T, N, 2) or (N, 2) positions, slightly inflated so
    max-edge points still fall inside the last cell."""
    pts = positions.reshape(-1, 2)
    xmin, ymin = pts.min(axis=0)
    xmax, ymax = pts.max(axis=0)
    if xmax - xmin < _MARGIN:
        xmax = xmin + 1.0
    if ymax - ymin < _MARGIN:
        ymax = ymin + 1.0
    return GridBounds(float(xmin), float(xmax) + _MARGIN, float(ymin), float(ymax) + _MARGIN)


def assign_cells(positions: np.ndarray, bounds: GridBounds, grid_size: int) -> np.ndarray:
    """Row-major cell index per pedestrian, (N,) ints in [0, grid_size^2)."""
    col = np.clip(
        ((positions[:, 0] - bounds.xmin) / bounds.width * grid_size).astype(np.int64),
        0, grid_size - 1,
    )
    row = np.clip(
        ((positions[:, 1] - bounds.ymin) / bounds.height * grid_size).astype(np.int64),
        0, grid_size - 1,
    )
    return row * grid_size + col


def occupancy_pool(v_emb: DiffValue, cell_idx: np.ndarray, k: int) -> DiffValue:
    """Mean of occupant rows per cell, zeros for empty cells: a constant
    (k, N) pooling matrix applied to the embeddings. Packed scenes pass
    their cells offset by s*k and k = S*k."""
    n = v_emb.data.shape[-2]
    pool = np.zeros((k, n))
    counts = np.bincount(cell_idx, minlength=k)
    pool[cell_idx, np.arange(n)] = 1.0 / counts[cell_idx]
    return ad.matmul(ad.constant(pool), v_emb)


def downsample_image(img: np.ndarray, grid_size: int) -> np.ndarray:
    """Mean-pool a grayscale image to grid_size x grid_size, scaled to [0, 1]
    by its dtype: integer samples are 0..255 (read_pgm's uint8), float
    samples are taken as they are and must already lie in [0, 1]."""
    arr = np.asarray(img)
    if arr.ndim != 2:
        raise InputError("scene image must be 2-D grayscale")
    h, w = arr.shape
    if h < grid_size or w < grid_size:
        raise InputError(
            f"scene image {h}x{w} smaller than grid {grid_size}x{grid_size}; "
            f"provide at least {grid_size} pixels per side or drop the image"
        )
    arr = arr / 255.0 if np.issubdtype(arr.dtype, np.integer) else arr.astype(np.float64)
    if not np.all((arr >= 0.0) & (arr <= 1.0)):
        raise InputError("scene image samples must be 0..255 integers or floats in [0, 1]")
    rows = np.array_split(np.arange(h), grid_size)
    cols = np.array_split(np.arange(w), grid_size)
    out = np.empty((grid_size, grid_size))
    for i, r in enumerate(rows):
        for j, c in enumerate(cols):
            out[i, j] = arr[np.ix_(r, c)].mean()
    return out


def conv_patches(down: np.ndarray) -> np.ndarray:
    """im2col for a 3x3 same-padded convolution over the downsampled map:
    (k, 9) patch matrix, cells row-major, kernel positions row-major."""
    g = down.shape[0]
    padded = np.zeros((g + 2, g + 2))
    padded[1:-1, 1:-1] = down
    patches = np.empty((g * g, 9))
    for r in range(g):
        for c in range(g):
            patches[r * g + c] = padded[r : r + 3, c : c + 3].ravel()
    return patches


def conv_encode(
    down: np.ndarray,
    w_conv: DiffValue,
    b_conv: DiffValue,
    mask: DiffValue,
) -> DiffValue:
    """One 3x3 conv via im2col, each cell's d_c features scaled by its mask
    entry. down is one (g, g) map or S stacked (S, g, g) maps; mask is
    (k, 1) and shared by every scene; returns (S*k, d_c)."""
    downs = down if down.ndim == 3 else down[None]
    k = downs.shape[1] * downs.shape[2]
    if mask.data.shape[-2:] != (k, 1):
        raise ad.ShapeMismatch(f"mask must be ({k}, 1), got {mask.data.shape}")
    d_c = w_conv.data.shape[-1]
    patches = np.concatenate([conv_patches(d) for d in downs])
    out = ad.bias_add(ad.matmul(ad.constant(patches), w_conv), b_conv)
    return ad.mul(out, mask_features(mask, d_c, len(downs)))


def mask_features(mask: DiffValue, d_c: int, scenes: int = 1) -> DiffValue:
    """Cell identity features when no conv context is configured: the mask
    entry tiled across d_c channels, the k rows repeated for each scene."""
    tiled = ad.matmul(mask, ad.constant(np.ones((1, d_c))))
    if scenes == 1:
        return tiled
    stack = np.tile(np.eye(mask.data.shape[-2]), (scenes, 1))
    return ad.matmul(ad.constant(stack), tiled)


def append_social_context(base: DiffValue, f_s_prev: DiffValue | None,
                          blocks: SceneBlocks, d: int) -> DiffValue:
    """C = [base || each scene's mean previous-step social features broadcast
    to its cells]; zeros on the first step."""
    if f_s_prev is None:
        social = ad.constant(np.zeros((base.data.shape[-2], d)))
    else:
        mean = ad.matmul(ad.constant(blocks.ped_mean), f_s_prev)
        social = ad.matmul(ad.constant(blocks.cell_spread), mean)
    return ad.concat_cols([base, social])


def regularize(f_o: DiffValue, lam: float) -> DiffValue:
    """Uniform importance prior over static regions: f_O' = lambda * f_O."""
    return ad.scale(f_o, lam)


def fuse_mask(f_s: DiffValue, f_o_prime: DiffValue) -> DiffValue:
    """Score every pedestrian against every static row: F = f_S @ f_O'^T,
    (N, S*k); SceneBlocks.own_cells keeps each pedestrian's own scene."""
    if f_s.data.shape[-1] != f_o_prime.data.shape[-1]:
        raise ad.ShapeMismatch(
            f"feature widths differ: social {f_s.data.shape[-1]} "
            f"vs static {f_o_prime.data.shape[-1]}"
        )
    return ad.matmul(f_s, ad.transpose(f_o_prime))


def attend_cells(
    f_o_prime: DiffValue,
    h_o: DiffValue,
    a_cells: DiffValue,
    w_ho: DiffValue,
) -> DiffValue:
    """Next-step static features f_O'' = a ⊙ f_O' ⊙ (h_O @ W_ho).

    a_cells is (S*k, 1) attention from the previous step; zero-attention
    cells zero out entirely."""
    d = f_o_prime.data.shape[-1]
    h_proj = ad.matmul(h_o, w_ho)
    a_tile = ad.matmul(a_cells, ad.constant(np.ones((1, d))))
    return ad.mul(a_tile, ad.mul(f_o_prime, h_proj))


def uniform_cell_attention(k: int, scenes: int = 1) -> DiffValue:
    return ad.constant(np.full((scenes * k, 1), 1.0 / k))


def cell_attention_from_ped(a_ped: DiffValue, blocks: SceneBlocks) -> DiffValue:
    """Collapse pedestrian-over-cell attention in SceneBlocks.spread_cells
    layout (N, S*k), each row stochastic over its own scene's cells, to an
    (S*k, 1) cell vector by per-scene column mean; each scene's k entries
    sum to one."""
    return ad.transpose(ad.matmul(ad.constant(blocks.ped_weight), a_ped))
