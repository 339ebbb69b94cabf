"""Variant wiring: embed cues, encode socially, infer the weighted adjacency,
and decode future offsets.

Variants
  g_lstm   positions only through the social grid LSTM, then decode.
  mc       adds gaze cues (vislets) to the encoder input.
  mcr_n    adds relational inference: fused-feature attention, node softmax,
           bilinear adjacency, state mixing H* = A @ H fed to the next step.
  mcr_mp   adds the static scene grid and message passing with thresholding.
  mcr_mpc  adds convolutional scene context from an image to the static grid.

run() unrolls one scene or several packed into one graph: pedestrians are
stacked row-wise, each scene keeps its own static grid rows, and
block-diagonal masks and per-scene averaging matrices (nb.SceneBlocks) keep
the scenes from interacting, so a packed run predicts what running each
scene alone would.

Two stability departures from the source formulas, both load-bearing:
attention uses one numerically stable softmax instead of a softmax applied to
already-exponentiated scores (the double exponential overflows around 700 and
only rescales monotonically), and the adjacency map is the bilinear form
row_softmax(H @ W_A @ H^T) since a fixed square weight cannot produce N x N
output for arbitrary N.
"""

from __future__ import annotations

import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import data as da
from . import gridlstm as gl
from . import neighborhood as nb
from .autodiff import DiffValue
from .config import ModelConfig, VARIANTS


class InputError(ValueError):
    """Batch content unusable for the requested variant."""


class VariantError(ValueError):
    """Operation invoked for a variant that does not wire it."""


RELATIONAL = ("mcr_n", "mcr_mp", "mcr_mpc")
STATIC = ("mcr_mp", "mcr_mpc")


@dataclass
class Diagnostics:
    """The maps of every observed step, as the forward's own arrays rather
    than copies: only parameter leaves are written in place, so nothing
    changes a map once its step returns. A packed run stacks its scenes'
    rows: the adjacency is block-diagonal and the cell entries hold k rows
    per scene. TrajectoryModel.edges thresholds a kept adjacency."""

    adjacency: list[np.ndarray] = field(default_factory=list)
    attention: list[np.ndarray] = field(default_factory=list)
    ped_cell_attention: list[np.ndarray] = field(default_factory=list)
    cell_attention: list[np.ndarray] = field(default_factory=list)


@dataclass
class KernelRun:
    """Decoded trajectory with its graph nodes still attached.

    positions[k] is the (N, 2) node for predicted step k, built by adding the
    k-th offset onto the previous step, so offsets telescope exactly. sizes
    holds the pedestrian count of each packed scene, in row order; empty
    means one scene. diagnostics holds the maps of each observed step;
    model.edges(run.diagnostics.adjacency[t], run.sizes) gives step t's
    edges.
    """

    positions: list[DiffValue]
    offsets: list[DiffValue]
    diagnostics: Diagnostics
    sizes: list[int] = field(default_factory=list)

    @property
    def predictions(self) -> np.ndarray:
        return np.stack([p.data for p in self.positions], axis=1)

    def scene_predictions(self) -> list[np.ndarray]:
        """(n_s, pred_len, 2) predictions of each scene, in pack order."""
        return np.split(self.predictions, np.cumsum(self.sizes[:-1]))


class TrajectoryModel:
    """One variant instance: parameter registry plus the unrolled forward."""

    def __init__(self, cfg: ModelConfig, seed: int = 0):
        cfg.validate()
        self.cfg = cfg
        self.params = ad.ParameterSet()
        self._build(np.random.default_rng(seed))

    # -- construction -------------------------------------------------------

    def _reg(self, name: str, shape, rng) -> DiffValue:
        std = self.cfg.init_scale
        return self.params.register(
            name, rng.normal(0.0, std, shape), f"normal(0,{std})"
        ).value

    def _build(self, rng) -> None:
        cfg = self.cfg
        d = cfg.feature_dim
        self.w_pos1 = self._reg("embed.pos.w1", (2, cfg.embed_pos), rng)
        self.w_pos2 = self._reg("embed.pos.w2", (cfg.embed_pos, cfg.embed_pos), rng)
        if cfg.variant != "g_lstm":
            self.w_vis = self._reg("embed.vis.w", (2, cfg.embed_vis), rng)

        self.social_cfg = gl.GridLSTMConfig(
            cfg.hidden_size, cfg.num_blocks, cfg.block_skip, cfg.cell_units
        )
        self.social_params = gl.init_params(
            self.social_cfg, cfg.social_input_width(), self.params, "social",
            rng, cfg.init_scale,
        )

        if cfg.variant in RELATIONAL:
            self.w_fs = self._reg("feat.social.w", (cfg.hidden_size, d), rng)
            fr_width = cfg.num_cells if cfg.variant in STATIC else d
            self.w_v = self._reg("fuse.wv", (d + cfg.embed_vis, cfg.zones), rng)
            self.b_v = self.params.register(
                "fuse.bv", np.zeros((1, cfg.zones)), "zeros"
            ).value
            self.w_r = self._reg("fuse.wr", (fr_width, cfg.zones), rng)
            self.w_imp = self._reg("fuse.wimp", (cfg.zones, cfg.hidden_size), rng)
            self.w_a = self._reg("adj.wa", (cfg.hidden_size, cfg.hidden_size), rng)

        if cfg.variant in STATIC:
            k = cfg.num_cells
            mask0 = rng.normal(0.0, cfg.init_scale, (k, 1))
            if cfg.mask_trainable:
                self.mask = self.params.register(
                    "static.mask", mask0, f"normal(0,{cfg.init_scale})"
                ).value
            else:
                self.mask = ad.constant(mask0)
            self.static_cfg = gl.GridLSTMConfig(
                cfg.static_hidden, cfg.num_blocks, cfg.block_skip, cfg.cell_units
            )
            c_width = cfg.cell_channels + d + cfg.embed_vis
            self.w_static_in = self._reg(
                "static.win", (c_width, cfg.static_input_dim), rng
            )
            self.static_params = gl.init_params(
                self.static_cfg, cfg.static_input_dim, self.params, "static.cell",
                rng, cfg.init_scale,
            )
            self.w_fo = self._reg("feat.static.w", (cfg.static_hidden, d), rng)
            self.w_ho = self._reg("static.who", (cfg.static_hidden, d), rng)
            self.w_mp = self._reg("msg.w", (d, cfg.hidden_size), rng)

        if cfg.variant == "mcr_mpc":
            self.w_conv = self._reg("conv.w", (9, cfg.cell_channels), rng)
            self.b_conv = self.params.register(
                "conv.b", np.zeros((1, cfg.cell_channels)), "zeros"
            ).value
            self.w_c = self._reg(
                "fuse.wc", (cfg.cell_channels + d, cfg.zones), rng
            )

        self.w_out = self.params.register(
            "decode.w",
            rng.normal(0.0, cfg.init_scale, (cfg.hidden_size, 2 * cfg.pred_len)),
            f"normal(0,{cfg.init_scale})",
        ).value
        self.b_out = self.params.register(
            "decode.b", np.zeros((1, 2 * cfg.pred_len)), "zeros"
        ).value

    # -- building blocks ----------------------------------------------------

    def embed_positions(self, x: DiffValue) -> DiffValue:
        """Two chained linear maps, no nonlinearity."""
        return ad.matmul(ad.matmul(x, self.w_pos1), self.w_pos2)

    def embed_vislets(self, v: DiffValue) -> DiffValue:
        norms = np.linalg.norm(v.data, axis=1)
        bad = ~((norms == 0.0) | (np.abs(norms - 1.0) <= 1e-6))
        if bad.any():
            raise InputError(
                f"vislet rows must be unit or zero vectors; offending rows "
                f"{np.flatnonzero(bad).tolist()}"
            )
        return ad.matmul(v, self.w_vis)

    def fuse_features(
        self,
        f_s: DiffValue,
        v_emb: DiffValue,
        rel_feat: DiffValue,
        c_mat: DiffValue | None = None,
        blocks: nb.SceneBlocks | None = None,
    ) -> DiffValue:
        """Fused relational embedding: (W_v [f_S || V] + b_v) ⊙ (W_r ℱ),
        with ℱ the social features (mcr_n) or the pedestrian-cell score map
        (static variants); conv context enters as a multiplicative row term,
        the mean of each scene's cell context rows (blocks lays them out;
        without it c_mat holds one scene's cells)."""
        if self.cfg.variant not in RELATIONAL:
            raise VariantError(f"fuse_features not wired for {self.cfg.variant}")
        u = ad.bias_add(ad.matmul(ad.concat_cols([f_s, v_emb]), self.w_v), self.b_v)
        f_prime = ad.mul(u, ad.matmul(rel_feat, self.w_r))
        if c_mat is not None:
            if self.cfg.variant != "mcr_mpc":
                raise VariantError("conv context only enters the mcr_mpc fusion")
            blocks = blocks or nb.SceneBlocks([f_s.data.shape[0]], c_mat.data.shape[0])
            mean = ad.matmul(ad.constant(blocks.cell_mean), c_mat)
            f_prime = blocks.scene_row_mul(f_prime, ad.matmul(mean, self.w_c))
        return f_prime

    def attention(self, scores: DiffValue) -> DiffValue:
        """Row-stochastic attention; uniform rows when ablated off."""
        if not self.cfg.attention_enabled:
            n, w = scores.data.shape
            return ad.constant(np.full((n, w), 1.0 / w if w else 0.0))
        return ad.stable_softmax(scores)

    def message_pass(self, h: DiffValue, static_imp: DiffValue, tau: float) -> DiffValue:
        """Importance-weight node states, softmax, zero sub-threshold links."""
        if self.cfg.variant not in STATIC:
            raise VariantError(f"message_pass not wired for {self.cfg.variant}")
        mixed = ad.stable_softmax(ad.mul(static_imp, h))
        if tau <= 0.0:
            return mixed
        keep = (mixed.data >= tau).astype(np.float64)
        return ad.mul(mixed, ad.constant(keep))

    def adjacency_map(self, h_in: DiffValue, blocks: nb.SceneBlocks) -> DiffValue:
        """A = row_softmax(H @ W_A @ H^T) over the rows blocks lays out;
        links between packed scenes are masked to exactly zero weight."""
        logits = ad.matmul(ad.matmul(h_in, self.w_a), ad.transpose(h_in))
        mask = blocks.link_mask(self.cfg.self_loops)
        if mask is not None:
            logits = ad.add(logits, ad.constant(mask))
        return ad.stable_softmax(logits)

    def edges(self, a: np.ndarray, sizes: Sequence[int]) -> list[tuple[int, int]]:
        """Surviving edges of an adjacency map a kept in Diagnostics, for a
        run whose scenes hold sizes pedestrians (KernelRun.sizes). Each
        scene is thresholded at its own resolve_tau(n_s), no edge crosses
        scenes and the diagonal is dropped without self loops. Pairs are
        packed row indices, row-major, as Python ints."""
        blocks = nb.SceneBlocks(sizes, 0)
        taus = np.array([self.cfg.resolve_tau(n) for n in blocks.sizes])
        keep = (a >= taus[blocks.scene_of, None]) & blocks.same_scene
        if not self.cfg.self_loops:
            np.fill_diagonal(keep, False)
        # argwhere walks row-major; tolist() gives Python ints
        return list(map(tuple, np.argwhere(keep).tolist()))

    # -- full unroll ---------------------------------------------------------

    def _resolve_mp_tau(self) -> float:
        # uniform-attention level of the row being thresholded
        return (
            1.0 / self.cfg.hidden_size if self.cfg.tau == -1.0 else self.cfg.tau
        )

    def warn_missing_images(self, scenes: Sequence[da.SceneBatch]) -> None:
        """Warn once if an mcr_mpc static grid will run some of scenes
        without a scene image, naming how many; run() gives each such scene
        a constant map, silently. train(), evaluate() and g2k viz call this
        once per call, over all of that call's scenes."""
        if self.cfg.variant != "mcr_mpc" or not self.cfg.static_grid_enabled:
            return
        missing = sum(b.scene_image is None for b in scenes)
        if missing:
            warnings.warn(
                f"no scene image in {missing} of {len(scenes)} scenes; "
                "using a constant fallback map",
                stacklevel=2,
            )

    def _scene_maps(self, scenes: list[da.SceneBatch]) -> np.ndarray:
        """(S, g, g) downsampled scene images; a scene without one gets a
        constant map."""
        g = self.cfg.grid_size
        return np.stack([
            np.full((g, g), 0.5) if b.scene_image is None
            else nb.downsample_image(b.scene_image, g)
            for b in scenes
        ])

    def _cells(self, obs: np.ndarray, blocks: nb.SceneBlocks) -> np.ndarray:
        """(obs_len, N) static row of every pedestrian at every observed
        step, from bounds fitted to its own scene's observed positions."""
        cells = np.empty(obs.shape[:2], dtype=np.int64)
        start = 0
        for s, n in enumerate(blocks.sizes):
            pts = obs[:, start : start + n]
            idx = nb.assign_cells(pts.reshape(-1, 2), nb.bounds_from_positions(pts),
                                  self.cfg.grid_size)
            cells[:, start : start + n] = s * blocks.k + idx.reshape(-1, n)
            start += n
        return cells

    def run(self, scenes: da.SceneBatch | Sequence[da.SceneBatch]) -> KernelRun:
        """Unroll the observed steps of one scene, or of several packed into
        one graph, then decode pred_len offsets from the final social state
        through one linear head. Packed scenes keep their own crowd, static
        grid and attention; the predictions of a packed run are those of
        running each scene alone, up to float rounding."""
        cfg = self.cfg
        if isinstance(scenes, da.SceneBatch):
            scenes = [scenes]
        if not scenes:
            raise InputError("no scenes to run")
        for i, b in enumerate(scenes):
            if not b.windows:
                raise InputError(f"scene {i} of the pack has no pedestrians")
        parts = [da.obs_positions(b) for b in scenes]
        for o in parts:
            if o.shape[0] != cfg.obs_len:
                raise InputError(
                    f"batch has {o.shape[0]} observed steps, config wants {cfg.obs_len}"
                )
        obs = np.concatenate(parts, axis=1)
        vis_parts = [da.obs_vislets(b) for b in scenes]
        vis = None if any(v is None for v in vis_parts) else np.concatenate(vis_parts, axis=1)
        if cfg.variant != "g_lstm" and vis is None:
            raise InputError(f"variant {cfg.variant} needs vislets on every window")
        blocks = nb.SceneBlocks([o.shape[1] for o in parts], cfg.num_cells)

        relational = cfg.variant in RELATIONAL
        static_on = cfg.variant in STATIC and cfg.static_grid_enabled
        diag = Diagnostics()
        state = gl.init_state(self.social_cfg, blocks.n)

        if static_on:
            k = cfg.num_cells
            cells = self._cells(obs, blocks)
            static_state = gl.init_state(self.static_cfg, blocks.count * k)
            a_cells = nb.uniform_cell_attention(k, blocks.count)
            f_s_prev: DiffValue | None = None
            if cfg.variant == "mcr_mpc":
                down = self._scene_maps(scenes)

        for t in range(cfg.obs_len):
            x_emb = self.embed_positions(ad.constant(obs[t]))
            if cfg.variant == "g_lstm":
                joint = x_emb
            else:
                v_emb = self.embed_vislets(ad.constant(vis[t]))
                joint = ad.concat_cols([x_emb, v_emb])

            f_raw, state = gl.step(self.social_cfg, joint, state, self.social_params)
            if not relational:
                continue

            f_s = ad.matmul(f_raw, self.w_fs)

            if static_on:
                if cfg.variant == "mcr_mpc":
                    base = nb.conv_encode(down, self.w_conv, self.b_conv, self.mask)
                else:
                    base = nb.mask_features(self.mask, cfg.cell_channels, blocks.count)
                c_mat = nb.append_social_context(base, f_s_prev, blocks, cfg.feature_dim)
                v_pool = nb.occupancy_pool(v_emb, cells[t], blocks.count * k)
                static_in = ad.matmul(
                    ad.concat_cols([c_mat, v_pool]), self.w_static_in
                )
                f_o_raw, static_state = gl.step(
                    self.static_cfg, static_in, static_state, self.static_params
                )
                f_o = ad.matmul(f_o_raw, self.w_fo)
                f_o_prime = nb.regularize(f_o, cfg.lambda_reg)
                f_o_dd = nb.attend_cells(f_o_prime, static_state.h, a_cells, self.w_ho)
                fused = blocks.own_cells(nb.fuse_mask(f_s, f_o_prime))
                a_ped = self.attention(fused)
                a_ped_rows = blocks.spread_cells(a_ped)
                a_cells = nb.cell_attention_from_ped(a_ped_rows, blocks)
                f_s_prev = f_s
                rel_feat = fused
            else:
                rel_feat = f_s

            f_prime = self.fuse_features(
                f_s, v_emb, rel_feat,
                c_mat if (cfg.variant == "mcr_mpc" and static_on) else None,
                blocks,
            )

            a_z = self.attention(f_prime)
            imp = ad.matmul(ad.mul(a_z, f_prime), self.w_imp)
            h_pre = ad.mul(imp, f_raw)

            if static_on:
                static_imp = ad.matmul(ad.matmul(a_ped_rows, f_o_dd), self.w_mp)
                h_in = self.message_pass(h_pre, static_imp, self._resolve_mp_tau())
            else:
                h_in = ad.stable_softmax(h_pre)  # node softmax

            a_mat = self.adjacency_map(h_in, blocks)
            h_star = ad.matmul(a_mat, h_in)  # state mixing H* = A @ H
            state = gl.GridState(h=h_star, c=state.c)

            diag.adjacency.append(a_mat.data)
            diag.attention.append(a_z.data)
            if static_on:
                diag.ped_cell_attention.append(a_ped.data)
                diag.cell_attention.append(a_cells.data.ravel())

        return self._decode(state.h, obs[-1], diag, blocks.sizes)

    def _decode(self, h_final: DiffValue, last_obs: np.ndarray, diag: Diagnostics,
                sizes: list[int]) -> KernelRun:
        flat = ad.bias_add(ad.matmul(h_final, self.w_out), self.b_out)
        positions: list[DiffValue] = []
        offsets: list[DiffValue] = []
        prev = ad.constant(last_obs)
        for s in range(self.cfg.pred_len):
            off = ad.slice_cols(flat, 2 * s, 2 * s + 2)
            prev = ad.add(prev, off)
            offsets.append(off)
            positions.append(prev)
        return KernelRun(positions=positions, offsets=offsets, diagnostics=diag,
                         sizes=sizes)
