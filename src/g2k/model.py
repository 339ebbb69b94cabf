"""Variant wiring: embed cues, encode socially, infer the weighted adjacency,
and decode future offsets.

Variants
  g_lstm   positions only through the social grid LSTM, then decode.
  mc       adds gaze cues (vislets) to the encoder input.
  mcr_n    adds relational inference: fused-feature attention, node softmax,
           bilinear adjacency, state mixing H* = A @ H fed to the next step.
  mcr_mp   adds the static scene grid and message passing with thresholding.
  mcr_mpc  adds convolutional scene context from an image to the static grid.

Two stability departures from the source formulas, both load-bearing:
attention uses one numerically stable softmax instead of a softmax applied to
already-exponentiated scores (the double exponential overflows around 700 and
only rescales monotonically), and the adjacency map is the bilinear form
row_softmax(H @ W_A @ H^T) since a fixed square weight cannot produce N x N
output for arbitrary N.
"""

from __future__ import annotations

import warnings
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
    """Per-observed-step intermediates for export and inspection."""

    adjacency: list[np.ndarray] = field(default_factory=list)
    attention: list[np.ndarray] = field(default_factory=list)
    ped_cell_attention: list[np.ndarray] = field(default_factory=list)
    cell_attention: list[np.ndarray] = field(default_factory=list)
    static_features: list[np.ndarray] = field(default_factory=list)
    edge_sets: list[list[tuple[int, int]]] = field(default_factory=list)


@dataclass
class KernelRun:
    """Decoded trajectory with its graph nodes still attached.

    positions[k] is the (N, 2) node for predicted step k, built by adding the
    k-th offset onto the previous step, so offsets telescope exactly.
    """

    positions: list[DiffValue]
    offsets: list[DiffValue]
    diagnostics: Diagnostics

    @property
    def predictions(self) -> np.ndarray:
        return np.stack([p.data for p in self.positions], axis=1)


class TrajectoryModel:
    """One variant instance: parameter registry plus the unrolled forward."""

    def __init__(self, cfg: ModelConfig, seed: int = 0):
        cfg.validate()
        cfg.check_divisibility()
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
    ) -> DiffValue:
        """Fused relational embedding: (W_v [f_S || V] + b_v) ⊙ (W_r ℱ),
        with ℱ the social features (mcr_n) or the pedestrian-cell score map
        (static variants); conv context enters as a multiplicative row term."""
        if self.cfg.variant not in RELATIONAL:
            raise VariantError(f"fuse_features not wired for {self.cfg.variant}")
        u = ad.bias_add(ad.matmul(ad.concat_cols([f_s, v_emb]), self.w_v), self.b_v)
        f_prime = ad.mul(u, ad.matmul(rel_feat, self.w_r))
        if c_mat is not None:
            if self.cfg.variant != "mcr_mpc":
                raise VariantError("conv context only enters the mcr_mpc fusion")
            f_prime = ad.row_mul(f_prime, ad.matmul(ad.mean_rows(c_mat), self.w_c))
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

    def adjacency(self, h_in: DiffValue, n_peds: int) -> tuple[DiffValue, list[tuple[int, int]]]:
        """A = row_softmax(H @ W_A @ H^T) plus the surviving edge pairs."""
        logits = ad.matmul(ad.matmul(h_in, self.w_a), ad.transpose(h_in))
        if not self.cfg.self_loops and n_peds > 1:
            off = np.zeros((n_peds, n_peds))
            np.fill_diagonal(off, -1e30)
            logits = ad.add(logits, ad.constant(off))
        a = ad.stable_softmax(logits)
        tau = self.cfg.resolve_tau(max(n_peds, 1))
        nu = [
            (i, j)
            for i in range(n_peds)
            for j in range(n_peds)
            if a.data[i, j] >= tau and (self.cfg.self_loops or i != j)
        ]
        return a, nu

    # -- full unroll ---------------------------------------------------------

    def _resolve_mp_tau(self) -> float:
        # uniform-attention level of the row being thresholded
        return (
            1.0 / self.cfg.hidden_size if self.cfg.tau == -1.0 else self.cfg.tau
        )

    def _scene_map(self, batch: da.SceneBatch) -> np.ndarray:
        if batch.scene_image is None:
            warnings.warn(
                "no scene image in batch; using a constant fallback map",
                stacklevel=3,
            )
            return np.full((self.cfg.grid_size, self.cfg.grid_size), 0.5)
        return nb.downsample_image(batch.scene_image, self.cfg.grid_size)

    def run(self, batch: da.SceneBatch) -> KernelRun:
        """Unroll the observed steps, then decode pred_len offsets from the
        final social state through one linear head."""
        cfg = self.cfg
        obs = da.obs_positions(batch)
        if obs.shape[0] != cfg.obs_len:
            raise InputError(
                f"batch has {obs.shape[0]} observed steps, config wants {cfg.obs_len}"
            )
        n = obs.shape[1]
        vis = da.obs_vislets(batch)
        if cfg.variant != "g_lstm" and vis is None:
            raise InputError(f"variant {cfg.variant} needs vislets on every window")

        relational = cfg.variant in RELATIONAL
        static_on = cfg.variant in STATIC and cfg.static_grid_enabled
        diag = Diagnostics()
        state = gl.init_state(self.social_cfg, n)

        if static_on:
            k = cfg.num_cells
            bounds = nb.bounds_from_positions(obs)
            static_state = gl.init_state(self.static_cfg, k)
            a_cells = nb.uniform_cell_attention(k)
            f_s_prev: DiffValue | None = None
            if cfg.variant == "mcr_mpc":
                down = self._scene_map(batch)

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
                    base = nb.mask_features(self.mask, cfg.cell_channels)
                c_mat = nb.append_social_context(base, f_s_prev, k, cfg.feature_dim)
                v_pool = nb.occupancy_pool(
                    v_emb, nb.assign_cells(obs[t], bounds, cfg.grid_size), k
                )
                static_in = ad.matmul(
                    ad.concat_cols([c_mat, v_pool]), self.w_static_in
                )
                f_o_raw, static_state = gl.step(
                    self.static_cfg, static_in, static_state, self.static_params
                )
                f_o = ad.matmul(f_o_raw, self.w_fo)
                f_o_prime = nb.regularize(f_o, cfg.lambda_reg)
                f_o_dd = nb.attend_cells(f_o_prime, static_state.h, a_cells, self.w_ho)
                fused = nb.fuse_mask(f_s, f_o_prime)
                a_ped = self.attention(fused)
                a_cells = nb.cell_attention_from_ped(a_ped)
                f_s_prev = f_s
                rel_feat = fused
            else:
                rel_feat = f_s

            f_prime = self.fuse_features(
                f_s, v_emb, rel_feat,
                c_mat if (cfg.variant == "mcr_mpc" and static_on) else None,
            )

            a_z = self.attention(f_prime)
            imp = ad.matmul(ad.mul(a_z, f_prime), self.w_imp)
            h_pre = ad.mul(imp, f_raw)

            if static_on:
                static_imp = ad.matmul(ad.matmul(a_ped, f_o_dd), self.w_mp)
                h_in = self.message_pass(h_pre, static_imp, self._resolve_mp_tau())
            else:
                h_in = ad.stable_softmax(h_pre)  # node softmax

            a_mat, nu = self.adjacency(h_in, n)
            h_star = ad.matmul(a_mat, h_in)  # state mixing H* = A @ H
            state = gl.GridState(h=h_star, c=state.c)

            diag.adjacency.append(a_mat.data.copy())
            diag.attention.append(a_z.data.copy())
            diag.edge_sets.append(nu)
            if static_on:
                diag.ped_cell_attention.append(a_ped.data.copy())
                diag.cell_attention.append(a_cells.data.copy().ravel())
                diag.static_features.append(f_o_dd.data.copy())

        return self._decode(state.h, obs[-1], diag)

    def _decode(self, h_final: DiffValue, last_obs: np.ndarray, diag: Diagnostics) -> KernelRun:
        flat = ad.bias_add(ad.matmul(h_final, self.w_out), self.b_out)
        positions: list[DiffValue] = []
        offsets: list[DiffValue] = []
        prev = ad.constant(last_obs)
        for s in range(self.cfg.pred_len):
            off = ad.slice_cols(flat, 2 * s, 2 * s + 2)
            prev = ad.add(prev, off)
            offsets.append(off)
            positions.append(prev)
        return KernelRun(positions=positions, offsets=offsets, diagnostics=diag)
