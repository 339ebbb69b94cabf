"""Span tracer that wraps g2k's public functions from outside the program.

install() replaces module functions and class methods with thin wrappers that
record one span per call (name, start, end, parent span) in flat in-memory
arrays; uninstall() puts the originals back. Nothing inside g2k changes, so
traced and untraced runs compute bit-identical results. summary() turns the
spans into the per-layer metrics listed in BENCHMARK.json, using self time:
a span's duration minus the time covered by its child spans.

Functions that a later version of g2k no longer has are skipped, and their
metrics read zero, so the harness keeps working while the program shrinks.
"""

from __future__ import annotations

import os
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("autodiff", "gridlstm", "neighborhood", "model", "training",
          "evaluation", "data")
OPS = ("matmul", "transpose", "add", "sub", "mul", "scale", "bias_add",
       "row_mul", "sigmoid", "tanh", "exp", "stable_softmax", "concat_cols",
       "slice_cols", "sum_all", "mean_rows", "constant")
NB_FNS = ("bounds_from_positions", "assign_cells", "occupancy_pool",
          "downsample_image", "conv_patches", "conv_encode", "mask_features",
          "append_social_context", "regularize", "fuse_mask", "attend_cells",
          "uniform_cell_attention", "cell_attention_from_ped")
EMBED_FNS = ("embed_positions", "embed_vislets")
RELATIONAL_FNS = ("fuse_features", "attention", "node_softmax", "message_pass",
                  "adjacency", "update_states")
DATA_FNS = ("load_dataset", "make_windows", "synthesize", "scenario_points",
            "obs_positions", "target_positions", "obs_vislets")
METRIC_FNS = ("point_errors", "ade", "fde", "check_invariants")
AUDITED = ("g_lstm", "mc", "mcr_n")  # the variants gradcheck_audit checks
GRID_KINDS = ("social", "static")
RUN_KINDS = ("train", "eval")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.stack: list[int] = []
        self.nodes = 0  # DiffValue constructions seen
        self.counts: dict[str, float] = {}
        self._undo: list[tuple[object, str, object]] = []
        self._grid_kind: dict[int, str] = {}
        self._variant = "other"

    # -- spans ---------------------------------------------------------------

    def sid(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def begin(self, nid: int) -> int:
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.t1.append(0.0)
        self.stack.append(idx)
        self.t0.append(perf_counter())
        return idx

    def end(self, idx: int) -> None:
        """Close span idx and any span left open inside it."""
        t = perf_counter()
        stack = self.stack
        while stack:
            j = stack.pop()
            self.t1[j] = t
            if j == idx:
                return

    def _inside(self, nid: int) -> bool:
        return any(self.name_id[j] == nid for j in self.stack)

    def _add(self, key: str, v: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + v

    # -- installing wrappers -------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        orig = owner.__dict__.get(attr)
        if orig is None:
            return
        wrapper = make(orig)
        wrapper.__wrapped__ = orig
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def _span(self, owner, attr: str, name: str, after=None) -> None:
        """Wrap owner.attr in a span; begin/end are inlined because op
        spans are recorded millions of times in a traced audit."""
        nid = self.sid(name)
        name_id, parent, t0, t1 = self.name_id, self.parent, self.t0, self.t1
        stack, end = self.stack, self.end

        def make(orig):
            def wrapper(*a, **kw):
                i = len(name_id)
                name_id.append(nid)
                parent.append(stack[-1] if stack else -1)
                t1.append(0.0)
                stack.append(i)
                t0.append(perf_counter())
                try:
                    out = orig(*a, **kw)
                finally:
                    t = perf_counter()
                    if stack[-1] == i:
                        stack.pop()
                        t1[i] = t
                    else:
                        end(i)
                if after is not None:
                    after(out, a, kw)
                return out
            return wrapper

        self._patch(owner, attr, make)

    def install(self, g2k) -> None:
        ad, gl, nb, md = g2k.autodiff, g2k.gridlstm, g2k.neighborhood, g2k.model
        tr, ev, da = g2k.training, g2k.evaluation, g2k.data
        tracer = self

        def count_init(orig):
            def __init__(node, *a, **kw):
                tracer.nodes += 1
                orig(node, *a, **kw)
            return __init__

        self._patch(ad.DiffValue, "__init__", count_init)
        for op in OPS:
            self._span(ad, op, f"autodiff.op.{op}")
        self._patch(ad.ParameterSet, "zero_grad", self._zero_grad_wrapper)
        self._patch(ad, "backward", self._backward_wrapper)
        self._patch(ad, "grad_check", self._labelled(
            lambda a, kw: f"autodiff.grad_check.{self._variant}"))

        def remember_kind(out, a, kw):
            prefix = a[3] if len(a) > 3 else kw["prefix"]
            self._grid_kind[id(out)] = "social" if prefix == "social" else "static"

        self._span(gl, "init_state", "gridlstm.init_state")
        self._span(gl, "init_params", "gridlstm.init_params", remember_kind)
        self._patch(gl, "step", self._grid_step_wrapper)

        for fn in NB_FNS:
            self._span(nb, fn, f"neighborhood.{fn}")

        model = md.TrajectoryModel
        self._span(model, "__init__", "model.init")
        self._patch(model, "run", self._run_wrapper)
        for fn in EMBED_FNS:
            self._span(model, fn, "model.embed")
        for fn in RELATIONAL_FNS:
            after = self._count_edges if fn == "adjacency" else None
            self._span(model, fn, "model.relational", after)

        def note_variant(orig):
            nid = self.sid("training.quick_grad_check")

            def wrapper(variant, *a, **kw):
                self._variant = variant
                i = self.begin(nid)
                try:
                    return orig(variant, *a, **kw)
                finally:
                    self.end(i)
                    self._variant = "other"
            return wrapper

        self._span(tr, "train", "training.train")
        self._span(tr, "loss_graph", "training.loss_graph")
        self._span(tr, "clip_gradients", "training.clip")
        self._span(tr, "save_checkpoint", "training.save_checkpoint",
                   lambda out, a, kw: self._add(
                       "ckpt_bytes", os.path.getsize(a[0] if a else kw["path"])))
        self._span(tr, "load_checkpoint", "training.load_checkpoint")
        self._span(tr.Checkpoint, "restore", "training.restore")
        self._patch(tr, "quick_grad_check", note_variant)
        for opt in (tr.Adam, tr.SGD):
            self._patch(opt, "step", self._optimizer_wrapper)

        self._span(ev, "evaluate", "evaluation.evaluate")
        for fn in METRIC_FNS:
            self._span(ev, fn, "evaluation.metrics")

        for fn in DATA_FNS:
            after = None
            if fn in ("load_dataset", "scenario_points"):
                after = lambda out, a, kw: self._add("points", len(out))
            elif fn == "make_windows":
                after = self._count_scenes
            self._span(da, fn, f"data.{fn}", after)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- wrappers with labels or side counts ---------------------------------

    def _labelled(self, name_of):
        def make(orig):
            def wrapper(*a, **kw):
                i = self.begin(self.sid(name_of(a, kw)))
                try:
                    return orig(*a, **kw)
                finally:
                    self.end(i)
            return wrapper
        return make

    def _backward_wrapper(self, orig):
        walk_id = self.sid("trace.walk")
        bw_id = self.sid("autodiff.backward")

        def backward(loss, *a, **kw):
            i = self.begin(walk_id)
            seen = {id(loss)}
            todo = [loss]
            while todo:
                for p in todo.pop().parents:
                    if id(p) not in seen:
                        seen.add(id(p))
                        todo.append(p)
            self.end(i)
            self._add("backward_graph_nodes", len(seen))
            i = self.begin(bw_id)
            try:
                return orig(loss, *a, **kw)
            finally:
                self.end(i)
        return backward

    def _grid_step_wrapper(self, orig):
        def step(cfg, inputs, state, params, *a, **kw):
            kind = self._grid_kind.get(id(params), "other")
            n0 = self.nodes
            i = self.begin(self.sid(f"gridlstm.step.{kind}"))
            try:
                return orig(cfg, inputs, state, params, *a, **kw)
            finally:
                self.end(i)
                self._add(f"grid_nodes.{kind}", self.nodes - n0)
        return step

    def _run_wrapper(self, orig):
        train_id = self.sid("training.train")
        eval_id = self.sid("evaluation.evaluate")

        def run(model, *a, **kw):
            kind = ("train" if self._inside(train_id)
                    else "eval" if self._inside(eval_id) else "other")
            n0 = self.nodes
            i = self.begin(self.sid(f"model.run.{kind}"))
            try:
                return orig(model, *a, **kw)
            finally:
                self.end(i)
                self._add("run_nodes", self.nodes - n0)
                self._add("runs", 1)
        return run

    def _optimizer_wrapper(self, orig):
        opt_id = self.sid("training.optimizer_step")
        step_id = self.sid("training.step")

        def step(opt, params, *a, **kw):
            i = self.begin(opt_id)
            try:
                return orig(opt, params, *a, **kw)
            finally:
                self.end(i)
                if self.stack and self.name_id[self.stack[-1]] == step_id:
                    self.end(self.stack[-1])
        return step

    def _zero_grad_wrapper(self, orig):
        """A training step runs from zero_grad to the optimizer update, so
        its span opens when train() zeroes the gradients."""
        train_id = self.sid("training.train")
        step_id = self.sid("training.step")
        zero_id = self.sid("autodiff.zero_grad")

        def zero_grad(pset, *a, **kw):
            if self.stack and self.name_id[self.stack[-1]] == train_id:
                self.begin(step_id)
            i = self.begin(zero_id)
            try:
                return orig(pset, *a, **kw)
            finally:
                self.end(i)
        return zero_grad

    def _count_edges(self, out, a, kw) -> None:
        n = a[2] if len(a) > 2 else kw["n_peds"]
        self._add("edges_kept", len(out[1]))
        self._add("edges_tried", n * n)

    def _count_scenes(self, out, a, kw) -> None:
        self._add("scenes", len(out))
        self._add("peds", sum(b.n_peds for b in out))

    # -- results -------------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.intc).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.intc).copy(),
            "t0": np.frombuffer(self.t0, dtype=np.float64).copy(),
            "t1": np.frombuffer(self.t1, dtype=np.float64).copy(),
        }

    def summary(self, wall_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics (value, unit) over every span recorded."""
        sp = self.spans()
        nid, parent = sp["name_id"], sp["parent"]
        dur = (sp["t1"] - sp["t0"]) * 1000.0
        n_names = len(self.names)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_ms = np.bincount(nid, weights=dur - child, minlength=n_names)
        calls = np.bincount(nid, minlength=n_names)
        # inclusive time by (name, parent name); the last column is "no parent"
        cols = n_names + 1
        pname = np.where(has_parent, nid[np.maximum(parent, 0)], n_names)
        pair = np.bincount(nid * cols + pname, weights=dur,
                           minlength=n_names * cols).reshape(n_names, cols)

        def ids(prefix: str) -> list[int]:
            return [i for i, n in enumerate(self.names)
                    if n == prefix or n.startswith(prefix + ".")]

        def total(prefix: str) -> float:
            """Inclusive ms of matching spans not nested in a matching span."""
            idx = ids(prefix)
            outside = np.ones(cols, dtype=bool)
            outside[idx] = False
            return float(pair[idx][:, outside].sum()) if idx else 0.0

        def self_total(prefix: str) -> float:
            return float(sum(self_ms[i] for i in ids(prefix)))

        def ncalls(prefix: str) -> float:
            return float(sum(calls[i] for i in ids(prefix)))

        def durations(name: str) -> np.ndarray:
            i = self._ids.get(name)
            return dur[nid == i] if i is not None else np.zeros(0)

        c = self.counts
        m: dict[str, tuple[float, str]] = {}
        runs = c.get("runs", 0.0)
        m["autodiff.nodes_per_scene"] = (c.get("run_nodes", 0.0) / runs if runs else 0.0, "count")
        for op in OPS:
            m[f"autodiff.op_calls.{op}"] = (ncalls(f"autodiff.op.{op}"), "count")
            m[f"autodiff.op_ms.{op}"] = (self_total(f"autodiff.op.{op}"), "ms")
        m["autodiff.backward_ms"] = (total("autodiff.backward"), "ms")
        m["autodiff.backward_calls"] = (ncalls("autodiff.backward"), "count")
        bw = ncalls("autodiff.backward")
        m["autodiff.backward_graph_nodes"] = (
            c.get("backward_graph_nodes", 0.0) / bw if bw else 0.0, "count")
        m["autodiff.zero_grad_ms"] = (total("autodiff.zero_grad"), "ms")
        for v in AUDITED:
            m[f"autodiff.grad_check_ms.{v}"] = (total(f"autodiff.grad_check.{v}"), "ms")

        for k in GRID_KINDS:
            steps = ncalls(f"gridlstm.step.{k}")
            m[f"gridlstm.step_ms.{k}"] = (total(f"gridlstm.step.{k}"), "ms")
            m[f"gridlstm.step_calls.{k}"] = (steps, "count")
            m[f"gridlstm.nodes_per_step.{k}"] = (
                c.get(f"grid_nodes.{k}", 0.0) / steps if steps else 0.0, "count")

        m["neighborhood.ms"] = (total("neighborhood"), "ms")
        for fn in NB_FNS:
            m[f"neighborhood.calls.{fn}"] = (ncalls(f"neighborhood.{fn}"), "count")
            m[f"neighborhood.ms.{fn}"] = (
                float(durations(f"neighborhood.{fn}").sum()), "ms")

        for k in RUN_KINDS:
            d = durations(f"model.run.{k}")
            m[f"model.run_ms.{k}.p50"] = (_quantile(d, 0.5), "ms")
            m[f"model.run_ms.{k}.tail"] = (_tail(d), "ms")
        m["model.run_calls"] = (ncalls("model.run"), "count")
        m["model.embed_ms"] = (total("model.embed"), "ms")
        m["model.relational_ms"] = (total("model.relational"), "ms")
        tried = c.get("edges_tried", 0.0)
        m["model.edge_keep_ratio"] = (c.get("edges_kept", 0.0) / tried if tried else 0.0, "ratio")

        steps = durations("training.step")
        m["training.step_ms.p50"] = (_quantile(steps, 0.5), "ms")
        m["training.step_ms.tail"] = (_tail(steps), "ms")
        m["training.steps"] = (float(len(steps)), "count")
        m["training.loss_graph_ms"] = (total("training.loss_graph"), "ms")
        m["training.optimizer_step_ms"] = (total("training.optimizer_step"), "ms")
        m["training.clip_ms"] = (total("training.clip"), "ms")
        m["training.save_checkpoint_ms"] = (total("training.save_checkpoint"), "ms")
        m["training.load_checkpoint_ms"] = (total("training.load_checkpoint"), "ms")
        m["training.ckpt_bytes"] = (c.get("ckpt_bytes", 0.0), "bytes")

        m["evaluation.evaluate_ms"] = (total("evaluation.evaluate"), "ms")
        m["evaluation.metrics_ms"] = (total("evaluation.metrics"), "ms")
        m["evaluation.scenes"] = (ncalls("model.run.eval"), "count")

        m["data.load_dataset_ms"] = (total("data.load_dataset"), "ms")
        m["data.make_windows_ms"] = (float(durations("data.make_windows").sum()), "ms")
        m["data.synthesize_ms"] = (total("data.synthesize"), "ms")
        m["data.points"] = (c.get("points", 0.0), "count")
        scenes = c.get("scenes", 0.0)
        m["data.scenes"] = (scenes, "count")
        m["data.peds_per_scene"] = (c.get("peds", 0.0) / scenes if scenes else 0.0, "count")

        layer_self = {layer: self_total(layer) for layer in LAYERS}
        for layer in LAYERS:
            m[f"{layer}.self_ms"] = (layer_self[layer], "ms")
        m["trace.coverage"] = (sum(layer_self.values()) / (wall_s * 1000.0), "ratio")
        m["trace.spans"] = (float(len(dur)), "count")
        return m


def _quantile(d: np.ndarray, q: float) -> float:
    return float(np.quantile(d, q)) if len(d) else 0.0


def _tail(d: np.ndarray) -> float:
    """The highest of p99/p90/p75 with at least ten samples beyond it, else
    the maximum (so the tail of a short sample is its worst case)."""
    for q in (0.99, 0.90, 0.75):
        if len(d) * (1.0 - q) >= 10:
            return _quantile(d, q)
    return float(d.max()) if len(d) else 0.0
