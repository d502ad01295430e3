"""Spans around calls into veca's public functions, recorded from outside.

Modules bind names directly (``from .tensor import linear``), so a wrapper is
installed on every binding of a function object in every loaded ``veca.*``
module, plus on the class for methods. Spans are kept in memory as tuples
``(name, parent, start_ns, end_ns, macs)`` and aggregated when the run ends.
"""

from __future__ import annotations

import math
import sys
import time

import numpy as np


def _linear_macs(x, w, b=None):
    return math.prod(x.shape[:-1]) * w.shape[0] * w.shape[1]


def _matmul_macs(a, b):
    return math.prod(a.shape) * b.shape[-1]


def _score_macs(params, x, coords, active_c, *args, **kwargs):
    from veca.analysis import score_macs_core

    batch, tokens, dim = x.shape
    return batch * score_macs_core(tokens - active_c, active_c, dim)


# (defining module, attribute path, span name, MAC count from the arguments)
TARGETS = [
    ("veca.tensor", "linear", "tensor.linear", _linear_macs),
    ("veca.tensor", "matmul", "tensor.matmul", _matmul_macs),
    ("veca.tensor", "silu", "tensor.silu", None),
    ("veca.tensor", "layer_norm", "tensor.layer_norm", None),
    ("veca.tensor", "softmax_rows", "tensor.softmax_rows", None),
    ("veca.tensor", "Tensor.backward", "tensor.backward", None),
    ("veca.rope", "cos_sin", "rope.cos_sin", None),
    ("veca.rope", "apply", "rope.apply", None),
    ("veca.attention", "core_attention", "attention.core_attention", _score_macs),
    ("veca.model", "Encoder.patch_embed", "model.patch_embed", None),
    ("veca.model", "Encoder.encode_tokens", "model.encode_tokens", None),
    ("veca.model", "block_forward", "model.block_forward", None),
    ("veca.model", "ffn_swiglu", "model.ffn_swiglu", None),
    ("veca.elastic", "active_prefix", "elastic.active_prefix", None),
    ("veca.distill", "total_loss", "distill.total_loss", None),
    ("veca.distill", "loss_global", "distill.loss_terms", None),
    ("veca.distill", "loss_dense", "distill.loss_terms", None),
    ("veca.distill", "SyntheticTeacher.targets", "distill.teacher_targets", None),
    ("veca.distill", "AdamW.step", "distill.adamw_step", None),
    ("veca.data", "synthetic_images", "data.synthetic_images", None),
]
SPAN_NAMES = sorted({t[2] for t in TARGETS})


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = [-1]  # index of the open span; -1 at top level
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, macs):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            m = macs(*args, **kwargs) if macs is not None else 0
            parent = stack[-1]
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, parent, start, end, m)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items()) if key == "veca" or key.startswith("veca.")]
        for module_name, path, name, macs in TARGETS:
            owner = sys.modules[module_name]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                self._set(cls, attr, self._wrap(vars(cls)[attr], name, macs))
                continue
            fn = getattr(owner, path)
            wrapper = self._wrap(fn, name, macs)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._set(module, attr, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def aggregate(spans: list, intervals: list[tuple[int, int]]) -> tuple[dict, dict]:
    """Per-name totals over spans that start inside an operation interval.

    Returns ({name: {"ms", "self_ms", "calls", "macs"}} summed over those
    spans, {"span_ms": sum of all self times, "unattributed": count}).
    A span's self time is its duration minus the durations of its children.
    """
    index = {name: i for i, name in enumerate(SPAN_NAMES)}
    n = len(spans)
    name_id = np.fromiter((index[s[0]] for s in spans), dtype=np.int64, count=n)
    parent = np.fromiter((s[1] for s in spans), dtype=np.int64, count=n)
    start = np.fromiter((s[2] for s in spans), dtype=np.int64, count=n)
    dur = np.fromiter((s[3] - s[2] for s in spans), dtype=np.int64, count=n)
    macs = [s[4] for s in spans]

    child = np.zeros(n, dtype=np.int64)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_ns = dur - child

    bounds = np.array(sorted(intervals), dtype=np.int64).reshape(-1, 2)
    slot = np.searchsorted(bounds[:, 0], start, side="right") - 1
    inside = (slot >= 0) & (start < bounds[np.maximum(slot, 0), 1])

    totals = {}
    for nid, name in enumerate(SPAN_NAMES):
        sel = inside & (name_id == nid)
        totals[name] = {
            "ms": float(dur[sel].sum()) / 1e6,
            "self_ms": float(self_ns[sel].sum()) / 1e6,
            "calls": int(sel.sum()),
            "macs": int(sum(macs[i] for i in np.flatnonzero(sel))),
        }
    summary = {
        "span_ms": float(self_ns[inside].sum()) / 1e6,
        "unattributed": int((~inside).sum()),
    }
    return totals, summary
