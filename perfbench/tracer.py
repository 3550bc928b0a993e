"""Outside-in tracer for the drca benchmark.

``Tracer.installed()`` replaces each traced public function of the
package with a timing wrapper at every module attribute that holds it, so
names a module imported directly (``model`` takes ``dccm_forward`` and
``rat_layer_forward`` from their modules, ``dccm`` takes
``perturbed_objective`` from ``ranking``) are wrapped where their callers
look them up.  ``RandomStream.gaussian64`` is wrapped on the class.  The
originals are put back when the block exits.

While an op is open (``Tracer.op``) each wrapped call records one span:
name, start, end, parent span, op id, the flops counted by a nested
``numerics.FlopCounter``, and for kernels the computed input+output bytes.
Calls outside an op pass straight through, so the benchmark's own output
checks never show up in the trace.  Spans stay in memory until
``totals``, ``stages`` and ``write`` read them.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager

import numpy as np

from drca import flops, numerics

KERNELS = ("matmul", "linear", "softmax_lastdim", "layer_norm", "gelu",
           "avgpool_downsample", "conv3d")

# span names are the defining module (without the package) plus qualname
TRACED = tuple(f"numerics.{k}" for k in KERNELS) + (
    "numerics.RandomStream.gaussian64",
    # forward stages
    "model.forward", "model.patch_embed", "dccm.dccm_forward",
    "dccm.score_net_forward", "dccm.compress",
    "rat.temporal_attention", "rat.spatial_attention", "rat.feed_forward",
    # training path
    "dccm.toy_train_scorenet", "dccm.score_net_backward",
    "dccm.selection_accuracy", "ranking.perturbed_objective",
    # estimator path
    "gradcheck.run_t2_check", "gradcheck.run_fd_check",
    "gradcheck.vjp_with_se", "gradcheck.objective_with_se",
)

# flop-model stages, named after the FlopsEntry.stage keys they sum
STAGES = ("patch_embed", "stage1.temporal", "stage1.spatial", "stage1.ffn",
          "dccm.score_net", "dccm.compressor", "rat.temporal", "rat.spatial",
          "rat.ffn")
_STAGE_SPANS = {
    "model.patch_embed": "patch_embed",
    "dccm.score_net_forward": "dccm.score_net",
    "dccm.compress": "dccm.compressor",
    "rat.temporal_attention": "temporal",
    "rat.spatial_attention": "spatial",
    "rat.feed_forward": "ffn",
}

# span record fields
NAME, START, END, PARENT, OP, FLOPS, BYTES, EXTRA = range(8)


def _resolve(name: str):
    module, _, path = name.partition(".")
    obj = sys.modules[f"drca.{module}"]
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def _array_bytes(values) -> int:
    return sum(v.nbytes for v in values if isinstance(v, np.ndarray))


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.patches: list[tuple[object, str, object]] = []
        self._stack: list[int] = []

    # --- wrapping --------------------------------------------------------

    def _wrapper(self, name: str, fn):
        spans, stack = self.spans, self._stack
        kernel = name.removeprefix("numerics.") in KERNELS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1], spans[stack[0]][OP], 0, 0, None]
            stack.append(len(spans))
            spans.append(span)
            counter = numerics.FlopCounter()
            try:
                with counter:
                    span[START] = time.perf_counter()
                    out = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
                span[FLOPS] = counter.total
            if kernel:
                span[BYTES] = _array_bytes(args) + _array_bytes(kwargs.values()) + out.nbytes
            elif name == "numerics.RandomStream.gaussian64":
                span[EXTRA] = int(out.size)
            elif name == "model.forward":
                span[EXTRA] = args[2] if len(args) > 2 else kwargs["config"]
            return out

        return traced

    @contextmanager
    def installed(self):
        """Wrap every traced function for the duration of the block."""
        originals = {name: _resolve(name) for name in TRACED}
        wrappers = {id(fn): self._wrapper(name, fn) for name, fn in originals.items()}
        owners = [m for key, m in sorted(sys.modules.items())
                  if key == "drca" or key.startswith("drca.")]
        owners.append(numerics.RandomStream)
        try:
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    wrapper = wrappers.get(id(value))
                    if wrapper is not None:
                        self.patches.append((owner, attr, value))
                        setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, value in reversed(self.patches):
                setattr(owner, attr, value)

    @contextmanager
    def op(self, op_id: int):
        """Open the root span of one benchmark op."""
        span = ["op", 0.0, 0.0, -1, op_id, 0, 0, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        counter = numerics.FlopCounter()
        try:
            with counter:
                span[START] = time.perf_counter()
                yield
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()
            span[FLOPS] = counter.total

    # --- reading the spans -----------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive time, self time (duration minus
        direct children), counted flops, bytes and extra counts."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        out: dict[str, dict[str, float]] = {}
        for i, s in enumerate(self.spans):
            row = out.setdefault(s[NAME], dict.fromkeys(
                ("calls", "time_s", "self_s", "flops", "bytes", "items"), 0))
            duration = s[END] - s[START]
            row["calls"] += 1
            row["time_s"] += duration
            row["self_s"] += duration - child[i]
            row["flops"] += s[FLOPS]
            row["bytes"] += s[BYTES]
            if isinstance(s[EXTRA], int):
                row["items"] += s[EXTRA]
        return out

    def stages(self) -> dict[str, dict[str, float]]:
        """Per flop-model stage, summed over every traced forward call:
        time (the stage span's full duration, kernels included), counted
        flops and analytic flops.  ``model.forward.self`` is the rest of
        forward: the head, ranking, split and glue between stages."""
        out = {s: {"time_s": 0.0, "counted": 0, "analytic": 0}
               for s in STAGES + ("model.forward.self",)}
        analytic_cache: dict[object, dict[str, int]] = {}
        for i, f in enumerate(self.spans):
            if f[NAME] != "model.forward":
                continue
            config = f[EXTRA]
            if config not in analytic_cache:
                analytic_cache[config] = analytic_stages(config)
            for stage, count in analytic_cache[config].items():
                out[stage]["analytic"] += count
            rest_time, rest_flops = f[END] - f[START], f[FLOPS]
            layer = -1
            j = i + 1
            # descendants of f follow it in start order
            while j < len(self.spans) and self.spans[j][START] < f[END]:
                s = self.spans[j]
                j += 1
                part = _STAGE_SPANS.get(s[NAME])
                if part is None:
                    continue
                if part == "temporal":
                    layer += 1
                if part in ("temporal", "spatial", "ffn"):
                    prefix = "stage1." if layer < config.dccm_insert_after else "rat."
                    part = prefix + part
                duration = s[END] - s[START]
                out[part]["time_s"] += duration
                out[part]["counted"] += s[FLOPS]
                rest_time -= duration
                rest_flops -= s[FLOPS]
            out["model.forward.self"]["time_s"] += rest_time
            out["model.forward.self"]["counted"] += rest_flops
        return out

    def write(self, path: str, header: dict) -> None:
        """Write the header and every span as JSON."""
        spans = [[s[NAME], s[START], s[END], s[PARENT], s[OP], s[FLOPS], s[BYTES],
                  s[EXTRA] if isinstance(s[EXTRA], int) else None]
                 for s in self.spans]
        with open(path, "w") as f:
            json.dump({**header, "span_fields": ["name", "start", "end", "parent",
                                                 "op", "flops", "bytes", "items"],
                       "spans": spans}, f)


def analytic_stages(config) -> dict[str, int]:
    """Analytic flops of one forward pass per stage of STAGES, the head
    going to ``model.forward.self``; spatial stages sum their saliency and
    non-saliency entries."""
    out = dict.fromkeys(STAGES + ("model.forward.self",), 0)
    for e in flops.count_flops(config).entries:
        stage = e.stage.removesuffix(".saliency").removesuffix(".non_saliency")
        out[stage if stage in out else "model.forward.self"] += e.count
    return out
