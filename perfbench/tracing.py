"""Spans around calls into volseg's modules, recorded from outside the program.

``Tracer.install`` replaces module attributes that the program looks up at
call time (``volseg.cli.sliding_window_predict``, ``volseg.network.conv3d``,
...) with wrappers that record a span (name, start, end, parent) per call.
A target that no longer exists is skipped, and the layer metrics fed only
by skipped targets are reported as absent. ``uninstall`` restores the
originals. Spans stay in memory; ``layer_metrics`` reduces them to
per-operation values once the traced operations are done.
"""

import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

MB = 1e6


def _file_mb(path):
    return os.path.getsize(path) / MB


def _conv_key(x, weights):
    cout, cin, kx, ky, kz = weights.shape
    return f"k{kx}_c{cin}-{cout}_{'x'.join(str(d) for d in x.shape[1:])}"


def _on_read(tr, span, args, kwargs, result):
    tr.add(span, "nifti.read_mb", _file_mb(args[0]))


def _on_write(tr, span, args, kwargs, result):
    tr.add(span, "nifti.write_mb", _file_mb(args[1]))


def _on_resample(tr, span, args, kwargs, result):
    tr.add(span, "volume.resample_out_mvox", result.data[0].size / MB)


def _on_load_weights(tr, span, args, kwargs, result):
    tr.add(span, "network.weights_mb", _file_mb(args[0]))


def _on_forward(tr, span, args, kwargs, result):
    tr.add(span, "network.forward_calls", 1)
    if span[3] >= 0 and tr.spans[span[3]][0] == "inference.window":
        tr.add(span, "inference.tiles", 1)
        tr.add(span, "window.evaluated_voxels", args[1][0].size)


def _on_conv(tr, span, args, kwargs, result):
    x, weights = args[0], args[1]
    cout, cin, kx, ky, kz = weights.shape
    tr.add(span, "network.conv_gflop", 2.0 * cout * cin * kx * ky * kz * x[0].size / 1e9)
    tr.add(span, f"network.conv3d.{_conv_key(x, weights)}_s", span[2] - span[1])


def _on_window(tr, span, args, kwargs, result):
    tr.add(span, "window.volume_voxels", args[0].data[0].size)
    tr.add(span, "inference.prob_mb", result.data.nbytes / MB)


def _on_normalize(tr, span, args, kwargs, result):
    tr.add(span, "sampling.normalize_calls", 1)


def _on_augment(tr, span, args, kwargs, result):
    tr.add(span, "augmentation.transforms_applied", len(kwargs.get("log") or ()))


# (module, attribute, span name, hook run after the call with its arguments)
TARGETS = [
    ("volseg.cli", "cmd_infer", "cli.infer", None),
    ("volseg.cli", "cmd_evaluate", "cli.evaluate", None),
    ("volseg.cli", "read_nifti", "nifti.read", _on_read),
    ("volseg.cli", "atomic_write_nifti", "nifti.write", _on_write),
    ("volseg.cli", "write_nifti", "nifti.write", _on_write),
    ("volseg.cli", "resample_linear", "volume.resample_linear", _on_resample),
    ("volseg.cli", "resample_nearest", "volume.resample_nearest", None),
    ("volseg.cli", "restore_resolution", "volume.restore", None),
    ("volseg.volume", "trilinear_core", "kernels.trilinear", None),
    ("volseg.cli", "load_weights", "network.load_weights", _on_load_weights),
    ("volseg.cli", "sliding_window_predict", "inference.window", _on_window),
    ("volseg.cli", "forward", "network.forward", _on_forward),
    ("volseg.cli", "ensemble_predict", "inference.ensemble", None),
    ("volseg.cli", "argmax_labels", "inference.argmax", None),
    ("volseg.cli", "evaluate_set", "metrics.evaluate_set", None),
    ("volseg.inference", "normalize_patchwise", "sampling.normalize", _on_normalize),
    ("volseg.network", "conv3d", "network.conv3d", _on_conv),
    ("volseg.network", "conv3d_core", "kernels.conv3d", None),
    ("volseg.network", "instance_norm", "network.instance_norm", None),
    ("volseg.network", "max_pool_2x", "network.pool_upsample", None),
    ("volseg.network", "nearest_upsample_2x", "network.pool_upsample", None),
    ("volseg.network", "relu", "network.relu_softmax", None),
    ("volseg.network", "softmax_channels", "network.relu_softmax", None),
    ("volseg.sampling", "sample_patch_position", "sampling.position_extract", None),
    ("volseg.sampling", "extract_patch", "sampling.position_extract", None),
    ("volseg.sampling", "normalize_patchwise", "sampling.normalize", _on_normalize),
    ("volseg.augmentation", "apply_augmentations", "augmentation.apply", _on_augment),
    ("volseg.metrics", "dice_loss", "metrics.loss_grad", None),
    ("volseg.metrics", "dice_loss_grad", "metrics.loss_grad", None),
]

# name -> (unit, how it is reduced, span names or counter it reads).
# "incl" sums span durations, "self" sums durations minus child spans,
# "count" sums a counter; each is divided by the traced operations.
LAYER_METRICS = {
    "cli.infer_self_s": ("s", "self", ["cli.infer"]),
    "cli.evaluate_self_s": ("s", "self", ["cli.evaluate"]),
    "nifti.read_s": ("s", "incl", ["nifti.read"]),
    "nifti.read_mb": ("MB", "count", ["nifti.read"]),
    "nifti.write_s": ("s", "incl", ["nifti.write"]),
    "nifti.write_mb": ("MB", "count", ["nifti.write"]),
    "volume.resample_linear_s": ("s", "incl", ["volume.resample_linear"]),
    "volume.resample_out_mvox": ("Mvox", "count", ["volume.resample_linear"]),
    "volume.restore_s": ("s", "incl", ["volume.restore"]),
    "kernels.trilinear_s": ("s", "incl", ["kernels.trilinear"]),
    "network.load_weights_s": ("s", "incl", ["network.load_weights"]),
    "network.weights_mb": ("MB", "count", ["network.load_weights"]),
    "network.forward_s": ("s", "incl", ["network.forward"]),
    "network.forward_calls": ("count", "count", ["network.forward"]),
    "network.conv3d_s": ("s", "incl", ["network.conv3d"]),
    "kernels.conv3d_s": ("s", "incl", ["kernels.conv3d"]),
    "network.conv_gflop": ("GFLOP", "count", ["network.conv3d"]),
    "network.conv_gflop_per_s": ("GFLOP/s", "rate", ["network.conv3d"]),
    "network.instance_norm_s": ("s", "incl", ["network.instance_norm"]),
    "network.pool_upsample_s": ("s", "incl", ["network.pool_upsample"]),
    "network.relu_softmax_s": ("s", "incl", ["network.relu_softmax"]),
    "sampling.normalize_s": ("s", "incl", ["sampling.normalize"]),
    "sampling.normalize_calls": ("count", "count", ["sampling.normalize"]),
    "sampling.position_extract_s": ("s", "incl", ["sampling.position_extract"]),
    "inference.window_self_s": ("s", "self", ["inference.window"]),
    "inference.tiles": ("count", "count", ["inference.window", "network.forward"]),
    "inference.evals_per_voxel": ("ratio", "ratio", ["inference.window", "network.forward"]),
    "inference.argmax_s": ("s", "incl", ["inference.argmax"]),
    "inference.ensemble_s": ("s", "incl", ["inference.ensemble"]),
    "inference.prob_mb": ("MB", "count", ["inference.window"]),
    "augmentation.apply_s": ("s", "incl", ["augmentation.apply"]),
    "augmentation.transforms_applied": ("count", "count", ["augmentation.apply"]),
    "metrics.loss_grad_s": ("s", "incl", ["metrics.loss_grad"]),
    "metrics.evaluate_set_s": ("s", "incl", ["metrics.evaluate_set"]),
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, root index]
        self.counters = defaultdict(float)  # (root name, counter) -> total
        self._stack = []
        self._installed = []
        self.wrapped = set()  # span names with at least one installed target
        self.hook_errors = set()

    def add(self, span, counter, value):
        self.counters[(self.spans[span[4]][0], counter)] += value

    def _open(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), 0.0, parent, self._stack[0] if self._stack else index]
        self.spans.append(span)
        self._stack.append(index)
        return span

    def _close(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, name):
        """Span of one benchmark operation; the layer spans inside it hang off it."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, fn, name, hook):
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if hook is not None:
                try:
                    hook(self, span, args, kwargs, result)
                except Exception as exc:  # a changed signature loses a counter, not the run
                    self.hook_errors.add(f"{name}: {type(exc).__name__}: {exc}")
            return result
        return wrapper

    def install(self):
        for module_name, attr, name, hook in TARGETS:
            module = sys.modules.get(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            setattr(module, attr, self._wrap(fn, name, hook))
            self._installed.append((module, attr, fn))
            self.wrapped.add(name)

    def uninstall(self):
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    def layer_metrics(self):
        """name -> {"value", "unit"} per traced operation, or value None when absent.

        Each value is the layer's total over the traced operations of the
        kind its spans fall under (one case, one patch, one evaluation),
        divided by how many of those operations ran.
        """
        roots = defaultdict(int)
        incl = defaultdict(float)
        child = defaultdict(float)
        for name, start, end, parent, root in self.spans:
            root_name = self.spans[root][0]
            if parent < 0:
                roots[name] += 1
                continue
            incl[(root_name, name)] += end - start
            child[(root_name, self.spans[parent][0])] += end - start
        per_op = {}

        def total(table, key):
            return sum(table.get((r, key), 0.0) / n for r, n in roots.items())

        for metric, (unit, how, sources) in LAYER_METRICS.items():
            if not self.wrapped.issuperset(sources):
                per_op[metric] = {"value": None, "unit": unit}
                continue
            name = sources[0]
            if how == "incl":
                value = total(incl, name)
            elif how == "self":
                value = total(incl, name) - total(child, name)
            elif how == "count":
                value = total(self.counters, metric)
            elif how == "rate":
                seconds = total(incl, name)
                value = total(self.counters, "network.conv_gflop") / seconds if seconds else 0.0
            else:  # ratio of network-evaluated voxels to working-grid voxels
                volume = total(self.counters, "window.volume_voxels")
                value = total(self.counters, "window.evaluated_voxels") / volume if volume else 0.0
            per_op[metric] = {"value": value, "unit": unit}
        for (root_name, counter), value in sorted(self.counters.items()):
            if counter.startswith("network.conv3d."):
                per_op[counter] = {"value": value / roots[root_name], "unit": "s"}
        return per_op
