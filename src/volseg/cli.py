"""Command-line surface: net-info, infer, evaluate, folds, augment-preview.

Configuration comes from an optional flat key-value file (one dotted key
per line, ``inference.stride = 80,80,16``), then from flags: file values
are applied first, then flags, and an empty value means the key's default.
Each config flag's argparse dest is its dotted key in ``_KEYS``:
``--task`` task, ``--seed`` seed, ``--weights`` weights, ``--kernel-plan``
network.kernel_plan, ``--base-width`` network.base_width, ``--weighting``
inference.weighting, ``--constant-p`` augmentation.constant_p, ``--total``
augmentation.total_iters. The task sets what no key sets: task1 has 1
input channel; task2 has 4, of which channels 2 and 3 (the prior masks)
are exempt from normalization and intensity augmentation.
Exit codes: 0 success, 1 usage error, 2 data/processing error.
"""

import argparse
import csv
import math
import os
import re
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .augmentation import AugmentationPolicy, TransformParams, apply_augmentations, scheduled_probability
# ensemble_predict runs inside the window; it stays importable from here by name
from .inference import SlidingWindowConfig, argmax_labels, ensemble_predict, sliding_window_predict  # noqa: F401
from .metrics import CLASS_NAMES, evaluate_set
from .network import NetworkConfig, forward, layer_plan, load_weights
from .nifti import read_nifti, read_nifti_header, write_nifti
from .sampling import PatchSample
from .volume import (LabelMask, Volume3D, _check_spacing, _output_dims, resample_linear, resample_nearest,
                     restore_resolution, same_grid)

N_FOLDS = 5
TASK2_EXEMPT_CHANNELS = frozenset((2, 3))


class PipelineError(Exception):
    """Raised with a stage-named message; exits with code 2."""


@dataclass
class _Stage:
    """A command's running stage (or the flag it checks): an exception leaving
    the ``with`` block becomes a PipelineError named after the stage set last."""

    name: str

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        if isinstance(exc, Exception):
            raise PipelineError(f"{self.name}: {exc}") from exc


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in str(text).split(","))


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in str(text).split(","))


@dataclass(kw_only=True)
class RunConfig:
    task: str = "task1"
    seed: int = 0
    working_spacing: tuple[float, float, float] = (0.5, 0.5, 2.0)
    weights: list[str] = field(default_factory=list)
    network: NetworkConfig
    window: SlidingWindowConfig
    policy: AugmentationPolicy
    params: TransformParams


# a comment is a '#' that starts the line or follows whitespace, so a value
# may contain '#' (weights = /data/run#1/fold0.vskw)
_COMMENT = re.compile(r"(?:^|\s)#")


def load_config_file(path) -> dict[str, str]:
    entries = {}
    first_line = {}
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = _COMMENT.split(line, 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in first_line:
                raise ValueError(f"{path}:{lineno}: key {key!r} is already set on line {first_line[key]}")
            first_line[key] = lineno
            entries[key] = value
    return entries


def _task(text: str) -> str:
    if text not in ("task1", "task2"):
        raise ValueError(f"task must be task1 or task2, got {text!r}")
    return text


def _seed(value) -> int:
    seed = int(value)
    if seed < 0:
        raise ValueError(f"expected a non-negative integer, got {seed}")
    return seed


def _names(value) -> list[str]:
    # a comma-separated file value, or the list a repeated flag collects
    if isinstance(value, str):
        return [v.strip() for v in value.split(",") if v.strip()]
    return list(value)


# dotted key -> (section, field, parser); section None is RunConfig itself
_KEYS = {
    "task": (None, "task", _task),
    "seed": (None, "seed", _seed),
    "weights": (None, "weights", _names),
    "volume.working_spacing": (None, "working_spacing", lambda v: _check_spacing(_floats(v))),
    "network.base_width": ("network", "base_width", int),
    "network.num_stages": ("network", "num_stages", int),
    "network.kernel_plan": ("network", "kernel_plan", _ints),
    "network.convs_per_stage": ("network", "convs_per_stage", int),
    "inference.patch_size": ("window", "patch_size", _ints),
    "inference.stride": ("window", "stride", _ints),
    "inference.weighting": ("window", "weighting", str),
    "inference.gaussian_edge_value": ("window", "gaussian_edge_value", float),
    "augmentation.p_start": ("policy", "p_start", float),
    "augmentation.p_end": ("policy", "p_end", float),
    "augmentation.total_iters": ("policy", "total_iters", int),
    "augmentation.step": ("policy", "step", int),
    "augmentation.constant_p": ("policy", "constant_p", float),
    "augmentation.transforms": ("policy", "transforms", lambda v: tuple(s.strip() for s in v.split(","))),
    "augmentation.mirror_axes": ("params", "mirror_axes", _ints),
    "augmentation.max_rotation_deg": ("params", "max_rotation_deg", float),
    "augmentation.contrast_range": ("params", "contrast_range", _floats),
    "augmentation.bias_order": ("params", "bias_order", int),
    "augmentation.bias_amplitude": ("params", "bias_amplitude", _floats),
    "augmentation.noise_sigma": ("params", "noise_sigma", _floats),
    "augmentation.motion_shift": ("params", "motion_shift", _ints),
    "augmentation.motion_weight": ("params", "motion_weight", _floats),
}
_SECTIONS = {"network": NetworkConfig, "window": SlidingWindowConfig,
             "policy": AugmentationPolicy, "params": TransformParams}


def build_run_config(config_path=None, overrides=None) -> RunConfig:
    """Assemble a RunConfig from defaults, then file values, then ``overrides``.

    ``overrides`` maps dotted keys to flag values; a ``None`` value is unset.
    """
    entries = load_config_file(config_path) if config_path else {}
    entries.update((key, value) for key, value in (overrides or {}).items() if value is not None)
    unknown = set(entries) - set(_KEYS)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")

    kwargs = {section: {} for section in (None, *_SECTIONS)}
    for key, value in entries.items():
        if value == "":
            continue  # an empty value means the default
        section, name, parse = _KEYS[key]
        try:
            kwargs[section][name] = parse(value)
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from exc

    # the task sets the first conv's input channels and the mask channels
    # that normalization and augmentation leave alone
    task2 = kwargs[None].get("task") == "task2"
    kwargs["network"]["in_channels"] = 4 if task2 else 1
    kwargs["window"]["exempt_channels"] = TASK2_EXEMPT_CHANNELS if task2 else frozenset()
    sections = {}
    for section, cls in _SECTIONS.items():
        try:
            sections[section] = cls(**kwargs[section])
        except ValueError as exc:  # name each of the section's fields by its dotted key
            keys = {name: key for key, (owner, name, _) in _KEYS.items() if owner == section}
            raise ValueError(re.sub(r"\w+", lambda m: keys.get(m[0], m[0]), str(exc))) from exc
    cfg = RunConfig(**kwargs[None], **sections)
    # each tile passes num_stages - 1 poolings, so a bad patch fails here, not after every fold is loaded
    divisor = 2 ** (cfg.network.num_stages - 1)
    if any(p % divisor for p in cfg.window.patch_size):
        raise ValueError(f"inference.patch_size: {cfg.window.patch_size} must be divisible by {divisor} "
                         f"for {cfg.network.num_stages} network stages")
    return cfg


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _kernel_str(kernel) -> str:
    return "x".join(str(k) for k in kernel) if any(kernel) else "-"


def cmd_net_info(cfg: RunConfig, out=None) -> int:
    out = out or sys.stdout
    plan = layer_plan(cfg.network)
    print(f"{'layer':>5}  {'kind':<14}{'kernel':<8}{'cin':>6} -> {'cout':<6}{'params':>12}", file=out)
    for i, lay in enumerate(plan):
        print(f"{i:>5}  {lay.kind:<14}{_kernel_str(lay.kernel):<8}{lay.cin:>6} -> {lay.cout:<6}"
              f"{lay.param_count():>12,}", file=out)
    total = sum(lay.param_count() for lay in plan)
    all3 = replace(cfg.network, kernel_plan=(3,) * cfg.network.num_stages)
    total_all3 = sum(lay.param_count() for lay in layer_plan(all3))
    kernels = ",".join(str(k) for k in cfg.network.kernel_plan)
    print(f"first conv in-channels: {cfg.network.in_channels}", file=out)
    print(f"total parameters (kernel plan {kernels}): {total}", file=out)
    print(f"total parameters (all 3x3x3 kernels): {total_all3}", file=out)
    return 0


def _grid(dims, spacing) -> str:
    return f"{'x'.join(map(str, dims))} at {'x'.join(f'{s:g}' for s in spacing)} mm"


def _require_grid(path, grid, ref_path, ref_grid) -> None:
    """Refuse ``path`` unless its (dims, spacing) ``grid`` is ``ref_grid``, that of ``ref_path``
    (``volume.same_grid``)."""
    if not same_grid(grid, ref_grid):
        raise ValueError(f"{path} has grid {_grid(*grid)} but {ref_path} has "
                         f"{_grid(*ref_grid)}; register the inputs to one grid first")


def _load_channels(cfg: RunConfig, input_paths):
    """Read the per-channel inputs and resample each straight into its channel
    of one (C, X, Y, Z) float32 array; returns (stacked, (dims, spacing)),
    the first input's native grid, which ``infer`` restores its labels onto.

    Every header is read first, so an input off the first's grid (``volume.same_grid``)
    or with more than one channel is refused before any payload is read. The working dims are
    taken once, from that grid, and each input is resampled as if it had the first's
    spacing; each payload is checked against it again and freed once in its channel.
    """
    expected = cfg.network.in_channels
    if len(input_paths) != expected:
        raise ValueError(f"{cfg.task} takes {expected} input path(s), got {len(input_paths)}")
    headers = [read_nifti_header(path) for path in input_paths]
    grid = headers[0].grid
    for path, header in zip(input_paths, headers):
        _require_grid(path, header.grid, input_paths[0], grid)
        if header.channels != 1:
            raise ValueError(f"{path}: expected a single-channel input, got {header.channels} channels")
    stacked = np.empty((expected, *_output_dims(*grid, cfg.working_spacing)), np.float32)
    for idx, path in enumerate(input_paths):
        is_mask = idx in cfg.window.exempt_channels
        image = read_nifti(path, as_mask=is_mask)
        _require_grid(path, (image.dims, image.spacing), input_paths[0], grid)
        image.spacing = grid[1]
        if is_mask:
            stacked[idx] = resample_nearest(image, cfg.working_spacing).labels
        else:
            finite = np.count_nonzero(np.isfinite(image.data))
            if finite != image.data.size:
                raise ValueError(f"{path}: {image.data.size - finite} non-finite (NaN or Inf) voxels")
            resample_linear(image, cfg.working_spacing, out=stacked[idx:idx + 1])
        del image  # before the next read
    return Volume3D(stacked, cfg.working_spacing), grid


def cmd_infer(cfg: RunConfig, input_paths, output_path) -> int:
    if not cfg.weights:
        raise ValueError("infer needs at least one --weights file")

    with _Stage("read-input") as stage:
        stacked, grid = _load_channels(cfg, input_paths)

        stage.name = "load-weights"
        models = [load_weights(path, cfg.network) for path in cfg.weights]

        stage.name = "predict"
        # the window blends each member as it returns; ``forward`` is looked up per call
        members = [lambda patch, model=model: forward(model, patch) for model in models]
        probs = sliding_window_predict(stacked, members, cfg.window)
        del stacked

        stage.name = "extract-labels"
        labels = argmax_labels(probs)
        del probs  # a float32 view that holds the window's whole float64 numerator

        stage.name = "restore-resolution"
        labels = restore_resolution(labels, *grid)

        stage.name = "write-output"
        write_nifti(labels, output_path)
    print(f"wrote {output_path}")
    return 0


def _fmt(value) -> str:
    return "" if value is None or (isinstance(value, float) and math.isnan(value)) else f"{value:.6f}"


def cmd_evaluate(truth_dir, pred_dir, csv_path=None, out=None) -> int:
    out = out or sys.stdout

    def nifti_files(d):
        return {f: os.path.join(d, f) for f in sorted(os.listdir(d))
                if f.endswith(".nii") or f.endswith(".nii.gz")}

    with _Stage("read-input") as stage:
        truth_files = nifti_files(truth_dir)
        pred_files = nifti_files(pred_dir)
        common = sorted(set(truth_files) & set(pred_files))
        for name in sorted(set(truth_files) ^ set(pred_files)):
            side = "prediction" if name in truth_files else "ground truth"
            print(f"warning: {name} has no matching {side} file, skipped", file=sys.stderr)
        if not common:
            raise ValueError("no matching truth/prediction file pairs")

        pairs = [(truth_files[name], pred_files[name]) for name in common]
        for truth, pred in pairs:
            _require_grid(pred, read_nifti_header(pred).grid, truth, read_nifti_header(truth).grid)
        truths, preds = [], []
        for truth, pred in pairs:
            truths.append(read_nifti(truth, as_mask=True))
            preds.append(read_nifti(pred, as_mask=True))
            _require_grid(pred, (preds[-1].dims, preds[-1].spacing), truth, (truths[-1].dims, truths[-1].spacing))
        ids = [name.split(".nii")[0] for name in common]

        stage.name = "evaluate"
        result = evaluate_set(truths, preds, ids=ids)

        gtvp, gtvn = result.per_class_agg[1], result.per_class_agg[2]
        print(f"{'':12}{'GTVp':>8}{'GTVn':>8}{'Average':>9}", file=out)
        print(f"{'DSC_agg':12}{gtvp:>8.4f}{gtvn:>8.4f}{result.mean_agg:>9.4f}", file=out)

        if csv_path:
            stage.name = "write-output"
            with open(csv_path, "w", newline="") as f:
                writer = csv.writer(f)
                writer.writerow(["patient_id", "class", "dsc", "precision", "recall"])
                for rec in result.records:
                    writer.writerow([rec.patient_id, CLASS_NAMES[rec.class_id],
                                     _fmt(rec.dsc), _fmt(rec.precision), _fmt(rec.recall)])
                writer.writerow(["AGG_GTVp", "GTVp", _fmt(gtvp), "", ""])
                writer.writerow(["AGG_GTVn", "GTVn", _fmt(gtvn), "", ""])
                writer.writerow(["AGG_MEAN", "", _fmt(result.mean_agg), "", ""])
            print(f"wrote {csv_path}")
    return 0


def cmd_folds(ids_path, seed, output_path) -> int:
    with _Stage("--seed"):
        seed = _seed(seed)
    with _Stage("read-input") as stage:
        with open(ids_path) as f:
            ids = [line.strip() for line in f if line.strip()]
        if len(ids) != len(set(ids)):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ValueError(f"duplicate patient ids {dupes}")
        if len(ids) < N_FOLDS:
            raise ValueError(f"need at least {N_FOLDS} patients, got {len(ids)}")
        order = np.random.default_rng(seed).permutation(len(ids))
        assignment = {ids[idx]: pos % N_FOLDS for pos, idx in enumerate(order)}

        stage.name = "write-output"
        with open(output_path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["patient_id", "fold"])
            for pid in sorted(assignment):
                writer.writerow([pid, assignment[pid]])
    print(f"wrote {output_path}")
    return 0


def cmd_augment_preview(cfg: RunConfig, volume_path, mask_path, iteration, out_dir) -> int:
    with _Stage("--iter"):
        p = scheduled_probability(iteration, cfg.policy)
    with _Stage("read-input") as stage:
        _require_grid(mask_path, read_nifti_header(mask_path).grid, volume_path, read_nifti_header(volume_path).grid)
        vol = read_nifti(volume_path)
        mask = read_nifti(mask_path, as_mask=True)
        _require_grid(mask_path, (mask.dims, mask.spacing), volume_path, (vol.dims, vol.spacing))

        stage.name = "augment"
        patch = PatchSample((0, 0, 0), vol.data.copy(), mask.labels.copy(), "random")
        rng = np.random.default_rng(cfg.seed)
        log_entries = []
        result = apply_augmentations(patch, cfg.params, cfg.policy, iteration, rng,
                                     exempt_channels=cfg.window.exempt_channels, log=log_entries)

        stage.name = "write-output"
        os.makedirs(out_dir, exist_ok=True)
        write_nifti(Volume3D(result.data, vol.spacing), os.path.join(out_dir, "augmented_volume.nii.gz"))
        write_nifti(LabelMask(result.mask_patch, mask.spacing), os.path.join(out_dir, "augmented_mask.nii.gz"))
        log_path = os.path.join(out_dir, "augment_log.txt")
        with open(log_path, "w") as f:
            mode = "constant baseline" if cfg.policy.constant_p is not None else "scheduled"
            f.write(f"iteration={iteration} p={p:.4f} ({mode})\n")
            f.write(f"seed={cfg.seed}\n")
            if log_entries:
                for name, entry in log_entries:
                    args = " ".join(f"{k}={v}" for k, v in entry.items())
                    f.write(f"applied {name} {args}\n")
            else:
                f.write("applied none\n")
    print(f"wrote {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    # usage problems exit 1; data problems exit 2 (see main)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_config_args(p):
    p.add_argument("--config", help="flat key-value config file")
    p.add_argument("--task", choices=["task1", "task2"])
    p.add_argument("--seed", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="volseg", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("net-info", help="print layer shapes and parameter totals")
    _add_config_args(p)
    p.add_argument("--kernel-plan", dest="network.kernel_plan", help="comma-separated per-stage kernel sizes")
    p.add_argument("--base-width", dest="network.base_width", type=int)

    p = sub.add_parser("infer", help="segment a scan with one or more weight files")
    _add_config_args(p)
    p.add_argument("--weights", action="append", default=None, help="weight file (repeatable)")
    p.add_argument("--weighting", dest="inference.weighting", choices=["equal", "gaussian"])
    p.add_argument("--output", required=True)
    p.add_argument("inputs", nargs="+", help="input NIfTI path(s): 1 for task1, 4 for task2")

    p = sub.add_parser("evaluate", help="aggregated Dice report for a prediction directory")
    p.add_argument("truth_dir")
    p.add_argument("pred_dir")
    p.add_argument("--csv", help="write per-case and aggregate rows to this CSV")

    p = sub.add_parser("folds", help="assign patients to cross-validation folds")
    p.add_argument("ids_file", help="text file with one patient id per line")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)

    p = sub.add_parser("augment-preview", help="apply the augmentation pipeline once and log it")
    _add_config_args(p)
    p.add_argument("--volume", required=True)
    p.add_argument("--mask", required=True)
    p.add_argument("--iter", type=int, default=0, dest="iteration")
    p.add_argument("--total", dest="augmentation.total_iters", type=int)
    p.add_argument("--constant-p", dest="augmentation.constant_p", type=float)
    p.add_argument("--out-dir", required=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "evaluate":
            return cmd_evaluate(args.truth_dir, args.pred_dir, args.csv)
        if args.command == "folds":
            return cmd_folds(args.ids_file, args.seed, args.output)
        # every config-changing flag's dest is its dotted key
        cfg = build_run_config(args.config, {k: v for k, v in vars(args).items() if k in _KEYS})
        if args.command == "net-info":
            return cmd_net_info(cfg)
        if args.command == "infer":
            return cmd_infer(cfg, args.inputs, args.output)
        if args.command == "augment-preview":
            return cmd_augment_preview(cfg, args.volume, args.mask, args.iteration, args.out_dir)
    except (PipelineError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
