"""Command-line surface: net-info, infer, evaluate, folds, augment-preview.

Configuration comes from an optional flat key-value file (one dotted key
per line, ``inference.stride = 80,80,16``) plus command-line overrides.
Exit codes: 0 success, 1 usage error, 2 data/processing error.
"""

import argparse
import csv
import math
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .augmentation import AugmentationPolicy, TransformParams, apply_augmentations, scheduled_probability
from .inference import SlidingWindowConfig, argmax_labels, ensemble_predict, sliding_window_predict
from .metrics import CLASS_NAMES, evaluate_set
from .network import NetworkConfig, forward, layer_plan, load_weights
from .nifti import atomic_write_nifti, read_nifti, write_nifti
from .sampling import PatchSample
from .volume import LabelMask, Volume3D, resample_linear, resample_nearest, restore_resolution

N_FOLDS = 5
TASK2_EXEMPT_CHANNELS = frozenset((2, 3))


class PipelineError(Exception):
    """Raised with a stage-named message; exits with code 2."""


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in str(text).split(","))


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in str(text).split(","))


@dataclass
class RunConfig:
    task: str = "task1"
    seed: int = 0
    working_spacing: tuple[float, float, float] = (0.5, 0.5, 2.0)
    weights: list[str] = field(default_factory=list)
    network: NetworkConfig = None
    window: SlidingWindowConfig = None
    policy: AugmentationPolicy = None
    params: TransformParams = None

    def __post_init__(self):
        if self.task not in ("task1", "task2"):
            raise ValueError(f"task must be task1 or task2, got {self.task!r}")
        in_channels = 4 if self.task == "task2" else 1
        if self.network is None:
            self.network = NetworkConfig(in_channels=in_channels)
        elif self.network.in_channels != in_channels:
            self.network = replace(self.network, in_channels=in_channels)
        exempt = TASK2_EXEMPT_CHANNELS if self.task == "task2" else frozenset()
        if self.window is None:
            self.window = SlidingWindowConfig(exempt_channels=exempt)
        else:
            self.window = replace(self.window, exempt_channels=exempt)
        if self.policy is None:
            self.policy = AugmentationPolicy()
        if self.params is None:
            self.params = TransformParams()


def load_config_file(path) -> dict[str, str]:
    entries = {}
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, value = line.split("=", 1)
            entries[key.strip()] = value.strip()
    return entries


_NETWORK_KEYS = {
    "network.base_width": ("base_width", int),
    "network.num_stages": ("num_stages", int),
    "network.kernel_plan": ("kernel_plan", _ints),
    "network.convs_per_stage": ("convs_per_stage", int),
}
_WINDOW_KEYS = {
    "inference.patch_size": ("patch_size", _ints),
    "inference.stride": ("stride", _ints),
    "inference.weighting": ("weighting", str),
    "inference.gaussian_edge_value": ("gaussian_edge_value", float),
}
_POLICY_KEYS = {
    "augmentation.p_start": ("p_start", float),
    "augmentation.p_end": ("p_end", float),
    "augmentation.total_iters": ("total_iters", int),
    "augmentation.step": ("step", int),
    "augmentation.constant_p": ("constant_p", float),
    "augmentation.transforms": ("transforms", lambda v: tuple(s.strip() for s in v.split(","))),
}
_PARAMS_KEYS = {
    "augmentation.mirror_axes": ("mirror_axes", _ints),
    "augmentation.max_rotation_deg": ("max_rotation_deg", float),
    "augmentation.contrast_range": ("contrast_range", _floats),
    "augmentation.bias_order": ("bias_order", int),
    "augmentation.bias_amplitude": ("bias_amplitude", _floats),
    "augmentation.noise_sigma": ("noise_sigma", _floats),
    "augmentation.motion_shift": ("motion_shift", _ints),
    "augmentation.motion_weight": ("motion_weight", _floats),
}


def _fill(cls, entries: dict[str, str], key_table: dict):
    kwargs = {}
    for key, (attr, conv) in key_table.items():
        if key in entries:
            kwargs[attr] = conv(entries.pop(key))
    return cls(**kwargs) if kwargs else None


def build_run_config(config_path=None, **overrides) -> RunConfig:
    """Assemble a RunConfig from a config file plus CLI overrides."""
    entries = load_config_file(config_path) if config_path else {}

    # command-line values win over file values, which win over defaults
    file_task = entries.pop("task", None)
    task = overrides.pop("task", None) or file_task or "task1"
    file_seed = entries.pop("seed", None)
    seed = overrides.pop("seed", None)
    if seed is None:
        seed = int(file_seed) if file_seed is not None else 0
    spacing = entries.pop("volume.working_spacing", None)
    spacing = _floats(spacing) if spacing else (0.5, 0.5, 2.0)
    file_weights = entries.pop("weights", None)
    weights = list(overrides.pop("weights", None) or [])
    if not weights and file_weights:
        weights = [w.strip() for w in file_weights.split(",") if w.strip()]

    network = _fill(NetworkConfig, entries, _NETWORK_KEYS)
    window = _fill(SlidingWindowConfig, entries, _WINDOW_KEYS)
    policy = _fill(AugmentationPolicy, entries, _POLICY_KEYS)
    params = _fill(TransformParams, entries, _PARAMS_KEYS)

    if entries:
        raise ValueError(f"unknown config keys: {sorted(entries)}")

    cfg = RunConfig(task=task, seed=int(seed), working_spacing=spacing,
                    weights=weights, network=network, window=window,
                    policy=policy, params=params)
    for key, value in overrides.items():
        if value is None:
            continue
        if key == "weighting":
            cfg.window = replace(cfg.window, weighting=value)
        elif key == "constant_p":
            cfg.policy = replace(cfg.policy, constant_p=value)
        elif key == "kernel_plan":
            cfg.network = replace(cfg.network, kernel_plan=_ints(value))
        elif key == "base_width":
            cfg.network = replace(cfg.network, base_width=int(value))
        else:
            raise ValueError(f"unknown override {key!r}")
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


def _load_channels(cfg: RunConfig, input_paths):
    """Read and resample the per-channel inputs; returns (stacked, reference)."""
    expected = 4 if cfg.task == "task2" else 1
    if len(input_paths) != expected:
        raise ValueError(f"{cfg.task} takes {expected} input path(s), got {len(input_paths)}")
    reference = None
    channels = []
    for idx, path in enumerate(input_paths):
        if idx in cfg.window.exempt_channels:
            mask = read_nifti(path, as_mask=True)
            resampled = resample_nearest(mask, cfg.working_spacing)
            channels.append(resampled.labels.astype(np.float32))
        else:
            vol = read_nifti(path)
            if vol.channels != 1:
                raise ValueError(f"{path}: expected a single-channel scan, got {vol.channels} channels")
            finite = np.count_nonzero(np.isfinite(vol.data))
            if finite != vol.data.size:
                raise ValueError(f"{path}: {vol.data.size - finite} non-finite (NaN or Inf) voxels")
            if reference is None:
                reference = vol
            resampled = resample_linear(vol, cfg.working_spacing)
            channels.append(resampled.data[0])
    dims = {c.shape for c in channels}
    if len(dims) > 1:
        raise ValueError(f"inputs resample to differing grids {sorted(dims)}; register them first")
    stacked = Volume3D(np.stack(channels), cfg.working_spacing)
    return stacked, reference


def cmd_infer(cfg: RunConfig, input_paths, output_path) -> int:
    if not cfg.weights:
        raise ValueError("infer needs at least one --weights file")

    stage = "read-input"
    try:
        stacked, reference = _load_channels(cfg, input_paths)

        stage = "load-weights"
        models = [load_weights(path, cfg.network) for path in cfg.weights]

        stage = "predict"

        def predictor(patch):
            return ensemble_predict([forward(model, patch) for model in models])

        probs = sliding_window_predict(stacked, predictor, cfg.window)

        stage = "extract-labels"
        labels = argmax_labels(probs)

        stage = "restore-resolution"
        labels = restore_resolution(labels, reference)

        stage = "write-output"
        atomic_write_nifti(labels, output_path)
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError(f"{stage}: {exc}") from exc
    print(f"wrote {output_path}")
    return 0


def _fmt(value) -> str:
    return "" if value is None or (isinstance(value, float) and math.isnan(value)) else f"{value:.6f}"


def cmd_evaluate(truth_dir, pred_dir, csv_path=None, out=None) -> int:
    out = out or sys.stdout

    def nifti_files(d):
        return {f: os.path.join(d, f) for f in sorted(os.listdir(d))
                if f.endswith(".nii") or f.endswith(".nii.gz")}

    truth_files = nifti_files(truth_dir)
    pred_files = nifti_files(pred_dir)
    common = sorted(set(truth_files) & set(pred_files))
    for name in sorted(set(truth_files) ^ set(pred_files)):
        side = "prediction" if name in truth_files else "ground truth"
        print(f"warning: {name} has no matching {side} file, skipped", file=sys.stderr)
    if not common:
        raise PipelineError("evaluate: no matching truth/prediction file pairs")

    truths, preds, ids = [], [], []
    for name in common:
        truths.append(read_nifti(truth_files[name], as_mask=True))
        preds.append(read_nifti(pred_files[name], as_mask=True))
        if truths[-1].dims != preds[-1].dims:
            raise PipelineError(f"evaluate: {name}: dims differ {truths[-1].dims} vs {preds[-1].dims}")
        ids.append(name.split(".nii")[0])

    result = evaluate_set(truths, preds, ids=ids)

    gtvp, gtvn = result.per_class_agg[1], result.per_class_agg[2]
    print(f"{'':12}{'GTVp':>8}{'GTVn':>8}{'Average':>9}", file=out)
    print(f"{'DSC_agg':12}{gtvp:>8.4f}{gtvn:>8.4f}{result.mean_agg:>9.4f}", file=out)

    if csv_path:
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
    with open(ids_path) as f:
        ids = [line.strip() for line in f if line.strip()]
    if len(ids) != len(set(ids)):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise PipelineError(f"folds: duplicate patient ids {dupes}")
    if len(ids) < N_FOLDS:
        raise PipelineError(f"folds: need at least {N_FOLDS} patients, got {len(ids)}")
    order = np.random.default_rng(seed).permutation(len(ids))
    assignment = {ids[idx]: pos % N_FOLDS for pos, idx in enumerate(order)}
    with open(output_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["patient_id", "fold"])
        for pid in sorted(assignment):
            writer.writerow([pid, assignment[pid]])
    print(f"wrote {output_path}")
    return 0


def cmd_augment_preview(cfg: RunConfig, volume_path, mask_path, iteration, out_dir) -> int:
    stage = "read-input"
    try:
        vol = read_nifti(volume_path)
        mask = read_nifti(mask_path, as_mask=True)
        if vol.dims != mask.dims:
            raise ValueError(f"volume dims {vol.dims} != mask dims {mask.dims}")

        stage = "augment"
        patch = PatchSample((0, 0, 0), vol.data.copy(), mask.labels.copy(), "random")
        rng = np.random.default_rng(cfg.seed)
        log_entries = []
        result = apply_augmentations(patch, cfg.params, cfg.policy, iteration, rng,
                                     exempt_channels=cfg.window.exempt_channels, log=log_entries)
        p = scheduled_probability(iteration, cfg.policy)

        stage = "write-output"
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
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError(f"{stage}: {exc}") from exc
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
    p.add_argument("--kernel-plan", help="comma-separated per-stage kernel sizes")
    p.add_argument("--base-width", type=int)

    p = sub.add_parser("infer", help="segment a scan with one or more weight files")
    _add_config_args(p)
    p.add_argument("--weights", action="append", default=None, help="weight file (repeatable)")
    p.add_argument("--weighting", choices=["equal", "gaussian"])
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
    p.add_argument("--total", type=int, help="override augmentation.total_iters")
    p.add_argument("--constant-p", type=float, dest="constant_p")
    p.add_argument("--out-dir", required=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "net-info":
            cfg = build_run_config(args.config, task=args.task, seed=args.seed,
                                   kernel_plan=args.kernel_plan, base_width=args.base_width)
            return cmd_net_info(cfg)
        if args.command == "infer":
            cfg = build_run_config(args.config, task=args.task, seed=args.seed,
                                   weights=args.weights, weighting=args.weighting)
            return cmd_infer(cfg, args.inputs, args.output)
        if args.command == "evaluate":
            return cmd_evaluate(args.truth_dir, args.pred_dir, args.csv)
        if args.command == "folds":
            return cmd_folds(args.ids_file, args.seed, args.output)
        if args.command == "augment-preview":
            cfg = build_run_config(args.config, task=args.task, seed=args.seed,
                                   constant_p=args.constant_p)
            if args.total is not None:
                cfg.policy = replace(cfg.policy, total_iters=args.total)
            return cmd_augment_preview(cfg, args.volume, args.mask, args.iteration, args.out_dir)
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
