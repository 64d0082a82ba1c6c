"""The benchmark's workloads: inputs from a seed, the timed operations, the gates.

infer-net   One `cmd_infer` case where the network does the work: the
            default 14,034,403-parameter U-Net, one fold, a 20^3 scan at
            1x1x4 mm (a 40^3 working grid) and 8 overlapping 32^3 tiles at
            the paper's stride of patch/4.
infer-scan  One `cmd_infer` case where the pipeline around the network does
            the work: a 128x128x32 scan (256x256x64 working grid, 4.2M
            voxels), the smallest legal U-Net (width 1, 2 stages, pointwise
            kernels) and two folds, tiles that cover each voxel once.
            Resampling, blending, the fold ensemble, argmax and gzip NIfTI
            IO all show, and a 3x3x3 conv change must leave it unchanged.
train-eval  The training patch path with no network (sample, extract,
            augment at p = 0.25 with all six transforms, normalize with two
            exempt prior-mask channels, Dice loss and gradient), then
            `cmd_evaluate` over 20 truth/prediction mask pairs.

Every operation's output is checked: infer labels against the frozen
reference pipeline in ``reference.py`` and byte-for-byte across repeats;
loss, gradient and aggregated Dice against reference values.
"""

import contextlib
import csv
import hashlib
import io
import os
import shutil
import time

import numpy as np

import reference
import synth

WORKING_SPACING = (0.5, 0.5, 2.0)
SCAN_SPACING = (1.0, 1.0, 4.0)
GAUSSIAN_EDGE = 0.1
DEFAULT_NET = dict(in_channels=1, num_classes=3, base_width=32, num_stages=6,
                   kernel_plan=(3, 3, 3, 3, 1, 1), convs_per_stage=2)
SMALLEST_NET = dict(DEFAULT_NET, base_width=1, num_stages=2, kernel_plan=(1, 1))

# Label agreement gate. A float32 conv flips about 0.006% of labels (random
# weights), so up to 0.01% of voxels may differ from the reference; small
# outputs, where 0.01% is less than one voxel, may differ in 2 voxels.
MAX_LABEL_MISMATCH = 1e-4
MIN_LABEL_SLACK = 2
LOSS_ATOL = 1e-9          # dice_loss vs reference
GRAD_RTOL = 1e-9          # max |grad - ref| relative to max |ref|
AGG_DICE_ATOL = 1e-6      # CSV values carry 6 decimals
NORM_ATOL = 1e-3          # z-scored channels: |mean| and |std - 1|

PARAMS = {
    "infer-net": dict(net=DEFAULT_NET, folds=1, scan=(20, 20, 20), patch=(32, 32, 32), stride=(8, 8, 8)),
    "infer-scan": dict(net=SMALLEST_NET, folds=2, scan=(128, 128, 32), patch=(128, 128, 64),
                       stride=(128, 128, 64)),
    "train-eval": dict(volume=(192, 192, 48), patch=(128, 128, 32), eval_cases=20, eval_dims=(192, 192, 48)),
}
SMOKE_PARAMS = {
    "infer-net": dict(net=dict(DEFAULT_NET, base_width=2, num_stages=3, kernel_plan=(3, 3, 1)), folds=1,
                      scan=(6, 6, 6), patch=(8, 8, 8), stride=(4, 4, 4)),
    "infer-scan": dict(net=SMALLEST_NET, folds=2, scan=(16, 16, 4), patch=(16, 16, 8), stride=(16, 16, 8)),
    "train-eval": dict(volume=(24, 24, 12), patch=(16, 16, 8), eval_cases=3, eval_dims=(16, 16, 8)),
}


def _csv(values):
    return ",".join(str(v) for v in values)


def _quiet(fn, *args, **kwargs):
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args, **kwargs)


class Workload:
    """Inputs in ``workdir`` plus the timed operations and their gates.

    ``ops`` lists (name, share of the run's seconds, callable); each call
    returns the seconds the program spent and records what the gates need.
    ``main_op`` is the operation behind ``op_s``.
    """

    def __init__(self, name, params, seed, workdir):
        self.name = name
        self.params = params
        self.seed = seed
        self.workdir = workdir
        self.raised = 0     # operations that raised instead of returning
        self.failed = {}    # operation name -> operations that raised or failed a gate
        self.failures = []  # first lines explaining them
        self.checks = []    # (ok, description)

    def path(self, *parts):
        return os.path.join(self.workdir, *parts)

    def write_config(self, lines):
        path = self.path("run.cfg")
        with open(path, "w") as f:
            f.write("\n".join(lines) + "\n")
        return path

    def fail(self, op, count, message):
        self.failed[op] = self.failed.get(op, 0) + count
        if len(self.failures) < 5:
            self.failures.append(f"{op}: {message}")


class InferWorkload(Workload):
    main_op = "case"

    def prepare(self, cli):
        p = self.params
        rng = np.random.default_rng([self.seed, 1])
        lesions = synth.random_lesions(rng, 2, 1) + synth.random_lesions(rng, 1, 2)
        self.scan = synth.smooth_scan(rng, p["scan"], lesions)
        self.scan_path = self.path("scan.nii.gz")
        synth.write_nifti(self.scan_path, self.scan, SCAN_SPACING)
        self.fold_keys = [(self.seed, fold) for fold in range(p["folds"])]
        self.weights = [self.path(f"fold{fold}.vskw") for fold in range(p["folds"])]
        for path, key in zip(self.weights, self.fold_keys):
            synth.write_weights(path, p["net"], key)
        net = p["net"]
        self.config = self.write_config([
            "task = task1",
            f"volume.working_spacing = {_csv(WORKING_SPACING)}",
            f"network.base_width = {net['base_width']}",
            f"network.num_stages = {net['num_stages']}",
            f"network.kernel_plan = {_csv(net['kernel_plan'])}",
            f"network.convs_per_stage = {net['convs_per_stage']}",
            f"inference.patch_size = {_csv(p['patch'])}",
            f"inference.stride = {_csv(p['stride'])}",
            "inference.weighting = gaussian",
            f"inference.gaussian_edge_value = {GAUSSIAN_EDGE}",
            f"weights = {_csv(self.weights)}",
        ])
        self.setup_spec = dict(config=self.config, volumes=[], masks=[])
        self.cli = cli
        self.cfg = cli.build_run_config(self.config)
        self.output = self.path("out.nii.gz")
        self.first_output = self.path("first_out.nii.gz")
        self.digests = []
        self.ops = [("case", 1.0, self.case)]

    def case(self):
        start = time.perf_counter()
        _quiet(self.cli.cmd_infer, self.cfg, [self.scan_path], self.output)
        seconds = time.perf_counter() - start
        with open(self.output, "rb") as f:
            self.digests.append(hashlib.sha256(f.read()).hexdigest())
        if len(self.digests) == 1:
            shutil.copyfile(self.output, self.first_output)
        return seconds

    def check(self):
        if not self.digests:
            return
        p = self.params
        ref = reference.infer_labels(self.scan, SCAN_SPACING, WORKING_SPACING, p["net"], self.fold_keys,
                                     p["patch"], p["stride"], GAUSSIAN_EDGE)
        try:
            labels, spacing = synth.read_nifti(self.first_output)
        except (ValueError, OSError) as exc:
            ok, detail = False, f"output unreadable: {exc}"
        else:
            ok, detail = self._agreement(labels, spacing, ref)
        self.checks.append((ok, detail))
        repeats_ok = sum(d == self.digests[0] for d in self.digests)
        self.checks.append((repeats_ok == len(self.digests),
                            f"{repeats_ok} of {len(self.digests)} outputs byte-identical to the first"))
        failed = len(self.digests) if not ok else len(self.digests) - repeats_ok
        if failed:
            self.fail("case", failed, detail if not ok else "output differs from the first case's")

    @staticmethod
    def _agreement(labels, spacing, ref):
        if labels.shape != ref.shape or not np.allclose(spacing, SCAN_SPACING):
            return False, f"output grid {labels.shape} at {spacing}, expected {ref.shape} at {SCAN_SPACING}"
        mismatch = int((labels != ref).sum())
        limit = max(int(MAX_LABEL_MISMATCH * ref.size), MIN_LABEL_SLACK)
        detail = f"{mismatch} of {ref.size} voxels differ from the reference labels (limit {limit})"
        return mismatch <= limit, detail


class TrainEvalWorkload(Workload):
    main_op = "patch"

    def prepare(self, cli):
        from volseg import augmentation, metrics, sampling  # looked up per call, so tracing sees them
        from volseg.sampling import PatchSpec
        from volseg.volume import LabelMask, Volume3D

        p = self.params
        rng = np.random.default_rng([self.seed, 2])
        dims = p["volume"]
        lesions = synth.random_lesions(rng, 2, 1) + synth.random_lesions(rng, 2, 2)
        truth = synth.render_labels(dims, lesions)
        channels = [synth.smooth_scan(rng, dims, lesions),
                    synth.smooth_scan(rng, dims, lesions, lesion_gain=150.0)]
        for label in (1, 2):  # prior masks: the lesions of one class, enlarged
            grown = [(1, c, tuple(1.5 * r for r in radii)) for lab, c, radii in lesions if lab == label]
            channels.append(synth.render_labels(dims, grown))
        paths = [self.path(f"train_ch{i}.nii.gz") for i in range(4)]
        for path, data in zip(paths, channels):
            synth.write_nifti(path, data, WORKING_SPACING)
        truth_path = self.path("train_truth.nii.gz")
        synth.write_nifti(truth_path, truth, WORKING_SPACING)

        self.config = self.write_config([
            "task = task2",
            "augmentation.p_start = 0.05",
            "augmentation.p_end = 0.25",
            "augmentation.total_iters = 100000",
            "augmentation.step = 1000",
            "augmentation.transforms = mirror,rotate,contrast,bias_field,noise,motion",
        ])
        self.setup_spec = dict(config=self.config, volumes=paths, masks=[truth_path])
        self.cfg = cli.build_run_config(self.config)
        self.exempt = self.cfg.window.exempt_channels
        self.volume = Volume3D(np.stack([c.astype(np.float32) for c in channels]), WORKING_SPACING)
        self.mask = LabelMask(truth, WORKING_SPACING)
        self.spec = PatchSpec(size=p["patch"])
        self.rng = np.random.default_rng([self.seed, 3])
        self.sampling, self.augmentation, self.metrics = sampling, augmentation, metrics

        truths, preds = [], []
        os.makedirs(self.path("truth"))
        os.makedirs(self.path("pred"))
        for case in range(p["eval_cases"]):
            found = synth.random_lesions(rng, 1 + case % 2, 1) + synth.random_lesions(rng, case % 3, 2)
            predicted = [(lab, tuple(np.add(c, rng.normal(0.0, 0.02, 3))),
                          tuple(np.multiply(r, rng.uniform(0.8, 1.2, 3))))
                         for lab, c, r in found if rng.random() > 0.15]
            if rng.random() < 0.2:
                predicted += synth.random_lesions(rng, 1, 1 + case % 2)
            truths.append(synth.render_labels(p["eval_dims"], found))
            preds.append(synth.render_labels(p["eval_dims"], predicted))
            synth.write_nifti(self.path("truth", f"case{case:03d}.nii.gz"), truths[-1], WORKING_SPACING)
            synth.write_nifti(self.path("pred", f"case{case:03d}.nii.gz"), preds[-1], WORKING_SPACING)
        self.ref_dice = reference.aggregated_dice(truths, preds)
        self.cli = cli
        self.csv_path = self.path("eval.csv")
        self.csv_digests = []
        self.ops = [("patch", 0.75, self.patch), ("eval", 0.25, self.evaluate)]

    def patch(self):
        sampling, augmentation, metrics = self.sampling, self.augmentation, self.metrics
        policy = self.cfg.policy
        start = time.perf_counter()
        offset, provenance = sampling.sample_patch_position(self.mask, self.spec, self.rng)
        sample = sampling.extract_patch(self.volume, self.mask, offset, self.spec, provenance)
        log = []
        aug = augmentation.apply_augmentations(sample, self.cfg.params, policy, policy.total_iters, self.rng,
                                               exempt_channels=self.exempt, log=log)
        data = sampling.normalize_patchwise(aug.data, exempt_channels=self.exempt)
        seconds = time.perf_counter() - start
        truth, prob = _one_hot(aug.mask_patch)[None], _stand_in_probs(data)[None]
        start = time.perf_counter()
        loss = metrics.dice_loss(truth, prob)
        grad = metrics.dice_loss_grad(truth, prob)
        seconds += time.perf_counter() - start
        self._check_patch(data, aug.mask_patch, truth, prob, loss, grad)
        return seconds

    def _check_patch(self, data, labels, truth, prob, loss, grad):
        problems = []
        for c in range(data.shape[0]):
            channel = data[c].astype(np.float64)
            mean, std = channel.mean(), channel.std()
            if c in self.exempt:
                if not np.isin(channel, (0.0, 1.0)).all():
                    problems.append(f"exempt channel {c} is not binary")
            elif std > 0 and (abs(mean) > NORM_ATOL or abs(std - 1.0) > NORM_ATOL):
                problems.append(f"channel {c} not z-scored (mean {mean:.2e}, std {std:.4f})")
        if labels.max() > 2:
            problems.append("patch labels outside {0, 1, 2}")
        ref_loss, ref_grad = reference.dice_loss_and_grad(truth, prob)
        if abs(loss - ref_loss) > LOSS_ATOL:
            problems.append(f"dice_loss {loss!r} != reference {ref_loss!r}")
        grad_limit = GRAD_RTOL * np.abs(ref_grad).max()
        if np.shape(grad) != ref_grad.shape or np.abs(grad - ref_grad).max() > grad_limit:
            problems.append("dice_loss_grad differs from the reference")
        if problems:
            self.fail("patch", 1, "; ".join(problems))

    def evaluate(self):
        start = time.perf_counter()
        _quiet(self.cli.cmd_evaluate, self.path("truth"), self.path("pred"), self.csv_path, out=io.StringIO())
        seconds = time.perf_counter() - start
        with open(self.csv_path, "rb") as f:
            raw = f.read()
        self.csv_digests.append(hashlib.sha256(raw).hexdigest())
        rows = {row[0]: row for row in csv.reader(io.StringIO(raw.decode()))}
        got = {1: float(rows["AGG_GTVp"][2]), 2: float(rows["AGG_GTVn"][2])}
        bad = [c for c in (1, 2) if abs(got[c] - self.ref_dice[c]) > AGG_DICE_ATOL]
        if bad or self.csv_digests[-1] != self.csv_digests[0]:
            self.fail("eval", 1, f"aggregated Dice {got} vs reference {self.ref_dice}, identical to "
                                 f"the first report: {self.csv_digests[-1] == self.csv_digests[0]}")
        return seconds

    def check(self):
        patches, evals = self.failed.get("patch", 0), self.failed.get("eval", 0)
        self.checks.append((patches == 0,
                            f"{patches} patches failed the loss, gradient or normalization gates"))
        self.checks.append((evals == 0, f"{evals} evaluations differed from the reference aggregated Dice "
                                        "or from the first report"))


def _one_hot(labels):
    return np.stack([labels == c for c in range(3)]).astype(np.float32)


def _stand_in_probs(data):
    """Class probabilities standing in for a network: a softmax of image features."""
    logits = np.stack([-data[0], data[0] + 2.0 * data[2], data[1] + 2.0 * data[3]])
    e = np.exp(logits - logits.max(axis=0, keepdims=True))
    return (e / e.sum(axis=0, keepdims=True)).astype(np.float32)


def make(name, seed, workdir, smoke):
    params = (SMOKE_PARAMS if smoke else PARAMS)[name]
    cls = TrainEvalWorkload if name == "train-eval" else InferWorkload
    return cls(name, params, seed, workdir)


NAMES = tuple(PARAMS)
