"""Volumetric segmentation toolkit.

Library pieces: volume containers and resampling (:mod:`volseg.volume`,
:mod:`volseg.nifti`), the 3D U-Net (:mod:`volseg.network`), patch sampling
and normalization (:mod:`volseg.sampling`), scheduled augmentation
(:mod:`volseg.augmentation`), the Dice metric family (:mod:`volseg.metrics`),
and sliding-window inference (:mod:`volseg.inference`). The ``volseg``
command (:mod:`volseg.cli`) wires them together.
"""

from .augmentation import (
    AugmentationPolicy,
    TransformParams,
    apply_augmentations,
    cosine_lr,
    scheduled_probability,
)
from .inference import (
    SlidingWindowConfig,
    WeightKernel,
    argmax_labels,
    ensemble_predict,
    equal_weight_kernel,
    gaussian_weight_kernel,
    sliding_window_predict,
    tile_offsets,
)
from .metrics import (
    EvaluationRecord,
    EvaluationResult,
    dice_loss,
    dice_loss_grad,
    dsc,
    dsc_agg,
    evaluate_set,
    precision,
    recall,
)
from .network import (
    Model,
    NetworkConfig,
    build_unet,
    count_parameters,
    forward,
    layer_plan,
    load_weights,
    save_weights,
)
from .nifti import read_nifti, write_nifti
from .sampling import (
    PatchSample,
    PatchSpec,
    extract_patch,
    normalize_imagewise,
    normalize_patchwise,
    sample_patch_position,
)
from .volume import (
    LabelMask,
    Volume3D,
    resample_linear,
    resample_nearest,
    restore_resolution,
)

__version__ = "0.1.0"
