"""Vehicle re-identification with large-kernel and hybrid channel attention.

A framework-free implementation: a small numpy autograd engine, the LKA
and HCA attention blocks, the four-branch network with its losses and PK
sampling, and a complete mAP/CMC retrieval evaluation harness.
"""
from .attention import (
    HcaConfig,
    LkaConfig,
    count_params_flops,
    eca_kernel_size,
    hca_forward,
    lka_forward,
)
from .evaluation import (
    EvalReport,
    Manifest,
    Sample,
    average_precision,
    cmc_curve,
    evaluate,
    evaluate_features,
    load_manifest,
    pairwise_cosine,
)
from .model import (
    BranchOutput,
    ModelConfig,
    ModelState,
    build_model,
    extract_features,
    forward_train,
    load_checkpoint,
    save_checkpoint,
)
from .tensor import Conv2dSpec, NumericsError, Tensor, backward, gradient_check
from .training import (
    SyntheticDatasetSpec,
    TrainConfig,
    batch_hard_triplet_loss,
    cross_entropy_loss,
    pk_sample,
    synth_generate,
    train_step,
)

__all__ = [
    "BranchOutput",
    "Conv2dSpec",
    "EvalReport",
    "HcaConfig",
    "LkaConfig",
    "Manifest",
    "ModelConfig",
    "ModelState",
    "NumericsError",
    "Sample",
    "SyntheticDatasetSpec",
    "Tensor",
    "TrainConfig",
    "average_precision",
    "backward",
    "batch_hard_triplet_loss",
    "build_model",
    "cmc_curve",
    "count_params_flops",
    "cross_entropy_loss",
    "eca_kernel_size",
    "evaluate",
    "evaluate_features",
    "extract_features",
    "forward_train",
    "gradient_check",
    "hca_forward",
    "lka_forward",
    "load_checkpoint",
    "load_manifest",
    "pairwise_cosine",
    "pk_sample",
    "save_checkpoint",
    "synth_generate",
    "train_step",
]
