"""Criterion 7's run, stated once for the acceptance test, the memory tests,
``scripts/bit_identity.py`` and ``scripts/graph_memory.py``; the scripts
load this file by path once the checkout's ``src/`` is on ``sys.path``.

One seed, 0, seeds the dataset, the model's init and the PK sampler.  Adam
needs lr 0.001: at SGD's 0.03 it overflows the triplet distances before
step 300.
"""
import numpy as np

from lkareid.model import ModelConfig, build_model
from lkareid.training import (
    SyntheticDatasetSpec, TrainConfig, pk_batch, split_query_gallery, step_losses, synth_generate,
)

SEED = 0
LR = {"sgd": 0.03, "adam": 0.001}


def setup(attention_enabled, steps=300, optimizer="sgd"):
    """The run's data, its (train, query, gallery) positions, the model
    state and the TrainConfig."""
    spec = SyntheticDatasetSpec(num_identities=16, images_per_identity=8, num_cameras=4, image_size=48, seed=SEED)
    data = synth_generate(spec)
    model_cfg = ModelConfig(
        num_identities=spec.num_identities, num_cameras=spec.num_cameras, attention_enabled=attention_enabled,
    )
    cfg = TrainConfig(
        identities_per_batch=4, instances_per_identity=4, steps=steps, lr=LR[optimizer], seed=SEED, optimizer=optimizer,
    )
    return data, split_query_gallery(data, spec), build_model(model_cfg, SEED), cfg


def step_forward(attention_enabled):
    """A function that runs one step's forward and losses with
    ``training.step_losses``, as ``train_step`` does, and returns the total
    loss.  Each call draws the same batch: the sampler is seeded afresh."""
    data, (train_idx, _, _), state, cfg = setup(attention_enabled)
    index = data.identity_index(train_idx)
    return lambda: step_losses(state, pk_batch(data, index, cfg, np.random.default_rng(SEED)), cfg)[0]
