"""atkt: adversarially trained attentive-LSTM knowledge tracing.

Framework-free: the network, its backward pass, the optimizer and the
evaluation metrics are all written out by hand on float64 numpy arrays and
cross-checked against independent oracles (finite differences, pairwise AUC
counting, a two-state mastery simulator).
"""

__version__ = "0.1.0"

from .data import Dataset, InteractionSequence, generate_synthetic, load_dataset, make_folds
from .model import ModelParams, forward, backward, init_params, load_checkpoint, save_checkpoint
from .training import TrainConfig, train, sweep

__all__ = [
    "Dataset",
    "InteractionSequence",
    "ModelParams",
    "TrainConfig",
    "backward",
    "forward",
    "generate_synthetic",
    "init_params",
    "load_checkpoint",
    "load_dataset",
    "make_folds",
    "save_checkpoint",
    "sweep",
    "train",
]
