"""atkt: adversarially trained attentive-LSTM knowledge tracing.

Framework-free: the network, its backward pass, the optimizer and the
evaluation metrics are all written out by hand on float64 numpy arrays and
cross-checked against independent oracles (finite differences, pairwise AUC
counting, a two-state mastery simulator).
"""

__version__ = "0.1.0"
