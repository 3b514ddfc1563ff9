"""Graph learning kit built on an antisymmetric/symmetric message-passing cell.

The cell family lives in cells (with reference baselines), adaptive per-node
exits in exits, the tape-based gradient engine in autodiff, training and
metrics in training, and the stability/energy checks in diagnostics. The cli
module exposes all of it as one command.
"""

from . import autodiff, cells, diagnostics, eig, exits, graphs, training
from .graphs import Graph, save_graph
from .training import RunConfig, evaluate, train_run

__version__ = "0.1.0"

__all__ = [
    "autodiff", "cells", "diagnostics", "eig", "exits", "graphs", "training",
    "Graph", "save_graph",
    "RunConfig", "evaluate", "train_run",
    "__version__",
]
