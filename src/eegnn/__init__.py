"""Graph learning kit built on an antisymmetric/symmetric message-passing cell.

The config keys of every command live in config, the cell family in cells
(with reference baselines), adaptive per-node exits in exits, the tape-based
gradient engine in autodiff, training and metrics in training, and the
stability/energy checks in diagnostics. The cli module exposes all of it as
one command.
"""

from . import autodiff, cells, config, diagnostics, eig, exits, graphs, training
from .config import RunConfig
from .graphs import Graph, save_graph
from .training import evaluate, train_run

__version__ = "0.1.0"

__all__ = [
    "autodiff", "cells", "config", "diagnostics", "eig", "exits", "graphs", "training",
    "Graph", "save_graph",
    "RunConfig", "evaluate", "train_run",
    "__version__",
]
