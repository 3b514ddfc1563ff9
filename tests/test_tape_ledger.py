"""The training tape's ledger: what one training step keeps for backward,
counted by node kind, so a change to what a node keeps shows as a count."""

import pytest

from eegnn import autodiff as ad
from eegnn.graphs import gen_minesweeper_grid
from eegnn.training import RunConfig, train_run


def tape_ledger(root) -> dict:
    """{kind: (nodes, value bytes)} over the tape below root, kind the
    qualname of a node's backward rule, or leaf or constant without one."""
    ledger = {}
    for node in ad._topo_order(root):
        rule = node.backward_rule
        kind = (rule.__qualname__ if rule is not None
                else "leaf" if node.requires_grad else "constant")
        count, size = ledger.get(kind, (0, 0))
        ledger[kind] = (count + 1, size + node.value.nbytes)
    return ledger


def training_ledger(monkeypatch, doc) -> dict:
    """The ledger of the first training step's tape, read from the loss
    before backward releases it."""
    ledgers = []
    sweep = ad.backward

    def counted(root, *args, **kwargs):
        ledgers.append(tape_ledger(root))
        return sweep(root, *args, **kwargs)

    monkeypatch.setattr(ad, "backward", counted)
    g = gen_minesweeper_grid(6, 6, 0.2, seed=1)
    train_run(RunConfig.from_dict({"depth": 4, "hidden": 8, "epochs": 1,
                                   "seed": 3, **doc}), g)
    assert len(ledgers) == 1
    return ledgers[0]


def rule(op):
    return f"{op}.<locals>.rule"


# one training step on a 36-node grid, depth 4, hidden 8 (a state is 2304
# bytes), eegnn's heads 16 wide: a sas layer keeps its update and its step;
# an eegnn layer also its heads' aggregate and their layers; the step size of
# sas is one n x 1 constant for every layer
COMMON = {rule("act_update"): (4, 9216), rule("add_scaled_rows"): (4, 9216),
          rule("matmul_add"): (2, 2880), rule("mul_const"): (1, 576),
          rule("transpose"): (2, 1024), rule("smul"): (1, 512), rule("sub"): (1, 512),
          rule("sum_all"): (1, 8), rule("neg"): (1, 8)}
LEDGERS = {
    "sas": {**COMMON, rule("activation_apply"): (1, 2304), rule("add"): (1, 512),
            rule("row_log_softmax"): (1, 576), "constant": (2, 3168),
            "leaf": (6, 1872)},
    "eegnn": {**COMMON, rule("dspmm"): (4, 9216), rule("two_matmul_add"): (8, 36864),
              rule("act_matmul_add"): (8, 3456), rule("where_rows"): (5, 11520),
              rule("activation_apply"): (5, 3456), rule("add"): (5, 2816),
              rule("row_log_softmax"): (5, 2880), rule("softmax_rows"): (4, 2304),
              rule("scale_rows"): (4, 2304), rule("add_scalar"): (4, 1152),
              rule("col_slice"): (4, 1152), "constant": (6, 7488), "leaf": (16, 6632)},
}

# the baselines on the same grid: a gcn layer is one act_update node, a
# graff or adgn layer an act_update and an add_scaled_rows node, as a sas
# layer is, reading one n x 1 step-size constant for every layer; the add,
# smul, sub and transpose nodes left build the cell weights once per forward
# and the one activation_apply is the encoder's relu
ENDS = {rule("matmul_add"): (2, 2880), rule("activation_apply"): (1, 2304),
        rule("mul_const"): (1, 576), rule("row_log_softmax"): (1, 576),
        rule("sum_all"): (1, 8), rule("neg"): (1, 8)}
STEPS = {rule("act_update"): (4, 9216), rule("add_scaled_rows"): (4, 9216),
         "constant": (2, 3168)}
LEDGERS.update({
    "gcn": {**ENDS, rule("act_update"): (4, 9216), "constant": (1, 2880),
            "leaf": (8, 2896)},
    "graff": {**ENDS, **STEPS, rule("add"): (2, 1024), rule("smul"): (2, 1024),
              rule("transpose"): (2, 1024), "leaf": (6, 1872)},
    "adgn": {**ENDS, **STEPS, rule("sub"): (1, 512), rule("transpose"): (1, 512),
             "leaf": (7, 1936)},
})


@pytest.mark.parametrize("model", sorted(LEDGERS))
def test_training_tape_ledger_is_pinned(monkeypatch, model):
    assert training_ledger(monkeypatch, {"model": model}) == LEDGERS[model]
