"""The two benchmark workloads.

Each workload is a closed loop with one client: the next call starts only
after the previous one returned. Constructing a workload class with
(seed, work directory, EpochClock) is its set-up: it builds the inputs from
the seed. `run_round(r)` then runs one round and returns a `Round`. Every
call into eegnn goes through a module attribute (`training.train_run`, never
a copied name), so the tracer's rebinding sees it.

An operation is one epoch, one CLI command, one evaluate call, or one
diagnostic call. A failed output check counts its operation as failed.
After every timed call the workload takes one calibration sample (see
calibration.py), outside the call's time.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import eegnn
from calibration import Calibrator
from eegnn import cli, diagnostics, graphs, training

# Final test metric (or layer-0 sensitivity) for seed 0, with its tolerance.
# The tolerances admit the last-digit shifts a new summation order may cause:
# grid auroc moves by ~1.2e-4 per swapped score pair, and sensitivity has no
# training loop to amplify a shift.
REFERENCE = {
    "cli-eegnn20": (0.5092290306378704, 2e-3),
    "diag-sens-spec": (6475.606568217185, 6475.606568217185 * 1e-9),
}


@dataclass
class Round:
    op_s: list = field(default_factory=list)      # epoch or sensitivity seconds
    eval_s: list = field(default_factory=list)    # evaluate / spectrum seconds
    attempted: int = 0
    failures: list = field(default_factory=list)
    fingerprint: object = None                    # must repeat across rounds
    final: float | None = None                    # compared with REFERENCE


class Stopwatch:
    """Appends the seconds of one `with` block to a list, then takes one
    calibration sample (outside the timed block)."""

    def __init__(self, seconds: list, cal: Calibrator):
        self.seconds, self.cal = seconds, cal

    def __enter__(self):
        self.t0 = perf_counter()

    def __exit__(self, *exc):
        self.seconds.append(perf_counter() - self.t0)
        self.cal.sample()


class EpochClock:
    """Times the intervals between training.adam_step calls, and takes one
    calibration sample after each call, outside the intervals."""

    def __init__(self, cal: Calibrator):
        self.cal = cal
        self.ends: list[tuple[float, float]] = []

    def wrap(self, fn):
        ends, cal = self.ends, self.cal

        def timed(*args, **kwargs):
            out = fn(*args, **kwargs)
            t = perf_counter()
            cal.sample()
            ends.append((t, perf_counter()))
            return out

        return timed

    def take(self) -> list[float]:
        """Epoch samples since the last take: from the end of one adam_step's
        calibration sample to the end of the next adam_step."""
        ends = list(self.ends)
        self.ends.clear()
        return [b[0] - a[1] for a, b in zip(ends, ends[1:])]


def _check_history(history, epochs, rnd: Round) -> None:
    rnd.attempted += epochs
    if len(history) != epochs:
        rnd.failures.append(f"history has {len(history)} rows, expected {epochs}")
    for row in history:
        if not all(math.isfinite(v) for v in row[1:4]):
            rnd.failures.append(f"non-finite loss or metric in epoch {row[0]}")


# --------------------------------------------------------------- cli-eegnn20

CLI_OUTPUTS = ("history.csv", "metrics.json", "checkpoint.json", "exits.csv")


class CliEegnn20:
    """In-process CLI pipeline: generate (set-up), train eegnn L=20, evaluate."""

    name = "cli-eegnn20"
    op_name, eval_name = "epoch_s", "eval_s"
    epochs = 8
    evaluates = 10
    min_rounds = 2

    def __init__(self, seed, work, clock):
        self.clock, self.seed, self.work = clock, seed, Path(work)
        self.data = self.work / "gen" / "graph.json"
        self._cli(["generate", "--seed", str(seed), "--out", str(self.data.parent)])
        self.config = self.work / "train.json"
        self.config.write_text(json.dumps(
            {"model": "eegnn", "depth": 20, "hidden": 32, "epochs": self.epochs}))

    @staticmethod
    def _cli(argv) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"eegnn {argv[0]} exited with code {code}")

    def run_round(self, r: int) -> Round:
        rnd = Round()
        out = self.work / f"round{r}"
        self.clock.take()
        rnd.attempted += 1
        self._cli(["train", "--config", str(self.config), "--data", str(self.data),
                   "--seed", str(self.seed), "--out", str(out)])
        rnd.op_s = self.clock.take()
        rnd.attempted += self.epochs
        for _ in range(self.evaluates):
            rnd.attempted += 1
            with Stopwatch(rnd.eval_s, self.clock.cal):
                self._cli(["evaluate", "--data", str(self.data), "--checkpoint",
                           str(out / "checkpoint.json"), "--out", str(out / "eval")])

        missing = [n for n in CLI_OUTPUTS if not (out / n).is_file()]
        if missing:
            rnd.failures.append(f"train wrote no {missing}")
            return rnd
        rows = (out / "history.csv").read_text().splitlines()[1:]
        if len(rows) != self.epochs:
            rnd.failures.append(f"history.csv has {len(rows)} rows")
        if not all(math.isfinite(float(v)) for row in rows for v in row.split(",")[1:4]):
            rnd.failures.append("non-finite loss or metric in history.csv")
        trained = json.loads((out / "metrics.json").read_text())["value"]
        evaluated = json.loads((out / "eval" / "metrics.json").read_text())["value"]
        if trained != evaluated:
            rnd.failures.append(f"evaluate metric {evaluated} != train metric {trained}")
        rnd.final = evaluated
        rnd.fingerprint = tuple((out / n).read_bytes() for n in CLI_OUTPUTS)
        return rnd


# ------------------------------------------------------------ diag-sens-spec

class DiagSensSpec:
    """Per-layer sensitivity of a fresh default sas model, then two spectrum suites."""

    name = "diag-sens-spec"
    op_name, eval_name = "sensitivity_s", "spectrum_s"
    spectrum_configs = 300
    spectrum_calls = 2          # per round, so eval time is not a small share

    def __init__(self, seed, work, clock):
        self.clock, self.seed = clock, seed
        self.g = graphs.gen_sbm((20, 20), 0.7, 0.1, seed, feature_dim=8)
        cfg = training.RunConfig.from_dict({"seed": seed})
        self.model = training.build_model(cfg, self.g.X.shape[1], int(self.g.y.max()) + 1,
                                          np.random.Generator(np.random.PCG64(seed)))
        graphs.norm_adj(self.g)
        self.depth = cfg.depth
        # the exact-zero layer first, so even a short run checks it
        self.layers = [self.depth] + list(range(self.depth))
        self.min_rounds = len(self.layers)
        self.seen: dict[int, float] = {}

    def run_round(self, r: int) -> Round:
        rnd = Round()
        layer = self.layers[r % len(self.layers)]
        with Stopwatch(rnd.op_s, self.clock.cal):
            s = diagnostics.sensitivity(self.model, self.g, layer)
        rnd.attempted += 1
        if layer == self.depth and s != 0.0:
            rnd.failures.append(f"last-layer sensitivity {s!r} is not exactly 0.0")
        if not (math.isfinite(s) and s >= 0.0):
            rnd.failures.append(f"layer {layer} sensitivity {s!r} not finite and >= 0")
        if self.seen.setdefault(layer, s) != s:
            rnd.failures.append(f"layer {layer} sensitivity differs on rerun")
        reps = []
        for _ in range(self.spectrum_calls):
            with Stopwatch(rnd.eval_s, self.clock.cal):
                reps.append(diagnostics.spectrum_suite(self.spectrum_configs, 16, 32,
                                                       seed=self.seed))
            rnd.attempted += 1
            if not reps[-1]["pass"]:
                rnd.failures.append(f"spectrum suite failed: {reps[-1]}")
        if reps[1:] != reps[:-1]:
            rnd.failures.append("spectrum suite differs on rerun")
        rnd.fingerprint = reps[0]
        rnd.final = self.seen.get(0)
        return rnd


WORKLOADS = {w.name: w for w in (CliEegnn20, DiagSensSpec)}

PACKAGE_MODULES = (eegnn, eegnn.graphs, eegnn.autodiff, eegnn.cells, eegnn.exits,
                   eegnn.training, eegnn.eig, eegnn.diagnostics, eegnn.cli)
