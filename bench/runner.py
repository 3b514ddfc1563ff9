"""One benchmark invocation: set-up, timed rounds, checks and the result line.

Imported by run.py after the BLAS thread variables are pinned.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import layers
import workloads
from calibration import REFERENCE_S, Calibrator
from spans import Tracer, median, rebind, round_table, self_times, tail_percentile

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
END_TO_END_UNITS = {"setup_s": "s", "op_ref_s": "s", "eval_ref_s": "s",
                    "peak_rss_mb": "MB"}
IMPORT_PROBE = ("import time; t = time.perf_counter(); import numpy, eegnn; "
                "print(time.perf_counter() - t)")


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = ""
    if (ROOT / ".git").exists():  # git is not asked to search above the checkout
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "eegnn").glob("*.py")):
        digest.update(path.read_bytes())
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": {k: blas.get(k) for k in ("name", "version")},
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "cpu_count": os.cpu_count(), "git_commit": commit or None,
            "src_sha256": digest.hexdigest()}


def import_seconds() -> float:
    """Import time of numpy and eegnn in a fresh child process."""
    child = subprocess.run([sys.executable, "-c", IMPORT_PROBE], text=True,
                           env=dict(os.environ, PYTHONPATH=str(SRC)),
                           capture_output=True, timeout=120, check=True)
    return float(child.stdout)


def wrapper_cost_s(wrap, calls: int = 20000) -> float:
    """Seconds a wrapper made by `wrap` adds to one call of a no-op."""
    def noop():
        return None

    wrapped = wrap(noop)
    t = perf_counter()
    for _ in range(calls):
        noop()
    bare = perf_counter() - t
    t = perf_counter()
    for _ in range(calls):
        wrapped()
    return max(0.0, (perf_counter() - t - bare) / calls)


def summarize(samples) -> dict:
    """Mean, median, minimum and tail of one kind of timing sample, in wall
    seconds, with the count."""
    tail = tail_percentile(samples)
    return {"samples": len(samples), "mean": sum(samples) / len(samples),
            "median": median(samples), "min": min(samples),
            "tail": tail and tail[1], "tail_percentile": tail and tail[0]}


class Run:
    """One invocation: set-up, timed rounds, checks and the result line."""

    def __init__(self, args, wl, modules):
        self.args, self.wl = args, wl
        self.work = WORK / f"{wl.name}-{args.seed}-{os.getpid()}"
        self.cal = Calibrator(enabled=not args.trace)
        self.clock = workloads.EpochClock(self.cal)
        original = workloads.training.adam_step
        rebind(modules, original, self.clock.wrap(original))
        self.tracer = Tracer(modules) if args.trace else None
        self.attempted = 0
        self.failures: list[str] = []
        self.failed = 0
        self.import_s: list[float] = []
        self.setup_s: list[float] = []
        self.rounds: list[dict] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)

    def build(self, tag: str):
        """One timed set-up: a cold import in a child process, then the
        workload's input generation, operator prep and model build."""
        self.import_s.append(import_seconds())
        t = perf_counter()
        state = self.wl(self.args.seed, self.work / tag, self.clock)
        self.setup_s.append(perf_counter() - t)
        return state

    def set_up(self):
        """SETUP_REPEATS set-ups before the first round; the traced run traces
        the last one. The untraced run sets up once more after every round, so
        the set-up samples span the whole run, not only its first second."""
        state = None
        for k in range(SETUP_REPEATS):
            if self.tracer is not None and k == SETUP_REPEATS - 1:
                layers.install_all(self.tracer, workloads.eegnn)
                lo = len(self.tracer)
            state = self.build(f"setup{k}")
        if self.tracer is not None:
            self.setup_span = (lo, len(self.tracer))
        return state

    def _round(self, state, r: int):
        """One round; its seconds leave out the calibration samples taken in it."""
        cal, t = self.cal.total(), perf_counter()
        rnd = state.run_round(r)
        seconds = perf_counter() - t - (self.cal.total() - cal)
        self.attempted += rnd.attempted
        if rnd.failures:
            self.fail("; ".join(rnd.failures))
        return rnd, seconds

    def measure(self, state) -> None:
        """Rounds until the next one would end past --seconds (at least min_rounds)."""
        trace = self.tracer is not None
        t_start = perf_counter()
        r = 0
        if trace:
            # one untraced round first, the base of the tracing overhead
            self.tracer.restore()
            _, self.untraced_s = self._round(state, r)
            layers.install_all(self.tracer, workloads.eegnn)
            r += 1
        while True:
            typical = median([x["seconds"] for x in self.rounds]) if self.rounds else 0.0
            if (len(self.rounds) >= state.min_rounds
                    and perf_counter() - t_start + typical > self.args.seconds):
                break
            lo = len(self.tracer) if trace else 0
            rnd, seconds = self._round(state, r)
            if self.rounds and rnd.fingerprint != self.rounds[0]["rnd"].fingerprint:
                self.fail(f"round {r} output differs from the first timed round")
            self.rounds.append({
                "rnd": rnd, "seconds": seconds, "lo": lo,
                "hi": len(self.tracer) if trace else 0,
                "exit": self.tracer.results.pop("eegnn_forward_node", None) if trace
                else None})
            if not trace:
                self.build(f"after{r}")
            r += 1

    def final(self):
        finals = [x["rnd"].final for x in self.rounds if x["rnd"].final is not None]
        return finals[-1] if finals else None

    def check_reference(self) -> None:
        ref, tol = workloads.REFERENCE[self.wl.name]
        if self.args.seed == 0 and not (self.final() is not None
                                        and abs(self.final() - ref) <= tol):
            self.fail(f"final {self.final()!r} is more than {tol} from the "
                      f"reference {ref!r}")

    def end_to_end(self):
        """Gated timings are run means scaled to reference host speed (see
        calibration.py and the README); the report keeps them unscaled."""
        ops = [s for x in self.rounds for s in x["rnd"].op_s]
        evals = [s for x in self.rounds for s in x["rnd"].eval_s]
        rounds = [x["seconds"] for x in self.rounds]
        setup = median(self.import_s) + median(self.setup_s)
        factor = self.cal.factor()
        values = {
            "setup_s": setup * factor,
            "op_ref_s": sum(ops) / len(ops) * factor,
            "eval_ref_s": sum(evals) / len(evals) * factor,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        epochs_hooked = sum(len(x["rnd"].op_s) + 1 for x in self.rounds)
        report = {
            "import_s": self.import_s, "setup_repeats_s": self.setup_s,
            "setup_unscaled_s": setup,
            "calibration": {"samples": len(self.cal.samples),
                            "mean": self.cal.total() / len(self.cal.samples),
                            "min": min(self.cal.samples), "reference_s": REFERENCE_S,
                            "factor": factor},
            "run_s": summarize(rounds), self.wl.op_name: summarize(ops),
            self.wl.eval_name: summarize(evals),
            "ops_failed_ratio": self.failed / max(self.attempted, 1),
            "epoch_hook_cost_s": wrapper_cost_s(
                workloads.EpochClock(Calibrator(enabled=False)).wrap) * epochs_hooked,
        }
        return values, report

    def per_layer(self):
        tracer = self.tracer
        tracer.restore()
        selfs = self_times(tracer.start, tracer.end, tracer.parent)
        setup_table = round_table(tracer, *self.setup_span, selfs)
        per_round = []
        for x in self.rounds:
            m, fired = layers.round_metrics(tracer, workloads.eegnn, x["lo"], x["hi"],
                                            selfs, setup_table, x["exit"])
            per_round.append(m)
            missing = sorted(layers.EXPECTED[self.wl.name] - fired)
            if missing:
                self.fail(f"declared spans never fired: {missing}")
        exact = layers.exact_keys(per_round[0])
        for i, m in enumerate(per_round[1:], start=1):
            moved = [k for k in exact if m[k] != per_round[0][k]]
            if moved:
                self.fail(f"traced round {i} counters differ from round 0: {moved}")
        values = {k: per_round[0][k] if k in exact else median([m[k] for m in per_round])
                  for k in per_round[0]}
        values["trace.overhead_ratio"] = (median([x["seconds"] for x in self.rounds])
                                          / self.untraced_s)
        WORK.mkdir(parents=True, exist_ok=True)
        tracer.save(WORK / f"spans-{self.wl.name}.npz")
        span_cost = wrapper_cost_s(lambda fn: Tracer([]).wrap(fn, "noop"))
        report = {"per_layer": values, "spans": len(tracer),
                  "span_cost_s": span_cost,
                  "spans_cost_per_round_s": span_cost * (self.rounds[0]["hi"]
                                                         - self.rounds[0]["lo"]),
                  "untraced_round_s": self.untraced_s,
                  "traced_round_s": [x["seconds"] for x in self.rounds]}
        return {name: values[name] for name, _, _ in layers.PER_LAYER}, report


def run(args) -> int:
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              + ", ".join(workloads.WORKLOADS), file=sys.stderr)
        return 2
    job = Run(args, workloads.WORKLOADS[args.workload], workloads.PACKAGE_MODULES)
    values, report = {}, {}
    try:
        job.measure(job.set_up())
    except Exception:
        traceback.print_exc()
        job.attempted += 1
        job.fail("exception: " + traceback.format_exc().strip().splitlines()[-1])
    finally:
        if job.tracer is not None:
            job.tracer.restore()
        shutil.rmtree(job.work, ignore_errors=True)
    if job.rounds:
        job.check_reference()
        if args.trace:
            values, report = job.per_layer()
            units = {name: unit for name, unit, _ in layers.PER_LAYER}
        else:
            values, report = job.end_to_end()
            units = END_TO_END_UNITS
    report.update({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "rounds": len(job.rounds), "final": job.final(),
                   "environment": environment(), "failures": job.failures})
    print(json.dumps({"report": report}, sort_keys=True))
    correct = bool(job.rounds) and not job.failures
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()} \
        if correct else {}
    print(json.dumps({"correct": correct, "attempted": max(job.attempted, 1),
                      "failed": job.failed, "metrics": metrics}))
    return 0 if correct else 1
