"""Measurement machinery of a worker process: the closed loop, tallies, preflight and layer figures.

Imported only after the worker has timed its set-up, so that nothing here is
loaded before ``kdl`` is.

The speed of a shared host drifts by tens of percent within seconds, so op
times are scaled to a reference speed: every ``RESCALE_EVERY_S`` of op time
the loop times the job of ``perfbench.reference``, and each op's time is
multiplied by ``REFERENCE_S`` over the mean of the reference times taken
just before and just after it.  A change to kdl moves the scaled figures as
it moves the raw ones; the host's drift moves both the op and the reference
job and cancels.
"""

from __future__ import annotations

import hashlib
import random
import resource
import statistics
import time
from pathlib import Path

from perfbench.reference import REFERENCE_S, reference_seconds
from perfbench.spans import SpanRecorder
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
SAMPLE_CAP = 50_000
# Whole decks are grouped into blocks of at least this much op time; the
# throughput reported is the median of the blocks' rates.
BLOCK_S = 0.25
RESCALE_EVERY_S = 0.1
SPANS_DIR = ROOT / ".bench_out"


class Tally:
    """Counts, a bounded sample of scaled latencies and the output digest of one phase."""

    def __init__(self, seed: int, digest_ops: int):
        self.rng = random.Random(f"sample:{seed}")
        self.digest_ops = digest_ops
        self.digest = hashlib.sha256()
        self.ops = self.failed = self.units = 0
        self.raw_busy = self.busy = 0.0
        self.sample: list[float] = []
        self.failures: list[str] = []
        self.pending: list[tuple[float, int]] = []  # raw seconds, units of ops not yet scaled
        self.pending_s = 0.0
        self.last_reference = REFERENCE_S
        self.references: list[float] = []
        self.block = [0, 0, 0.0]  # ops, units, scaled seconds of the open block
        self.block_rates: list[tuple[float, float]] = []

    def add(self, seconds: float, failure: str | None, units: int) -> None:
        self.ops += 1
        self.units += units
        self.raw_busy += seconds
        if failure is not None:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(failure)
        self.pending.append((seconds, units))
        self.pending_s += seconds

    def reference(self, seconds: float) -> None:
        """Scale the pending ops by the reference times around them."""
        factor = 2 * REFERENCE_S / (self.last_reference + seconds)
        self.last_reference = seconds
        self.references.append(seconds)
        for raw, units in self.pending:
            scaled = raw * factor
            self.busy += scaled
            self.block[0] += 1
            self.block[1] += units
            self.block[2] += scaled
            # Reservoir sampling keeps memory flat however many ops run, so
            # peak RSS does not grow with throughput.
            if len(self.sample) < SAMPLE_CAP:
                self.sample.append(scaled)
            else:
                j = self.rng.randrange(self.ops)
                if j < SAMPLE_CAP:
                    self.sample[j] = scaled
        self.pending.clear()
        self.pending_s = 0.0

    def end_deck(self) -> None:
        if self.block[2] + self.pending_s >= BLOCK_S:
            self.reference(reference_seconds())
            ops, units, busy = self.block
            self.block_rates.append((ops / busy, units / busy))
            self.block = [0, 0, 0.0]

    def quantile_us(self, q: float) -> float:
        ordered = sorted(self.sample)
        pos = q * (len(ordered) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(ordered) - 1)
        return 1e6 * (ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo))

    def stats(self) -> dict:
        rates = self.block_rates or [(self.ops / self.busy, self.units / self.busy)]
        return {
            "ops_per_s": statistics.median(r[0] for r in rates),
            "units_per_s": statistics.median(r[1] for r in rates),
            "op_p50_us": self.quantile_us(0.50),
            "op_p90_us": self.quantile_us(0.90),
            "op_p99_us": self.quantile_us(0.99),
            "raw_ops_per_s": self.ops / self.raw_busy,
            "host_speed": REFERENCE_S / statistics.median(self.references),
            "sample": len(self.sample),
            "blocks": len(self.block_rates),
        }


def one_op(workload, item, tally: Tally, recorder: SpanRecorder | None) -> None:
    failure = outcome = None
    start = time.perf_counter()
    try:
        if recorder is None:
            outcome = workload.run(item)
        else:
            recorder.request += 1
            with recorder.span("bench.op"):
                outcome = workload.run(item)
    except Exception as exc:  # a failing op is counted and the loop goes on
        failure = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if failure is None:
        failure = workload.check(item, outcome)
    if tally.ops < tally.digest_ops:
        tally.digest.update(failure.encode() if outcome is None else workload.record(item, outcome))
    tally.add(elapsed, failure, workload.units(item, outcome) if failure is None else 0)
    if recorder is not None and failure is None:
        for name, amount in workload.counters(item, outcome).items():
            recorder.count(name, amount)


def measure(workload, seconds: float, tally: Tally, recorder: SpanRecorder | None = None) -> None:
    """Closed loop: issue the next op when the previous one is done, until time is up.

    The deck in hand is always finished, so every run measures whole decks
    and the request mix is the same in every run.
    """
    tally.last_reference = reference_seconds()
    deadline = time.perf_counter() + seconds
    while True:
        for item in workload.deck():
            one_op(workload, item, tally, recorder)
            if tally.pending_s >= RESCALE_EVERY_S:
                tally.reference(reference_seconds())
        tally.end_deck()
        if time.perf_counter() >= deadline:
            break
    if tally.pending:
        tally.reference(reference_seconds())


def preflight(tally: Tally, recorder: SpanRecorder | None = None) -> None:
    """Drive each workload's fixed small requests through every layer, gated."""
    for cls in WORKLOADS.values():
        workload = cls(0)
        workload.bind()
        for item in cls.fixed_items():
            one_op(workload, item, tally, recorder)


def layer_totals(recorder: SpanRecorder) -> dict:
    """Running totals of calls and self seconds of every traced name and module, and the counters."""
    totals = dict(recorder.counters)
    for name, calls in recorder.calls.items():
        totals[f"{name}.calls"] = calls
        totals[f"{name}.self_s"] = recorder.self_s[name]
    for module, seconds in recorder.module_self_s().items():
        totals[f"{module}.self_s"] = seconds
    return totals


def per_op(totals: dict, ops: int) -> dict:
    """Layer figures of one phase from its totals: per op, and fans.apply calls per cone verified."""
    figures = {key: value / ops for key, value in totals.items() if key.endswith((".calls", ".self_s"))}
    figures["smoothing.apply_per_cone"] = totals.get("fans.apply.calls", 0) / max(totals.get("cones", 0), 1)
    figures["cli.bytes_out"] = totals.get("cli_bytes", 0) / ops
    return figures


def layer_figures(floor: dict, own: dict) -> tuple[dict, list[str]]:
    """The workload's own figure of each layer; the preflight's for a layer the workload never enters.

    Returns the figures and the names that fell back to the preflight floor.
    """
    figures, floor_only = {}, []
    for key in floor.keys() | own.keys():
        if own.get(key, 0) > 0:
            figures[key] = own[key]
        else:
            figures[key] = floor.get(key, 0)
            floor_only.append(key)
    return figures, sorted(floor_only)


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; the result carries stats or layer figures."""
    cls = WORKLOADS[name]
    workload = cls(seed)
    workload.bind()
    checks = Tally(seed, 0)
    preflight(checks)
    main_tally = Tally(seed, cls.digest_ops)
    result = {"workload": name, "seed": seed}
    if trace:
        measure(workload, seconds / 3, main_tally)
        recorder = SpanRecorder()
        recorder.install()
        try:
            # The preflight's work is kept apart: it is the same whatever the
            # workload, so folding it in would bias every figure by a fixed
            # amount over a throughput-dependent op count.
            flight = Tally(seed, 0)
            preflight(flight, recorder)
            before = layer_totals(recorder)
            traced = Tally(seed, 0)
            measure(workload, seconds * 2 / 3, traced, recorder)
        finally:
            recorder.uninstall()
        after = layer_totals(recorder)
        own = {key: value - before.get(key, 0) for key, value in after.items()}
        figures, floor_only = layer_figures(per_op(before, flight.ops), per_op(own, traced.ops))
        untraced_rate, traced_rate = main_tally.stats()["ops_per_s"], traced.stats()["ops_per_s"]
        figures["trace.untraced_ops_per_s"] = untraced_rate
        figures["trace.traced_ops_per_s"] = traced_rate
        figures["trace.overhead_ratio"] = untraced_rate / traced_rate
        spans_path = SPANS_DIR / f"spans-{name}-seed{seed}.jsonl"
        recorder.write(spans_path)
        result["layers"] = figures
        result["floor_only"] = floor_only
        result["spans_file"] = str(spans_path.relative_to(ROOT))
        tallies = (checks, main_tally, flight, traced)
    else:
        measure(workload, seconds, main_tally)
        stats = main_tally.stats()
        stats["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["stats"] = stats
        tallies = (checks, main_tally)
    result["attempted"] = sum(t.ops for t in tallies)
    result["failed"] = sum(t.failed for t in tallies)
    result["failures"] = [f for t in tallies for f in t.failures][:5]
    result["digest"] = main_tally.digest.hexdigest()
    result["digest_ops"] = min(main_tally.ops, cls.digest_ops)
    return result
