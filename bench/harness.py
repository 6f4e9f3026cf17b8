"""Runs one workload and turns its ops and spans into metrics.

Untraced runs give the end-to-end metrics of ``spec.END_TO_END``.
Traced runs first time one untraced pass (the reference for the
determinism check and for the tracing overhead), then repeat passes with
the tracer installed and report ``spec.PER_LAYER``.
"""

from __future__ import annotations

import contextlib
import resource
import statistics
import tracemalloc
from time import perf_counter as now

import spec
import workloads
from tracer import Tracer, installed

SETUP_REPEATS = 5
SETUP_SPANS = ("data.synth", "network.load", "checkpoint.read")
MEM_PASS_SLOWDOWN = 1.5  # wall of a tracemalloc pass against an untraced one


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile level, sample count) of the highest nearest-rank
    percentile with at least ten samples above it, but never below the
    median: with 20 samples or fewer no percentile above the median has
    ten samples beyond it, and the upper median is returned."""
    s = sorted(values)
    n = len(s)
    rank = max(n - 10, n // 2 + 1)
    return s[rank - 1], 100.0 * rank / n, n


class Run:
    """State and results of one workload process."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool, fault: bool, workdir: str):
        self.workload = workloads.make(name, seed, smoke, workdir, fault)
        self.seconds = seconds
        self.tracer = Tracer() if trace else None
        self.ops: list[workloads.Op] = []
        self.notes: list[str] = []

    def _setup(self) -> tuple[float, list[dict]]:
        """Median set-up seconds over the repeats, and per repeat the
        set-up spans of a traced run."""
        tr = self.tracer
        times, snaps = [], []
        for _ in range(SETUP_REPEATS):
            if tr is not None:
                tr.reset()
            with installed(tr) if tr is not None else contextlib.nullcontext():
                t0 = now()
                self.workload.setup()
                times.append(now() - t0)
            if tr is not None:
                snaps.append({
                    **{k: tr.total[k] for k in SETUP_SPANS},
                    "ckpt_bytes": tr.count["checkpoint.bytes"],
                    "ckpt_files": tr.count["checkpoint.files"],
                })
        self.workload.prepare_checks()
        return statistics.median(times), snaps

    def _pass(self) -> float:
        t0 = now()
        self.ops += self.workload.run_pass()
        return now() - t0

    def end_to_end(self, import_s: float) -> dict[str, float]:
        setup_s, _ = self._setup()
        start = now()
        while not self.ops or now() - start < self.seconds:
            self._pass()
        completed = [op for op in self.ops if op.seconds is not None]
        if not completed:
            raise RuntimeError("no op completed")
        done = [op.seconds for op in completed]
        value, level, n = tail(done)
        self.notes.append(f"op_s_tail is p{level:.1f} of {n} ops")
        return {
            "setup_s": import_s + setup_s,
            "samples_per_s": sum(op.samples for op in completed) / sum(done),
            "op_s_p50": statistics.median(done),
            "op_s_tail": value,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def per_layer(self) -> dict[str, float]:
        """Pass 1 runs untraced, as the reference for outputs and wall time;
        the next passes run with spans; the last runs with tracemalloc
        alone, whose slowdown would otherwise distort the span times."""
        tr = self.tracer
        _, snaps = self._setup()
        start = now()
        ref_wall = self._pass()
        first_traced = len(self.ops)
        tr.reset()
        walls = []
        with installed(tr):
            while not walls or now() - start + MEM_PASS_SLOWDOWN * ref_wall < self.seconds:
                walls.append(self._pass())
        last_traced = len(self.ops)
        tracemalloc.start()
        try:
            self._pass()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        traced = [
            op.seconds for op in self.ops[first_traced:last_traced] if op.seconds is not None
        ]
        if not traced:
            raise RuntimeError("no traced op completed")
        n_ops = len(traced)
        fwd = max(tr.calls["network.forward"], 1)
        steps = max(tr.calls["train.backward"], 1)

        def per_op(span: str) -> float:
            return tr.total[span] / n_ops

        def per_setup(span: str) -> float:
            return statistics.median(s[span] for s in snaps)

        m: dict[str, float] = {}
        for k in spec.COUNTED_KINDS:
            m[f"tensor.{k}.fwd_s"] = per_op(f"tensor.{k}.fwd")
            m[f"tensor.{k}.vjp_s"] = per_op(f"tensor.{k}.vjp")
            m[f"tensor.{k}.calls"] = tr.calls[f"tensor.{k}.fwd"] / fwd
            m[f"tensor.{k}.gflop"] = tr.count[f"{k}.flop"] / n_ops / 1e9
            m[f"tensor.{k}.mbytes"] = tr.count[f"{k}.bytes"] / n_ops / 1e6
        for k in spec.TIMED_KINDS:
            m[f"tensor.{k}.fwd_s"] = per_op(f"tensor.{k}.fwd")
            m[f"tensor.{k}.vjp_s"] = per_op(f"tensor.{k}.vjp")
        m["autodiff.tape_nodes_per_step"] = tr.count["tape_nodes"] / steps
        m["autodiff.backward.self_s"] = tr.self_s["train.backward"] / n_ops
        for b in spec.BLOCK_SPANS:
            m[f"{b}.fwd_s"] = per_op(b)
        ckpt_bytes = tr.count["checkpoint.bytes"] + snaps[-1]["ckpt_bytes"]
        ckpt_files = tr.count["checkpoint.files"] + snaps[-1]["ckpt_files"]
        m.update({
            "blocks.DyFusionUp.upsample_s": per_op("blocks.DyFusionUp.upsample"),
            "network.forward_s": per_op("network.forward"),
            "network.save_s": per_op("network.save"),
            "network.load_s": per_setup("network.load"),
            "losses.hybrid_loss_s": per_op("losses.hybrid_loss"),
            "losses.evaluate_s": per_op("losses.evaluate"),
            "losses.val_dice": self.workload.val_dice,
            "train.backward_s": per_op("train.backward"),
            "train.clip_s": per_op("train.clip"),
            "train.adamw_s": per_op("train.adamw"),
            "train.validate_s": per_op("train.validate"),
            "data.synth_s": per_setup("data.synth"),
            "data.augment_s": per_op("data.augment"),
            "data.augment.calls": tr.calls["data.augment"] / n_ops,
            "checkpoint.write_s": per_op("checkpoint.write"),
            "checkpoint.read_s": per_setup("checkpoint.read"),
            "checkpoint.mbytes": ckpt_bytes / ckpt_files / 1e6 if ckpt_files else 0.0,
            "mem.peak_traced_mib": peak / 2**20,
            "trace.unattributed_share": 1.0 - tr.leaf_s / sum(traced),
            "trace.overhead_share": statistics.mean(walls) / ref_wall - 1.0,
        })
        wall = sum(traced) / n_ops
        shares = ", ".join(
            f"{k} {(m[f'tensor.{k}.fwd_s'] + m[f'tensor.{k}.vjp_s']) / wall:.3f}"
            for k in spec.COUNTED_KINDS + spec.TIMED_KINDS
        )
        self.notes.append(f"kernel share of the traced op wall ({wall:.3f} s/op): {shares}")
        if tr.missing:
            self.notes.append("warning: not traced, absent: " + ", ".join(tr.missing))
        if m["trace.unattributed_share"] > 0.10:
            self.notes.append("warning: leaf spans cover less than 90% of the op wall")
        return m

    def counts(self) -> tuple[int, int]:
        return len(self.ops), sum(1 for op in self.ops if not op.ok)
