"""Names, units and directions of every metric the benchmark emits.

``BENCHMARK.json`` at the repository root must list exactly these; the
self-test checks that it does and that every run emits all of them.
Imports nothing heavy, so it can be read before BLAS threads are pinned.
"""

from __future__ import annotations

WORKLOADS = ("tiny-train", "default-train", "default-infer")

# (name, unit, better). Measured with tracing off.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("samples_per_s", "1/s", "higher"),
    ("op_s_p50", "s", "lower"),
    ("op_s_tail", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
)

# Kernel kinds the tracer attributes autodiff ops to. The first seven
# carry computed FLOP and byte counts; the last three only times.
COUNTED_KINDS = (
    "conv_dw",
    "conv_dense3x3",
    "conv_1x1",
    "sampler",
    "attn_matmul",
    "softmax",
    "batchnorm",
)
TIMED_KINDS = ("elementwise", "layout", "loss")

BLOCK_SPANS = (
    "blocks.ShdcBlock",
    "blocks.SingleHeadAttention",
    "blocks.MultiScaleDilatedConv",
    "blocks.DyFusionUp",
)


def _per_layer() -> tuple[tuple[str, str, str], ...]:
    out = []
    for k in COUNTED_KINDS:
        out += [
            (f"tensor.{k}.fwd_s", "s/op", "lower"),
            (f"tensor.{k}.vjp_s", "s/op", "lower"),
            (f"tensor.{k}.calls", "calls/fwd", "lower"),
            (f"tensor.{k}.gflop", "GFLOP/op", "lower"),
            (f"tensor.{k}.mbytes", "MB/op", "lower"),
        ]
    for k in TIMED_KINDS:
        out += [
            (f"tensor.{k}.fwd_s", "s/op", "lower"),
            (f"tensor.{k}.vjp_s", "s/op", "lower"),
        ]
    out += [
        ("autodiff.tape_nodes_per_step", "nodes/step", "lower"),
        ("autodiff.backward.self_s", "s/op", "lower"),
    ]
    out += [(f"{b}.fwd_s", "s/op", "lower") for b in BLOCK_SPANS]
    out += [
        ("blocks.DyFusionUp.upsample_s", "s/op", "lower"),
        ("network.forward_s", "s/op", "lower"),
        ("network.save_s", "s/op", "lower"),
        ("network.load_s", "s/setup", "lower"),
        ("losses.hybrid_loss_s", "s/op", "lower"),
        ("losses.evaluate_s", "s/op", "lower"),
        ("losses.val_dice", "dice", "higher"),
        ("train.backward_s", "s/op", "lower"),
        ("train.clip_s", "s/op", "lower"),
        ("train.adamw_s", "s/op", "lower"),
        ("train.validate_s", "s/op", "lower"),
        ("data.synth_s", "s/setup", "lower"),
        ("data.augment_s", "s/op", "lower"),
        ("data.augment.calls", "calls/op", "lower"),
        ("checkpoint.write_s", "s/op", "lower"),
        ("checkpoint.read_s", "s/setup", "lower"),
        ("checkpoint.mbytes", "MB/file", "lower"),
        ("mem.peak_traced_mib", "MiB", "lower"),
        ("trace.unattributed_share", "ratio", "lower"),
        ("trace.overhead_share", "ratio", "lower"),
    ]
    return tuple(out)


PER_LAYER = _per_layer()
