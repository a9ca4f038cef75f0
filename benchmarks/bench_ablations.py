"""Ablation tables for the design choices the paper argues for.

* **Key-component sharing** (§3.1.1): the paper's argument for sharing one
  component field across levels, instead of one field per level, is
  per-packet overhead; this ablation quantifies both designs.
* **FEC choice** (§3.2.1): MDS erasure coding versus naive repetition for the
  SIGMA announcements, at equal loss tolerance.
* **Threshold scheme cost** (§3.1.2): per-packet overhead of the Shamir-based
  threshold instantiation versus the XOR instantiation, illustrating why the
  paper calls component reuse for threshold schemes an open problem.
"""

import random

from repro.analysis import format_table
from repro.core.delta import ThresholdDeltaSender
from repro.core.overhead import OverheadModel
from repro.fec import ErasureCode, FecConfig, RepetitionCode


def test_ablation_shared_vs_independent_components(bench_record):
    """Per-packet DELTA bits with shared components vs one component per level."""

    def run():
        model = OverheadModel()
        shared_bits = model.delta_overhead_percent()
        # Independent keys: a packet of group j carries one component for every
        # key k_j..k_N (N - j + 1 fields) plus the decrease field.
        n = model.group_count
        m = model.rate_factor
        # Weight each group's field count by its share of the session packets.
        group_rates = [
            model.minimal_rate_bps
            if g == 1
            else model.minimal_rate_bps * (m ** (g - 1) - m ** (g - 2))
            for g in range(1, n + 1)
        ]
        total_rate = sum(group_rates)
        fields_per_packet = sum(
            rate / total_rate * (n - g + 1 + (1 if g >= 2 else 0))
            for g, rate in enumerate(group_rates, start=1)
        )
        independent_bits = fields_per_packet * model.key_bits / model.data_bits_per_packet * 100
        return shared_bits, independent_bits

    shared, independent = run()
    print("\nAblation — DELTA per-packet overhead (percent of data bits)")
    print(
        format_table(
            ["design", "overhead (%)"],
            [("shared components (paper)", round(shared, 3)), ("independent per-level keys", round(independent, 3))],
        )
    )
    bench_record({"shared_percent": shared, "independent_percent": independent})
    assert shared < independent


def test_ablation_erasure_vs_repetition(bench_record):
    """Decode success of MDS coding vs repetition at the same 2x expansion."""

    def run(trials=300, loss=0.5, symbols=42):
        rng = random.Random(7)
        erasure = ErasureCode(FecConfig(loss))
        repetition = RepetitionCode(copies=2)
        source = [rng.getrandbits(16) for _ in range(symbols)]
        erasure_ok = repetition_ok = 0
        for _ in range(trials):
            for code, counter in ((erasure, "e"), (repetition, "r")):
                coded = code.encode(source)
                survivors = [s for s in coded if rng.random() > loss]
                try:
                    decoded = code.decode(survivors, symbols)
                except ValueError:
                    continue
                if decoded == source:
                    if counter == "e":
                        erasure_ok += 1
                    else:
                        repetition_ok += 1
        return erasure_ok / trials, repetition_ok / trials

    erasure_rate, repetition_rate = run()
    print("\nAblation — SIGMA announcement delivery at 50% random loss, 2x expansion")
    print(
        format_table(
            ["code", "decode success"],
            [("MDS erasure (paper)", round(erasure_rate, 3)), ("repetition x2", round(repetition_rate, 3))],
        )
    )
    bench_record({"erasure_success": erasure_rate, "repetition_success": repetition_rate})
    assert erasure_rate > repetition_rate


def test_ablation_threshold_scheme_overhead(bench_record):
    """Shamir-based threshold DELTA costs far more per packet than XOR DELTA."""

    def run():
        model = OverheadModel()
        xor_bits = (2 * model.key_bits)  # component + decrease field
        sender = ThresholdDeltaSender(10, loss_threshold=0.25, rng=random.Random(0))
        packets = [max(2, round(r)) for r in [5, 3, 4, 6, 9, 13, 20, 30, 45, 67]]
        sender.begin_slot(0, packets)
        shares = sender.shares_for_packet(1)
        shamir_bits = shares.share_bits(model.key_bits)
        return xor_bits, shamir_bits

    xor_bits, shamir_bits = run()
    print("\nAblation — worst-case per-packet key bits (group 1 packet, 10 groups)")
    print(
        format_table(
            ["instantiation", "bits per packet"],
            [("XOR (Figure 4)", xor_bits), ("Shamir threshold (§3.1.2)", shamir_bits)],
        )
    )
    bench_record({"xor_bits": xor_bits, "shamir_bits": shamir_bits})
    assert shamir_bits > 3 * xor_bits
