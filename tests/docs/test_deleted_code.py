"""Deleted code stays deleted.

Each case names what was removed, a regular expression for it and the
directories (from the repository root) in which no line may match it, as
``git grep -E`` would read them.  This file spells every pattern out, so it
is the one file the search skips.
"""

import inspect
import re
from pathlib import Path

import pytest

from repro.adversary import ADVERSARIES
from repro.experiments import list_scenarios

REPO_ROOT = Path(__file__).resolve().parents[2]
THIS_FILE = Path(__file__).resolve()

DELETED = {
    # It lives on as the oracle in tests/simulator/test_link_oracle.py.
    "two-event link": (
        r"_transmission_complete|_start_next_transmission",
        ["src"],
    ),
    # A link schedules each delivery when its queue admits the packet.
    "drain event behind a queue": (
        r"\b_drain\b|_draining",
        ["src/repro/simulator"],
    ),
    # It lives on as the oracle in tests/fec/fec_oracle.py.
    "row-major FEC inner-product loop": (
        r"for coeff, (symbol|y) in zip",
        ["src/repro/fec"],
    ),
    # A population is a tuple of row counts; the CLI and the daemon start without it.
    "numpy": (
        r"\bnumpy\b",
        ["src"],
    ),
    # The batch runner and the daemon share JobExecutor.
    "second process pool": (
        r"AsyncJobPool|repro\.service\.pool",
        ["src", "tests", "docs", "tools"],
    ),
    # The dumbbell is one more topology.
    "dumbbell-only network, config, spec field or decode exception": (
        r"DumbbellNetwork|DumbbellConfig|for_fair_share|expected_sessions"
        r"|\bbottleneck_bps\b|\.dumbbell\(|_REJECT_UNKNOWN_KEYS",
        ["src", "tests", "examples", "docs", "tools"],
    ),
    # Each per-slot rule lives in the strategy or receiver that runs it.
    "decision module or batching contract": (
        r"multicast_cc\.decision|BATCHED_DECISION_RULES|COHORT_BATCHED_STRATEGIES"
        r"|DlDecision|ChurnAction",
        ["src", "tests", "docs", "tools"],
    ),
    # A figure is a registered grid and reducer.
    "hand-written figure wrapper or result dataclass": (
        r"\brun_(inflated_subscription_experiment|throughput_vs_sessions|responsiveness"
        r"|heterogeneous_rtt|convergence|measured_overhead|group_count_sweep"
        r"|slot_duration_sweep)\b|\b(InflatedSubscription|ThroughputVsSessions"
        r"|Responsiveness|RttFairness|Convergence|OverheadSweep|MeasuredOverhead)Result\b",
        ["src", "benchmarks", "tests", "examples"],
    ),
    # Only the DELTA variants a run can reach.
    "unreachable DELTA variant, ECN queue or copy-on-write header hook": (
        r"ECNMarkingQueue|EcnComponentScrambler|ecn_observation|local_delivery_hook"
        r"|mutable_headers|_owns_headers|ThresholdDelta|Shamir|QUEUE_DISCIPLINES"
        r"|Replicated(Sender|Receiver|DeltaSender|DeltaReceiver)|\bDelta(Sender|Receiver)\b"
        r"|\bKeyKind\b|combine_levels|keys_equal",
        ["src", "tests", "examples", "tools"],
    ),
    # Only what a run calls stays.
    "stop/restart machinery, un-coded key announcement or test-only helper": (
        r"PacketFactory|\bshortest_path\b|\buse_fec\b|_plain_packet|\.payload_bits\("
        r"|from_ints|store_key_values|has_keys_for|\bon_loss\b|\bon_attach\b"
        r"|\bhonest_baseline_kbps\(|bandwidth_shares|format_series_table"
        r"|_timer_group_leave|\b_stopped\b|\b_epoch\b",
        ["src", "tests", "examples", "tools"],
    ),
    # One warm-start path: sharded cells run cold, the daemon keeps its blobs in --cache-dir.
    "second warm-start path or last run_* wrapper": (
        r"verify_jobs|warm_blocks|_prefix_blobs|resolved_checkpoint_dir|blob_stat"
        r"|cache_get|checkpoint-dir|run_scale_protection_sweep",
        ["src", "tests", "examples", "tools"],
    ),
    # The daemon answers them as unknown ops (the tests send them on purpose).
    "store-inspection op": (
        r"cache-get|blob-stat",
        ["src"],
    ),
    # run_job reads every job document.
    "second worker entry point, region payload builder, unread counter or cold-only flag": (
        r"run_(spec|warm|checkpoint|region)_json|region_payloads|plan_overhead_s"
        r"|checkpoint_wall_s|no-warm-start",
        ["src", "tests", "examples", "tools"],
    ),
    # One scheduling pair without handles, one scenario constructor, only helpers a run calls.
    "cancellable event, second scheduling pair, imperative builder or test-only helper": (
        r"\bcall_after\b|\bcall_at\b|\bclass Event\b|Event\.cancel|engine import .*\bEvent\b"
        r"|_next_event|\bstart_on\b|add_(multicast_session|tcp_connection|onoff_cbr)"
        r"|(multicast|tcp)_average_kbps|has_members|out_links|leave_all|close_slot"
        r"|next_nonzero|\.batch\(|packets_per_slot_all_groups|delta_bits_for_packet"
        r"|sigma_bits_per_slot",
        ["src", "tests", "examples", "tools", "docs"],
    ),
    # A session declares its attacks (the paper's through paper_attacker); a spec has one run length.
    "attacker shorthand or the config's second run length": (
        r"misbehaving=|SessionDecl\.attack_start_s|\.attack_start_s\b"
        r"|\.with_duration\b|config\.duration_s",
        ["src", "examples"],
    ),
    # A value no run changes is a module constant beside the code that reads it.
    "single-valued knob": (
        r"SigmaConfig|max_events|graft_delay_s|prune_delay_s|bin_width|\bwidth_s\b|origin_s"
        r"|start_offset|increase_decay|base_upgrade_interval_s|symbols_per_packet"
        r"|initial_ssthresh|\bretained_slots\b",
        ["src", "tests", "docs", "examples", "tools"],
    ),
    # A planned cell's steps are runner.run_setup_jobs and run_cell_jobs; JobExecutor.run
    # is the one retry loop.
    "second cell pipeline or retry loop": (
        r"_execute_pending|_execute_cell|\b_collect\(|\b_RETRY\b",
        ["src"],
    ),
    # A packet is what the wire carries, and an agent may keep a delivered one.
    "packet pool or per-packet field no run reads": (
        r"PacketPool|acquire_blank|_packet_ids|hop_count|created_at|\.uid\b",
        ["src"],
    ),
    # A link's send() returns False for a packet its queue drops.
    "link drop hook": (
        r"on_drop",
        ["src", "tests"],
    ),
    # metrics, warmstart, shard and runner import each other at module level, in that order.
    "function-level import hiding a cycle": (
        r"^\s+from \.(runner|shard|warmstart|metrics) import",
        ["src/repro/experiments"],
    ),
    # The single-strategy duels are rows of attacks.DUELS, built by one function.
    "one builder per single-strategy duel": (
        r"def attack_(flapping|key_guessing|key_replay|join_storm|ignore_congestion)\b",
        ["src"],
    ),
    # Builders size their links from FAIR_SHARE_BPS and take no config.
    "builder config parameter or pass-through": (
        r"^\s+config(: ExperimentConfig)? ?= ?PAPER_DEFAULTS,$|config=config|^\s+config,$",
        ["src/repro/experiments"],
    ),
    # A strategy parameter's default is declared once, in the class's ``parameters``.
    "strategy parameter default at its call site": (
        r"self\.(param|rate)\([^)]*,",
        ["src/repro/adversary"],
    ),
    # The seed is the spec's, group count and key width a session's, the slot
    # length ScenarioSpec.slot_duration_s, and the rest of §5.1 module constants.
    "experiment config or its slot and session helpers": (
        r"ExperimentConfig|PAPER_DEFAULTS|experiments\.config|spec\.config\b|slot_s\("
        r"|flid_d[ls]_slot_s|session_spec\(",
        ["src", "tests", "examples", "docs", "tools"],
    ),
    # A scenario is a registry row; call it by name with scenario_spec.
    "public scenario builder": (
        r"\b((attack_(inflated|keys|collusion)_100k|attack_churn_flash_crowd|scale_dumbbell_1?0?m"
        r"|scale_overhead|inflated_subscription|throughput_vs_sessions|responsiveness"
        r"|rtt_fairness|convergence|measured_overhead)_spec|attack_(composite|collusion_parking_lot)"
        r"|(parking_lot_attack|star_fanout|tree_convergence)\b)\b",
        ["src", "tests", "examples", "docs", "tools"],
    ),
    # Both caches key by repro.code_digest(), not by a hand-kept version number.
    "hand-kept cache or checkpoint version": (
        r"(CACHE_SCHEMA|CHECKPOINT)_VERSION|_cache_version_\w+",
        ["src", "tests", "docs"],
    ),
    # ResultCache is the one store of a cache directory, blobs included, and
    # the one place its file names are spelled.
    "second store of the cache directory or second spelling of its names": (
        r"CheckpointStore|_store_files|_RESULT_NAME|_CHECKPOINT_NAME|_SIBLING_NAME"
        r"|publish_atomically|require_store_key",
        ["src", "tests", "docs", "tools", "examples"],
    ),
    # Jain's index has one name, in the analysis layer its one reducer reads.
    "second name of Jain's index": (
        r"jain_fairness",
        ["src", "tests", "docs", "tools", "examples"],
    ),
    # The declaration codec encodes and decodes a cohort's churn.
    "churn process's own codec": (
        r"ChurnProcess\.(to|from)_dict|churn\)?\.to_dict\(",
        ["src", "tests", "docs", "tools", "examples"],
    ),
}


def searched_files(directory):
    for path in sorted((REPO_ROOT / directory).rglob("*")):
        if path.is_file() and path != THIS_FILE and "__pycache__" not in path.parts:
            yield path


@pytest.mark.parametrize("what", list(DELETED))
def test_deleted_code_stays_deleted(what):
    pattern, directories = DELETED[what]
    regex = re.compile(pattern)
    hits = [
        f"{path.relative_to(REPO_ROOT)}:{number}: {line.strip()}"
        for directory in directories
        for path in searched_files(directory)
        for number, line in enumerate(path.read_text(errors="replace").splitlines(), 1)
        if regex.search(line)
    ]
    assert not hits, f"{what} came back: {hits}"


def test_no_builder_takes_a_config_and_strategies_declare_what_they_read():
    """A builder's config would be a second home for what a spec and its
    sessions declare (the seed, the layering); a parameter a strategy reads
    but does not declare has no checked value."""
    assert [entry.name for entry in list_scenarios() if "config" in entry.params] == []
    for name, cls in ADVERSARIES.items():
        read = set(re.findall(r"self\.(?:param|rate)\(\"(\w+)\"\)", inspect.getsource(cls)))
        assert read == set(cls.parameters), name
