//! Shard-count invariance of the observability layer itself.
//!
//! The `bcd-obs` contract (ISSUE acceptance): the deterministic metric
//! export and the deterministic run report are **byte-identical** for
//! `BCD_SHARDS` ∈ {1, 4, 8} at the same seed — wall-clock and layout-class
//! records are excluded by construction, so what remains must not betray
//! how the run was split. This is the metrics-side companion of
//! `shard_equivalence.rs` (which pins the analysis renders).

use bcd_core::{run_dual, schedule, shard};
use bcd_core::{Experiment, ExperimentConfig, LaneLayout, Schedule, CRP_CATEGORIES};
use bcd_netsim::stream_seed;
use bcd_obs::report::{names, render_run_report_deterministic};
use bcd_obs::{deterministic_jsonl, full_jsonl, ObsEnv};
use std::time::Instant;

/// The RNG stream of the schedule's per-target hash salt. Mirrors
/// `bcd_core::experiment::SCHEDULE_SALT_STREAM`, which is crate-private.
const SCHEDULE_SALT_STREAM: u64 = 0x5343_4845_4455_4C45; // "SCHEDULE"

fn run(seed: u64, shards: usize) -> (String, String, bcd_core::ExperimentData) {
    let mut cfg = ExperimentConfig::tiny(seed);
    cfg.shards = shards;
    let data = Experiment::run_observed(cfg, &ObsEnv::disabled());
    (
        deterministic_jsonl(&data.obs),
        render_run_report_deterministic(&data.obs),
        data,
    )
}

#[test]
fn deterministic_jsonl_and_report_are_shard_count_invariant() {
    for seed in [11u64, 2019] {
        let (jsonl1, report1, data1) = run(seed, 1);
        // The run actually measured something.
        let agg = &data1.obs.aggregate;
        assert!(agg.counter(names::SCANNER_SPOOFED, &[]) > 0);
        assert!(agg.counter(names::LOG_ENTRIES, &[]) > 0);
        assert!(agg.counter(names::DNS_CLIENT_QUERIES, &[]) > 0);
        assert!(agg.gauge(names::WORLD_HOSTS, &[]) > 0);
        assert!(jsonl1.lines().count() > 10, "suspiciously thin export");
        for line in jsonl1.lines() {
            assert!(
                line.contains("\"det\":true"),
                "non-deterministic record leaked into the deterministic export: {line}"
            );
        }
        for shards in [4usize, 8] {
            let (jsonl_n, report_n, data_n) = run(seed, shards);
            assert_eq!(
                jsonl1, jsonl_n,
                "deterministic JSONL differs between 1 and {shards} shards at seed {seed}"
            );
            assert_eq!(
                report1, report_n,
                "deterministic run report differs between 1 and {shards} shards at seed {seed}"
            );
            // Bounded-window eviction counters are shard-invariant by
            // construction (canonical-order eviction in the flight
            // recorder; run-level claims for the packet-capture ring) —
            // differing counts here would mean the windows retained
            // different spans at different layouts.
            for name in [
                names::TRACE_EVICTED,
                names::TRACE_CAPTURED,
                names::SPAN_EVICTED,
                names::SPAN_RECORDED,
            ] {
                assert_eq!(
                    data1.obs.aggregate.counter(name, &[]),
                    data_n.obs.aggregate.counter(name, &[]),
                    "{name} differs between 1 and {shards} shards at seed {seed}"
                );
            }
            // The layout surface, by contrast, really is per-shard: the
            // full export records one slice per effective shard.
            assert_eq!(data_n.obs.per_shard.len(), data_n.obs.shards);
            assert!(data_n.obs.shards > 1, "tiny world clamped to one shard");
            assert!(full_jsonl(&data_n.obs).lines().count() > jsonl_n.lines().count());
        }
    }
}

#[test]
fn profile_records_every_pipeline_phase() {
    let (_, _, data) = run(11, 4);
    let phases: Vec<&str> = data
        .obs
        .profile
        .phases
        .iter()
        .map(|p| p.name.as_str())
        .collect();
    for expect in ["worldgen-build", "schedule-build", "shard-run", "merge"] {
        assert!(
            phases.contains(&expect),
            "missing phase {expect}: {phases:?}"
        );
    }
    let shard_runs = data
        .obs
        .profile
        .phases
        .iter()
        .filter(|p| p.name == "shard-run")
        .count();
    assert_eq!(shard_runs, data.obs.shards);
    assert!(data.obs.profile.sim_horizon().is_some());
}

#[test]
fn dual_profile_total_fits_elapsed_and_nests_crp_shard_phases() {
    let mut cfg = ExperimentConfig::tiny(11);
    cfg.shards = 4;
    cfg.workers = 2;
    let t0 = Instant::now();
    let dual = run_dual(cfg.clone(), &ObsEnv::disabled());
    let elapsed = t0.elapsed();
    let profile = &dual.a.obs.profile;
    // Shard phases overlap on the worker pool; the total counts only the
    // top-level phases that enclose them, which run one after another.
    assert!(
        profile.total_wall() <= elapsed,
        "profile total {:?} exceeds the {:?} the run took",
        profile.total_wall(),
        elapsed
    );

    // Re-plan the CRP pass from the public schedule API to learn its shard
    // count and horizon independently of the driver.
    let (world, targets) = (&dual.a.world, &dual.a.targets);
    let salt = stream_seed(cfg.world.seed, SCHEDULE_SALT_STREAM);
    let filter = Some(&CRP_CATEGORIES[..]);
    let census = schedule::census(
        targets,
        world.topo.routes(),
        &world.v6_hitlist,
        filter,
        schedule::lane_count(cfg.rate),
        salt,
        cfg.target_sample,
    );
    let layout = LaneLayout::new(cfg.rate, cfg.window, census.total, salt, cfg.target_sample);
    let (_, shards) = shard::assign_lanes(&census.lane_counts, cfg.shards);
    let global = Schedule::build_global(
        targets,
        world.topo.routes(),
        &world.v6_hitlist,
        filter,
        &census,
        &layout,
    );
    assert!(cfg.outages.is_empty());
    let horizon = global.end + cfg.drain;

    let runs: Vec<_> = profile
        .phases
        .iter()
        .filter(|p| p.name == "crp-shard-run")
        .collect();
    assert!(shards > 1, "tiny CRP pass clamped to one shard");
    assert_eq!(runs.len(), shards, "one crp-shard-run per CRP shard");
    for (sid, p) in runs.iter().enumerate() {
        assert_eq!(p.shard, Some(sid));
        assert_eq!(p.sim_end, Some(horizon), "crp-shard-run[{sid}] horizon");
    }
    // Method A's pool and the CRP pass each enclose their shard phases.
    for name in ["shard-pool", "crp-run"] {
        let n = profile.phases.iter().filter(|p| p.name == name).count();
        assert_eq!(n, 1, "{name} recorded once");
    }
}
