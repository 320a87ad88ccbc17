//! End-to-end experiment orchestration: world → target extraction → source
//! planning → schedule → scan → log snapshot.
//!
//! [`Experiment::run`] performs the entire §3 methodology against a
//! generated world and returns an [`ExperimentData`] from which every §4–§5
//! analysis can be computed via [`ExperimentData::input`].

use crate::observe;
use crate::pass::ProbePass;
use crate::qname::QnameCodec;
use crate::scanner::{HumanNoise, Scanner, ScannerConfig, ScannerStats};
use crate::schedule::{self, ScheduleMode};
use crate::shard::{self, ScanArtifacts};
use crate::targets::TargetSet;
use bcd_dns::QueryLogEntry;
use bcd_dnswire::RCode;
use bcd_netsim::{stream_seed, FlightRecorder, NetCounters, SimDuration, SimTime, Trace};
use bcd_obs::report::names;
use bcd_obs::{Det, ObsEnv, RunObservation, RunProfile};
use bcd_worldgen::{World, WorldConfig};
use std::net::IpAddr;
use std::sync::Arc;
use std::time::Instant;

/// Experiment parameters (§3.4–§3.5 knobs).
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    pub world: WorldConfig,
    /// Scan window (auto-extended by the rate cap when needed). The paper
    /// ran four weeks; the simulation compresses the window — all analyses
    /// are time-scale-free except the lifetime filter, which keeps its
    /// absolute 10 s threshold.
    pub window: SimDuration,
    /// Global probe rate cap (the paper's administrative 700 qps).
    pub rate: u32,
    /// Authoritative-log poll interval (real-time follow-up latency).
    pub poll_interval: SimDuration,
    /// Follow-up queries per family (the paper's 10).
    pub followups_per_family: usize,
    /// §3.6.3 lifetime threshold.
    pub lifetime_threshold: SimDuration,
    /// Experiment keyword (the `kw` label).
    pub keyword: String,
    /// Extra simulation time after the last scheduled probe, to let
    /// follow-ups, retries, and human-noise queries drain.
    pub drain: SimDuration,
    /// §3.8 opt-outs honoured mid-campaign: `(when received, prefix)`.
    pub opt_outs: Vec<(SimTime, bcd_netsim::Prefix)>,
    /// §3.4 interruptions: `(start, duration)` windows with no probing.
    pub outages: Vec<(SimTime, SimDuration)>,
    /// Restrict the scan to these source categories (None = all five).
    /// Drives the Table 3 ablation: what coverage does each category buy?
    pub category_filter: Option<Vec<crate::sources::SourceCategory>>,
    /// Experiment-zone answer mode: NXDOMAIN (the paper's choice, with its
    /// §3.6.4 QNAME-minimization blind spot) or the wildcard synthesis the
    /// paper proposes for a future run. The ablation binary compares both.
    pub wildcard_zone: bool,
    /// Number of parallel survey shards (see [`crate::shard`]). Probes are
    /// partitioned by destination AS and run on one engine per shard;
    /// results merge deterministically, so every analysis and report is
    /// byte-identical for 1 and N shards. 1 = classic single-engine run.
    /// The constructors honour the `BCD_SHARDS` environment variable, which
    /// is how CI runs the whole test suite sharded.
    pub shards: usize,
    /// Worker threads executing the shard partitions (work stealing: idle
    /// workers claim the next unstarted shard, so an imbalanced partition
    /// no longer idles cores). 0 = one worker per available core, capped at
    /// the shard count. The partition itself — and therefore every byte of
    /// output — depends only on `shards`; `workers` is pure execution
    /// parallelism. The constructors honour `BCD_WORKERS`.
    pub workers: usize,
    /// Deterministic keep-1-in-N subsample of the target population
    /// (`None` = the full §3.1 list). The kept set is a hash of the
    /// canonical target address, so it is identical for any shard layout.
    /// Survey-tier batch jobs use this to bound the probe count over the
    /// full 62k-AS world (the CI `survey-smoke` job).
    pub target_sample: Option<u64>,
    /// Schedule constructor: the streaming per-shard lane build (default)
    /// or the legacy-shaped global oracle. The two are byte-equal (the
    /// differential suite proves it); `Global` exists only so that claim
    /// stays checkable. The constructors honour `BCD_SCHEDULE=global`.
    pub schedule_mode: ScheduleMode,
}

impl ExperimentConfig {
    /// Full-shape defaults over a paper-shape world.
    pub fn paper_shape(seed: u64) -> ExperimentConfig {
        ExperimentConfig {
            world: WorldConfig::paper_shape(seed),
            window: SimDuration::from_hours(2),
            rate: 700,
            poll_interval: SimDuration::from_secs(60),
            followups_per_family: 10,
            lifetime_threshold: SimDuration::from_secs(10),
            keyword: "x7".into(),
            drain: SimDuration::from_hours(4),
            opt_outs: Vec::new(),
            outages: Vec::new(),
            category_filter: None,
            wildcard_zone: false,
            shards: shard::shards_from_env().unwrap_or(1),
            workers: shard::workers_from_env().unwrap_or(0),
            target_sample: None,
            schedule_mode: schedule::mode_from_env().unwrap_or_default(),
        }
    }

    /// Small and fast, for tests.
    pub fn tiny(seed: u64) -> ExperimentConfig {
        ExperimentConfig {
            world: WorldConfig::tiny(seed),
            window: SimDuration::from_mins(20),
            ..ExperimentConfig::paper_shape(seed)
        }
    }
}

/// Everything the analyses need, owned.
pub struct ExperimentData {
    /// The immutable generated world, shared with any still-live shard
    /// engines (all of them are gone by the time `run` returns).
    pub world: Arc<World>,
    /// The extracted target set, shared with every shard's scanner (the
    /// compact schedule's target indices point into it).
    pub targets: Arc<TargetSet>,
    pub codec: QnameCodec,
    /// Snapshot of the experiment estate's query log.
    pub entries: Vec<QueryLogEntry>,
    pub scanner_stats: ScannerStats,
    /// Responses received at the scanner's real addresses.
    pub scanner_responses: Vec<(SimTime, IpAddr, RCode)>,
    /// All public DNS addresses (v4 + v6), for middlebox attribution.
    pub public_dns: Vec<IpAddr>,
    /// Total engine events processed, summed over all shards.
    pub events: u64,
    /// Packet counters, summed over all shards.
    pub counters: NetCounters,
    /// True if any shard hit its event budget.
    pub budget_exhausted: bool,
    /// Deliver events still queued at the horizon, summed over all shards
    /// (in-flight packets the conservation invariant must account for).
    pub pending_deliveries: u64,
    /// Merged packet capture, when the world config enables one.
    pub trace: Option<Trace>,
    /// Merged causal span flight recorder, when the run armed one
    /// (`BCD_TRACE` or [`ObsEnv::with_trace`]). Byte-identical to a
    /// single-shard recorder at any shard count (see
    /// [`bcd_netsim::FlightRecorder`]'s merge contract).
    pub flight: Option<FlightRecorder>,
    /// The run's observability artifact: phase profile, deterministic
    /// aggregate metrics, per-shard slices (see [`bcd_obs`]). Callers may
    /// append their own phases (analysis, report) before exporting.
    pub obs: RunObservation,
    pub cfg: ExperimentConfig,
}

impl ExperimentData {
    /// Borrow an [`crate::analysis::AnalysisInput`] over this data.
    pub fn input(&self) -> crate::analysis::AnalysisInput<'_> {
        crate::analysis::AnalysisInput {
            log: &self.entries,
            codec: &self.codec,
            targets: &self.targets,
            routes: self.world.topo.routes(),
            geo: &self.world.geo,
            scanner_v4: self.world.scanner.v4,
            scanner_v6: self.world.scanner.v6,
            public_dns: &self.public_dns,
            lifetime_threshold: self.cfg.lifetime_threshold,
        }
    }
}

/// The experiment runner.
pub struct Experiment;

/// RNG stream id for the human-noise salt (shared by every shard).
pub(crate) const NOISE_SALT_STREAM: u64 = 0x4855_4D41_4E5F_4E53; // "HUMAN_NS"

/// RNG stream base for per-shard engine (link-fault) noise.
const SHARD_NOISE_STREAM: u64 = 0x5348_4152_4400_0000; // "SHARD"

/// RNG stream id for the schedule's per-target hash salt (plans, phases,
/// sampling — shared by every shard and, crucially, by *both* measurement
/// methods: the CRP pass ([`crate::crp`]) derives its source plans from the
/// same salt, which is what makes the two methods probe identical
/// (src, dst) pairs).
pub(crate) const SCHEDULE_SALT_STREAM: u64 = 0x5343_4845_4455_4C45; // "SCHEDULE"

impl Experiment {
    /// Run the full methodology and return the collected data.
    ///
    /// With `cfg.shards > 1` the schedule is partitioned by destination AS
    /// (see [`crate::shard`]) and each shard runs on its own thread. The
    /// world is generated exactly once; every shard spawns a cheap
    /// [`bcd_worldgen::WorldRuntime`] over the same shared
    /// `Arc<Topology>`. Outcomes merge deterministically, so the returned
    /// data — and everything rendered from it — is byte-identical to a
    /// single-shard run.
    pub fn run(cfg: ExperimentConfig) -> ExperimentData {
        Experiment::run_observed(cfg, &ObsEnv::from_env())
    }

    /// [`Experiment::run`] with explicit observability switches (tests and
    /// benches pass [`ObsEnv::disabled`] to stay environment-independent).
    ///
    /// The returned data always carries a populated
    /// [`ExperimentData::obs`] — assembling it is a per-run-boundary cost,
    /// not a hot-path one. `env` only controls the *sinks*: the JSONL
    /// export (written here when `BCD_OBS` names a path) and the scanner's
    /// stderr heartbeat.
    pub fn run_observed(cfg: ExperimentConfig, env: &ObsEnv) -> ExperimentData {
        let mut profile = RunProfile::new();
        // Phase-transition heartbeat: the scanner's per-probe heartbeat only
        // covers shard-run, so the orchestrator announces the other phases.
        let announce = |name: &str| {
            if env.progress_every.is_some() {
                eprintln!("[bcd] phase {name}");
            }
        };
        announce("worldgen-build");
        let t0 = Instant::now();
        let mut world = bcd_worldgen::build::build(cfg.world.clone());
        if cfg.wildcard_zone {
            bcd_worldgen::build::set_experiment_zone_wildcard(&mut world);
        }
        profile.record("worldgen-build", t0.elapsed());

        // §3.1: extract targets from the DITL trace (or, for worlds built
        // with the streaming pipeline, from the pre-deduplicated candidate
        // list — the two paths yield identical target sets).
        announce("target-extract");
        let t0 = Instant::now();
        let targets = if world.cfg.materialize_ditl {
            TargetSet::extract(&world.ditl2019, world.topo.routes())
        } else {
            TargetSet::from_candidates(&world.ditl_candidates, world.topo.routes())
        };
        profile.record("target-extract", t0.elapsed());
        let targets = Arc::new(targets);

        // Worldgen ran once; from here on the world is frozen and shared.
        let world = Arc::new(world);

        announce("schedule-census");
        let t0 = Instant::now();
        let mut pass = ProbePass::plan(&cfg, &world, &targets, cfg.category_filter.as_deref());
        profile.record("schedule-census", t0.elapsed());

        let codec = QnameCodec::new(&world.auth.apex, &cfg.keyword);

        announce("schedule-build");
        let t0 = Instant::now();
        pass.build();
        profile.record("schedule-build", t0.elapsed());

        // §3.3/§3.5: codec + scanner node at the reserved vantage in every
        // shard (apex and keyword are seed-determined, so every shard
        // encodes identically).
        announce("shard-run");
        let human_noise = (cfg.world.human_lookup_fraction > 0.0).then(|| HumanNoise {
            probability: cfg.world.human_lookup_fraction,
            delay: SimDuration::from_secs(cfg.world.human_lookup_delay_secs),
        });
        let t0 = Instant::now();
        let outcomes = pass.run(
            "shard",
            SHARD_NOISE_STREAM,
            env.trace.as_ref(),
            &mut profile,
            |sid, wrt, schedule| {
                Box::new(Scanner::new(ScannerConfig {
                    v4: world.scanner.v4,
                    v6: world.scanner.v6,
                    codec: codec.clone(),
                    schedule,
                    targets: targets.clone(),
                    topo: world.topo.clone(),
                    poll_interval: cfg.poll_interval,
                    log: wrt.log.clone(),
                    followups_per_family: cfg.followups_per_family,
                    lab_v4: world.auth.lab_v4,
                    lab_v6: world.auth.lab_v6,
                    human_noise,
                    noise_salt: stream_seed(cfg.world.seed, NOISE_SALT_STREAM),
                    opt_outs: cfg.opt_outs.clone(),
                    outages: cfg.outages.clone(),
                    progress: env.progress_every.map(|every| (every, sid)),
                }))
            },
            |wrt, host| {
                let scanner = wrt.net.node_mut::<Scanner>(host).expect("scanner node");
                let scanner_stats = scanner.stats.clone();
                let mut responses = std::mem::take(&mut scanner.responses);
                responses.sort_by_key(|r| (r.0, r.1));
                let dns = observe::dns_totals(&wrt.net);
                let trace = wrt.net.trace.take();
                let metrics = observe::shard_registry(
                    &wrt.net.counters,
                    wrt.net.events_processed(),
                    &dns,
                    &scanner_stats,
                    trace.as_ref(),
                );
                ScanArtifacts {
                    scanner_stats,
                    responses,
                    dns,
                    metrics,
                    trace,
                    flight: wrt.net.take_flight(),
                }
            },
        );
        profile.record("shard-pool", t0.elapsed());
        let per_shard: Vec<bcd_obs::MetricsRegistry> =
            outcomes.iter().map(|o| o.extract.metrics.clone()).collect();
        announce("merge");
        let t0 = Instant::now();
        let merged = shard::merge_outcomes(outcomes);
        let scan = merged.extract;
        profile.record("merge", t0.elapsed());

        // Deterministic aggregate from the *merged* artifacts; the fold of
        // the per-shard layout slices fills in whatever the stable side
        // does not claim. Drops are only deterministic when no stochastic
        // link faults ran (see `observe::stable_aggregate`).
        let loss_free = cfg.world.link_loss == 0.0 && cfg.world.chaos.is_none();
        let mut aggregate = observe::stable_aggregate(
            &merged.entries,
            &scan.scanner_stats,
            &scan.responses,
            &scan.dns,
            &world,
            &targets,
            loss_free.then_some(&merged.counters),
        );
        // Schedule-construction accounting: probe totals and lane geometry
        // are pure functions of (seed, population, rate) — fully stable.
        aggregate.add_counter(names::SCHEDULE_PROBES, &[], Det::Stable, pass.census.total);
        aggregate.add_counter(
            names::SCHEDULE_TARGETS,
            &[],
            Det::Stable,
            pass.census.sampled_targets,
        );
        aggregate.add_counter(
            names::SCHEDULE_LANES,
            &[],
            Det::Stable,
            pass.census.occupied_lanes() as u64,
        );
        aggregate.add_counter(
            names::SCHEDULE_END_SECS,
            &[],
            Det::Stable,
            pass.sched_end.as_secs(),
        );
        // Run-level bounded-window accounting, claimed from the *merged*
        // artifacts before the per-shard fold so the folded sums (which
        // double-count per-shard warmup capture) cannot shadow them.
        if let Some(t) = &scan.trace {
            aggregate.add_counter(names::TRACE_CAPTURED, &[], Det::Layout, t.len() as u64);
            aggregate.add_counter(names::TRACE_EVICTED, &[], Det::Layout, t.evicted);
        }
        // Causal-span counters are shard-invariant (canonical-order
        // eviction; warmup is never traced) — but span *details* include
        // fault fates, so they only enter the deterministic surface when no
        // stochastic link faults ran.
        if let Some(f) = &scan.flight {
            let det = if loss_free { Det::Stable } else { Det::Layout };
            aggregate.add_counter(names::SPAN_RECORDED, &[], det, f.recorded());
            aggregate.add_counter(names::SPAN_RETAINED, &[], det, f.len() as u64);
            aggregate.add_counter(names::SPAN_EVICTED, &[], det, f.evicted());
            aggregate.add_counter(names::SPAN_TRACES, &[], det, f.traces().len() as u64);
        }
        aggregate.absorb_new(&scan.metrics);
        let obs = RunObservation {
            seed: cfg.world.seed,
            shards: pass.shards,
            profile,
            aggregate,
            per_shard,
        };
        if let Some(path) = &env.jsonl_path {
            if let Err(e) = obs.write_jsonl(path) {
                eprintln!("[bcd] BCD_OBS export to {} failed: {e}", path.display());
            }
        }
        if let (Some(flight), Some(path)) = (
            &scan.flight,
            env.trace.as_ref().and_then(|t| t.chrome_out.as_ref()),
        ) {
            let json = bcd_obs::chrome_trace_json(flight, &obs.profile);
            let write = || -> std::io::Result<()> {
                if let Some(parent) = path.parent() {
                    if !parent.as_os_str().is_empty() {
                        std::fs::create_dir_all(parent)?;
                    }
                }
                std::fs::write(path, json)
            };
            if let Err(e) = write() {
                eprintln!("[bcd] BCD_TRACE export to {} failed: {e}", path.display());
            }
        }

        let public_dns: Vec<IpAddr> = world
            .public_dns_v4
            .iter()
            .chain(&world.public_dns_v6)
            .copied()
            .collect();

        ExperimentData {
            world,
            targets,
            codec,
            entries: merged.entries,
            scanner_stats: scan.scanner_stats,
            scanner_responses: scan.responses,
            public_dns,
            events: merged.events,
            counters: merged.counters,
            budget_exhausted: merged.budget_exhausted,
            pending_deliveries: merged.pending_deliveries,
            trace: scan.trace,
            flight: scan.flight,
            obs,
            cfg,
        }
    }
}
