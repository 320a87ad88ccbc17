//! The probe pass both measurement methods share (§3.2–§3.5): plan a
//! rate-capped schedule over the target set, run it on AS-sharded engines,
//! and hand back the per-shard artifacts for the shard-id-order merge
//! ([`shard::merge_outcomes`]).
//!
//! The paper's outbound survey ([`crate::experiment`]) and the inbound CRP
//! scan ([`crate::crp`]) differ only in their source-category filter, the
//! scanner node at the vantage, that node's RNG streams, and what each
//! finished shard yields. Census, lane layout, lane → shard map, worker
//! pool, horizon, spawn, run and log extraction live here once.

use crate::experiment::{ExperimentConfig, SCHEDULE_SALT_STREAM};
use crate::schedule::{self, LaneLayout, Schedule, ScheduleCensus, ScheduleMode};
use crate::shard::{self, ShardOutcome};
use crate::sources::SourceCategory;
use crate::targets::TargetSet;
use bcd_netsim::{stream_seed, HostConfig, HostId, Node, SimDuration, SimTime, StackPolicy};
use bcd_obs::{RunProfile, TraceConfig};
use bcd_worldgen::{World, WorldRuntime};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Run `f(0..n)` on a work-stealing pool of `n_workers` threads (the
/// calling thread is worker 0) and return the results in index order.
/// Used for both parallel phases — per-shard schedule construction and the
/// shard runs; claim order is scheduling-dependent, results are not.
fn run_pool<T: Send>(n_workers: usize, n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let next = std::sync::atomic::AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    {
        let worker = || loop {
            let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if i >= n {
                break;
            }
            let out = f(i);
            *slots[i].lock().unwrap() = Some(out);
        };
        std::thread::scope(|s| {
            for wid in 1..n_workers.min(n.max(1)) {
                std::thread::Builder::new()
                    .name(format!("bcd-worker-{wid}"))
                    .spawn_scoped(s, worker)
                    .expect("spawn worker thread");
            }
            worker();
        });
    }
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap()
                .expect("pool slot missing — worker panicked?")
        })
        .collect()
}

/// One method's probe pass over a shared world and target set.
pub(crate) struct ProbePass<'a> {
    cfg: &'a ExperimentConfig,
    world: &'a Arc<World>,
    targets: &'a Arc<TargetSet>,
    filter: Option<&'a [SourceCategory]>,
    /// Probe counts per lane; fixes the window extension and the lane map.
    pub census: ScheduleCensus,
    layout: LaneLayout,
    lane_shard: Vec<Option<usize>>,
    /// Effective shard count (clamped to the occupied lanes).
    pub shards: usize,
    workers: usize,
    /// One schedule slice per shard, once [`ProbePass::build`] ran.
    parts: Vec<Schedule>,
    /// Latest scheduled probe over all shards.
    pub sched_end: SimTime,
    /// Horizon every shard simulates to.
    run_until: SimTime,
}

impl<'a> ProbePass<'a> {
    /// §3.2 + §3.4 census: count every probe (per-target plan lengths, no
    /// RNG, no allocation) to fix the window extension, the lane occupancy
    /// and the lane → shard map before any schedule memory exists.
    /// Streaming and global constructors consume the same census, so they
    /// agree on the geometry by construction. Both methods derive their
    /// plans from the same schedule salt, which is what makes them probe
    /// identical (src, dst) pairs.
    pub fn plan(
        cfg: &'a ExperimentConfig,
        world: &'a Arc<World>,
        targets: &'a Arc<TargetSet>,
        filter: Option<&'a [SourceCategory]>,
    ) -> ProbePass<'a> {
        let salt = stream_seed(cfg.world.seed, SCHEDULE_SALT_STREAM);
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
        let (lane_shard, shards) = shard::assign_lanes(&census.lane_counts, cfg.shards.max(1));
        let workers = if cfg.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            cfg.workers
        }
        .clamp(1, shards);
        ProbePass {
            cfg,
            world,
            targets,
            filter,
            census,
            layout,
            lane_shard,
            shards,
            workers,
            parts: Vec::new(),
            sched_end: SimTime::ZERO,
            run_until: SimTime::ZERO,
        }
    }

    /// §3.4: per-shard streaming schedule construction. Each shard derives
    /// only its own lanes' probes (plans and phases are hashes of the
    /// canonical target bytes) and smooths them under the lanes' own rate
    /// quotas — the global query vec is never materialized.
    /// `BCD_SCHEDULE=global` swaps in the legacy-shaped oracle, which
    /// *does* materialize it, then partitions along the same lane map; the
    /// two are byte-equal (tests/schedule_stream.rs).
    pub fn build(&mut self) {
        let (world, targets) = (self.world, self.targets);
        self.parts = match self.cfg.schedule_mode {
            ScheduleMode::Streaming => run_pool(self.workers, self.shards, |sid| {
                Schedule::build_lanes(
                    targets,
                    world.topo.routes(),
                    &world.v6_hitlist,
                    self.filter,
                    &shard::lanes_of_shard(&self.lane_shard, sid),
                    &self.census,
                    &self.layout,
                )
            }),
            ScheduleMode::Global => Schedule::build_global(
                targets,
                world.topo.routes(),
                &world.v6_hitlist,
                self.filter,
                &self.census,
                &self.layout,
            )
            .partition_by_lane(targets, &self.lane_shard, self.shards),
        };
        debug_assert_eq!(
            self.parts.iter().map(|p| p.len() as u64).sum::<u64>(),
            self.census.total
        );
        // Run the scan plus drain time (outages push the real end out, the
        // paper's "longer than the four weeks we had planned"). All shards
        // simulate the same horizon — the *global* schedule end, which is
        // the max over the per-shard ends.
        self.sched_end = self
            .parts
            .iter()
            .map(|p| p.end)
            .max()
            .unwrap_or(SimTime::ZERO);
        let outages = self
            .cfg
            .outages
            .iter()
            .fold(SimDuration::ZERO, |acc, (_, len)| acc + *len);
        self.run_until = self.sched_end + outages + self.cfg.drain;
    }

    /// Run every shard's slice of the built schedule on the work-stealing
    /// pool and return the outcomes in shard-id order.
    ///
    /// Each worker claims the next unstarted shard, spawns its own runtime
    /// (fresh nodes + logs) over the shared topology, attaches the method's
    /// `scanner` at the vantage, reseeds the engine's link-fault noise from
    /// `noise_stream ^ shard id`, arms the flight recorder when `trace` is
    /// set, runs to the horizon, and snapshots the canonically sorted log,
    /// the engine counters and whatever `extract` takes from the runtime and
    /// the scanner's host. Claim order is scheduling-dependent, but each
    /// shard's simulation is self-contained, so output bytes depend only on
    /// the shard count.
    ///
    /// Per-shard walls land in `profile` as `{phase}-spawn`, `{phase}-run`
    /// (with the sim horizon) and `{phase}-extract`; the caller records the
    /// top-level phase that encloses them.
    pub fn run<T: Send>(
        &mut self,
        phase: &str,
        noise_stream: u64,
        trace: Option<&TraceConfig>,
        profile: &mut RunProfile,
        scanner: impl Fn(usize, &WorldRuntime, Schedule) -> Box<dyn Node> + Sync,
        extract: impl Fn(&mut WorldRuntime, HostId) -> T + Sync,
    ) -> Vec<ShardOutcome<T>> {
        let (world, targets) = (self.world, self.targets);
        let (seed, run_until) = (self.cfg.world.seed, self.run_until);
        let parts: Vec<Mutex<Option<Schedule>>> = std::mem::take(&mut self.parts)
            .into_iter()
            .map(|p| Mutex::new(Some(p)))
            .collect();
        assert_eq!(parts.len(), self.shards, "probe pass run before build");
        let runs = run_pool(self.workers, self.shards, |sid| {
            let schedule = parts[sid]
                .lock()
                .unwrap()
                .take()
                .expect("shard partition claimed twice");
            let t0 = Instant::now();
            // Lazy spawn: this shard's schedule names every destination AS
            // it will ever touch, so hosts elsewhere (other shards' measured
            // ASes) are spawned as sinks. Infra/public-DNS/scanner ASes are
            // always live — `spawn_for` adds them unconditionally.
            let owned: std::collections::HashSet<bcd_netsim::Asn> = (0..schedule.len())
                .map(|i| targets.get(schedule.target_index(i) as usize).asn)
                .collect();
            let mut wrt = world.spawn_for(Some(&owned));
            // The scanner is a runtime-local host: it rides on top of the
            // shared topology (same host id and RNG stream in every shard)
            // without mutating it.
            let node = scanner(sid, &wrt, schedule);
            let host = wrt.net.add_host(
                HostConfig {
                    addrs: vec![world.scanner.v4, world.scanner.v6],
                    asn: world.scanner.asn,
                    stack: StackPolicy::strict(),
                },
                node,
            );
            // Per-shard stream for the engine's link-fault noise; host
            // streams stay seed-derived (see `bcd_netsim::stream_seed`),
            // which is what keeps per-target behaviour shard-invariant.
            wrt.net
                .reseed_noise(stream_seed(seed, noise_stream ^ sid as u64));
            // Arm the causal flight recorder after spawn so warmup resolver
            // traffic (which repeats in every shard) can never be sampled
            // into it.
            if let Some(t) = trace {
                wrt.net.arm_flight_sampled(t.capacity, t.sample.clone());
            }
            let spawn = t0.elapsed();
            let t0 = Instant::now();
            wrt.net.run_until(run_until);
            let run = t0.elapsed();
            let t0 = Instant::now();
            // Pre-sort this shard's log canonically so the merge can absorb
            // it with a streaming k-way pass instead of a global re-sort.
            // The sort runs here — inside the parallel shard phase — not on
            // the merge thread.
            let mut entries = wrt.log.borrow().entries().to_vec();
            shard::canonical_sort(&mut entries);
            let extract = extract(&mut wrt, host);
            let outcome = ShardOutcome {
                entries,
                counters: wrt.net.counters.clone(),
                events: wrt.net.events_processed(),
                budget_exhausted: wrt.net.budget_exhausted,
                pending_deliveries: wrt.net.pending_deliveries(),
                extract,
            };
            (outcome, [spawn, run, t0.elapsed()])
        });
        runs.into_iter()
            .enumerate()
            .map(|(sid, (outcome, [spawn, run, extract]))| {
                profile.record_shard_phase(&format!("{phase}-spawn"), sid, spawn);
                profile.record_shard(&format!("{phase}-run"), sid, run, run_until);
                profile.record_shard_phase(&format!("{phase}-extract"), sid, extract);
                outcome
            })
            .collect()
    }
}
