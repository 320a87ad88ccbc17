//! The second, independent measurement method: a Closed Resolver Project
//! style *inbound* spoofed-probe scan.
//!
//! The paper's own methodology (§3, [`crate::experiment`]) infers a lack of
//! inbound source-address validation from *outbound* evidence: a spoofed
//! query that escapes the target AS and reaches our authoritative servers.
//! The Closed Resolver Project (Korczyński et al., the paper's closest
//! related work) measures the same property from the opposite direction:
//! send probes *into* each AS whose source addresses claim to be internal,
//! and classify the AS as lacking inbound SAV when any probe elicits a
//! resolution.
//!
//! This module implements that second method over the same simulated world
//! so the two can be cross-validated AS by AS
//! ([`crate::analysis::agreement`]):
//!
//! * **Shared stimuli** — the CRP pass runs through the experiment's
//!   probe-pass driver (`pass.rs`): the same streaming schedule machinery
//!   with the *same* seed-derived schedule salt, filtered to the internal
//!   source categories ([`CRP_CATEGORIES`]). Per-target
//!   source plans are hashes of the canonical target bytes
//!   ([`crate::sources::SourcePlan::build_deterministic`]), so both methods
//!   probe byte-identical `(src, dst)` pairs and the CRP pass is itself
//!   byte-identical across any `BCD_SHARDS` × `BCD_SCHED` layout.
//! * **Separate pass** — the CRP scan runs on its own engine runtimes over
//!   the same shared [`World`] and [`TargetSet`]. Nothing leaks between
//!   methods: method A's caches, logs, and RNG streams never see a CRP
//!   packet, so adding the CRP pass changes no method-A byte.
//! * **Own namespace** — CRP probes use their own keyword
//!   ([`crp_keyword`]), so a CRP log entry can never decode as a method-A
//!   probe or vice versa.

use crate::experiment::ExperimentConfig;
use crate::pass::ProbePass;
use crate::qname::{QnameCodec, SuffixKind};
use crate::scanner::{opted_out, outage_end, send_query, PROBE_TAG};
use crate::schedule::Schedule;
use crate::shard;
use crate::sources::SourceCategory;
use crate::targets::TargetSet;
use bcd_dns::QueryLogEntry;
use bcd_dnswire::{MessageView, WireWriter};
use bcd_netsim::{
    stream_seed, Merge, NetCounters, Node, NodeCtx, Packet, SimDuration, SimTime, Transport,
};
use bcd_obs::{Det, ObsEnv, RunProfile};
use bcd_worldgen::World;
use std::sync::Arc;

/// RNG stream id for the CRP scanner's packet-identity salt (txid/sport
/// derivation). Distinct from the experiment's noise stream so the two
/// methods' wire identities are independent.
const CRP_NOISE_STREAM: u64 = 0x4352_505F_4E4F_4953; // "CRP_NOIS"

/// RNG stream base for per-shard engine noise in the CRP pass.
const CRP_SHARD_NOISE_STREAM: u64 = 0x4352_5053_4844_0000; // "CRPSHD"

/// The source categories the inbound-SAV method probes: sources an AS
/// border *should* reject on ingress because they claim to originate
/// inside the AS (or inside the destination subnet, or the destination
/// itself). Loopback and private sources measure bogon filtering, not
/// inbound SAV, so the CRP pass omits them.
pub const CRP_CATEGORIES: [SourceCategory; 3] = [
    SourceCategory::OtherPrefix,
    SourceCategory::SamePrefix,
    SourceCategory::DstAsSrc,
];

/// The CRP pass's experiment keyword: method A's keyword with a `crp`
/// suffix, so each codec only decodes its own method's entries.
pub fn crp_keyword(kw: &str) -> String {
    format!("{kw}crp")
}

/// Counters for tests and reports.
#[derive(Debug, Default, Clone)]
pub struct CrpStats {
    pub probes_sent: u64,
    pub responses_received: u64,
    /// Probes suppressed by §3.8 opt-outs (honoured symmetrically).
    pub opted_out: u64,
    /// Walker wake-ups deferred by §3.4 outages.
    pub outage_deferrals: u64,
}

impl Merge for CrpStats {
    fn merge(&mut self, other: CrpStats) {
        self.probes_sent += other.probes_sent;
        self.responses_received += other.responses_received;
        self.opted_out += other.opted_out;
        self.outage_deferrals += other.outage_deferrals;
    }
}

/// Configuration for one shard's [`CrpScanner`] node.
struct CrpScannerConfig {
    codec: QnameCodec,
    schedule: Schedule,
    targets: Arc<TargetSet>,
    noise_salt: u64,
    opt_outs: Vec<(SimTime, bcd_netsim::Prefix)>,
    outages: Vec<(SimTime, SimDuration)>,
}

const TOK_WALK: u64 = 0;

/// The CRP measurement node: a plain schedule walker. No follow-up
/// batteries, no log polling, no human-noise injection — the inbound
/// method's verdict is read entirely from the authoritative log after the
/// run.
struct CrpScanner {
    cfg: CrpScannerConfig,
    next_query: usize,
    scratch: WireWriter,
    stats: CrpStats,
}

impl CrpScanner {
    fn new(cfg: CrpScannerConfig) -> CrpScanner {
        CrpScanner {
            cfg,
            next_query: 0,
            scratch: WireWriter::new(),
            stats: CrpStats::default(),
        }
    }

    fn emit_scheduled(&mut self, ctx: &mut NodeCtx<'_>) {
        let now = ctx.now();
        if let Some(end) = outage_end(&self.cfg.outages, now) {
            self.stats.outage_deferrals += 1;
            ctx.set_timer(end - now, TOK_WALK);
            return;
        }
        while self.next_query < self.cfg.schedule.len() {
            let i = self.next_query;
            let at = self.cfg.schedule.at(i);
            if at > now {
                ctx.set_timer(at - now, TOK_WALK);
                return;
            }
            self.next_query += 1;
            let t = self
                .cfg
                .targets
                .get(self.cfg.schedule.target_index(i) as usize);
            let source = self.cfg.schedule.source(i, t.addr.is_ipv6());
            if opted_out(&self.cfg.opt_outs, now, t.addr) {
                self.stats.opted_out += 1;
                continue;
            }
            let qname = self
                .cfg
                .codec
                .encode(now, source, t.addr, t.asn.0, SuffixKind::Main);
            self.stats.probes_sent += 1;
            let salt = self.cfg.noise_salt;
            send_query(
                ctx,
                &mut self.scratch,
                salt,
                PROBE_TAG,
                source,
                t.addr,
                qname,
            );
        }
    }
}

impl Node for CrpScanner {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        if let Some(at) = self.cfg.schedule.first_at() {
            ctx.set_timer(at - SimTime::ZERO, TOK_WALK);
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: u64) {
        if token == TOK_WALK {
            self.emit_scheduled(ctx);
        }
    }

    fn on_packet(&mut self, _ctx: &mut NodeCtx<'_>, pkt: Packet) {
        // Stray responses to spoofed probes that routed back to the
        // vantage; counted for accounting, never used as evidence.
        let Transport::Udp(u) = &pkt.transport else {
            return;
        };
        if MessageView::parse(&u.payload).is_ok_and(|v| v.qr()) {
            self.stats.responses_received += 1;
        }
    }
}

/// Everything the agreement analysis needs from a completed CRP pass.
pub struct CrpData {
    /// Codec bound to the CRP keyword — decodes only CRP entries.
    pub codec: QnameCodec,
    /// Canonically merged snapshot of the CRP pass's authoritative log.
    pub entries: Vec<QueryLogEntry>,
    pub stats: CrpStats,
    /// Packet counters, summed over all CRP shards.
    pub counters: NetCounters,
    /// Engine events processed, summed over all CRP shards.
    pub events: u64,
    pub budget_exhausted: bool,
    /// Deliver events still queued at the horizon, summed over all shards.
    pub pending_deliveries: u64,
    /// Total probes the CRP schedule carried (census total).
    pub scheduled_probes: u64,
    /// The pass's per-shard phases (`crp-shard-spawn`, `crp-shard-run`,
    /// `crp-shard-extract`); [`run_dual`] nests them under `crp-run`.
    pub profile: RunProfile,
}

/// Run the inbound-SAV scan over an already-built world and target set —
/// typically the ones method A just ran on, so the two passes share every
/// planning artifact. Deterministic contract: byte-identical output for
/// any `cfg.shards` / `cfg.workers` / `cfg.schedule_mode`.
pub fn run_crp(cfg: &ExperimentConfig, world: &Arc<World>, targets: &Arc<TargetSet>) -> CrpData {
    let mut pass = ProbePass::plan(cfg, world, targets, Some(&CRP_CATEGORIES));
    pass.build();
    let codec = QnameCodec::new(&world.auth.apex, &crp_keyword(&cfg.keyword));
    let noise_salt = stream_seed(cfg.world.seed, CRP_NOISE_STREAM);
    let mut profile = RunProfile::new();
    let outcomes = pass.run(
        "crp-shard",
        CRP_SHARD_NOISE_STREAM,
        None,
        &mut profile,
        |_, _, schedule| {
            Box::new(CrpScanner::new(CrpScannerConfig {
                codec: codec.clone(),
                schedule,
                targets: targets.clone(),
                noise_salt,
                opt_outs: cfg.opt_outs.clone(),
                outages: cfg.outages.clone(),
            }))
        },
        |wrt, host| {
            let scanner = wrt.net.node::<CrpScanner>(host);
            scanner.expect("CRP scanner node").stats.clone()
        },
    );
    let merged = shard::merge_outcomes(outcomes);
    CrpData {
        codec,
        entries: merged.entries,
        stats: merged.extract,
        counters: merged.counters,
        events: merged.events,
        budget_exhausted: merged.budget_exhausted,
        pending_deliveries: merged.pending_deliveries,
        scheduled_probes: pass.census.total,
        profile,
    }
}

/// Both methods plus their AS-level agreement matrix.
pub struct DualRun {
    /// Method A: the paper's outbound spoofed-source survey.
    pub a: crate::experiment::ExperimentData,
    /// Method B: the inbound CRP scan over the same world and targets.
    pub b: CrpData,
    /// The cross-method agreement matrix, scored against ground truth.
    pub matrix: crate::analysis::agreement::AgreementMatrix,
}

/// Run both methods back to back and compute the agreement matrix.
///
/// The method-A pass runs first and unchanged (its reports and goldens are
/// byte-identical with or without the CRP pass); the CRP pass then reuses
/// its world and target set. Agreement metrics are appended to the run's
/// observation aggregate as [`Det::Stable`] counters, and the combined
/// artifact is exported once if `env` names a JSONL sink.
pub fn run_dual(cfg: ExperimentConfig, env: &ObsEnv) -> DualRun {
    use bcd_obs::report::names;
    // Defer the JSONL export until the agreement counters are in.
    let mut quiet = env.clone();
    quiet.jsonl_path = None;
    let mut a = crate::experiment::Experiment::run_observed(cfg, &quiet);
    let t0 = std::time::Instant::now();
    let b = run_crp(&a.cfg, &a.world, &a.targets);
    a.obs
        .profile
        .phases
        .extend(b.profile.phases.iter().cloned());
    a.obs.profile.record("crp-run", t0.elapsed());
    let t0 = std::time::Instant::now();
    let matrix = crate::analysis::agreement::AgreementMatrix::compute(&a, &b);
    a.obs.profile.record("agreement", t0.elapsed());
    let agg = &mut a.obs.aggregate;
    let det = Det::Stable;
    agg.add_counter(names::CRP_PROBES, &[], det, b.stats.probes_sent);
    agg.add_counter(names::CRP_LOG_ENTRIES, &[], det, b.entries.len() as u64);
    agg.add_counter(names::AGREEMENT_UNIVERSE, &[], det, matrix.universe as u64);
    agg.add_counter(
        names::AGREEMENT_AGREE_OPEN,
        &[],
        det,
        matrix.agree_open.len() as u64,
    );
    agg.add_counter(
        names::AGREEMENT_AGREE_CLOSED,
        &[],
        det,
        matrix.agree_closed.len() as u64,
    );
    agg.add_counter(
        names::AGREEMENT_A_ONLY,
        &[],
        det,
        matrix.a_only.len() as u64,
    );
    agg.add_counter(
        names::AGREEMENT_B_ONLY,
        &[],
        det,
        matrix.b_only.len() as u64,
    );
    agg.add_counter(
        names::AGREEMENT_FALSE_OPEN,
        &[("method", "a")],
        det,
        matrix.false_open_a.len() as u64,
    );
    agg.add_counter(
        names::AGREEMENT_FALSE_OPEN,
        &[("method", "b")],
        det,
        matrix.false_open_b.len() as u64,
    );
    agg.add_counter(
        names::AGREEMENT_FALSE_CLOSED,
        &[("method", "a")],
        det,
        matrix.false_closed_a.len() as u64,
    );
    agg.add_counter(
        names::AGREEMENT_FALSE_CLOSED,
        &[("method", "b")],
        det,
        matrix.false_closed_b.len() as u64,
    );
    if let Some(path) = &env.jsonl_path {
        if let Err(e) = a.obs.write_jsonl(path) {
            eprintln!("[bcd] BCD_OBS export to {} failed: {e}", path.display());
        }
    }
    DualRun { a, b, matrix }
}
