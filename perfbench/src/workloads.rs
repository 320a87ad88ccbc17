//! The two workloads. Each iteration times the workload from config to
//! output with the wall and CPU clocks, then — outside the timed region —
//! runs the output checks and collects the exact work counts that must
//! repeat for a seed.

use crate::catalog::{BORDER_REASONS, DROP_REASONS};
use crate::probe::{Clock, Metrics, Spans};
use crate::replay;
use bcd_core::analysis::categories::CategoryReport;
use bcd_core::analysis::country::CountryReport;
use bcd_core::analysis::forwarding::ForwardingReport;
use bcd_core::analysis::local::LocalInfiltrationReport;
use bcd_core::analysis::openclosed::OpenClosedReport;
use bcd_core::analysis::passive::PassiveReport;
use bcd_core::analysis::ports::PortReport;
use bcd_core::analysis::qmin::QminReport;
use bcd_core::analysis::reachability::{MiddleboxReport, Reachability};
use bcd_core::{
    entries_digest, lab, report, run_dual, ExperimentConfig, ExperimentData, InvariantChecker,
    ScheduleMode,
};
use bcd_dns::{LogProto, QueryLogEntry};
use bcd_netsim::{stream_seed, SchedKind, SimDuration, SimTime};
use bcd_obs::report::names;
use bcd_obs::{MetricValue, ObsEnv, PhaseRecord};
use bcd_osmodel::ports::{IANA_LO, IANA_SIZE, WINDOWS_POOL_SIZE};
use bcd_osmodel::{Os, PortAllocator};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;

/// Survey shards and worker threads, pinned. The two shards run one
/// after the other on a single worker: on a shared 2-CPU host a second
/// busy thread measures the neighbours as much as the program.
pub const SHARDS: usize = 2;
pub const WORKERS: usize = 1;
/// `survey_paper`'s targets-per-AS multiplier: paper shape's 0.22 scaled
/// down so that one survey takes about two seconds and a run holds a few
/// dozen of them.
const SURVEY_TARGET_SCALE: f64 = 0.035;
/// Worlds a survey run cycles through, iteration `i` surveying world
/// `i % WORLDS` (world 0 is the run's own seed). A small world's cost
/// swings with its seed; the median over a cycle of worlds does not.
pub const WORLDS: u64 = 8;
/// Recursive queries per lab instance (the paper issued 10,000).
pub const LAB_QUERIES: usize = 10_000;
/// Lab setup replays take well under a millisecond each, and a shared
/// VM's speed can swing by nearly 2x within seconds, so they are repeated
/// back to back for a whole window rather than a fixed count.
const LAB_SETUP_WINDOW_S: f64 = 2.0;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SurveyPaper,
    LabPorts,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::SurveyPaper, Workload::LabPorts];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SurveyPaper => "survey_paper",
            Workload::LabPorts => "lab_ports",
        }
    }

    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The seed of the world iteration `i` of a run with seed `seed`
    /// works on. The lab's work does not depend on its seed, so every lab
    /// iteration repeats the run's seed.
    pub fn world_seed(self, seed: u64, i: u64) -> u64 {
        match (self, i % WORLDS) {
            (Workload::LabPorts, _) | (_, 0) => seed,
            (_, j) => stream_seed(seed, j),
        }
    }

    /// One timed iteration plus its (untimed) checks, on the world of
    /// seed `seed`.
    pub fn run(self, seed: u64, sp: &mut Spans) -> Outcome {
        let mut o = match self {
            Workload::SurveyPaper => survey_paper(seed, sp),
            Workload::LabPorts => lab_ports(seed, sp),
        };
        o.world = seed;
        o
    }

    /// Wall seconds of each of this run's setup replays.
    pub fn setup_samples(self, seed: u64) -> Vec<f64> {
        match self {
            // One replay per world of the run.
            Workload::SurveyPaper => (0..WORLDS)
                .map(|i| replay::setup_seconds(&survey_config(self.world_seed(seed, i))))
                .collect(),
            Workload::LabPorts => {
                let start = std::time::Instant::now();
                let mut samples = Vec::new();
                while start.elapsed().as_secs_f64() < LAB_SETUP_WINDOW_S {
                    samples.push(lab_setup_seconds(seed));
                }
                samples
            }
        }
    }

    /// Layer replays of the traced run, on this workload's own inputs.
    /// Returns named replay checks.
    pub fn replay_layers(self, seed: u64, m: &mut Metrics, sp: &mut Spans) -> Vec<(String, bool)> {
        if self == Workload::LabPorts {
            let times: Vec<SimTime> = (0..LAB_QUERIES as u64)
                .map(|i| SimTime::ZERO + SimDuration::from_millis(5 * i))
                .collect();
            let wheel_bad = replay::wheel(&times, m, sp);
            let wire_bad = replay::dnswire(&replay::lab_queries(LAB_QUERIES), m, sp);
            return vec![
                ("replay-wheel-order".into(), wheel_bad == 0),
                ("replay-dnswire-roundtrip".into(), wire_bad == 0),
            ];
        }
        let cfg = survey_config(seed);
        let s = sp.span("setup-replay", |sp| replay::setup(&cfg, sp));
        m.real("worldgen.build_s", sp.total("build::build"), "s");
        m.real(
            "targets.extract_s",
            sp.total("TargetSet::extract") + sp.total("TargetSet::from_candidates"),
            "s",
        );
        m.real("schedule.census_s", sp.total("schedule::census"), "s");
        m.real("schedule.build_s", sp.total("schedule::build"), "s");
        let mut spawn = replay::spawn_shards(&s, &s.parts, "", sp);
        let (_, crp_parts) = replay::crp_plan(&cfg, &s, sp);
        m.real("crp.census_s", sp.total("schedule::census[crp]"), "s");
        spawn += replay::spawn_shards(&s, &crp_parts, "[crp]", sp);
        m.real("worldgen.spawn_s", spawn, "s");
        let lpm_wrong = replay::lpm(&s, m, sp);
        let wheel_bad = replay::wheel(&replay::probe_times(&s), m, sp);
        let wire_bad = replay::dnswire(&replay::probe_queries(&cfg, &s), m, sp);
        vec![
            (
                "replay-census-total".into(),
                s.census.total == m.count_of("schedule.probes"),
            ),
            ("replay-lpm-origin".into(), lpm_wrong == 0),
            ("replay-wheel-order".into(), wheel_bad == 0),
            ("replay-dnswire-roundtrip".into(), wire_bad == 0),
        ]
    }
}

/// `survey_paper`'s config for the world of seed `seed`, every `BCD_*`
/// knob pinned.
fn survey_config(seed: u64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper_shape(seed);
    cfg.world.target_scale = SURVEY_TARGET_SCALE;
    cfg.shards = SHARDS;
    cfg.workers = WORKERS;
    cfg.schedule_mode = ScheduleMode::Streaming;
    cfg.world.sched = SchedKind::Wheel;
    cfg
}

/// The result of one iteration.
pub struct Outcome {
    /// Seed of the world the iteration worked on.
    pub world: u64,
    pub elapsed: f64,
    pub cpu: f64,
    /// Probes sent (survey: spoofed probes of both methods; lab: the lab
    /// stub's recursive queries).
    pub probes: u64,
    /// Named output checks; any `false` fails the iteration.
    pub checks: Vec<(String, bool)>,
    /// Digests and exact work counts that must repeat for a seed.
    pub fingerprint: BTreeMap<String, u64>,
    /// The subset of `fingerprint` pinned for the pin seed.
    pub pinned: Vec<&'static str>,
    /// Per-layer values read from the run's own artifacts.
    pub layer: Metrics,
    pub phases: Vec<PhaseRecord>,
}

impl Outcome {
    fn new(clock: Clock, probes: u64) -> Outcome {
        let (elapsed, cpu) = clock.stop();
        Outcome {
            world: 0,
            elapsed,
            cpu,
            probes,
            checks: Vec::new(),
            fingerprint: BTreeMap::new(),
            pinned: Vec::new(),
            layer: Metrics::default(),
            phases: Vec::new(),
        }
    }

    fn check(&mut self, name: &str, ok: bool) {
        self.checks.push((name.to_string(), ok));
    }

    fn pin(&mut self, key: &'static str, value: u64) {
        self.fingerprint.insert(key.to_string(), value);
        self.pinned.push(key);
    }

    pub fn ok(&self) -> bool {
        self.checks.iter().all(|c| c.1)
    }
}

/// FNV-1a, the digest every fingerprint uses.
pub fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn text_hash(s: &str) -> u64 {
    let mut h = FNV_OFFSET;
    fnv(&mut h, s.as_bytes());
    h
}

/// Digest of a canonical query log, over the fields `entries_digest`
/// covers (the CRP pass returns its log without an `ExperimentData`).
fn log_digest(entries: &[QueryLogEntry]) -> u64 {
    let mut h = FNV_OFFSET;
    for e in entries {
        fnv(&mut h, &e.time.as_nanos().to_le_bytes());
        fnv(&mut h, e.qname.to_string().as_bytes());
        fnv(&mut h, e.src.to_string().as_bytes());
        fnv(&mut h, e.server.to_string().as_bytes());
        fnv(&mut h, &e.src_port.to_le_bytes());
        fnv(
            &mut h,
            &[e.observed_ttl, matches!(e.proto, LogProto::Tcp) as u8],
        );
    }
    h
}

fn push_report(out: &mut String, sp: &mut Spans, name: &str, render: impl FnOnce() -> String) {
    out.push_str(&sp.span(name, |_| render()));
    out.push('\n');
}

/// Every §4–§5 analysis and every report table of the `all` binary,
/// minus the lab tables.
fn render_survey(data: &ExperimentData, sp: &mut Spans) -> String {
    let input = data.input();
    let reach = sp.span("analysis::Reachability", |_| Reachability::compute(&input));
    let countries = sp.span("analysis::CountryReport", |_| {
        CountryReport::compute(&input, &reach)
    });
    let cats = sp.span("analysis::CategoryReport", |_| {
        CategoryReport::compute(&reach)
    });
    let oc = sp.span("analysis::OpenClosedReport", |_| {
        OpenClosedReport::compute(&input, &reach)
    });
    let ports = sp.span("analysis::PortReport", |_| PortReport::compute(&input, &oc));
    let fwd = sp.span("analysis::ForwardingReport", |_| {
        ForwardingReport::compute(&input)
    });
    let local = sp.span("analysis::LocalInfiltrationReport", |_| {
        LocalInfiltrationReport::compute(&reach)
    });
    let qmin = sp.span("analysis::QminReport", |_| {
        QminReport::compute(&input, &reach)
    });
    let mbx = sp.span("analysis::MiddleboxReport", |_| {
        MiddleboxReport::compute(&input, &reach)
    });
    let passive = sp.span("analysis::PassiveReport", |_| {
        PassiveReport::compute(&ports, &data.world.ditl2018)
    });
    let mut out = String::new();
    let o = &mut out;
    push_report(o, sp, "report::render_headline", || {
        report::render_headline(&data.targets, &reach)
    });
    push_report(o, sp, "report::render_table1", || {
        report::render_table1(&countries, 10)
    });
    push_report(o, sp, "report::render_table2", || {
        report::render_table2(&countries, 10)
    });
    push_report(o, sp, "report::render_table3", || {
        report::render_table3(&cats)
    });
    push_report(o, sp, "report::render_table4", || {
        report::render_table4(&ports)
    });
    push_report(o, sp, "report::render_figure2", || {
        report::render_figure2(&ports)
    });
    push_report(o, sp, "report::render_figure3b", || {
        report::render_figure3b(&ports)
    });
    push_report(o, sp, "report::render_openclosed", || {
        report::render_openclosed(&oc)
    });
    push_report(o, sp, "report::render_forwarding", || {
        report::render_forwarding(&fwd)
    });
    push_report(o, sp, "report::render_local", || {
        report::render_local(&local)
    });
    push_report(o, sp, "report::render_methodology", || {
        report::render_methodology(&reach, &qmin, &mbx)
    });
    push_report(o, sp, "report::render_passive", || {
        report::render_passive(&passive)
    });
    push_report(o, sp, "report::render_engine_totals", || {
        report::render_engine_totals(&data.counters)
    });
    out
}

/// Checks, digests, work counts and per-layer values of a method-A survey.
fn survey_outcome(o: &mut Outcome, data: &ExperimentData) {
    o.check("invariants", InvariantChecker::check(data).is_ok());
    o.check("event-budget", !data.budget_exhausted);
    o.check("targets-sorted", data.targets.excluded_unsorted == 0);
    o.pin("entries_digest", entries_digest(data));

    let f = &mut o.fingerprint;
    f.insert("log.entries".into(), data.entries.len() as u64);
    f.insert("engine.events".into(), data.events);
    f.insert("engine.pending_deliveries".into(), data.pending_deliveries);
    let c = &data.counters;
    for (k, v) in [
        ("net.sent", c.sent),
        ("net.delivered", c.delivered),
        ("net.duplicated", c.duplicated),
        ("net.injected", c.injected),
        ("net.intercepted", c.intercepted),
    ] {
        f.insert(k.into(), v);
    }
    for (reason, n) in &c.drops {
        f.insert(format!("net.drop.{reason}"), *n);
    }
    let s = &data.scanner_stats;
    for (k, v) in [
        ("scanner.spoofed_sent", s.spoofed_sent),
        ("scanner.followup_sets", s.followup_sets),
        ("scanner.followup_queries", s.followup_queries),
        ("scanner.open_probes", s.open_probes),
        ("scanner.tcp_probes", s.tcp_probes),
        ("scanner.human_lookups", s.human_lookups),
        ("scanner.responses_received", s.responses_received),
        ("scanner.refused_responses", s.refused_responses),
    ] {
        f.insert(k.into(), v);
    }
    // The aggregate: stable counters plus the folded per-shard slices
    // (resolver totals among them), exact at the pinned shard count.
    for (key, metric) in data.obs.aggregate.iter() {
        let labels: Vec<String> = key.labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
        let id = format!("agg.{}{{{}}}", key.name, labels.join(","));
        match &metric.value {
            MetricValue::Counter(n) => {
                f.insert(id, *n);
            }
            MetricValue::Gauge(g) => {
                f.insert(id, *g as u64);
            }
            MetricValue::Histogram(h) => {
                f.insert(format!("{id}.count"), h.count);
                f.insert(format!("{id}.sum"), h.sum);
            }
        }
    }

    let agg = &data.obs.aggregate;
    let m = &mut o.layer;
    let phases = &data.obs.profile.phases;
    let walls = |name: &str| -> Vec<f64> {
        phases
            .iter()
            .filter(|p| p.name == name)
            .map(|p| p.wall.as_secs_f64())
            .collect()
    };
    let rss = |name: &str| {
        phases
            .iter()
            .find(|p| p.name == name)
            .and_then(|p| p.rss_peak_kib)
            .map_or(0.0, |k| k as f64 / 1024.0)
    };
    let max = |v: &[f64]| v.iter().copied().fold(0.0, f64::max);
    let run = walls("shard-run");
    let run_sum = run.iter().fold(0.0, |acc, w| acc + w);
    m.real("worldgen.rss_mib", rss("worldgen-build"), "MiB");
    m.count("worldgen.hosts", data.world.blueprints.len() as u64);
    m.count("targets.count", data.targets.len() as u64);
    m.real("schedule.rss_mib", rss("schedule-build"), "MiB");
    m.count("schedule.probes", agg.counter(names::SCHEDULE_PROBES, &[]));
    m.real("netsim.run_s", max(&run), "s");
    m.real(
        "netsim.shard_skew",
        if run_sum > 0.0 {
            max(&run) * run.len() as f64 / run_sum
        } else {
            0.0
        },
        "ratio",
    );
    m.count("netsim.events", data.events);
    m.real(
        "netsim.events_per_s",
        if run_sum > 0.0 {
            data.events as f64 / run_sum
        } else {
            0.0
        },
        "1/s",
    );
    m.count("netsim.sent", c.sent);
    m.count("netsim.delivered", c.delivered);
    let drop_of = |reason: &str| -> u64 {
        c.drops
            .iter()
            .filter(|(r, _)| r.to_string() == reason)
            .map(|(_, n)| *n)
            .sum()
    };
    for reason in DROP_REASONS {
        m.count(&format!("netsim.drop.{reason}"), drop_of(reason));
    }
    let border: u64 = BORDER_REASONS.iter().map(|r| drop_of(r)).sum();
    m.real(
        "netsim.border_drop_ratio",
        border as f64 / c.sent.max(1) as f64,
        "ratio",
    );
    m.count(
        "dns.client_queries",
        agg.counter(names::DNS_CLIENT_QUERIES, &[]),
    );
    m.count(
        "dns.upstream_queries",
        agg.counter(names::DNS_UPSTREAM_QUERIES, &[]),
    );
    m.count("dns.refused", agg.counter(names::DNS_REFUSED, &[]));
    m.count("dns.servfail", agg.counter(names::DNS_SERVFAIL, &[]));
    m.count("dns.tcp_retries", agg.counter(names::DNS_TCP_RETRIES, &[]));
    let hits = agg.counter(names::DNS_CACHE_HITS, &[]);
    let misses = agg.counter(names::DNS_CACHE_MISSES, &[]);
    m.real(
        "dns.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    m.count("scanner.spoofed_sent", s.spoofed_sent);
    m.count("scanner.followups", s.followup_queries);
    m.count("scanner.responses", s.responses_received);
    m.real("shard.extract_s", max(&walls("shard-extract")), "s");
    m.real("shard.merge_s", max(&walls("merge")), "s");
    m.real("crp.run_s", max(&walls("crp-run")), "s");
    m.real("analysis.agreement_s", max(&walls("agreement")), "s");
    o.phases = phases.clone();
}

fn survey_paper(seed: u64, sp: &mut Spans) -> Outcome {
    let clock = Clock::start();
    let cfg = survey_config(seed);
    let dual = sp.span("run_dual", |_| run_dual(cfg, &ObsEnv::disabled()));
    let mut text = render_survey(&dual.a, sp);
    push_report(&mut text, sp, "report::render_agreement", || {
        report::render_agreement(&dual.matrix)
    });
    let mut o = Outcome::new(
        clock,
        dual.a.scanner_stats.spoofed_sent + dual.b.stats.probes_sent,
    );
    survey_outcome(&mut o, &dual.a);
    let b = &dual.b;
    o.check("crp-event-budget", !b.budget_exhausted);
    o.check(
        "agreement-clean-exact",
        InvariantChecker::check_agreement(&dual.matrix, true).is_ok(),
    );
    o.pin("report_hash", text_hash(&text));
    o.pin("crp_entries_digest", log_digest(&b.entries));
    let f = &mut o.fingerprint;
    for (k, v) in [
        ("crp.log_entries", b.entries.len() as u64),
        ("crp.events", b.events),
        ("crp.pending_deliveries", b.pending_deliveries),
        ("crp.scheduled_probes", b.scheduled_probes),
        ("crp.probes_sent", b.stats.probes_sent),
        ("crp.responses_received", b.stats.responses_received),
        ("crp.net.sent", b.counters.sent),
        ("crp.net.delivered", b.counters.delivered),
        ("agreement.a_only", dual.matrix.a_only.len() as u64),
        ("agreement.b_only", dual.matrix.b_only.len() as u64),
    ] {
        f.insert(k.into(), v);
    }
    o.layer.count("crp.probes", b.stats.probes_sent);
    o
}

/// Wall seconds to stand up every lab instance of the workload (Table 5
/// and Figure 3a) and resolve one query through each.
fn lab_setup_seconds(seed: u64) -> f64 {
    let t0 = std::time::Instant::now();
    std::hint::black_box(lab::table5(1, seed));
    std::hint::black_box(lab::figure3a_samples(1, seed));
    t0.elapsed().as_secs_f64()
}

/// True if `port` lies inside the pool `alloc` declares.
fn in_pool(alloc: &PortAllocator, port: u16) -> bool {
    match alloc {
        PortAllocator::Fixed(p) => port == *p,
        PortAllocator::SmallSet(ports) => ports.contains(&port),
        PortAllocator::Sequential { base, span, .. } => port >= *base && port - base < *span,
        PortAllocator::Uniform { lo, size } => port >= *lo && u32::from(port - lo) < *size,
        PortAllocator::WindowsPool { start } => {
            port >= IANA_LO
                && (u32::from(port - IANA_LO) + IANA_SIZE - u32::from(start - IANA_LO)) % IANA_SIZE
                    < WINDOWS_POOL_SIZE
        }
    }
}

fn lab_ports(seed: u64, sp: &mut Spans) -> Outcome {
    let clock = Clock::start();
    let t5 = sp.span("lab::table5", |_| lab::table5(LAB_QUERIES, seed));
    let f3 = sp.span("lab::figure3a_samples", |_| {
        lab::figure3a_samples(LAB_QUERIES, seed)
    });
    let t6 = sp.span("lab::table6", |_| lab::table6());
    let mut o = Outcome::new(clock, (LAB_QUERIES * (t5.len() + f3.len())) as u64);

    // Each Table 5 row: one observed port per stub query, all inside the
    // pool the row's allocator declares (rebuilt from the row's startup seed, as
    // `lab::measure_ports` builds it).
    let mut digest = FNV_OFFSET;
    let mut full = true;
    let mut pooled = true;
    for (i, row) in t5.iter().enumerate() {
        let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_add(i as u64));
        let alloc = row.software.allocator(row.os, &mut rng);
        full &= row.ports.len() == LAB_QUERIES;
        pooled &= row.ports.iter().all(|&p| in_pool(&alloc, p));
        for p in &row.ports {
            fnv(&mut digest, &p.to_le_bytes());
        }
    }
    o.check("table5-port-count", full && t5.len() == 8);
    o.check("table5-ports-in-pool", pooled);
    // Each Figure 3a row: every 10-query sample, each range inside the
    // row's declared pool. A Windows DNS pool may wrap past the top of the
    // IANA range, so its raw ranges are bounded by that range instead.
    let mut samples_ok = f3.len() == 4;
    for (label, pool, ranges) in &f3 {
        let limit = if *pool == WINDOWS_POOL_SIZE {
            IANA_SIZE
        } else {
            *pool
        };
        samples_ok &= ranges.len() == LAB_QUERIES / 10 && ranges.iter().all(|r| *r < limit);
        fnv(&mut digest, label.as_bytes());
        for r in ranges {
            fnv(&mut digest, &r.to_le_bytes());
        }
    }
    o.check("figure3a-samples-in-pool", samples_ok);
    o.check("table6-rows", t6.len() == Os::ALL.len());
    for row in &t6 {
        fnv(
            &mut digest,
            &[
                row.ds_v4 as u8,
                row.lb_v4 as u8,
                row.ds_v6 as u8,
                row.lb_v6 as u8,
            ],
        );
    }
    o.pin("lab_port_digest", digest);
    for (i, row) in t5.iter().enumerate() {
        o.fingerprint
            .insert(format!("table5[{i}].ports"), row.ports.len() as u64);
        o.fingerprint
            .insert(format!("table5[{i}].unique"), row.unique as u64);
    }
    o
}
