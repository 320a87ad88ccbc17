//! Replays of single layers on a workload's own inputs, run after the
//! timed region: the pre-scan setup (worldgen, target extraction, schedule
//! census and per-shard build, shard spawn) and per-operation micro-replays
//! of the LPM trie, the timing wheel and the DNS wire codec.

use crate::probe::{time_batched, Metrics, Spans};
use bcd_core::schedule::{self, ScheduleCensus};
use bcd_core::shard::{assign_lanes, lanes_of_shard};
use bcd_core::{
    ExperimentConfig, LaneLayout, QnameCodec, Schedule, SourceCategory, SuffixKind, TargetSet,
};
use bcd_dnswire::{Message, MessageView, Name, RType, WireWriter};
use bcd_netsim::sched::EventKind;
use bcd_netsim::{stream_seed, Asn, EngineSched, QueuedEvent, SimTime, WheelSched};
use bcd_worldgen::World;
use std::collections::HashSet;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// The RNG stream of the schedule's per-target hash salt. Mirrors
/// `bcd_core::experiment::SCHEDULE_SALT_STREAM`, which is crate-private.
const SCHEDULE_SALT_STREAM: u64 = 0x5343_4845_4455_4C45; // "SCHEDULE"

/// Caps on the micro-replay sample sizes (strided over the schedule).
const WIRE_MESSAGES: usize = 1 << 16;
const WHEEL_EVENTS: usize = 1 << 18;

/// The artifacts of one replayed pre-scan setup.
pub struct Setup {
    pub world: Arc<World>,
    pub targets: Arc<TargetSet>,
    pub census: ScheduleCensus,
    /// One schedule slice per shard.
    pub parts: Vec<Schedule>,
}

/// Census, lane layout and per-shard lane build for one source-category
/// filter, the shards built one after the other (`workers` = 1).
fn plan(
    cfg: &ExperimentConfig,
    world: &World,
    targets: &TargetSet,
    filter: Option<&[SourceCategory]>,
    tag: &str,
    sp: &mut Spans,
) -> (ScheduleCensus, Vec<Schedule>) {
    let salt = stream_seed(cfg.world.seed, SCHEDULE_SALT_STREAM);
    let routes = world.topo.routes();
    let (census, layout, lane_shard, shards) = sp.span(&format!("schedule::census{tag}"), |_| {
        let census = schedule::census(
            targets,
            routes,
            &world.v6_hitlist,
            filter,
            schedule::lane_count(cfg.rate),
            salt,
            cfg.target_sample,
        );
        let layout = LaneLayout::new(cfg.rate, cfg.window, census.total, salt, cfg.target_sample);
        let (lane_shard, shards) = assign_lanes(&census.lane_counts, cfg.shards.max(1));
        (census, layout, lane_shard, shards)
    });
    let parts = sp.span(&format!("schedule::build{tag}"), |sp| {
        (0..shards)
            .map(|sid| {
                sp.span(&format!("Schedule::build_lanes{tag}[{sid}]"), |_| {
                    Schedule::build_lanes(
                        targets,
                        routes,
                        &world.v6_hitlist,
                        filter,
                        &lanes_of_shard(&lane_shard, sid),
                        &census,
                        &layout,
                    )
                })
            })
            .collect()
    });
    (census, parts)
}

/// Replay the pre-scan setup `Experiment::run_observed` performs before any
/// engine runs: world build, target extraction, schedule census and build.
pub fn setup(cfg: &ExperimentConfig, sp: &mut Spans) -> Setup {
    let world = sp.span("build::build", |_| {
        bcd_worldgen::build::build(cfg.world.clone())
    });
    let targets = if world.cfg.materialize_ditl {
        sp.span("TargetSet::extract", |_| {
            TargetSet::extract(&world.ditl2019, world.topo.routes())
        })
    } else {
        sp.span("TargetSet::from_candidates", |_| {
            TargetSet::from_candidates(&world.ditl_candidates, world.topo.routes())
        })
    };
    let (census, parts) = plan(cfg, &world, &targets, None, "", sp);
    Setup {
        world: Arc::new(world),
        targets: Arc::new(targets),
        census,
        parts,
    }
}

/// Wall seconds of one replayed setup.
pub fn setup_seconds(cfg: &ExperimentConfig) -> f64 {
    let t0 = Instant::now();
    let s = setup(cfg, &mut Spans::new(false));
    let secs = t0.elapsed().as_secs_f64();
    drop(black_box(s));
    secs
}

/// The CRP pass's own census and lane build (`CRP_CATEGORIES` only).
pub fn crp_plan(
    cfg: &ExperimentConfig,
    s: &Setup,
    sp: &mut Spans,
) -> (ScheduleCensus, Vec<Schedule>) {
    let filter = Some(&bcd_core::CRP_CATEGORIES[..]);
    plan(cfg, &s.world, &s.targets, filter, "[crp]", sp)
}

/// Spawn each shard's runtime over the shared world, as the survey does
/// before its engine runs. Returns the summed spawn seconds.
pub fn spawn_shards(s: &Setup, parts: &[Schedule], tag: &str, sp: &mut Spans) -> f64 {
    let mut total = 0.0;
    for (sid, part) in parts.iter().enumerate() {
        let owned: HashSet<Asn> = (0..part.len())
            .map(|i| s.targets.get(part.target_index(i) as usize).asn)
            .collect();
        let t0 = Instant::now();
        let rt = sp.span(&format!("World::spawn_for{tag}[{sid}]"), |_| {
            s.world.spawn_for(Some(&owned))
        });
        total += t0.elapsed().as_secs_f64();
        drop(black_box(rt));
    }
    total
}

/// Longest-prefix match over every target and every planned source
/// address. Returns the number of lookups whose origin disagreed with the
/// target's attributed AS (0 on a correct trie).
pub fn lpm(s: &Setup, m: &mut Metrics, sp: &mut Spans) -> u64 {
    let routes = s.world.topo.routes();
    let mut addrs = Vec::new();
    for part in &s.parts {
        for i in 0..part.len() {
            let v6 = s.targets.get(part.target_index(i) as usize).addr.is_ipv6();
            addrs.push(part.source(i, v6));
        }
    }
    let targets: Vec<_> = s.targets.iter().copied().collect();
    let mut wrong = 0u64;
    let per_op = sp.span("PrefixTable::lookup", |_| {
        let mut per_op = time_batched(targets.len(), |i| {
            if routes
                .lookup(black_box(targets[i].addr))
                .map(|(_, asn)| asn)
                != Some(targets[i].asn)
            {
                wrong += 1;
            }
        });
        per_op.extend(time_batched(addrs.len(), |i| {
            black_box(routes.lookup(black_box(addrs[i])));
        }));
        per_op
    });
    m.latency("netsim.lpm_lookup_ns", targets.len() + addrs.len(), per_op);
    wrong
}

/// Every `stride`-th element index so that at most `cap` are taken.
fn strided(n: usize, cap: usize) -> impl Iterator<Item = usize> {
    (0..n).step_by(n.div_ceil(cap).max(1))
}

/// Push then pop event times through a fresh timing wheel. Returns the
/// number of pops that came out of `(time, seq)` order or went missing.
pub fn wheel(times: &[SimTime], m: &mut Metrics, sp: &mut Spans) -> u64 {
    let mut w = WheelSched::new();
    let (push, pop, bad) = sp.span("WheelSched::push+pop", |_| {
        let push = time_batched(times.len(), |i| {
            w.push(QueuedEvent {
                at: times[i],
                seq: i as u64,
                kind: EventKind::Timer {
                    host: 0,
                    token: i as u64,
                },
            });
        });
        let mut last = (SimTime::ZERO, 0u64);
        let mut bad = 0u64;
        let pop = time_batched(times.len(), |_| match w.pop() {
            Some(ev) if (ev.at, ev.seq) >= last => last = (ev.at, ev.seq),
            _ => bad += 1,
        });
        (push, pop, bad + w.len() as u64)
    });
    m.latency("netsim.sched_push_ns", times.len(), push);
    m.latency("netsim.sched_pop_ns", times.len(), pop);
    bad
}

/// Scheduled send times of the setup's probes (strided, sorted).
pub fn probe_times(s: &Setup) -> Vec<SimTime> {
    let total: usize = s.parts.iter().map(Schedule::len).sum();
    let stride = total.div_ceil(WHEEL_EVENTS).max(1);
    let mut times: Vec<SimTime> = s
        .parts
        .iter()
        .flat_map(|p| (0..p.len()).map(move |i| p.at(i)))
        .step_by(stride)
        .collect();
    times.sort();
    times
}

/// The survey's probe queries (strided), as the scanner encodes them.
pub fn probe_queries(cfg: &ExperimentConfig, s: &Setup) -> Vec<Message> {
    let codec = QnameCodec::new(&s.world.auth.apex, &cfg.keyword);
    let per_part = WIRE_MESSAGES.div_ceil(s.parts.len().max(1));
    let mut out = Vec::new();
    for part in &s.parts {
        for i in strided(part.len(), per_part) {
            let q = part.query(i, &s.targets);
            let asn = s.targets.get(part.target_index(i) as usize).asn.0;
            let qname = codec.encode(q.at, q.source, q.target, asn, SuffixKind::Main);
            out.push(Message::query(i as u16, qname, RType::A));
        }
    }
    out
}

/// The lab stub's queries (`u<i>.lab.test A`).
pub fn lab_queries(n: usize) -> Vec<Message> {
    strided(n, WIRE_MESSAGES)
        .map(|i| {
            let qname: Name = format!("u{i}.lab.test").parse().expect("lab qname");
            Message::query(i as u16, qname, RType::A)
        })
        .collect()
}

/// Encode, decode and borrowed-view parse of `msgs`. Returns the number
/// of messages that failed to round-trip.
pub fn dnswire(msgs: &[Message], m: &mut Metrics, sp: &mut Spans) -> u64 {
    let wires: Vec<Vec<u8>> = msgs.iter().map(Message::encode).collect();
    let (enc, dec, view) = sp.span("dnswire::codec", |_| {
        let mut w = WireWriter::new();
        let enc = time_batched(msgs.len(), |i| {
            msgs[i].encode_into(&mut w);
            black_box(w.len());
        });
        let dec = time_batched(msgs.len(), |i| {
            let _ = black_box(Message::decode(black_box(&wires[i])));
        });
        let view = time_batched(msgs.len(), |i| {
            let _ = black_box(MessageView::parse(black_box(&wires[i])));
        });
        (enc, dec, view)
    });
    let bad = msgs
        .iter()
        .zip(&wires)
        .filter(|(msg, wire)| {
            Message::decode(wire).ok().as_ref() != Some(*msg) || MessageView::parse(wire).is_err()
        })
        .count() as u64;
    let bytes: usize = wires.iter().map(Vec::len).sum();
    m.latency("dnswire.encode_ns", msgs.len(), enc);
    m.latency("dnswire.decode_ns", msgs.len(), dec);
    m.latency("dnswire.view_ns", msgs.len(), view);
    m.real(
        "dnswire.msg_bytes",
        bytes as f64 / msgs.len().max(1) as f64,
        "B",
    );
    bad
}
