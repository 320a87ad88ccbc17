//! The metric catalog: every name and unit `BENCHMARK.json` declares. A
//! run with tracing off prints [`END_TO_END`]; a traced run prints
//! [`per_layer`]. Layers a workload bypasses read 0 there.

/// Metrics a user of the survey sees, each a median over a run's
/// iterations.
const END_TO_END: &[(&str, &str)] = &[
    ("elapsed_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("probes_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
];

/// Engine drop reasons, as `DropReason`'s `Display` spells them.
pub const DROP_REASONS: &[&str] = &[
    "osav-egress",
    "dsav-ingress",
    "subnet-savi-ingress",
    "partial-sav-ingress",
    "private-ingress-acl",
    "martian-ds-ingress",
    "loopback-ingress-acl",
    "no-route",
    "no-host",
    "stack-dst-as-src",
    "stack-loopback",
    "link-loss",
    "chaos-loss",
    "link-flap",
    "host-down",
    "truncated",
];

/// Drop reasons that are a border (ingress/egress filter) decision.
pub const BORDER_REASONS: &[&str] = &[
    "osav-egress",
    "dsav-ingress",
    "subnet-savi-ingress",
    "partial-sav-ingress",
    "private-ingress-acl",
    "martian-ds-ingress",
    "loopback-ingress-acl",
];

/// Replayed operations reported as p50 / p99 / sample count.
pub const LATENCIES: &[&str] = &[
    "netsim.lpm_lookup_ns",
    "netsim.sched_push_ns",
    "netsim.sched_pop_ns",
    "dnswire.encode_ns",
    "dnswire.decode_ns",
    "dnswire.view_ns",
];

const LAYER_HEAD: &[(&str, &str)] = &[
    ("worldgen.build_s", "s"),
    ("worldgen.spawn_s", "s"),
    ("worldgen.rss_mib", "MiB"),
    ("worldgen.hosts", "count"),
    ("targets.extract_s", "s"),
    ("targets.count", "count"),
    ("schedule.census_s", "s"),
    ("schedule.build_s", "s"),
    ("schedule.rss_mib", "MiB"),
    ("schedule.probes", "count"),
    ("netsim.run_s", "s"),
    ("netsim.shard_skew", "ratio"),
    ("netsim.events", "count"),
    ("netsim.events_per_s", "1/s"),
    ("netsim.sent", "count"),
    ("netsim.delivered", "count"),
    ("netsim.border_drop_ratio", "ratio"),
];

const LAYER_TAIL: &[(&str, &str)] = &[
    ("dns.client_queries", "count"),
    ("dns.upstream_queries", "count"),
    ("dns.refused", "count"),
    ("dns.servfail", "count"),
    ("dns.tcp_retries", "count"),
    ("dns.cache_hit_ratio", "ratio"),
    ("dns.lab_query_us", "us"),
    ("dnswire.msg_bytes", "B"),
    ("scanner.spoofed_sent", "count"),
    ("scanner.followups", "count"),
    ("scanner.responses", "count"),
    ("crp.run_s", "s"),
    ("crp.census_s", "s"),
    ("crp.probes", "count"),
    ("shard.extract_s", "s"),
    ("shard.merge_s", "s"),
    ("analysis.s", "s"),
    ("analysis.agreement_s", "s"),
    ("report.render_s", "s"),
    ("lab.table5_s", "s"),
    ("lab.fig3a_s", "s"),
    ("lab.table6_s", "s"),
    ("trace.elapsed_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
];

/// Every end-to-end metric, in `BENCHMARK.json` order.
pub fn end_to_end() -> Vec<(String, &'static str)> {
    END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect()
}

/// Every per-layer metric, in `BENCHMARK.json` order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = LAYER_HEAD
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    out.extend(
        DROP_REASONS
            .iter()
            .map(|r| (format!("netsim.drop.{r}"), "count")),
    );
    for op in LATENCIES {
        out.push((format!("{op}.p50"), "ns"));
        out.push((format!("{op}.p99"), "ns"));
        out.push((format!("{op}.n"), "count"));
    }
    out.extend(LAYER_TAIL.iter().map(|&(n, u)| (n.to_string(), u)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root declares exactly this
    /// catalog, in this order.
    #[test]
    fn catalog_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let declared: Vec<String> = json
            .lines()
            .filter(|l| l.contains("\"unit\""))
            .map(|l| {
                let name = l.split("\"name\": \"").nth(1).expect("name");
                let unit = l.split("\"unit\": \"").nth(1).expect("unit");
                format!(
                    "{} {}",
                    &name[..name.find('"').expect("name end")],
                    &unit[..unit.find('"').expect("unit end")]
                )
            })
            .collect();
        let expected: Vec<String> = end_to_end()
            .iter()
            .chain(&per_layer())
            .map(|(n, u)| format!("{n} {u}"))
            .collect();
        assert_eq!(declared, expected);
    }
}
