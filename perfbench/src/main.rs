//! Benchmark of the DSAV survey simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload survey_paper|lab_ports \
//!     [--seed 2019] [--seconds 55] [--trace 0|1] [--update-pins]
//! ```
//!
//! `--trace 0` times the workload for `--seconds` (at least one
//! iteration; a survey workload cycles through worlds derived from the
//! seed), replays its setup, and prints the end-to-end metrics.
//! `--trace 1` runs one traced and one untraced iteration, replays every
//! layer on the workload's inputs, writes the span file, and prints the
//! per-layer metrics. The last stdout line is the JSON result; see
//! `perfbench/RUNBOOK.md`.

mod catalog;
mod probe;
mod replay;
mod workloads;

use probe::{median, peak_rss_mib, Metrics, Spans};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{fnv, Outcome, Workload, FNV_OFFSET};

/// The seed whose digests are pinned under `perfbench/pins/`.
const PIN_SEED: u64 = 2019;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    update_pins: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = PIN_SEED;
    let mut seconds = 55.0;
    let mut trace = false;
    let mut update_pins = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--update-pins" {
            update_pins = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse::<u64>().map_err(bad)? as f64,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        update_pins,
    })
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn pin_path(w: Workload) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("pins")
        .join(format!("{}-{PIN_SEED}.txt", w.name()))
}

fn read_kv(path: &Path) -> Option<BTreeMap<String, u64>> {
    let text = std::fs::read_to_string(path).ok()?;
    Some(
        text.lines()
            .filter_map(|l| {
                let (k, v) = l.rsplit_once(' ')?;
                Some((k.to_string(), v.parse().ok()?))
            })
            .collect(),
    )
}

fn write_kv(path: &Path, kv: &BTreeMap<String, u64>) {
    let text: String = kv.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
    std::fs::create_dir_all(path.parent().expect("file has a parent")).expect("create directory");
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, text).expect("write fingerprint");
    std::fs::rename(&tmp, path).expect("move fingerprint into place");
}

/// Keys whose values differ between `a` and `b` (either side missing
/// counts as a difference).
fn diff_keys(a: &BTreeMap<String, u64>, b: &BTreeMap<String, u64>) -> Vec<String> {
    a.keys()
        .chain(b.keys())
        .filter(|k| a.get(*k) != b.get(*k))
        .cloned()
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect()
}

/// Identity of the running build: state from another build of the
/// program is never compared against this one.
fn build_id() -> String {
    let exe = std::env::current_exe().expect("current executable path");
    let bytes = std::fs::read(exe).expect("read current executable");
    let mut h = FNV_OFFSET;
    fnv(&mut h, &bytes);
    format!("{h:016x}")
}

/// Repeat checks: every iteration against the run's first iteration on
/// the same world, the pinned digests for the pin seed's world, and
/// earlier runs of this build on the same worlds (recorded under
/// `perfbench/out/`). Failed checks are appended to the outcomes.
fn repeat_checks(w: Workload, outcomes: &mut [Outcome], update_pins: bool) {
    let mut first: BTreeMap<u64, BTreeMap<String, u64>> = BTreeMap::new();
    for o in outcomes.iter_mut() {
        let Some(prev) = first.get(&o.world) else {
            first.insert(o.world, o.fingerprint.clone());
            repeat_across_runs(w, o);
            continue;
        };
        let diff = diff_keys(prev, &o.fingerprint);
        report_diff("repeat-in-run", &diff);
        o.checks.push(("repeat-in-run".into(), diff.is_empty()));
    }
    let Some(o) = outcomes.iter_mut().find(|o| o.world == PIN_SEED) else {
        return;
    };
    let pinned: BTreeMap<String, u64> = o
        .pinned
        .iter()
        .map(|k| (k.to_string(), o.fingerprint[*k]))
        .collect();
    if update_pins {
        write_kv(&pin_path(w), &pinned);
        eprintln!("# pins written to {}", pin_path(w).display());
    }
    let diff = match read_kv(&pin_path(w)) {
        Some(pins) => diff_keys(&pins, &pinned),
        None => vec!["<pin file missing>".to_string()],
    };
    report_diff("pinned-digests", &diff);
    o.checks.push(("pinned-digests".into(), diff.is_empty()));
}

/// Compare an iteration's fingerprint with the one an earlier run of this
/// build recorded for the same world, or record it.
fn repeat_across_runs(w: Workload, o: &mut Outcome) {
    let state = out_dir()
        .join("fingerprints")
        .join(build_id())
        .join(format!("{}-{}.txt", w.name(), o.world));
    match read_kv(&state) {
        Some(prev) => {
            let diff = diff_keys(&prev, &o.fingerprint);
            report_diff("repeat-across-runs", &diff);
            o.checks
                .push(("repeat-across-runs".into(), diff.is_empty()));
        }
        None => write_kv(&state, &o.fingerprint),
    }
}

fn report_diff(check: &str, diff: &[String]) {
    if !diff.is_empty() {
        eprintln!("# {check} FAILED on: {}", diff.join(", "));
    }
}

/// Timed run: iterate for `seconds` (at least once), cycling through the
/// run's worlds, then replay setup.
fn timed(args: &Args) -> (Metrics, Vec<Outcome>) {
    let w = args.workload;
    let start = std::time::Instant::now();
    let mut outcomes = Vec::new();
    // Peak memory is that of the first iteration, in a fresh process:
    // later iterations add allocator creep that grows with however many
    // iterations the machine's speed allowed.
    let mut peak = 0.0;
    for i in 0.. {
        let o = w.run(w.world_seed(args.seed, i), &mut Spans::new(false));
        let next_done = start.elapsed().as_secs_f64() + o.elapsed;
        eprintln!(
            "# iteration {i} world {} elapsed {:.4} s cpu {:.4} s peak {:.1} MiB",
            o.world,
            o.elapsed,
            o.cpu,
            peak_rss_mib()
        );
        outcomes.push(o);
        if i == 0 {
            peak = peak_rss_mib();
        }
        if next_done > args.seconds {
            break;
        }
    }
    let setup = median(&w.setup_samples(args.seed));
    let per = |f: fn(&Outcome) -> f64| median(&outcomes.iter().map(f).collect::<Vec<_>>());
    let mut m = Metrics::default();
    m.real("elapsed_s", per(|o| o.elapsed), "s");
    m.real("setup_s", setup, "s");
    m.real("cpu_s", per(|o| o.cpu), "s");
    m.real("probes_per_s", per(|o| o.probes as f64 / o.elapsed), "1/s");
    m.real("peak_rss_mib", peak, "MiB");
    (m, outcomes)
}

/// Traced run: one traced iteration (spans around every call into the
/// program), one untraced iteration for the overhead, then the layer
/// replays. Writes the span file.
fn traced(args: &Args) -> (Metrics, Vec<Outcome>) {
    let w = args.workload;
    let mut sp = Spans::new(true);
    let mut traced = sp.span(w.name(), |sp| w.run(args.seed, sp));
    let untraced = w.run(args.seed, &mut Spans::new(false));
    let mut m = std::mem::take(&mut traced.layer);
    m.real("trace.elapsed_s", traced.elapsed, "s");
    m.real("trace.overhead_s", traced.elapsed - untraced.elapsed, "s");
    m.real("analysis.s", sp.total_prefix("analysis::"), "s");
    m.real("report.render_s", sp.total_prefix("report::"), "s");
    for (metric, span) in [
        ("lab.table5_s", "lab::table5"),
        ("lab.fig3a_s", "lab::figure3a_samples"),
        ("lab.table6_s", "lab::table6"),
    ] {
        m.real(metric, sp.total(span), "s");
    }
    if w == Workload::LabPorts {
        let lab_s = sp.total("lab::table5") + sp.total("lab::figure3a_samples");
        m.real("dns.lab_query_us", lab_s * 1e6 / traced.probes as f64, "us");
    }
    let replay_checks = sp.span("layer-replays", |sp| w.replay_layers(args.seed, &mut m, sp));
    traced.checks.extend(replay_checks);
    m.count("trace.spans", sp.len() as u64);
    m.zero_fill(&catalog::per_layer());
    let path = out_dir()
        .join("spans")
        .join(format!("{}-{}.json", w.name(), args.seed));
    let header = format!(
        "\"workload\": {}, \"seed\": {}, \"shards\": {}, \"workers\": {}",
        probe::json_str(w.name()),
        args.seed,
        workloads::SHARDS,
        workloads::WORKERS
    );
    sp.write_json(&path, &header, &traced.phases);
    eprintln!("# spans written to {}", path.display());
    (m, vec![traced, untraced])
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Every knob is pinned here; an inherited BCD_* variable would change
    // what the program runs behind the benchmark's back.
    let inherited: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("BCD_"))
        .collect();
    if !inherited.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set",
            inherited.join(", ")
        );
        return ExitCode::from(2);
    }
    let w = args.workload;
    eprintln!(
        "# {} seed={} seconds={} trace={} shards={} workers={} cpus={}",
        w.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        workloads::SHARDS,
        workloads::WORKERS,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let (metrics, mut outcomes) = if args.trace {
        traced(&args)
    } else {
        timed(&args)
    };
    repeat_checks(w, &mut outcomes, args.update_pins);

    print!("{}", metrics.render());
    for (i, o) in outcomes.iter().enumerate() {
        for (name, ok) in &o.checks {
            println!(
                "check[{i}] {name:<28} {}",
                if *ok { "ok" } else { "FAILED" }
            );
        }
    }
    let attempted = outcomes.len();
    let failed = outcomes.iter().filter(|o| !o.ok()).count();
    let catalog = if args.trace {
        catalog::per_layer()
    } else {
        catalog::end_to_end()
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        metrics.json_object(&catalog)
    );
    ExitCode::SUCCESS
}
