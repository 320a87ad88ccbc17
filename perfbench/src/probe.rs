//! Measurement plumbing: process clocks from `/proc/self`, the span
//! recorder of the traced run, order statistics, and the metric table the
//! benchmark prints.

use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// `struct timespec` of the C library.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Process user + system CPU seconds, all threads (live and exited), at
/// nanosecond resolution. `/proc/self/stat` counts the same time in 10 ms
/// ticks, too coarse to tell two runs apart.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this builds for) that outlives
    // the call; the clock id is a constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib as f64 / 1024.0
}

/// Wall and CPU clocks started together.
pub struct Clock {
    wall: Instant,
    cpu: f64,
}

impl Clock {
    pub fn start() -> Clock {
        Clock {
            wall: Instant::now(),
            cpu: cpu_seconds(),
        }
    }

    /// `(elapsed wall seconds, CPU seconds)` since [`Clock::start`].
    pub fn stop(&self) -> (f64, f64) {
        let wall = self.wall.elapsed().as_secs_f64();
        (wall, cpu_seconds() - self.cpu)
    }
}

/// One recorded span: a call the benchmark made into the program.
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// In-memory span recorder. Disarmed, [`Spans::span`] only calls through.
pub struct Spans {
    armed: bool,
    origin: Instant,
    stack: Vec<usize>,
    list: Vec<Span>,
}

impl Spans {
    pub fn new(armed: bool) -> Spans {
        Spans {
            armed,
            origin: Instant::now(),
            stack: Vec::new(),
            list: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name`, parented to the enclosing span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> T) -> T {
        if !self.armed {
            return f(self);
        }
        let start = self.origin.elapsed();
        let id = self.list.len();
        self.list.push(Span {
            name: name.to_string(),
            parent: self.stack.last().copied(),
            start,
            end: start,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.list[id].end = self.origin.elapsed();
        out
    }

    /// Summed duration of the spans named exactly `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.list
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |acc, s| acc + s.secs())
    }

    /// Summed duration of the spans whose name starts with `prefix`.
    pub fn total_prefix(&self, prefix: &str) -> f64 {
        self.list
            .iter()
            .filter(|s| s.name.starts_with(prefix))
            .fold(0.0, |acc, s| acc + s.secs())
    }

    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// Write the spans, plus the program's own phase records, as JSON.
    pub fn write_json(&self, path: &Path, header: &str, phases: &[bcd_obs::PhaseRecord]) {
        let mut out = String::new();
        let _ = write!(out, "{{{header},\n\"spans\": [");
        for (i, s) in self.list.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}\n  {{\"id\": {i}, \"parent\": {parent}, \"name\": {}, \"start_s\": {}, \"end_s\": {}}}",
                if i == 0 { "" } else { "," },
                json_str(&s.name),
                s.start.as_secs_f64(),
                s.end.as_secs_f64()
            );
        }
        out.push_str("\n],\n\"phases\": [");
        for (i, p) in phases.iter().enumerate() {
            let shard = p.shard.map_or("null".to_string(), |s| s.to_string());
            let rss = p.rss_peak_kib.map_or("null".to_string(), |k| k.to_string());
            let _ = write!(
                out,
                "{}\n  {{\"name\": {}, \"shard\": {shard}, \"wall_s\": {}, \"rss_peak_kib\": {rss}}}",
                if i == 0 { "" } else { "," },
                json_str(&p.name),
                p.wall.as_secs_f64()
            );
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).expect("create span directory");
        }
        std::fs::write(path, out).expect("write span file");
    }
}

/// JSON string literal (names here are ASCII; quotes and backslashes are
/// escaped anyway).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile `q` of a sorted non-empty sample.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Operations per clock read in [`time_batched`].
const BATCH: usize = 16;

/// Per-operation latency of `n` operations, timed in batches of [`BATCH`]
/// (one clock read per batch keeps timer cost out of nanosecond-scale
/// operations). Returns one ns/op value per batch.
pub fn time_batched(n: usize, mut op: impl FnMut(usize)) -> Vec<f64> {
    let mut per_op = Vec::with_capacity(n.div_ceil(BATCH));
    let mut i = 0;
    while i < n {
        let end = (i + BATCH).min(n);
        let t = Instant::now();
        for j in i..end {
            op(j);
        }
        per_op.push(t.elapsed().as_nanos() as f64 / (end - i) as f64);
        i = end;
    }
    per_op
}

/// A metric value: exact counts print as integers.
#[derive(Clone, Copy)]
enum Value {
    Real(f64),
    Count(u64),
}

impl Value {
    fn json(self) -> String {
        match self {
            // `{}` prints the shortest representation that round-trips,
            // i.e. every digit the measurement has.
            Value::Real(v) if v.is_finite() => format!("{v}"),
            Value::Real(_) => "0".to_string(),
            Value::Count(n) => n.to_string(),
        }
    }
}

/// Named metrics with units, in insertion order.
#[derive(Default)]
pub struct Metrics {
    rows: Vec<(String, Value, &'static str)>,
}

impl Metrics {
    pub fn real(&mut self, name: &str, v: f64, unit: &'static str) {
        self.set(name, Value::Real(v), unit);
    }

    pub fn count(&mut self, name: &str, n: u64) {
        self.set(name, Value::Count(n), "count");
    }

    /// p50 / p99 / sample count of a per-operation latency sample.
    pub fn latency(&mut self, name: &str, ops: usize, mut per_op_ns: Vec<f64>) {
        per_op_ns.sort_by(f64::total_cmp);
        let (p50, p99) = if per_op_ns.is_empty() {
            (0.0, 0.0)
        } else {
            (
                quantile_sorted(&per_op_ns, 0.50),
                quantile_sorted(&per_op_ns, 0.99),
            )
        };
        self.real(&format!("{name}.p50"), p50, "ns");
        self.real(&format!("{name}.p99"), p99, "ns");
        self.count(&format!("{name}.n"), ops as u64);
    }

    fn set(&mut self, name: &str, v: Value, unit: &'static str) {
        match self.rows.iter_mut().find(|r| r.0 == name) {
            Some(row) => {
                row.1 = v;
                row.2 = unit;
            }
            None => self.rows.push((name.to_string(), v, unit)),
        }
    }

    /// The exact count recorded under `name` (0 if none).
    pub fn count_of(&self, name: &str) -> u64 {
        match self.rows.iter().find(|r| r.0 == name).map(|r| r.1) {
            Some(Value::Count(n)) => n,
            _ => 0,
        }
    }

    /// Record 0 for every catalog metric this run did not produce (the
    /// layers the workload bypasses).
    pub fn zero_fill(&mut self, catalog: &[(String, &'static str)]) {
        for (name, unit) in catalog {
            if !self.rows.iter().any(|r| &r.0 == name) {
                let v = if *unit == "count" {
                    Value::Count(0)
                } else {
                    Value::Real(0.0)
                };
                self.rows.push((name.clone(), v, unit));
            }
        }
    }

    /// Human-readable lines, one metric each.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, v, unit) in &self.rows {
            let _ = writeln!(out, "{name:<34} {:>22} {unit}", v.json());
        }
        out
    }

    /// The `metrics` object of the result line, restricted to `names`
    /// (in that order). A listed metric the run did not produce is a bug
    /// in the benchmark.
    pub fn json_object(&self, names: &[(String, &'static str)]) -> String {
        let mut out = String::from("{");
        for (i, (name, unit)) in names.iter().enumerate() {
            let row = self
                .rows
                .iter()
                .find(|r| &r.0 == name)
                .unwrap_or_else(|| panic!("metric {name} was not produced"));
            assert_eq!(row.2, *unit, "metric {name} has unit {}", row.2);
            let _ = write!(
                out,
                "{}{}: {{\"value\": {}, \"unit\": {}}}",
                if i == 0 { "" } else { ", " },
                json_str(name),
                row.1.json(),
                json_str(unit)
            );
        }
        out.push('}');
        out
    }
}
