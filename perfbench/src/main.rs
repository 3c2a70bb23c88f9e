//! The ktpm benchmark: one binary, two workloads, end-to-end metrics
//! by default and per-layer metrics with `--trace 1`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold-t20 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it
//! is the run record (workload, seed, nproc, commit, cold/warm state,
//! sample counts, tail percentiles, generator validity). Progress and
//! notes go to standard error. See `perfbench/README.md` for what each
//! workload and metric means.

mod cold;
mod data;
mod deep;
mod layers;
mod stats;
mod trace;
mod wire;

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Counts heap allocations (alloc + realloc) so the traced run can
/// report allocations per match; one relaxed increment per call.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call delegates verbatim to `System`; the counter has no
// effect on allocation behaviour.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations since process start.
pub fn alloc_count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ColdT20,
    DeepK,
}

impl Workload {
    const ALL: [Workload; 2] = [Workload::ColdT20, Workload::DeepK];

    fn name(self) -> &'static str {
        match self {
            Workload::ColdT20 => "cold-t20",
            Workload::DeepK => "deep-k",
        }
    }
}

/// Command-line arguments.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = Workload::ALL
        .into_iter()
        .find(|w| w.name() == name)
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace").unwrap_or_else(|_| "0".into()).as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything a workload hands back for printing.
#[derive(Default)]
pub struct Report {
    /// Requests attempted.
    pub attempted: u64,
    /// Requests that failed: error replies, sheds, timeouts, wrong
    /// answers, or violated counter checks.
    pub failed: u64,
    /// End-to-end metrics (printed with `--trace 0`).
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (printed with `--trace 1`).
    pub layers: Vec<Metric>,
    /// Run-record fields, as `(key, JSON value)`.
    pub record: Vec<(String, String)>,
    /// Human-readable reasons for each failure kind seen.
    pub problems: Vec<String>,
}

impl Report {
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.e2e.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layers.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn note(&mut self, key: &str, json: impl Into<String>) {
        self.record.push((key.to_string(), json.into()));
    }

    /// Counts `n` failures of one kind, keeping its description.
    pub fn fail(&mut self, n: u64, why: impl Into<String>) {
        if n > 0 {
            self.failed += n;
            self.problems.push(why.into());
        }
    }

    /// One more attempted check, failed unless `ok`.
    pub fn check(&mut self, ok: bool, why: impl Into<String>) {
        self.attempted += 1;
        self.fail(u64::from(!ok), why);
    }
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Makes glibc malloc use one arena. Each thread would otherwise get an
/// arena of its own, whose freed pages stay resident or not depending
/// on which thread ran what, moving `peak_rss_mb` by a third between
/// runs of the same load. The loads are single-threaded closed loops,
/// so one arena costs them no contention.
fn one_malloc_arena() {
    /// glibc's `M_ARENA_MAX`.
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: called first in `main`, before any other thread exists.
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    unsafe {
        mallopt(M_ARENA_MAX, 1);
    }
}

/// Returns freed heap memory to the OS (glibc keeps it otherwise), then
/// resets this process's peak resident set size to its current one
/// (Linux `clear_refs` mode 5), so that [`peak_rss_mb`] afterwards
/// covers only what is resident or runs from here on.
pub fn reset_peak_rss() {
    // SAFETY: `malloc_trim` only releases free heap pages; it is safe to
    // call at any time.
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    unsafe {
        malloc_trim(0);
    }
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        eprintln!("perfbench: cannot reset the peak RSS: {e}");
    }
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Logical cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit under test, read from `.git` in the working directory
/// (the benchmark runs from the repository root); `unknown` in a
/// checkout without git metadata.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let head = read(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let resolved = match head.strip_prefix("ref: ") {
        None => Some(head.to_string()),
        Some(r) => read(&format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .or_else(|| {
                read(".git/packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next().map(str::to_string))
            }),
    };
    resolved
        .filter(|c| c.len() >= 40 && c.bytes().all(|b| b.is_ascii_hexdigit()))
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
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

fn main() {
    let started = Instant::now();
    one_malloc_arena();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: --workload <cold-t20|deep-k> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let scratch = data::Scratch::create();
    let mut report = match args.workload {
        Workload::ColdT20 => cold::run(&args, &scratch),
        Workload::DeepK => deep::run(&args, &scratch),
    };
    drop(scratch);
    let ok_ratio = if report.attempted == 0 {
        0.0
    } else {
        1.0 - report.failed as f64 / report.attempted as f64
    };
    report.e2e("ok_ratio", ok_ratio, "ratio");

    let metrics = if args.trace {
        &report.layers
    } else {
        &report.e2e
    };
    let mut correct = report.failed == 0 && report.attempted > 0;
    for m in metrics {
        if !m.value.is_finite() {
            correct = false;
            report
                .problems
                .push(format!("metric {} is not finite", m.name));
        }
    }
    for p in &report.problems {
        eprintln!("perfbench: FAILED: {p}");
    }

    let mut record = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \
         \"commit\": {}, \"wall_s\": {:.3}",
        json_str(args.workload.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc(),
        json_str(&commit()),
        started.elapsed().as_secs_f64(),
    );
    for (k, v) in &report.record {
        let _ = write!(record, ", {}: {}", json_str(k), v);
    }
    let problems: Vec<String> = report.problems.iter().map(|p| json_str(p)).collect();
    let _ = write!(record, ", \"problems\": [{}]}}", problems.join(", "));
    println!("{record}");

    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { -1.0 };
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(&m.name),
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        body.join(", ")
    );
}
