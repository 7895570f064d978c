//! The repository benchmark.
//!
//! ```text
//! bisram-perfbench --workload <compile-scale|reliability|daemon-mix>
//!     --seed <n> --seconds <s> --trace <0|1> [--daemon-bin <path>]
//! ```
//!
//! Prints a human-readable report, then as its last line one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. See `README.md` beside this crate for what each
//! workload exercises and why.

mod compile_scale;
mod daemon_mix;
mod layers;
mod perlayer;
mod reliability;
mod trace;
mod util;

use std::path::PathBuf;
use std::time::Duration;
use util::{median, Outcome};

/// Hard ceiling on one run: past it the watchdog kills any daemon and
/// exits without a result.
const HARD_LIMIT: Duration = Duration::from_secs(170);

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub jobs: usize,
    pub daemon_bin: Option<PathBuf>,
    /// Scratch directory inside the checkout (sockets, span dumps).
    pub run_dir: PathBuf,
}

/// The end-to-end metrics every workload reports, each with its
/// workload-specific meaning (README.md has the table).
pub struct E2e {
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    /// The workload's headline throughput.
    pub rate: f64,
    /// The workload's second throughput.
    pub rate2: f64,
    /// Latencies (ms) of the workload's light, repeated job class.
    pub light: Vec<f64>,
    /// Latencies (ms) of the workload's heavy job class.
    pub heavy: Vec<f64>,
}

impl E2e {
    pub fn report(self, out: &mut Outcome) {
        out.line(format!(
            "light_ms: n={}, heavy_ms: n={}",
            self.light.len(),
            self.heavy.len()
        ));
        out.push("setup_s", self.setup_s, "s");
        out.push("peak_rss_mb", self.peak_rss_mb, "MB");
        // A rate nothing was measured for reads 0, never a large
        // number: both rates are higher-is-better.
        let rate = |r: f64| if r.is_finite() { r } else { 0.0 };
        out.push("rate_per_s", rate(self.rate), "1/s");
        out.push("rate2_per_s", rate(self.rate2), "1/s");
        // Medians only: a p90 with ten samples beyond it exists only on
        // daemon-mix, which prints its p90s as report lines.
        out.push("light_ms.p50", median(&self.light), "ms");
        out.push("heavy_ms.p50", median(&self.heavy), "ms");
    }
}

/// Per-layer self time next to the untraced total it should cover.
pub fn print_layers(out: &mut Outcome, t: &trace::Tracer, untraced_ms: f64) {
    out.line(format!(
        "{:<26} {:>7} {:>12} {:>12} {:>8}",
        "span", "calls", "total ms", "self ms", "self %"
    ));
    for (name, l) in t.layers() {
        out.line(format!(
            "{name:<26} {:>7} {:>12.3} {:>12.3} {:>7.1}%",
            l.calls,
            l.total_ms,
            l.self_ms,
            perlayer::ratio(l.self_ms, untraced_ms) * 100.0
        ));
    }
    out.line(format!(
        "{:<26} {:>7} {:>12.3}",
        "untraced total", "", untraced_ms
    ));
}

/// Writes the span dump once, at the end of a traced run.
pub fn write_spans(cfg: &Config, t: &trace::Tracer) {
    let path = cfg
        .run_dir
        .join(format!("spans-{}-seed{}.tsv", cfg.workload, cfg.seed));
    if let Err(e) = t.write(&path) {
        eprintln!("writing {}: {e}", path.display());
    }
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "error: {msg}\nusage: bisram-perfbench --workload <compile-scale|reliability|daemon-mix> \
         --seed <n> --seconds <s> --trace <0|1> [--daemon-bin <path>]"
    );
    std::process::exit(2);
}

fn parse_args() -> Config {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut daemon_bin = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--daemon-bin" => daemon_bin = Some(PathBuf::from(value)),
            other => usage(&format!("unknown option {other}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !["compile-scale", "reliability", "daemon-mix"].contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload}"));
    }
    let run_dir = PathBuf::from(".bench_run");
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        usage(&format!("creating {}: {e}", run_dir.display()));
    }
    Config {
        workload,
        seed: seed.unwrap_or_else(|| usage("--seed takes a whole number")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds takes a positive number")),
        trace,
        jobs: util::nproc(),
        daemon_bin,
        run_dir,
    }
}

fn main() {
    let cfg = parse_args();
    std::thread::spawn(|| {
        std::thread::sleep(HARD_LIMIT);
        eprintln!("perfbench: run exceeded {HARD_LIMIT:?}; giving up");
        daemon_mix::kill_all();
        std::process::exit(3);
    });
    let mut out = match cfg.workload.as_str() {
        "compile-scale" => compile_scale::run(&cfg),
        "reliability" => reliability::run(&cfg),
        _ => daemon_mix::run(&cfg),
    };
    if out.attempted == 0 {
        out.check(false, || "nothing was attempted".to_owned());
    }
    println!(
        "workload: {} seed: {} seconds: {} trace: {} nproc: {} jobs: {} rev: {}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        util::nproc(),
        cfg.jobs,
        util::git_rev()
    );
    for line in &out.report {
        println!("{line}");
    }
    println!(
        "failed_frac: {:.6} ({} of {} attempted)",
        perlayer::ratio(out.failed as f64, out.attempted as f64),
        out.failed,
        out.attempted
    );
    for m in &out.metrics {
        println!("{}: {} {}", m.name, m.value, m.unit);
    }
    println!("{}", util::result_json(&out));
}
