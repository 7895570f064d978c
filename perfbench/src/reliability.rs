//! `reliability`: a `fleet` job (default organization, 100 000
//! lifetimes) and a `rare-yield` job (default spec), both submitted
//! in-process on a fresh cold service, repeated with seeded job seeds.
//!
//! `field` and `yieldsim::rare` do all the work; the compile pipeline,
//! the cell cache and the wire are bypassed.

use crate::perlayer::{ratio, PerLayer};
use crate::trace::Tracer;
use crate::util::{median, ms, peak_rss_mb, timed, Outcome, Rng};
use crate::{Config, E2e, SETUPS};
use bisram_field::{simulate_fleet_golden_jobs, simulate_fleet_jobs, FieldConfig, FleetResult};
use bisram_mem::ArrayOrg;
use bisram_serve::{FleetJob, JobSpec, RareJob, Service};
use bisram_tech::Process;
use bisram_yield::rare::{RareEngine, TailEstimate, TrialKernel};
use bisramgen::CellCache;
use std::sync::Arc;
use std::time::{Duration, Instant};

const LIFETIMES: usize = 100_000;
/// Lifetimes in the untimed lane-vs-golden subsample.
const GOLDEN_LIFETIMES: usize = 512;

fn fleet_spec(seed: u64) -> String {
    format!("job = fleet\nlifetimes = {LIFETIMES}\nseed = {seed}\n")
}

fn rare_spec(seed: u64) -> String {
    format!("job = rare-yield\nseed = {seed}\n")
}

fn service(cfg: &Config) -> Service {
    Service::with_cache(Arc::new(CellCache::new()), Some(cfg.jobs))
}

/// The value of `<prefix> <key>: <value>` in a section.
fn field<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .map(str::trim)
}

struct Pair {
    fleet_seed: u64,
    rare_seed: u64,
    fleet: Duration,
    rare: Duration,
    fleet_text: String,
    rare_text: String,
}

fn submit(cfg: &Config, text: &str, out: &mut Outcome) -> (Duration, String) {
    let job = JobSpec::parse(text).expect("generated spec parses");
    let service = service(cfg);
    let ((outcome, _), took) = timed(|| service.submit(&job));
    out.attempted += 1;
    match outcome.as_ref() {
        Ok(r) => (
            took,
            r.sections
                .first()
                .map(|s| s.content.clone())
                .unwrap_or_default(),
        ),
        Err(e) => {
            // Every job uses valid defaults: a failure is a fault.
            out.failed += 1;
            out.check(false, || format!("job failed: {e}\n{text}"));
            (took, String::new())
        }
    }
}

fn check_pair(p: &Pair, out: &mut Outcome) {
    out.check(
        field(&p.fleet_text, "fleet lifetimes:") == Some(&LIFETIMES.to_string()),
        || format!("fleet job did not report {LIFETIMES} lifetimes"),
    );
    let p_fail: f64 = field(&p.rare_text, "rare is_p_fail:")
        .and_then(|v| v.parse().ok())
        .unwrap_or(f64::NAN);
    out.check(p_fail > 0.0 && p_fail < 1.0, || {
        format!("rare-yield p_fail {p_fail} is not a probability")
    });
}

fn run_window(cfg: &Config, budget: f64, out: &mut Outcome) -> Vec<Pair> {
    let mut rng = Rng::new(cfg.seed, 2);
    let start = Instant::now();
    let mut pairs = Vec::new();
    while pairs.is_empty() || start.elapsed().as_secs_f64() < budget {
        let fleet_seed = rng.next_u64() >> 1;
        let rare_seed = rng.next_u64() >> 1;
        let (fleet, fleet_text) = submit(cfg, &fleet_spec(fleet_seed), out);
        let (rare, rare_text) = submit(cfg, &rare_spec(rare_seed), out);
        let pair = Pair {
            fleet_seed,
            rare_seed,
            fleet,
            rare,
            fleet_text,
            rare_text,
        };
        check_pair(&pair, out);
        pairs.push(pair);
    }
    pairs
}

/// Lane-packed fleet tallies must equal the golden per-lifetime engine
/// on a small untimed subsample of the first fleet seed.
fn check_golden(cfg: &Config, seed: u64, out: &mut Outcome) {
    let config = field_config(&fleet_job(&fleet_spec(seed)));
    let lane = simulate_fleet_jobs(&config, GOLDEN_LIFETIMES, seed, cfg.jobs);
    let golden = simulate_fleet_golden_jobs(&config, GOLDEN_LIFETIMES, seed, cfg.jobs);
    out.check(lane == golden, || {
        format!("lane-packed fleet differs from golden on {GOLDEN_LIFETIMES} lifetimes")
    });
}

fn setup_once(cfg: &Config) -> f64 {
    let start = Instant::now();
    let service = service(cfg);
    for text in [
        "job = fleet\nlifetimes = 1000\n",
        "job = rare-yield\ntrials = 32\npilot = 16\n",
    ] {
        let job = JobSpec::parse(text).expect("warm-up spec");
        let (outcome, _) = service.submit(&job);
        assert!(outcome.is_ok(), "warm-up job failed");
    }
    start.elapsed().as_secs_f64()
}

pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::new();
    let setups: Vec<f64> = (0..SETUPS).map(|_| setup_once(cfg)).collect();
    if cfg.trace {
        run_traced(cfg, &mut out);
        return out;
    }
    let pairs = run_window(cfg, cfg.seconds, &mut out);
    let peak = peak_rss_mb(None).unwrap_or(f64::NAN);
    check_golden(cfg, pairs[0].fleet_seed, &mut out);

    let fleet_s: f64 = pairs.iter().map(|p| p.fleet.as_secs_f64()).sum();
    let lifetimes_per_s = (pairs.len() * LIFETIMES) as f64 / fleet_s;
    let rare_ms: Vec<f64> = pairs.iter().map(|p| ms(p.rare)).collect();
    let fleet_ms: Vec<f64> = pairs.iter().map(|p| ms(p.fleet)).collect();
    // Both rates restate a latency (100 000 / mean fleet job, and
    // trials / median rare-yield job); README.md names the overlap.
    let trials = RareJob::default().trials as f64;
    let rare_s = median(&rare_ms) / 1e3;
    out.line(format!(
        "fleet_lifetimes_per_s: {lifetimes_per_s:.1} lifetimes/s (n={} jobs of {LIFETIMES})",
        pairs.len()
    ));
    out.line(format!("rare_yield_s: {rare_s:.4} s (n={})", rare_ms.len()));
    E2e {
        setup_s: median(&setups),
        peak_rss_mb: peak,
        rate: lifetimes_per_s,
        rate2: trials / rare_s,
        light: rare_ms,
        heavy: fleet_ms,
    }
    .report(&mut out);
    out
}

/// The traced run: the untraced window over half the budget, then the
/// same jobs again as direct calls into `field` and `yieldsim::rare`,
/// in the service's order, each inside a span.
fn run_traced(cfg: &Config, out: &mut Outcome) {
    let pairs = run_window(cfg, cfg.seconds / 2.0, out);
    check_golden(cfg, pairs[0].fleet_seed, out);
    let mut t = Tracer::new();
    let mut layer = PerLayer::default();
    let mut work = Traced::default();
    let (mut traced_total, mut untraced_total) = (0.0, 0.0);
    for (i, p) in pairs.iter().enumerate() {
        let req = i as u64;
        let started = Instant::now();
        let fleet = work.fleet(&mut t, req, &fleet_job(&fleet_spec(p.fleet_seed)), cfg.jobs);
        let expect = [
            ("fleet deaths:", fleet.deaths.to_string()),
            ("fleet sessions_run:", fleet.sessions_run.to_string()),
            ("fleet rows_repaired:", fleet.rows_repaired.to_string()),
            ("fleet mttf_hours:", format!("{:.3}", fleet.mttf_hours)),
        ];
        for (key, value) in &expect {
            out.check(field(&p.fleet_text, key) == Some(value.as_str()), || {
                format!("traced fleet {key} {value} differs from the untraced section")
            });
        }
        let is = work.rare(&mut t, req, &rare_job(&rare_spec(p.rare_seed)), cfg.jobs);
        out.check(
            field(&p.rare_text, "rare is_p_fail:") == Some(format!("{:.6e}", is.p_fail).as_str()),
            || "traced rare-yield p_fail differs from the untraced section".to_owned(),
        );
        traced_total += started.elapsed().as_secs_f64();
        untraced_total += (p.fleet + p.rare).as_secs_f64();
    }
    work.set_metrics(&mut layer, &t);
    let covered = [
        "field.fleet",
        "rare.pilot",
        "rare.calibrate",
        "rare.find_shifts",
        "rare.is",
    ]
    .iter()
    .map(|s| t.self_ms(s))
    .sum::<f64>();
    let overhead = traced_total / untraced_total - 1.0;
    layer.set("trace.overhead_frac", overhead);
    out.line(format!(
        "untraced job total: {:.1} ms over {} pairs; traced: {:.1} ms (overhead {:+.2}%)",
        untraced_total * 1e3,
        pairs.len(),
        traced_total * 1e3,
        overhead * 100.0
    ));
    out.line(format!(
        "field + rare self time covers {:.1}% of the untraced total",
        ratio(covered, untraced_total * 1e3) * 100.0
    ));
    crate::print_layers(out, &t, untraced_total * 1e3);
    crate::write_spans(cfg, &t);
    out.metrics = layer.into_metrics();
}

fn fleet_job(text: &str) -> FleetJob {
    match JobSpec::parse(text) {
        Ok(JobSpec::Fleet(job)) => job,
        other => panic!("not a fleet spec: {other:?}\n{text}"),
    }
}

fn rare_job(text: &str) -> RareJob {
    match JobSpec::parse(text) {
        Ok(JobSpec::RareYield(job)) => job,
        other => panic!("not a rare-yield spec: {other:?}\n{text}"),
    }
}

/// The field configuration the service builds for a fleet job.
fn field_config(job: &FleetJob) -> FieldConfig {
    let org = ArrayOrg::new(job.words, job.bpw, job.bpc, job.spares).expect("fleet organization");
    let mut config = FieldConfig::new(org, job.lambda, job.period, job.horizon);
    config.max_retries = job.retries;
    config.transient_upset_probability = job.upset_prob;
    config.spare_policy = job.policy;
    config
}

/// Field and rare-yield work done under spans.
#[derive(Default)]
struct Traced {
    fleets: Vec<FleetResult>,
    /// `(modes, estimate)` per rare-yield job.
    rares: Vec<(usize, TailEstimate)>,
}

impl Traced {
    /// One fleet through `simulate_fleet_jobs`, as the service runs it.
    fn fleet(&mut self, t: &mut Tracer, req: u64, job: &FleetJob, jobs: usize) -> &FleetResult {
        let config = field_config(job);
        let result = t.span("field.fleet", req, |_| {
            simulate_fleet_jobs(&config, job.lifetimes, job.seed, jobs)
        });
        self.fleets.push(result);
        self.fleets.last().expect("just pushed")
    }

    /// One rare-yield estimate, in the service's order: pilot, threshold
    /// calibration, shift search, mixture importance sampling.
    fn rare(&mut self, t: &mut Tracer, req: u64, job: &RareJob, jobs: usize) -> TailEstimate {
        let process = Process::by_name(&job.process).expect("rare-yield process");
        let kernel = TrialKernel::by_name(&job.kernel).expect("rare-yield kernel");
        let mut engine = RareEngine::for_process(&process, kernel, 0.0);
        t.span("rare.pilot", req, |_| {
            engine.metric_stats(job.seed, job.pilot, jobs)
        });
        engine.threshold = t.span("rare.calibrate", req, |_| {
            engine.calibrate_threshold(job.seed, job.pilot, job.target_p, jobs)
        });
        let shifts = t.span("rare.find_shifts", req, |_| engine.find_shifts());
        let is = t.span("rare.is", req, |_| {
            engine.run_is_mixture(job.seed, job.trials, jobs, &shifts)
        });
        self.rares.push((shifts.len(), is));
        is
    }

    /// Per-job self times, and the tallies of the first fleet and
    /// rare-yield job: fixed by `--seed`, so they repeat exactly for a
    /// seed however many jobs fit the window.
    fn set_metrics(&self, layer: &mut PerLayer, t: &Tracer) {
        let fleets = self.fleets.len() as f64;
        layer.set("field.fleet.ms", ratio(t.self_ms("field.fleet"), fleets));
        if let Some(f) = self.fleets.first() {
            layer.set("field.sessions_run", f.sessions_run as f64);
            layer.set("field.rows_repaired", f.rows_repaired as f64);
            layer.set("field.deaths", f.deaths as f64);
        }
        let rares = self.rares.len() as f64;
        for (span, name) in [
            ("rare.pilot", "rare.pilot.ms"),
            ("rare.calibrate", "rare.calibrate.ms"),
            ("rare.find_shifts", "rare.find_shifts.ms"),
            ("rare.is", "rare.is.ms"),
        ] {
            layer.set(name, ratio(t.self_ms(span), rares));
        }
        if let Some((modes, is)) = self.rares.first() {
            layer.set("rare.modes", *modes as f64);
            layer.set("rare.is_trials", is.trials as f64);
            layer.set("rare.rse", is.rse());
        }
    }
}
