//! `compile-scale`: one closed-loop caller submits `job = compile`
//! points through `Service::submit`, each on a fresh cold service.
//!
//! Floorplan, signoff verification and CIF export do almost all the
//! work; the daemon's socket and framing are bypassed.

use crate::layers::{self, STAGES};
use crate::perlayer::PerLayer;
use crate::trace::Tracer;
use crate::util::{digest, median, ms, peak_rss_mb, quantile, timed, Outcome, Rng, PROCESSES};
use crate::{Config, E2e, SETUPS};
use bisram_serve::{CompileJob, JobResult, JobSpec, Section, Service};
use bisramgen::CellCache;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// The default 1024×32 compile, repeated cold.
    Default,
    /// 65536×32 (2 Mb), no verification.
    Anchor2M,
    /// 16384×32 (512 Kb) with `verify = hier`.
    Anchor512Hier,
    /// A stratified log-uniform draw between 16 Kb and 2 Mb.
    Drawn,
}

struct Point {
    kind: Kind,
    text: String,
    job: CompileJob,
    mbit: f64,
}

fn point(kind: Kind, text: String) -> Point {
    let job = match JobSpec::parse(&text) {
        Ok(JobSpec::Compile(job)) => job,
        other => panic!("generated spec must parse as a compile job: {other:?}\n{text}"),
    };
    let mbit = (job.words * job.bpw) as f64 / (1u64 << 20) as f64;
    Point {
        kind,
        text,
        job,
        mbit,
    }
}

fn default_point() -> Point {
    point(Kind::Default, "job = compile\n".to_owned())
}

fn anchor_2m() -> Point {
    point(
        Kind::Anchor2M,
        "job = compile\nwords = 65536\nbpw = 32\n".to_owned(),
    )
}

fn anchor_512k_hier() -> Point {
    point(
        Kind::Anchor512Hier,
        "job = compile\nwords = 16384\nbpw = 32\nverify = hier\n".to_owned(),
    )
}

/// Size strata per round: one drawn point per stratum of the log-size
/// range, so every whole round covers 16 Kb to 2 Mb evenly.
const STRATA: usize = 8;
/// The stratum whose point streams the flattened CIF (23–42 Kb, small
/// enough that the service flattens rather than writing its stub).
const CIF_STRATUM: usize = 1;
/// The strata whose points run `verify = hier`, one per half of the
/// size range (64–118 Kb and 0.5–0.9 Mb).
const HIER_STRATA: [usize; 2] = [2, 5];

/// One drawn point: total bits log-uniform inside stratum `s`, then a
/// seeded shape (column mux, 16–48 bits per word, spares, process).
/// Verification cost grows with the word count rather than the bit
/// count, so the word width stays within a factor of 3 to keep rounds
/// comparable.
fn drawn(rng: &mut Rng, s: usize) -> Point {
    let lo = 14.0 + 7.0 * s as f64 / STRATA as f64;
    let hi = 14.0 + 7.0 * (s + 1) as f64 / STRATA as f64;
    let bits = (lo + (hi - lo) * rng.unit()).exp2();
    let bpc = *rng.pick(&[4usize, 8, 16]);
    let shapes: Vec<(usize, usize)> = (4..=16)
        .map(|k| 1usize << k)
        .filter(|&words| words / bpc >= 16)
        .map(|words| (words, (bits / words as f64).round() as usize))
        .filter(|&(_, bpw)| (16..=48).contains(&bpw))
        .collect();
    let (words, bpw) = *rng.pick(&shapes);
    let spares = *rng.pick(&[4usize, 8, 16]);
    let process = rng.pick(&PROCESSES);
    let mut text = format!(
        "job = compile\nwords = {words}\nbpw = {bpw}\nbpc = {bpc}\nspares = {spares}\nprocess = {process}\n"
    );
    if HIER_STRATA.contains(&s) {
        text.push_str("verify = hier\n");
    }
    if s == CIF_STRATUM {
        text.push_str("cif = 1\n");
    }
    point(Kind::Drawn, text)
}

/// One round: the 512 Kb hierarchical anchor, then every stratum once
/// in seeded order, each preceded by two cold default compiles.
fn round(rng: &mut Rng) -> Vec<Point> {
    let mut order: Vec<usize> = (0..STRATA).collect();
    rng.shuffle(&mut order);
    let drawn = order
        .into_iter()
        .flat_map(|s| [default_point(), default_point(), drawn(rng, s)]);
    std::iter::once(anchor_512k_hier()).chain(drawn).collect()
}

/// What one untraced submit returned.
struct Done {
    kind: Kind,
    mbit: f64,
    hier: bool,
    latency: Duration,
    /// Digest of the response sections; `None` when the job failed.
    digest: Option<u64>,
    /// The sections themselves, kept only for the traced run's byte
    /// comparison so an untraced run holds no outputs in memory while
    /// its peak RSS is measured.
    sections: Vec<Section>,
}

fn submit(cfg: &Config, p: &Point, out: &mut Outcome) -> Done {
    let service = Service::with_cache(Arc::new(CellCache::new()), Some(cfg.jobs));
    let job = JobSpec::Compile(p.job.clone());
    let ((outcome, _), latency) = timed(|| service.submit(&job));
    out.attempted += 1;
    let (digest, sections) = match outcome.as_ref() {
        Ok(r) => {
            check_result(p, r, out);
            let keep = if cfg.trace {
                r.sections.clone()
            } else {
                Vec::new()
            };
            (Some(digest(&r.sections)), keep)
        }
        Err(e) => {
            // Every point is a valid organization: a failure is a fault.
            out.failed += 1;
            out.check(false, || format!("compile failed: {e}\n{}", p.text));
            (None, Vec::new())
        }
    };
    Done {
        kind: p.kind,
        mbit: p.mbit,
        hier: p.job.verify.mode().is_some(),
        latency,
        digest,
        sections,
    }
}

/// Output checks on one response: the metrics echo the point, every
/// hierarchical point is verify-clean, CIF points carry either a
/// complete CIF or the service's one-line stub for a module it chose
/// not to flatten.
fn check_result(p: &Point, r: &JobResult, out: &mut Outcome) {
    let metrics = r.section("metrics.txt").unwrap_or("");
    let echo = format!("metric words: {}\nmetric bpw: {}\n", p.job.words, p.job.bpw);
    out.check(metrics.contains(&echo), || {
        format!("metrics.txt does not echo the point\n{}", p.text)
    });
    if p.job.verify.mode().is_some() {
        out.check(metrics.contains("metric verify_clean: 1\n"), || {
            format!("verify = hier point is not clean\n{}", p.text)
        });
    }
    if p.job.cif {
        let cif = r.section("layout.cif");
        let complete = match cif {
            Some(cif) => !layers::has_flat_cif(&r.sections) || cif.trim_end().ends_with('E'),
            None => false,
        };
        out.check(complete, || {
            format!("layout.cif is missing or not a complete CIF\n{}", p.text)
        });
    }
}

/// Time spent in setup: a fresh cold service ready to answer, shown by
/// one warm-up compile of the smallest size.
fn setup_once(cfg: &Config) -> f64 {
    let start = Instant::now();
    let service = Service::with_cache(Arc::new(CellCache::new()), Some(cfg.jobs));
    let warm = JobSpec::parse("job = compile\nwords = 512\nbpw = 32\n").expect("warm-up spec");
    let (outcome, _) = service.submit(&warm);
    assert!(outcome.is_ok(), "warm-up compile failed");
    start.elapsed().as_secs_f64()
}

/// Runs the 2 Mb anchor, then whole rounds until `budget` has passed
/// (at least one, so every point kind is measured).
fn run_window(cfg: &Config, budget: f64, out: &mut Outcome) -> (Vec<Point>, Vec<Done>) {
    let mut rng = Rng::new(cfg.seed, 1);
    let start = Instant::now();
    let mut points = vec![anchor_2m()];
    let mut done = vec![submit(cfg, &points[0], out)];
    loop {
        for p in round(&mut rng) {
            done.push(submit(cfg, &p, out));
            points.push(p);
        }
        if start.elapsed().as_secs_f64() >= budget {
            return (points, done);
        }
    }
}

/// Mbit compiled per second over the non-default points with or
/// without verification. A failed point adds its time but no bits, so
/// failing fast never reads as a faster compile.
fn mbit_per_s(done: &[Done], hier: bool) -> f64 {
    let sel = done
        .iter()
        .filter(|d| d.kind != Kind::Default && d.hier == hier);
    let (bits, secs) = sel.fold((0.0, 0.0), |(b, s), d| {
        let bits = if d.digest.is_some() { d.mbit } else { 0.0 };
        (b + bits, s + d.latency.as_secs_f64())
    });
    bits / secs
}

fn latencies(done: &[Done], kind: Kind) -> Vec<f64> {
    done.iter()
        .filter(|d| d.kind == kind)
        .map(|d| {
            if d.digest.is_some() {
                ms(d.latency)
            } else {
                f64::INFINITY
            }
        })
        .collect()
}

pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::new();
    let setups: Vec<f64> = (0..SETUPS).map(|_| setup_once(cfg)).collect();
    if cfg.trace {
        run_traced(cfg, &mut out);
        return out;
    }
    let (_, done) = run_window(cfg, cfg.seconds, &mut out);
    let peak = peak_rss_mb(None).unwrap_or(f64::NAN);

    let defaults = latencies(&done, Kind::Default);
    let drawn = latencies(&done, Kind::Drawn);
    let hier_anchor = latencies(&done, Kind::Anchor512Hier);
    let anchor_2m = latencies(&done, Kind::Anchor2M)[0];
    let default_ms = median(&defaults);
    let compile_rate = mbit_per_s(&done, false);
    let signoff_rate = mbit_per_s(&done, true);
    let identical = done
        .iter()
        .filter(|d| d.kind == Kind::Default)
        .filter_map(|d| d.digest)
        .collect::<Vec<_>>();
    out.check(identical.windows(2).all(|w| w[0] == w[1]), || {
        "repeated default compiles are not byte-identical".to_owned()
    });

    out.line(format!(
        "default_compile_ms: {default_ms:.3} ms (n={})",
        defaults.len()
    ));
    out.line(format!("compile_mbit_per_s: {compile_rate:.4} Mbit/s"));
    out.line(format!("signoff_mbit_per_s: {signoff_rate:.4} Mbit/s"));
    out.line(format!(
        "anchor default 1024x32: {default_ms:.1} ms median (n={}; target <= 25 ms, information only)",
        defaults.len()
    ));
    out.line(format!(
        "anchor 512Kb 16384x32 verify=hier: {:.3} s median (n={}; target <= 0.5 s, information only)",
        median(&hier_anchor) / 1e3,
        hier_anchor.len()
    ));
    out.line(format!(
        "anchor 2Mb 65536x32 no verify: {:.3} s (n=1; target <= 0.1 s, information only)",
        anchor_2m / 1e3
    ));
    out.line(format!(
        "drawn point latency: p50 {:.1} ms, p90 {:.1} ms (n={})",
        median(&drawn),
        quantile(&drawn, 0.9),
        drawn.len()
    ));
    E2e {
        setup_s: median(&setups),
        peak_rss_mb: peak,
        rate: compile_rate,
        rate2: signoff_rate,
        light: defaults,
        heavy: hier_anchor,
    }
    .report(&mut out);
    out
}

/// The traced run: the untraced window over half the budget, then the
/// same points again stage by stage with spans, and the verification
/// probe on every hierarchical point.
fn run_traced(cfg: &Config, out: &mut Outcome) {
    let (points, done) = run_window(cfg, cfg.seconds / 2.0, out);
    let mut t = Tracer::new();
    let mut layer = PerLayer::default();
    let mut verify = layers::VerifyTally::default();
    let mut cif_bytes = Vec::new();
    let mut traced_total = 0.0;
    let mut untraced_total = 0.0;
    let mut points_traced = 0;
    for (i, (p, d)) in points.iter().zip(&done).enumerate() {
        if d.digest.is_none() {
            continue;
        }
        let untraced = &d.sections;
        let req = i as u64;
        let cache = Arc::new(CellCache::new());
        let flat_cif = layers::has_flat_cif(untraced);
        let started = Instant::now();
        let traced = t.span("point", req, |t| {
            layers::traced_compile(t, req, &p.job, &cache, cfg.jobs, true, flat_cif)
        });
        traced_total += started.elapsed().as_secs_f64();
        untraced_total += d.latency.as_secs_f64();
        points_traced += 1;
        let traced = match traced {
            Ok(traced) => traced,
            Err(e) => {
                out.check(false, || format!("traced compile failed: {e}\n{}", p.text));
                continue;
            }
        };
        if let Err(e) = layers::same_sections(&traced.sections, untraced) {
            out.check(false, || format!("traced vs untraced: {e}\n{}", p.text));
        }
        if let Some(cif) = traced.sections.iter().find(|s| s.name == "layout.cif") {
            cif_bytes.push(cif.content.len() as f64);
        }
        if p.job.verify.mode().is_some() {
            verify.probe(&mut t, req, &traced, out);
        }
    }
    layers::set_compile_metrics(&mut layer, &t, points_traced as f64, &cif_bytes);
    verify.set_metrics(&mut layer, &t);
    let overhead = traced_total / untraced_total - 1.0;
    layer.set("trace.overhead_frac", overhead);

    // Coverage: stage + render self times against the untraced time.
    let stage_self: f64 = STAGES.iter().map(|s| t.self_ms(s)).sum();
    let render_self: f64 = layers::RENDERS.iter().map(|r| t.self_ms(r)).sum();
    let covered = (stage_self + render_self) / (untraced_total * 1e3);
    out.line(format!(
        "untraced point total: {:.1} ms over {points_traced} points; traced: {:.1} ms (overhead {:+.2}%)",
        untraced_total * 1e3,
        traced_total * 1e3,
        overhead * 100.0
    ));
    out.line(format!(
        "stage + render self time: {:.1} ms = {:.1}% of the untraced total, {:.1}% of the traced total",
        stage_self + render_self,
        covered * 100.0,
        (stage_self + render_self) / (traced_total * 1e3) * 100.0
    ));
    crate::print_layers(out, &t, untraced_total * 1e3);
    crate::write_spans(cfg, &t);
    out.metrics = layer.into_metrics();
}
