//! The per-kind job executors and their renderers.
//!
//! The service's single-flight leader and the one-shot `bisramgen` CLI
//! both run compile, fleet and rare-yield work through these functions,
//! so every artifact and every `fleet` / `rare` line the two share is
//! computed and formatted in exactly one place. Each executor returns
//! what its callers need beyond the rendered text — the compiled
//! module, the raw estimates — so the CLI's extra reporting reads the
//! same run instead of repeating it.

use crate::job::{process_by_name, CompileJob, FleetJob, JobSpec, RareJob};
use crate::service::{JobFailure, Section};
use bisram_yield::rare::{RareEngine, TailEstimate, TrialKernel};
use bisram_yield::reliability::ReliabilityModel;
use bisram_yield::repairability::YieldModel;
use bisramgen::field::{FieldConfig, FleetResult};
use bisramgen::{compile_with, CompileOptions, CompiledRam};

/// A finished compile: the module and its rendered sections.
pub struct Compiled {
    /// The compiled module, for reporting beyond the sections (trace,
    /// verification counts).
    pub ram: CompiledRam,
    /// The artifact sections, in streaming order.
    pub sections: Vec<Section>,
    /// `Some(clean)` when verification ran.
    pub verify_clean: Option<bool>,
}

/// Compiles `job` and renders its sections: `params.txt`, then every
/// artifact when `artifacts` is set, then `verify.txt` when `options`
/// asks for verification (in `job.verify`'s mode), then `metrics.txt`.
/// A dirty verification is returned, not failed: callers decide what
/// it means.
///
/// # Errors
///
/// `400` for parameters the compiler rejects, `422` when the compile
/// itself fails.
pub fn compile(
    job: &CompileJob,
    mut options: CompileOptions,
    artifacts: bool,
) -> Result<Compiled, JobFailure> {
    let params = job.params().map_err(JobFailure::bad_request)?;
    if let Some(mode) = job.verify.mode() {
        options = options.with_verify_mode(mode);
    }
    let ram = compile_with(&params, &options).map_err(|e| JobFailure::job_failed(e.to_string()))?;

    let mut sections = vec![Section::new(
        "params.txt",
        JobSpec::Compile(job.clone()).canonical(),
    )];
    if artifacts {
        sections.push(Section::new("datasheet.txt", ram.datasheet().to_string()));
        sections.push(Section::new(
            "areas.txt",
            format!(
                "{}\nBIST+BISR overhead: {:.3}% ({:.3}% counting spare rows)\nmodule: {:.4} mm2, utilization {:.1}%\n",
                ram.areas().report(),
                ram.areas().overhead_fraction() * 100.0,
                ram.areas().overhead_fraction_with_spares() * 100.0,
                ram.area_mm2(),
                ram.placement().utilization() * 100.0
            ),
        ));
        sections.push(Section::new("floorplan.svg", ram.floorplan_svg()));
        let (and_plane, or_plane) = ram.pla_planes();
        sections.push(Section::new("trpla_and.plane", and_plane));
        sections.push(Section::new("trpla_or.plane", or_plane));
        sections.push(Section::new("sense_path.sp", ram.sense_path_spice()));
        if job.cif {
            sections.push(Section::new("layout.cif", ram.to_cif()));
        }
    }
    let verify_clean = ram.verify_report().map(|report| {
        sections.push(Section::new("verify.txt", report.to_string()));
        report.is_clean()
    });

    // The metric reduction the sweep orchestrator consumes. Keep the
    // format stable: `metric <key>: <value>`, one per line.
    let org = *params.org();
    let overhead = ram.areas().overhead_fraction();
    let yield_model = YieldModel::new(org, overhead);
    let mttf = ReliabilityModel {
        org,
        lambda_per_hour: job.lambda,
    }
    .mttf_hours();
    let y_bisr = yield_model.yield_with_bisr(job.defects);
    let y_raw = yield_model.yield_without_bisr(job.defects);
    let relative_cost = if y_bisr > 0.0 {
        yield_model.growth_factor / y_bisr
    } else {
        f64::INFINITY
    };
    let mut m = String::new();
    m.push_str(&format!("metric words: {}\n", job.words));
    m.push_str(&format!("metric bpw: {}\n", job.bpw));
    m.push_str(&format!("metric bpc: {}\n", job.bpc));
    m.push_str(&format!("metric spares: {}\n", job.spares));
    m.push_str(&format!("metric process: {}\n", job.process));
    m.push_str(&format!("metric verify: {}\n", job.verify.name()));
    m.push_str(&format!("metric area_mm2: {:.6}\n", ram.area_mm2()));
    m.push_str(&format!(
        "metric access_ns: {:.4}\n",
        ram.datasheet().access_time_s * 1e9
    ));
    m.push_str(&format!("metric overhead_fraction: {overhead:.6}\n"));
    m.push_str(&format!("metric yield_no_bisr: {y_raw:.6}\n"));
    m.push_str(&format!("metric yield_bisr: {y_bisr:.6}\n"));
    m.push_str(&format!(
        "metric growth_factor: {:.6}\n",
        yield_model.growth_factor
    ));
    m.push_str(&format!("metric relative_cost: {relative_cost:.6}\n"));
    m.push_str(&format!("metric mttf_hours: {mttf:.3}\n"));
    m.push_str(&format!(
        "metric delay_masked: {}\n",
        u8::from(params.delay_masking_guaranteed())
    ));
    if let Some(clean) = verify_clean {
        m.push_str(&format!("metric verify_clean: {}\n", u8::from(clean)));
    }
    sections.push(Section::new("metrics.txt", m));
    Ok(Compiled {
        ram,
        sections,
        verify_clean,
    })
}

/// A fleet engine: the lane-packed production engine or its scalar
/// golden oracle, which produce bit-identical tallies.
pub type FleetEngine = fn(&FieldConfig, usize, u64, usize) -> FleetResult;

/// Simulates `job`'s fleet on `engine` with `jobs` workers and renders
/// the `fleet.txt` text: one `fleet <key>: <value>` line per tally,
/// then the survival curve.
///
/// # Errors
///
/// `400` for an organization the memory model rejects.
pub fn fleet(job: &FleetJob, jobs: usize, engine: FleetEngine) -> Result<String, JobFailure> {
    let config = job.config().map_err(JobFailure::bad_request)?;
    let r = engine(&config, job.lifetimes, job.seed, jobs);
    let mut t = String::new();
    t.push_str(&format!("fleet lifetimes: {}\n", r.lifetimes));
    t.push_str(&format!("fleet deaths: {}\n", r.deaths));
    t.push_str(&format!(
        "fleet deaths_spare_fault: {}\n",
        r.deaths_spare_fault
    ));
    t.push_str(&format!("fleet deaths_exhausted: {}\n", r.deaths_exhausted));
    t.push_str(&format!("fleet deaths_persist: {}\n", r.deaths_persist));
    t.push_str(&format!("fleet sessions_run: {}\n", r.sessions_run));
    t.push_str(&format!("fleet sessions_skipped: {}\n", r.sessions_skipped));
    t.push_str(&format!(
        "fleet transients_dismissed: {}\n",
        r.transients_dismissed
    ));
    t.push_str(&format!("fleet rows_repaired: {}\n", r.rows_repaired));
    t.push_str(&format!("fleet mttf_hours: {:.3}\n", r.mttf_hours));
    t.push_str("survival curve (t_hours  R_hat):\n");
    for (time, survival) in r.curve.times_hours.iter().zip(&r.curve.survival) {
        t.push_str(&format!("  {time:>12.1}  {survival:.6}\n"));
    }
    Ok(t)
}

/// A finished rare-event estimate: the calibrated engine, the
/// importance-sampling result and the pilot statistics behind them.
pub struct RareRun {
    /// The engine, calibrated to the threshold the estimate used.
    pub engine: RareEngine,
    /// The importance-sampling tail estimate.
    pub is: TailEstimate,
    process: String,
    kernel: TrialKernel,
    pilot: usize,
    pilot_mean: f64,
    pilot_std: f64,
    shift_norms: Vec<f64>,
}

/// Runs `job`'s pilot, threshold calibration (unless `threshold` fixes
/// the threshold), mode search and importance sampling on `jobs`
/// workers.
///
/// # Errors
///
/// `400` for an unknown process or kernel.
pub fn rare(job: &RareJob, threshold: Option<f64>, jobs: usize) -> Result<RareRun, JobFailure> {
    let process = process_by_name(&job.process).map_err(JobFailure::bad_request)?;
    let kernel = TrialKernel::by_name(&job.kernel)
        .ok_or_else(|| JobFailure::bad_request(format!("unknown kernel {:?}", job.kernel)))?;

    let mut engine = RareEngine::for_process(&process, kernel, 0.0);
    let (pilot_mean, pilot_std) = engine.metric_stats(job.seed, job.pilot, jobs);
    engine.threshold = threshold
        .unwrap_or_else(|| engine.calibrate_threshold(job.seed, job.pilot, job.target_p, jobs));
    let shifts = engine.find_shifts();
    let is = engine.run_is_mixture(job.seed, job.trials, jobs, &shifts);
    let shift_norms = shifts
        .iter()
        .map(|s| s.iter().map(|x| x * x).sum::<f64>().sqrt())
        .collect();
    Ok(RareRun {
        engine,
        is,
        process: job.process.clone(),
        kernel,
        pilot: job.pilot,
        pilot_mean,
        pilot_std,
        shift_norms,
    })
}

impl RareRun {
    /// The `rare <key>: <value>` lines of the estimate: the `rare.txt`
    /// section, plus the per-mode shift norms and the efficiency
    /// figures when `detail` is set.
    pub fn text(&self, detail: bool) -> String {
        let is = &self.is;
        let mut t = String::new();
        t.push_str(&format!("rare process: {}\n", self.process));
        t.push_str(&format!("rare kernel: {}\n", self.kernel.name()));
        t.push_str(&format!("rare pilot_trials: {}\n", self.pilot));
        t.push_str(&format!("rare pilot_mean: {:.6e}\n", self.pilot_mean));
        t.push_str(&format!("rare pilot_std: {:.6e}\n", self.pilot_std));
        t.push_str(&format!("rare threshold: {:.6e}\n", self.engine.threshold));
        t.push_str(&format!("rare modes: {}\n", self.shift_norms.len()));
        if detail {
            for (i, norm) in self.shift_norms.iter().enumerate() {
                t.push_str(&format!("rare shift{i}_norm: {norm:.4}\n"));
            }
        }
        t.push_str(&format!("rare is_trials: {}\n", is.trials));
        t.push_str(&format!("rare is_failures: {}\n", is.failures));
        t.push_str(&format!("rare is_p_fail: {:.6e}\n", is.p_fail));
        t.push_str(&format!("rare is_std_error: {:.6e}\n", is.std_error()));
        if detail {
            t.push_str(&format!("rare is_rse: {:.4}\n", is.rse()));
            t.push_str(&format!(
                "rare mc_equivalent_trials: {:.3e}\n",
                is.mc_equivalent_trials()
            ));
            t.push_str(&format!(
                "rare speedup_over_mc: {:.1}\n",
                is.speedup_over_mc()
            ));
        }
        t
    }
}
