//! Typed job requests and their canonical text form.
//!
//! A request arrives as a [`Spec`] text whose `job` key selects the
//! kind; the remaining keys are typed parameters. The one-shot
//! `bisramgen` CLI maps its flags onto the same keys and parses them
//! here too, so the two share every default except the few a one-shot
//! run deepens, listed in [`FleetJob::CLI_DEFAULTS`] and
//! [`RareJob::CLI_DEFAULTS`]: a `fleet` request simulates 1000
//! lifetimes where `bisramgen fleet` simulates 10000, and a `rare-yield`
//! request calibrates at `target-p = 1e-4` with 400 trials and a
//! 64-trial pilot where `bisramgen rare-yield` uses 1e-6, 2000 and 400.
//!
//! Parsing is strict — an unknown key is an error, not a silent
//! ignore — and every parsed job re-encodes to a
//! [`canonical`](JobSpec::canonical) text with all fields spelled out in
//! a fixed order. Two requests that differ only in spelling (key order,
//! omitted defaults, quoting) canonicalize to the same string, which is
//! exactly the property the single-flight dedup map keys on.

use crate::spec::{
    parse_bool, parse_f64, parse_int, parse_probability, parse_u64, parse_usize, Spec,
};
use bisram_mem::ArrayOrg;
use bisram_tech::Process;
use bisram_yield::rare::TrialKernel;
use bisramgen::field::{FieldConfig, SparePolicy};
use bisramgen::{RamParams, VerifyMode};

/// Physical-verification choice for a compile-family job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyChoice {
    /// Skip verification.
    None,
    /// Flat DRC/LVS over the assembled module.
    Flat,
    /// Hierarchical verification with verified-clean certificates.
    Hier,
}

impl VerifyChoice {
    /// The spec-file spelling.
    pub fn name(self) -> &'static str {
        match self {
            VerifyChoice::None => "none",
            VerifyChoice::Flat => "flat",
            VerifyChoice::Hier => "hier",
        }
    }

    /// Parses a spec-file spelling.
    pub fn by_name(name: &str) -> Option<VerifyChoice> {
        match name {
            "none" => Some(VerifyChoice::None),
            "flat" => Some(VerifyChoice::Flat),
            "hier" => Some(VerifyChoice::Hier),
            _ => None,
        }
    }

    /// The pipeline mode, when verification is requested at all.
    pub fn mode(self) -> Option<VerifyMode> {
        match self {
            VerifyChoice::None => None,
            VerifyChoice::Flat => Some(VerifyMode::Flat),
            VerifyChoice::Hier => Some(VerifyMode::Hier),
        }
    }
}

/// Parameters for `compile`, `characterize` and `verify` jobs — the
/// same knobs the one-shot CLI exposes, plus the defect density and
/// failure rate the metric reduction needs.
#[derive(Debug, Clone, PartialEq)]
pub struct CompileJob {
    /// Addressable words.
    pub words: usize,
    /// Bits per word.
    pub bpw: usize,
    /// Bits per column (column-mux factor).
    pub bpc: usize,
    /// Spare rows.
    pub spares: usize,
    /// Process name, resolved via [`Process::by_name`].
    pub process: String,
    /// Driver gate sizing factor.
    pub gate_size: i64,
    /// Substrate strap period, cells.
    pub strap_every: usize,
    /// Strap width, lambda.
    pub strap_lambda: i64,
    /// Physical verification choice.
    pub verify: VerifyChoice,
    /// Whether to stream the hierarchical CIF artifact.
    pub cif: bool,
    /// Average defects per chip, for the yield metrics.
    pub defects: f64,
    /// Per-bit failure rate (per hour), for the MTTF metric.
    pub lambda: f64,
}

impl Default for CompileJob {
    fn default() -> Self {
        CompileJob {
            words: 1024,
            bpw: 32,
            bpc: 4,
            spares: 4,
            process: "CDA.7u3m1p".to_owned(),
            gate_size: 2,
            strap_every: 32,
            strap_lambda: 12,
            verify: VerifyChoice::None,
            cif: false,
            defects: 0.5,
            lambda: 1.0e-7,
        }
    }
}

/// Parameters for a `rare-yield` job (importance-sampling tail
/// estimate feeding the spare-count economics).
#[derive(Debug, Clone, PartialEq)]
pub struct RareJob {
    /// Process name.
    pub process: String,
    /// Trial kernel name, resolved via [`TrialKernel::by_name`].
    pub kernel: String,
    /// Target tail probability used to calibrate the threshold.
    pub target_p: f64,
    /// Importance-sampling trials.
    pub trials: usize,
    /// Pilot trials for the threshold calibration.
    pub pilot: usize,
    /// RNG base seed.
    pub seed: u64,
}

impl Default for RareJob {
    fn default() -> Self {
        RareJob {
            process: "CDA.7u3m1p".to_owned(),
            kernel: "write-margin".to_owned(),
            target_p: 1e-4,
            trials: 400,
            pilot: 64,
            seed: 1,
        }
    }
}

/// Parameters for a `fleet` job (lane-packed lifetime simulation).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetJob {
    /// Addressable words.
    pub words: usize,
    /// Bits per word.
    pub bpw: usize,
    /// Bits per column.
    pub bpc: usize,
    /// Spare rows.
    pub spares: usize,
    /// Lifetimes to simulate.
    pub lifetimes: usize,
    /// RNG base seed.
    pub seed: u64,
    /// Per-bit failure rate, per hour.
    pub lambda: f64,
    /// Maintenance-session period, hours.
    pub period: f64,
    /// Service-life horizon, hours.
    pub horizon: f64,
    /// Alarm re-screen count before a fault is called hard.
    pub retries: u32,
    /// Per-session soft-upset probability.
    pub upset_prob: f64,
    /// Spare-row fault accounting policy.
    pub policy: SparePolicy,
}

impl Default for FleetJob {
    fn default() -> Self {
        FleetJob {
            words: 1024,
            bpw: 32,
            bpc: 4,
            spares: 4,
            lifetimes: 1000,
            seed: 1,
            lambda: 1.0e-7,
            period: 10_000.0,
            horizon: 120_000.0,
            retries: 2,
            upset_prob: 0.0,
            policy: SparePolicy::Pessimistic,
        }
    }
}

fn policy_name(policy: SparePolicy) -> &'static str {
    match policy {
        SparePolicy::Pessimistic => "pessimistic",
        SparePolicy::Opportunistic => "opportunistic",
    }
}

/// A fully-parsed request.
#[derive(Debug, Clone, PartialEq)]
pub enum JobSpec {
    /// Compile and stream every artifact section.
    Compile(CompileJob),
    /// Compile and reduce to the metric section only.
    Characterize(CompileJob),
    /// Compile with verification forced on; stream the verify report.
    Verify(CompileJob),
    /// Rare-event yield estimate.
    RareYield(RareJob),
    /// Fleet lifetime simulation.
    Fleet(FleetJob),
    /// Server counters and cache statistics.
    Status,
    /// Liveness probe.
    Ping,
    /// Graceful shutdown: drain in-flight work, then exit.
    Shutdown,
}

const COMPILE_KEYS: &[&str] = &[
    "job",
    "words",
    "bpw",
    "bpc",
    "spares",
    "process",
    "gate-size",
    "strap-every",
    "strap-lambda",
    "verify",
    "cif",
    "defects",
    "lambda",
];
const RARE_KEYS: &[&str] = &["job", "process", "kernel", "target-p", "trials", "pilot", "seed"];
const FLEET_KEYS: &[&str] = &[
    "job",
    "words",
    "bpw",
    "bpc",
    "spares",
    "lifetimes",
    "seed",
    "lambda",
    "period",
    "horizon",
    "retries",
    "upset-prob",
    "policy",
];

/// Resolves a built-in process by name.
///
/// # Errors
///
/// A message listing the built-ins.
pub fn process_by_name(name: &str) -> Result<Process, String> {
    Process::by_name(name).ok_or_else(|| {
        format!("unknown process {name:?}; built-ins: CDA.5u3m1p, mos.6u3m1pHP, CDA.7u3m1p")
    })
}

/// Rejects the first key outside `allowed`, naming it and the job kind
/// (the spec's own `job` key, else `kind`).
fn reject_unknown(spec: &Spec, allowed: &[&str], kind: &str) -> Result<(), String> {
    match spec.unknown_key(allowed) {
        Some(key) => Err(format!(
            "unknown key {key:?} for job {:?}",
            spec.scalar_opt("job")?.unwrap_or(kind)
        )),
        None => Ok(()),
    }
}

fn set_usize(spec: &Spec, key: &str, slot: &mut usize) -> Result<(), String> {
    if let Some(v) = spec.scalar_opt(key)? {
        *slot = parse_usize(key, v)?;
    }
    Ok(())
}

fn set_f64(spec: &Spec, key: &str, slot: &mut f64) -> Result<(), String> {
    if let Some(v) = spec.scalar_opt(key)? {
        *slot = parse_f64(key, v)?;
    }
    Ok(())
}

impl CompileJob {
    /// The compiler parameters these keys describe.
    ///
    /// # Errors
    ///
    /// An unknown process or an organization the compiler rejects.
    pub fn params(&self) -> Result<RamParams, String> {
        let process = process_by_name(&self.process)?;
        RamParams::builder()
            .words(self.words)
            .bits_per_word(self.bpw)
            .bits_per_column(self.bpc)
            .spare_rows(self.spares)
            .gate_size(self.gate_size)
            .strap(self.strap_every, self.strap_lambda)
            .process(process)
            .build()
            .map_err(|e| e.to_string())
    }

    /// Parses the compile-family keys of `spec` — a request, or the CLI's
    /// flags mapped onto keys — filling omitted keys with the defaults.
    ///
    /// # Errors
    ///
    /// The first unknown key or invalid value, named.
    pub fn from_spec(spec: &Spec) -> Result<CompileJob, String> {
        reject_unknown(spec, COMPILE_KEYS, "compile")?;
        let mut job = CompileJob::default();
        set_usize(spec, "words", &mut job.words)?;
        set_usize(spec, "bpw", &mut job.bpw)?;
        set_usize(spec, "bpc", &mut job.bpc)?;
        set_usize(spec, "spares", &mut job.spares)?;
        if let Some(v) = spec.scalar_opt("process")? {
            job.process = v.to_owned();
        }
        if let Some(v) = spec.scalar_opt("gate-size")? {
            job.gate_size = parse_int("gate-size", v)?;
        }
        set_usize(spec, "strap-every", &mut job.strap_every)?;
        if let Some(v) = spec.scalar_opt("strap-lambda")? {
            job.strap_lambda = parse_int("strap-lambda", v)?;
        }
        if let Some(v) = spec.scalar_opt("verify")? {
            job.verify = VerifyChoice::by_name(v)
                .ok_or_else(|| format!("key \"verify\": expected none|flat|hier, got {v:?}"))?;
        }
        if let Some(v) = spec.scalar_opt("cif")? {
            job.cif = parse_bool("cif", v)?;
        }
        set_f64(spec, "defects", &mut job.defects)?;
        set_f64(spec, "lambda", &mut job.lambda)?;
        if job.defects < 0.0 {
            return Err(format!(
                "key \"defects\": must be >= 0, got {}",
                job.defects
            ));
        }
        if job.lambda < 0.0 {
            return Err(format!("key \"lambda\": must be >= 0, got {}", job.lambda));
        }
        // Validate the process name at parse time so the error reaches the
        // client as a request error, not a mid-stream job failure.
        process_by_name(&job.process)?;
        Ok(job)
    }
}

impl RareJob {
    /// The keys whose `bisramgen rare-yield` default differs from
    /// [`RareJob::default`]: a one-shot run resolves a deeper tail.
    pub const CLI_DEFAULTS: &'static [(&'static str, &'static str)] =
        &[("target-p", "1e-6"), ("trials", "2000"), ("pilot", "400")];

    /// Parses the `rare-yield` keys of `spec` — a request, or the CLI's
    /// flags mapped onto keys — filling omitted keys with the defaults.
    ///
    /// # Errors
    ///
    /// The first unknown key or invalid value, named.
    pub fn from_spec(spec: &Spec) -> Result<RareJob, String> {
        reject_unknown(spec, RARE_KEYS, "rare-yield")?;
        let mut job = RareJob::default();
        if let Some(v) = spec.scalar_opt("process")? {
            job.process = v.to_owned();
        }
        if let Some(v) = spec.scalar_opt("kernel")? {
            job.kernel = v.to_owned();
        }
        set_f64(spec, "target-p", &mut job.target_p)?;
        set_usize(spec, "trials", &mut job.trials)?;
        set_usize(spec, "pilot", &mut job.pilot)?;
        if let Some(v) = spec.scalar_opt("seed")? {
            job.seed = parse_u64("seed", v)?;
        }
        process_by_name(&job.process)?;
        if TrialKernel::by_name(&job.kernel).is_none() {
            return Err(format!(
                "key \"kernel\": expected write-margin|read-snm|hold-snm|read-delay, got {:?}",
                job.kernel
            ));
        }
        if !(job.target_p > 0.0 && job.target_p < 1.0) {
            return Err(format!("key \"target-p\": {} outside (0, 1)", job.target_p));
        }
        if job.trials < 2 {
            return Err("key \"trials\": must be at least 2".to_owned());
        }
        if job.pilot < 8 {
            return Err("key \"pilot\": must be at least 8".to_owned());
        }
        Ok(job)
    }
}

impl FleetJob {
    /// The keys whose `bisramgen fleet` default differs from
    /// [`FleetJob::default`]: a one-shot run simulates a larger fleet.
    pub const CLI_DEFAULTS: &'static [(&'static str, &'static str)] = &[("lifetimes", "10000")];

    /// The field-simulation configuration these keys describe.
    ///
    /// # Errors
    ///
    /// An organization the memory model rejects.
    pub fn config(&self) -> Result<FieldConfig, String> {
        let org = ArrayOrg::new(self.words, self.bpw, self.bpc, self.spares)
            .map_err(|e| e.to_string())?;
        let mut config = FieldConfig::new(org, self.lambda, self.period, self.horizon);
        config.max_retries = self.retries;
        config.transient_upset_probability = self.upset_prob;
        config.spare_policy = self.policy;
        Ok(config)
    }

    /// Parses the `fleet` keys of `spec` — a request, or the CLI's
    /// flags mapped onto keys — filling omitted keys with the defaults.
    ///
    /// # Errors
    ///
    /// The first unknown key or invalid value, named.
    pub fn from_spec(spec: &Spec) -> Result<FleetJob, String> {
        reject_unknown(spec, FLEET_KEYS, "fleet")?;
        let mut job = FleetJob::default();
        set_usize(spec, "words", &mut job.words)?;
        set_usize(spec, "bpw", &mut job.bpw)?;
        set_usize(spec, "bpc", &mut job.bpc)?;
        set_usize(spec, "spares", &mut job.spares)?;
        set_usize(spec, "lifetimes", &mut job.lifetimes)?;
        if let Some(v) = spec.scalar_opt("seed")? {
            job.seed = parse_u64("seed", v)?;
        }
        set_f64(spec, "lambda", &mut job.lambda)?;
        set_f64(spec, "period", &mut job.period)?;
        set_f64(spec, "horizon", &mut job.horizon)?;
        if let Some(v) = spec.scalar_opt("retries")? {
            job.retries = parse_int("retries", v)?;
        }
        if let Some(v) = spec.scalar_opt("upset-prob")? {
            job.upset_prob = parse_probability("upset-prob", v)?;
        }
        if let Some(v) = spec.scalar_opt("policy")? {
            job.policy = match v {
                "pessimistic" => SparePolicy::Pessimistic,
                "opportunistic" => SparePolicy::Opportunistic,
                other => {
                    return Err(format!(
                        "key \"policy\": expected pessimistic|opportunistic, got {other:?}"
                    ))
                }
            };
        }
        if job.lifetimes == 0 {
            return Err("key \"lifetimes\": must be at least 1".to_owned());
        }
        if job.lambda < 0.0 {
            return Err(format!("key \"lambda\": must be >= 0, got {}", job.lambda));
        }
        if job.period <= 0.0 || job.horizon <= 0.0 {
            return Err("keys \"period\"/\"horizon\": must be positive hours".to_owned());
        }
        Ok(job)
    }
}

impl JobSpec {
    /// Parses a request spec text.
    ///
    /// # Errors
    ///
    /// A human-readable message for syntax errors, unknown keys,
    /// unknown job kinds and out-of-range values.
    pub fn parse(text: &str) -> Result<JobSpec, String> {
        let spec = &Spec::parse(text).map_err(|e| e.to_string())?;
        let kind = spec.scalar("job")?;
        let job = match kind {
            "compile" => JobSpec::Compile(CompileJob::from_spec(spec)?),
            "characterize" => JobSpec::Characterize(CompileJob::from_spec(spec)?),
            "verify" => {
                let mut c = CompileJob::from_spec(spec)?;
                // A verify job that doesn't say which mode runs the
                // hierarchical engine (flat stays reachable as its
                // oracle); `verify = none` makes no sense here.
                if c.verify == VerifyChoice::None {
                    c.verify = VerifyChoice::Hier;
                }
                JobSpec::Verify(c)
            }
            "rare-yield" => JobSpec::RareYield(RareJob::from_spec(spec)?),
            "fleet" => JobSpec::Fleet(FleetJob::from_spec(spec)?),
            "status" => JobSpec::Status,
            "ping" => JobSpec::Ping,
            "shutdown" => JobSpec::Shutdown,
            other => {
                return Err(format!(
                    "unknown job {other:?}; expected compile|characterize|verify|\
                     rare-yield|fleet|status|ping|shutdown"
                ))
            }
        };
        if matches!(job, JobSpec::Status | JobSpec::Ping | JobSpec::Shutdown) {
            reject_unknown(spec, &["job"], kind)?;
        }
        Ok(job)
    }

    /// The job kind, as spelled in the spec.
    pub fn kind(&self) -> &'static str {
        match self {
            JobSpec::Compile(_) => "compile",
            JobSpec::Characterize(_) => "characterize",
            JobSpec::Verify(_) => "verify",
            JobSpec::RareYield(_) => "rare-yield",
            JobSpec::Fleet(_) => "fleet",
            JobSpec::Status => "status",
            JobSpec::Ping => "ping",
            JobSpec::Shutdown => "shutdown",
        }
    }

    /// The canonical text form: every field spelled out, fixed order.
    /// Equal canonical texts mean equal work — the single-flight map
    /// keys on this string.
    pub fn canonical(&self) -> String {
        let compile_body = |c: &CompileJob| {
            format!(
                "words = {}\nbpw = {}\nbpc = {}\nspares = {}\nprocess = {}\n\
                 gate-size = {}\nstrap-every = {}\nstrap-lambda = {}\nverify = {}\n\
                 cif = {}\ndefects = {}\nlambda = {}\n",
                c.words,
                c.bpw,
                c.bpc,
                c.spares,
                c.process,
                c.gate_size,
                c.strap_every,
                c.strap_lambda,
                c.verify.name(),
                u8::from(c.cif),
                c.defects,
                c.lambda
            )
        };
        match self {
            JobSpec::Compile(c) => format!("job = compile\n{}", compile_body(c)),
            JobSpec::Characterize(c) => format!("job = characterize\n{}", compile_body(c)),
            JobSpec::Verify(c) => format!("job = verify\n{}", compile_body(c)),
            JobSpec::RareYield(r) => format!(
                "job = rare-yield\nprocess = {}\nkernel = {}\ntarget-p = {}\n\
                 trials = {}\npilot = {}\nseed = {}\n",
                r.process, r.kernel, r.target_p, r.trials, r.pilot, r.seed
            ),
            JobSpec::Fleet(f) => format!(
                "job = fleet\nwords = {}\nbpw = {}\nbpc = {}\nspares = {}\n\
                 lifetimes = {}\nseed = {}\nlambda = {}\nperiod = {}\nhorizon = {}\n\
                 retries = {}\nupset-prob = {}\npolicy = {}\n",
                f.words,
                f.bpw,
                f.bpc,
                f.spares,
                f.lifetimes,
                f.seed,
                f.lambda,
                f.period,
                f.horizon,
                f.retries,
                f.upset_prob,
                policy_name(f.policy)
            ),
            JobSpec::Status => "job = status\n".to_owned(),
            JobSpec::Ping => "job = ping\n".to_owned(),
            JobSpec::Shutdown => "job = shutdown\n".to_owned(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_fill_omitted_keys() {
        let job = JobSpec::parse("job = compile\nwords = 256\n").unwrap();
        let JobSpec::Compile(c) = job else { panic!("kind") };
        assert_eq!(c.words, 256);
        assert_eq!(c.bpw, 32);
        assert_eq!(c.process, "CDA.7u3m1p");
        assert_eq!(c.verify, VerifyChoice::None);
    }

    #[test]
    fn canonical_is_spelling_invariant() {
        let a = JobSpec::parse("job = compile\nwords = 256\n").unwrap();
        let b = JobSpec::parse(
            "# comment\nbpw = 32\nwords = 256\njob = \"compile\"\nverify = none\n",
        )
        .unwrap();
        assert_eq!(a.canonical(), b.canonical());
        // And the canonical text round-trips through the parser.
        assert_eq!(JobSpec::parse(&a.canonical()).unwrap(), a);
    }

    #[test]
    fn canonical_round_trips_every_kind() {
        for text in [
            "job = compile\ncif = 1\nverify = hier\n",
            "job = characterize\ndefects = 0.25\n",
            "job = verify\n",
            "job = rare-yield\nkernel = read-snm\ntrials = 16\npilot = 8\n",
            "job = fleet\nlifetimes = 10\npolicy = opportunistic\n",
            "job = status\n",
            "job = ping\n",
            "job = shutdown\n",
        ] {
            let job = JobSpec::parse(text).unwrap();
            assert_eq!(JobSpec::parse(&job.canonical()).unwrap(), job, "{text}");
        }
    }

    #[test]
    fn verify_job_defaults_to_hier_mode() {
        let JobSpec::Verify(c) = JobSpec::parse("job = verify\n").unwrap() else {
            panic!("kind")
        };
        assert_eq!(c.verify, VerifyChoice::Hier);
        let JobSpec::Verify(c) = JobSpec::parse("job = verify\nverify = flat\n").unwrap() else {
            panic!("kind")
        };
        assert_eq!(c.verify, VerifyChoice::Flat, "flat stays reachable as the oracle");
    }

    #[test]
    fn strict_errors_name_the_problem() {
        let unknown_key = JobSpec::parse("job = ping\nwords = 1\n").unwrap_err();
        assert!(unknown_key.contains("\"words\""), "{unknown_key}");
        let unknown_job = JobSpec::parse("job = dance\n").unwrap_err();
        assert!(unknown_job.contains("\"dance\""), "{unknown_job}");
        let bad_process = JobSpec::parse("job = compile\nprocess = x\n").unwrap_err();
        assert!(bad_process.contains("unknown process"), "{bad_process}");
        let bad_kernel = JobSpec::parse("job = rare-yield\nkernel = x\n").unwrap_err();
        assert!(bad_kernel.contains("kernel"), "{bad_kernel}");
        let bad_policy = JobSpec::parse("job = fleet\npolicy = x\n").unwrap_err();
        assert!(bad_policy.contains("policy"), "{bad_policy}");
        let axis = JobSpec::parse("job = compile\nwords = 1, 2\n").unwrap_err();
        assert!(axis.contains("one value"), "{axis}");
        // Values that overflow their field are rejected, never wrapped.
        for (text, key) in [
            ("job = fleet\nretries = 4294967298\n", "\"retries\""),
            ("job = compile\ngate-size = 9223372036854775808\n", "\"gate-size\""),
            ("job = compile\nstrap-lambda = 18446744073709551615\n", "\"strap-lambda\""),
        ] {
            let wrapped = JobSpec::parse(text).unwrap_err();
            assert!(wrapped.contains(key) && wrapped.contains("out of range"), "{wrapped}");
        }
    }
}
