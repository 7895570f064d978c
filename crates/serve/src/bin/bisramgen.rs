//! The `bisramgen` command-line tool: compile a BISR RAM and write its
//! outputs, the way the original tool was invoked from the CAD flow.
//!
//! ```sh
//! bisramgen --words 4096 --bpw 32 --bpc 8 --spares 4 \
//!           --process CDA.7u3m1p --gate-size 2 --strap 32:12 \
//!           --out build/myram
//! ```
//!
//! The `--out` directory receives, byte for byte, the sections of the
//! equivalent `job = compile` request (`datasheet.txt`, `areas.txt`,
//! `floorplan.svg`, PLA planes, SPICE deck, ...).
//!
//! The `chip-diagnose` subcommand runs the chip-level
//! diagnose→allocate→repair flow on a heterogeneous multi-macro chip
//! behind a (optionally faulty) shared BIST transport:
//!
//! ```sh
//! bisramgen chip-diagnose --macros 16 --seed 7 --process CDA.7u3m1p \
//!           --budget 2048 --timeout-prob 0.1
//! ```
//!
//! The `serve`, `request` and `sweep` subcommands expose the compile
//! service: `serve` runs the long-lived daemon on a Unix or TCP socket,
//! `request` batches job spec files against it, and `sweep` expands a
//! declarative parameter sweep through the same service layer (with or
//! without a daemon) into a Pareto report:
//!
//! ```sh
//! bisramgen serve --socket /tmp/bisram.sock &
//! bisramgen request --socket /tmp/bisram.sock --ping myjob.job --status
//! bisramgen sweep --spec myplan.sweep --jobs 8
//! bisramgen request --socket /tmp/bisram.sock --shutdown
//! ```
//!
//! One parser maps every subcommand's flags onto a [`Spec`]; compile,
//! `fleet` and `rare-yield` parse it as a job and run the service's own
//! executors ([`bisram_serve::run`]).
//!
//! Exit codes are uniform across subcommands: 0 success, 1 execution
//! failure, 2 usage or spec error (see `--help`).

use bisram_exec::resolve_jobs;
use bisram_mem::ArrayOrg;
use bisram_serve::run;
use bisram_serve::spec::{parse_f64, parse_int, parse_probability, parse_u64, parse_usize};
use bisram_serve::{
    process_by_name, run_sweep, Client, ClientError, CompileJob, Daemon, DaemonConfig, FleetJob,
    JobFailure, Listen, RareJob, Service, Spec, SweepBackend, SweepSpec,
};
use bisram_yield::montecarlo::simulate_yield_seeded;
use bisram_yield::optimize::optimize_spares_measured;
use bisram_yield::rare::agreement_sigma;
use bisramgen::diag::{Transport, TransportFaults};
use bisramgen::field::{
    heterogeneous_chip, simulate_fleet_golden_jobs, simulate_fleet_jobs, ChipConfig, ChipModel,
};
use bisramgen::{ChipSheet, CompileOptions};
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

/// A classified CLI error: the exit code says *what kind* of failure,
/// uniformly across every subcommand (see the EXIT CODES section of
/// each `--help` text).
struct CliError {
    code: u8,
    message: String,
}

impl CliError {
    /// Exit 2: the invocation or an input spec is wrong; rerunning the
    /// same command cannot succeed.
    fn usage(message: impl Into<String>) -> CliError {
        CliError {
            code: 2,
            message: message.into(),
        }
    }

    /// Exit 1: the tool ran and the work failed (compile error, dirty
    /// verification, crossval FAIL, I/O, daemon errors).
    fn failure(message: impl Into<String>) -> CliError {
        CliError {
            code: 1,
            message: message.into(),
        }
    }
}

// Bare `String` errors come from argument/spec validation, so `?`
// classifies them as usage errors; execution-time sites wrap
// explicitly with `CliError::failure`.
impl From<String> for CliError {
    fn from(message: String) -> CliError {
        CliError::usage(message)
    }
}

// A job the executors reject as a bad request (400) is a usage error;
// every other job failure is an execution failure.
impl From<JobFailure> for CliError {
    fn from(failure: JobFailure) -> CliError {
        let code = if failure.code == 400 { 2 } else { 1 };
        CliError {
            code,
            message: failure.message,
        }
    }
}

const EXIT_CODES: &str = "
EXIT CODES:
  0  success
  1  execution failure (compile error, verification violations,
     crossval FAIL, I/O or daemon errors)
  2  usage or spec error (unknown or repeated flags, invalid parameters)
";

const USAGE: &str = "\
bisramgen - compile a built-in self-repairable static RAM

USAGE:
  bisramgen [OPTIONS]

OPTIONS:
  --words N        addressable words (default 1024)
  --bpw N          bits per word (default 32)
  --bpc N          bits per column, power of two (default 4)
  --spares N       spare rows; 4/8/16 keep the delay-masking guarantee (default 4)
  --process NAME   CDA.5u3m1p | mos.6u3m1pHP | CDA.7u3m1p (default CDA.7u3m1p)
  --gate-size N    critical-gate size factor >= 1 (default 2)
  --strap E:L      strap gap of L lambda every E columns; 0:0 disables (default 32:12)
  --out DIR        output directory (default bisramgen_out)
  --cif            also write the hierarchical CIF (exact to 1 nm)
  --jobs N         macrocell worker threads (default: BISRAM_JOBS, then all cores)
  --timings        print the per-stage pipeline trace (wall time, cache hits)
  --verify         run physical verification (DRC + extraction + LVS) on every
                   macrocell; writes verify.txt, exits nonzero on violations
  --verify-mode M  hier (default) verifies each distinct cell once behind a
                   cached certificate and checks only instance-boundary halos;
                   flat checks every placed shape and is hier's oracle — same
                   report, much slower on large arrays
  --help           show this text

SUBCOMMANDS:
  chip-diagnose    diagnose and repair a heterogeneous multi-macro chip over a
                   shared BIST transport; see `bisramgen chip-diagnose --help`
  fleet            simulate a fleet of device lifetimes on the lane-packed
                   engine; see `bisramgen fleet --help`
  rare-yield       estimate a bitcell tail failure probability by importance
                   sampling and feed it into the spare-count economics; see
                   `bisramgen rare-yield --help`
  serve            run the long-lived compile service on a Unix or TCP socket;
                   see `bisramgen serve --help`
  request          send job spec files to a running daemon and stream the
                   artifact sections back; see `bisramgen request --help`
  sweep            expand a declarative sweep spec, run every point through
                   the service layer and print the Pareto report; see
                   `bisramgen sweep --help`
";

const SERVE_USAGE: &str = "\
bisramgen serve - long-lived compile service over a socket

USAGE:
  bisramgen serve (--socket PATH | --tcp ADDR) [OPTIONS]

OPTIONS:
  --socket PATH    listen on a Unix domain socket at PATH (a stale socket
                   file is replaced)
  --tcp ADDR       listen on a TCP address, e.g. 127.0.0.1:0 for an
                   ephemeral port; the resolved address is printed
  --jobs N         worker threads per compile (default: BISRAM_JOBS, then
                   all cores)
  --help           show this text

Speaks length-prefixed FNV-checksummed frames; a request frame carries a
job spec text (job = compile | characterize | verify | rare-yield | fleet |
status | ping | shutdown). All requests share one cell cache; identical
in-flight requests collapse onto a single execution. Prints
`serve listening: <addr>` once ready, then blocks until a client sends a
`job = shutdown` request; shutdown drains in-flight work before exiting.
";

const REQUEST_USAGE: &str = "\
bisramgen request - send job specs to a running daemon

USAGE:
  bisramgen request (--socket PATH | --tcp ADDR) [OPTIONS] [SPEC...]

OPTIONS:
  --socket PATH    connect to the daemon's Unix domain socket
  --tcp ADDR       connect to the daemon's TCP address
  --out DIR        write each returned section to DIR/r<i>_<name> instead
                   of printing section contents to stdout
  --ping           prepend a liveness probe
  --status         append a status request (server counters, cache stats)
  --shutdown       append a shutdown request (daemon drains and exits)
  --help           show this text

Each SPEC file is one request; all requests in the invocation are batched
back-to-back over a single connection and answered in order. Without
--out, every returned section's content prints to stdout verbatim (one
request's sections after another); progress goes to stderr.
";

const SWEEP_USAGE: &str = "\
bisramgen sweep - declarative parameter sweep with a Pareto report

USAGE:
  bisramgen sweep --spec FILE [OPTIONS]

OPTIONS:
  --spec FILE      sweep spec: `key = v1, v2, ...` lines; axis keys
                   (words, bpw, bpc, spares, process, gate-size, verify)
                   may list several values, scalar keys (defects, lambda,
                   strap-every, strap-lambda) exactly one
  --socket PATH    execute points against the daemon on this Unix socket
  --tcp ADDR       execute points against the daemon on this TCP address
                   (default: in-process service, no daemon needed)
  --jobs N         concurrent sweep points (default: BISRAM_JOBS, then all
                   cores); the report is byte-identical at any value
  --out FILE       also write the report to FILE
  --help           show this text

Expands the cartesian matrix (first key varies slowest), drops duplicate
points, runs every point as a `characterize` job and reduces the metric
sections to `sweep <key>: <value>` lines plus a Pareto frontier table over
area, yield, MTTF and relative repair cost. The report contains no
wall-clock or worker-count information: bytes are identical at any --jobs
and whether points ran in-process or through a daemon.
";

const CHIP_USAGE: &str = "\
bisramgen chip-diagnose - chip-level diagnosis, spare allocation and repair

USAGE:
  bisramgen chip-diagnose [OPTIONS]

OPTIONS:
  --macros N        macro instances on the chip (default 16)
  --seed N          chip seed: derives macro organizations, injected faults
                    and transport noise (default 1)
  --budget N        chip spare-row area budget in cell units (default unlimited)
  --process NAME    process the spare area is priced in (default CDA.7u3m1p)
  --jobs N          worker threads (default: BISRAM_JOBS, then all cores)
  --stuck-bit B:V   scan-link bit B stuck at V (0|1)
  --drop-prob P     per-word drop probability (default 0)
  --dup-prob P      per-word duplication probability (default 0)
  --timeout-prob P  per-attempt session timeout probability (default 0)
  --help            show this text

Prints the per-macro repair report and the chip datasheet section. Exit is
nonzero only on usage errors: degraded macros (detect-only / quarantined /
failed) are an expected, explicitly reported outcome, not a tool failure.
";

const FLEET_USAGE: &str = "\
bisramgen fleet - simulate a fleet of in-field device lifetimes

USAGE:
  bisramgen fleet [OPTIONS]

OPTIONS:
  --lifetimes N     device lifetimes to simulate (default 10000)
  --seed N          fleet base seed; lifetime i runs from a seed derived
                    with the shared golden-ratio mix (default 1)
  --jobs N          worker threads (default: BISRAM_JOBS, then all cores)
  --engine E        lanes (default) packs 64 lifetimes per machine word;
                    golden runs the scalar per-trial reference path. Both
                    produce byte-identical FleetResult tallies.
  --words N         addressable words (default 1024)
  --bpw N           bits per word (default 32)
  --bpc N           bits per column, power of two (default 4)
  --spares N        spare rows (default 4)
  --lambda R        per-bit failure rate, failures/hour (default 1e-7)
  --period H        hours between maintenance sessions (default 10000)
  --horizon H       simulated service life, hours (default 120000)
  --retries N       alarm re-screens before hard-fault classification (default 2)
  --upset-prob P    per-session soft-upset probability (default 0)
  --policy NAME     pessimistic | opportunistic spare accounting (default
                    pessimistic)
  --help            show this text

Prints one `fleet <key>: <value>` line per aggregate tally (grep-friendly),
then the survival curve — the `fleet.txt` section of a `job = fleet`
request with the same keys (which defaults to 1000 lifetimes).
";

const RARE_USAGE: &str = "\
bisramgen rare-yield - rare-event bitcell failure estimation and spare economics

USAGE:
  bisramgen rare-yield [OPTIONS]

OPTIONS:
  --process NAME   CDA.5u3m1p | mos.6u3m1pHP | CDA.7u3m1p (default CDA.7u3m1p)
  --kernel K       write-margin (default) | read-snm | hold-snm | read-delay
  --target-p P     calibrate the failure threshold at this tail probability
                   under a Gaussian pilot approximation; the margin tail is
                   left-skewed, so the measured p lands above the target
                   (default 1e-6)
  --threshold V    explicit metric threshold in volts (read-delay: negated
                   seconds); overrides --target-p
  --trials N       importance-sampling trials (default 2000)
  --mc-trials N    exhaustive plain-MC trials for cross-validation; 0 skips
                   the crossval (default 0); nonzero prints the agreement in
                   combined sigmas and a `rare crossval: PASS|FAIL` marker
  --pilot N        pilot trials for threshold calibration and the blockade
                   surrogate (default 400)
  --safety S       blockade guard band in residual sigmas (default 3)
  --seed N         base seed; per-trial streams derive from it (default 1)
  --jobs N         worker threads (default: BISRAM_JOBS, then all cores)
  --words N        spare-sweep array words (default 4096)
  --bpw N          spare-sweep bits per word (default 4)
  --bpc N          spare-sweep bits per column (default 4)
  --max-spares N   spare-sweep upper bound (default 16)
  --help           show this text

Prints one `rare <key>: <value>` line per result (grep-friendly), led by
the `rare.txt` lines of a `job = rare-yield` request with the same keys
(a request defaults to target-p 1e-4, 400 trials, a 64-trial pilot). The
measured per-cell failure probability is fed into the spare-count cost
optimizer, and the chosen organization is re-checked by the end-to-end
defect-pattern Monte Carlo with its Wilson interval. Exits nonzero on a
crossval FAIL or usage errors. Every line is byte-identical at any --jobs.
";

/// A subcommand body: the parsed options and the operands.
type Body = fn(Spec, Vec<String>) -> Result<(), CliError>;

/// Every invocation: the subcommand word (empty for the default
/// compile), its `--help` text — also its option table, see
/// [`documented_options`] — whether it takes operands, and its body.
const COMMANDS: [(&str, &str, bool, Body); 7] = [
    ("", USAGE, false, compile),
    ("chip-diagnose", CHIP_USAGE, false, chip_diagnose),
    ("fleet", FLEET_USAGE, false, fleet),
    ("rare-yield", RARE_USAGE, false, rare_yield),
    ("serve", SERVE_USAGE, false, serve),
    ("request", REQUEST_USAGE, true, request),
    ("sweep", SWEEP_USAGE, false, sweep),
];

/// The options a usage text documents, as `(name, takes_value)`: every
/// line that opens with `  --name`. An upper-case placeholder after the
/// name (`N`, `DIR`, `E:L`) marks an option that takes a value; a
/// switch is followed directly by its description. What `--help` shows
/// is therefore exactly what parses.
fn documented_options(usage: &str) -> impl Iterator<Item = (&str, bool)> {
    usage.lines().filter_map(|line| {
        let mut words = line.strip_prefix("  --")?.split_whitespace();
        let name = words.next()?;
        let takes_value = words
            .next()
            .is_some_and(|w| w.chars().all(|c| c.is_ascii_uppercase() || c == ':'));
        Some((name, takes_value))
    })
}

/// The one flag parser: maps `--key value` onto a `key = value` line of
/// a [`Spec`] and a bare switch `--key` onto `key = 1`, accepting
/// exactly the options `usage` documents, each at most once. Returns the
/// spec and the operands (when `operands` allows any).
fn flag_spec(
    usage: &str,
    operands: bool,
    args: &[String],
) -> Result<(Spec, Vec<String>), CliError> {
    let mut spec = Spec::default();
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--help" || arg == "-h" {
            print!("{usage}{EXIT_CODES}");
            std::process::exit(0);
        }
        let option = arg
            .strip_prefix("--")
            .and_then(|name| documented_options(usage).find(|(n, _)| *n == name));
        let Some((name, takes_value)) = option else {
            if operands && !arg.starts_with('-') {
                rest.push(arg.clone());
                continue;
            }
            return Err(format!("unknown option {arg:?}").into());
        };
        let value = if takes_value {
            it.next()
                .ok_or_else(|| CliError::usage(format!("{arg} needs a value")))?
                .clone()
        } else {
            "1".to_owned()
        };
        if spec.values(name).is_some() {
            return Err(CliError::usage(format!("{arg} given twice")));
        }
        spec.set(name, value);
    }
    Ok((spec, rest))
}

/// Takes a CLI-only option out of `spec`, leaving the job keys behind.
fn take(spec: &mut Spec, key: &str) -> Option<String> {
    spec.remove(key)
        .and_then(|values| values.into_iter().next())
}

/// [`take`], parsed by one of the spec module's typed helpers.
fn take_as<T>(
    spec: &mut Spec,
    key: &str,
    parse: fn(&str, &str) -> Result<T, String>,
) -> Result<Option<T>, CliError> {
    take(spec, key)
        .map(|v| parse(key, &v))
        .transpose()
        .map_err(CliError::usage)
}

/// `spec` with the CLI defaults that differ from a job request's filled
/// in where the flags left them out.
fn with_defaults(mut spec: Spec, defaults: &[(&str, &str)]) -> Spec {
    for &(key, value) in defaults {
        if spec.values(key).is_none() {
            spec.set(key, value);
        }
    }
    spec
}

fn compile(mut spec: Spec, _: Vec<String>) -> Result<(), CliError> {
    let out = PathBuf::from(take(&mut spec, "out").unwrap_or_else(|| "bisramgen_out".to_owned()));
    let jobs = take_as(&mut spec, "jobs", parse_usize)?;
    let timings = take(&mut spec, "timings").is_some();
    let verify = take(&mut spec, "verify").is_some();
    let mode = take(&mut spec, "verify-mode").unwrap_or_else(|| "hier".to_owned());
    if !matches!(mode.as_str(), "flat" | "hier") {
        return Err(format!("--verify-mode expects flat|hier, got {mode:?}").into());
    }
    spec.set("verify", if verify { mode.as_str() } else { "none" });
    if let Some(strap) = take(&mut spec, "strap") {
        let (every, lambda) = strap
            .split_once(':')
            .ok_or_else(|| format!("--strap expects E:L, got {strap:?}"))?;
        spec.set("strap-every", every);
        spec.set("strap-lambda", lambda);
    }
    let job = CompileJob::from_spec(&spec)?;

    eprintln!("compiling {} ...", job.params()?);
    let mut options = CompileOptions::new().with_verify(verify);
    if let Some(jobs) = jobs {
        options = options.with_jobs(jobs);
    }
    let compiled = run::compile(&job, options, true)?;
    let ram = &compiled.ram;
    if timings {
        eprintln!("{}", ram.trace());
    }

    std::fs::create_dir_all(&out)
        .map_err(|e| CliError::failure(format!("creating {out:?}: {e}")))?;
    for section in &compiled.sections {
        let path = out.join(&section.name);
        std::fs::write(&path, &section.content)
            .map_err(|e| CliError::failure(format!("writing {path:?}: {e}")))?;
        eprintln!("  wrote {}", path.display());
    }
    if let Some(report) = ram.verify_report() {
        if report.is_clean() {
            eprintln!(
                "  verify: clean ({} macrocells, 0 drc violations, 0 lvs mismatches)",
                report.cells.len()
            );
        } else {
            eprintln!(
                "  verify: DIRTY ({} drc violations, {} lvs mismatches) — see verify.txt",
                report.drc_violations(),
                report.lvs_mismatches()
            );
        }
    }

    eprintln!(
        "done: {} states / {} FFs, {:.2}% overhead, {:.2} ns access",
        ram.control_program().state_count(),
        ram.control_program().flip_flops(),
        ram.areas().overhead_fraction() * 100.0,
        ram.datasheet().access_time_s * 1e9
    );
    if compiled.verify_clean == Some(false) {
        return Err(CliError::failure("physical verification found violations"));
    }
    Ok(())
}

fn chip_diagnose(mut spec: Spec, _: Vec<String>) -> Result<(), CliError> {
    let macros = take_as(&mut spec, "macros", parse_usize)?.unwrap_or(16);
    let seed = take_as(&mut spec, "seed", parse_u64)?.unwrap_or(1);
    let budget = take_as(&mut spec, "budget", parse_u64)?.unwrap_or(u64::MAX);
    let process_name = take(&mut spec, "process").unwrap_or_else(|| "CDA.7u3m1p".to_owned());
    let jobs = take_as(&mut spec, "jobs", parse_usize)?;
    let mut faults = TransportFaults::none();
    if let Some(v) = take(&mut spec, "stuck-bit") {
        let (bit, value) = v
            .split_once(':')
            .ok_or_else(|| format!("--stuck-bit expects B:V, got {v:?}"))?;
        let bit: u8 = parse_int("stuck-bit", bit)?;
        if bit >= 64 {
            return Err(format!("--stuck-bit bit {bit} outside 0..64").into());
        }
        let stuck = match value {
            "0" => false,
            "1" => true,
            other => return Err(format!("--stuck-bit value must be 0|1, got {other:?}").into()),
        };
        faults.stuck_bit = Some((bit, stuck));
    }
    faults.drop_probability =
        take_as(&mut spec, "drop-prob", parse_probability)?.unwrap_or(faults.drop_probability);
    faults.duplicate_probability =
        take_as(&mut spec, "dup-prob", parse_probability)?.unwrap_or(faults.duplicate_probability);
    faults.timeout_probability = take_as(&mut spec, "timeout-prob", parse_probability)?
        .unwrap_or(faults.timeout_probability);

    let process = process_by_name(&process_name)?;
    let mut config = ChipConfig::new(heterogeneous_chip(macros, seed), budget, seed);
    config.transport = Transport::with_faults(faults);
    config.jobs = jobs;

    eprintln!(
        "diagnosing {macros}-macro chip (seed {seed:#x}, march {}) ...",
        config.test.name()
    );
    let report = ChipModel::new(config).diagnose_and_repair();
    print!("{report}");
    print!("{}", ChipSheet::from_report(&report, &process));
    eprintln!("chip-diagnose done: every macro in an explicit state");
    Ok(())
}

fn fleet(mut spec: Spec, _: Vec<String>) -> Result<(), CliError> {
    let jobs = resolve_jobs(take_as(&mut spec, "jobs", parse_usize)?);
    let engine_name = take(&mut spec, "engine").unwrap_or_else(|| "lanes".to_owned());
    let engine: run::FleetEngine = match engine_name.as_str() {
        "lanes" => simulate_fleet_jobs,
        "golden" => simulate_fleet_golden_jobs,
        other => return Err(format!("--engine expects lanes|golden, got {other:?}").into()),
    };
    let job = FleetJob::from_spec(&with_defaults(spec, FleetJob::CLI_DEFAULTS))?;

    eprintln!(
        "simulating {} lifetimes ({engine_name} engine, {jobs} workers, seed {:#x}, \
         λ={:e}/h, {} sessions over {} h) ...",
        job.lifetimes,
        job.seed,
        job.lambda,
        (job.horizon / job.period).floor() as u64,
        job.horizon
    );
    let start = Instant::now();
    let text = run::fleet(&job, jobs, engine)?;
    let elapsed = start.elapsed().as_secs_f64();
    println!("fleet engine: {engine_name}");
    println!("fleet wall_seconds: {elapsed:.3}");
    println!(
        "fleet lifetimes_per_second: {:.1}",
        job.lifetimes as f64 / elapsed.max(f64::MIN_POSITIVE)
    );
    print!("{text}");
    Ok(())
}

fn rare_yield(mut spec: Spec, _: Vec<String>) -> Result<(), CliError> {
    let threshold = take_as(&mut spec, "threshold", parse_f64)?;
    let mc_trials = take_as(&mut spec, "mc-trials", parse_usize)?.unwrap_or(0);
    let safety = take_as(&mut spec, "safety", parse_f64)?.unwrap_or(3.0);
    let jobs = resolve_jobs(take_as(&mut spec, "jobs", parse_usize)?);
    let words = take_as(&mut spec, "words", parse_usize)?.unwrap_or(4096);
    let bpw = take_as(&mut spec, "bpw", parse_usize)?.unwrap_or(4);
    let bpc = take_as(&mut spec, "bpc", parse_usize)?.unwrap_or(4);
    let max_spares = take_as(&mut spec, "max-spares", parse_usize)?.unwrap_or(16);
    // The spare sweep's array, checked before any sampling runs.
    let base = ArrayOrg::new(words, bpw, bpc, 0).map_err(|e| e.to_string())?;
    let job = RareJob::from_spec(&with_defaults(spec, RareJob::CLI_DEFAULTS))?;
    let seed = job.seed;
    eprintln!(
        "rare-yield: {} importance-sampling trials on {} ({jobs} workers) ...",
        job.trials, job.kernel
    );
    let start = Instant::now();
    let rare = run::rare(&job, threshold, jobs)?;
    let (engine, is) = (&rare.engine, &rare.is);
    print!("{}", rare.text(true));

    let mut crossval_failed = false;
    if mc_trials > 0 {
        eprintln!("rare-yield: cross-validating against {mc_trials} plain-MC trials ...");
        let mc = engine.run_mc(seed.wrapping_add(1), mc_trials, jobs);
        println!("rare mc_trials: {}", mc.trials);
        println!("rare mc_failures: {}", mc.failures);
        println!("rare mc_p_fail: {:.6e}", mc.p_fail);
        println!("rare mc_std_error: {:.6e}", mc.std_error());
        let sigma = agreement_sigma(&mc, is);
        println!("rare crossval_sigma: {sigma:.2}");
        let verdict = if sigma <= 3.0 { "PASS" } else { "FAIL" };
        println!("rare crossval: {verdict}");
        crossval_failed = sigma > 3.0;
    }

    let blockade = engine.run_blockade(seed, job.pilot, job.trials, safety, jobs);
    println!("rare blockade_simulated: {}", blockade.simulated);
    println!("rare blockade_blocked: {}", blockade.blocked);
    println!("rare blockade_p_fail: {:.6e}", blockade.estimate.p_fail);

    // Feed the measured per-cell failure probability into the spare
    // economics: expected defects on the nonredundant array, then the
    // cost-per-good-die optimum over spare counts.
    let p_cell = is.p_fail.clamp(0.0, 1.0);
    let sweep = optimize_spares_measured(words, bpw, bpc, p_cell, 0.05, max_spares);
    let defects = p_cell * base.total_cells() as f64;
    println!("rare cell_p_fail: {p_cell:.6e}");
    println!("rare expected_defects: {defects:.4}");
    println!("rare optimal_spares: {}", sweep.optimal_spares);
    println!(
        "rare optimal_cost: {:.6}",
        sweep.points[sweep.optimal_spares].relative_cost
    );

    // Re-check the chosen organization end to end: random defect
    // patterns at the measured defectivity through the real BIST + BISR
    // flow, reported with its variance so the comparison against the
    // analytic sweep is variance-aware rather than eyeballed.
    let spares = sweep.optimal_spares.max(1);
    let org = ArrayOrg::new(words, bpw, bpc, spares).map_err(|e| e.to_string())?;
    let mc_yield = simulate_yield_seeded(seed, org, defects, 400, None, jobs);
    let (lo, hi) = mc_yield.usable_wilson_interval(1.96);
    println!("rare usable_fraction: {:.6}", mc_yield.usable_fraction());
    println!("rare usable_std_error: {:.6e}", mc_yield.usable_std_error());
    println!("rare usable_wilson95: [{lo:.6}, {hi:.6}]");
    eprintln!(
        "rare-yield done in {:.2}s: p_fail {:.3e} (rse {:.1}%), {} spares optimal",
        start.elapsed().as_secs_f64(),
        is.p_fail,
        100.0 * is.rse(),
        sweep.optimal_spares
    );
    if crossval_failed {
        return Err(CliError::failure(
            "IS and exhaustive MC disagree by more than 3 sigma",
        ));
    }
    Ok(())
}

/// Takes the shared `--socket PATH | --tcp ADDR` pair: at most one may
/// be given.
fn take_listen(spec: &mut Spec) -> Result<Option<Listen>, String> {
    match (take(spec, "socket"), take(spec, "tcp")) {
        (Some(_), Some(_)) => Err("--socket and --tcp are mutually exclusive".to_owned()),
        (socket, tcp) => Ok(socket
            .map(|p| Listen::Unix(p.into()))
            .or(tcp.map(Listen::Tcp))),
    }
}

/// [`take_listen`] where one of the pair is required.
fn need_listen(spec: &mut Spec) -> Result<Listen, String> {
    take_listen(spec)?.ok_or_else(|| "need --socket PATH or --tcp ADDR".to_owned())
}

fn serve(mut spec: Spec, _: Vec<String>) -> Result<(), CliError> {
    let listen = need_listen(&mut spec)?;
    let jobs = take_as(&mut spec, "jobs", parse_usize)?;

    let daemon = Daemon::start(&DaemonConfig { listen, jobs })
        .map_err(|e| CliError::failure(format!("binding listener: {e}")))?;
    println!("serve listening: {}", daemon.listen());
    // A parent process polls stdout for the line above; make sure it
    // is visible before we block.
    let _ = std::io::stdout().flush();
    eprintln!("serve: ready (send a `job = shutdown` request to stop)");
    daemon.join();
    println!("serve done: drained");
    Ok(())
}

fn request(mut spec: Spec, specs: Vec<String>) -> Result<(), CliError> {
    let listen = need_listen(&mut spec)?;
    let out = take(&mut spec, "out").map(PathBuf::from);
    let ping = take(&mut spec, "ping").is_some();
    let status = take(&mut spec, "status").is_some();
    let shutdown = take(&mut spec, "shutdown").is_some();
    if specs.is_empty() && !ping && !status && !shutdown {
        return Err(CliError::usage(
            "nothing to send: give SPEC files and/or --ping/--status/--shutdown".to_owned(),
        ));
    }

    // Build the batched request texts: probe first, then the spec
    // files in order, then status/shutdown.
    let control =
        |on: bool, kind: &str| on.then(|| (format!("--{kind}"), format!("job = {kind}\n")));
    let mut texts: Vec<(String, String)> = control(ping, "ping").into_iter().collect();
    for path in &specs {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError::usage(format!("reading {path:?}: {e}")))?;
        texts.push((path.clone(), text));
    }
    texts.extend(control(status, "status"));
    texts.extend(control(shutdown, "shutdown"));

    if let Some(dir) = &out {
        std::fs::create_dir_all(dir)
            .map_err(|e| CliError::failure(format!("creating {dir:?}: {e}")))?;
    }
    let mut client = Client::connect(&listen)
        .map_err(|e| CliError::failure(format!("connecting to {listen}: {e}")))?;
    for (i, (label, text)) in texts.iter().enumerate() {
        let (result, dedup) = client.request_text(text).map_err(|e| match e {
            // The server judged the request malformed: that is a spec
            // problem on our side, exit 2 like any other usage error.
            ClientError::Server(ref f) if f.code == 400 => {
                CliError::usage(format!("request {i} ({label}): {e}"))
            }
            other => CliError::failure(format!("request {i} ({label}): {other}")),
        })?;
        eprintln!(
            "request {i} ({label}): {} sections (dedup={})",
            result.sections.len(),
            u8::from(dedup)
        );
        for section in &result.sections {
            match &out {
                Some(dir) => {
                    let path = dir.join(format!("r{i}_{}", section.name));
                    std::fs::write(&path, &section.content)
                        .map_err(|e| CliError::failure(format!("writing {path:?}: {e}")))?;
                    eprintln!("  wrote {}", path.display());
                }
                None => print!("{}", section.content),
            }
        }
    }
    Ok(())
}

fn sweep(mut spec: Spec, _: Vec<String>) -> Result<(), CliError> {
    let spec_path = take(&mut spec, "spec")
        .map(PathBuf::from)
        .ok_or_else(|| CliError::usage("sweep needs --spec FILE"))?;
    let listen = take_listen(&mut spec)?;
    let jobs = take_as(&mut spec, "jobs", parse_usize)?;
    let out = take(&mut spec, "out").map(PathBuf::from);

    let text = std::fs::read_to_string(&spec_path)
        .map_err(|e| CliError::usage(format!("reading {spec_path:?}: {e}")))?;
    let sweep_spec = SweepSpec::parse(&text)
        .map_err(|e| CliError::usage(format!("{}: {e}", spec_path.display())))?;
    // Validate every point up front so spec problems exit 2, leaving
    // exit 1 for genuine execution failures.
    let points = sweep_spec.expand().map_err(CliError::usage)?;

    let start = Instant::now();
    let service;
    let backend = match &listen {
        Some(listen) => SweepBackend::Daemon(listen.clone()),
        None => {
            service = Service::with_cache(Arc::clone(bisramgen::CellCache::global()), None);
            SweepBackend::InProcess(&service)
        }
    };
    eprintln!(
        "sweep: {} points via {} ...",
        points.len(),
        listen
            .as_ref()
            .map_or_else(|| "in-process service".to_owned(), Listen::to_string)
    );
    let report = run_sweep(&sweep_spec, &backend, jobs).map_err(CliError::failure)?;
    eprintln!(
        "sweep done: {} points, {} on the frontier, {:.2}s",
        report.points.len(),
        report.points.iter().filter(|p| p.pareto).count(),
        start.elapsed().as_secs_f64()
    );
    print!("{}", report.text);
    if let Some(path) = &out {
        std::fs::write(path, &report.text)
            .map_err(|e| CliError::failure(format!("writing {path:?}: {e}")))?;
        eprintln!("  wrote {}", path.display());
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let sub = COMMANDS[1..]
        .iter()
        .position(|c| args.first().map(String::as_str) == Some(c.0));
    let (name, usage, operands, body) = COMMANDS[sub.map_or(0, |i| i + 1)];
    match flag_spec(usage, operands, &args[usize::from(sub.is_some())..])
        .and_then(|(spec, rest)| body(spec, rest))
    {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            // Every usage error points at its subcommand's help text.
            let help = format!("{name} --help");
            let hint = (e.code == 2).then(|| format!(" (try {})", help.trim_start()));
            eprintln!("bisramgen: {}{}", e.message, hint.unwrap_or_default());
            ExitCode::from(e.code)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_usage_text_is_the_option_table() {
        assert_eq!(documented_options(USAGE).count(), 14);
        // Every documented option takes a value except these switches.
        for (name, usage, ..) in COMMANDS {
            let switches: Vec<&str> = documented_options(usage)
                .filter(|&(_, takes_value)| !takes_value)
                .map(|(option, _)| option)
                .collect();
            let expected = match name {
                "" => &["cif", "timings", "verify", "help"][..],
                "request" => &["ping", "status", "shutdown", "help"],
                _ => &["help"],
            };
            assert_eq!(switches, expected, "{name:?}");
        }
    }
}
