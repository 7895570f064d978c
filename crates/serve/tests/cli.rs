//! End-to-end CLI behaviour of the relocated `bisramgen` binary:
//! uniform exit codes, documented help, byte parity with the service's
//! jobs, and a full daemon lifecycle driven through the real executable.

use bisram_serve::{Client, FleetJob, JobSpec, Listen, RareJob, Service};
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

fn bisramgen() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bisramgen"))
}

#[test]
fn unknown_flag_is_a_usage_error() {
    let out = bisramgen().arg("--no-such-flag").output().expect("spawn");
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
}

#[test]
fn sweep_without_spec_is_a_usage_error() {
    let out = bisramgen().arg("sweep").output().expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("--spec"),
        "error names the missing flag: {err}"
    );
}

#[test]
fn request_against_dead_socket_is_an_execution_failure() {
    // Port 1 on localhost is essentially never listening.
    let out = bisramgen()
        .args(["request", "--tcp", "127.0.0.1:1", "--ping"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1), "I/O failures exit 1");
}

#[test]
fn invalid_fleet_policy_is_a_usage_error() {
    let out = bisramgen()
        .args(["fleet", "--policy", "wishful"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn flag_mapping_errors_are_usage_errors() {
    for args in [
        vec!["--words", "64", "--words", "128"],
        vec!["fleet", "--seed", "1", "--seed", "2"],
        vec!["--words"],
        vec!["rare-yield", "--trials"],
        vec!["--verify-mode", "bogus"],
    ] {
        let out = bisramgen().args(&args).output().expect("spawn");
        assert_eq!(out.status.code(), Some(2), "{args:?} exits 2");
    }
}

/// A job's sections, by name, from an in-process service.
fn job_sections(spec: &str) -> Vec<(String, String)> {
    let (outcome, _) = Service::cold().submit(&JobSpec::parse(spec).expect("spec parses"));
    let result = outcome.as_ref().as_ref().expect("job succeeds");
    result
        .sections
        .iter()
        .map(|s| (s.name.clone(), s.content.clone()))
        .collect()
}

#[test]
fn compile_writes_the_compile_jobs_sections_byte_for_byte() {
    let dir = std::env::temp_dir().join(format!("bisramgen_cli_parity_{}", std::process::id()));
    let out = bisramgen()
        .args([
            "--words", "128", "--bpw", "8", "--bpc", "4", "--spares", "2", "--out",
        ])
        .arg(&dir)
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(0));
    let sections = job_sections("job = compile\nwords = 128\nbpw = 8\nbpc = 4\nspares = 2\n");
    for name in [
        "datasheet.txt",
        "areas.txt",
        "floorplan.svg",
        "trpla_and.plane",
        "trpla_or.plane",
        "sense_path.sp",
    ] {
        let (_, content) = sections
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("job streams {name}"));
        let written = std::fs::read_to_string(dir.join(name)).expect("CLI wrote the file");
        assert_eq!(
            &written, content,
            "{name} differs between the CLI and the job"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fleet_prints_the_fleet_jobs_section() {
    let out = bisramgen()
        .args([
            "fleet",
            "--lifetimes",
            "200",
            "--seed",
            "7",
            "--words",
            "64",
            "--bpw",
            "8",
        ])
        .args(["--bpc", "4", "--spares", "2", "--lambda", "9e-7"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let sections = job_sections(
        "job = fleet\nlifetimes = 200\nseed = 7\nwords = 64\nbpw = 8\nbpc = 4\n\
         spares = 2\nlambda = 9e-7\n",
    );
    let (_, fleet) = &sections[0];
    let tallies = |text: &str| -> Vec<String> {
        text.lines()
            .filter(|l| l.starts_with("fleet "))
            .filter(|l| {
                !["engine", "wall_seconds", "lifetimes_per_second"]
                    .iter()
                    .any(|k| l.starts_with(&format!("fleet {k}:")))
            })
            .map(str::to_owned)
            .collect()
    };
    assert_eq!(tallies(&stdout), tallies(fleet));
    assert!(
        stdout.ends_with(fleet.as_str()),
        "the survival curve matches too"
    );
}

#[test]
fn help_states_the_cli_defaults_that_differ_from_a_request() {
    for (sub, defaults) in [
        ("fleet", FleetJob::CLI_DEFAULTS),
        ("rare-yield", RareJob::CLI_DEFAULTS),
    ] {
        let out = bisramgen().args([sub, "--help"]).output().expect("spawn");
        let help = String::from_utf8(out.stdout).expect("utf-8");
        for (key, value) in defaults {
            // The option's entry runs from its line to the next option.
            let entry = help
                .split("\n  --")
                .find(|e| e.starts_with(&format!("{key} ")))
                .unwrap_or_else(|| panic!("{sub} documents --{key}"));
            assert!(
                entry.contains(&format!("(default {value})")),
                "--{key}: {entry}"
            );
        }
    }
}

#[test]
fn help_exits_zero_and_documents_exit_codes() {
    for args in [
        vec!["--help"],
        vec!["serve", "--help"],
        vec!["chip-diagnose", "--help"],
        vec!["request", "--help"],
        vec!["sweep", "--help"],
        vec!["rare-yield", "--help"],
        vec!["fleet", "--help"],
    ] {
        let out = bisramgen().args(&args).output().expect("spawn");
        assert_eq!(out.status.code(), Some(0), "{args:?} help exits 0");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(
            text.contains("EXIT CODES"),
            "{args:?} help documents exit codes"
        );
    }
}

#[test]
fn daemon_lifecycle_through_the_real_binary() {
    let mut child = bisramgen()
        .args(["serve", "--tcp", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn daemon");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let banner = lines
        .next()
        .expect("daemon prints a banner")
        .expect("banner reads");
    let addr = banner
        .strip_prefix("serve listening: tcp:")
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
        .to_owned();

    let listen = Listen::Tcp(addr);
    let mut client = Client::connect(&listen).expect("connect to daemon");
    client.ping().expect("ping");
    let (result, dedup) = client
        .request_text("job = characterize\nwords = 128\nbpw = 8\nbpc = 4\nspares = 2\n")
        .expect("characterize");
    assert!(!dedup, "first request is never a dedup hit");
    assert!(result.section("metrics.txt").is_some());
    let status = client.status().expect("status");
    assert!(status.contains("cache entries: "), "{status}");
    client.shutdown().expect("shutdown");

    let code = child.wait().expect("daemon exits").code();
    assert_eq!(code, Some(0), "clean shutdown exits 0");
}
