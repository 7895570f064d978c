//! The compile service: one shared cache, single-flight dedup, typed
//! outcomes.
//!
//! [`Service`] is the daemon's engine and equally usable in-process —
//! the sweep orchestrator calls [`Service::submit`] directly when no
//! daemon is running, so both paths execute *exactly* the same code and
//! produce byte-identical sections. The work itself is done by the
//! per-kind executors in [`crate::run`], which the one-shot CLI
//! calls too.
//!
//! Three properties matter here:
//!
//! * **One cache, two tiers.** Every request compiles through the same
//!   [`CellCache`], and *successful* outcomes are additionally
//!   memoized whole (bounded FIFO, [`MEMO_CAP`] entries) under the
//!   job's canonical key — a repeat of an already-served point costs a
//!   map lookup plus framing. That is where the warm-vs-cold
//!   throughput of the daemon comes from.
//! * **Single-flight.** Identical requests that are in flight
//!   *simultaneously* collapse onto one execution: the first caller
//!   becomes the leader and computes, the rest block on the leader's
//!   slot and share its `Arc`'d outcome. The [`Service::counters`]
//!   triple (requests, executed, dedup hits) makes the collapse
//!   observable and testable; memo hits count as dedup hits, since
//!   both mean "reused another submission's execution". A panic in the
//!   execution is contained to the job: leader and followers all get a
//!   non-memoized `500`, and the flight is cleared.
//! * **Determinism.** Section bytes never contain wall-clock time,
//!   worker counts or anything else host-dependent; a given job spec
//!   produces the same section bytes on every run at any parallelism.
//!   (The [`status`](crate::JobSpec::Status) job reports live counters
//!   and is the deliberate exception — it is diagnostic, not part of
//!   any reduction.)

use crate::job::{CompileJob, JobSpec};
use crate::run;
use bisram_exec::resolve_jobs;
use bisramgen::field::simulate_fleet_jobs;
use bisramgen::{CellCache, CompileOptions};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// One named artifact streamed back to the client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Section {
    /// Artifact name, e.g. `datasheet.txt` or `metrics.txt`.
    pub name: String,
    /// Artifact bytes (all sections are text).
    pub content: String,
}

impl Section {
    pub(crate) fn new(name: &str, content: impl Into<String>) -> Section {
        Section {
            name: name.to_owned(),
            content: content.into(),
        }
    }
}

/// A completed job: its artifact sections, in streaming order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobResult {
    /// Artifact sections, in the order they stream.
    pub sections: Vec<Section>,
}

impl JobResult {
    /// The content of the section called `name`, if present.
    pub fn section(&self, name: &str) -> Option<&str> {
        self.sections
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.content.as_str())
    }
}

/// A failed job, with a retry-classified status code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobFailure {
    /// Status code (HTTP-flavoured: 4xx request problems, 5xx server
    /// states).
    pub code: u32,
    /// Whether resending the same request later can succeed.
    pub retryable: bool,
    /// Human-readable message.
    pub message: String,
}

impl JobFailure {
    /// A malformed or invalid request (`400`, not retryable).
    pub fn bad_request(message: impl Into<String>) -> JobFailure {
        JobFailure {
            code: 400,
            retryable: false,
            message: message.into(),
        }
    }

    /// A job that parsed fine but failed to execute (`422`, not
    /// retryable — the same spec will fail the same way).
    pub fn job_failed(message: impl Into<String>) -> JobFailure {
        JobFailure {
            code: 422,
            retryable: false,
            message: message.into(),
        }
    }

    /// The job panicked (`500`, not retryable). Never memoized, so an
    /// identical later request executes afresh.
    pub fn panicked(message: impl Into<String>) -> JobFailure {
        JobFailure {
            code: 500,
            retryable: false,
            message: message.into(),
        }
    }

    /// The server is draining for shutdown (`503`, retryable against a
    /// restarted server).
    pub fn draining() -> JobFailure {
        JobFailure {
            code: 503,
            retryable: true,
            message: "server is draining; resend to a fresh server".to_owned(),
        }
    }
}

impl std::fmt::Display for JobFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "error {}: {}", self.code, self.message)
    }
}

/// What a submitted job resolved to.
pub type JobOutcome = Result<JobResult, JobFailure>;

/// Single-flight slot: the leader parks its outcome here and wakes the
/// followers.
struct Slot {
    result: Mutex<Option<Arc<JobOutcome>>>,
    ready: Condvar,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            result: Mutex::new(None),
            ready: Condvar::new(),
        }
    }
}

/// The single-flight leader's duty, discharged on drop: park the outcome
/// in the slot, wake the followers, memoize a success and clear the
/// in-flight entry. Dropping it without an outcome — the leader
/// unwound — parks a `500` instead, so no follower or later identical
/// request waits on a slot nobody will fill.
struct Flight<'a> {
    service: &'a Service,
    key: &'a str,
    slot: &'a Slot,
    outcome: Option<Arc<JobOutcome>>,
}

impl Drop for Flight<'_> {
    fn drop(&mut self) {
        let outcome = self
            .outcome
            .take()
            .unwrap_or_else(|| Arc::new(Err(JobFailure::panicked("job execution unwound"))));
        *self.slot.result.lock().unwrap_or_else(|e| e.into_inner()) = Some(Arc::clone(&outcome));
        self.slot.ready.notify_all();
        // Memoize before dropping the in-flight entry so no window
        // exists where a fresh submission finds the key in neither
        // tier and re-executes.
        self.service.memo_put(self.key, &outcome);
        self.service
            .in_flight
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(self.key);
    }
}

/// The text of a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

/// Ceiling on memoized outcomes. Full artifact sets can run to
/// megabytes (CIF layouts), so a long-lived daemon must not hoard them
/// without bound; FIFO eviction keeps the policy deterministic.
pub const MEMO_CAP: usize = 256;

/// Completed-result memo: canonical key -> shared outcome, with FIFO
/// eviction order.
struct Memo {
    map: HashMap<String, Arc<JobOutcome>>,
    order: VecDeque<String>,
}

/// The compile service. Cheap to share behind an `Arc`; all methods
/// take `&self`.
pub struct Service {
    cache: Arc<CellCache>,
    jobs: usize,
    in_flight: Mutex<HashMap<String, Arc<Slot>>>,
    memo: Mutex<Memo>,
    requests: AtomicU64,
    executed: AtomicU64,
    dedup_hits: AtomicU64,
    draining: AtomicBool,
    /// Test-only fault injection: runs at the start of every execution.
    #[cfg(test)]
    before_execute: Mutex<Option<fn(&Service)>>,
}

impl Default for Service {
    fn default() -> Self {
        Service::new()
    }
}

impl Service {
    /// A service on the process-wide cache with automatic parallelism.
    pub fn new() -> Service {
        Service::with_cache(Arc::clone(CellCache::global()), None)
    }

    /// A service on its own cold cache — for tests and benchmarks that
    /// must observe cold-compile behaviour.
    pub fn cold() -> Service {
        Service::with_cache(Arc::new(CellCache::new()), None)
    }

    /// A service on an explicit cache with an explicit worker count
    /// (`None` = `--jobs`-style automatic resolution).
    pub fn with_cache(cache: Arc<CellCache>, jobs: Option<usize>) -> Service {
        Service {
            cache,
            jobs: resolve_jobs(jobs),
            in_flight: Mutex::new(HashMap::new()),
            memo: Mutex::new(Memo {
                map: HashMap::new(),
                order: VecDeque::new(),
            }),
            requests: AtomicU64::new(0),
            executed: AtomicU64::new(0),
            dedup_hits: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            #[cfg(test)]
            before_execute: Mutex::new(None),
        }
    }

    /// `(requests, executed, dedup_hits)` so far. `executed` counts
    /// jobs this service actually ran; `dedup_hits` counts submissions
    /// that reused another submission's execution, whether by
    /// piggybacking on it in flight or by hitting the result memo.
    pub fn counters(&self) -> (u64, u64, u64) {
        (
            self.requests.load(Ordering::Relaxed),
            self.executed.load(Ordering::Relaxed),
            self.dedup_hits.load(Ordering::Relaxed),
        )
    }

    /// Whether [`JobSpec::Shutdown`] has been accepted.
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::Relaxed)
    }

    /// Submits a job and blocks until its outcome is available.
    /// Returns the (shared) outcome and whether this submission was
    /// deduplicated onto another caller's in-flight execution.
    pub fn submit(&self, job: &JobSpec) -> (Arc<JobOutcome>, bool) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        // Control-plane jobs answer immediately, bypassing dedup: they
        // are cheap, and status/ping must work on a draining server.
        if matches!(job, JobSpec::Ping | JobSpec::Status | JobSpec::Shutdown) {
            if matches!(job, JobSpec::Shutdown) {
                self.draining.store(true, Ordering::SeqCst);
            }
            return (Arc::new(self.execute(job)), false);
        }
        if self.draining() {
            return (Arc::new(Err(JobFailure::draining())), false);
        }

        let key = job.canonical();
        if let Some(outcome) = self.memo_get(&key) {
            self.dedup_hits.fetch_add(1, Ordering::Relaxed);
            return (outcome, true);
        }
        let (slot, leader) = {
            let mut map = self
                .in_flight
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            match map.get(&key) {
                Some(slot) => (Arc::clone(slot), false),
                None => {
                    let slot = Arc::new(Slot::new());
                    map.insert(key.clone(), Arc::clone(&slot));
                    (slot, true)
                }
            }
        };

        if leader {
            self.executed.fetch_add(1, Ordering::Relaxed);
            let mut flight = Flight {
                service: self,
                key: &key,
                slot: &slot,
                outcome: None,
            };
            // A panic is contained to this job: the leader answers with
            // the same typed failure its followers receive.
            let outcome = Arc::new(
                catch_unwind(AssertUnwindSafe(|| self.execute(job))).unwrap_or_else(|payload| {
                    Err(JobFailure::panicked(format!(
                        "job panicked: {}",
                        panic_message(payload.as_ref())
                    )))
                }),
            );
            flight.outcome = Some(Arc::clone(&outcome));
            drop(flight);
            (outcome, false)
        } else {
            self.dedup_hits.fetch_add(1, Ordering::Relaxed);
            let mut result = slot.result.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(outcome) = result.as_ref() {
                    return (Arc::clone(outcome), true);
                }
                result = slot
                    .ready
                    .wait(result)
                    .unwrap_or_else(|e| e.into_inner());
            }
        }
    }

    fn memo_get(&self, key: &str) -> Option<Arc<JobOutcome>> {
        self.memo
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .map
            .get(key)
            .cloned()
    }

    /// Memoizes a *successful* outcome. Failures are never cached:
    /// they keep their retry semantics, and a fixed environment (say,
    /// more disk) should not be haunted by a stale error.
    fn memo_put(&self, key: &str, outcome: &Arc<JobOutcome>) {
        if outcome.is_err() {
            return;
        }
        let mut memo = self.memo.lock().unwrap_or_else(|e| e.into_inner());
        if memo.map.contains_key(key) {
            return;
        }
        if memo.map.len() >= MEMO_CAP {
            if let Some(oldest) = memo.order.pop_front() {
                memo.map.remove(&oldest);
            }
        }
        memo.order.push_back(key.to_owned());
        memo.map.insert(key.to_owned(), Arc::clone(outcome));
    }

    /// Blocks until no job is in flight. The daemon calls this after
    /// the accept loop stops, so shutdown drains instead of aborting.
    pub fn drain(&self) {
        loop {
            let empty = self
                .in_flight
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .is_empty();
            if empty {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
    }

    fn status_result(&self) -> JobResult {
        let (requests, executed, dedup_hits) = self.counters();
        let mut text = String::new();
        text.push_str(&format!("serve requests: {requests}\n"));
        text.push_str(&format!("serve executed: {executed}\n"));
        text.push_str(&format!("serve dedup_hits: {dedup_hits}\n"));
        text.push_str(&format!("serve draining: {}\n", u8::from(self.draining())));
        text.push_str(&format!("serve jobs: {}\n", self.jobs));
        text.push_str(&format!(
            "serve memo: {}\n",
            self.memo.lock().unwrap_or_else(|e| e.into_inner()).map.len()
        ));
        text.push_str(&format!("cache entries: {}\n", self.cache.len()));
        text.push_str(&format!("cache hits: {}\n", self.cache.hits()));
        text.push_str(&format!("cache misses: {}\n", self.cache.misses()));
        for ks in self.cache.kind_stats() {
            text.push_str(&format!(
                "cache kind={} hits={} misses={}\n",
                ks.kind, ks.hits, ks.misses
            ));
        }
        JobResult {
            sections: vec![Section::new("status.txt", text)],
        }
    }

    fn execute(&self, job: &JobSpec) -> JobOutcome {
        #[cfg(test)]
        {
            let hook = *self
                .before_execute
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            if let Some(hook) = hook {
                hook(self);
            }
        }
        let one = |name: &str, content: String| JobResult {
            sections: vec![Section::new(name, content)],
        };
        match job {
            JobSpec::Compile(c) => self.compile(c, true, c.verify.mode().is_some()),
            JobSpec::Characterize(c) => self.compile(c, false, false),
            JobSpec::Verify(c) => self.compile(c, false, true),
            JobSpec::RareYield(r) => {
                run::rare(r, None, self.jobs).map(|rare| one("rare.txt", rare.text(false)))
            }
            JobSpec::Fleet(f) => run::fleet(f, self.jobs, simulate_fleet_jobs)
                .map(|text| one("fleet.txt", text)),
            JobSpec::Status => Ok(self.status_result()),
            JobSpec::Ping => Ok(one("pong.txt", "pong\n".to_owned())),
            JobSpec::Shutdown => Ok(one("shutdown.txt", "draining\n".to_owned())),
        }
    }

    /// Runs a compile-family job on the shared cache; a dirty
    /// verification fails the job with `422`.
    fn compile(&self, c: &CompileJob, artifacts: bool, verify: bool) -> JobOutcome {
        let options = CompileOptions::new()
            .with_cache(Arc::clone(&self.cache))
            .with_jobs(self.jobs)
            .with_verify(verify);
        let compiled = run::compile(c, options, artifacts)?;
        if compiled.verify_clean == Some(false) {
            return Err(JobFailure::job_failed(
                "physical verification found violations",
            ));
        }
        Ok(JobResult {
            sections: compiled.sections,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_compile(words: usize) -> JobSpec {
        JobSpec::parse(&format!(
            "job = characterize\nwords = {words}\nbpw = 8\nbpc = 4\nspares = 2\n"
        ))
        .expect("valid spec")
    }

    #[test]
    fn characterize_produces_stable_metrics() {
        let service = Service::cold();
        let (outcome, deduped) = service.submit(&small_compile(64));
        assert!(!deduped);
        let result = outcome.as_ref().as_ref().expect("job ok");
        let metrics = result.section("metrics.txt").expect("metrics section");
        assert!(metrics.contains("metric words: 64\n"), "{metrics}");
        assert!(metrics.contains("metric area_mm2: "), "{metrics}");
        assert!(metrics.contains("metric yield_bisr: "), "{metrics}");
        assert!(metrics.contains("metric mttf_hours: "), "{metrics}");

        // Identical resubmission hits the result memo: byte-identical,
        // reported as a dedup, and no second execution.
        let (again, deduped) = service.submit(&small_compile(64));
        assert!(deduped, "sequential repeat must hit the memo");
        assert_eq!(
            again.as_ref().as_ref().expect("job ok").sections,
            result.sections
        );
        let (_, executed, dedup_hits) = service.counters();
        assert_eq!(executed, 1, "sequential repeat must not re-execute");
        assert_eq!(dedup_hits, 1);

        // A *different* point is not a memo hit.
        let (_, deduped) = service.submit(&small_compile(128));
        assert!(!deduped);
        let (_, executed, _) = service.counters();
        assert_eq!(executed, 2);
    }

    #[test]
    fn concurrent_identical_requests_single_flight() {
        let service = Arc::new(Service::cold());
        let n = 8;
        let outcomes: Vec<(Arc<JobOutcome>, bool)> =
            bisram_exec::run_tasks(n, (0..n).map(|_| {
                let service = Arc::clone(&service);
                move || service.submit(&small_compile(128))
            })
            .collect());
        let first = outcomes[0].0.as_ref().as_ref().expect("job ok");
        for (outcome, _) in &outcomes {
            assert_eq!(outcome.as_ref().as_ref().expect("job ok"), first);
        }
        let (requests, executed, dedup_hits) = service.counters();
        assert_eq!(requests, n as u64);
        assert_eq!(executed + dedup_hits, n as u64);
        assert!(
            executed < n as u64,
            "at least one submission must dedup (executed={executed})"
        );
    }

    #[test]
    fn draining_rejects_new_work_with_retryable_503() {
        let service = Service::cold();
        let (ack, _) = service.submit(&JobSpec::Shutdown);
        assert!(ack.is_ok());
        let (outcome, _) = service.submit(&small_compile(64));
        let failure = outcome.as_ref().as_ref().expect_err("rejected");
        assert_eq!(failure.code, 503);
        assert!(failure.retryable);
        // Control plane still answers while draining.
        let (status, _) = service.submit(&JobSpec::Status);
        let text = status.as_ref().as_ref().expect("status ok").sections[0]
            .content
            .clone();
        assert!(text.contains("serve draining: 1\n"), "{text}");
    }

    #[test]
    fn status_surfaces_per_kind_cache_stats() {
        let service = Service::cold();
        let (_, _) = service.submit(&small_compile(64));
        let (status, _) = service.submit(&JobSpec::Status);
        let text = status.as_ref().as_ref().expect("status ok").sections[0]
            .content
            .clone();
        assert!(text.contains("cache kind=control "), "{text}");
        assert!(text.contains("cache kind=leaf "), "{text}");
    }

    #[test]
    fn a_panicking_leader_fails_its_followers_and_clears_the_flight() {
        let service = Arc::new(Service::cold());
        // Hold the leader until three followers have joined its flight,
        // then unwind out of the execution.
        *service.before_execute.lock().unwrap() = Some(|s: &Service| {
            while s.counters().2 < 3 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            panic!("injected fault");
        });
        // Outcomes arrive over a channel with a deadline, so a wedged
        // flight fails the test instead of hanging it.
        let wait = std::time::Duration::from_secs(60);
        let (tx, rx) = std::sync::mpsc::channel();
        let submitters: Vec<_> = (0..4)
            .map(|_| {
                let (service, tx) = (Arc::clone(&service), tx.clone());
                std::thread::spawn(move || {
                    let _ = tx.send(service.submit(&small_compile(64)).0);
                })
            })
            .collect();
        for _ in 0..4 {
            let outcome = rx.recv_timeout(wait).expect("every submission is answered");
            let failure = outcome
                .as_ref()
                .as_ref()
                .expect_err("panic surfaces as a failure");
            assert_eq!(failure.code, 500, "{failure}");
            assert!(failure.message.contains("injected fault"), "{failure}");
        }
        for submitter in submitters {
            submitter.join().expect("submit contains the panic");
        }
        let (_, executed, dedup_hits) = service.counters();
        assert_eq!((executed, dedup_hits), (1, 3), "followers shared the one flight");

        // The flight is gone: drain returns.
        let (done, drained) = std::sync::mpsc::channel();
        let drainer = Arc::clone(&service);
        let drainer = std::thread::spawn(move || {
            drainer.drain();
            let _ = done.send(());
        });
        drained
            .recv_timeout(wait)
            .expect("drain returns after a panicked job");
        drainer.join().expect("drainer exits");

        // The failure was not memoized: the next identical request
        // executes afresh.
        *service.before_execute.lock().unwrap() = None;
        let (outcome, deduped) = service.submit(&small_compile(64));
        assert!(outcome.is_ok() && !deduped);
        assert_eq!(service.counters().1, 2, "re-executed after the panic");
    }

    #[test]
    fn the_default_cif_answer_fits_in_one_frame() {
        // The default 1024 x 32 organization; its flattened CIF was an
        // 18 MB section, above the frame limit.
        let job = JobSpec::parse("job = compile\ncif = 1\n").expect("valid spec");
        let (outcome, _) = Service::cold().submit(&job);
        let result = outcome.as_ref().as_ref().expect("job ok");
        let cif = result.section("layout.cif").expect("cif section");
        assert!(cif.ends_with(";\nE\n"), "complete CIF");
        for section in &result.sections {
            let frame = crate::proto::RespFrame::Section {
                name: section.name.clone(),
                content: section.content.clone(),
            }
            .encode();
            assert!(
                frame.len() <= bisram_wire::MAX_FRAME_BYTES as usize,
                "{} frame is {} bytes",
                section.name,
                frame.len()
            );
        }
    }

    #[test]
    fn fleet_and_rare_jobs_run_end_to_end() {
        let service = Service::cold();
        let fleet = JobSpec::parse(
            "job = fleet\nwords = 64\nbpw = 8\nbpc = 4\nspares = 2\nlifetimes = 20\n",
        )
        .expect("valid fleet spec");
        let (outcome, _) = service.submit(&fleet);
        let result = outcome.as_ref().as_ref().expect("fleet ok");
        assert!(result.sections[0].content.contains("fleet lifetimes: 20\n"));

        let rare = JobSpec::parse(
            "job = rare-yield\ntrials = 32\npilot = 16\ntarget-p = 0.05\n",
        )
        .expect("valid rare spec");
        let (outcome, _) = service.submit(&rare);
        let result = outcome.as_ref().as_ref().expect("rare ok");
        assert!(result.sections[0].content.contains("rare is_p_fail: "));
    }
}
