//! `daemon-mix`: the release `bisramgen serve --socket` runs as a
//! child process and two closed-loop `Client`s send a seeded stream of
//! hot repeats, cold unique small organizations, a few CIF compiles
//! and periodic `status` requests. After the window, a fixed set of
//! probes reproduces the known oversized-CIF-frame defect.
//!
//! Serve and wire dominate the hot class; the cold class runs the
//! pipeline at small sizes on a partly warm leaf cache.

use crate::layers;
use crate::perlayer::{ratio, PerLayer};
use crate::trace::Tracer;
use crate::util::{digest, median, ms, peak_rss_mb, quantile, timed, Outcome, Rng, PROCESSES};
use crate::{Config, E2e};
use bisram_serve::{Client, ClientError, JobSpec, Listen, RespFrame, Section, Service};
use bisram_wire::{read_frame, write_frame, FRAME_OVERHEAD, MAX_FRAME_BYTES};
use bisramgen::CellCache;
use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Read};
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Distinct hot specs: 6 `characterize` and 2 `compile`. The two kinds
/// answer with 2 and 8 sections, so their latencies form two clusters;
/// an uneven split keeps the median and p90 inside a cluster instead
/// of on the gap between them.
const HOT_SPECS: usize = 8;
/// Seed of the hot set's shapes, whatever the run's seed.
const HOT_SEED: u64 = 1;
/// Each client's stream is built from blocks of this many requests.
const BLOCK: usize = 100;
/// Per block: cold unique organizations, `cif = 1` compiles, and
/// `status` requests (at fixed positions); the rest are hot repeats.
const COLD_PER_BLOCK: usize = 7;
const CIF_PER_BLOCK: usize = 1;
const STATUS_EVERY: usize = 50;
/// Word-count strata of the small organizations: 64 to 4096 words.
const WORD_STRATA: usize = 7;
/// Word-count strata of the timed `cif = 1` requests: 64 to 1024 words.
/// From 2048 words at the CIF width the flattened CIF no longer fits in
/// a frame (the known defect), so those strata go to the fixed defect
/// probes instead: inside the window, how many of them fail would
/// follow the daemon's speed.
const CIF_STRATA: usize = 5;
/// Closed-loop clients.
const CLIENTS: usize = 2;
/// The daemon's peak RSS is read once both clients have completed this
/// many requests: a fixed point of the seeded stream, so a faster daemon
/// is not charged for the extra cold work it fits into the window.
const RSS_MARK: usize = 2500;
/// How long past the window a request may hang before the watchdog
/// kills the daemon and the request counts as failed.
const GRACE: Duration = Duration::from_secs(30);

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Class {
    Hot,
    Cold,
    Cif,
    Status,
    /// A defect probe, sent after the window.
    Probe,
}

/// A small organization: `64 << stratum` words (so log-uniform over
/// 64–4096 when strata are cycled evenly) and 8–23 bits per word.
/// Client `parity` only draws word widths of that parity, so the two
/// clients' cold organizations never coincide.
#[derive(Clone, PartialEq, Eq, Hash)]
struct Org {
    words: usize,
    bpw: usize,
    bpc: usize,
    spares: usize,
    gate_size: usize,
    process: &'static str,
}

fn small_org(rng: &mut Rng, stratum: usize, parity: usize) -> Org {
    Org {
        words: 64 << stratum,
        bpw: 8 + 2 * rng.below(8) + parity,
        bpc: *rng.pick(&[2usize, 4, 8]),
        spares: *rng.pick(&[2usize, 4, 8, 16]),
        gate_size: 1 + rng.below(4),
        process: PROCESSES[rng.below(PROCESSES.len())],
    }
}

/// Word width of the hot set and of every `cif = 1` organization: the
/// middle of the 8–23 range, one per parity. The hot set is what set-up
/// compiles, and the CIF answers are the largest the daemon holds in its
/// memo, so a fixed width keeps set-up time and peak RSS from following
/// the seed's width draws.
fn mid_bpw(parity: usize) -> usize {
    16 + parity
}

fn org_spec(job: &str, o: &Org, cif: bool) -> String {
    format!(
        "job = {job}\nwords = {}\nbpw = {}\nbpc = {}\nspares = {}\ngate-size = {}\nprocess = {}\ncif = {}\n",
        o.words,
        o.bpw,
        o.bpc,
        o.spares,
        o.gate_size,
        o.process,
        u8::from(cif)
    )
}

/// The hot set: one organization per word stratum (plus one more),
/// every fourth one a `compile`. Its shapes are drawn from a fixed seed,
/// the same for every run: the hot answers' sizes set the hot latency
/// and the cache and memo contents that every other class meets, and a
/// seeded hot set moved `light_ms.p50` by about 15 % between seeds.
fn hot_set() -> (Vec<String>, Vec<Org>) {
    let mut rng = Rng::new(HOT_SEED, 3);
    let mut orgs: Vec<Org> = Vec::new();
    while orgs.len() < HOT_SPECS {
        let parity = rng.below(2);
        let mut o = small_org(&mut rng, orgs.len() % WORD_STRATA, parity);
        o.bpw = mid_bpw(parity);
        if !orgs.contains(&o) {
            orgs.push(o);
        }
    }
    let specs = orgs
        .iter()
        .enumerate()
        .map(|(i, o)| {
            let job = if i % 4 == 3 {
                "compile"
            } else {
                "characterize"
            };
            org_spec(job, o, false)
        })
        .collect();
    (specs, orgs)
}

/// Cycles through `n` word strata, so any stretch of draws covers the
/// sizes evenly. A shuffled cycle is reshuffled every full cycle; a
/// fixed one runs smallest to largest, so every seed sends the same
/// sizes in the same order.
struct Strata {
    order: Vec<usize>,
    next: usize,
    shuffled: bool,
}

impl Strata {
    fn new(n: usize, shuffled: bool) -> Strata {
        Strata {
            order: (0..n).collect(),
            next: n,
            shuffled,
        }
    }

    fn draw(&mut self, rng: &mut Rng) -> usize {
        if self.next == self.order.len() {
            if self.shuffled {
                rng.shuffle(&mut self.order);
            }
            self.next = 0;
        }
        self.next += 1;
        self.order[self.next - 1]
    }
}

/// One client's seeded request stream.
struct Stream {
    rng: Rng,
    parity: usize,
    hot: Vec<String>,
    seen: HashSet<Org>,
    block: Vec<Class>,
    cold_strata: Strata,
    cif_strata: Strata,
    /// Per CIF stratum, the next shape of the fixed CIF walk.
    cif_next: [usize; CIF_STRATA],
}

impl Stream {
    fn new(seed: u64, client: usize) -> Stream {
        let (hot, orgs) = hot_set();
        Stream {
            rng: Rng::new(seed, 10 + client as u64),
            parity: client % 2,
            hot,
            seen: orgs.into_iter().collect(),
            block: Vec::new(),
            cold_strata: Strata::new(WORD_STRATA, true),
            // CIF answers dominate the daemon's memory: a fixed order
            // makes the daemon hold the same CIF sizes at the RSS mark
            // whatever the seed.
            cif_strata: Strata::new(CIF_STRATA, false),
            cif_next: [0; CIF_STRATA],
        }
    }

    /// A fresh block: the cold and CIF requests at seeded positions,
    /// `status` at fixed ones. Stored reversed, popped from the end.
    fn refill(&mut self) {
        let statuses = BLOCK / STATUS_EVERY;
        let mut classes = vec![Class::Cold; COLD_PER_BLOCK];
        classes.resize(COLD_PER_BLOCK + CIF_PER_BLOCK, Class::Cif);
        classes.resize(BLOCK - statuses, Class::Hot);
        self.rng.shuffle(&mut classes);
        for k in 1..=statuses {
            classes.insert(k * STATUS_EVERY - 1, Class::Status);
        }
        classes.reverse();
        self.block = classes;
    }

    /// A seeded organization of the stratum this client has not sent
    /// yet. Each stratum holds 1152 organizations per client: about
    /// twenty times what a 20 s window sends today. Running out fails
    /// the run rather than repeating a spec, which would turn cold
    /// requests into memo hits.
    fn unique(&mut self, stratum: usize) -> Org {
        for _ in 0..100_000 {
            let o = small_org(&mut self.rng, stratum, self.parity);
            if self.seen.insert(o.clone()) {
                return o;
            }
        }
        panic!("daemon-mix: no unused organization left in word stratum {stratum}");
    }

    /// The next `cif = 1` organization of the stratum: a walk over the
    /// 144 shapes at the CIF width in a fixed order, the same for every
    /// seed, skipping shapes this client has sent already. The CIF
    /// answers are the largest the daemon memoizes, so the daemon holds
    /// the same ones at the RSS mark whatever the seed. A 20 s window
    /// sends under a tenth of the walk; running out fails the run.
    fn cif_org(&mut self, stratum: usize) -> Org {
        const BPC: [usize; 3] = [2, 4, 8];
        const SPARES: [usize; 4] = [2, 4, 8, 16];
        const GATES: usize = 4;
        let shapes = BPC.len() * SPARES.len() * GATES * PROCESSES.len();
        loop {
            let i = self.cif_next[stratum];
            assert!(
                i < shapes,
                "daemon-mix: no unused CIF organization left in word stratum {stratum}"
            );
            self.cif_next[stratum] += 1;
            let o = Org {
                words: 64 << stratum,
                bpw: mid_bpw(self.parity),
                bpc: BPC[i % BPC.len()],
                spares: SPARES[i / BPC.len() % SPARES.len()],
                gate_size: 1 + i / (BPC.len() * SPARES.len()) % GATES,
                process: PROCESSES[i / (BPC.len() * SPARES.len() * GATES)],
            };
            if self.seen.insert(o.clone()) {
                return o;
            }
        }
    }

    fn next(&mut self) -> (Class, String) {
        if self.block.is_empty() {
            self.refill();
        }
        let class = self.block.pop().expect("refilled block");
        let text = match class {
            Class::Status => "job = status\n".to_owned(),
            Class::Cif => {
                let s = self.cif_strata.draw(&mut self.rng);
                org_spec("compile", &self.cif_org(s), true)
            }
            Class::Cold => {
                let s = self.cold_strata.draw(&mut self.rng);
                let job = if self.rng.below(2) == 0 {
                    "characterize"
                } else {
                    "compile"
                };
                org_spec(job, &self.unique(s), false)
            }
            Class::Hot => self.hot[self.rng.below(self.hot.len())].clone(),
            Class::Probe => unreachable!("blocks hold no defect probes"),
        };
        (class, text)
    }
}

/// One answered (or failed) request.
struct Req {
    class: Class,
    text: String,
    latency: Duration,
    /// Digest of the sections, `None` when the request failed.
    digest: Option<u64>,
    /// Bytes the response and request occupied on the wire.
    wire_bytes: usize,
    error: Option<String>,
}

// ---- The daemon child ------------------------------------------------

/// Daemons this run started, so the watchdogs can kill them.
static CHILDREN: Mutex<Vec<(u32, Child)>> = Mutex::new(Vec::new());

/// Kills every daemon still running (the watchdog path).
pub fn kill_all() {
    let mut children = CHILDREN.lock().unwrap_or_else(|e| e.into_inner());
    for (_, child) in children.iter_mut() {
        let _ = child.kill();
        let _ = child.wait();
    }
    children.clear();
}

fn kill(pid: u32) {
    let mut children = CHILDREN.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(i) = children.iter().position(|(p, _)| *p == pid) {
        let (_, mut child) = children.remove(i);
        let _ = child.kill();
        let _ = child.wait();
    }
}

struct Daemon {
    pid: u32,
    listen: Listen,
    stdout: BufReader<ChildStdout>,
}

fn spawn(cfg: &Config, n: usize) -> Result<Daemon, String> {
    let bin = cfg
        .daemon_bin
        .as_ref()
        .ok_or("daemon-mix needs --daemon-bin")?;
    let sock: PathBuf = cfg
        .run_dir
        .join(format!("serve-{}-{n}.sock", std::process::id()));
    let mut child = Command::new(bin)
        .arg("serve")
        .arg("--socket")
        .arg(&sock)
        .arg("--jobs")
        .arg(cfg.jobs.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
    let pid = child.id();
    let stdout = child.stdout.take().ok_or("daemon stdout")?;
    CHILDREN
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push((pid, child));
    let mut stdout = BufReader::new(stdout);
    let mut line = String::new();
    let _ = stdout.read_line(&mut line);
    if !line.starts_with("serve listening:") {
        kill(pid);
        return Err(format!("daemon did not come up: {line:?}"));
    }
    Ok(Daemon {
        pid,
        listen: Listen::Unix(sock),
        stdout,
    })
}

impl Daemon {
    fn client(&self) -> Result<Client, String> {
        Client::connect(&self.listen).map_err(|e| format!("connect: {e}"))
    }

    /// Asks the daemon to drain, reads its last words and waits for it.
    fn stop(mut self) {
        if let Ok(mut c) = self.client() {
            let _ = c.shutdown();
        }
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let mut children = CHILDREN.lock().unwrap_or_else(|e| e.into_inner());
            let Some(i) = children.iter().position(|(p, _)| *p == self.pid) else {
                return;
            };
            match children[i].1.try_wait() {
                Ok(Some(_)) | Err(_) => {
                    children.remove(i);
                    return;
                }
                Ok(None) if Instant::now() > deadline => {
                    drop(children);
                    kill(self.pid);
                    return;
                }
                Ok(None) => {}
            }
            drop(children);
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

/// Spawns a daemon, connects every client and warms the hot set into
/// the daemon's memo. Returns the daemon and the set-up time.
fn set_up(cfg: &Config, n: usize, hot: &[String]) -> Result<(Daemon, f64), String> {
    let start = Instant::now();
    let daemon = spawn(cfg, n)?;
    let mut clients = (0..CLIENTS)
        .map(|_| daemon.client())
        .collect::<Result<Vec<_>, _>>()?;
    for c in &mut clients {
        c.ping().map_err(|e| format!("ping: {e}"))?;
    }
    for text in hot {
        clients[0]
            .request_text(text)
            .map_err(|e| format!("warming the hot set: {e}"))?;
    }
    Ok((daemon, start.elapsed().as_secs_f64()))
}

// ---- The closed loop -------------------------------------------------

/// Reads the daemon's peak RSS when the last client passes `RSS_MARK`.
struct RssMark {
    pid: u32,
    passed: AtomicUsize,
    mb: Mutex<Option<f64>>,
}

impl RssMark {
    fn pass(&self) {
        if self.passed.fetch_add(1, Ordering::SeqCst) + 1 == CLIENTS {
            *self.mb.lock().unwrap_or_else(|e| e.into_inner()) = peak_rss_mb(Some(self.pid));
        }
    }
}

fn client_loop(
    listen: &Listen,
    mut stream: Stream,
    deadline: Instant,
    hard: Instant,
    mark: &RssMark,
) -> Vec<Req> {
    let mut log = Vec::new();
    let mut client: Option<Client> = None;
    while Instant::now() < deadline && Instant::now() < hard {
        let (class, text) = stream.next();
        log.push(send(listen, &mut client, class, text));
        if log.len() == RSS_MARK {
            mark.pass();
        }
    }
    log
}

/// Sends one request on `client`, connecting first if there is none.
fn send(listen: &Listen, client: &mut Option<Client>, class: Class, text: String) -> Req {
    let start = Instant::now();
    let connected = match client.take() {
        Some(c) => Ok(c),
        None => Client::connect(listen).map_err(ClientError::Io),
    };
    let answer = connected.and_then(|mut c| {
        let r = c.request_text(&text);
        // A transport or protocol error leaves the stream position
        // unknown: reconnect. A typed server error does not.
        if matches!(r, Ok(_) | Err(ClientError::Server(_))) {
            *client = Some(c);
        }
        r
    });
    let latency = start.elapsed();
    match answer {
        Ok((result, _)) => Req {
            class,
            wire_bytes: wire_bytes(&text, &result.sections),
            digest: Some(digest(&result.sections)),
            text,
            latency,
            error: None,
        },
        Err(e) => Req {
            class,
            text,
            latency,
            digest: None,
            wire_bytes: 0,
            error: Some(e.to_string()),
        },
    }
}

/// The known-defect probes: `cif = 1` compiles of the default 1024×32
/// organization, the size the defect was found at, and of one
/// organization from each word stratum above the timed CIF draw, at
/// the CIF width. Their shapes are seeded; their sizes are not.
fn defect_probe_specs(seed: u64) -> Vec<String> {
    let mut rng = Rng::new(seed, 20);
    let mut specs = vec!["job = compile\ncif = 1\n".to_owned()];
    for stratum in CIF_STRATA..WORD_STRATA {
        let parity = stratum % 2;
        let mut o = small_org(&mut rng, stratum, parity);
        o.bpw = mid_bpw(parity);
        specs.push(org_spec("compile", &o, true));
    }
    specs
}

/// Sends the defect probes after the window, each on a connection of
/// its own. They are not part of the timed workload: the output check
/// reports each failure as the known defect, or fails the run when it
/// is not that defect, but `failed` does not count them.
fn probe_defect(daemon: &Daemon, seed: u64) -> Vec<Req> {
    defect_probe_specs(seed)
        .into_iter()
        .map(|text| send(&daemon.listen, &mut None, Class::Probe, text))
        .collect()
}

/// What one window produced.
struct Window {
    logs: Vec<Vec<Req>>,
    elapsed: f64,
    /// The daemon's peak RSS at `RSS_MARK`, if both clients got there.
    rss_at_mark: Option<f64>,
}

/// A window: the clients run closed loops until `budget` has passed.
/// The watchdog kills the daemon if a request is still hanging
/// `GRACE` after that, so a wedge shows as failed requests.
fn run_window(cfg: &Config, daemon: &Daemon, budget: f64) -> Window {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(budget);
    let hard = deadline + GRACE;
    let done = AtomicBool::new(false);
    let mark = RssMark {
        pid: daemon.pid,
        passed: AtomicUsize::new(0),
        mb: Mutex::new(None),
    };
    let logs = std::thread::scope(|s| {
        let pid = daemon.pid;
        let done = &done;
        s.spawn(move || {
            while !done.load(Ordering::SeqCst) {
                if Instant::now() > hard {
                    eprintln!("daemon-mix: watchdog fired, killing the daemon");
                    kill(pid);
                    return;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        });
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let stream = Stream::new(cfg.seed, c);
                let listen = &daemon.listen;
                let mark = &mark;
                s.spawn(move || client_loop(listen, stream, deadline, hard, mark))
            })
            .collect();
        let logs: Vec<Vec<Req>> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        done.store(true, Ordering::SeqCst);
        logs
    });
    Window {
        logs,
        elapsed: start.elapsed().as_secs_f64(),
        rss_at_mark: mark.mb.into_inner().unwrap_or_else(|e| e.into_inner()),
    }
}

/// Parsed `status` counters of the daemon.
#[derive(Default)]
struct Status {
    executed: f64,
    dedup_hits: f64,
    entries: f64,
    kinds: Vec<bisramgen::KindStats>,
}

fn status(daemon: &Daemon) -> Result<Status, String> {
    let text = daemon
        .client()?
        .status()
        .map_err(|e| format!("status: {e}"))?;
    let num = |key: &str| -> f64 {
        text.lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(f64::NAN)
    };
    let mut kinds = Vec::new();
    for line in text.lines() {
        let Some(rest) = line.strip_prefix("cache kind=") else {
            continue;
        };
        let mut parts = rest.split(' ');
        let kind = parts.next().unwrap_or("");
        let get = |p: Option<&str>, k: &str| {
            p.and_then(|v| v.strip_prefix(k))
                .and_then(|v| v.parse().ok())
                .unwrap_or(0)
        };
        let hits = get(parts.next(), "hits=");
        let misses = get(parts.next(), "misses=");
        let kind: &'static str = match kind {
            "leaf" => "leaf",
            "macro" => "macro",
            "verify" => "verify",
            "verify-cert" => "verify-cert",
            _ => continue,
        };
        kinds.push(bisramgen::KindStats { kind, hits, misses });
    }
    Ok(Status {
        executed: num("serve executed:"),
        dedup_hits: num("serve dedup_hits:"),
        entries: num("cache entries:"),
        kinds,
    })
}

// ---- Output checks ---------------------------------------------------

/// Every response must be byte-equal to an in-process submit of the
/// same spec on a separate cold service. A failed `cif = 1` request or
/// defect probe counts as the known oversized-frame defect when the
/// in-process response really carries a section above the client's
/// frame limit.
fn verify_responses(cfg: &Config, logs: &[&[Req]], out: &mut Outcome) {
    // Per distinct spec: its class, the digests of its answers, and how
    // many of its requests failed.
    type Seen = (Class, Vec<u64>, usize);
    let mut by_text: HashMap<&str, Seen> = HashMap::new();
    for r in logs.iter().flat_map(|l| l.iter()) {
        if r.class == Class::Status {
            continue;
        }
        let e = by_text
            .entry(r.text.as_str())
            .or_insert((r.class, Vec::new(), 0));
        match r.digest {
            Some(d) => e.1.push(d),
            None => e.2 += 1,
        }
    }
    let work: Vec<(&str, &Seen)> = by_text.iter().map(|(k, v)| (*k, v)).collect();
    let service = Service::with_cache(Arc::new(CellCache::new()), Some(cfg.jobs));
    // (mismatches, explained window failures, unexplained failures,
    // probe outcomes)
    type Tally = (Vec<String>, usize, Vec<String>, Vec<String>);
    let tallies: Vec<Tally> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|w| {
                let work = &work;
                let service = &service;
                s.spawn(move || {
                    let mut bad = Vec::new();
                    let mut explained = 0;
                    let mut unexplained = Vec::new();
                    let mut probes = Vec::new();
                    for (text, (class, digests, failures)) in work.iter().skip(w).step_by(CLIENTS) {
                        let job = JobSpec::parse(text).expect("generated spec parses");
                        let (outcome, _) = service.submit(&job);
                        let Ok(result) = outcome.as_ref() else {
                            bad.push(format!("in-process submit failed for\n{text}"));
                            continue;
                        };
                        let want = digest(&result.sections);
                        if digests.iter().any(|d| *d != want) {
                            bad.push(format!(
                                "daemon response differs from in-process for\n{text}"
                            ));
                        }
                        let largest = result
                            .sections
                            .iter()
                            .map(|s| "section \n".len() + s.name.len() + s.content.len())
                            .max()
                            .unwrap_or(0);
                        let oversized = largest > MAX_FRAME_BYTES as usize;
                        let shape = text.lines().skip(1).collect::<Vec<_>>().join(", ");
                        match (*failures > 0, class) {
                            (true, Class::Cif) if oversized => explained += failures,
                            (true, Class::Probe) if oversized => probes.push(format!(
                                "failed, {largest}-byte section frame ({shape})"
                            )),
                            (true, _) => unexplained
                                .push(format!("{failures} failed request(s) for\n{text}")),
                            (false, Class::Probe) => {
                                probes.push(format!("answered, defect fixed ({shape})"))
                            }
                            (false, _) => {}
                        }
                    }
                    (bad, explained, unexplained, probes)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("verifier thread panicked"))
            .collect()
    });
    let mut explained = 0;
    let mut unexplained = 0;
    let mut probes = Vec::new();
    for (bad, e, u, p) in tallies {
        for b in bad {
            out.check(false, || b);
        }
        explained += e;
        unexplained += u.len();
        for msg in u {
            out.check(false, || format!("unexplained failure: {msg}"));
        }
        probes.extend(p);
    }
    out.line(format!(
        "failures: {explained} known defect (CIF section above the {MAX_FRAME_BYTES}-byte frame limit), {unexplained} other"
    ));
    probes.sort();
    for p in probes {
        out.line(format!("known defect probe (oversized CIF frame, untimed): {p}"));
    }
}

// ---- Reporting -------------------------------------------------------

fn class_ms(logs: &[Vec<Req>], class: Class) -> Vec<f64> {
    logs.iter()
        .flatten()
        .filter(|r| r.class == class)
        .map(|r| {
            if r.error.is_none() {
                ms(r.latency)
            } else {
                f64::INFINITY
            }
        })
        .collect()
}

fn tally(logs: &[Vec<Req>], out: &mut Outcome) {
    for r in logs.iter().flatten() {
        out.attempted += 1;
        if r.error.is_some() {
            out.failed += 1;
        }
    }
}

pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::new();
    let (hot, _) = hot_set();
    let mut setups = Vec::new();
    let mut daemon = None;
    for n in 0..crate::SETUPS {
        match set_up(cfg, n, &hot) {
            Ok((d, took)) => {
                setups.push(took);
                if let Some(old) = daemon.replace(d) {
                    Daemon::stop(old);
                }
            }
            Err(e) => {
                eprintln!("daemon-mix: set-up failed: {e}");
                if let Some(d) = daemon.take() {
                    d.stop();
                }
                kill_all();
                std::process::exit(1);
            }
        }
    }
    let daemon = daemon.expect("every set-up succeeded");
    if cfg.trace {
        run_traced(cfg, daemon, &hot, &mut out);
        return out;
    }
    let Window {
        logs,
        elapsed,
        rss_at_mark,
    } = run_window(cfg, &daemon, cfg.seconds);
    let st = status(&daemon);
    let peak_end = peak_rss_mb(Some(daemon.pid)).unwrap_or(f64::NAN);
    let probes = probe_defect(&daemon, cfg.seed);
    out.line(format!(
        "daemon peak RSS: {} MB after {RSS_MARK} requests per client, {peak_end:.1} MB at the end of the window",
        rss_at_mark.map_or_else(|| "not reached".to_owned(), |mb| format!("{mb:.1}"))
    ));
    let peak = rss_at_mark.unwrap_or(peak_end);
    daemon.stop();
    out.check(st.is_ok(), || {
        "daemon status after the window failed".to_owned()
    });
    tally(&logs, &mut out);
    let mut refs: Vec<&[Req]> = logs.iter().map(Vec::as_slice).collect();
    refs.push(&probes);
    verify_responses(cfg, &refs, &mut out);

    // Only answered requests count towards the rates; a failed one
    // still spends its time in the window.
    let answered = |class: Option<Class>| {
        logs.iter()
            .flatten()
            .filter(|r| r.error.is_none() && class.is_none_or(|c| r.class == c))
            .count() as f64
    };
    let hot_ms = class_ms(&logs, Class::Hot);
    let cold_ms = class_ms(&logs, Class::Cold);
    let cif = class_ms(&logs, Class::Cif);
    let req_per_s = answered(None) / elapsed;
    out.line(format!(
        "serve_req_per_s: {req_per_s:.1} req/s ({} answered of {} requests, {CLIENTS} clients, closed loop)",
        answered(None),
        logs.iter().flatten().count()
    ));
    for (name, v) in [("serve_hot_ms", &hot_ms), ("serve_cold_ms", &cold_ms)] {
        out.line(format!(
            "{name}.p50: {:.3} ms, {name}.p90: {:.3} ms (n={})",
            median(v),
            quantile(v, 0.9),
            v.len()
        ));
    }
    out.line(format!(
        "cif requests: {} ({} failed)",
        cif.len(),
        cif.iter().filter(|v| v.is_infinite()).count()
    ));
    E2e {
        setup_s: median(&setups),
        peak_rss_mb: peak,
        rate: req_per_s,
        rate2: answered(Some(Class::Cold)) / elapsed,
        light: hot_ms,
        heavy: cold_ms,
    }
    .report(&mut out);
    out
}

/// Cold and CIF specs the in-process probes replay.
const PROBE_COLD: usize = 16;
const PROBE_CIF: usize = 4;

/// The traced run: an untraced window against the daemon over half the
/// budget, then in-process probes on the window's own specs and
/// responses: parse, hot and cold submits, the pipeline stages and
/// render calls, and the framing.
///
/// `trace.overhead_frac` compares the traced stage-by-stage compiles
/// with untraced `Service::submit`s of the same specs, in the same
/// order, each side on one fresh shared cache.
fn run_traced(cfg: &Config, daemon: Daemon, hot: &[String], out: &mut Outcome) {
    let logs = run_window(cfg, &daemon, cfg.seconds / 2.0).logs;
    let st = status(&daemon);
    let probes = probe_defect(&daemon, cfg.seed);
    daemon.stop();
    out.check(st.is_ok(), || {
        "daemon status after the window failed".to_owned()
    });
    let st = st.unwrap_or_default();
    tally(&logs, out);
    let mut refs: Vec<&[Req]> = logs.iter().map(Vec::as_slice).collect();
    refs.push(&probes);
    verify_responses(cfg, &refs, out);

    let mut t = Tracer::new();
    let mut layer = PerLayer::default();
    let of_class = |class: Class, n: usize| -> Vec<&str> {
        logs.iter()
            .flatten()
            .filter(|r| r.class == class)
            .take(n)
            .map(|r| r.text.as_str())
            .collect()
    };
    let cold = of_class(Class::Cold, PROBE_COLD);
    let probed: Vec<&str> = cold
        .iter()
        .copied()
        .chain(of_class(Class::Cif, PROBE_CIF))
        .collect();
    let mut parse_us = Vec::new();
    for (i, text) in hot
        .iter()
        .map(String::as_str)
        .chain(cold.iter().copied())
        .enumerate()
    {
        let (_, took) = timed(|| t.span("serve.parse", i as u64, |_| JobSpec::parse(text)));
        parse_us.push(took.as_secs_f64() * 1e6);
    }
    layer.set("serve.parse.us", median(&parse_us));

    // In-process submits: hot = memo hits on a warmed service.
    let service = Service::with_cache(Arc::new(CellCache::new()), Some(cfg.jobs));
    let hot_jobs: Vec<JobSpec> = hot
        .iter()
        .map(|h| JobSpec::parse(h).expect("hot spec"))
        .collect();
    let mut hot_sections = Vec::new();
    for job in &hot_jobs {
        let (outcome, _) = service.submit(job);
        if let Ok(r) = outcome.as_ref() {
            hot_sections.extend(r.sections.iter().cloned());
        }
    }
    let mut hot_us = Vec::new();
    for round in 0..50 {
        for (i, job) in hot_jobs.iter().enumerate() {
            let req = (round * hot_jobs.len() + i) as u64;
            let (_, took) = timed(|| t.span("serve.submit_hot", req, |_| service.submit(job)));
            hot_us.push(took.as_secs_f64() * 1e6);
        }
    }
    layer.set("serve.submit_hot.us", median(&hot_us));

    // Each probed spec untraced through one cold service, then traced
    // stage by stage on one shared cache of its own, as the daemon's
    // cache is shared across requests. Interleaved, so drift in machine
    // speed falls on both sides alike.
    let cold_service = Service::with_cache(Arc::new(CellCache::new()), Some(cfg.jobs));
    let cache = Arc::new(CellCache::new());
    let mut submit_ms = Vec::new();
    let mut cif_bytes = Vec::new();
    let mut traced_ms = 0.0;
    let mut untraced_ms = 0.0;
    let mut compiles = 0;
    for (i, text) in probed.iter().enumerate() {
        let req = i as u64;
        let job = JobSpec::parse(text).expect("probed spec");
        let ((outcome, _), took) =
            timed(|| t.span("serve.submit_cold", req, |_| cold_service.submit(&job)));
        submit_ms.push(ms(took));
        let Ok(untraced) = outcome.as_ref() else {
            out.check(false, || format!("in-process submit failed for\n{text}"));
            continue;
        };
        let (JobSpec::Compile(job) | JobSpec::Characterize(job)) = job else {
            continue;
        };
        let artifacts = text.starts_with("job = compile");
        let flat_cif = layers::has_flat_cif(&untraced.sections);
        let (traced, traced_took) = timed(|| {
            t.span("point", req, |t| {
                layers::traced_compile(t, req, &job, &cache, cfg.jobs, artifacts, flat_cif)
            })
        });
        traced_ms += ms(traced_took);
        untraced_ms += ms(took);
        compiles += 1;
        match traced {
            Ok(traced) => {
                if let Err(e) = layers::same_sections(&traced.sections, &untraced.sections) {
                    out.check(false, || format!("traced vs untraced: {e}\n{text}"));
                }
                cif_bytes.extend(
                    traced
                        .sections
                        .iter()
                        .filter(|s| s.name == "layout.cif")
                        .map(|s| s.content.len() as f64),
                );
            }
            Err(e) => out.check(false, || format!("traced compile failed: {e}\n{text}")),
        }
    }
    layer.set("serve.submit_cold.ms", median(&submit_ms[..cold.len()]));
    layers::set_compile_metrics(&mut layer, &t, compiles as f64, &cif_bytes);

    // Framing of the workload's real response sections, in memory.
    layer.set("wire.frame_mb_per_s", frame_rate(&mut t, &hot_sections));
    let ok: Vec<&Req> = logs
        .iter()
        .flatten()
        .filter(|r| r.error.is_none())
        .collect();
    layer.set(
        "wire.bytes_per_req",
        ratio(
            ok.iter().map(|r| r.wire_bytes as f64).sum(),
            ok.len() as f64,
        ),
    );
    let hot_rtt_us = median(&class_ms(&logs, Class::Hot)) * 1e3;
    layer.set("wire.transport_hot.us", hot_rtt_us - median(&hot_us));

    layer.set("serve.executed", st.executed);
    layer.set("serve.dedup_hits", st.dedup_hits);
    layer.set(
        "serve.memo_hit_ratio",
        ratio(st.dedup_hits, st.executed + st.dedup_hits),
    );
    layer.set("cache.entries", st.entries);
    layers::set_cache_ratios(&mut layer, &st.kinds);
    let overhead = traced_ms / untraced_ms - 1.0;
    layer.set("trace.overhead_frac", overhead);
    out.line(format!(
        "untraced submit total: {untraced_ms:.1} ms; traced stage-by-stage: {traced_ms:.1} ms over the same {compiles} specs (overhead {:+.2}%)",
        overhead * 100.0
    ));
    crate::print_layers(out, &t, untraced_ms);
    crate::write_spans(cfg, &t);
    out.metrics = layer.into_metrics();
}

/// Bytes a response occupies on the wire: the request frame, one frame
/// per section, and the `done` terminator.
fn wire_bytes(request: &str, sections: &[Section]) -> usize {
    let framed: usize = sections
        .iter()
        .map(|s| "section \n".len() + s.name.len() + s.content.len() + FRAME_OVERHEAD)
        .sum();
    let done = format!("done sections={} dedup=0\n", sections.len()).len() + FRAME_OVERHEAD;
    request.len() + FRAME_OVERHEAD + framed + done
}

/// Frames the sections through `write_frame`/`read_frame` on in-memory
/// buffers until 64 MiB have passed; returns MB/s.
fn frame_rate(t: &mut Tracer, sections: &[Section]) -> f64 {
    let payloads: Vec<Vec<u8>> = sections
        .iter()
        .map(|s| {
            RespFrame::Section {
                name: s.name.clone(),
                content: s.content.clone(),
            }
            .encode()
        })
        .collect();
    let mut buf = Vec::new();
    let mut framed = 0usize;
    let start = Instant::now();
    t.span("wire.frames", 0, |_| {
        while framed < 64 << 20 && !payloads.is_empty() {
            for p in &payloads {
                buf.clear();
                write_frame(&mut buf, p).expect("in-memory write");
                let back = read_frame(&mut buf.as_slice(), MAX_FRAME_BYTES)
                    .expect("in-memory read")
                    .expect("one frame");
                assert_eq!(back.len(), p.len(), "frame round trip");
                framed += p.len() + FRAME_OVERHEAD;
            }
        }
    });
    framed as f64 / (1u64 << 20) as f64 / start.elapsed().as_secs_f64()
}
