//! **bisram-serve** — the long-running compile service and the
//! declarative sweep orchestrator on top of it.
//!
//! The compiler itself (`bisramgen`) is a one-shot tool, but its staged
//! pipeline, content-keyed [`CellCache`](bisramgen::CellCache) and
//! `bisram-exec` executor are the makings of a server. This crate adds
//! the two missing layers:
//!
//! * **Service / daemon** ([`service`], [`daemon`], [`client`],
//!   [`proto`]): `bisramgen serve --socket <path>` runs a long-lived
//!   server over a Unix domain socket (or a localhost TCP fallback)
//!   speaking length-prefixed, checksummed frames (the shared
//!   [`bisram_wire`] framing — the same implementation the BIST scan
//!   link uses). Requests are typed compile / verify / characterize /
//!   rare-yield / fleet jobs; the server shares one process-wide cache
//!   across every request, collapses identical in-flight parameter
//!   points into a single compile (single-flight dedup), and streams
//!   artifact sections back one frame at a time. Malformed, corrupted
//!   or oversized frames produce typed error responses with
//!   retry-classified status codes — never a panic, never a crashed
//!   daemon. The per-kind executors ([`run`]) are shared with the
//!   one-shot CLI, so a job and the equivalent `bisramgen` invocation
//!   compute and render the same bytes.
//! * **Sweep orchestrator** ([`spec`], [`sweep`]): a declarative
//!   plain-text spec describes axes over `RamParams` fields ×
//!   processes × spare counts × verify modes; the orchestrator expands
//!   the cartesian matrix, dedupes identical points, executes them
//!   through the same service layer (in-process when no daemon is
//!   running, over the socket when one is), and reduces the results to
//!   a deterministic Pareto report over area / yield / MTTF / repair
//!   cost. The report is byte-identical at any worker count and
//!   whether it ran in-process or through a daemon.

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod client;
pub mod daemon;
pub mod job;
pub mod proto;
pub mod run;
pub mod service;
pub mod spec;
pub mod sweep;

pub use client::{Client, ClientError};
pub use daemon::{Daemon, DaemonConfig, Listen};
pub use job::{process_by_name, CompileJob, FleetJob, JobSpec, RareJob, VerifyChoice};
pub use proto::RespFrame;
pub use service::{JobFailure, JobOutcome, JobResult, Section, Service};
pub use spec::{Spec, SpecError};
pub use sweep::{run_sweep, SweepBackend, SweepReport, SweepSpec};
