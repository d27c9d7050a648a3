//! `pfault-serve` — campaign-as-a-service: a crash-tolerant, std-only
//! daemon that runs fault-injection jobs for remote clients.
//!
//! The paper's methodology is thousands of repeated power-cut trials
//! per configuration; this crate lifts that workload from a batch CLI
//! into a long-running service, modelled on CHAOS's
//! controller-driven fault injector. The design treats the wire and the
//! daemon's own lifetime exactly like the platform treats flash under
//! power cuts: everything can tear at any byte, so every layer is
//! framed, checksummed, journaled, or resumable.
//!
//! * [`frame`] — length-prefixed, CRC-framed byte transport: torn or
//!   bit-flipped frames surface as clean [`frame::FrameError`]s, never
//!   panics;
//! * [`proto`] — the JSON request/response vocabulary carried inside
//!   frames;
//! * [`spool`] — the durability layer: job specs, campaign checkpoints
//!   (the platform's campaign checkpoint machinery), an append-only
//!   sequence-numbered result journal per job, and a final-report
//!   marker, all written so a killed daemon restarts and resumes every
//!   in-flight job **byte-identically**;
//! * [`daemon`] — the TCP service: bounded job queue with explicit
//!   `Busy` backpressure, per-connection read/write deadlines with idle
//!   heartbeats, per-job panic isolation (the platform campaign
//!   engine's `catch_unwind` + watchdog), snapshot-cache sharing with
//!   per-job stats attribution, and drain-then-exit shutdown;
//! * [`client`] — a blocking client with exponential backoff + jitter,
//!   used by the `repro servectl` subcommand;
//! * [`selfcheck`] — the `serve` experiment: an end-to-end
//!   submit → kill → restart → reattach check asserting byte-identical
//!   resumed reports and exactly-once event delivery.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The lint gate (`make lint-core`) denies unwrap() in library code;
// tests may unwrap freely.
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod client;
pub mod daemon;
pub mod frame;
pub mod proto;
pub mod selfcheck;
pub mod spool;

pub use client::{Client, ClientError};
pub use daemon::{Daemon, DaemonConfig};
pub use frame::{decode_frame, encode_frame, read_frame, write_frame, FrameError};
pub use proto::{JobEvent, JobInfo, JobSpec, Request, Response};
pub use selfcheck::experiment;
pub use spool::Spool;
