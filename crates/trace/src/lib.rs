//! Block-layer IO tracing — the `blktrace`/`blkparse`/`btt` equivalent.
//!
//! The paper's failure detection rests on knowing, for every request, its
//! exact block-layer life cycle: when it was queued, whether it was
//! dispatched, and whether *all of its sub-requests* completed before the
//! power fault (§III-B). The authors modified `btt`'s `--per-io-dump` to
//! extract this; this crate implements the same pipeline natively, as the
//! blktrace/btt tool behind the `pfio` and `blkdump` binaries.
//!
//! A fault-injection trial does not trace: `pfault-platform` keeps one
//! ledger entry per request (`RequestRecord`), and its Analyzer reads the
//! `completed` flag from that ledger. A test in the platform's `record`
//! module feeds one completion stream to both and requires [`btt`] to
//! agree with the ledger on every request.
//!
//! * [`event`] — the block-layer action stream (`Q`, `X`, `D`, `C`, error),
//!   with a `blkparse`-style text rendering;
//! * [`tracer`] — [`split`], which splits large requests into sub-requests
//!   exactly as the kernel block layer does (the paper's modification
//!   targets precisely these split requests; the platform issues its
//!   sub-requests through it too), and [`tracer::BlockTracer`], which
//!   records events around that split;
//! * [`btt`] — the per-IO post-processor: reassembles sub-requests,
//!   computes per-request timing, applies the paper's 30-second timeout,
//!   and labels each request `completed` or not.
//!
//! # Example
//!
//! ```
//! use pfault_trace::tracer::BlockTracer;
//! use pfault_trace::btt;
//! use pfault_sim::{Lba, SectorCount, SimTime, SimDuration};
//!
//! let mut tracer = BlockTracer::new(SectorCount::new(128));
//! let subs = tracer.queue_request(1, Lba::new(0), SectorCount::new(256), true,
//!                                 SimTime::ZERO);
//! assert_eq!(subs.len(), 2); // split at 128 sectors
//! for s in &subs {
//!     tracer.dispatch(1, s.sub_id, SimTime::from_millis(1));
//!     tracer.complete(1, s.sub_id, SimTime::from_millis(2));
//! }
//! let report = btt::analyze(tracer.events(), SimDuration::from_secs(30),
//!                           SimTime::from_millis(10));
//! assert!(report.io(1).expect("request 1 traced").completed);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod btt;
pub mod event;
pub mod jsonl;
pub mod parse;
pub mod tracer;

pub use btt::{analyze, BttReport, BttSummary, PerIo};
pub use event::{TraceAction, TraceEvent};
pub use jsonl::{
    parse_trace_jsonl_line, render_trace_event, render_trace_events, ParseTraceJsonError,
};
pub use parse::{parse_event_line, parse_trace_text, ParseEventError};
pub use tracer::{split, BlockTracer, SubRequest};
