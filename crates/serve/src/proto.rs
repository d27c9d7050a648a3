//! The request/response vocabulary carried inside [`crate::frame`]
//! frames, serialized as JSON via the workspace serde shim.
//!
//! Every frame payload is exactly one serialized [`Request`] (client →
//! daemon) or [`Response`] (daemon → client). Streams are just repeated
//! `Event` responses on one connection, terminated by a `done` or
//! `failed` event — there is no out-of-band state, which is what makes
//! reattach trivial: a client that reconnects replays the journal from
//! its last acked sequence number and the bytes are the same.

use pfault_platform::plan::PlanSpec;
use serde::{Deserialize, Serialize};

use crate::frame::FrameError;

/// How a job's trial workload is shaped. The spec is the *complete*
/// description of the work — the daemon derives everything (trial
/// configuration, campaign seed streams, checkpoint cadence) from it,
/// so the same spec resumed after a crash reproduces the same bytes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// What to run: `campaign` (the durable, checkpointed path) or any
    /// registry experiment name (deterministic, rerun-from-spec on
    /// daemon restart).
    pub exp: String,
    /// Geometry/workload profile: `tiny` (the test-suite device) or
    /// `paper` (the paper-default device).
    pub profile: String,
    /// Campaign seed.
    pub seed: u64,
    /// Fault injections (campaign jobs).
    pub trials: u64,
    /// Requests per trial (campaign jobs).
    pub requests_per_trial: u64,
    /// Warm-up requests cloned from the daemon's snapshot cache (0 =
    /// cold device per trial).
    pub warmup: u64,
    /// Collect probe telemetry so `metrics` serves a live aggregate.
    pub obs: bool,
    /// Trials between durable checkpoints (0 = daemon default).
    pub checkpoint_every: u64,
    /// How the campaign is sized, passed to [`CampaignBuilder::plan`].
    /// An adaptive spec runs the job under the planner — rounds extend
    /// or stop the run by interval convergence, planner state
    /// checkpoints and resumes with the report, and `status` rows carry
    /// the convergence line. `fixed:N` runs N trials with a plan-less
    /// report, like `None`, which runs the classic fixed-`trials` loop.
    /// Splitting specs are rejected at submit time: whole campaigns
    /// expose only pass/fail bits, not severities.
    ///
    /// [`CampaignBuilder::plan`]: pfault_platform::campaign::CampaignBuilder::plan
    pub plan: Option<PlanSpec>,
}

impl JobSpec {
    /// A small, fast campaign spec — the smoke-test default.
    pub fn tiny_campaign(seed: u64) -> JobSpec {
        JobSpec {
            exp: "campaign".to_string(),
            profile: "tiny".to_string(),
            seed,
            trials: 12,
            requests_per_trial: 20,
            warmup: 8,
            obs: true,
            checkpoint_every: 2,
            plan: None,
        }
    }

    /// [`JobSpec::tiny_campaign`] sized by a loose adaptive confidence
    /// plan instead of a fixed trial count — converges in a handful of
    /// trials, which keeps planner smoke tests fast while still
    /// exercising round extension, convergence stopping, and planned
    /// checkpoint/resume.
    pub fn tiny_adaptive(seed: u64) -> JobSpec {
        let mut spec = JobSpec::tiny_campaign(seed);
        spec.plan = Some(PlanSpec::Confidence {
            half_width: 0.45,
            confidence: 0.9,
            exact: false,
            min_trials: 9,
            max_trials: 24,
            round: 3,
        });
        spec
    }
}

/// One durable result-journal record, also the streamed result unit.
/// `seq` is dense per job starting at 0; a client acks by remembering
/// the last `seq` it processed and reattaches with `from_seq = acked +
/// 1`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobEvent {
    /// Job the event belongs to.
    pub job: u64,
    /// Dense per-job sequence number (0-based).
    pub seq: u64,
    /// `progress`, `done`, or `failed`.
    pub kind: String,
    /// Trials absorbed when the event was journaled.
    pub completed: u64,
    /// Total trials the job will run.
    pub trials: u64,
    /// FNV-64 of the serialized report at this point (0 for `failed`).
    pub digest: u64,
    /// Full report JSON on `done`, the error text on `failed`, empty
    /// for `progress`.
    pub body: String,
}

/// A row of the live `status` listing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobInfo {
    /// Job id.
    pub job: u64,
    /// `queued`, `running`, `paused`, `done`, or `failed`.
    pub state: String,
    /// Trials absorbed so far.
    pub completed: u64,
    /// Total trials.
    pub trials: u64,
    /// Result-journal records written so far.
    pub events: u64,
    /// 1 if this job's last run cloned its warm image from the daemon's
    /// snapshot cache, else 0.
    pub cache_hits: u64,
    /// 1 if this job's last run had to build its warm image, else 0.
    pub cache_misses: u64,
    /// Planner convergence line (round, n, p̂, interval) for jobs
    /// running under an adaptive plan; empty for classic fixed jobs.
    pub convergence: String,
}

/// Client → daemon messages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Submit a job for execution. Answered by `Accepted`, `Busy`, or
    /// `Rejected`.
    Submit {
        /// The job to run.
        spec: JobSpec,
    },
    /// Stream the result journal of `job`, starting at `from_seq`,
    /// then follow it live until the job ends. Heartbeats fill idle
    /// gaps so the client's read deadline never fires spuriously.
    Attach {
        /// Job id from `Accepted`.
        job: u64,
        /// First sequence number wanted (last acked + 1).
        from_seq: u64,
    },
    /// List every job the daemon knows (spool-wide, including finished
    /// ones).
    Status,
    /// A mid-run snapshot of the job's observability aggregate as
    /// metrics JSONL.
    Metrics {
        /// Job id.
        job: u64,
    },
    /// Graceful drain: stop accepting work, checkpoint in-flight jobs,
    /// then exit with the socket closing last.
    Shutdown,
}

/// Daemon → client messages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// `Ping` reply.
    Pong,
    /// The job is durably spooled and queued.
    Accepted {
        /// Assigned job id (use for `Attach`/`Metrics`).
        job: u64,
    },
    /// Explicit backpressure: the bounded job queue is full. The spec
    /// was *not* spooled; retry with backoff.
    Busy {
        /// Jobs currently queued.
        queued: u64,
        /// Queue capacity.
        capacity: u64,
    },
    /// The daemon cannot take the job (draining, or the spec is
    /// invalid).
    Rejected {
        /// Human-readable reason.
        reason: String,
    },
    /// `Status` reply.
    JobList {
        /// One row per known job, ordered by id.
        jobs: Vec<JobInfo>,
    },
    /// `Metrics` reply: the job's current [`ObsAggregate`] rendered as
    /// metrics JSONL (empty until an obs-enabled trial lands).
    ///
    /// [`ObsAggregate`]: pfault_platform::ObsAggregate
    MetricsSnapshot {
        /// Job id.
        job: u64,
        /// `pfault_obs::render_metrics_jsonl` output.
        jsonl: String,
    },
    /// One streamed result-journal record.
    Event {
        /// The record.
        event: JobEvent,
    },
    /// Idle keepalive inside an `Attach` stream.
    Heartbeat,
    /// The daemon acknowledged `Shutdown` (or is refusing a stream
    /// because it is draining).
    ShuttingDown,
    /// Protocol-level failure (unknown job, malformed request, …). The
    /// connection stays usable unless the transport itself broke.
    Error {
        /// Human-readable reason.
        reason: String,
    },
}

/// Serializes a message and wraps it in a frame.
pub fn encode_message<T: Serialize>(msg: &T) -> Result<Vec<u8>, FrameError> {
    let json = serde_json::to_string(msg)
        .map_err(|e| FrameError::Io(std::io::Error::other(e.to_string())))?;
    Ok(crate::frame::encode_frame(json.as_bytes()))
}

/// Parses a frame payload as a message, mapping malformed JSON to a
/// clean error value.
pub fn decode_message<T: Deserialize>(payload: &[u8]) -> Result<T, String> {
    let text = std::str::from_utf8(payload).map_err(|e| format!("payload is not UTF-8: {e}"))?;
    serde_json::from_str(text).map_err(|e| format!("malformed message: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_roundtrip_through_json() {
        let reqs = vec![
            Request::Ping,
            Request::Submit {
                spec: JobSpec::tiny_campaign(7),
            },
            Request::Submit {
                spec: JobSpec::tiny_adaptive(7),
            },
            Request::Attach { job: 3, from_seq: 9 },
            Request::Status,
            Request::Metrics { job: 3 },
            Request::Shutdown,
        ];
        for r in reqs {
            let json = serde_json::to_string(&r).unwrap();
            let back: Request = serde_json::from_str(&json).unwrap();
            assert_eq!(back, r, "json was {json}");
        }
    }

    #[test]
    fn responses_roundtrip_through_json() {
        let resps = vec![
            Response::Pong,
            Response::Accepted { job: 1 },
            Response::Busy {
                queued: 4,
                capacity: 4,
            },
            Response::Rejected {
                reason: "draining".to_string(),
            },
            Response::JobList {
                jobs: vec![JobInfo {
                    job: 1,
                    state: "running".to_string(),
                    completed: 3,
                    trials: 12,
                    events: 1,
                    cache_hits: 2,
                    cache_misses: 1,
                    convergence: "round 3 n=9 done".to_string(),
                }],
            },
            Response::MetricsSnapshot {
                job: 1,
                jsonl: "{\"type\":\"counter\"}\n".to_string(),
            },
            Response::Event {
                event: JobEvent {
                    job: 1,
                    seq: 0,
                    kind: "progress".to_string(),
                    completed: 2,
                    trials: 12,
                    digest: 0xdead_beef,
                    body: String::new(),
                },
            },
            Response::Heartbeat,
            Response::ShuttingDown,
            Response::Error {
                reason: "unknown job".to_string(),
            },
        ];
        for r in resps {
            let json = serde_json::to_string(&r).unwrap();
            let back: Response = serde_json::from_str(&json).unwrap();
            assert_eq!(back, r, "json was {json}");
        }
    }

    #[test]
    fn framed_message_roundtrip() {
        let frame = encode_message(&Request::Ping).unwrap();
        let (payload, _) = crate::frame::decode_frame(&frame).unwrap();
        let back: Request = decode_message(&payload).unwrap();
        assert_eq!(back, Request::Ping);
    }

    #[test]
    fn garbage_payload_is_a_clean_error() {
        assert!(decode_message::<Request>(b"not json").is_err());
        assert!(decode_message::<Request>(&[0xff, 0xfe]).is_err());
        assert!(decode_message::<Request>(b"{\"Nope\":1}").is_err());
    }
}
