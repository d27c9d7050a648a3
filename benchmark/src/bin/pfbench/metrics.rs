//! The metric tables, and how a workload's outcome becomes numbers.
//! `BENCHMARK.json` lists the same names, units, directions and bounds (a
//! test compares them).

use crate::json::Value;
use crate::stats;
use crate::workloads::{Job, Outcome};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// An end-to-end metric: what a user of the CLI or the daemon sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline's median by which the metric may worsen
    /// before `compare` (and the acceptance driver) call it a regression.
    /// Every time-based metric has the widest bound the driver admits:
    /// on the shared two-core box this was written on, ten runs of one
    /// workload spread by 5–15 % in a quiet minute and 30 % in a busy one
    /// (see the README's repeatability section).
    pub bound: f64,
}

/// Every workload reports every one of these. A job is one request
/// through the user-facing surface (a CLI invocation, or a daemon job
/// from `servectl submit` to its terminal event); its first event is the
/// first stdout line (CLI) or the first streamed event (daemon).
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "trials_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "jobs_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "submit_to_first_event_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "submit_to_done_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// Tail latencies: in every result file and every `compare`, but not in
/// `BENCHMARK.json`. A CLI workload times five jobs in ten seconds, so its
/// tail is the slowest of five — on a shared two-core box that repeats
/// within ~30 %, wider than any bound the acceptance driver admits.
pub const TAILS: [EndToEnd; 2] = [
    EndToEnd {
        name: "submit_to_first_event_ms_p90",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "submit_to_done_ms_p90",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// Failed over attempted; any rise is a regression. Not in
/// `BENCHMARK.json` either (it is 0 on a healthy tree, and the driver
/// reads `attempted`/`failed` from the result line instead).
pub const FAILED_SHARE: &str = "failed_share";

/// The metrics `compare` judges by bound: the table, then the tails.
pub fn judged() -> impl Iterator<Item = &'static EndToEnd> {
    END_TO_END.iter().chain(&TAILS)
}

/// Attempted and failed units of one outcome: trials plus jobs, set-up
/// included. A failed output check fails the trials it vouches for.
pub fn tally(out: &Outcome) -> (u64, u64) {
    let all = || out.jobs.iter().chain(&out.setup_jobs);
    let attempted: u64 = all().map(|j| j.trials + 1).sum();
    let failed: u64 = all()
        .map(|j| j.failed_trials + u64::from(!j.ok))
        .chain(
            out.checks
                .iter()
                .filter(|c| !c.ok)
                .map(|c| c.covers_trials.max(1)),
        )
        .sum();
    if out.unavailable.is_some() {
        return (attempted.max(1), attempted.max(1));
    }
    (attempted.max(1), failed.min(attempted.max(1)))
}

/// Whether the run should exit 0: outputs correct and nothing attempted
/// failed.
pub fn passes(out: &Outcome) -> bool {
    correct(out) && tally(out).1 == 0
}

/// Outputs are correct when the workload ran, every job produced a
/// result, and every output check held.
pub fn correct(out: &Outcome) -> bool {
    out.unavailable.is_none()
        && !out.jobs.is_empty()
        && out.jobs.iter().chain(&out.setup_jobs).all(|j| j.ok)
        && out.checks.iter().all(|c| c.ok)
}

fn column(jobs: &[&Job], f: impl Fn(&Job) -> f64) -> Vec<f64> {
    jobs.iter().map(|j| f(j)).collect()
}

/// The end-to-end metrics of one outcome: the table, the tails, then
/// `failed_share`. Each comes with the spread (interquartile range over
/// median, in percent) of the samples behind it, where there are any.
pub fn end_to_end(out: &Outcome) -> Vec<(&'static str, &'static str, f64, Option<f64>)> {
    let ok: Vec<&Job> = out.jobs.iter().filter(|j| j.ok).collect();
    let rate = column(&ok, |j| j.trials as f64 / (j.done_ms / 1e3));
    let first = column(&ok, |j| j.first_ms);
    let done = column(&ok, |j| j.done_ms);
    let rss = column(&ok, |j| j.max_rss_kib as f64);
    let (attempted, failed) = tally(out);
    let pct = |samples: &[f64]| stats::spread(samples).map(|s| s * 100.0);
    let values = [
        (stats::median(&out.setup_s), pct(&out.setup_s)),
        (stats::median(&rate), pct(&rate)),
        (ok.len() as f64 / out.span_s, pct(&done)),
        (out.peak_rss_kib as f64 / 1024.0, pct(&rss)),
        (stats::median(&first), pct(&first)),
        (stats::median(&done), pct(&done)),
        (stats::tail(&first), pct(&first)),
        (stats::tail(&done), pct(&done)),
    ];
    judged()
        .zip(values)
        .map(|(m, (value, spread))| (m.name, m.unit, value, spread))
        .chain([(
            FAILED_SHARE,
            "ratio",
            failed as f64 / attempted as f64,
            None,
        )])
        .collect()
}

fn metric_value(value: f64, unit: &str) -> Value {
    Value::obj(vec![
        ("value", Value::num(value)),
        ("unit", Value::str(unit)),
    ])
}

/// `{"name": {"value": v, "unit": u}, …}` — the shape of the result line.
pub fn metrics_object(metrics: impl IntoIterator<Item = (String, f64, String)>) -> Value {
    Value::Obj(
        metrics
            .into_iter()
            .map(|(name, value, unit)| (name, metric_value(value, &unit)))
            .collect(),
    )
}

/// One workload's entry in a result file: metrics, raw samples, checks.
pub fn outcome_json(out: &Outcome) -> Value {
    let (attempted, failed) = tally(out);
    let metrics = end_to_end(out);
    let jobs_of = |f: &dyn Fn(&Job) -> Value| Value::Arr(out.jobs.iter().map(f).collect());
    let digests = out
        .jobs
        .iter()
        .filter(|j| j.ok)
        .map(|j| (j.seed.to_string(), Value::str(j.digest.clone())))
        .collect();
    let errors: Vec<Value> = out
        .jobs
        .iter()
        .chain(&out.setup_jobs)
        .filter(|j| !j.ok)
        .map(|j| Value::str(format!("seed {}: {}", j.seed, j.error)))
        .collect();
    Value::obj(vec![
        (
            "status",
            Value::str(if out.unavailable.is_some() {
                "unavailable"
            } else {
                "ok"
            }),
        ),
        (
            "reason",
            out.unavailable.clone().map_or(Value::Null, Value::str),
        ),
        ("threads", Value::int(out.threads as u64)),
        ("command", Value::str(out.command.join(" "))),
        ("correct", Value::Bool(correct(out))),
        ("attempted", Value::int(attempted)),
        ("failed", Value::int(failed)),
        (
            "metrics",
            metrics_object(
                metrics
                    .iter()
                    .map(|(name, unit, value, _)| (name.to_string(), *value, unit.to_string())),
            ),
        ),
        (
            "run_spread_pct",
            Value::Obj(
                metrics
                    .iter()
                    .filter_map(|(name, _, _, spread)| {
                        Some((name.to_string(), Value::num((*spread)?)))
                    })
                    .collect(),
            ),
        ),
        (
            "tail_percentile",
            stats::tail_percentile(out.jobs.iter().filter(|j| j.ok).count())
                .map_or(Value::str("max"), |p| Value::int(u64::from(p))),
        ),
        (
            "samples",
            Value::obj(vec![
                ("setup_s", Value::nums(&out.setup_s)),
                ("span_s", Value::num(out.span_s)),
                ("seed", jobs_of(&|j| Value::int(j.seed))),
                ("trials", jobs_of(&|j| Value::int(j.trials))),
                ("first_event_ms", jobs_of(&|j| Value::num(j.first_ms))),
                ("done_ms", jobs_of(&|j| Value::num(j.done_ms))),
                ("cpu_ms", jobs_of(&|j| Value::num(j.cpu_ms))),
                ("max_rss_kib", jobs_of(&|j| Value::int(j.max_rss_kib))),
            ]),
        ),
        ("sim_digest", Value::Obj(digests)),
        ("info", Value::Obj(out.info.clone())),
        (
            "checks",
            Value::Arr(
                out.checks
                    .iter()
                    .map(|c| {
                        Value::obj(vec![
                            ("name", Value::str(c.name)),
                            ("ok", Value::Bool(c.ok)),
                            ("detail", Value::str(c.detail.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("errors", Value::Arr(errors)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Check;

    fn job(ok: bool, trials: u64, failed_trials: u64, done_ms: f64) -> Job {
        Job {
            ok,
            trials,
            failed_trials,
            done_ms,
            first_ms: done_ms - 1.0,
            ..Job::default()
        }
    }

    fn healthy() -> Outcome {
        Outcome {
            name: "kv_grid".to_string(),
            setup_s: vec![0.5, 0.6, 0.7],
            setup_jobs: vec![job(true, 100, 0, 500.0)],
            jobs: vec![
                job(true, 100, 0, 500.0),
                job(true, 100, 0, 1000.0),
                job(true, 100, 0, 250.0),
            ],
            span_s: 1.75,
            peak_rss_kib: 2048,
            ..Outcome::default()
        }
    }

    #[test]
    fn a_healthy_outcome_reports_every_metric_and_no_failure() {
        let out = healthy();
        assert!(correct(&out));
        assert_eq!(tally(&out), (404, 0));
        let metrics = end_to_end(&out);
        let names: Vec<&str> = metrics.iter().map(|m| m.0).collect();
        let mut expected: Vec<&str> = judged().map(|m| m.name).collect();
        expected.push(FAILED_SHARE);
        assert_eq!(names, expected);
        let value = |name: &str| metrics.iter().find(|m| m.0 == name).expect(name).2;
        assert_eq!(value("setup_s"), 0.6);
        assert_eq!(value("trials_per_s"), 200.0);
        assert_eq!(value("jobs_per_s"), 3.0 / 1.75);
        assert_eq!(value("peak_rss_mb"), 2.0);
        assert_eq!(value("submit_to_done_ms_p50"), 500.0);
        assert_eq!(value("submit_to_done_ms_p90"), 1000.0);
        assert_eq!(value("failed_share"), 0.0);
    }

    #[test]
    fn a_child_that_exits_1_fails_all_its_trials() {
        let mut out = healthy();
        out.jobs[1] = job(false, 100, 100, 3.0);
        assert!(!correct(&out));
        assert_eq!(tally(&out), (404, 101));
        let share = end_to_end(&out).last().expect("failed_share").2;
        assert!(share > 0.24 && share < 0.26, "{share}");
    }

    #[test]
    fn differing_equality_files_fail_the_trials_they_cover() {
        let mut out = healthy();
        out.checks.push(Check {
            name: "repeat_byte_identical",
            ok: false,
            detail: String::new(),
            covers_trials: 100,
        });
        assert!(!correct(&out));
        assert_eq!(tally(&out), (404, 100));
    }

    #[test]
    fn an_unavailable_workload_fails_whole() {
        let out = Outcome {
            unavailable: Some("building pfsweep failed".to_string()),
            ..Outcome::default()
        };
        assert!(!correct(&out));
        assert_eq!(tally(&out), (1, 1));
    }
}
