//! `pfbench compare OLD.json NEW.json`: one row per workload and
//! end-to-end metric, judged against the benchmark's own bounds.

use std::fmt::Write as _;

use crate::json::Value;
use crate::metrics::{judged, Better, FAILED_SHARE};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    WithinBound,
    Worse,
    /// The change exceeds the bound, but so does the spread between the
    /// runs of one file: the two files cannot tell.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within-bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges one metric. `spread` is the wider of the two files' run spreads
/// (as a share, like `bound`).
pub fn classify(old: f64, new: f64, better: Better, bound: f64, spread: f64) -> Verdict {
    if !(old.is_finite() && new.is_finite()) || old <= 0.0 {
        return Verdict::Unresolved;
    }
    let worse_by = match better {
        Better::Lower => (new - old) / old,
        Better::Higher => (old - new) / old,
    };
    if worse_by.abs() <= bound {
        Verdict::WithinBound
    } else if spread > bound {
        Verdict::Unresolved
    } else if worse_by > 0.0 {
        Verdict::Worse
    } else {
        Verdict::Better
    }
}

/// The comparison as text, and whether it found a regression (a `worse`
/// row or a rise in `failed_share`).
pub fn compare(old: &Value, new: &Value) -> (String, bool) {
    let mut text = String::new();
    let mut regressed = false;
    let nproc = |doc: &Value| doc.at("machine/nproc").and_then(Value::as_u64);
    let same_machine = nproc(old).is_some() && nproc(old) == nproc(new);
    let _ = writeln!(
        text,
        "old: rev {} nproc {:?}   new: rev {} nproc {:?}",
        old.at("machine/git_rev")
            .and_then(Value::as_str)
            .unwrap_or("?"),
        nproc(old),
        new.at("machine/git_rev")
            .and_then(Value::as_str)
            .unwrap_or("?"),
        nproc(new),
    );
    if !same_machine {
        let _ = writeln!(text, "core counts differ: every row is unresolved");
    }
    let _ = writeln!(
        text,
        "{:<14} {:<30} {:>12} {:>12} {:>8} {:>7}  verdict",
        "workload", "metric", "old", "new", "new/old", "bound"
    );
    for (workload, old_w) in old.get("workloads").map_or(&[][..], Value::fields) {
        let Some(new_w) = new.at(&format!("workloads/{workload}")) else {
            let _ = writeln!(text, "{workload:<14} missing from the new file");
            regressed = true;
            continue;
        };
        let value = |w: &Value, metric: &str| {
            w.at(&format!("metrics/{metric}/value"))
                .and_then(Value::as_f64)
                .unwrap_or(f64::NAN)
        };
        let spread = |w: &Value, metric: &str| {
            w.at(&format!("run_spread_pct/{metric}"))
                .and_then(Value::as_f64)
                .unwrap_or(0.0)
                / 100.0
        };
        for metric in judged() {
            let (a, b) = (value(old_w, metric.name), value(new_w, metric.name));
            let bound = metric.bound;
            let verdict = if same_machine {
                let widest = spread(old_w, metric.name).max(spread(new_w, metric.name));
                classify(a, b, metric.better, bound, widest)
            } else {
                Verdict::Unresolved
            };
            regressed |= verdict == Verdict::Worse;
            let _ = writeln!(
                text,
                "{workload:<14} {:<30} {a:>12.4} {b:>12.4} {:>8.3} {:>6.0}%  {} ({})",
                metric.name,
                b / a,
                bound * 100.0,
                verdict.name(),
                metric.unit,
            );
        }
        let (a, b) = (value(old_w, FAILED_SHARE), value(new_w, FAILED_SHARE));
        // A share that cannot be read counts as a rise.
        let rose = b > a || b.is_nan();
        regressed |= rose;
        let _ = writeln!(
            text,
            "{workload:<14} {FAILED_SHARE:<30} {a:>12.4} {b:>12.4} {:>8} {:>7}  {}",
            "",
            "rise",
            if rose { "worse" } else { "within-bound" }
        );
        // Same seed, different digest: the simulation itself changed.
        let changed: Vec<&str> = old_w
            .get("sim_digest")
            .map_or(&[][..], Value::fields)
            .iter()
            .filter(|(seed, digest)| {
                new_w
                    .at(&format!("sim_digest/{seed}"))
                    .is_some_and(|other| other != digest)
            })
            .map(|(seed, _)| seed.as_str())
            .collect();
        if !changed.is_empty() || old_w.get("info") != new_w.get("info") {
            let _ = writeln!(
                text,
                "{workload:<14} simulated statistics changed (seeds {}): info {} -> {}",
                changed.join(","),
                old_w.get("info").map_or_else(String::new, Value::compact),
                new_w.get("info").map_or_else(String::new, Value::compact),
            );
        }
    }
    let _ = writeln!(
        text,
        "{}",
        if regressed {
            "REGRESSION: at least one row is worse"
        } else {
            "no row is worse"
        }
    );
    (text, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn classification_by_direction_bound_and_spread() {
        use Better::{Higher, Lower};
        assert_eq!(
            classify(100.0, 104.0, Higher, 0.07, 0.01),
            Verdict::WithinBound
        );
        assert_eq!(
            classify(100.0, 95.0, Higher, 0.07, 0.01),
            Verdict::WithinBound
        );
        assert_eq!(classify(100.0, 90.0, Higher, 0.07, 0.01), Verdict::Worse);
        assert_eq!(classify(100.0, 110.0, Higher, 0.07, 0.01), Verdict::Better);
        assert_eq!(classify(100.0, 110.0, Lower, 0.07, 0.01), Verdict::Worse);
        assert_eq!(classify(100.0, 90.0, Lower, 0.07, 0.01), Verdict::Better);
        assert_eq!(
            classify(100.0, 80.0, Higher, 0.07, 0.09),
            Verdict::Unresolved
        );
        assert_eq!(
            classify(100.0, 120.0, Higher, 0.07, 0.09),
            Verdict::Unresolved
        );
        assert_eq!(
            classify(f64::NAN, 1.0, Lower, 0.1, 0.0),
            Verdict::Unresolved
        );
        assert_eq!(classify(0.0, 1.0, Lower, 0.1, 0.0), Verdict::Unresolved);
    }

    fn file(nproc: u64, rate: f64, failed_share: f64, digest: &str) -> Value {
        let metrics: String = judged()
            .map(|m| {
                let v = if m.name == "trials_per_s" { rate } else { 10.0 };
                format!(r#""{}":{{"value":{v},"unit":"{}"}},"#, m.name, m.unit)
            })
            .collect();
        parse(&format!(
            r#"{{"machine":{{"nproc":{nproc},"git_rev":"abc"}},"workloads":{{"kv_grid":{{
                "metrics":{{{metrics}"failed_share":{{"value":{failed_share},"unit":"ratio"}}}},
                "run_spread_pct":{{"trials_per_s":1.5}},
                "sim_digest":{{"7":"{digest}"}},"info":{{}}}}}}}}"#
        ))
        .expect("valid")
    }

    #[test]
    fn equal_files_do_not_regress() {
        let (text, regressed) = compare(&file(2, 100.0, 0.0, "aa"), &file(2, 101.0, 0.0, "aa"));
        assert!(!regressed, "{text}");
        assert!(!text.contains("simulated statistics changed"));
        assert_eq!(text.matches("within-bound").count(), 9, "{text}");
    }

    #[test]
    fn a_slower_run_or_a_new_failure_regresses() {
        let (text, regressed) = compare(&file(2, 100.0, 0.0, "aa"), &file(2, 60.0, 0.0, "aa"));
        assert!(regressed && text.contains("worse"), "{text}");
        let (text, regressed) = compare(&file(2, 100.0, 0.0, "aa"), &file(2, 100.0, 0.01, "aa"));
        assert!(regressed, "{text}");
    }

    #[test]
    fn digest_changes_are_printed_but_do_not_fail() {
        let (text, regressed) = compare(&file(2, 100.0, 0.0, "aa"), &file(2, 100.0, 0.0, "bb"));
        assert!(!regressed);
        assert!(
            text.contains("simulated statistics changed (seeds 7)"),
            "{text}"
        );
    }

    #[test]
    fn different_core_counts_resolve_nothing() {
        let (text, regressed) = compare(&file(2, 100.0, 0.0, "aa"), &file(4, 50.0, 0.0, "aa"));
        assert!(!regressed);
        assert_eq!(text.matches("unresolved").count(), 9, "{text}");
    }
}
