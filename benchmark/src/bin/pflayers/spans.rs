//! Wall-clock spans recorded from the benchmark's side of each layer
//! boundary: name, start, end, the span that caused it, and the trial
//! they all belong to. Kept in a preallocated vector and written out
//! when the run ends; nothing inside the program is instrumented.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// Index of the enclosing span, `u32::MAX` for a trial's root.
    pub parent: u32,
    pub trial: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per span name within one trial: total duration, total self time
/// (duration minus direct children), and how many spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct NameTotals {
    pub duration_ns: u64,
    pub self_ns: u64,
    pub count: u64,
}

pub type TrialTotals = BTreeMap<&'static str, NameTotals>;

/// The trace file keeps the individual spans of the first trials, up to
/// this many spans (and always the first trial); every trial is folded
/// into its [`TrialTotals`]. A warm trial is ~5 000 spans, so keeping all
/// of a 400-trial run would be a 150 MB file.
pub const KEPT_SPANS: usize = 64 * 1024;

pub struct Recorder {
    epoch: Instant,
    /// Spans of the trial being recorded; reused, so its allocation is
    /// made once, before anything is timed.
    spans: Vec<Span>,
    open: Vec<u32>,
    trial: u32,
    kept: Vec<Span>,
    totals: Vec<TrialTotals>,
}

impl Recorder {
    /// `spans_per_trial` are allocated up front so recording does not
    /// reallocate inside a measured trial (it still may, harmlessly, if a
    /// trial outgrows the estimate once).
    pub fn new(spans_per_trial: usize) -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::with_capacity(spans_per_trial),
            open: Vec::with_capacity(8),
            trial: 0,
            kept: Vec::with_capacity(KEPT_SPANS),
            totals: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span inside the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        let index = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied().unwrap_or(u32::MAX),
            trial: self.trial,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(index);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let end_ns = self.now_ns();
        let index = self.open.pop().expect("exit without enter");
        self.spans[index as usize].end_ns = end_ns;
    }

    /// A span around one call.
    pub fn leaf<T>(&mut self, name: &'static str, call: impl FnOnce() -> T) -> T {
        self.enter(name);
        let result = call();
        self.exit();
        result
    }

    /// Folds the spans recorded since the last call into one trial's
    /// totals (outside any measured interval) and starts the next trial.
    pub fn end_trial(&mut self) {
        assert!(
            self.open.is_empty(),
            "a span is still open at the end of a trial"
        );
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if span.parent != u32::MAX {
                let parent = &mut own[span.parent as usize];
                *parent = parent.saturating_sub(span.duration_ns());
            }
        }
        let mut totals = TrialTotals::new();
        for (span, self_ns) in self.spans.iter().zip(own) {
            let entry = totals.entry(span.name).or_default();
            entry.duration_ns += span.duration_ns();
            entry.self_ns += self_ns;
            entry.count += 1;
        }
        self.totals.push(totals);
        if self.kept.is_empty() || self.kept.len() + self.spans.len() <= KEPT_SPANS {
            // Parent indices are per trial; rebase them onto the file.
            let base = self.kept.len() as u32;
            self.kept.extend(self.spans.iter().map(|span| Span {
                parent: if span.parent == u32::MAX {
                    u32::MAX
                } else {
                    span.parent + base
                },
                ..*span
            }));
        }
        self.spans.clear();
        self.trial += 1;
    }

    /// One entry per finished trial.
    pub fn totals(&self) -> &[TrialTotals] {
        &self.totals
    }

    /// The kept trials, one JSON object per line: trial, index, parent
    /// (-1 for a root), name, start and end in nanoseconds.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (index, span) in self.kept.iter().enumerate() {
            let parent = if span.parent == u32::MAX {
                -1
            } else {
                i64::from(span.parent)
            };
            writeln!(
                out,
                "{{\"t\":{},\"i\":{index},\"p\":{parent},\"n\":\"{}\",\"s\":{},\"e\":{}}}",
                span.trial, span.name, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let mut rec = Recorder::new(8);
        rec.enter("root");
        rec.leaf("a", || std::thread::sleep(Duration::from_millis(2)));
        rec.enter("b");
        rec.leaf("a", || std::thread::sleep(Duration::from_millis(1)));
        rec.exit();
        rec.exit();
        rec.end_trial();
        let totals = &rec.totals()[0];
        let (root, a, b) = (totals["root"], totals["a"], totals["b"]);
        assert_eq!((root.count, a.count, b.count), (1, 2, 1));
        assert_eq!(
            a.self_ns, a.duration_ns,
            "a leaf's self time is its duration"
        );
        assert!(a.duration_ns >= 3_000_000);
        assert!(b.self_ns < b.duration_ns);
        let own: u64 = totals.values().map(|t| t.self_ns).sum();
        assert_eq!(own, root.duration_ns, "self times partition the root span");
    }

    #[test]
    fn kept_trials_keep_their_parents_across_the_rebase() {
        let mut rec = Recorder::new(4);
        let trials = KEPT_SPANS / 2 + 3;
        for _ in 0..trials {
            rec.enter("root");
            rec.leaf("child", || ());
            rec.exit();
            rec.end_trial();
        }
        assert_eq!(rec.totals().len(), trials);
        assert_eq!(rec.kept.len(), KEPT_SPANS);
        for pair in rec.kept.chunks(2) {
            assert_eq!(pair[0].parent, u32::MAX);
            assert_eq!(rec.kept[pair[1].parent as usize].start_ns, pair[0].start_ns);
            assert_eq!(pair[0].trial, pair[1].trial);
        }
    }
}
