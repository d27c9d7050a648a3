//! Systematic fault-space exploration: the boundary sweeper.
//!
//! Random fault scheduling (the campaign engine) answers the paper's
//! statistical questions — *how often* does a drive lose data per fault —
//! but it cannot answer the engineering question *which instants are
//! dangerous*. The sweeper enumerates those instants deterministically:
//!
//! 1. **Census** — run the workload once, fault-free, with the device's
//!    fault-site recording enabled ([`pfault_ssd::FaultSite`]). Every
//!    durability-relevant operation leaves a [`pfault_ssd::SiteSpan`]
//!    `(site, occurrence, start, end)`. The device clock at the top of
//!    every op, and of every step of the background tail after the last
//!    op, is noted as a *boundary*.
//! 2. **Expand** — each span yields up to three cut instants, one per
//!    [`Phase`]: `Start` (the operation just began), `Mid` (halfway
//!    through its program window), `End` (the exact completion instant —
//!    the half-open boundary documented on
//!    [`pfault_power::FaultTimeline::brownout_window`] guarantees the
//!    operation *completes* there).
//! 3. **Sweep** — one trial per cut, run in order of the cut instant. A
//!    recording-off *ladder* device walks forward through the ops and
//!    the tail; each cut clones the ladder at the last boundary strictly
//!    before the cut (its *rung*), continues the same driver loops until
//!    the rail vanishes at the planned instant
//!    ([`pfault_power::FaultTimeline::at_instant`]), recovers, and runs
//!    the recovery-invariant [oracle](#the-oracle). Results are filed back
//!    by canonical (census × phase) index. The rung is exact: before the
//!    cut no advance target is clamped, so the device, its RNG position,
//!    the event counter and the request ids at that boundary equal those
//!    of a drive from a cold device — the argument that already makes
//!    census spans replayable. The sweep thus executes each op and tail
//!    step once on the ladder plus at most one op or step per cut,
//!    instead of every cut's whole prefix.
//! 4. **Minimize** — a ddmin-style shrinker reduces a failing workload to
//!    a minimal reproducer ([`Sweeper::minimize`]).
//!
//! # The oracle
//!
//! After `power_on_recover`, three invariants must hold:
//!
//! * **Whole-batch replay** — the recovered mapping equals an independent
//!   reference replay of the durable journal over the newest checkpoint,
//!   applying each batch *only if* its stored CRC matches its surviving
//!   entries. A torn batch must be discarded whole; a device that matches
//!   the half-applied reference instead has the classic apply-before-
//!   verify firmware bug ([`ViolationKind::TornBatchHalfApplied`]).
//! * **No phantom data** — every readable, internally-intact sector holds
//!   a content version the host actually issued for that LBA (current or
//!   stale). Intact data that was never written there means the mapping
//!   points into someone else's page.
//! * **Replay idempotence** — a second, idle power cycle immediately
//!   after recovery must rebuild the identical mapping.
//!
//! Trials that end without a verdict (bricked device, watchdog) land on
//! the same [`TrialFailures`] ledger the campaign engine uses, keyed by
//! trial index.
//!
//! Everything is deterministic: same seed + same workload ⇒ identical
//! census, identical violation list, identical minimized reproducer.

use std::collections::BTreeMap;

use pfault_flash::array::PageData;
use pfault_flash::Ppa;
use pfault_ftl::mapping::MappingTable;
use pfault_power::FaultTimeline;
use pfault_sim::{DetRng, Lba, SectorCount, SimDuration, SimTime};
use pfault_ssd::device::{HostCommand, Ssd};
use pfault_ssd::{FaultSite, SiteSpan, SsdConfig, VerifiedContent};

use crate::campaign::TrialFailures;
use crate::error::TrialError;

/// A sorted logical→physical snapshot, as the oracle compares them.
type MappedEntries = Vec<(Lba, Ppa)>;

/// Every `(logical sector, op index)` pair the workload writes, sorted:
/// per sector, the ops that issued a content version of it, in
/// submission order. Input to the no-phantom check, which reads only the
/// versions of the ops a trial submitted.
type Issued = Vec<(u64, u32)>;

/// What one trial found: the violated invariants (empty = clean), or why
/// it ended without a verdict.
type TrialResult = Result<Vec<(ViolationKind, String)>, TrialError>;

/// One host operation of an explicit sweep workload. Unlike the campaign
/// generator's stochastic stream, sweep workloads are concrete op lists so
/// the minimizer can delete entries and re-run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoOp {
    /// Write `sectors` sectors starting at `lba`, contents derived from
    /// `tag` (the device's standard tag→content scheme).
    Write {
        /// First logical sector.
        lba: u64,
        /// Number of sectors (clamped to ≥ 1).
        sectors: u64,
        /// Payload tag; each sector's content derives from it.
        tag: u64,
    },
    /// Discard the mapping of `sectors` sectors starting at `lba`.
    Trim {
        /// First logical sector.
        lba: u64,
        /// Number of sectors (clamped to ≥ 1).
        sectors: u64,
    },
    /// FLUSH barrier: blocks until everything accepted so far is durable.
    Flush,
}

/// Where inside a recorded span the cut lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// The operation just started (progress ≈ 0).
    Start,
    /// Halfway through the operation's window.
    Mid,
    /// The exact completion instant — the operation finishes (half-open
    /// boundary), so this probes "cut immediately *after*".
    End,
}

impl Phase {
    /// All phases in sweep order.
    pub const ALL: [Phase; 3] = [Phase::Start, Phase::Mid, Phase::End];

    /// Stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Start => "start",
            Phase::Mid => "mid",
            Phase::End => "end",
        }
    }
}

/// Which recovery invariant a trial violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// The recovered mapping matches a reference replay that applies torn
    /// batches *partially* — the apply-before-CRC-verify firmware bug.
    TornBatchHalfApplied,
    /// The recovered mapping matches neither the whole-batch reference nor
    /// the half-applied one.
    ReplayDiverged,
    /// A readable, internally-intact sector holds content the host never
    /// wrote to that LBA.
    PhantomData,
    /// Replaying the same durable state twice produced different mappings.
    ReplayNotIdempotent,
    /// The device did not survive an idle second power cycle right after
    /// a successful recovery.
    RecoveryFailed,
}

impl ViolationKind {
    /// Stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            ViolationKind::TornBatchHalfApplied => "torn-batch-half-applied",
            ViolationKind::ReplayDiverged => "replay-diverged",
            ViolationKind::PhantomData => "phantom-data",
            ViolationKind::ReplayNotIdempotent => "replay-not-idempotent",
            ViolationKind::RecoveryFailed => "recovery-failed",
        }
    }
}

/// One oracle violation, attributed to the cut that provoked it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The site whose span contained the cut.
    pub site: FaultSite,
    /// Which occurrence of that site (census numbering).
    pub occurrence: u64,
    /// Where inside the span the cut landed.
    pub phase: Phase,
    /// Absolute cut instant, µs of simulated time.
    pub cut_us: u64,
    /// The violated invariant.
    pub kind: ViolationKind,
    /// Human-readable specifics.
    pub detail: String,
}

/// Aggregated result of one sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepReport {
    /// Spans the census recorded.
    pub sites_censused: usize,
    /// Trials executed (≤ 3 per span; degenerate spans collapse).
    pub trials: u64,
    /// All violations, in deterministic census × phase order.
    pub violations: Vec<Violation>,
    /// Trials that ended without a verdict, on the campaign's unified
    /// failure ledger (indices are sweep trial indices).
    pub failures: TrialFailures,
}

impl SweepReport {
    /// Files the result of trial `index`, which cut at `cut`.
    fn file(&mut self, index: usize, cut: &PlannedCut, result: TrialResult) {
        match result {
            Ok(found) => self.violations.extend(
                found
                    .into_iter()
                    .map(|(kind, detail)| cut.violation(kind, detail)),
            ),
            Err(error) => self.failures.record(index as u64, &error),
        }
    }
}

/// A minimal failing reproducer found by [`Sweeper::minimize`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinimalRepro {
    /// The shrunk workload (a subsequence of the original ops).
    pub ops: Vec<IoOp>,
    /// The single fault placement that still violates the invariant.
    pub violation: Violation,
}

/// Sweep configuration: a device, a seed, and an explicit workload.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Device under test. The oracle's reference replay mirrors plain
    /// journal recovery, so [`SweepConfig::smoke`] pins
    /// [`pfault_ftl::RecoveryPolicy::JournalReplay`].
    pub ssd: SsdConfig,
    /// Seed for the device RNG; the census and every trial fork from it
    /// identically.
    pub seed: u64,
    /// The workload, as an explicit op list.
    pub ops: Vec<IoOp>,
}

impl SweepConfig {
    /// A small bounded configuration (tiny geometry, six ops) used by
    /// `make sweep-smoke` and the integration tests.
    pub fn smoke(seed: u64) -> SweepConfig {
        let mut ssd = pfault_ssd::VendorPreset::SsdA.config();
        ssd.geometry = pfault_flash::FlashGeometry::new(512, 64);
        ssd.ftl = pfault_ftl::FtlConfig::for_geometry(ssd.geometry);
        // The reference replay models journal recovery; FullScan's OOB
        // adoption would legitimately diverge from it.
        ssd.ftl.recovery_policy = pfault_ftl::RecoveryPolicy::JournalReplay;
        // The sweep's baseline is *correct* firmware: torn batches are
        // CRC-checked and discarded whole. (The workspace default is
        // `false` — the paper's drives half-apply, and the campaign
        // statistics model that — so the sweeper pins it explicitly;
        // flipping it back off is the seeded bug the sweeper must catch.)
        ssd.ftl.verify_batch_crc = true;
        SweepConfig {
            ssd,
            seed,
            ops: vec![
                IoOp::Write {
                    lba: 0,
                    sectors: 8,
                    tag: 0xA1,
                },
                IoOp::Write {
                    lba: 64,
                    sectors: 4,
                    tag: 0xB2,
                },
                IoOp::Flush,
                IoOp::Write {
                    lba: 0,
                    sectors: 8,
                    tag: 0xC3,
                },
                IoOp::Trim {
                    lba: 64,
                    sectors: 4,
                },
                IoOp::Write {
                    lba: 128,
                    sectors: 2,
                    tag: 0xD4,
                },
            ],
        }
    }
}

/// A planned cut: one sweep trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PlannedCut {
    site: FaultSite,
    occurrence: u64,
    phase: Phase,
    at: SimTime,
    /// Canonical (census × phase) trial index.
    index: u32,
}

impl PlannedCut {
    fn violation(&self, kind: ViolationKind, detail: String) -> Violation {
        Violation {
            site: self.site,
            occurrence: self.occurrence,
            phase: self.phase,
            cut_us: self.at.as_micros(),
            kind,
            detail,
        }
    }
}

/// The driver's state at a boundary: everything the op loop and the
/// tail loop carry from one op or tail step to the next. A fresh device
/// before op 0 is rung 0; a trial resumes from (a clone of) some rung
/// and runs on to its cut. Rung `r` has op `r` next, or, past the last
/// op, `r - ops` tail steps taken.
#[derive(Clone)]
struct Rung {
    ssd: Ssd,
    /// Index of the next op to submit. After a cut: how many ops the
    /// trial submitted.
    op: usize,
    /// Tail steps taken: device events advanced past after the last op.
    step: u64,
    /// Event-loop iterations so far (the watchdog's meter).
    events: u64,
    /// Request id of the next data write.
    next_id: u64,
    /// Request id of the last FLUSH barrier.
    flush_id: u64,
}

/// Boundary sweeper over one `(device, seed, workload)` triple.
#[derive(Debug, Clone)]
pub struct Sweeper {
    config: SweepConfig,
}

/// FLUSH barriers use ids far above any data op's index.
const FLUSH_ID_BASE: u64 = 1 << 40;

/// Event-loop budget per driver run; a wedged pipeline becomes
/// [`TrialError::WatchdogExpired`] instead of a hang.
const EVENT_BUDGET: u64 = 10_000_000;

impl Sweeper {
    /// Creates a sweeper.
    pub fn new(config: SweepConfig) -> Self {
        Sweeper { config }
    }

    /// The configuration.
    pub fn config(&self) -> &SweepConfig {
        &self.config
    }

    /// Runs the fault-free census and returns every recorded site span.
    pub fn census(&self) -> Result<Vec<SiteSpan>, TrialError> {
        Ok(self.survey()?.0)
    }

    /// Runs the full sweep: census, expansion, one trial per cut, oracle.
    pub fn run(&self) -> Result<SweepReport, TrialError> {
        let (spans, boundaries) = self.survey()?;
        let mut cuts = Self::expand(&spans);
        let mut report = SweepReport {
            sites_censused: spans.len(),
            trials: cuts.len() as u64,
            violations: Vec::new(),
            failures: TrialFailures::default(),
        };
        drop(spans);
        let issued = self.issued();
        // Time order; the stable sort keeps canonical order on ties.
        cuts.sort_by_key(|cut| cut.at);
        let mut ladder = self.rung_zero(false);
        // Clean trials file nothing, so only the others are kept.
        let mut unclean = BTreeMap::new();
        for cut in cuts {
            // The last boundary strictly before the cut; rung 0 (the cold
            // device) when there is none.
            let rung = boundaries
                .partition_point(|&t| t < cut.at)
                .saturating_sub(1);
            self.climb(&mut ladder, rung)?;
            let result = self.run_trial(ladder.clone(), cut.at, &issued);
            if !matches!(&result, Ok(found) if found.is_empty()) {
                unclean.insert(cut.index, (cut, result));
            }
        }
        for (index, (cut, result)) in unclean {
            report.file(index as usize, &cut, result);
        }
        Ok(report)
    }

    /// The first violation of `kind` in the sweep's canonical-order
    /// report: the minimizer's reproduction predicate.
    fn first_violation(&self, kind: ViolationKind) -> Result<Option<Violation>, TrialError> {
        Ok(self.run()?.violations.into_iter().find(|v| v.kind == kind))
    }

    /// Shrinks the workload to a minimal op subsequence that still
    /// produces a violation of `kind`, ddmin-style: chunks of halving size
    /// are deleted greedily while the reproduction predicate (a fresh
    /// sub-sweep) holds. Returns `None` when the full workload does not
    /// reproduce `kind` in the first place. Deterministic: same seed ⇒
    /// byte-identical reproducer.
    pub fn minimize(&self, kind: ViolationKind) -> Result<Option<MinimalRepro>, TrialError> {
        if self.first_violation(kind)?.is_none() {
            return Ok(None);
        }
        let reproduces = |ops: &[IoOp]| -> bool {
            let mut config = self.config.clone();
            config.ops = ops.to_vec();
            matches!(Sweeper::new(config).first_violation(kind), Ok(Some(_)))
        };
        let mut ops = self.config.ops.clone();
        let mut chunk = (ops.len() / 2).max(1);
        loop {
            let mut shrunk = false;
            let mut start = 0;
            while start < ops.len() && ops.len() > 1 {
                let mut candidate = ops.clone();
                candidate.drain(start..(start + chunk).min(candidate.len()));
                if !candidate.is_empty() && reproduces(&candidate) {
                    ops = candidate;
                    shrunk = true;
                    // keep `start`: the next chunk shifted into place
                } else {
                    start += chunk;
                }
            }
            if !shrunk {
                if chunk == 1 {
                    break;
                }
                chunk = (chunk / 2).max(1);
            }
        }
        let mut config = self.config.clone();
        config.ops = ops.clone();
        let violation = Sweeper::new(config).first_violation(kind)?;
        Ok(violation.map(|violation| MinimalRepro { ops, violation }))
    }

    /// Expands census spans into planned cuts, collapsing degenerate
    /// phases (zero-width spans yield a single `Start` cut).
    fn expand(spans: &[SiteSpan]) -> Vec<PlannedCut> {
        let mut cuts = Vec::with_capacity(spans.len() * Phase::ALL.len());
        for span in spans {
            for phase in Phase::ALL {
                let at = match phase {
                    Phase::Start => span.start,
                    Phase::Mid => {
                        span.start
                            + SimDuration::from_micros((span.end - span.start).as_micros() / 2)
                    }
                    Phase::End => span.end,
                };
                if phase != Phase::Start && at == span.start {
                    continue;
                }
                if phase == Phase::Mid && at == span.end {
                    continue;
                }
                cuts.push(PlannedCut {
                    site: span.site,
                    occurrence: span.index,
                    phase,
                    at,
                    index: cuts.len() as u32,
                });
            }
        }
        cuts
    }

    /// One sweep trial: resume `rung` to `cut`, drop the rail, recover,
    /// run the oracle.
    fn run_trial(&self, rung: Rung, cut: SimTime, issued: &Issued) -> TrialResult {
        let mut driven = self.drive(rung, cut)?;
        let ssd = &mut driven.ssd;
        let mut at = ssd.now().max(cut) + SimDuration::from_secs(1);
        let mut attempts = 0u32;
        loop {
            match ssd.power_on_recover(at) {
                Ok(_) => break,
                Err(pfault_ssd::DeviceError::Bricked { attempts }) => {
                    return Err(TrialError::DeviceBricked {
                        seed: self.config.seed,
                        attempts,
                    });
                }
                Err(pfault_ssd::DeviceError::RecoveryFailed { .. }) => {
                    return Err(TrialError::DeviceBricked {
                        seed: self.config.seed,
                        attempts: 1,
                    });
                }
                Err(pfault_ssd::DeviceError::MountFailed { .. }) => {
                    attempts += 1;
                    if attempts > 8 {
                        return Err(TrialError::DeviceBricked {
                            seed: self.config.seed,
                            attempts,
                        });
                    }
                    at += SimDuration::from_secs(1);
                }
                Err(
                    e @ (pfault_ssd::DeviceError::RecoveryInterrupted { .. }
                    | pfault_ssd::DeviceError::NotMounted
                    | pfault_ssd::DeviceError::ReadOnly),
                ) => {
                    // Sweep mounts are never interrupted (no storm) and
                    // never degrade (verify/retirement stay off under the
                    // strict replay oracle).
                    unreachable!("sweep recovery cannot return {e}")
                }
            }
        }
        Ok(self.oracle(ssd, issued, driven.op))
    }

    /// The recovery-invariant oracle over a trial that submitted the
    /// first `submitted` ops. See the module docs.
    fn oracle(
        &self,
        ssd: &mut Ssd,
        issued: &Issued,
        submitted: usize,
    ) -> Vec<(ViolationKind, String)> {
        let mut violations = Vec::new();

        // Whole-batch replay: compare against the two references.
        let device_map = ssd.mapped();
        let (strict, half_applied) = Self::reference_maps(ssd);
        if device_map != strict {
            if device_map == half_applied {
                violations.push((
                    ViolationKind::TornBatchHalfApplied,
                    format!(
                        "recovered map ({} entries) matches the half-applied reference, \
                         not the whole-batch replay ({} entries)",
                        device_map.len(),
                        strict.len()
                    ),
                ));
            } else {
                violations.push((
                    ViolationKind::ReplayDiverged,
                    format!(
                        "recovered map ({} entries) matches neither reference \
                         (whole-batch {}, half-applied {})",
                        device_map.len(),
                        strict.len(),
                        half_applied.len()
                    ),
                ));
            }
        }

        // No phantom data: every intact readable sector must hold a
        // version the host issued for that LBA (stale is fine; torn or
        // paired-corrupted pages fail is_intact and are data loss, not a
        // protocol violation). Sectors no submitted op wrote are not read.
        for versions in issued.chunk_by(|a, b| a.0 == b.0) {
            let lba = versions[0].0;
            let versions =
                &versions[..versions.partition_point(|&(_, op)| (op as usize) < submitted)];
            if versions.is_empty() {
                continue;
            }
            if let VerifiedContent::Written(data) = ssd.verify_read(Lba::new(lba)) {
                if data.is_intact()
                    && !versions
                        .iter()
                        .any(|&(_, op)| self.issued_content(op, lba) == data)
                {
                    violations.push((
                        ViolationKind::PhantomData,
                        format!("lba {lba} reads back intact content the host never wrote there"),
                    ));
                }
            }
        }

        // Replay idempotence: an idle second outage must rebuild the same
        // map from the same durable state.
        let again = ssd.now();
        ssd.power_fail(&FaultTimeline::at_instant(again));
        let mut at = again + SimDuration::from_secs(1);
        let mut attempts = 0u64;
        let remounted = loop {
            match ssd.power_on_recover(at) {
                Ok(_) => break true,
                Err(pfault_ssd::DeviceError::MountFailed { .. }) if attempts < 8 => {
                    attempts += 1;
                    at += SimDuration::from_secs(1);
                }
                Err(_) => break false,
            }
        };
        if !remounted {
            violations.push((
                ViolationKind::RecoveryFailed,
                "device did not survive an idle second power cycle".to_string(),
            ));
        } else if ssd.mapped() != device_map {
            violations.push((
                ViolationKind::ReplayNotIdempotent,
                "replaying the same durable log twice produced a different map".to_string(),
            ));
        }
        violations
    }

    /// Builds the two reference mappings: `strict` applies durable batches
    /// whole, discarding everything from the first CRC mismatch on
    /// (exactly what correct recovery does); `half_applied` applies every
    /// surviving entry including torn prefixes (what the apply-before-
    /// verify bug does). Journal and checkpoint pages are programmed
    /// through the control path and are intact in this model, so
    /// readability is not re-checked here; a destroyed control page
    /// surfaces as [`ViolationKind::ReplayDiverged`].
    fn reference_maps(ssd: &Ssd) -> (MappedEntries, MappedEntries) {
        let ppb = ssd.config().ftl.geometry.pages_per_block();
        let build = |verify: bool| -> MappedEntries {
            let (mut map, replay_after) = match ssd.checkpoint_store().latest() {
                Some((_, checkpoint)) => (checkpoint.restore(), checkpoint.last_batch),
                None => (MappingTable::new(), None),
            };
            for record in ssd.durable_log().iter_records() {
                if replay_after.is_some_and(|last| record.batch.id <= last) {
                    continue;
                }
                if verify && !record.crc_ok() {
                    break;
                }
                record.batch.apply_to(&mut map, ppb);
            }
            let mut entries: Vec<(Lba, Ppa)> = map.iter().collect();
            entries.sort_by_key(|(l, _)| *l);
            entries
        };
        (build(true), build(false))
    }

    /// Every sector the workload writes, with the ops that write it (see
    /// [`Issued`]).
    fn issued(&self) -> Issued {
        let mut issued: Issued = self
            .config
            .ops
            .iter()
            .enumerate()
            .flat_map(|(index, op)| {
                let sectors = match *op {
                    IoOp::Write { lba, sectors, .. } => lba..lba + sectors.max(1),
                    _ => 0..0,
                };
                sectors.map(move |lba| (lba, index as u32))
            })
            .collect();
        issued.sort_unstable();
        issued.shrink_to_fit();
        issued
    }

    /// The content write op `op` of [`Issued`] stores in sector `lba`.
    /// Contents derive from the tag and the sector offset, not from the
    /// request id, so the op list alone determines them.
    fn issued_content(&self, op: u32, lba: u64) -> PageData {
        let IoOp::Write {
            lba: first,
            sectors,
            tag,
        } = self.config.ops[op as usize]
        else {
            unreachable!("only writes issue content");
        };
        let cmd = HostCommand::write(0, 0, Lba::new(first), SectorCount::new(sectors.max(1)), tag);
        cmd.sector_content(lba - first)
    }

    /// The census drive: rung 0 with site recording on, climbed one rung
    /// at a time until the device goes idle. Returns every recorded span
    /// and the boundaries — `boundaries[r]` is the device clock at rung
    /// `r`: the top of every op, then the top of every tail step.
    fn survey(&self) -> Result<(Vec<SiteSpan>, Vec<SimTime>), TrialError> {
        let mut rung = self.rung_zero(true);
        let mut boundaries = Vec::with_capacity(self.config.ops.len() + 1);
        loop {
            boundaries.push(rung.ssd.now());
            if self.climb(&mut rung, boundaries.len())? {
                break;
            }
        }
        Ok((rung.ssd.site_spans().to_vec(), boundaries))
    }

    /// Walks `rung` forward, without a cut, to rung `to` (see [`Rung`]).
    /// Returns whether the device went idle on the way.
    fn climb(&self, rung: &mut Rung, to: usize) -> Result<bool, TrialError> {
        let ops = self.config.ops.len();
        self.run_ops(rung, None, to.min(ops))?;
        self.run_tail(rung, None, to.saturating_sub(ops) as u64)
    }

    /// Rung 0: a fresh same-seed device before the first op.
    fn rung_zero(&self, record: bool) -> Rung {
        let mut ssd = Ssd::new(self.config.ssd, DetRng::new(self.config.seed).fork("ssd"));
        if record {
            ssd.enable_site_recording();
        }
        Rung {
            ssd,
            op: 0,
            step: 0,
            events: 0,
            next_id: 0,
            flush_id: FLUSH_ID_BASE,
        }
    }

    /// Resumes the workload from `rung` to `cut`: the remaining ops, then
    /// background work (flushes, commits, checkpoints, GC). Submission
    /// and event processing stop at the instant, the rail vanishes
    /// ([`FaultTimeline::at_instant`]), and the dead device is returned
    /// for recovery. Pre-cut event timing is identical to the census's
    /// uncut climb, which is what makes recorded spans and boundaries
    /// replayable.
    fn drive(&self, mut rung: Rung, cut: SimTime) -> Result<Rung, TrialError> {
        self.run_ops(&mut rung, Some(cut), self.config.ops.len())?;
        self.run_tail(&mut rung, Some(cut), u64::MAX)?;
        if rung.ssd.now() < cut {
            // The cut falls in an idle gap: advance straight to it.
            rung.ssd.advance_to(cut);
        }
        rung.ssd.power_fail(&FaultTimeline::at_instant(cut));
        rung.ssd.drain_completions();
        Ok(rung)
    }

    /// The op loop: submits ops from `rung.op` on, each waiting for its
    /// completion, until op `stop` is next or the cut arrives.
    fn run_ops(
        &self,
        rung: &mut Rung,
        cut: Option<SimTime>,
        stop: usize,
    ) -> Result<(), TrialError> {
        while rung.op < stop && !Self::cut_reached(&rung.ssd, cut) {
            let op = self.config.ops[rung.op];
            rung.op += 1;
            match op {
                IoOp::Write { lba, sectors, tag } => {
                    let id = rung.next_id;
                    rung.next_id += 1;
                    rung.ssd.submit(HostCommand::write(
                        id,
                        0,
                        Lba::new(lba),
                        SectorCount::new(sectors.max(1)),
                        tag,
                    ));
                    self.wait_for(rung, cut, id)?;
                }
                IoOp::Trim { lba, sectors } => {
                    rung.ssd
                        .trim(Lba::new(lba), SectorCount::new(sectors.max(1)));
                }
                IoOp::Flush => {
                    rung.flush_id += 1;
                    rung.ssd.submit_flush(rung.flush_id, 0);
                    self.wait_for(rung, cut, rung.flush_id)?;
                }
            }
        }
        Ok(())
    }

    /// The tail loop: background work after the last op, one device
    /// event per step, until step `stop` is next, the cut arrives, or the
    /// device goes idle. Returns whether it went idle.
    fn run_tail(
        &self,
        rung: &mut Rung,
        cut: Option<SimTime>,
        stop: u64,
    ) -> Result<bool, TrialError> {
        while rung.step < stop && !Self::cut_reached(&rung.ssd, cut) {
            self.check_budget(rung)?;
            let Some(e) = rung.ssd.next_event() else {
                return Ok(true);
            };
            let target = e.max(rung.ssd.now() + SimDuration::from_micros(1));
            let target = cut.map_or(target, |c| target.min(c));
            rung.ssd.advance_to(target);
            rung.step += 1;
        }
        Ok(false)
    }

    /// Advances until the completion for `id` arrives or the cut does.
    fn wait_for(&self, rung: &mut Rung, cut: Option<SimTime>, id: u64) -> Result<(), TrialError> {
        loop {
            self.check_budget(rung)?;
            if rung
                .ssd
                .drain_completions()
                .iter()
                .any(|c| c.request_id == id)
                || Self::cut_reached(&rung.ssd, cut)
            {
                return Ok(());
            }
            let target = match rung.ssd.next_event() {
                Some(e) => e.max(rung.ssd.now() + SimDuration::from_micros(1)),
                None => rung.ssd.now() + SimDuration::from_millis(1),
            };
            let target = cut.map_or(target, |c| target.min(c));
            rung.ssd.advance_to(target);
        }
    }

    fn cut_reached(ssd: &Ssd, cut: Option<SimTime>) -> bool {
        cut.is_some_and(|c| ssd.now() >= c)
    }

    fn check_budget(&self, rung: &mut Rung) -> Result<(), TrialError> {
        rung.events += 1;
        if rung.events > EVENT_BUDGET {
            return Err(TrialError::WatchdogExpired {
                seed: self.config.seed,
                sim_time_us: rung.ssd.now().as_micros(),
                events: rung.events,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The sweep without the ladder: every cut re-drives its whole op
    /// prefix from rung 0, in canonical order.
    fn run_cold(sweeper: &Sweeper) -> SweepReport {
        let (spans, _) = sweeper.survey().unwrap();
        let cuts = Sweeper::expand(&spans);
        let issued = sweeper.issued();
        let mut report = SweepReport {
            sites_censused: spans.len(),
            trials: cuts.len() as u64,
            violations: Vec::new(),
            failures: TrialFailures::default(),
        };
        for (index, cut) in cuts.iter().enumerate() {
            let result = sweeper.run_trial(sweeper.rung_zero(false), cut.at, &issued);
            report.file(index, cut, result);
        }
        report
    }

    /// Sweeps `config` with the ladder and with the cold reference,
    /// asserts the reports are equal, and returns the report.
    fn assert_ladder_matches_cold(config: SweepConfig) -> SweepReport {
        let sweeper = Sweeper::new(config);
        let ladder = sweeper.run().unwrap();
        assert_eq!(ladder, run_cold(&sweeper), "seed {}", sweeper.config.seed);
        ladder
    }

    /// Builds an op from four draws: 70 % writes, 20 % trims and 10 %
    /// flushes over 32 extents of 8 sectors.
    fn op_from(kind: u64, extent: u64, sectors: u64, tag: u64) -> IoOp {
        let lba = extent * 8;
        match kind {
            0..=6 => IoOp::Write { lba, sectors, tag },
            7 | 8 => IoOp::Trim { lba, sectors },
            _ => IoOp::Flush,
        }
    }

    #[test]
    fn census_finds_commit_and_flush_sites() {
        let sweeper = Sweeper::new(SweepConfig::smoke(3));
        let spans = sweeper.census().unwrap();
        assert!(spans.iter().any(|s| s.site == FaultSite::CacheFlushProgram));
        assert!(spans
            .iter()
            .any(|s| s.site == FaultSite::JournalCommitProgram));
    }

    #[test]
    fn boundaries_cover_every_op_and_tail_step() {
        let sweeper = Sweeper::new(SweepConfig::smoke(7));
        let (spans, boundaries) = sweeper.survey().unwrap();
        let ops = sweeper.config.ops.len();
        assert_eq!(boundaries[0], SimTime::ZERO);
        assert!(boundaries.windows(2).all(|w| w[0] <= w[1]));
        // Every tail step advances the clock.
        assert!(boundaries[ops..].windows(2).all(|w| w[0] < w[1]));
        // Some cuts land past the first tail step, so the equivalence
        // tests on this seed climb the ladder through the tail.
        assert!(spans.iter().any(|s| s.start > boundaries[ops + 1]));
    }

    #[test]
    fn issued_versions_are_what_the_device_stores() {
        let sweeper = Sweeper::new(SweepConfig::smoke(5));
        let issued = sweeper.issued();
        assert!(issued.windows(2).all(|w| w[0] < w[1]));
        let mut rung = sweeper.rung_zero(false);
        let mut to = 1;
        while !sweeper.climb(&mut rung, to).unwrap() {
            to += 1;
        }
        let mut written = 0;
        for versions in issued.chunk_by(|a, b| a.0 == b.0) {
            let (lba, last) = versions[versions.len() - 1];
            match rung.ssd.verify_read(Lba::new(lba)) {
                VerifiedContent::Written(data) => {
                    assert_eq!(data, sweeper.issued_content(last, lba), "lba {lba}");
                    written += 1;
                }
                other => assert_eq!(other, VerifiedContent::Unwritten, "lba {lba} (trimmed)"),
            }
        }
        assert_eq!(
            written, 10,
            "sectors 0..8 and 128..130 hold their last write"
        );
    }

    #[test]
    fn expansion_collapses_degenerate_spans() {
        let spans = [SiteSpan {
            site: FaultSite::MappingReplay,
            index: 0,
            start: SimTime::from_micros(5),
            end: SimTime::from_micros(5),
            ppa: None,
        }];
        let cuts = Sweeper::expand(&spans);
        assert_eq!(cuts.len(), 1);
        assert_eq!(cuts[0].phase, Phase::Start);
    }

    #[test]
    fn correct_firmware_sweeps_clean() {
        let sweeper = Sweeper::new(SweepConfig::smoke(11));
        let report = sweeper.run().unwrap();
        assert!(report.trials > 0);
        assert_eq!(report.failures.total_failed(), 0, "{:?}", report.failures);
        assert!(
            report.violations.is_empty(),
            "CRC-verified replay must satisfy every invariant: {:?}",
            report.violations
        );
    }

    #[test]
    fn sweep_is_deterministic() {
        let a = Sweeper::new(SweepConfig::smoke(19)).run().unwrap();
        let b = Sweeper::new(SweepConfig::smoke(19)).run().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn ladder_matches_cold_reference_on_smoke_seeds() {
        for seed in [7, 11, 21] {
            for verify in [true, false] {
                let mut config = SweepConfig::smoke(seed);
                config.ssd.ftl.verify_batch_crc = verify;
                let report = assert_ladder_matches_cold(config);
                assert!(report.trials > 0);
            }
        }
    }

    #[test]
    fn ladder_matches_cold_reference_on_a_mixed_64_op_list() {
        let mut rng = DetRng::new(64);
        let ops: Vec<IoOp> = (0..64)
            .map(|_| {
                op_from(
                    rng.below(10),
                    rng.below(32),
                    1 + rng.below(8),
                    rng.next_u64(),
                )
            })
            .collect();
        assert!(ops.iter().any(|op| matches!(op, IoOp::Write { .. })));
        assert!(ops.iter().any(|op| matches!(op, IoOp::Trim { .. })));
        assert!(ops.iter().any(|op| matches!(op, IoOp::Flush)));
        for verify in [true, false] {
            let mut config = SweepConfig::smoke(64);
            config.ssd.ftl.verify_batch_crc = verify;
            config.ops = ops.clone();
            assert_ladder_matches_cold(config);
        }
    }

    #[test]
    fn bricked_cuts_keep_canonical_indices_on_the_ledger() {
        let mut config = SweepConfig::smoke(11);
        config.ssd.mount_failure_rate = 0.5;
        config.ssd.mount_retry_limit = 1;
        let report = assert_ladder_matches_cold(config);
        let ledger = &report.failures;
        assert!(
            ledger.total_failed() > 0,
            "some cuts must brick: {ledger:?}"
        );
        assert!(
            ledger.bricked.windows(2).all(|w| w[0] < w[1]),
            "indices are canonical, not time order: {ledger:?}"
        );
    }

    proptest! {
        #[test]
        fn ladder_matches_cold_reference_on_random_workloads(
            seed: u64,
            verify: bool,
            draws in prop::collection::vec((0u64..10, 0u64..32, 1u64..=8, any::<u64>()), 1..12),
        ) {
            let mut config = SweepConfig::smoke(seed);
            config.ssd.ftl.verify_batch_crc = verify;
            config.ops = draws
                .into_iter()
                .map(|(kind, extent, sectors, tag)| op_from(kind, extent, sectors, tag))
                .collect();
            assert_ladder_matches_cold(config);
        }
    }

    #[test]
    fn seeded_crc_bug_is_found_and_shrunk() {
        let mut config = SweepConfig::smoke(7);
        config.ssd.ftl.verify_batch_crc = false;
        let sweeper = Sweeper::new(config);
        let hit = sweeper
            .first_violation(ViolationKind::TornBatchHalfApplied)
            .unwrap()
            .expect("apply-before-verify bug must be caught");
        assert_eq!(hit.site, FaultSite::JournalCommitProgram);
        let repro = sweeper
            .minimize(ViolationKind::TornBatchHalfApplied)
            .unwrap()
            .expect("minimizer must keep the repro");
        assert!(
            repro.ops.len() <= 3,
            "repro should shrink to <= 3 IOs, got {:?}",
            repro.ops
        );
        assert_eq!(repro.violation.kind, ViolationKind::TornBatchHalfApplied);
    }

    #[test]
    fn minimize_returns_none_when_nothing_fails() {
        let sweeper = Sweeper::new(SweepConfig::smoke(23));
        assert!(sweeper
            .minimize(ViolationKind::TornBatchHalfApplied)
            .unwrap()
            .is_none());
    }
}
