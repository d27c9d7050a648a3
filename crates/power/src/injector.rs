//! The fault injector: control path + supply → fault timeline.
//!
//! [`FaultInjector`] composes a command path (Arduino serial latency or
//! none) with a supply model (ATX discharge or transistor cutter) and
//! computes, for a fault commanded at time *t*, the [`FaultTimeline`] the
//! platform schedules around: when the host loses the device, when the
//! controller's brownout race ends, and when the rail is fully discharged.

use serde::{Deserialize, Serialize};

use pfault_sim::{SimDuration, SimTime};

use crate::arduino::ArduinoUno;
use crate::cutter::TransistorCutter;
use crate::psu::{PsuModel, CORE_DEATH_MV, DISCHARGED_MV, FLASH_UNRELIABLE_MV, HOST_LOSS_MV};
use crate::volts::Millivolts;

/// Which physical rig injects the fault.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum InjectorKind {
    /// The paper's rig: Arduino → ATX `PS_ON` → capacitor discharge.
    ArduinoAtx {
        /// Discharge time constant of the PSU, in microseconds.
        tau_us: u64,
    },
    /// The prior-work rig \[12, 18\]: high-speed transistor, µs-order fall.
    TransistorCutter {
        /// Rail fall time in microseconds.
        fall_us: u64,
    },
}

/// Instants derived from one fault injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultTimeline {
    /// When the software issued the Off command.
    pub commanded: SimTime,
    /// When the rail actually began to fall (after command-path latency).
    pub cut: SimTime,
    /// When the host lost the SATA link (rail at 4.5 V).
    pub host_lost: SimTime,
    /// When NAND operations stop being reliable (rail at 4.0 V): in-flight
    /// programs/erases are interrupted here, and firmware without
    /// power-loss protection gets no further work done.
    pub flash_unreliable: SimTime,
    /// When the controller/flash core died (rail at 2.5 V): end of the
    /// brownout race.
    pub core_dead: SimTime,
    /// When the rail is fully discharged (< 0.5 V).
    pub discharged: SimTime,
}

impl FaultTimeline {
    /// Length of the brownout race window (host loss → core death).
    ///
    /// # Boundary semantics (half-open windows)
    ///
    /// Every threshold instant classifies operations consistently as
    /// half-open windows closed on the *left*: an operation whose
    /// completion time is `<= host_lost` completes and is acknowledged to
    /// the host; one completing exactly at `flash_unreliable` finishes on
    /// the array (the device processes events with `end <= t` before the
    /// rail state changes at `t`); only operations strictly in flight
    /// *after* a threshold are affected by it. Equivalently, the brownout
    /// race occupies `(host_lost, flash_unreliable]` for firmware work and
    /// the interval is empty for a transistor-cut timeline where all
    /// thresholds coincide. The sweeper relies on this: a fault placed at
    /// a recorded span's `end` observes the operation *completed*, one
    /// placed anywhere earlier in the span observes it *interrupted*.
    pub fn brownout_window(&self) -> SimDuration {
        self.core_dead - self.host_lost
    }

    /// A degenerate timeline whose every threshold is `t`: the rail
    /// vanishes instantaneously (an idealised transistor cutter with zero
    /// fall time). The host link, NAND reliability, and the core all die
    /// at the same instant, so there is no brownout race and no oblivious
    /// firmware window — the device state at the cut is exactly the state
    /// recovery sees. This is the injection primitive the fault-space
    /// sweeper uses to place a cut *inside* a recorded site span.
    pub fn at_instant(t: SimTime) -> FaultTimeline {
        FaultTimeline {
            commanded: t,
            cut: t,
            host_lost: t,
            flash_unreliable: t,
            core_dead: t,
            discharged: t,
        }
    }

    /// The probe-bus event describing this timeline: the four absolute
    /// thresholds the device stack reacts to, in simulated microseconds.
    pub fn probe_event(&self) -> pfault_obs::ProbeEvent {
        pfault_obs::ProbeEvent::PowerCut {
            commanded_us: self.commanded.as_micros(),
            host_lost_us: self.host_lost.as_micros(),
            flash_unreliable_us: self.flash_unreliable.as_micros(),
            core_dead_us: self.core_dead.as_micros(),
        }
    }
}

/// A configured fault-injection rig.
///
/// See the crate-level docs for an example.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultInjector {
    kind: InjectorKind,
    command_latency: SimDuration,
}

impl FaultInjector {
    /// The paper's rig with a loaded ATX supply (Fig 4b) and Arduino
    /// command latency.
    pub fn arduino_atx_loaded() -> Self {
        let arduino = ArduinoUno::new();
        let psu = PsuModel::atx_loaded();
        FaultInjector {
            kind: InjectorKind::ArduinoAtx {
                tau_us: psu.tau().as_micros(),
            },
            command_latency: arduino.command_latency(),
        }
    }

    /// The prior-work transistor rig (no Arduino in the loop; the FPGA
    /// switches in nanoseconds, modelled as zero command latency).
    pub fn transistor() -> Self {
        FaultInjector {
            kind: InjectorKind::TransistorCutter {
                fall_us: TransistorCutter::new().fall_time().as_micros(),
            },
            command_latency: SimDuration::ZERO,
        }
    }

    /// The rig kind.
    pub fn kind(&self) -> InjectorKind {
        self.kind
    }

    fn time_to(&self, threshold: Millivolts) -> SimDuration {
        match self.kind {
            InjectorKind::ArduinoAtx { tau_us } => {
                PsuModel::with_tau(Millivolts::new(5000), SimDuration::from_micros(tau_us))
                    .time_to_voltage(threshold)
            }
            InjectorKind::TransistorCutter { fall_us } => {
                TransistorCutter::with_fall_time(SimDuration::from_micros(fall_us))
                    .time_to_voltage(threshold)
            }
        }
    }

    /// Computes the timeline of a fault commanded at `commanded`.
    pub fn timeline(&self, commanded: SimTime) -> FaultTimeline {
        let cut = commanded + self.command_latency;
        FaultTimeline {
            commanded,
            cut,
            host_lost: cut + self.time_to(HOST_LOSS_MV),
            flash_unreliable: cut + self.time_to(FLASH_UNRELIABLE_MV),
            core_dead: cut + self.time_to(CORE_DEATH_MV),
            discharged: cut + self.time_to(DISCHARGED_MV),
        }
    }

    /// Rail voltage `elapsed` after the actual cut.
    pub fn voltage_after_cut(&self, elapsed: SimDuration) -> Millivolts {
        match self.kind {
            InjectorKind::ArduinoAtx { tau_us } => {
                PsuModel::with_tau(Millivolts::new(5000), SimDuration::from_micros(tau_us))
                    .voltage_after(elapsed)
            }
            InjectorKind::TransistorCutter { fall_us } => {
                let mut c = TransistorCutter::with_fall_time(SimDuration::from_micros(fall_us));
                c.cut(SimTime::ZERO);
                c.rail_voltage(SimTime::ZERO + elapsed)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atx_timeline_matches_paper_numbers() {
        let inj = FaultInjector::arduino_atx_loaded();
        let t = inj.timeline(SimTime::ZERO);
        let host_ms = (t.host_lost - t.cut).as_millis_f64();
        let discharged_ms = (t.discharged - t.cut).as_millis_f64();
        assert!((35.0..45.0).contains(&host_ms), "host loss at {host_ms}ms");
        assert!(
            (850.0..950.0).contains(&discharged_ms),
            "discharge at {discharged_ms}ms"
        );
        assert!(t.brownout_window().as_millis_f64() > 150.0);
    }

    #[test]
    fn transistor_timeline_has_no_brownout_window() {
        let inj = FaultInjector::transistor();
        let t = inj.timeline(SimTime::ZERO);
        assert_eq!(t.commanded, t.cut); // no command-path latency
        assert!(t.brownout_window().as_micros() < 100);
        assert!(t.discharged.as_micros() < 1_000);
    }

    #[test]
    fn command_latency_delays_cut() {
        let inj = FaultInjector::arduino_atx_loaded();
        let t = inj.timeline(SimTime::from_millis(10));
        assert!(t.cut > t.commanded);
        let latency = t.cut - t.commanded;
        assert!((1.0..2.0).contains(&latency.as_millis_f64()));
    }

    #[test]
    fn ordering_invariant_holds_for_both_rigs() {
        for inj in [
            FaultInjector::arduino_atx_loaded(),
            FaultInjector::transistor(),
        ] {
            let t = inj.timeline(SimTime::from_secs(1));
            assert!(t.commanded <= t.cut);
            assert!(t.cut <= t.host_lost);
            assert!(t.host_lost <= t.flash_unreliable);
            assert!(t.flash_unreliable <= t.core_dead);
            assert!(t.core_dead <= t.discharged);
        }
    }

    #[test]
    fn instant_timeline_collapses_every_threshold() {
        let t = SimTime::from_millis(17);
        let tl = FaultTimeline::at_instant(t);
        assert_eq!(tl.commanded, t);
        assert_eq!(tl.cut, t);
        assert_eq!(tl.host_lost, t);
        assert_eq!(tl.flash_unreliable, t);
        assert_eq!(tl.core_dead, t);
        assert_eq!(tl.discharged, t);
        assert_eq!(tl.brownout_window(), SimDuration::ZERO);
    }

    #[test]
    fn voltage_after_cut_differs_between_rigs() {
        let atx = FaultInjector::arduino_atx_loaded();
        let cutter = FaultInjector::transistor();
        let at_10ms = SimDuration::from_millis(10);
        assert!(atx.voltage_after_cut(at_10ms) > Millivolts::new(4000));
        assert_eq!(cutter.voltage_after_cut(at_10ms), Millivolts::ZERO);
    }
}
