//! ATX supply with `PS_ON` control semantics.
//!
//! The paper switches the SSD's supply through pin 16 of the ATX connector
//! (`PS_ON`, active low): driving it high (+5 V) commands the supply off
//! (§III-A2). [`AtxSupply`] tracks the pin state over simulated time and
//! exposes the resulting rail voltage via the discharge model.

use pfault_sim::{SimDuration, SimTime};

use crate::psu::PsuModel;
use crate::volts::Millivolts;

/// Logic level on the `PS_ON` pin. Active low: [`PsOn::Low`] keeps the
/// supply running.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PsOn {
    /// Pin pulled low: supply on (normal operation).
    Low,
    /// Pin driven high (+5 V): supply commanded off.
    High,
}

/// An ATX supply: a discharge model plus `PS_ON` state.
///
/// # Example
///
/// ```
/// use pfault_power::atx::{AtxSupply, PsOn};
/// use pfault_power::Millivolts;
/// use pfault_sim::{SimDuration, SimTime};
///
/// let mut psu = AtxSupply::loaded();
/// let t0 = SimTime::from_millis(100);
/// assert_eq!(psu.rail_voltage(t0), Millivolts::new(5000));
/// psu.set_ps_on(PsOn::High, t0); // command off
/// let later = t0 + SimDuration::from_millis(40);
/// assert!(psu.rail_voltage(later) <= Millivolts::new(4500));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AtxSupply {
    model: PsuModel,
    /// Instant the supply was commanded off, if it is off.
    cut_at: Option<SimTime>,
}

impl AtxSupply {
    /// A supply driving one SSD (Fig 4b calibration).
    pub fn loaded() -> Self {
        AtxSupply {
            model: PsuModel::atx_loaded(),
            cut_at: None,
        }
    }

    /// An unloaded supply (Fig 4a calibration).
    pub fn unloaded() -> Self {
        AtxSupply {
            model: PsuModel::atx_unloaded(),
            cut_at: None,
        }
    }

    /// The underlying discharge model.
    pub fn model(&self) -> PsuModel {
        self.model
    }

    /// Applies a `PS_ON` level at `now`.
    ///
    /// Driving high starts the discharge; driving low restores the rail
    /// instantly (the paper power-cycles between injections).
    pub fn set_ps_on(&mut self, level: PsOn, now: SimTime) {
        match level {
            PsOn::High => {
                if self.cut_at.is_none() {
                    self.cut_at = Some(now);
                }
            }
            PsOn::Low => {
                self.cut_at = None;
            }
        }
    }

    /// Whether the supply is currently commanded off.
    pub fn is_cut(&self) -> bool {
        self.cut_at.is_some()
    }

    /// The instant the supply was commanded off, if any.
    pub fn cut_at(&self) -> Option<SimTime> {
        self.cut_at
    }

    /// Rail voltage at `now`.
    pub fn rail_voltage(&self, now: SimTime) -> Millivolts {
        match self.cut_at {
            None => self.model.nominal(),
            Some(t0) => self.model.voltage_after(now.saturating_since(t0)),
        }
    }

    /// Instant at which the rail crosses `threshold`, given the current
    /// cut state. `None` while the supply is on.
    pub fn crossing_time(&self, threshold: Millivolts) -> Option<SimTime> {
        self.cut_at
            .map(|t0| t0 + self.model.time_to_voltage(threshold))
    }

    /// Convenience: duration from cut to `threshold`.
    pub fn time_to_voltage(&self, threshold: Millivolts) -> SimDuration {
        self.model.time_to_voltage(threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::psu::HOST_LOSS_MV;

    #[test]
    fn supply_on_holds_nominal() {
        let psu = AtxSupply::loaded();
        assert!(!psu.is_cut());
        assert_eq!(
            psu.rail_voltage(SimTime::from_secs(100)),
            Millivolts::new(5000)
        );
        assert_eq!(psu.crossing_time(HOST_LOSS_MV), None);
    }

    #[test]
    fn cut_starts_discharge_from_cut_instant() {
        let mut psu = AtxSupply::loaded();
        let t0 = SimTime::from_millis(500);
        psu.set_ps_on(PsOn::High, t0);
        assert!(psu.is_cut());
        assert_eq!(psu.cut_at(), Some(t0));
        // Before the cut instant the saturating elapsed is zero → nominal.
        assert_eq!(
            psu.rail_voltage(SimTime::from_millis(400)),
            Millivolts::new(5000)
        );
        let cross = psu.crossing_time(HOST_LOSS_MV).unwrap();
        assert!(cross > t0);
        assert!(psu.rail_voltage(cross) <= HOST_LOSS_MV);
    }

    #[test]
    fn repeated_high_does_not_restart_discharge() {
        let mut psu = AtxSupply::loaded();
        let t0 = SimTime::from_millis(100);
        psu.set_ps_on(PsOn::High, t0);
        psu.set_ps_on(PsOn::High, SimTime::from_millis(200));
        assert_eq!(psu.cut_at(), Some(t0));
    }

    #[test]
    fn low_restores_power() {
        let mut psu = AtxSupply::loaded();
        psu.set_ps_on(PsOn::High, SimTime::from_millis(100));
        psu.set_ps_on(PsOn::Low, SimTime::from_secs(2));
        assert!(!psu.is_cut());
        assert_eq!(
            psu.rail_voltage(SimTime::from_secs(3)),
            Millivolts::new(5000)
        );
    }
}
