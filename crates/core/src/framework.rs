//! The provider-facing problem statement.

use std::fmt;

/// Which renewable technologies the provider may build on-site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TechMix {
    /// No on-site plants at all (the paper's "Brown" baseline).
    BrownOnly,
    /// Wind farms only.
    WindOnly,
    /// Solar farms only.
    SolarOnly,
    /// Either or both per site (the paper's "Wind and/or solar").
    Both,
}

impl TechMix {
    /// May this mix build solar plants?
    pub fn allows_solar(self) -> bool {
        matches!(self, TechMix::SolarOnly | TechMix::Both)
    }

    /// May this mix build wind plants?
    pub fn allows_wind(self) -> bool {
        matches!(self, TechMix::WindOnly | TechMix::Both)
    }
}

/// How surplus green energy may be stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StorageMode {
    /// Bank energy in the grid with an annual true-up (the paper's default).
    NetMetering,
    /// On-site batteries (75% charge efficiency, day-cyclic dispatch).
    Batteries,
    /// No storage: green energy must be used the hour it is produced.
    None,
}

/// The construction-cost size class of a datacenter (Table I:
/// `priceBuildDC(c)` is $15/W below 10 MW of maximum power, $12/W above).
///
/// The heuristic solver fixes the class per candidate — exactly the paper's
/// "specify whether each datacenter should be small or large" device that
/// keeps the subproblem linear.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SizeClass {
    /// Maximum power ≤ 10 MW, $15/W.
    Small,
    /// Maximum power > 10 MW, $12/W.
    Large,
}

/// Everything the cloud provider specifies when siting a network.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementInput {
    /// Minimum total compute power the network must always provide, MW
    /// (the paper's `totalCapacity`).
    pub total_capacity_mw: f64,
    /// Minimum fraction of consumed energy from on-site green sources
    /// (`minGreen`), in `[0, 1]`.
    pub min_green_fraction: f64,
    /// Minimum availability of the network (`minAvailability`).
    pub min_availability: f64,
    /// Availability of each individual datacenter (tier-dependent; the
    /// paper uses 99.827% for near-Tier-III).
    pub dc_availability: f64,
    /// Allowed renewable technologies.
    pub tech: TechMix,
    /// Green-energy storage mode.
    pub storage: StorageMode,
    /// Fraction of an epoch during which migrated load consumes energy at
    /// both ends (Fig. 13's sweep variable; 1.0 = the paper's conservative
    /// default).
    pub migration_fraction: f64,
    /// Net-metering revenue as a fraction of retail price
    /// (`creditNetMeter`).
    pub credit_net_meter: f64,
}

impl Default for PlacementInput {
    /// The paper's base case: 50 MW, 50% green, five-nines network
    /// availability out of 99.827%-available datacenters, wind and/or
    /// solar, net metering, full migration overhead.
    fn default() -> Self {
        Self {
            total_capacity_mw: 50.0,
            min_green_fraction: 0.5,
            min_availability: 0.99999,
            dc_availability: 0.99827,
            tech: TechMix::Both,
            storage: StorageMode::NetMetering,
            migration_fraction: 1.0,
            credit_net_meter: 1.0,
        }
    }
}

/// A structured reason why a [`PlacementInput`] is rejected.
///
/// Replaces the former stringly-typed validation: every variant names the
/// offending field and carries the offending value, so callers (and the
/// `greencloud-api` error hierarchy) can match on the failure instead of
/// parsing a message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ValidationError {
    /// `total_capacity_mw` must be positive and finite.
    NonPositiveCapacity(f64),
    /// `min_green_fraction` must be in `[0, 1]`.
    GreenFractionOutOfRange(f64),
    /// `min_availability` must be in `[0, 1)`.
    AvailabilityOutOfRange(f64),
    /// `dc_availability` must be in `[0, 1)`.
    DcAvailabilityOutOfRange(f64),
    /// `migration_fraction` must be in `[0, 1]`.
    MigrationFractionOutOfRange(f64),
    /// `credit_net_meter` must be in `[0, 1]`.
    NetMeterCreditOutOfRange(f64),
    /// A positive green requirement is incompatible with
    /// [`TechMix::BrownOnly`].
    GreenWithBrownOnly {
        /// The requested `min_green_fraction`.
        min_green_fraction: f64,
    },
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::NonPositiveCapacity(v) => {
                write!(f, "total capacity must be positive and finite, got {v}")
            }
            ValidationError::GreenFractionOutOfRange(v) => {
                write!(f, "green fraction must be in [0,1], got {v}")
            }
            ValidationError::AvailabilityOutOfRange(v) => {
                write!(f, "min availability must be in [0,1), got {v}")
            }
            ValidationError::DcAvailabilityOutOfRange(v) => {
                write!(f, "dc availability must be in [0,1), got {v}")
            }
            ValidationError::MigrationFractionOutOfRange(v) => {
                write!(f, "migration fraction must be in [0,1], got {v}")
            }
            ValidationError::NetMeterCreditOutOfRange(v) => {
                write!(f, "net meter credit must be in [0,1], got {v}")
            }
            ValidationError::GreenWithBrownOnly { min_green_fraction } => write!(
                f,
                "cannot require {:.0}% green energy with TechMix::BrownOnly",
                min_green_fraction * 100.0
            ),
        }
    }
}

impl std::error::Error for ValidationError {}

impl PlacementInput {
    /// Validates ranges; returns the first problem found.
    ///
    /// # Errors
    ///
    /// The [`ValidationError`] naming the first offending field.
    pub fn validate(&self) -> Result<(), ValidationError> {
        if !self.total_capacity_mw.is_finite() || self.total_capacity_mw <= 0.0 {
            return Err(ValidationError::NonPositiveCapacity(self.total_capacity_mw));
        }
        if !(0.0..=1.0).contains(&self.min_green_fraction) {
            return Err(ValidationError::GreenFractionOutOfRange(
                self.min_green_fraction,
            ));
        }
        if !(0.0..1.0).contains(&self.min_availability) {
            return Err(ValidationError::AvailabilityOutOfRange(
                self.min_availability,
            ));
        }
        if !(0.0..1.0).contains(&self.dc_availability) {
            return Err(ValidationError::DcAvailabilityOutOfRange(
                self.dc_availability,
            ));
        }
        if !(0.0..=1.0).contains(&self.migration_fraction) {
            return Err(ValidationError::MigrationFractionOutOfRange(
                self.migration_fraction,
            ));
        }
        if !(0.0..=1.0).contains(&self.credit_net_meter) {
            return Err(ValidationError::NetMeterCreditOutOfRange(
                self.credit_net_meter,
            ));
        }
        if self.min_green_fraction > 0.0 && self.tech == TechMix::BrownOnly {
            return Err(ValidationError::GreenWithBrownOnly {
                min_green_fraction: self.min_green_fraction,
            });
        }
        Ok(())
    }

    /// Convenience: the same input with a different green requirement,
    /// switching to `BrownOnly` at 0% (the paper's sweep convention).
    pub fn with_green(&self, fraction: f64, tech: TechMix) -> Self {
        Self {
            min_green_fraction: fraction,
            tech: if fraction == 0.0 {
                TechMix::BrownOnly
            } else {
                tech
            },
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_base_case() {
        let input = PlacementInput::default();
        assert!(input.validate().is_ok());
        assert_eq!(input.total_capacity_mw, 50.0);
        assert_eq!(input.min_green_fraction, 0.5);
    }

    #[test]
    fn tech_mix_permissions() {
        assert!(!TechMix::BrownOnly.allows_solar());
        assert!(!TechMix::BrownOnly.allows_wind());
        assert!(TechMix::WindOnly.allows_wind() && !TechMix::WindOnly.allows_solar());
        assert!(TechMix::SolarOnly.allows_solar() && !TechMix::SolarOnly.allows_wind());
        assert!(TechMix::Both.allows_solar() && TechMix::Both.allows_wind());
    }

    #[test]
    fn validation_catches_inconsistencies() {
        let bad = PlacementInput {
            tech: TechMix::BrownOnly,
            ..PlacementInput::default()
        };
        assert!(bad.validate().is_err());

        let bad = PlacementInput {
            min_green_fraction: 1.5,
            ..PlacementInput::default()
        };
        assert!(bad.validate().is_err());

        let bad = PlacementInput {
            total_capacity_mw: 0.0,
            ..PlacementInput::default()
        };
        assert!(bad.validate().is_err());

        let bad = PlacementInput {
            migration_fraction: -0.1,
            ..PlacementInput::default()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn with_green_switches_to_brown_at_zero() {
        let base = PlacementInput::default();
        let g0 = base.with_green(0.0, TechMix::WindOnly);
        assert_eq!(g0.tech, TechMix::BrownOnly);
        assert!(g0.validate().is_ok());
        let g75 = base.with_green(0.75, TechMix::WindOnly);
        assert_eq!(g75.tech, TechMix::WindOnly);
        assert_eq!(g75.min_green_fraction, 0.75);
    }
}
