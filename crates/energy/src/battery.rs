//! Battery storage ledger.
//!
//! The paper provisions lead-acid batteries ($200/kWh, 75% charge
//! efficiency, 4-year life) to store surplus green energy. The LP embeds
//! battery dynamics as constraints; this runtime ledger is used by the
//! GreenNebula emulation and enforces the same physics imperatively.

/// A battery bank with finite capacity and lossy charging.
#[derive(Debug, Clone, PartialEq)]
pub struct Battery {
    capacity_kwh: f64,
    level_kwh: f64,
    charge_efficiency: f64,
}

impl Battery {
    /// Paper-default charge efficiency.
    pub const DEFAULT_EFFICIENCY: f64 = 0.75;

    /// Creates an empty battery bank.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_kwh < 0` or `charge_efficiency ∉ (0, 1]`.
    pub fn new(capacity_kwh: f64, charge_efficiency: f64) -> Self {
        assert!(capacity_kwh >= 0.0, "negative capacity");
        assert!(
            charge_efficiency > 0.0 && charge_efficiency <= 1.0,
            "efficiency must be in (0, 1]"
        );
        Self {
            capacity_kwh,
            level_kwh: 0.0,
            charge_efficiency,
        }
    }

    /// Creates a bank with the paper's 75% efficiency.
    pub fn with_default_efficiency(capacity_kwh: f64) -> Self {
        Self::new(capacity_kwh, Self::DEFAULT_EFFICIENCY)
    }

    /// Offers `kwh` of energy for charging; returns the amount actually
    /// *consumed from the source* (the stored amount is smaller by the
    /// charge efficiency).
    pub fn charge(&mut self, kwh: f64) -> f64 {
        if kwh <= 0.0 || self.capacity_kwh == 0.0 {
            return 0.0;
        }
        let storable = (self.capacity_kwh - self.level_kwh).max(0.0);
        let accepted_source = (kwh).min(storable / self.charge_efficiency);
        let target = self.level_kwh + accepted_source * self.charge_efficiency;
        if target > self.capacity_kwh {
            // The `storable / eff * eff` round-trip can land a few ulps
            // above capacity; clamp the level so `state_of_charge` never
            // exceeds 1, and report what the clamped fill actually
            // consumed so callers' energy books stay balanced.
            // …capped at the offer: rounding must never report consuming
            // more than was made available.
            let accepted = ((self.capacity_kwh - self.level_kwh) / self.charge_efficiency).min(kwh);
            self.level_kwh = self.capacity_kwh;
            accepted
        } else {
            self.level_kwh = target;
            accepted_source
        }
    }

    /// Requests `kwh` of energy; returns the amount actually delivered
    /// (discharge is lossless in the paper's model).
    pub fn discharge(&mut self, kwh: f64) -> f64 {
        if kwh <= 0.0 {
            return 0.0;
        }
        let delivered = kwh.min(self.level_kwh);
        self.level_kwh -= delivered;
        delivered
    }

    /// Shrinks (or restores) the usable capacity to `capacity_kwh` —
    /// lead-acid banks fade over their 4-year life, and fault-injection
    /// scenarios model that as stepwise derating. Negative values clamp to
    /// zero; stored energy above the new capacity is forfeited.
    pub fn derate_to(&mut self, capacity_kwh: f64) {
        self.capacity_kwh = capacity_kwh.max(0.0);
        self.level_kwh = self.level_kwh.min(self.capacity_kwh);
    }

    /// Current stored energy, kWh.
    pub fn level_kwh(&self) -> f64 {
        self.level_kwh
    }

    /// Capacity, kWh.
    pub fn capacity_kwh(&self) -> f64 {
        self.capacity_kwh
    }

    /// Fraction full, in `[0, 1]`.
    pub fn state_of_charge(&self) -> f64 {
        if self.capacity_kwh == 0.0 {
            0.0
        } else {
            self.level_kwh / self.capacity_kwh
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charging_loses_a_quarter() {
        let mut b = Battery::with_default_efficiency(100.0);
        let consumed = b.charge(40.0);
        assert_eq!(consumed, 40.0);
        assert!((b.level_kwh() - 30.0).abs() < 1e-12);
    }

    #[test]
    fn charge_stops_at_capacity() {
        let mut b = Battery::with_default_efficiency(30.0);
        let consumed = b.charge(1000.0);
        // Only 30/0.75 = 40 kWh of source energy is accepted.
        assert!((consumed - 40.0).abs() < 1e-12);
        assert!((b.level_kwh() - 30.0).abs() < 1e-12);
        assert_eq!(b.charge(10.0), 0.0);
        assert_eq!(b.state_of_charge(), 1.0);
    }

    #[test]
    fn discharge_capped_by_level() {
        let mut b = Battery::with_default_efficiency(100.0);
        b.charge(40.0); // 30 stored
        assert_eq!(b.discharge(10.0), 10.0);
        assert_eq!(b.discharge(100.0), 20.0);
        assert_eq!(b.discharge(1.0), 0.0);
        assert_eq!(b.level_kwh(), 0.0);
    }

    #[test]
    fn zero_capacity_is_inert() {
        let mut b = Battery::with_default_efficiency(0.0);
        assert_eq!(b.charge(50.0), 0.0);
        assert_eq!(b.discharge(50.0), 0.0);
        assert_eq!(b.state_of_charge(), 0.0);
    }

    #[test]
    fn negative_requests_are_noops() {
        let mut b = Battery::with_default_efficiency(10.0);
        assert_eq!(b.charge(-5.0), 0.0);
        assert_eq!(b.discharge(-5.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "efficiency")]
    fn rejects_bad_efficiency() {
        Battery::new(10.0, 0.0);
    }

    #[test]
    fn invariant_level_within_bounds_under_random_ops() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        let mut b = Battery::with_default_efficiency(50.0);
        for _ in 0..10_000 {
            if rng.gen_bool(0.5) {
                b.charge(rng.gen_range(0.0..20.0));
            } else {
                b.discharge(rng.gen_range(0.0..20.0));
            }
            // Exact bounds: the post-charge clamp leaves no ulp overshoot.
            assert!(b.level_kwh() >= 0.0);
            assert!(b.level_kwh() <= b.capacity_kwh());
            assert!(b.state_of_charge() <= 1.0);
        }
    }

    #[test]
    fn derating_clamps_level_and_restores() {
        let mut b = Battery::with_default_efficiency(100.0);
        b.charge(80.0); // 60 stored
        b.derate_to(40.0);
        assert_eq!(b.capacity_kwh(), 40.0);
        assert_eq!(b.level_kwh(), 40.0, "overfull energy is forfeited");
        assert_eq!(b.state_of_charge(), 1.0);
        b.derate_to(100.0);
        assert_eq!(b.capacity_kwh(), 100.0);
        assert_eq!(b.level_kwh(), 40.0, "restoring capacity keeps the level");
        b.derate_to(-5.0);
        assert_eq!(b.capacity_kwh(), 0.0, "negative derate clamps to zero");
        assert_eq!(b.level_kwh(), 0.0);
    }

    #[test]
    fn near_full_charge_never_overshoots_capacity() {
        // Irrational-ish efficiency and repeated tiny top-ups drive the
        // `storable / eff * eff` round-trip error that used to push
        // `level_kwh` a few ulps past capacity.
        let mut b = Battery::new(10.0, 0.7300000000000001);
        for _ in 0..1_000 {
            b.charge(0.1 + f64::EPSILON);
        }
        assert!(b.level_kwh() <= b.capacity_kwh());
        assert!(b.state_of_charge() <= 1.0);
        assert!((b.level_kwh() - 10.0).abs() < 1e-9, "still fills up");
    }
}
