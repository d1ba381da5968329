//! Net-metering ledger: the grid as a (constrained) green-energy bank.
//!
//! Surplus green energy pushed into the grid is banked; energy drawn later
//! is netted against the bank at an annual true-up. The utility credits
//! pushed energy at `credit_fraction` of the retail price, but — matching
//! real tariffs and closing the paper's cash-out loophole — total credit
//! revenue can never exceed what the operator actually pays the utility.

/// A per-location net-metering account.
#[derive(Debug, Clone, PartialEq)]
pub struct NetMeter {
    banked_kwh: f64,
    pushed_kwh: f64,
    drawn_kwh: f64,
    credit_fraction: f64,
}

impl NetMeter {
    /// Creates an account crediting pushes at `credit_fraction` (0..=1) of
    /// retail price.
    ///
    /// # Panics
    ///
    /// Panics if `credit_fraction ∉ [0, 1]`.
    pub fn new(credit_fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&credit_fraction),
            "credit fraction must be within [0, 1]"
        );
        Self {
            banked_kwh: 0.0,
            pushed_kwh: 0.0,
            drawn_kwh: 0.0,
            credit_fraction,
        }
    }

    /// Pushes surplus green energy into the grid.
    pub fn push(&mut self, kwh: f64) {
        if kwh > 0.0 {
            self.banked_kwh += kwh;
            self.pushed_kwh += kwh;
        }
    }

    /// Draws banked energy back; returns the amount actually covered by the
    /// bank (the remainder must be bought as brown energy).
    pub fn draw(&mut self, kwh: f64) -> f64 {
        if kwh <= 0.0 {
            return 0.0;
        }
        let covered = kwh.min(self.banked_kwh);
        self.banked_kwh -= covered;
        self.drawn_kwh += covered;
        covered
    }

    /// Currently banked energy, kWh.
    pub fn banked_kwh(&self) -> f64 {
        self.banked_kwh
    }

    /// Total energy pushed since creation, kWh.
    pub fn pushed_kwh(&self) -> f64 {
        self.pushed_kwh
    }

    /// Total energy drawn back since creation, kWh.
    pub fn drawn_kwh(&self) -> f64 {
        self.drawn_kwh
    }

    /// Net energy cost at the annual true-up, given the retail price and the
    /// operator's direct brown-energy purchase.
    ///
    /// Credits apply at `credit_fraction · price` per pushed kWh but are
    /// capped at the total amount payable — the utility never writes a
    /// cheque (no cash-out).
    pub fn settle_usd(&self, price_usd_per_kwh: f64, brown_kwh: f64) -> f64 {
        let payable = (brown_kwh + self.drawn_kwh) * price_usd_per_kwh;
        let credit = (self.pushed_kwh * self.credit_fraction * price_usd_per_kwh).min(payable);
        payable - credit
    }
}

impl Default for NetMeter {
    /// Full-retail-price crediting, the paper's base assumption.
    fn default() -> Self {
        Self::new(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_then_draw_round_trips() {
        let mut nm = NetMeter::default();
        nm.push(100.0);
        assert_eq!(nm.draw(60.0), 60.0);
        assert_eq!(nm.banked_kwh(), 40.0);
        assert_eq!(nm.draw(100.0), 40.0);
        assert_eq!(nm.banked_kwh(), 0.0);
    }

    #[test]
    fn draw_beyond_bank_is_partial() {
        let mut nm = NetMeter::default();
        nm.push(10.0);
        assert_eq!(nm.draw(25.0), 10.0);
    }

    #[test]
    fn full_credit_storage_is_free() {
        // Push 100, draw 100 back: pays nothing at 100% credit.
        let mut nm = NetMeter::default();
        nm.push(100.0);
        nm.draw(100.0);
        assert_eq!(nm.settle_usd(0.09, 0.0), 0.0);
    }

    #[test]
    fn partial_credit_charges_the_cycled_energy() {
        // At 50% credit, cycling 100 kWh costs 100·price − 50·price.
        let mut nm = NetMeter::new(0.5);
        nm.push(100.0);
        nm.draw(100.0);
        let cost = nm.settle_usd(0.10, 0.0);
        assert!((cost - 5.0).abs() < 1e-12);
    }

    #[test]
    fn no_cash_out() {
        // Pushing without consuming earns nothing: the loophole the paper's
        // literal brownCost formula would allow is closed.
        let mut nm = NetMeter::default();
        nm.push(1_000_000.0);
        assert_eq!(nm.settle_usd(0.10, 0.0), 0.0);
        // …but the credit does offset brown purchases.
        let cost_with_brown = nm.settle_usd(0.10, 500.0);
        assert_eq!(cost_with_brown, 0.0);
    }

    #[test]
    fn credit_offsets_brown_purchases() {
        let mut nm = NetMeter::new(1.0);
        nm.push(300.0);
        // 500 kWh brown at $0.1: payable $50, credit min(30, 50) = 30.
        assert!((nm.settle_usd(0.10, 500.0) - 20.0).abs() < 1e-12);
    }

    #[test]
    fn negative_amounts_ignored() {
        let mut nm = NetMeter::default();
        nm.push(-5.0);
        assert_eq!(nm.banked_kwh(), 0.0);
        assert_eq!(nm.draw(-5.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "credit fraction")]
    fn rejects_bad_credit() {
        NetMeter::new(1.5);
    }
}
