//! Inter-datacenter WAN links and live-migration timing.
//!
//! The paper measured VPN bandwidth between Barcelona and Piscataway: a VM
//! with memory + dirty disk data totalling over 750 MB migrated in under an
//! hour (≈ 1.7 Mbps effective). A real service would use leased links; the
//! model therefore takes a configurable per-link bandwidth and computes
//! pre-copy live-migration duration: iterative memory copy rounds against
//! the dirty rate, plus the unreplicated disk blocks GDFS must ship.

/// A WAN model with uniform bandwidth between every datacenter pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WanModel {
    /// Effective migration bandwidth per link, Mbit/s.
    pub bandwidth_mbps: f64,
    /// Pre-copy stop conditions: maximum copy rounds before stop-and-copy.
    pub max_precopy_rounds: u32,
}

impl Default for WanModel {
    /// The paper's measured VPN link: 750 MB of memory + dirty disk data
    /// migrate in just under an hour (including pre-copy re-sends).
    fn default() -> Self {
        Self {
            bandwidth_mbps: 1.9,
            max_precopy_rounds: 4,
        }
    }
}

impl WanModel {
    /// A leased-line model (`mbps` megabits per second).
    pub fn leased(mbps: f64) -> Self {
        Self {
            bandwidth_mbps: mbps,
            ..Self::default()
        }
    }

    /// Bandwidth in MB/s.
    pub fn mb_per_s(&self) -> f64 {
        self.bandwidth_mbps / 8.0
    }

    /// This link with its bandwidth scaled by `factor` (fault-injection
    /// WAN degradation; `factor ≤ 0` models a partition).
    pub fn degraded(&self, factor: f64) -> Self {
        Self {
            bandwidth_mbps: self.bandwidth_mbps * factor.max(0.0),
            ..*self
        }
    }

    /// Duration of a pre-copy live migration, in hours.
    ///
    /// `mem_mb` is the VM's memory, `dirty_mb_per_hour` its write rate, and
    /// `disk_payload_mb` the unreplicated disk blocks that must move (GDFS
    /// ships only those). Live migration iterates: each round re-sends the
    /// memory dirtied during the previous round; after
    /// `max_precopy_rounds` (or when the dirty set stops shrinking) the VM
    /// briefly stops and the remainder is copied.
    ///
    /// A dead link (bandwidth ≤ 0, e.g. a WAN partition) returns
    /// `f64::INFINITY` — the transfer never completes — rather than
    /// panicking; callers decide whether to park or retry.
    pub fn migration_hours(
        &self,
        mem_mb: f64,
        dirty_mb_per_hour: f64,
        disk_payload_mb: f64,
    ) -> f64 {
        let bw_mb_h = self.mb_per_s() * 3600.0;
        if bw_mb_h <= 0.0 {
            return if mem_mb.max(0.0) + disk_payload_mb.max(0.0) > 0.0 {
                f64::INFINITY
            } else {
                0.0
            };
        }
        let dirty_per_hour = dirty_mb_per_hour.max(0.0);

        // Disk payload streams first (GDFS background copy).
        let mut total_mb = disk_payload_mb.max(0.0);

        // Pre-copy rounds over memory.
        let mut round_mb = mem_mb.max(0.0);
        for _ in 0..self.max_precopy_rounds {
            total_mb += round_mb;
            let round_h = round_mb / bw_mb_h;
            let next = dirty_per_hour * round_h;
            if next >= round_mb * 0.9 {
                // Dirty rate ≈ bandwidth: pre-copy cannot converge further.
                break;
            }
            round_mb = next;
            if round_mb < 1.0 {
                break;
            }
        }
        // Final stop-and-copy of the residual round.
        total_mb += round_mb.min(mem_mb);
        total_mb / bw_mb_h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_vpn_moves_750mb_in_under_an_hour() {
        let wan = WanModel::default();
        // 512 MB memory + 238 MB unreplicated disk ≈ the paper's 750 MB.
        let h = wan.migration_hours(512.0, 110.0, 238.0);
        assert!(h < 1.0, "took {h} hours");
        assert!(h > 0.5, "suspiciously fast: {h} hours");
    }

    #[test]
    fn faster_links_migrate_faster() {
        let slow = WanModel::default().migration_hours(512.0, 110.0, 200.0);
        let fast = WanModel::leased(100.0).migration_hours(512.0, 110.0, 200.0);
        assert!(fast < slow / 10.0);
    }

    #[test]
    fn dirty_rate_inflates_duration() {
        let wan = WanModel::leased(10.0);
        let idle = wan.migration_hours(2048.0, 0.0, 0.0);
        let busy = wan.migration_hours(2048.0, 2000.0, 0.0);
        assert!(busy > idle);
    }

    #[test]
    fn zero_memory_zero_payload_is_instant() {
        let wan = WanModel::default();
        assert_eq!(wan.migration_hours(0.0, 0.0, 0.0), 0.0);
    }

    #[test]
    fn dead_link_is_infinite_not_a_panic() {
        let wan = WanModel::leased(0.0);
        assert_eq!(wan.migration_hours(512.0, 50.0, 100.0), f64::INFINITY);
        assert_eq!(wan.migration_hours(0.0, 0.0, 0.0), 0.0, "nothing to move");
        let partitioned = WanModel::default().degraded(0.0);
        assert_eq!(partitioned.bandwidth_mbps, 0.0);
        assert_eq!(partitioned.migration_hours(512.0, 50.0, 0.0), f64::INFINITY);
    }

    #[test]
    fn degraded_scales_bandwidth() {
        let wan = WanModel::leased(100.0);
        let half = wan.degraded(0.5);
        assert_eq!(half.bandwidth_mbps, 50.0);
        let slow = half.migration_hours(512.0, 50.0, 200.0);
        let fast = wan.migration_hours(512.0, 50.0, 200.0);
        assert!(slow > fast * 1.5);
        assert_eq!(wan.degraded(-1.0).bandwidth_mbps, 0.0, "negative clamps");
    }

    #[test]
    fn duration_scales_roughly_linearly_with_payload() {
        let wan = WanModel::leased(50.0);
        let one = wan.migration_hours(512.0, 50.0, 1000.0);
        let two = wan.migration_hours(512.0, 50.0, 2000.0);
        assert!(two > one * 1.3 && two < one * 2.2);
    }
}
