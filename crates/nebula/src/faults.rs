//! Deterministic fault injection for the GreenNebula emulation.
//!
//! The paper sizes the network off an analytic availability model
//! (`1 − (1−a)^n`, Uptime tier probabilities) and a survivability rule, but
//! never actually kills a site. This module turns those on-paper failure
//! assumptions into reproducible *schedules* of discrete fault events that
//! the emulation replays through its simulation kernel:
//!
//! * **Site outages** drawn from the tier availability model: each site is
//!   an independent two-state (up/down) Markov chain whose per-hour failure
//!   and repair probabilities are derived from the configured availability
//!   `a` and mean time to repair `r` (`MTBF = r·a/(1−a)`), so the long-run
//!   down fraction converges to `1 − a`.
//! * **Grid blackouts/brownouts**: the utility feed fails per-site; brown
//!   power (and the net-metering bank, which *is* the grid) is capped at a
//!   residual factor (0 = blackout) while the fault is active.
//! * **WAN degradation and partitions**: the inter-datacenter links lose
//!   bandwidth network-wide (residual factor 0 = partition), stretching or
//!   stalling migrations and evacuations.
//! * **Forecast shocks**: actual green production at a site drops to a
//!   fraction of the forecast the scheduler planned against (storms the
//!   predictor did not see).
//! * **Battery capacity fade**: stepwise derating of the usable bank,
//!   the lead-acid aging the cost model amortizes.
//!
//! Schedules are generated up front from a seed (overridable with the
//! `GC_FAULT_SEED` environment variable so CI can pin determinism), use
//! per-`(kind, site)` counter-mixed [`ChaCha8Rng`] streams — adding a fault
//! class never perturbs another class's draws — and are byte-identical
//! across replays of the same `(spec, sites, hours)`.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The fault taxonomy (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A whole datacenter goes dark: no IT capacity, no green plant.
    SiteOutage,
    /// The utility feed fails at one site (blackout or brownout).
    GridOutage,
    /// Inter-datacenter WAN bandwidth drops network-wide.
    WanDegraded,
    /// Actual green production falls short of the forecast at one site.
    ForecastShock,
    /// A site's battery bank permanently loses usable capacity.
    BatteryFade,
}

impl FaultKind {
    /// Stable wire name (used by the spec JSON codec).
    pub fn as_str(&self) -> &'static str {
        match self {
            FaultKind::SiteOutage => "site_outage",
            FaultKind::GridOutage => "grid_outage",
            FaultKind::WanDegraded => "wan_degraded",
            FaultKind::ForecastShock => "forecast_shock",
            FaultKind::BatteryFade => "battery_fade",
        }
    }

    /// Parses a wire name back into a kind.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "site_outage" => FaultKind::SiteOutage,
            "grid_outage" => FaultKind::GridOutage,
            "wan_degraded" => FaultKind::WanDegraded,
            "forecast_shock" => FaultKind::ForecastShock,
            "battery_fade" => FaultKind::BatteryFade,
            _ => return None,
        })
    }
}

/// A hand-placed fault on top of the drawn schedule (reproducible chaos
/// experiments: "kill Harare at hour 6 for 12 hours").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduledFault {
    /// What fails.
    pub kind: FaultKind,
    /// Target site index, or `None` for network-wide kinds
    /// ([`FaultKind::WanDegraded`]).
    pub site: Option<usize>,
    /// Hour (since run start) the fault sets in.
    pub start_hour: usize,
    /// Hours until it clears ([`FaultKind::BatteryFade`] never clears).
    pub duration_hours: usize,
    /// Kind-specific magnitude: residual grid/WAN factor, green factor for
    /// shocks, or remaining capacity fraction for battery fade. Ignored for
    /// site outages.
    pub magnitude: f64,
}

/// Fault-injection parameters: which failure processes run and how hard.
///
/// The default is entirely quiet (no drawn faults, nothing scheduled), so
/// `FaultSpec::default()` attached to an emulation reproduces the fault-free
/// run plus an all-zero resilience report.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Seed for the drawn fault streams (`GC_FAULT_SEED` overrides).
    pub seed: u64,
    /// Per-site availability `a ∈ (0, 1]` driving drawn site outages
    /// (e.g. Uptime Tier I = 0.9967); `None` disables them.
    pub site_availability: Option<f64>,
    /// Mean time to repair a site outage, hours.
    pub site_mttr_hours: f64,
    /// Drawn grid faults per site per 1000 hours (0 disables).
    pub grid_outage_rate_per_khour: f64,
    /// Mean time to repair a grid fault, hours.
    pub grid_mttr_hours: f64,
    /// Brown-capacity factor while a drawn grid fault is active
    /// (0 = blackout, 0.5 = brownout at half capacity).
    pub grid_residual_factor: f64,
    /// Drawn WAN incidents per 1000 hours, network-wide (0 disables).
    pub wan_outage_rate_per_khour: f64,
    /// Mean time to repair a WAN incident, hours.
    pub wan_mttr_hours: f64,
    /// Bandwidth factor during a drawn WAN incident (0 = partition).
    pub wan_residual_factor: f64,
    /// Drawn forecast shocks per site per 1000 hours (0 disables).
    pub shock_rate_per_khour: f64,
    /// Mean shock duration, hours.
    pub shock_mttr_hours: f64,
    /// Actual-green factor during a drawn shock.
    pub shock_green_factor: f64,
    /// Fractional battery capacity lost per 1000 hours (applied as
    /// stepwise monthly derating events; 0 disables).
    pub battery_fade_per_khour: f64,
    /// Hand-placed faults layered on top of the drawn streams.
    pub scheduled: Vec<ScheduledFault>,
}

impl Default for FaultSpec {
    fn default() -> Self {
        Self {
            seed: 7,
            site_availability: None,
            site_mttr_hours: 12.0,
            grid_outage_rate_per_khour: 0.0,
            grid_mttr_hours: 4.0,
            grid_residual_factor: 0.0,
            wan_outage_rate_per_khour: 0.0,
            wan_mttr_hours: 2.0,
            wan_residual_factor: 0.0,
            shock_rate_per_khour: 0.0,
            shock_mttr_hours: 6.0,
            shock_green_factor: 0.25,
            battery_fade_per_khour: 0.0,
            scheduled: Vec::new(),
        }
    }
}

impl FaultSpec {
    /// A spec drawing site outages from tier availability `a` (everything
    /// else quiet).
    pub fn tier(a: f64) -> Self {
        Self {
            site_availability: Some(a),
            ..Self::default()
        }
    }

    /// The seed actually used: `GC_FAULT_SEED` (when set and parseable)
    /// wins over the spec, so CI can pin a whole suite to one stream.
    pub fn effective_seed(&self) -> u64 {
        match std::env::var("GC_FAULT_SEED") {
            Ok(s) => s.trim().parse().unwrap_or(self.seed),
            Err(_) => self.seed,
        }
    }

    /// Validates the spec against a network of `n_sites` datacenters.
    ///
    /// # Errors
    ///
    /// A description of the first offending field.
    pub fn validate(&self, n_sites: usize) -> Result<(), String> {
        if let Some(a) = self.site_availability {
            if !(a > 0.0 && a <= 1.0) {
                return Err(format!("site availability {a} outside (0, 1]"));
            }
        }
        for (label, mttr) in [
            ("site", self.site_mttr_hours),
            ("grid", self.grid_mttr_hours),
            ("wan", self.wan_mttr_hours),
            ("shock", self.shock_mttr_hours),
        ] {
            if mttr <= 0.0 || mttr.is_nan() {
                return Err(format!("{label} MTTR {mttr} must be positive"));
            }
        }
        for (label, rate) in [
            ("grid", self.grid_outage_rate_per_khour),
            ("wan", self.wan_outage_rate_per_khour),
            ("shock", self.shock_rate_per_khour),
        ] {
            if !(0.0..=1000.0).contains(&rate) {
                return Err(format!("{label} rate {rate}/khour outside [0, 1000]"));
            }
        }
        for (label, f) in [
            ("grid residual", self.grid_residual_factor),
            ("wan residual", self.wan_residual_factor),
            ("shock green", self.shock_green_factor),
        ] {
            if !(0.0..=1.0).contains(&f) {
                return Err(format!("{label} factor {f} outside [0, 1]"));
            }
        }
        if !(0.0..=1000.0).contains(&self.battery_fade_per_khour) {
            return Err(format!(
                "battery fade {}/khour outside [0, 1000]",
                self.battery_fade_per_khour
            ));
        }
        for (i, s) in self.scheduled.iter().enumerate() {
            match (s.kind, s.site) {
                (FaultKind::WanDegraded, _) => {}
                (_, Some(site)) if site < n_sites => {}
                (_, Some(site)) => {
                    return Err(format!(
                        "scheduled[{i}]: site {site} out of range (network has {n_sites})"
                    ));
                }
                (_, None) => {
                    return Err(format!(
                        "scheduled[{i}]: {} needs a target site",
                        s.kind.as_str()
                    ));
                }
            }
            if !(0.0..=1.0).contains(&s.magnitude) {
                return Err(format!(
                    "scheduled[{i}]: magnitude {} outside [0, 1]",
                    s.magnitude
                ));
            }
        }
        Ok(())
    }

    /// `true` when the spec can produce at least one fault.
    pub fn is_quiet(&self) -> bool {
        self.site_availability.is_none()
            && self.grid_outage_rate_per_khour == 0.0
            && self.wan_outage_rate_per_khour == 0.0
            && self.shock_rate_per_khour == 0.0
            && self.battery_fade_per_khour == 0.0
            && self.scheduled.is_empty()
    }
}

/// One state transition in the fault timeline. Onsets and clears are
/// separate events so overlapping faults nest (the emulation keeps depth
/// counters per affected resource).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultChange {
    /// Site goes dark.
    SiteDown {
        /// Failed site index.
        site: usize,
    },
    /// Site power/cooling restored.
    SiteUp {
        /// Recovered site index.
        site: usize,
    },
    /// Utility feed fails at a site.
    GridDown {
        /// Affected site index.
        site: usize,
        /// Residual brown-capacity factor in `[0, 1]` (0 = blackout).
        residual: f64,
    },
    /// Utility feed restored.
    GridUp {
        /// Recovered site index.
        site: usize,
    },
    /// WAN bandwidth drops network-wide.
    WanDegraded {
        /// Residual bandwidth factor in `[0, 1]` (0 = partition).
        factor: f64,
    },
    /// WAN bandwidth restored.
    WanRestored,
    /// Actual green production drops below forecast at a site.
    ShockStart {
        /// Affected site index.
        site: usize,
        /// Actual-green factor in `[0, 1]`.
        factor: f64,
    },
    /// Green production back on forecast.
    ShockEnd {
        /// Recovered site index.
        site: usize,
    },
    /// Battery bank derated to a fraction of its installed capacity
    /// (monotone in a drawn schedule; never "clears").
    BatteryFade {
        /// Affected site index.
        site: usize,
        /// Remaining usable fraction of the installed capacity.
        factor: f64,
    },
}

impl FaultChange {
    /// `true` for transitions that *start* a fault (used for incident
    /// counting; clears and fade steps return `false`).
    pub fn is_onset(&self) -> bool {
        matches!(
            self,
            FaultChange::SiteDown { .. }
                | FaultChange::GridDown { .. }
                | FaultChange::WanDegraded { .. }
                | FaultChange::ShockStart { .. }
        )
    }
}

/// A [`FaultChange`] pinned to an hour of the run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultTransition {
    /// Hour since run start at which the change applies (before that
    /// hour's scheduling round).
    pub hour: usize,
    /// The state change.
    pub change: FaultChange,
}

/// The full, materialized fault timeline for one run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultSchedule {
    /// Transitions sorted by hour; ties keep generation order (site
    /// streams first, then grid, WAN, shocks, fade, then scheduled), so
    /// replay is deterministic.
    pub transitions: Vec<FaultTransition>,
}

/// SplitMix64-style finalizer decorrelating per-`(kind, site)` streams.
fn stream_rng(seed: u64, kind: u64, site: u64) -> ChaCha8Rng {
    let mut z =
        seed ^ kind.wrapping_mul(0xA076_1D64_78BD_642F) ^ site.wrapping_mul(0xE703_7ED1_A0B4_28DB);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ChaCha8Rng::seed_from_u64(z ^ (z >> 31))
}

/// Simulates a two-state per-hour Markov chain (start: up) and returns the
/// hours at which it flips, as `(hour, now_down)` pairs.
fn two_state_flips(
    rng: &mut ChaCha8Rng,
    hours: usize,
    p_fail: f64,
    p_repair: f64,
) -> Vec<(usize, bool)> {
    let p_fail = p_fail.clamp(0.0, 1.0);
    let p_repair = p_repair.clamp(0.0, 1.0);
    let mut down = false;
    let mut flips = Vec::new();
    for h in 0..hours {
        let u: f64 = rng.gen();
        let flip = if down { u < p_repair } else { u < p_fail };
        if flip {
            down = !down;
            flips.push((h, down));
        }
    }
    flips
}

impl FaultSchedule {
    /// Materializes the fault timeline for `n_sites` sites over `hours`
    /// hours. Deterministic in `(spec, n_sites, hours)` and the effective
    /// seed; an empty spec yields an empty schedule.
    pub fn generate(spec: &FaultSpec, n_sites: usize, hours: usize) -> Self {
        let seed = spec.effective_seed();
        let mut out: Vec<FaultTransition> = Vec::new();

        // Drawn site outages: availability a and MTTR r give the per-hour
        // chain p_repair = 1/r, p_fail = p_repair·(1−a)/a, whose stationary
        // down fraction is exactly 1−a.
        if let Some(a) = spec.site_availability {
            if a < 1.0 {
                let p_repair = 1.0 / spec.site_mttr_hours;
                let p_fail = p_repair * (1.0 - a) / a;
                for site in 0..n_sites {
                    let mut rng = stream_rng(seed, 1, site as u64);
                    for (hour, down) in two_state_flips(&mut rng, hours, p_fail, p_repair) {
                        let change = if down {
                            FaultChange::SiteDown { site }
                        } else {
                            FaultChange::SiteUp { site }
                        };
                        out.push(FaultTransition { hour, change });
                    }
                }
            }
        }

        // Drawn grid faults per site.
        if spec.grid_outage_rate_per_khour > 0.0 {
            let p_fail = spec.grid_outage_rate_per_khour / 1000.0;
            let p_repair = 1.0 / spec.grid_mttr_hours;
            for site in 0..n_sites {
                let mut rng = stream_rng(seed, 2, site as u64);
                for (hour, down) in two_state_flips(&mut rng, hours, p_fail, p_repair) {
                    let change = if down {
                        FaultChange::GridDown {
                            site,
                            residual: spec.grid_residual_factor,
                        }
                    } else {
                        FaultChange::GridUp { site }
                    };
                    out.push(FaultTransition { hour, change });
                }
            }
        }

        // Drawn WAN incidents, one network-wide chain.
        if spec.wan_outage_rate_per_khour > 0.0 {
            let p_fail = spec.wan_outage_rate_per_khour / 1000.0;
            let p_repair = 1.0 / spec.wan_mttr_hours;
            let mut rng = stream_rng(seed, 3, u64::MAX);
            for (hour, down) in two_state_flips(&mut rng, hours, p_fail, p_repair) {
                let change = if down {
                    FaultChange::WanDegraded {
                        factor: spec.wan_residual_factor,
                    }
                } else {
                    FaultChange::WanRestored
                };
                out.push(FaultTransition { hour, change });
            }
        }

        // Drawn forecast shocks per site.
        if spec.shock_rate_per_khour > 0.0 {
            let p_fail = spec.shock_rate_per_khour / 1000.0;
            let p_repair = 1.0 / spec.shock_mttr_hours;
            for site in 0..n_sites {
                let mut rng = stream_rng(seed, 4, site as u64);
                for (hour, down) in two_state_flips(&mut rng, hours, p_fail, p_repair) {
                    let change = if down {
                        FaultChange::ShockStart {
                            site,
                            factor: spec.shock_green_factor,
                        }
                    } else {
                        FaultChange::ShockEnd { site }
                    };
                    out.push(FaultTransition { hour, change });
                }
            }
        }

        // Battery fade: stepwise monthly derating, purely deterministic.
        if spec.battery_fade_per_khour > 0.0 {
            let mut hour = 720;
            while hour < hours {
                let factor = (1.0 - spec.battery_fade_per_khour * hour as f64 / 1000.0).max(0.0);
                for site in 0..n_sites {
                    out.push(FaultTransition {
                        hour,
                        change: FaultChange::BatteryFade { site, factor },
                    });
                }
                hour += 720;
            }
        }

        // Hand-placed faults (validated upstream).
        for s in &spec.scheduled {
            let site = s.site.unwrap_or(0);
            let (onset, clear) = match s.kind {
                FaultKind::SiteOutage => (
                    FaultChange::SiteDown { site },
                    Some(FaultChange::SiteUp { site }),
                ),
                FaultKind::GridOutage => (
                    FaultChange::GridDown {
                        site,
                        residual: s.magnitude,
                    },
                    Some(FaultChange::GridUp { site }),
                ),
                FaultKind::WanDegraded => (
                    FaultChange::WanDegraded {
                        factor: s.magnitude,
                    },
                    Some(FaultChange::WanRestored),
                ),
                FaultKind::ForecastShock => (
                    FaultChange::ShockStart {
                        site,
                        factor: s.magnitude,
                    },
                    Some(FaultChange::ShockEnd { site }),
                ),
                FaultKind::BatteryFade => (
                    FaultChange::BatteryFade {
                        site,
                        factor: s.magnitude,
                    },
                    None,
                ),
            };
            if s.start_hour < hours {
                out.push(FaultTransition {
                    hour: s.start_hour,
                    change: onset,
                });
                if let Some(clear) = clear {
                    let end = s.start_hour.saturating_add(s.duration_hours);
                    if end < hours {
                        out.push(FaultTransition {
                            hour: end,
                            change: clear,
                        });
                    }
                }
            }
        }

        out.sort_by_key(|t| t.hour); // stable: ties keep generation order
        FaultSchedule { transitions: out }
    }

    /// Fraction of `[0, hours)` site `site` spends dark, by replaying the
    /// timeline with the same depth counting the emulation uses.
    pub fn site_down_fraction(&self, site: usize, hours: usize) -> f64 {
        if hours == 0 {
            return 0.0;
        }
        let mut depth = 0u32;
        let mut down_hours = 0usize;
        let mut cursor = 0usize;
        let advance = |from: usize, to: usize, depth: u32, down: &mut usize| {
            if depth > 0 {
                *down += to - from;
            }
        };
        for t in &self.transitions {
            let h = t.hour.min(hours);
            advance(cursor, h, depth, &mut down_hours);
            cursor = h;
            if t.hour >= hours {
                break;
            }
            match t.change {
                FaultChange::SiteDown { site: s } if s == site => depth += 1,
                FaultChange::SiteUp { site: s } if s == site => depth = depth.saturating_sub(1),
                _ => {}
            }
        }
        advance(cursor, hours, depth, &mut down_hours);
        down_hours as f64 / hours as f64
    }

    /// Number of onset transitions (incident starts) in the timeline.
    pub fn onsets(&self) -> usize {
        self.transitions
            .iter()
            .filter(|t| t.change.is_onset())
            .count()
    }
}

/// Resilience statistics accumulated by a fault-injected emulation run
/// (the payload of the `greencloud-resilience/1` report body).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResilienceReport {
    /// Fault transitions applied during the run (onsets + clears + fade
    /// steps).
    pub fault_events: usize,
    /// Site-outage incidents that set in.
    pub site_outages: usize,
    /// Grid-fault incidents that set in.
    pub grid_outages: usize,
    /// WAN-degradation incidents that set in.
    pub wan_outages: usize,
    /// Forecast-shock incidents that set in.
    pub forecast_shocks: usize,
    /// Total site-hours spent dark.
    pub site_down_hours: f64,
    /// VM-hours lost to evacuation transfers and parking.
    pub vm_downtime_hours: f64,
    /// VM-hours spent parked because no surviving site had headroom (or
    /// the WAN was partitioned) — demand the degraded network shed.
    pub shed_vm_hours: f64,
    /// Emergency evacuation transfers started.
    pub evacuations: usize,
    /// Data shipped by evacuations, GB.
    pub evacuated_gb: f64,
    /// Displaced VMs restored to service.
    pub recoveries: usize,
    /// Mean time from displacement to restored service, hours (0 when
    /// nothing was displaced).
    pub mean_recovery_hours: f64,
    /// Served VM-hours over requested VM-hours, in `[0, 1]` — the
    /// empirical SLO attainment.
    pub slo_attainment: f64,
    /// Energy demand that could not be served at all (grid dark, storage
    /// empty), MWh.
    pub unserved_mwh: f64,
    /// Brown energy consumed during hours with at least one active fault,
    /// MWh.
    pub incident_brown_mwh: f64,
    /// Retail cost of that incident brown energy, USD.
    pub incident_cost_usd: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_spec_yields_empty_schedule() {
        let spec = FaultSpec::default();
        assert!(spec.is_quiet());
        let s = FaultSchedule::generate(&spec, 3, 8760);
        assert!(s.transitions.is_empty());
        assert_eq!(s.site_down_fraction(0, 8760), 0.0);
    }

    #[test]
    fn schedules_are_seed_deterministic() {
        let spec = FaultSpec {
            grid_outage_rate_per_khour: 5.0,
            wan_outage_rate_per_khour: 2.0,
            shock_rate_per_khour: 3.0,
            ..FaultSpec::tier(0.9967)
        };
        let a = FaultSchedule::generate(&spec, 3, 2000);
        let b = FaultSchedule::generate(&spec, 3, 2000);
        assert_eq!(a, b);
        let other = FaultSchedule::generate(
            &FaultSpec {
                seed: 8,
                ..spec.clone()
            },
            3,
            2000,
        );
        assert_ne!(a, other, "different seeds draw different timelines");
    }

    #[test]
    fn transitions_alternate_and_are_sorted() {
        let spec = FaultSpec::tier(0.98); // failure-heavy for density
        let s = FaultSchedule::generate(&spec, 2, 5000);
        assert!(!s.transitions.is_empty());
        assert!(
            s.transitions.windows(2).all(|w| w[0].hour <= w[1].hour),
            "sorted by hour"
        );
        // Per site, down/up must strictly alternate starting with down.
        for site in 0..2 {
            let mut down = false;
            for t in &s.transitions {
                match t.change {
                    FaultChange::SiteDown { site: x } if x == site => {
                        assert!(!down, "double down at hour {}", t.hour);
                        down = true;
                    }
                    FaultChange::SiteUp { site: x } if x == site => {
                        assert!(down, "up without down at hour {}", t.hour);
                        down = false;
                    }
                    _ => {}
                }
            }
        }
    }

    /// The statistical acceptance check at schedule level: over many
    /// simulated site-years, the drawn down fraction must match `1 − a`
    /// within generous confidence bounds (down-time arrives in geometric
    /// runs of mean `MTTR`, so the effective sample is `N/MTTR`; the
    /// [0.6, 1.4]× band is ≈ 4σ at this size for any seed).
    #[test]
    fn outage_frequency_matches_tier_availability() {
        let a = 0.9967; // Uptime Tier I
        let spec = FaultSpec::tier(a);
        let sites = 50;
        let hours = 8760;
        let s = FaultSchedule::generate(&spec, sites, hours);
        let mean_down: f64 = (0..sites)
            .map(|i| s.site_down_fraction(i, hours))
            .sum::<f64>()
            / sites as f64;
        let expected = 1.0 - a;
        assert!(
            mean_down > 0.6 * expected && mean_down < 1.4 * expected,
            "drawn unavailability {mean_down:.5} vs expected {expected:.5}"
        );
        assert!(s.onsets() > 0, "a tier-I year draws real incidents");
    }

    #[test]
    fn scheduled_faults_are_placed_verbatim() {
        let spec = FaultSpec {
            scheduled: vec![
                ScheduledFault {
                    kind: FaultKind::SiteOutage,
                    site: Some(1),
                    start_hour: 6,
                    duration_hours: 12,
                    magnitude: 0.0,
                },
                ScheduledFault {
                    kind: FaultKind::WanDegraded,
                    site: None,
                    start_hour: 2,
                    duration_hours: 3,
                    magnitude: 0.5,
                },
                ScheduledFault {
                    kind: FaultKind::BatteryFade,
                    site: Some(0),
                    start_hour: 10,
                    duration_hours: 0,
                    magnitude: 0.8,
                },
            ],
            ..FaultSpec::default()
        };
        assert!(spec.validate(3).is_ok());
        let s = FaultSchedule::generate(&spec, 3, 24);
        assert_eq!(s.transitions.len(), 5, "2 onsets + 2 clears + 1 fade");
        assert_eq!(s.site_down_fraction(1, 24), 12.0 / 24.0);
        assert_eq!(s.site_down_fraction(0, 24), 0.0);
        assert!(s
            .transitions
            .iter()
            .any(|t| t.change == FaultChange::WanDegraded { factor: 0.5 } && t.hour == 2));
        assert!(s
            .transitions
            .iter()
            .any(|t| t.change == FaultChange::WanRestored && t.hour == 5));
        assert!(s.transitions.iter().any(|t| t.change
            == FaultChange::BatteryFade {
                site: 0,
                factor: 0.8
            }));
    }

    #[test]
    fn outage_spanning_the_horizon_never_clears() {
        let spec = FaultSpec {
            scheduled: vec![ScheduledFault {
                kind: FaultKind::SiteOutage,
                site: Some(0),
                start_hour: 20,
                duration_hours: 100,
                magnitude: 0.0,
            }],
            ..FaultSpec::default()
        };
        let s = FaultSchedule::generate(&spec, 1, 24);
        assert_eq!(s.transitions.len(), 1, "clear falls past the horizon");
        assert_eq!(s.site_down_fraction(0, 24), 4.0 / 24.0);
    }

    #[test]
    fn validation_rejects_bad_inputs() {
        assert!(FaultSpec::tier(1.5).validate(3).is_err());
        assert!(FaultSpec::tier(0.0).validate(3).is_err());
        let bad_site = FaultSpec {
            scheduled: vec![ScheduledFault {
                kind: FaultKind::SiteOutage,
                site: Some(9),
                start_hour: 0,
                duration_hours: 1,
                magnitude: 0.0,
            }],
            ..FaultSpec::default()
        };
        assert!(bad_site.validate(3).is_err());
        let no_site = FaultSpec {
            scheduled: vec![ScheduledFault {
                kind: FaultKind::GridOutage,
                site: None,
                start_hour: 0,
                duration_hours: 1,
                magnitude: 0.0,
            }],
            ..FaultSpec::default()
        };
        assert!(no_site.validate(3).is_err());
        let bad_mttr = FaultSpec {
            site_mttr_hours: 0.0,
            ..FaultSpec::default()
        };
        assert!(bad_mttr.validate(3).is_err());
        assert!(FaultSpec::tier(1.0).validate(3).is_ok(), "a == 1 is quiet");
        assert!(
            FaultSchedule::generate(&FaultSpec::tier(1.0), 3, 100)
                .transitions
                .is_empty(),
            "perfect availability draws nothing"
        );
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in [
            FaultKind::SiteOutage,
            FaultKind::GridOutage,
            FaultKind::WanDegraded,
            FaultKind::ForecastShock,
            FaultKind::BatteryFade,
        ] {
            assert_eq!(FaultKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(FaultKind::parse("meteor_strike"), None);
    }
}
