//! Itemized monthly cost of a provisioned datacenter (Table I / Fig. 7).

use crate::finance::{land_monthly_cost, monthly_cost};
use crate::params::CostParams;
use greencloud_climate::economics::Economics;

/// Physical sizing of one datacenter and its on-site plants.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Provisioning {
    /// IT compute capacity, kW (the paper's `capacity(d)`).
    pub capacity_kw: f64,
    /// Maximum PUE at the site (sizes power/cooling: `maxPUE(d)`).
    pub max_pue: f64,
    /// Installed solar capacity, kW.
    pub solar_kw: f64,
    /// Installed wind capacity, kW.
    pub wind_kw: f64,
    /// Battery bank size, kWh.
    pub batt_kwh: f64,
}

impl Provisioning {
    /// Maximum electrical power of the datacenter, kW (capacity × maxPUE).
    pub fn max_power_kw(&self) -> f64 {
        self.capacity_kw * self.max_pue
    }
}

/// Monthly cost components of one sited datacenter, in $/month.
///
/// The component split matches the paper's Fig. 7 stack: datacenter
/// building, IT equipment, grid/network connections, land, green plants,
/// batteries, network bandwidth, and brown energy.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostBreakdown {
    /// Datacenter construction (power + cooling infrastructure).
    pub building_dc: f64,
    /// Servers and switches (4-year refresh).
    pub it_equipment: f64,
    /// Land financing (datacenter + plant footprints).
    pub land: f64,
    /// Solar plant construction.
    pub building_solar: f64,
    /// Wind plant construction.
    pub building_wind: f64,
    /// Battery banks (4-year replacement).
    pub batteries: f64,
    /// Power line + optical fiber layout (`CAP_ind`).
    pub connections: f64,
    /// External network bandwidth.
    pub bandwidth: f64,
    /// Net brown (grid) energy after net-metering settlement.
    pub energy: f64,
}

impl CostBreakdown {
    /// Computes all CAPEX-derived monthly components for a provisioned
    /// datacenter at a location with the given economics. The `energy`
    /// component starts at zero: it depends on the dispatch and is filled
    /// by the optimizer via [`CostBreakdown::with_energy`].
    pub fn capex(params: &CostParams, econ: &Economics, prov: &Provisioning) -> Self {
        let rate = params.interest_rate;
        let dc_years = params.dc_lifetime_years;

        let building_dc = monthly_cost(
            prov.max_power_kw() * 1000.0 * params.price_build_dc_per_w(prov.max_power_kw()),
            rate,
            dc_years,
            dc_years,
        );

        let servers = params.num_servers(prov.capacity_kw);
        let switches = servers / params.servers_per_switch;
        let it_equipment = monthly_cost(
            servers * params.price_server + switches * params.price_switch,
            rate,
            params.it_lifetime_years,
            params.it_lifetime_years,
        );

        let land_m2 = prov.capacity_kw * params.area_dc_m2_per_kw
            + prov.solar_kw * params.area_solar_m2_per_kw
            + prov.wind_kw * params.area_wind_m2_per_kw;
        let land = land_monthly_cost(land_m2 * econ.land_usd_per_m2, rate, dc_years);

        let building_solar = monthly_cost(
            prov.solar_kw * 1000.0 * params.price_build_solar_per_w,
            rate,
            dc_years,
            params.plant_amortization_years,
        );
        let building_wind = monthly_cost(
            prov.wind_kw * 1000.0 * params.price_build_wind_per_w,
            rate,
            dc_years,
            params.plant_amortization_years,
        );

        let batteries = monthly_cost(
            prov.batt_kwh * params.price_batt_per_kwh,
            rate,
            params.batt_lifetime_years,
            params.batt_lifetime_years,
        );

        let connections = monthly_cost(
            econ.dist_power_km * params.cost_line_pow_per_km
                + econ.dist_network_km * params.cost_line_net_per_km,
            rate,
            dc_years,
            dc_years,
        );

        let bandwidth = servers * params.price_bw_per_server_month;

        CostBreakdown {
            building_dc,
            it_equipment,
            land,
            building_solar,
            building_wind,
            batteries,
            connections,
            bandwidth,
            energy: 0.0,
        }
    }

    /// Returns a copy with the monthly net energy cost set.
    pub fn with_energy(mut self, energy_usd_per_month: f64) -> Self {
        self.energy = energy_usd_per_month;
        self
    }

    /// Total monthly cost, $/month.
    pub fn total(&self) -> f64 {
        self.building_dc
            + self.it_equipment
            + self.land
            + self.building_solar
            + self.building_wind
            + self.batteries
            + self.connections
            + self.bandwidth
            + self.energy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn typical_econ() -> Economics {
        Economics {
            land_usd_per_m2: 50.0,
            elec_usd_per_kwh: 0.09,
            dist_power_km: 100.0,
            dist_network_km: 50.0,
            near_plant_cap_kw: 1_000_000.0,
        }
    }

    fn brown_25mw() -> Provisioning {
        Provisioning {
            capacity_kw: 25_000.0,
            max_pue: 1.07,
            solar_kw: 0.0,
            wind_kw: 0.0,
            batt_kwh: 0.0,
        }
    }

    #[test]
    fn brown_dc_lands_in_paper_cost_band() {
        // Fig. 6: at 80% of locations a brown 25 MW DC costs $8.7–12.8M per
        // month. CAPEX + bandwidth here, plus ~$1.7M energy, must land in
        // that band.
        let params = CostParams::default();
        let b = CostBreakdown::capex(&params, &typical_econ(), &brown_25mw());
        let energy = 25_000.0 * 1.07 * 720.0 * 0.09; // kW·h/mo·$/kWh ≈ $1.73M
        let total = b.with_energy(energy).total();
        assert!(
            (8.0e6..13.5e6).contains(&total),
            "monthly total ${:.2}M",
            total / 1e6
        );
    }

    #[test]
    fn component_magnitudes_match_hand_calculation() {
        let params = CostParams::default();
        let b = CostBreakdown::capex(&params, &typical_econ(), &brown_25mw());
        // Building: 26.75 MW × $12/W = $321M → ≈ $2.69M/month at 3.25%/12y.
        assert!(
            (b.building_dc - 2.69e6).abs() < 0.1e6,
            "building {}",
            b.building_dc
        );
        // IT: 86 207 servers × $2000 + 2694 switches × $20k ≈ $226M → 4y.
        assert!(
            (b.it_equipment - 5.0e6).abs() < 0.3e6,
            "it {}",
            b.it_equipment
        );
        // Connections: 100km×$310k + 50km×$300k = $46M → ≈ $0.39M/month.
        assert!(
            (b.connections - 0.385e6).abs() < 0.02e6,
            "conn {}",
            b.connections
        );
        // Bandwidth: ~$86k/month.
        assert!((b.bandwidth - 86_207.0).abs() < 10.0);
        assert!(b.land > 0.0 && b.land < 50_000.0, "land {}", b.land);
        assert_eq!(b.building_solar, 0.0);
        assert_eq!(b.batteries, 0.0);
    }

    #[test]
    fn wind_is_cheaper_than_solar_per_average_watt() {
        // Table I: wind $2.1/W vs solar $5.25/W installed. For equal
        // *average* production the gap narrows with capacity factors but
        // wind at a good site stays cheaper — the paper's key observation.
        let params = CostParams::default();
        let econ = typical_econ();
        let wind = CostBreakdown::capex(
            &params,
            &econ,
            &Provisioning {
                wind_kw: 27_000.0, // 50% CF site → 13.5 MW average
                ..brown_25mw()
            },
        );
        let solar = CostBreakdown::capex(
            &params,
            &econ,
            &Provisioning {
                solar_kw: 64_000.0, // 21% CF site → 13.4 MW average
                ..brown_25mw()
            },
        );
        assert!(
            wind.building_wind < solar.building_solar / 3.0,
            "wind {} vs solar {}",
            wind.building_wind,
            solar.building_solar
        );
    }

    #[test]
    fn small_dc_class_is_pricier_per_watt() {
        let params = CostParams::default();
        let econ = typical_econ();
        let small = CostBreakdown::capex(
            &params,
            &econ,
            &Provisioning {
                capacity_kw: 5_000.0,
                max_pue: 1.07,
                ..Default::default()
            },
        );
        let large = CostBreakdown::capex(
            &params,
            &econ,
            &Provisioning {
                capacity_kw: 50_000.0,
                max_pue: 1.07,
                ..Default::default()
            },
        );
        let small_per_kw = small.building_dc / 5_000.0;
        let large_per_kw = large.building_dc / 50_000.0;
        assert!((small_per_kw / large_per_kw - 15.0 / 12.0).abs() < 1e-9);
    }

    #[test]
    fn batteries_are_expensive() {
        // The paper: at 100% green with batteries, storage dominates.
        let params = CostParams::default();
        let econ = typical_econ();
        let b = CostBreakdown::capex(
            &params,
            &econ,
            &Provisioning {
                batt_kwh: 500_000.0, // ~half a day of a 25 MW DC
                ..brown_25mw()
            },
        );
        // $100M every 4 years → ≈ $2.3M/month.
        assert!(b.batteries > 2e6, "batteries {}", b.batteries);
    }
}
