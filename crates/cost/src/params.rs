//! Table I framework parameters (2011 price levels, as in the paper).

/// All provider-level framework defaults of the paper's Table I.
///
/// Per-location parameters (land price, electricity price, distances,
/// capacity factors) live on `greencloud_climate::Location`; this struct
/// holds everything that is location-independent.
#[derive(Debug, Clone, PartialEq)]
pub struct CostParams {
    /// Annual interest rate used to finance all CAPEX.
    pub interest_rate: f64,
    /// Datacenter lifetime = financing period of long-lived CAPEX, years.
    pub dc_lifetime_years: f64,
    /// Land needed per kW of datacenter capacity, m²/kW (`areaDC`).
    pub area_dc_m2_per_kw: f64,
    /// Land per kW of solar plant, m²/kW (`areaSolar`).
    pub area_solar_m2_per_kw: f64,
    /// Land per kW of wind plant, m²/kW (`areaWind`).
    pub area_wind_m2_per_kw: f64,
    /// Build price for small (≤ 10 MW max power) datacenters, $/W.
    pub price_build_dc_small_per_w: f64,
    /// Build price for large (> 10 MW) datacenters, $/W.
    pub price_build_dc_large_per_w: f64,
    /// Threshold between the small and large build-price classes, kW of
    /// maximum datacenter power (capacity × maxPUE).
    pub dc_class_threshold_kw: f64,
    /// Installed solar plant price, $/W (`priceBuildSolar`).
    pub price_build_solar_per_w: f64,
    /// Installed wind plant price, $/W (`priceBuildWind`).
    pub price_build_wind_per_w: f64,
    /// Green plant amortization period (panels/turbines outlive the DC), years.
    pub plant_amortization_years: f64,
    /// Server price, $ (`priceServer`).
    pub price_server: f64,
    /// Server peak power, W (`serverPower`).
    pub server_power_w: f64,
    /// Switch price, $ (`priceSwitch`).
    pub price_switch: f64,
    /// Switch power, W (`switchPower`).
    pub switch_power_w: f64,
    /// Servers connected per switch (`serversSwitch`).
    pub servers_per_switch: f64,
    /// IT refresh period, years.
    pub it_lifetime_years: f64,
    /// Battery price, $/kWh (`priceBatt`).
    pub price_batt_per_kwh: f64,
    /// Battery replacement period, years.
    pub batt_lifetime_years: f64,
    /// Battery charge efficiency (`battEff`).
    pub batt_efficiency: f64,
    /// External bandwidth price, $/server/month (`priceBWServer`).
    pub price_bw_per_server_month: f64,
    /// Optical fiber layout cost, $/km (`costLineNet`).
    pub cost_line_net_per_km: f64,
    /// Power line layout cost, $/km (`costLinePow`).
    pub cost_line_pow_per_km: f64,
    /// Net metering revenue as a fraction of retail price (`creditNetMeter`).
    pub credit_net_meter: f64,
    /// Fraction of the nearest brown plant a DC may draw (Fig. 1's `F`).
    pub brown_cap_fraction: f64,
}

impl Default for CostParams {
    fn default() -> Self {
        Self {
            interest_rate: 0.0325,
            dc_lifetime_years: 12.0,
            area_dc_m2_per_kw: 0.557,
            area_solar_m2_per_kw: 9.41,
            area_wind_m2_per_kw: 18.21,
            price_build_dc_small_per_w: 15.0,
            price_build_dc_large_per_w: 12.0,
            dc_class_threshold_kw: 10_000.0,
            price_build_solar_per_w: 5.25,
            price_build_wind_per_w: 2.1,
            plant_amortization_years: 24.0,
            price_server: 2_000.0,
            server_power_w: 275.0,
            price_switch: 20_000.0,
            switch_power_w: 480.0,
            servers_per_switch: 32.0,
            it_lifetime_years: 4.0,
            price_batt_per_kwh: 200.0,
            batt_lifetime_years: 4.0,
            batt_efficiency: 0.75,
            price_bw_per_server_month: 1.0,
            cost_line_net_per_km: 300_000.0,
            cost_line_pow_per_km: 310_000.0,
            credit_net_meter: 1.0,
            brown_cap_fraction: 0.25,
        }
    }
}

impl CostParams {
    /// Build price ($/W) for a datacenter whose maximum power is
    /// `max_power_kw` (capacity × maxPUE): the paper's size-class rule.
    pub fn price_build_dc_per_w(&self, max_power_kw: f64) -> f64 {
        if max_power_kw > self.dc_class_threshold_kw {
            self.price_build_dc_large_per_w
        } else {
            self.price_build_dc_small_per_w
        }
    }

    /// Effective IT power per server including its share of a switch, W
    /// (the divisor of the paper's `numServers`).
    pub fn power_per_server_w(&self) -> f64 {
        self.server_power_w + self.switch_power_w / self.servers_per_switch
    }

    /// Number of servers hosted by `capacity_kw` of compute power.
    pub fn num_servers(&self, capacity_kw: f64) -> f64 {
        capacity_kw * 1000.0 / self.power_per_server_w()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_class_rule() {
        let p = CostParams::default();
        assert_eq!(p.price_build_dc_per_w(9_999.0), 15.0);
        assert_eq!(p.price_build_dc_per_w(10_000.0), 15.0);
        assert_eq!(p.price_build_dc_per_w(10_001.0), 12.0);
    }

    #[test]
    fn power_per_server_matches_paper() {
        let p = CostParams::default();
        // 275 + 480/32 = 290 W.
        assert!((p.power_per_server_w() - 290.0).abs() < 1e-12);
    }

    #[test]
    fn server_count_at_25mw() {
        let p = CostParams::default();
        // The paper's 25 MW datacenter hosts ≈ 86 000 servers
        // (the 50 MW network hosts ~91 000 per its Fig. 7 text at 26.5 MW
        // total power; our 25 MW of *compute* gives 86 206).
        let n = p.num_servers(25_000.0);
        assert!((n - 86_206.9).abs() < 1.0, "servers {n}");
    }
}
