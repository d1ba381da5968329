//! The §V-C experiment generalized: an N-datacenter network following the
//! sun for anything from a day to a year.
//!
//! Reproduces the paper's validation setup at simulation scale: the Table
//! III network (Mexico City, Andersen/Guam, Harare — chosen so that local
//! daytime covers the whole UTC day), massively overbuilt solar. Every hour
//! the scheduler re-partitions load against the 48-hour green forecast and
//! the planner migrates VMs donor→closest-receiver, smallest footprint
//! first. The hourly optimization runs on a [`RollingScheduler`]: one
//! persistent LP whose forecasts are rewritten in place each round and
//! whose solves continue from the previous hour's basis and factors.
//!
//! Energy accounting follows the paper, extended with the storage models
//! the siting LP already assumes. Demand per site-hour is PUE-scaled IT
//! load plus migration overhead; it is dispatched strictly in the order
//! **green → battery → banked net-meter credit → brown**, with surplus
//! green first charging the (lossy) battery and then pushing into the
//! net-metering bank. Migrated load consumes at the donor for the
//! migration fraction of *every* epoch the transfer spans (slow WAN links
//! stretch a live migration across hours), and migration completions are
//! discrete [`greencloud_simkernel`] events, so block transfers, battery
//! state, and re-replication interleave deterministically.
//!
//! GDFS runs underneath: each VM dirties its file hourly; the unreplicated
//! blocks determine each migration's payload, and background re-replication
//! drains between rounds.
//!
//! With a [`FaultSpec`] attached, a seeded [`FaultSchedule`] replays
//! through the same kernel: site outages evacuate VMs to surviving sites
//! (cold restart from replicas, parking them when no capacity or WAN path
//! exists), grid blackouts cap brown supply and strand demand as unserved
//! energy, forecast shocks cut actual green below the plan, and battery
//! fade derates the banks. The run then carries a [`ResilienceReport`]
//! with SLO attainment, downtime, recovery times, and the brown-energy and
//! dollar cost of the incidents.

use crate::cluster::{Datacenter, DatacenterId};
use crate::error::NebulaError;
use crate::faults::{FaultChange, FaultSchedule, FaultSpec, ResilienceReport};
use crate::gdfs::{BlockId, FileId, GdfsMaster, BLOCK_MB};
use crate::planner::plan_migrations;
use crate::predictor::{GreenPredictor, PredictionMode};
use crate::scheduler::{RollingScheduler, RollingStats, SchedulerConfig, SiteState};
use crate::vm::{Vm, VmId, VmSpec};
use crate::wan::WanModel;
use greencloud_climate::catalog::WorldCatalog;
use greencloud_energy::battery::Battery;
use greencloud_energy::netmeter::NetMeter;
use greencloud_energy::profile::EnergyProfile;
use greencloud_energy::pue::PueModel;
use greencloud_energy::pv::PvModel;
use greencloud_energy::windturbine::Turbine;
use greencloud_simkernel::{Engine, SimTime};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// One emulated site.
#[derive(Debug, Clone, PartialEq)]
pub struct EmulationSite {
    /// Catalog name substring identifying the location (e.g. "Harare").
    pub location_name: String,
    /// Installed solar, MW.
    pub solar_mw: f64,
    /// Installed wind, MW.
    pub wind_mw: f64,
    /// IT capacity, MW.
    pub capacity_mw: f64,
    /// Installed battery bank, kWh (0 = no storage at this site).
    pub battery_kwh: f64,
}

/// Emulation parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct EmulationConfig {
    /// Total IT load, MW (the paper's 50 MW requirement).
    pub total_load_mw: f64,
    /// Number of VMs carrying the load.
    pub vm_count: u32,
    /// Emulated duration, hours (8760 for a full TMY year).
    pub hours: usize,
    /// First TMY hour of the run (picks the emulated day/season).
    pub start_hour: usize,
    /// Sites (Table III by default).
    pub sites: Vec<EmulationSite>,
    /// Hourly scheduler configuration.
    pub scheduler: SchedulerConfig,
    /// WAN link model.
    pub wan: WanModel,
    /// Battery charge efficiency for every site bank (the paper's
    /// lead-acid 75% by default).
    pub battery_efficiency: f64,
    /// `Some(credit_fraction)` enables per-site net metering: surplus
    /// green is banked with the grid and drawn back (1:1, before buying
    /// brown). The fraction is monetary only — it scales the push credits
    /// in [`EmulationReport::energy_settlement_usd`], not the physics.
    pub net_meter_credit: Option<f64>,
    /// Green-production forecast quality fed to the scheduler.
    pub prediction: PredictionMode,
    /// Deterministic fault injection (`None` = the paper's fault-free
    /// world). When set, the run degrades gracefully and reports a
    /// [`ResilienceReport`].
    pub faults: Option<FaultSpec>,
}

impl Default for EmulationConfig {
    /// The paper's Table III network and §V-C workload, scaled to 50 MW:
    /// no storage, no net metering, perfect prediction.
    fn default() -> Self {
        Self {
            total_load_mw: 50.0,
            vm_count: 200,
            hours: 24,
            start_hour: 24 * 170, // a (northern) summer day
            sites: vec![
                EmulationSite {
                    location_name: "Mexico City".into(),
                    solar_mw: 327.7,
                    wind_mw: 0.009,
                    capacity_mw: 50.0,
                    battery_kwh: 0.0,
                },
                EmulationSite {
                    location_name: "Andersen".into(),
                    solar_mw: 375.4,
                    wind_mw: 38.0,
                    capacity_mw: 50.0,
                    battery_kwh: 0.0,
                },
                EmulationSite {
                    location_name: "Harare".into(),
                    solar_mw: 396.7,
                    wind_mw: 0.0208,
                    capacity_mw: 50.0,
                    battery_kwh: 0.0,
                },
            ],
            scheduler: SchedulerConfig::default(),
            wan: WanModel::leased(10_000.0),
            battery_efficiency: Battery::DEFAULT_EFFICIENCY,
            net_meter_credit: None,
            prediction: PredictionMode::Perfect,
            faults: None,
        }
    }
}

impl EmulationConfig {
    /// Installs `kwh` of battery at every site.
    pub fn with_batteries(mut self, kwh: f64) -> Self {
        for s in &mut self.sites {
            s.battery_kwh = kwh;
        }
        self
    }

    /// Attaches a fault-injection spec.
    pub fn with_faults(mut self, faults: FaultSpec) -> Self {
        self.faults = Some(faults);
        self
    }
}

/// One datacenter-hour of the Fig. 15 trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRow {
    /// Hour since the start of the run.
    pub hour: usize,
    /// Site index (order of `EmulationConfig::sites`).
    pub dc: usize,
    /// Green power available, MW.
    pub green_available_mw: f64,
    /// IT load hosted, MW.
    pub load_mw: f64,
    /// Cooling/power overhead (PUE − 1 share), MW.
    pub pue_overhead_mw: f64,
    /// Migration energy overhead, MW.
    pub migration_mw: f64,
    /// Surplus green consumed charging the battery (source side), MW.
    pub battery_charge_mw: f64,
    /// Battery energy delivered to the load, MW.
    pub battery_discharge_mw: f64,
    /// Surplus green pushed into the net-metering bank, MW.
    pub net_push_mw: f64,
    /// Banked energy drawn back from the net meter, MW.
    pub net_draw_mw: f64,
    /// Battery state of charge at the end of the hour, in `[0, 1]`.
    pub battery_soc: f64,
    /// Brown power drawn, MW.
    pub brown_mw: f64,
}

/// One executed VM migration (the report's audit log).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationRecord {
    /// Hour the migration started.
    pub hour: usize,
    /// The VM moved.
    pub vm: VmId,
    /// Donor site index.
    pub from: usize,
    /// Receiver site index.
    pub to: usize,
    /// Live-migration duration over the WAN, hours.
    pub duration_hours: f64,
    /// Payload shipped (memory + unreplicated blocks), GB.
    pub payload_gb: f64,
}

/// Result of an emulation run.
///
/// Equality is exact on every simulated quantity ([`RollingStats`] excludes
/// its wall-clock field), so two runs of one config compare equal iff they
/// are deterministic replays of each other.
#[derive(Debug, Clone, PartialEq)]
pub struct EmulationReport {
    /// Per datacenter-hour rows (Fig. 15's series).
    pub rows: Vec<TraceRow>,
    /// Total brown energy, MWh.
    pub total_brown_mwh: f64,
    /// Total demand, MWh.
    pub total_demand_mwh: f64,
    /// Fraction of demand served green.
    pub green_fraction: f64,
    /// Number of VM migrations executed.
    pub migrations: usize,
    /// Total migration payload shipped, GB.
    pub migrated_gb: f64,
    /// Mean live-migration duration, hours.
    pub mean_migration_hours: f64,
    /// Peak number of concurrently in-flight migrations.
    pub peak_inflight_migrations: usize,
    /// Every executed migration, in execution order.
    pub migration_log: Vec<MigrationRecord>,
    /// GDFS blocks re-replicated in the background.
    pub rereplicated_blocks: usize,
    /// Green energy consumed charging batteries (source side), MWh.
    pub battery_in_mwh: f64,
    /// Battery energy delivered to loads, MWh.
    pub battery_out_mwh: f64,
    /// Green energy pushed into net-metering banks, MWh.
    pub net_pushed_mwh: f64,
    /// Banked energy drawn back, MWh.
    pub net_drawn_mwh: f64,
    /// Annual true-up cost of grid energy: per-site (drawn + brown) kWh at
    /// the local retail price, minus net-metering push credits at the
    /// configured credit fraction (capped — no cash-out), USD.
    pub energy_settlement_usd: f64,
    /// How the rolling scheduler spent its solves (warm-start counters).
    pub scheduler_stats: RollingStats,
    /// Resilience accounting, present iff the config injected faults.
    pub resilience: Option<ResilienceReport>,
}

/// Discrete events flowing through the simulation kernel.
#[derive(Debug, Clone, Copy)]
enum NebulaEvent {
    /// A live migration's stop-and-copy finished: the unreplicated blocks
    /// land at the receiver.
    MigrationDone {
        file: FileId,
        from: DatacenterId,
        to: DatacenterId,
    },
    /// A fault-timeline transition takes effect (before that hour's
    /// scheduling round — fault events are scheduled first, so among
    /// same-time events they pop ahead of transfer completions).
    Fault(FaultChange),
    /// An evacuation replay finished: the VM restarts at the receiver if
    /// it is still up (otherwise it re-parks).
    EvacuationDone { job: usize },
}

/// Live fault state: depth counters per resource so overlapping faults
/// nest — a resource recovers only when every fault affecting it clears.
struct FaultRuntime {
    site_down: Vec<u32>,
    grid_down: Vec<u32>,
    grid_residual: Vec<f64>,
    shock: Vec<u32>,
    shock_factor: Vec<f64>,
    wan_down: u32,
    wan_factor: f64,
}

impl FaultRuntime {
    fn new(n: usize) -> Self {
        Self {
            site_down: vec![0; n],
            grid_down: vec![0; n],
            grid_residual: vec![1.0; n],
            shock: vec![0; n],
            shock_factor: vec![1.0; n],
            wan_down: 0,
            wan_factor: 1.0,
        }
    }

    fn site_up(&self, i: usize) -> bool {
        self.site_down[i] == 0
    }

    /// Residual brown-supply factor at site `i` (1 = healthy grid).
    fn grid_factor(&self, i: usize) -> f64 {
        if self.grid_down[i] > 0 {
            self.grid_residual[i]
        } else {
            1.0
        }
    }

    /// Actual-vs-forecast green factor at site `i` (1 = on forecast).
    fn green_factor(&self, i: usize) -> f64 {
        if self.shock[i] > 0 {
            self.shock_factor[i]
        } else {
            1.0
        }
    }

    /// Network-wide WAN bandwidth factor (1 = healthy, 0 = partition).
    fn wan_bw_factor(&self) -> f64 {
        if self.wan_down > 0 {
            self.wan_factor
        } else {
            1.0
        }
    }

    /// Any incident currently in progress (battery fade is permanent
    /// degradation, not an incident).
    fn any_incident(&self) -> bool {
        self.wan_down > 0
            || self.site_down.iter().any(|&d| d > 0)
            || self.grid_down.iter().any(|&d| d > 0)
            || self.shock.iter().any(|&d| d > 0)
    }

    /// Applies one timeline transition, counting incident onsets.
    /// Battery fade is applied by the caller (it needs the banks).
    fn apply(&mut self, change: FaultChange, resil: &mut ResilienceReport) {
        resil.fault_events += 1;
        match change {
            FaultChange::SiteDown { site } => {
                if self.site_down[site] == 0 {
                    resil.site_outages += 1;
                }
                self.site_down[site] += 1;
            }
            FaultChange::SiteUp { site } => {
                self.site_down[site] = self.site_down[site].saturating_sub(1);
            }
            FaultChange::GridDown { site, residual } => {
                if self.grid_down[site] == 0 {
                    resil.grid_outages += 1;
                    self.grid_residual[site] = residual;
                } else {
                    // Overlapping grid faults: the harshest cap wins.
                    self.grid_residual[site] = self.grid_residual[site].min(residual);
                }
                self.grid_down[site] += 1;
            }
            FaultChange::GridUp { site } => {
                self.grid_down[site] = self.grid_down[site].saturating_sub(1);
                if self.grid_down[site] == 0 {
                    self.grid_residual[site] = 1.0;
                }
            }
            FaultChange::WanDegraded { factor } => {
                if self.wan_down == 0 {
                    resil.wan_outages += 1;
                    self.wan_factor = factor;
                } else {
                    self.wan_factor = self.wan_factor.min(factor);
                }
                self.wan_down += 1;
            }
            FaultChange::WanRestored => {
                self.wan_down = self.wan_down.saturating_sub(1);
                if self.wan_down == 0 {
                    self.wan_factor = 1.0;
                }
            }
            FaultChange::ShockStart { site, factor } => {
                if self.shock[site] == 0 {
                    resil.forecast_shocks += 1;
                    self.shock_factor[site] = factor;
                } else {
                    self.shock_factor[site] = self.shock_factor[site].min(factor);
                }
                self.shock[site] += 1;
            }
            FaultChange::ShockEnd { site } => {
                self.shock[site] = self.shock[site].saturating_sub(1);
                if self.shock[site] == 0 {
                    self.shock_factor[site] = 1.0;
                }
            }
            FaultChange::BatteryFade { .. } => {}
        }
    }
}

/// An evacuation replay in flight: the VM restarts at `to` once the
/// blocks unique to the failed site have been replayed there.
struct EvacJob {
    vm: Vm,
    from: usize,
    to: usize,
    down_since: f64,
}

/// A VM with nowhere to go: no surviving capacity, or no WAN path to it.
/// Retried every hour; counts as shed load while parked.
struct ParkedVm {
    vm: Vm,
    /// Site holding the VM's unique blocks (its last home).
    data_at: usize,
    down_since: f64,
}

/// Tries to restart `vm` (whose unique blocks sit at `data_at`) on the
/// surviving site with the most headroom. Parks it when no receiver has
/// room or the WAN cannot carry the replay.
#[allow(clippy::too_many_arguments)]
fn try_evacuate(
    vm: Vm,
    data_at: usize,
    down_since: f64,
    now_h: usize,
    caps: &[f64],
    fault: &FaultRuntime,
    dcs: &[Datacenter],
    reserved_mw: &mut [f64],
    evac_jobs: &mut Vec<Option<EvacJob>>,
    parked: &mut Vec<ParkedVm>,
    gdfs: &GdfsMaster,
    wan: &WanModel,
    engine: &mut Engine<NebulaEvent>,
    resil: &mut ResilienceReport,
) {
    let power = vm.power_mw();
    // Receiver: the up site with the most uncommitted headroom (committed
    // = hosted load + evacuations already reserved against it).
    let mut best: Option<(usize, f64)> = None;
    for (i, dc) in dcs.iter().enumerate() {
        if !fault.site_up(i) {
            continue;
        }
        let headroom = caps[i] - dc.load_mw() - reserved_mw[i];
        if headroom + 1e-9 >= power && best.is_none_or(|(_, bh)| headroom > bh) {
            best = Some((i, headroom));
        }
    }
    let Some((to, _)) = best else {
        parked.push(ParkedVm {
            vm,
            data_at,
            down_since,
        });
        return;
    };
    let wan_factor = fault.wan_bw_factor();
    if wan_factor <= 0.0 && to != data_at {
        // Partitioned WAN: the replica replay cannot reach the receiver.
        parked.push(ParkedVm {
            vm,
            data_at,
            down_since,
        });
        return;
    }
    let file = FileId(vm.id.0 as u64);
    let payload_mb = gdfs.unreplicated_mb(file, DatacenterId(data_at as u32));
    // Cold restart from replicas: no memory moves, only the blocks that
    // existed solely at the failed site must be replayed.
    let dur = if to == data_at {
        0.0
    } else {
        wan.degraded(wan_factor)
            .migration_hours(0.0, 0.0, payload_mb)
    };
    if !dur.is_finite() {
        parked.push(ParkedVm {
            vm,
            data_at,
            down_since,
        });
        return;
    }
    reserved_mw[to] += power;
    resil.evacuations += 1;
    resil.evacuated_gb += payload_mb / 1024.0;
    let job = evac_jobs.len();
    evac_jobs.push(Some(EvacJob {
        vm,
        from: data_at,
        to,
        down_since,
    }));
    engine.schedule_at(
        SimTime::from_hours(now_h as u64).plus_hours_f64(dur),
        NebulaEvent::EvacuationDone { job },
    );
}

/// Runs the emulation against a world catalog.
///
/// # Errors
///
/// Returns [`NebulaError::UnknownSite`] when a site name cannot be found
/// in the catalog, [`NebulaError::Config`] for out-of-range parameters,
/// and [`NebulaError::Solve`] when the scheduler's optimization fails
/// even after the graceful-degradation retry ladder.
pub fn run(
    catalog: &WorldCatalog,
    config: &EmulationConfig,
) -> Result<EmulationReport, NebulaError> {
    run_observed(catalog, config, &AtomicBool::new(false), None)
}

/// Per-hour progress observer: called with `(done_hours, total_hours)`.
/// `Sync` because sweep workers may share one sink across threads.
pub type HourObserver<'a> = &'a (dyn Fn(usize, usize) + Sync);

/// [`run`] with cooperative cancellation and an optional per-hour
/// progress observer. The flag is polled once per emulated hour and aborts
/// the run with [`NebulaError::Cancelled`] (deadline enforcement, user
/// interrupts). The observer fires once before the first scheduling round
/// (`(0, total)`) and once after each emulated hour, ending at
/// `(total, total)`; it sees only loop counters, never solver state, so
/// observation cannot perturb the report.
pub fn run_observed(
    catalog: &WorldCatalog,
    config: &EmulationConfig,
    cancel: &AtomicBool,
    progress: Option<HourObserver<'_>>,
) -> Result<EmulationReport, NebulaError> {
    let n = config.sites.len();
    if n == 0 {
        return Err(NebulaError::Config("no sites".into()));
    }
    if let Some(credit) = config.net_meter_credit {
        if !(0.0..=1.0).contains(&credit) {
            return Err(NebulaError::Config(format!(
                "net-meter credit fraction {credit} outside [0, 1]"
            )));
        }
    }
    if !(config.battery_efficiency > 0.0 && config.battery_efficiency <= 1.0) {
        return Err(NebulaError::Config(format!(
            "battery efficiency {} outside (0, 1]",
            config.battery_efficiency
        )));
    }
    // A dead link would make every migration endless; a partition is a
    // fault (`wan_factor`), not a configured bandwidth.
    let bw = config.wan.bandwidth_mbps;
    if !(bw.is_finite() && bw > 0.0) {
        return Err(NebulaError::Config(format!(
            "wan.bandwidth_mbps {bw} is not finite and positive"
        )));
    }
    let sched = &config.scheduler;
    if sched.window_hours == 0 {
        return Err(NebulaError::Config("scheduler.window_hours is 0".into()));
    }
    if !(0.0..=1.0).contains(&sched.migration_fraction) {
        return Err(NebulaError::Config(format!(
            "scheduler.migration_fraction {} outside [0, 1]",
            sched.migration_fraction
        )));
    }
    if !(sched.migration_penalty.is_finite() && sched.migration_penalty >= 0.0) {
        return Err(NebulaError::Config(format!(
            "scheduler.migration_penalty {} is not finite and nonnegative",
            sched.migration_penalty
        )));
    }
    if let Some(fs) = &config.faults {
        fs.validate(n).map_err(NebulaError::Config)?;
    }
    // Resolve sites and synthesize hourly energy profiles.
    let mut profiles = Vec::with_capacity(n);
    let mut dcs: Vec<Datacenter> = Vec::with_capacity(n);
    let mut batteries: Vec<Battery> = Vec::with_capacity(n);
    let mut meters: Vec<NetMeter> = Vec::with_capacity(n);
    let mut elec_prices: Vec<f64> = Vec::with_capacity(n);
    for (i, site) in config.sites.iter().enumerate() {
        let loc = catalog
            .find(&site.location_name)
            .ok_or_else(|| NebulaError::UnknownSite(site.location_name.clone()))?;
        let tmy = catalog.tmy(loc.id);
        profiles.push(EnergyProfile::from_tmy_hourly(
            &tmy,
            &PvModel::default(),
            &Turbine::default(),
            &PueModel::new(),
        ));
        // Hosts sized so any single site can hold the entire fleet.
        dcs.push(Datacenter::new(
            DatacenterId(i as u32),
            loc.name.clone(),
            loc.position,
            site.solar_mw,
            site.wind_mw,
            config.vm_count as usize,
            8,
            (1u64 << 20) as f64,
        ));
        batteries.push(Battery::new(site.battery_kwh, config.battery_efficiency));
        meters.push(NetMeter::new(config.net_meter_credit.unwrap_or(1.0)));
        elec_prices.push(loc.econ.elec_usd_per_kwh);
    }
    let net_metering = config.net_meter_credit.is_some();

    // The fleet: equal-power VMs with the paper's footprint ratios.
    let vm_power_mw = config.total_load_mw / config.vm_count as f64;
    let spec = VmSpec {
        power_w: vm_power_mw * 1e6,
        ..VmSpec::default()
    };
    // All load starts at the site whose local time is deepest into
    // daylight; the paper's run starts hosted in Africa.
    let start_site = (0..n)
        .map(|i| {
            let idx = config.start_hour % profiles[i].len();
            (i, profiles[i].alpha[idx])
        })
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(i, _)| i)
        .unwrap_or(0);
    // Replication cannot exceed the number of datacenters (single-site
    // runs keep one copy instead of panicking in the GDFS master).
    let mut gdfs = GdfsMaster::new(
        (0..n).map(|i| DatacenterId(i as u32)).collect(),
        2usize.min(n),
    );
    let blocks_per_vm = (spec.disk_gb * 1024.0 / BLOCK_MB).ceil() as u32;
    // Emulated writes carry no bytes: they all share one empty payload.
    let no_payload: Arc<[u8]> = Arc::from([]);
    for v in 0..config.vm_count {
        let vm = Vm::new(VmId(v), spec);
        // Structurally infallible: hosts above are sized for the fleet.
        assert!(dcs[start_site].place_vm(vm), "initial placement fits");
        gdfs.create_file(
            FileId(v as u64),
            blocks_per_vm,
            DatacenterId(start_site as u32),
        );
    }

    let mut scheduler = RollingScheduler::new(config.scheduler.clone());
    let predictor = GreenPredictor::new(config.prediction);
    let window = config.scheduler.window_hours;
    let theta = config.scheduler.migration_fraction;

    let mut rows = Vec::with_capacity(config.hours * n);
    let mut total_brown = 0.0;
    let mut total_demand = 0.0;
    let mut migrated_gb = 0.0;
    let mut migration_hour_sum = 0.0;
    let mut migration_log: Vec<MigrationRecord> = Vec::new();
    let mut rereplicated = 0usize;
    let mut battery_in = 0.0;
    let mut battery_out = 0.0;
    let mut net_pushed = 0.0;
    let mut net_drawn = 0.0;
    let mut inflight = 0usize;
    let mut peak_inflight = 0usize;
    let mut brown_site_mwh = vec![0.0f64; n];
    let mut engine: Engine<NebulaEvent> = Engine::new();
    // Donor-side migration overhead per future hour: a migration spanning
    // `ceil(duration)` epochs charges θ·power at the donor in each of them.
    let mut mig_overhead: Vec<Vec<f64>> = vec![vec![0.0; n]; config.hours];

    // Fault machinery. The whole timeline is materialized and scheduled up
    // front; transitions flow through the kernel like any other event.
    let has_faults = config.faults.is_some();
    let schedule = config
        .faults
        .as_ref()
        .map(|fs| FaultSchedule::generate(fs, n, config.hours));
    if let Some(sched) = &schedule {
        for t in &sched.transitions {
            if t.hour < config.hours {
                engine.schedule_at(
                    SimTime::from_hours(t.hour as u64),
                    NebulaEvent::Fault(t.change),
                );
            }
        }
    }
    let mut fault = FaultRuntime::new(n);
    let mut resil = ResilienceReport::default();
    let mut recovery_sum = 0.0f64;
    let mut evac_jobs: Vec<Option<EvacJob>> = Vec::new();
    let mut parked: Vec<ParkedVm> = Vec::new();
    let mut reserved_mw = vec![0.0f64; n];
    let installed_kwh: Vec<f64> = config.sites.iter().map(|s| s.battery_kwh).collect();
    let caps: Vec<f64> = config.sites.iter().map(|s| s.capacity_mw).collect();
    let mut unserved = 0.0f64;
    let mut incident_brown = 0.0f64;
    let mut incident_cost = 0.0f64;

    // One extra iteration (`h == hours`) drains the tail events without
    // running another scheduling round.
    for h in 0..=config.hours {
        // Drain the kernel up to the top of hour `h`: fault transitions at
        // `h` flip state *before* this hour's scheduling round; migration
        // and evacuation completions apply in time-then-FIFO order.
        engine.run_until(SimTime::from_hours(h as u64), |_, t, ev| match ev {
            NebulaEvent::MigrationDone { file, from, to } => {
                gdfs.transfer_unique_blocks(file, from, to);
                inflight -= 1;
            }
            NebulaEvent::Fault(change) => {
                if let FaultChange::BatteryFade { site, factor } = change {
                    batteries[site].derate_to(installed_kwh[site] * factor);
                }
                fault.apply(change, &mut resil);
            }
            NebulaEvent::EvacuationDone { job } => {
                if let Some(j) = evac_jobs[job].take() {
                    reserved_mw[j.to] -= j.vm.power_mw();
                    let file = FileId(j.vm.id.0 as u64);
                    if j.from != j.to {
                        gdfs.transfer_unique_blocks(
                            file,
                            DatacenterId(j.from as u32),
                            DatacenterId(j.to as u32),
                        );
                    }
                    if fault.site_up(j.to) && dcs[j.to].place_vm(j.vm.clone()) {
                        resil.recoveries += 1;
                        recovery_sum += t.as_hours_f64() - j.down_since;
                    } else {
                        // Receiver died (or filled) mid-replay: the blocks
                        // already landed there, so retry from it.
                        parked.push(ParkedVm {
                            vm: j.vm,
                            data_at: j.to,
                            down_since: j.down_since,
                        });
                    }
                }
            }
        });
        if let Some(observe) = progress {
            observe(h, config.hours);
        }
        if h == config.hours {
            break;
        }
        if cancel.load(Ordering::Relaxed) {
            return Err(NebulaError::Cancelled);
        }
        let abs = config.start_hour + h;

        // 0. Graceful degradation: pull every VM off dark sites and retry
        // the parked backlog, then account downtime for this hour.
        if has_faults {
            for s in 0..n {
                if !fault.site_up(s) && dcs[s].vm_count() > 0 {
                    let ids: Vec<VmId> = dcs[s].vms().map(|vm| vm.id).collect();
                    for id in ids {
                        if let Some(vm) = dcs[s].remove_vm(id) {
                            try_evacuate(
                                vm,
                                s,
                                h as f64,
                                h,
                                &caps,
                                &fault,
                                &dcs,
                                &mut reserved_mw,
                                &mut evac_jobs,
                                &mut parked,
                                &gdfs,
                                &config.wan,
                                &mut engine,
                                &mut resil,
                            );
                        }
                    }
                }
            }
            let backlog = std::mem::take(&mut parked);
            for p in backlog {
                try_evacuate(
                    p.vm,
                    p.data_at,
                    p.down_since,
                    h,
                    &caps,
                    &fault,
                    &dcs,
                    &mut reserved_mw,
                    &mut evac_jobs,
                    &mut parked,
                    &gdfs,
                    &config.wan,
                    &mut engine,
                    &mut resil,
                );
            }
            let in_transit = evac_jobs.iter().filter(|j| j.is_some()).count();
            resil.vm_downtime_hours += (in_transit + parked.len()) as f64;
            resil.shed_vm_hours += parked.len() as f64;
            resil.site_down_hours += (0..n).filter(|&i| !fault.site_up(i)).count() as f64;
        }
        let any_up = (0..n).any(|i| fault.site_up(i));
        let wan_factor = fault.wan_bw_factor();

        if any_up {
            // 1. Scheduling round (persistent model, warm-started re-solve).
            // Dark sites enter with zero capacity and zero green forecast;
            // the shifted LP handles the collapse without a rebuild.
            let states: Vec<SiteState> = (0..n)
                .map(|i| {
                    let up = fault.site_up(i);
                    let f = predictor.forecast(&profiles[i], abs, window);
                    SiteState {
                        green_forecast_mw: if up {
                            f.iter().map(|&(a, b)| dcs[i].green_mw(a, b)).collect()
                        } else {
                            vec![0.0; window]
                        },
                        pue_forecast: (0..window)
                            .map(|k| profiles[i].pue[(abs + k) % profiles[i].len()])
                            .collect(),
                        current_load_mw: dcs[i].load_mw(),
                        capacity_mw: if up { config.sites[i].capacity_mw } else { 0.0 },
                    }
                })
                .collect();
            let plan = scheduler.plan(&states)?;

            // 2. Execute migrations (live; epoch-level energy accounting).
            // A fully partitioned WAN pins every VM where it is.
            if wan_factor > 0.0 {
                let wan = config.wan.degraded(wan_factor);
                let moves = plan_migrations(&dcs, &plan.target_mw);
                for m in &moves.moves {
                    let from = m.from.0 as usize;
                    let to = m.to.0 as usize;
                    let Some(vm) = dcs[from].remove_vm(m.vm) else {
                        // The planner only names hosted VMs; tolerate a
                        // stale move rather than killing a year-long run.
                        debug_assert!(false, "planner referenced an unhosted VM");
                        continue;
                    };
                    if !dcs[to].place_vm(vm.clone()) {
                        // Receiver unexpectedly full: keep the VM home.
                        debug_assert!(false, "receiver has room");
                        let kept = dcs[from].place_vm(vm);
                        debug_assert!(kept, "donor takes its VM back");
                        continue;
                    }
                    let file = FileId(m.vm.0 as u64);
                    let payload_mb = gdfs.unreplicated_mb(file, m.from);
                    let dur =
                        wan.migration_hours(vm.spec.mem_mb, vm.spec.dirty_mb_per_hour, payload_mb);
                    migration_hour_sum += dur;
                    migrated_gb += vm.spec.migration_footprint_mb(payload_mb) / 1024.0;
                    // The paper's conservative rule, stretched over the
                    // epochs the transfer actually spans (up to the run's
                    // last hour): the moved load draws power at the donor
                    // for (a fraction of) each.
                    let epochs = (dur.ceil() as usize).max(1);
                    for overhead in mig_overhead.iter_mut().skip(h).take(epochs) {
                        overhead[from] += vm.power_mw() * theta;
                    }
                    // Block data lands at the receiver when the
                    // stop-and-copy completes (a kernel event, possibly
                    // hours away).
                    engine.schedule_at(
                        SimTime::from_hours(h as u64).plus_hours_f64(dur),
                        NebulaEvent::MigrationDone {
                            file,
                            from: m.from,
                            to: m.to,
                        },
                    );
                    inflight += 1;
                    peak_inflight = peak_inflight.max(inflight);
                    migration_log.push(MigrationRecord {
                        hour: h,
                        vm: m.vm,
                        from,
                        to,
                        duration_hours: dur,
                        payload_gb: vm.spec.migration_footprint_mb(payload_mb) / 1024.0,
                    });
                }
            }
        }

        // 3. VMs dirty their files; GDFS re-replicates in the background.
        let dirty_blocks = (spec.dirty_mb_per_hour / BLOCK_MB).ceil() as u32;
        for (i, dc) in dcs.iter().take(n).enumerate() {
            let hosted: Vec<VmId> = dc.vms().map(|vm| vm.id).collect();
            for vmid in hosted {
                for k in 0..dirty_blocks {
                    let block = BlockId {
                        file: FileId(vmid.0 as u64),
                        index: (h as u32 * dirty_blocks + k) % blocks_per_vm,
                    };
                    gdfs.write(block, DatacenterId(i as u32), Arc::clone(&no_payload));
                }
            }
        }
        while gdfs.replicate_step().is_some() {
            rereplicated += 1;
        }

        // 4. Energy accounting: green → battery → net meter → brown.
        // A dark site produces and consumes nothing (its battery idles, its
        // stranded demand goes unserved); a grid fault caps brown supply at
        // its residual factor and strands the rest.
        let incident = has_faults && fault.any_incident();
        for i in 0..n {
            let idx = abs % profiles[i].len();
            let up = fault.site_up(i);
            let raw_green = dcs[i].green_mw(profiles[i].alpha[idx], profiles[i].beta[idx]);
            let green = if up {
                raw_green * fault.green_factor(i)
            } else {
                0.0
            };
            let load = dcs[i].load_mw();
            let pue = profiles[i].pue[idx];
            let overhead = mig_overhead[h][i];
            let demand = (load + overhead) * pue;
            let gridf = if up { fault.grid_factor(i) } else { 0.0 };

            let green_used = green.min(demand);
            let mut surplus = green - green_used;
            // Surplus green charges the battery (lossy), then banks with
            // the utility when net metering is on and the grid is up.
            let charged = if up {
                batteries[i].charge(surplus * 1e3) / 1e3
            } else {
                0.0
            };
            surplus -= charged;
            let pushed = if up && net_metering && gridf > 0.0 && surplus > 0.0 {
                meters[i].push(surplus * 1e3);
                surplus
            } else {
                0.0
            };
            // Deficit drains the battery, then the bank, then the grid.
            let mut residual = demand - green_used;
            let discharged = if up {
                batteries[i].discharge(residual * 1e3) / 1e3
            } else {
                0.0
            };
            residual -= discharged;
            let drawn = if up && net_metering && gridf > 0.0 && residual > 0.0 {
                let d = meters[i].draw(residual * 1e3) / 1e3;
                residual -= d;
                d
            } else {
                0.0
            };
            let want_brown = residual.max(0.0);
            let brown = want_brown * gridf;
            unserved += want_brown - brown;

            battery_in += charged;
            battery_out += discharged;
            net_pushed += pushed;
            net_drawn += drawn;
            brown_site_mwh[i] += brown;
            if incident {
                incident_brown += brown;
                incident_cost += brown * 1e3 * elec_prices[i];
            }
            rows.push(TraceRow {
                hour: h,
                dc: i,
                green_available_mw: green,
                load_mw: load,
                pue_overhead_mw: (load + overhead) * (pue - 1.0),
                migration_mw: overhead,
                battery_charge_mw: charged,
                battery_discharge_mw: discharged,
                net_push_mw: pushed,
                net_draw_mw: drawn,
                battery_soc: batteries[i].state_of_charge(),
                brown_mw: brown,
            });
            total_brown += brown;
            total_demand += demand;
        }
    }

    let migrations = migration_log.len();
    // Annual true-up: each site pays for drawn + brown energy at its local
    // retail price, minus push credits at the configured credit fraction
    // (capped at the payable amount — no cash-out; see `NetMeter`).
    let energy_settlement_usd: f64 = (0..n)
        .map(|i| meters[i].settle_usd(elec_prices[i], brown_site_mwh[i] * 1e3))
        .sum();
    let resilience = if has_faults {
        let vm_hours = config.vm_count as f64 * config.hours as f64;
        resil.slo_attainment = if vm_hours > 0.0 {
            1.0 - resil.vm_downtime_hours / vm_hours
        } else {
            1.0
        };
        resil.mean_recovery_hours = if resil.recoveries > 0 {
            recovery_sum / resil.recoveries as f64
        } else {
            0.0
        };
        resil.unserved_mwh = unserved;
        resil.incident_brown_mwh = incident_brown;
        resil.incident_cost_usd = incident_cost;
        Some(resil)
    } else {
        None
    };
    Ok(EmulationReport {
        rows,
        total_brown_mwh: total_brown,
        total_demand_mwh: total_demand,
        green_fraction: if total_demand > 0.0 {
            1.0 - total_brown / total_demand
        } else {
            1.0
        },
        migrations,
        migrated_gb,
        mean_migration_hours: if migrations > 0 {
            migration_hour_sum / migrations as f64
        } else {
            0.0
        },
        peak_inflight_migrations: peak_inflight,
        migration_log,
        rereplicated_blocks: rereplicated,
        battery_in_mwh: battery_in,
        battery_out_mwh: battery_out,
        net_pushed_mwh: net_pushed,
        net_drawn_mwh: net_drawn,
        energy_settlement_usd,
        scheduler_stats: scheduler.stats(),
        resilience,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultKind, ScheduledFault};

    fn quick_config() -> EmulationConfig {
        EmulationConfig {
            vm_count: 60,
            scheduler: SchedulerConfig {
                window_hours: 12,
                ..SchedulerConfig::default()
            },
            ..EmulationConfig::default()
        }
    }

    #[test]
    fn follow_the_renewables_day() {
        let w = WorldCatalog::anchors_only(4);
        let r = run(&w, &quick_config()).expect("runs");
        assert_eq!(r.rows.len(), 24 * 3);
        assert!(r.resilience.is_none(), "no faults, no resilience body");

        // Load is conserved every hour.
        for h in 0..24 {
            let total: f64 = r
                .rows
                .iter()
                .filter(|row| row.hour == h)
                .map(|row| row.load_mw)
                .sum();
            assert!((total - 50.0).abs() < 1e-6, "hour {h}: {total}");
        }

        // The fleet moves at least twice in a day (the paper's Kenya →
        // Mexico → Guam pattern).
        let hosts: Vec<usize> = (0..24)
            .map(|h| {
                r.rows
                    .iter()
                    .filter(|row| row.hour == h)
                    .max_by(|a, b| a.load_mw.partial_cmp(&b.load_mw).unwrap())
                    .unwrap()
                    .dc
            })
            .collect();
        let handoffs = hosts.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(handoffs >= 2, "hosts by hour: {hosts:?}");
        assert!(r.migrations > 0);

        // Overbuilt Table III plants keep the day almost entirely green.
        assert!(
            r.green_fraction > 0.85,
            "green fraction {}",
            r.green_fraction
        );

        // The hourly re-solves ride the persistent warm-started model.
        assert_eq!(r.scheduler_stats.rounds, 24);
        assert_eq!(r.scheduler_stats.rebuilds, 1);
    }

    #[test]
    fn migration_overhead_appears_in_trace() {
        let w = WorldCatalog::anchors_only(4);
        let r = run(&w, &quick_config()).expect("runs");
        let mig_total: f64 = r.rows.iter().map(|row| row.migration_mw).sum();
        assert!(mig_total > 0.0, "some migration overhead is charged");
        // Overhead is bounded by total load per hour.
        for row in &r.rows {
            assert!(row.migration_mw <= 50.0 + 1e-9);
            assert!(row.brown_mw >= 0.0);
            assert!(row.pue_overhead_mw >= 0.0);
        }
    }

    #[test]
    fn gdfs_ships_only_unreplicated_blocks() {
        let w = WorldCatalog::anchors_only(4);
        let r = run(&w, &quick_config()).expect("runs");
        assert!(r.rereplicated_blocks > 0, "background re-replication ran");
        // Payload per migration stays far below the full 5 GB disk: only
        // memory + recently-dirty blocks move.
        let per_migration_gb = r.migrated_gb / r.migrations as f64;
        assert!(
            per_migration_gb < 2.0,
            "per-migration payload {per_migration_gb} GB"
        );
    }

    #[test]
    fn zero_migration_fraction_removes_overhead() {
        let w = WorldCatalog::anchors_only(4);
        let mut cfg = quick_config();
        cfg.scheduler.migration_fraction = 0.0;
        let r = run(&w, &cfg).expect("runs");
        let mig_total: f64 = r.rows.iter().map(|row| row.migration_mw).sum();
        assert_eq!(mig_total, 0.0);
    }

    #[test]
    fn deterministic_report() {
        let w = WorldCatalog::anchors_only(4);
        let a = run(&w, &quick_config()).expect("runs");
        let b = run(&w, &quick_config()).expect("runs");
        assert_eq!(a.migrations, b.migrations);
        assert_eq!(a.rows, b.rows);
    }

    #[test]
    fn slow_wan_charges_every_spanned_epoch() {
        // A thin 1.2 Mbps VPN stretches migrations past one hour once the
        // payload grows; the donor must pay θ·power for every epoch the
        // transfer spans, not just the first (the old single-epoch bug).
        let w = WorldCatalog::anchors_only(4);
        let mut cfg = quick_config();
        cfg.wan = WanModel::leased(1.2);
        let r = run(&w, &cfg).expect("runs");
        assert!(r.migrations > 0);
        assert!(
            r.migration_log.iter().any(|m| m.duration_hours > 1.0),
            "mean {} h — scenario must actually produce multi-epoch moves",
            r.mean_migration_hours
        );
        let theta = cfg.scheduler.migration_fraction;
        let vm_power = cfg.total_load_mw / cfg.vm_count as f64;
        // Expected charge recomputed from the audit log, independent of the
        // accounting path: θ·power·ceil(duration), truncated at the horizon.
        let expected: f64 = r
            .migration_log
            .iter()
            .map(|m| {
                let epochs = (m.duration_hours.ceil() as usize).max(1);
                let charged = epochs.min(cfg.hours - m.hour);
                theta * vm_power * charged as f64
            })
            .sum();
        let traced: f64 = r.rows.iter().map(|row| row.migration_mw).sum();
        assert!(
            (traced - expected).abs() < 1e-9,
            "traced {traced} vs expected {expected}"
        );
        // Strictly more than the single-epoch rule would have charged.
        assert!(traced > theta * vm_power * r.migrations as f64 + 1e-9);
    }

    #[test]
    fn year_scale_run_wraps_the_profile() {
        // A cheap whole-year smoke: 2 VMs, short window, spanning the
        // TMY wrap-around. Mostly exercises indexing and the persistent
        // scheduler at scale.
        let w = WorldCatalog::anchors_only(4);
        let mut cfg = quick_config();
        cfg.vm_count = 2;
        cfg.hours = 400;
        cfg.start_hour = 8760 - 100; // crosses the year boundary
        cfg.scheduler.window_hours = 6;
        let r = run(&w, &cfg).expect("runs");
        assert_eq!(r.rows.len(), 400 * 3);
        assert_eq!(r.scheduler_stats.rounds, 400);
        assert_eq!(r.scheduler_stats.rebuilds, 1);
        assert!(
            r.scheduler_stats.warm_rate() > 0.5,
            "{:?}",
            r.scheduler_stats
        );
    }

    #[test]
    fn scheduled_site_outage_evacuates_and_recovers() {
        // Kill the start site at hour 0 for 4 hours: the whole fleet must
        // evacuate over the (fast) WAN, restart on survivors, and the run
        // must keep conserving load afterwards.
        let w = WorldCatalog::anchors_only(4);
        let mut cfg = quick_config();
        // Which site hosts at hour 0 is data-dependent; fault all three
        // briefly staggered is overkill — instead find the start site the
        // same way run() does: it is the one holding load in row 0.
        let probe = run(&w, &cfg).expect("probe");
        let start_site = probe
            .rows
            .iter()
            .find(|r| r.hour == 0 && r.load_mw > 1.0)
            .expect("someone hosts at hour 0")
            .dc;
        cfg.faults = Some(FaultSpec {
            scheduled: vec![ScheduledFault {
                kind: FaultKind::SiteOutage,
                site: Some(start_site),
                start_hour: 0,
                duration_hours: 4,
                magnitude: 0.0,
            }],
            ..FaultSpec::default()
        });
        let r = run(&w, &cfg).expect("survives the outage");
        let res = r.resilience.expect("resilience body present");
        assert_eq!(res.site_outages, 1);
        assert_eq!(res.fault_events, 2, "one onset + one clear");
        assert_eq!(res.site_down_hours, 4.0);
        assert_eq!(res.evacuations, 60, "the whole fleet moves");
        assert_eq!(res.recoveries, 60, "and restarts on survivors");
        assert!(res.vm_downtime_hours > 0.0);
        assert!(res.slo_attainment < 1.0);
        assert!(res.slo_attainment > 0.9, "{res:?}");
        // After recovery the dark site hosts nothing until it returns.
        for row in r.rows.iter().filter(|row| row.dc == start_site) {
            if row.hour >= 1 && row.hour < 4 {
                assert!(row.load_mw < 1e-9, "hour {}: {}", row.hour, row.load_mw);
                assert!(row.green_available_mw == 0.0);
            }
        }
        // Load is conserved once the evacuations land.
        for h in 2..24 {
            let total: f64 = r
                .rows
                .iter()
                .filter(|row| row.hour == h)
                .map(|row| row.load_mw)
                .sum();
            assert!((total - 50.0).abs() < 1e-6, "hour {h}: {total}");
        }
    }

    #[test]
    fn wan_partition_parks_evacuees_and_sheds_load() {
        // Site dies while the WAN is fully partitioned: nothing can move,
        // the fleet parks, and every parked hour counts as shed.
        let w = WorldCatalog::anchors_only(4);
        let mut cfg = quick_config();
        let probe = run(&w, &cfg).expect("probe");
        let start_site = probe
            .rows
            .iter()
            .find(|r| r.hour == 0 && r.load_mw > 1.0)
            .expect("someone hosts at hour 0")
            .dc;
        cfg.faults = Some(FaultSpec {
            scheduled: vec![
                ScheduledFault {
                    kind: FaultKind::WanDegraded,
                    site: None,
                    start_hour: 0,
                    duration_hours: 6,
                    magnitude: 0.0, // full partition
                },
                ScheduledFault {
                    kind: FaultKind::SiteOutage,
                    site: Some(start_site),
                    start_hour: 2,
                    duration_hours: 10,
                    magnitude: 0.0,
                },
            ],
            ..FaultSpec::default()
        });
        let r = run(&w, &cfg).expect("survives partition + outage");
        let res = r.resilience.expect("resilience body present");
        assert_eq!(res.wan_outages, 1);
        assert_eq!(res.site_outages, 1);
        assert!(res.shed_vm_hours > 0.0, "parked VMs count as shed: {res:?}");
        // Once the WAN heals at hour 6, the backlog drains and recovers.
        assert_eq!(res.recoveries, 60, "{res:?}");
        assert!(res.mean_recovery_hours > 1.0, "{res:?}");
    }

    #[test]
    fn grid_blackout_strands_unserved_energy() {
        // One site, night included, zero grid: whatever brown the site
        // needed becomes unserved energy instead of a panic or free power.
        let w = WorldCatalog::anchors_only(4);
        let mut cfg = quick_config();
        cfg.sites.truncate(1);
        cfg.vm_count = 10;
        cfg.faults = Some(FaultSpec {
            scheduled: vec![ScheduledFault {
                kind: FaultKind::GridOutage,
                site: Some(0),
                start_hour: 0,
                duration_hours: 24,
                magnitude: 0.0, // blackout, no residual
            }],
            ..FaultSpec::default()
        });
        let r = run(&w, &cfg).expect("runs dark");
        let res = r.resilience.expect("resilience body present");
        assert_eq!(res.grid_outages, 1);
        assert_eq!(r.total_brown_mwh, 0.0, "blackout means no brown at all");
        assert!(res.unserved_mwh > 0.0, "night demand went unserved");
        assert_eq!(res.incident_brown_mwh, 0.0);
        assert_eq!(res.incident_cost_usd, 0.0);
    }

    #[test]
    fn quiet_fault_spec_matches_fault_free_run() {
        // A fault spec that never fires must not perturb the emulation:
        // identical rows, plus an all-zero resilience body.
        let w = WorldCatalog::anchors_only(4);
        let base = run(&w, &quick_config()).expect("runs");
        let mut cfg = quick_config();
        cfg.faults = Some(FaultSpec::default());
        let r = run(&w, &cfg).expect("runs");
        assert_eq!(base.rows, r.rows);
        assert_eq!(base.migrations, r.migrations);
        let res = r.resilience.expect("resilience body present");
        assert_eq!(res.fault_events, 0);
        assert_eq!(res.slo_attainment, 1.0);
    }

    #[test]
    fn cancellation_aborts_between_hours() {
        let w = WorldCatalog::anchors_only(4);
        let cancel = AtomicBool::new(true);
        let err = run_observed(&w, &quick_config(), &cancel, None).unwrap_err();
        assert_eq!(err, NebulaError::Cancelled);
    }

    #[test]
    fn out_of_range_wan_and_scheduler_values_are_config_errors() {
        let w = WorldCatalog::anchors_only(4);
        let (nan, inf) = (f64::NAN, f64::INFINITY);
        for (field, value) in [
            ("wan.bandwidth_mbps", 0.0),
            ("wan.bandwidth_mbps", -1.0),
            ("wan.bandwidth_mbps", nan),
            ("wan.bandwidth_mbps", inf),
            ("scheduler.window_hours", 0.0),
            ("scheduler.migration_fraction", -1.0),
            ("scheduler.migration_fraction", 1.5),
            ("scheduler.migration_fraction", nan),
            ("scheduler.migration_penalty", -5.0),
            ("scheduler.migration_penalty", inf),
            ("scheduler.migration_penalty", nan),
        ] {
            let mut cfg = quick_config();
            let sched = &mut cfg.scheduler;
            match field {
                "wan.bandwidth_mbps" => cfg.wan.bandwidth_mbps = value,
                "scheduler.window_hours" => sched.window_hours = value as usize,
                "scheduler.migration_fraction" => sched.migration_fraction = value,
                _ => sched.migration_penalty = value,
            }
            match run(&w, &cfg) {
                Err(NebulaError::Config(msg)) => assert!(msg.contains(field), "{field}: {msg}"),
                other => panic!("{field} = {value}: expected a config error, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_near_dead_wan_still_ends_the_run() {
        // Every migration outlasts the run: its donor overhead stops at the
        // last hour and its completion event lands at the end of time.
        let w = WorldCatalog::anchors_only(4);
        let mut cfg = quick_config();
        cfg.wan.bandwidth_mbps = 1e-300;
        let r = run(&w, &cfg).expect("runs");
        assert!(r.migrations > 0);
        assert!(r.mean_migration_hours > cfg.hours as f64);
    }

    #[test]
    fn battery_fade_derates_the_banks() {
        let w = WorldCatalog::anchors_only(4);
        let mut cfg = quick_config().with_batteries(20_000.0);
        cfg.hours = 48;
        let healthy = run(&w, &cfg).expect("runs");
        cfg.faults = Some(FaultSpec {
            scheduled: (0..3)
                .map(|s| ScheduledFault {
                    kind: FaultKind::BatteryFade,
                    site: Some(s),
                    start_hour: 1,
                    duration_hours: 0,
                    magnitude: 0.1, // 90% of capacity gone
                })
                .collect(),
            ..FaultSpec::default()
        });
        let faded = run(&w, &cfg).expect("runs");
        let in_h = |r: &EmulationReport| r.battery_in_mwh;
        assert!(
            in_h(&faded) < in_h(&healthy),
            "faded {} vs healthy {}",
            in_h(&faded),
            in_h(&healthy)
        );
    }
}
