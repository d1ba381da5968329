//! The declarative experiment specification: one typed, serializable value
//! per runnable experiment.
//!
//! An [`ExperimentSpec`] captures everything an [`crate::Engine`] needs to
//! reproduce a run except the world catalog and cost parameters (which the
//! engine owns): the placement input, search tuning, emulation config,
//! sweep axes, and seeds. Specs round-trip through a versioned JSON schema
//! ([`SPEC_SCHEMA`]) so experiments can be stored in files, shipped over a
//! wire, and replayed byte-identically — `repro run spec.json` is exactly
//! `Engine::run(ExperimentSpec::from_json_str(...))`.
//!
//! Seeds are carried as JSON numbers and therefore limited to 2^53; every
//! seed in the workspace is far below that.

use crate::error::SpecError;
use crate::json::Json;
use greencloud_climate::profiles::ProfileConfig;
use greencloud_core::anneal::AnnealOptions;
use greencloud_core::framework::{PlacementInput, StorageMode, TechMix};
use greencloud_nebula::emulation::{EmulationConfig, EmulationSite};
use greencloud_nebula::faults::{FaultKind, FaultSpec, ScheduledFault};
use greencloud_nebula::predictor::PredictionMode;
use greencloud_nebula::scheduler::SchedulerConfig;
use greencloud_nebula::wan::WanModel;

/// Schema identifier written to (and required from) serialized specs.
pub const SPEC_SCHEMA: &str = "greencloud-spec/1";

/// One runnable experiment, fully described.
#[derive(Debug, Clone, PartialEq)]
pub enum ExperimentSpec {
    /// Heuristic siting: filter → simulated annealing → per-siting LP.
    Siting(SitingSpec),
    /// Exact siting by subset enumeration (small candidate sets only).
    ExactSiting(ExactSitingSpec),
    /// Operational emulation: follow-the-renewables over N hours.
    Annual(AnnualSpec),
    /// A grid (or one-at-a-time) sweep of operational scenarios.
    Sweep(SweepSpec),
    /// LP-substrate and scheduler timing measurements.
    Timing(TimingSpec),
}

impl ExperimentSpec {
    /// The experiment kind tag used in JSON and reports.
    pub fn kind(&self) -> &'static str {
        match self {
            ExperimentSpec::Siting(_) => "siting",
            ExperimentSpec::ExactSiting(_) => "exact_siting",
            ExperimentSpec::Annual(_) => "annual",
            ExperimentSpec::Sweep(_) => "sweep",
            ExperimentSpec::Timing(_) => "timing",
        }
    }

    /// Serializes the spec as a versioned JSON document.
    pub fn to_json_string(&self) -> String {
        let body = match self {
            ExperimentSpec::Siting(s) => s.to_json(),
            ExperimentSpec::ExactSiting(s) => s.to_json(),
            ExperimentSpec::Annual(s) => s.to_json(),
            ExperimentSpec::Sweep(s) => s.to_json(),
            ExperimentSpec::Timing(s) => s.to_json(),
        };
        let mut fields = vec![("kind".to_string(), Json::from(self.kind()))];
        if let Json::Object(body_fields) = body {
            fields.extend(body_fields);
        }
        Json::obj([
            ("schema", Json::from(SPEC_SCHEMA)),
            ("experiment", Json::Object(fields)),
        ])
        .render()
    }

    /// Parses a versioned JSON spec document.
    ///
    /// # Errors
    ///
    /// [`SpecError`] naming the offending field path for malformed JSON,
    /// wrong schema versions, unknown kinds, or missing/mistyped fields.
    pub fn from_json_str(text: &str) -> Result<Self, SpecError> {
        let doc = Json::parse(text).map_err(|e| SpecError::new("$", e))?;
        let schema = doc
            .get("schema")
            .and_then(Json::as_str)
            .ok_or_else(|| SpecError::new("schema", "missing string field"))?;
        if schema != SPEC_SCHEMA {
            return Err(SpecError::new(
                "schema",
                format!("expected {SPEC_SCHEMA:?}, got {schema:?}"),
            ));
        }
        let exp = doc
            .get("experiment")
            .ok_or_else(|| SpecError::new("experiment", "missing object field"))?;
        let kind = exp
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| SpecError::new("experiment.kind", "missing string field"))?;
        let p = "experiment";
        match kind {
            "siting" => Ok(ExperimentSpec::Siting(SitingSpec::from_json(exp, p)?)),
            "exact_siting" => Ok(ExperimentSpec::ExactSiting(ExactSitingSpec::from_json(
                exp, p,
            )?)),
            "annual" => Ok(ExperimentSpec::Annual(AnnualSpec::from_json(exp, p)?)),
            "sweep" => Ok(ExperimentSpec::Sweep(SweepSpec::from_json(exp, p)?)),
            "timing" => Ok(ExperimentSpec::Timing(TimingSpec::from_json(exp, p)?)),
            other => Err(SpecError::new(
                "experiment.kind",
                format!("unknown experiment kind {other:?}"),
            )),
        }
    }
}

/// Tuning of the heuristic siting search (every [`AnnealOptions`] field
/// plus the pre-filter and profile clock).
#[derive(Debug, Clone, PartialEq)]
pub struct SearchSpec {
    /// Representative-day profile shared by all candidates.
    pub profile: ProfileConfig,
    /// How many locations survive the pre-filter.
    pub filter_keep: usize,
    /// Annealing iterations per chain.
    pub iterations: usize,
    /// Parallel annealing chains.
    pub chains: usize,
    /// Iterations without improvement before a chain stops.
    pub patience: usize,
    /// Largest number of datacenters to consider.
    pub max_sites: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SearchSpec {
    fn default() -> Self {
        let a = AnnealOptions::default();
        Self {
            profile: ProfileConfig::default(),
            filter_keep: 20,
            iterations: a.iterations,
            chains: a.chains,
            patience: a.patience,
            max_sites: a.max_sites,
            seed: a.seed,
        }
    }
}

impl SearchSpec {
    /// The equivalent [`AnnealOptions`] (LP options stay at their
    /// defaults).
    pub fn anneal_options(&self) -> AnnealOptions {
        AnnealOptions {
            iterations: self.iterations,
            chains: self.chains,
            patience: self.patience,
            max_sites: self.max_sites,
            seed: self.seed,
        }
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("profile", profile_to_json(&self.profile)),
            ("filter_keep", Json::from(self.filter_keep)),
            ("iterations", Json::from(self.iterations)),
            ("chains", Json::from(self.chains)),
            ("patience", Json::from(self.patience)),
            ("max_sites", Json::from(self.max_sites)),
            ("seed", Json::from(self.seed)),
        ])
    }

    fn from_json(j: &Json, path: &str) -> Result<Self, SpecError> {
        Ok(Self {
            profile: profile_from_json(need(j, "profile", path)?, &sub(path, "profile"))?,
            filter_keep: int(j, "filter_keep", path)?,
            iterations: int(j, "iterations", path)?,
            chains: int(j, "chains", path)?,
            patience: int(j, "patience", path)?,
            max_sites: int(j, "max_sites", path)?,
            seed: seed(j, "seed", path)?,
        })
    }
}

/// Heuristic siting of a datacenter network.
#[derive(Debug, Clone, PartialEq)]
pub struct SitingSpec {
    /// The provider's placement problem.
    pub input: PlacementInput,
    /// Search tuning.
    pub search: SearchSpec,
}

impl SitingSpec {
    fn to_json(&self) -> Json {
        Json::obj([
            ("input", input_to_json(&self.input)),
            ("search", self.search.to_json()),
        ])
    }

    fn from_json(j: &Json, path: &str) -> Result<Self, SpecError> {
        Ok(Self {
            input: input_from_json(need(j, "input", path)?, &sub(path, "input"))?,
            search: SearchSpec::from_json(need(j, "search", path)?, &sub(path, "search"))?,
        })
    }
}

/// Exact (enumerated) siting over a small filtered candidate set.
#[derive(Debug, Clone, PartialEq)]
pub struct ExactSitingSpec {
    /// The provider's placement problem.
    pub input: PlacementInput,
    /// Representative-day profile shared by all candidates.
    pub profile: ProfileConfig,
    /// Pre-filter keep count (the enumeration is exponential in this).
    pub filter_keep: usize,
    /// Hard cap on candidate-set size.
    pub max_candidates: usize,
    /// Largest siting cardinality to consider.
    pub max_sites: usize,
}

impl ExactSitingSpec {
    fn to_json(&self) -> Json {
        Json::obj([
            ("input", input_to_json(&self.input)),
            ("profile", profile_to_json(&self.profile)),
            ("filter_keep", Json::from(self.filter_keep)),
            ("max_candidates", Json::from(self.max_candidates)),
            ("max_sites", Json::from(self.max_sites)),
        ])
    }

    fn from_json(j: &Json, path: &str) -> Result<Self, SpecError> {
        Ok(Self {
            input: input_from_json(need(j, "input", path)?, &sub(path, "input"))?,
            profile: profile_from_json(need(j, "profile", path)?, &sub(path, "profile"))?,
            filter_keep: int(j, "filter_keep", path)?,
            max_candidates: int(j, "max_candidates", path)?,
            max_sites: int(j, "max_sites", path)?,
        })
    }
}

/// One operational emulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct AnnualSpec {
    /// The full emulation configuration.
    pub config: EmulationConfig,
    /// Include the per-datacenter-hour trace in the report (Fig. 15 needs
    /// it; year-scale runs usually should not pay for 26k rows).
    pub include_trace: bool,
}

impl AnnualSpec {
    fn to_json(&self) -> Json {
        Json::obj([
            ("config", emulation_to_json(&self.config)),
            ("include_trace", Json::from(self.include_trace)),
        ])
    }

    fn from_json(j: &Json, path: &str) -> Result<Self, SpecError> {
        Ok(Self {
            config: emulation_from_json(need(j, "config", path)?, &sub(path, "config"))?,
            include_trace: boolean(j, "include_trace", path)?,
        })
    }
}

/// How sweep axes combine into scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepMode {
    /// Full cross product of every non-empty axis.
    Grid,
    /// The base config first, then one scenario per single axis value
    /// (sensitivity-study style).
    OneAtATime,
}

/// The scenario axes of a sweep. Empty axes keep the base value.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SweepAxes {
    /// First TMY hour of the run (season selection).
    pub start_hour: Vec<usize>,
    /// Per-site battery bank sizes, kWh.
    pub battery_kwh: Vec<f64>,
    /// Net-metering credit fractions; `None` disables net metering.
    pub net_meter_credit: Vec<Option<f64>>,
    /// Forecast noise σ (`0.0` = perfect prediction).
    pub forecast_sigma: Vec<f64>,
    /// WAN bandwidth, Mbit/s.
    pub wan_mbps: Vec<f64>,
}

/// A sweep of operational scenarios built from a base config and axes.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// The base emulation configuration every scenario starts from.
    pub base: EmulationConfig,
    /// The scenario axes.
    pub axes: SweepAxes,
    /// Axis combination mode.
    pub mode: SweepMode,
    /// Seed for noisy-forecast scenarios.
    pub seed: u64,
}

impl SweepSpec {
    fn to_json(&self) -> Json {
        let opt = |v: &Option<f64>| match v {
            Some(x) => Json::from(*x),
            None => Json::Null,
        };
        Json::obj([
            ("base", emulation_to_json(&self.base)),
            (
                "axes",
                Json::obj([
                    (
                        "start_hour",
                        Json::Array(
                            self.axes
                                .start_hour
                                .iter()
                                .map(|&x| Json::from(x))
                                .collect(),
                        ),
                    ),
                    (
                        "battery_kwh",
                        Json::Array(
                            self.axes
                                .battery_kwh
                                .iter()
                                .map(|&x| Json::from(x))
                                .collect(),
                        ),
                    ),
                    (
                        "net_meter_credit",
                        Json::Array(self.axes.net_meter_credit.iter().map(opt).collect()),
                    ),
                    (
                        "forecast_sigma",
                        Json::Array(
                            self.axes
                                .forecast_sigma
                                .iter()
                                .map(|&x| Json::from(x))
                                .collect(),
                        ),
                    ),
                    (
                        "wan_mbps",
                        Json::Array(self.axes.wan_mbps.iter().map(|&x| Json::from(x)).collect()),
                    ),
                ]),
            ),
            (
                "mode",
                Json::from(match self.mode {
                    SweepMode::Grid => "grid",
                    SweepMode::OneAtATime => "one_at_a_time",
                }),
            ),
            ("seed", Json::from(self.seed)),
        ])
    }

    fn from_json(j: &Json, path: &str) -> Result<Self, SpecError> {
        let axes_j = need(j, "axes", path)?;
        let ap = sub(path, "axes");
        let nums = |key: &str| -> Result<Vec<f64>, SpecError> {
            array(axes_j, key, &ap)?
                .iter()
                .enumerate()
                .map(|(i, v)| {
                    v.as_f64().ok_or_else(|| {
                        SpecError::new(format!("{ap}.{key}[{i}]"), "expected number")
                    })
                })
                .collect()
        };
        let axes = SweepAxes {
            start_hour: array(axes_j, "start_hour", &ap)?
                .iter()
                .enumerate()
                .map(|(i, v)| {
                    v.as_usize().ok_or_else(|| {
                        SpecError::new(format!("{ap}.start_hour[{i}]"), "expected integer")
                    })
                })
                .collect::<Result<_, _>>()?,
            battery_kwh: nums("battery_kwh")?,
            net_meter_credit: array(axes_j, "net_meter_credit", &ap)?
                .iter()
                .enumerate()
                .map(|(i, v)| match v {
                    Json::Null => Ok(None),
                    other => other.as_f64().map(Some).ok_or_else(|| {
                        SpecError::new(
                            format!("{ap}.net_meter_credit[{i}]"),
                            "expected number or null",
                        )
                    }),
                })
                .collect::<Result<_, _>>()?,
            forecast_sigma: nums("forecast_sigma")?,
            wan_mbps: nums("wan_mbps")?,
        };
        let mode = match string(j, "mode", path)?.as_str() {
            "grid" => SweepMode::Grid,
            "one_at_a_time" => SweepMode::OneAtATime,
            other => {
                return Err(SpecError::new(
                    sub(path, "mode"),
                    format!("unknown sweep mode {other:?}"),
                ))
            }
        };
        Ok(Self {
            base: emulation_from_json(need(j, "base", path)?, &sub(path, "base"))?,
            axes,
            mode,
            seed: seed(j, "seed", path)?,
        })
    }

    /// Expands the axes into named scenarios per [`SweepMode`].
    pub fn scenarios(&self) -> Vec<greencloud_nebula::sweep::Scenario> {
        use greencloud_nebula::sweep::Scenario;
        let apply = |cfg: &EmulationConfig, tweak: &AxisValue| -> EmulationConfig {
            let mut c = cfg.clone();
            match *tweak {
                AxisValue::StartHour(h) => c.start_hour = h,
                AxisValue::BatteryKwh(kwh) => {
                    for s in &mut c.sites {
                        s.battery_kwh = kwh;
                    }
                }
                AxisValue::NetMeterCredit(credit) => c.net_meter_credit = credit,
                AxisValue::ForecastSigma(sigma) => {
                    c.prediction = if sigma == 0.0 {
                        PredictionMode::Perfect
                    } else {
                        PredictionMode::Noisy {
                            sigma,
                            seed: self.seed,
                        }
                    }
                }
                AxisValue::WanMbps(mbps) => c.wan = WanModel::leased(mbps),
            }
            c
        };
        let axes: Vec<Vec<AxisValue>> = [
            self.axes
                .start_hour
                .iter()
                .map(|&h| AxisValue::StartHour(h))
                .collect::<Vec<_>>(),
            self.axes
                .battery_kwh
                .iter()
                .map(|&k| AxisValue::BatteryKwh(k))
                .collect(),
            self.axes
                .net_meter_credit
                .iter()
                .map(|&c| AxisValue::NetMeterCredit(c))
                .collect(),
            self.axes
                .forecast_sigma
                .iter()
                .map(|&s| AxisValue::ForecastSigma(s))
                .collect(),
            self.axes
                .wan_mbps
                .iter()
                .map(|&m| AxisValue::WanMbps(m))
                .collect(),
        ]
        .into_iter()
        .filter(|axis| !axis.is_empty())
        .collect();

        match self.mode {
            SweepMode::OneAtATime => {
                let mut out = vec![Scenario::new("base", self.base.clone())];
                for axis in &axes {
                    for v in axis {
                        out.push(Scenario::new(v.label(), apply(&self.base, v)));
                    }
                }
                out
            }
            SweepMode::Grid => {
                let mut combos: Vec<(String, EmulationConfig)> =
                    vec![(String::new(), self.base.clone())];
                for axis in &axes {
                    combos = combos
                        .iter()
                        .flat_map(|(name, cfg)| {
                            axis.iter().map(move |v| {
                                let label = if name.is_empty() {
                                    v.label()
                                } else {
                                    format!("{name} {}", v.label())
                                };
                                (label, apply(cfg, v))
                            })
                        })
                        .collect();
                }
                combos
                    .into_iter()
                    .map(|(name, cfg)| {
                        Scenario::new(if name.is_empty() { "base".into() } else { name }, cfg)
                    })
                    .collect()
            }
        }
    }
}

/// One value on one sweep axis.
enum AxisValue {
    StartHour(usize),
    BatteryKwh(f64),
    NetMeterCredit(Option<f64>),
    ForecastSigma(f64),
    WanMbps(f64),
}

impl AxisValue {
    fn label(&self) -> String {
        match self {
            AxisValue::StartHour(h) => format!("start={h}h"),
            AxisValue::BatteryKwh(k) => format!("batt={k}kWh"),
            AxisValue::NetMeterCredit(Some(c)) => format!("netmeter={c}"),
            AxisValue::NetMeterCredit(None) => "netmeter=off".into(),
            AxisValue::ForecastSigma(s) => format!("sigma={s}"),
            AxisValue::WanMbps(m) => format!("wan={m}Mbps"),
        }
    }
}

/// LP-substrate and scheduler timing measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingSpec {
    /// Reduced workloads (CI smoke).
    pub fast: bool,
    /// Measure the paper's §V-C 48-hour schedule computation time.
    pub schedule_timing: bool,
    /// Record the LP timing rows `repro timing` writes to `BENCH_lp.json`:
    /// the single-site LP cold under each pricing rule and warm, the
    /// three-site network LP cold and warm, and the rolling hourly
    /// re-solves warm and cold.
    pub lp_records: bool,
    /// Rounds for the warm-vs-cold hourly re-solve comparison (`0` skips
    /// it).
    pub warm_cold_rounds: usize,
}

impl TimingSpec {
    fn to_json(&self) -> Json {
        Json::obj([
            ("fast", Json::from(self.fast)),
            ("schedule_timing", Json::from(self.schedule_timing)),
            ("lp_records", Json::from(self.lp_records)),
            ("warm_cold_rounds", Json::from(self.warm_cold_rounds)),
        ])
    }

    fn from_json(j: &Json, path: &str) -> Result<Self, SpecError> {
        Ok(Self {
            fast: boolean(j, "fast", path)?,
            schedule_timing: boolean(j, "schedule_timing", path)?,
            lp_records: boolean(j, "lp_records", path)?,
            warm_cold_rounds: int(j, "warm_cold_rounds", path)?,
        })
    }
}

// ---------------------------------------------------------------------------
// Field-level codecs for the embedded config types.

fn sub(path: &str, key: &str) -> String {
    format!("{path}.{key}")
}

fn need<'a>(j: &'a Json, key: &str, path: &str) -> Result<&'a Json, SpecError> {
    j.get(key)
        .ok_or_else(|| SpecError::new(sub(path, key), "missing field"))
}

fn num(j: &Json, key: &str, path: &str) -> Result<f64, SpecError> {
    need(j, key, path)?
        .as_f64()
        .ok_or_else(|| SpecError::new(sub(path, key), "expected number"))
}

fn int(j: &Json, key: &str, path: &str) -> Result<usize, SpecError> {
    need(j, key, path)?
        .as_usize()
        .ok_or_else(|| SpecError::new(sub(path, key), "expected non-negative integer"))
}

fn int_u32(j: &Json, key: &str, path: &str) -> Result<u32, SpecError> {
    let v = int(j, key, path)?;
    u32::try_from(v).map_err(|_| SpecError::new(sub(path, key), "exceeds u32"))
}

fn seed(j: &Json, key: &str, path: &str) -> Result<u64, SpecError> {
    need(j, key, path)?
        .as_u64()
        .ok_or_else(|| SpecError::new(sub(path, key), "expected integer seed below 2^53"))
}

fn string(j: &Json, key: &str, path: &str) -> Result<String, SpecError> {
    Ok(need(j, key, path)?
        .as_str()
        .ok_or_else(|| SpecError::new(sub(path, key), "expected string"))?
        .to_string())
}

fn boolean(j: &Json, key: &str, path: &str) -> Result<bool, SpecError> {
    need(j, key, path)?
        .as_bool()
        .ok_or_else(|| SpecError::new(sub(path, key), "expected boolean"))
}

fn array<'a>(j: &'a Json, key: &str, path: &str) -> Result<&'a [Json], SpecError> {
    need(j, key, path)?
        .as_array()
        .ok_or_else(|| SpecError::new(sub(path, key), "expected array"))
}

fn tech_to_str(t: TechMix) -> &'static str {
    match t {
        TechMix::BrownOnly => "brown_only",
        TechMix::WindOnly => "wind_only",
        TechMix::SolarOnly => "solar_only",
        TechMix::Both => "both",
    }
}

fn tech_from_str(s: &str, path: &str) -> Result<TechMix, SpecError> {
    match s {
        "brown_only" => Ok(TechMix::BrownOnly),
        "wind_only" => Ok(TechMix::WindOnly),
        "solar_only" => Ok(TechMix::SolarOnly),
        "both" => Ok(TechMix::Both),
        other => Err(SpecError::new(path, format!("unknown tech mix {other:?}"))),
    }
}

fn storage_to_str(s: StorageMode) -> &'static str {
    match s {
        StorageMode::NetMetering => "net_metering",
        StorageMode::Batteries => "batteries",
        StorageMode::None => "none",
    }
}

fn storage_from_str(s: &str, path: &str) -> Result<StorageMode, SpecError> {
    match s {
        "net_metering" => Ok(StorageMode::NetMetering),
        "batteries" => Ok(StorageMode::Batteries),
        "none" => Ok(StorageMode::None),
        other => Err(SpecError::new(
            path,
            format!("unknown storage mode {other:?}"),
        )),
    }
}

/// Serializes a [`PlacementInput`].
pub fn input_to_json(input: &PlacementInput) -> Json {
    Json::obj([
        ("total_capacity_mw", Json::from(input.total_capacity_mw)),
        ("min_green_fraction", Json::from(input.min_green_fraction)),
        ("min_availability", Json::from(input.min_availability)),
        ("dc_availability", Json::from(input.dc_availability)),
        ("tech", Json::from(tech_to_str(input.tech))),
        ("storage", Json::from(storage_to_str(input.storage))),
        ("migration_fraction", Json::from(input.migration_fraction)),
        ("credit_net_meter", Json::from(input.credit_net_meter)),
    ])
}

/// Deserializes a [`PlacementInput`] (field errors name `path`).
pub fn input_from_json(j: &Json, path: &str) -> Result<PlacementInput, SpecError> {
    Ok(PlacementInput {
        total_capacity_mw: num(j, "total_capacity_mw", path)?,
        min_green_fraction: num(j, "min_green_fraction", path)?,
        min_availability: num(j, "min_availability", path)?,
        dc_availability: num(j, "dc_availability", path)?,
        tech: tech_from_str(&string(j, "tech", path)?, &sub(path, "tech"))?,
        storage: storage_from_str(&string(j, "storage", path)?, &sub(path, "storage"))?,
        migration_fraction: num(j, "migration_fraction", path)?,
        credit_net_meter: num(j, "credit_net_meter", path)?,
    })
}

fn profile_to_json(p: &ProfileConfig) -> Json {
    Json::obj([
        ("days_per_season", Json::from(p.days_per_season)),
        ("seed", Json::from(p.seed)),
    ])
}

fn profile_from_json(j: &Json, path: &str) -> Result<ProfileConfig, SpecError> {
    Ok(ProfileConfig {
        days_per_season: int(j, "days_per_season", path)?,
        seed: seed(j, "seed", path)?,
    })
}

fn emulation_to_json(c: &EmulationConfig) -> Json {
    let opt = |v: Option<f64>| match v {
        Some(x) => Json::from(x),
        None => Json::Null,
    };
    Json::obj([
        ("total_load_mw", Json::from(c.total_load_mw)),
        ("vm_count", Json::from(c.vm_count)),
        ("hours", Json::from(c.hours)),
        ("start_hour", Json::from(c.start_hour)),
        (
            "sites",
            Json::Array(
                c.sites
                    .iter()
                    .map(|s| {
                        Json::obj([
                            ("location_name", Json::from(s.location_name.as_str())),
                            ("solar_mw", Json::from(s.solar_mw)),
                            ("wind_mw", Json::from(s.wind_mw)),
                            ("capacity_mw", Json::from(s.capacity_mw)),
                            ("battery_kwh", Json::from(s.battery_kwh)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "scheduler",
            Json::obj([
                ("window_hours", Json::from(c.scheduler.window_hours)),
                (
                    "migration_fraction",
                    Json::from(c.scheduler.migration_fraction),
                ),
                (
                    "migration_penalty",
                    Json::from(c.scheduler.migration_penalty),
                ),
                (
                    "integral_vm_power_mw",
                    opt(c.scheduler.integral_vm_power_mw),
                ),
            ]),
        ),
        (
            "wan",
            Json::obj([
                ("bandwidth_mbps", Json::from(c.wan.bandwidth_mbps)),
                ("max_precopy_rounds", Json::from(c.wan.max_precopy_rounds)),
            ]),
        ),
        ("battery_efficiency", Json::from(c.battery_efficiency)),
        ("net_meter_credit", opt(c.net_meter_credit)),
        (
            "faults",
            match &c.faults {
                Some(f) => faults_to_json(f),
                None => Json::Null,
            },
        ),
        (
            "prediction",
            match c.prediction {
                PredictionMode::Perfect => Json::from("perfect"),
                PredictionMode::Noisy { sigma, seed } => {
                    Json::obj([("sigma", Json::from(sigma)), ("seed", Json::from(seed))])
                }
            },
        ),
    ])
}

fn opt_num(j: &Json, key: &str, path: &str) -> Result<Option<f64>, SpecError> {
    match need(j, key, path)? {
        Json::Null => Ok(None),
        other => other
            .as_f64()
            .map(Some)
            .ok_or_else(|| SpecError::new(sub(path, key), "expected number or null")),
    }
}

fn emulation_from_json(j: &Json, path: &str) -> Result<EmulationConfig, SpecError> {
    let sites_j = array(j, "sites", path)?;
    let mut sites = Vec::with_capacity(sites_j.len());
    for (i, s) in sites_j.iter().enumerate() {
        let sp = format!("{path}.sites[{i}]");
        sites.push(EmulationSite {
            location_name: string(s, "location_name", &sp)?,
            solar_mw: num(s, "solar_mw", &sp)?,
            wind_mw: num(s, "wind_mw", &sp)?,
            capacity_mw: num(s, "capacity_mw", &sp)?,
            battery_kwh: num(s, "battery_kwh", &sp)?,
        });
    }
    let sched_j = need(j, "scheduler", path)?;
    let sched_p = sub(path, "scheduler");
    let scheduler = SchedulerConfig {
        window_hours: int(sched_j, "window_hours", &sched_p)?,
        migration_fraction: num(sched_j, "migration_fraction", &sched_p)?,
        migration_penalty: num(sched_j, "migration_penalty", &sched_p)?,
        integral_vm_power_mw: opt_num(sched_j, "integral_vm_power_mw", &sched_p)?,
    };
    let wan_j = need(j, "wan", path)?;
    let wan_p = sub(path, "wan");
    let wan = WanModel {
        bandwidth_mbps: num(wan_j, "bandwidth_mbps", &wan_p)?,
        max_precopy_rounds: int_u32(wan_j, "max_precopy_rounds", &wan_p)?,
    };
    let prediction = match need(j, "prediction", path)? {
        Json::Str(s) if s == "perfect" => PredictionMode::Perfect,
        obj @ Json::Object(_) => {
            let pp = sub(path, "prediction");
            PredictionMode::Noisy {
                sigma: num(obj, "sigma", &pp)?,
                seed: seed(obj, "seed", &pp)?,
            }
        }
        _ => {
            return Err(SpecError::new(
                sub(path, "prediction"),
                "expected \"perfect\" or {sigma, seed}",
            ))
        }
    };
    Ok(EmulationConfig {
        total_load_mw: num(j, "total_load_mw", path)?,
        vm_count: int_u32(j, "vm_count", path)?,
        hours: int(j, "hours", path)?,
        start_hour: int(j, "start_hour", path)?,
        sites,
        scheduler,
        wan,
        battery_efficiency: num(j, "battery_efficiency", path)?,
        net_meter_credit: opt_num(j, "net_meter_credit", path)?,
        faults: match j.get("faults") {
            // Absent or null both mean "no fault injection": specs written
            // before greencloud-spec/1 grew this field keep parsing.
            None | Some(Json::Null) => None,
            Some(f) => Some(faults_from_json(f, &sub(path, "faults"))?),
        },
        prediction,
    })
}

fn faults_to_json(f: &FaultSpec) -> Json {
    Json::obj([
        ("seed", Json::from(f.seed)),
        (
            "site_availability",
            match f.site_availability {
                Some(a) => Json::from(a),
                None => Json::Null,
            },
        ),
        ("site_mttr_hours", Json::from(f.site_mttr_hours)),
        (
            "grid_outage_rate_per_khour",
            Json::from(f.grid_outage_rate_per_khour),
        ),
        ("grid_mttr_hours", Json::from(f.grid_mttr_hours)),
        ("grid_residual_factor", Json::from(f.grid_residual_factor)),
        (
            "wan_outage_rate_per_khour",
            Json::from(f.wan_outage_rate_per_khour),
        ),
        ("wan_mttr_hours", Json::from(f.wan_mttr_hours)),
        ("wan_residual_factor", Json::from(f.wan_residual_factor)),
        ("shock_rate_per_khour", Json::from(f.shock_rate_per_khour)),
        ("shock_mttr_hours", Json::from(f.shock_mttr_hours)),
        ("shock_green_factor", Json::from(f.shock_green_factor)),
        (
            "battery_fade_per_khour",
            Json::from(f.battery_fade_per_khour),
        ),
        (
            "scheduled",
            Json::Array(
                f.scheduled
                    .iter()
                    .map(|s| {
                        Json::obj([
                            ("kind", Json::from(s.kind.as_str())),
                            (
                                "site",
                                match s.site {
                                    Some(i) => Json::from(i),
                                    None => Json::Null,
                                },
                            ),
                            ("start_hour", Json::from(s.start_hour)),
                            ("duration_hours", Json::from(s.duration_hours)),
                            ("magnitude", Json::from(s.magnitude)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn faults_from_json(j: &Json, path: &str) -> Result<FaultSpec, SpecError> {
    let scheduled_j = array(j, "scheduled", path)?;
    let mut scheduled = Vec::with_capacity(scheduled_j.len());
    for (i, s) in scheduled_j.iter().enumerate() {
        let sp = format!("{path}.scheduled[{i}]");
        let kind_s = string(s, "kind", &sp)?;
        let kind = FaultKind::parse(&kind_s).ok_or_else(|| {
            SpecError::new(sub(&sp, "kind"), format!("unknown fault kind {kind_s:?}"))
        })?;
        let site =
            match need(s, "site", &sp)? {
                Json::Null => None,
                other => Some(other.as_usize().ok_or_else(|| {
                    SpecError::new(sub(&sp, "site"), "expected site index or null")
                })?),
            };
        scheduled.push(ScheduledFault {
            kind,
            site,
            start_hour: int(s, "start_hour", &sp)?,
            duration_hours: int(s, "duration_hours", &sp)?,
            magnitude: num(s, "magnitude", &sp)?,
        });
    }
    Ok(FaultSpec {
        seed: seed(j, "seed", path)?,
        site_availability: opt_num(j, "site_availability", path)?,
        site_mttr_hours: num(j, "site_mttr_hours", path)?,
        grid_outage_rate_per_khour: num(j, "grid_outage_rate_per_khour", path)?,
        grid_mttr_hours: num(j, "grid_mttr_hours", path)?,
        grid_residual_factor: num(j, "grid_residual_factor", path)?,
        wan_outage_rate_per_khour: num(j, "wan_outage_rate_per_khour", path)?,
        wan_mttr_hours: num(j, "wan_mttr_hours", path)?,
        wan_residual_factor: num(j, "wan_residual_factor", path)?,
        shock_rate_per_khour: num(j, "shock_rate_per_khour", path)?,
        shock_mttr_hours: num(j, "shock_mttr_hours", path)?,
        shock_green_factor: num(j, "shock_green_factor", path)?,
        battery_fade_per_khour: num(j, "battery_fade_per_khour", path)?,
        scheduled,
    })
}
