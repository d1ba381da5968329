//! `operate`: the paper's §V GreenNebula, run hour by hour.
//!
//! A round emulates the Table III network over the anchor-only world with
//! 200 VMs, 50 MWh of batteries per site and net metering — the year
//! `repro annual` runs, shortened to [`HOURS`] — through
//! `emulation::run_observed`, with an hour observer that timestamps every
//! callback. The observer's first call ends the set-up; each later call
//! ends one emulated hour.

use crate::trace::{SpanId, Tracer};
use crate::{Finish, Round, Workload};
use greencloud_api::harness::{rolling_states, table3_profiles, REPRO_SEED};
use greencloud_climate::catalog::WorldCatalog;
use greencloud_nebula::emulation::{self, EmulationConfig, EmulationReport};
use greencloud_nebula::scheduler::RollingScheduler;
use std::sync::atomic::AtomicBool;
use std::sync::Mutex;
use std::time::Instant;

/// Emulated hours per round: enough for a p99 over one round's hours.
const HOURS: usize = 1000;

pub struct Operate {
    config: EmulationConfig,
    /// The latest round's report, for the output checks.
    report: Option<EmulationReport>,
}

impl Operate {
    /// The input is the paper's network and does not depend on the seed,
    /// so every run does the same work.
    pub fn new() -> Self {
        Operate {
            config: EmulationConfig {
                vm_count: 200,
                hours: HOURS,
                start_hour: 0,
                net_meter_credit: Some(1.0),
                ..EmulationConfig::default()
            }
            .with_batteries(50_000.0),
            report: None,
        }
    }
}

/// What the hour observer saw: callback instants and the CPU clock at the
/// first and last callback.
#[derive(Default)]
struct Clock {
    stamps: Vec<Instant>,
    cpu: Vec<f64>,
}

impl Workload for Operate {
    const OP: &'static str = "hour";

    fn round(&mut self, tracer: &Tracer, parent: Option<SpanId>) -> Result<Round, String> {
        let t0 = Instant::now();
        let catalog = tracer.time("climate.world", parent, || {
            WorldCatalog::anchors_only(REPRO_SEED)
        });
        let clock = Mutex::new(Clock {
            stamps: Vec::with_capacity(HOURS + 1),
            cpu: Vec::with_capacity(2),
        });
        let run = tracer.open("nebula.emulation", parent, 0);
        let observe = |done: usize, total: usize| {
            let now = Instant::now();
            let mut c = clock
                .lock()
                .expect("the observer never panics holding the clock");
            if let Some(&prev) = c.stamps.last() {
                tracer.record("nebula.hour", run, done as u64, prev, now);
            }
            c.stamps.push(now);
            if done == 0 || done == total {
                c.cpu.push(crate::sys::cpu_seconds());
            }
        };
        let cancel = AtomicBool::new(false);
        let report = emulation::run_observed(&catalog, &self.config, &cancel, Some(&observe))
            .map_err(|e| e.to_string())?;
        tracer.close(run);
        let clock = clock
            .into_inner()
            .expect("the observer never panics holding the clock");
        let (Some(first), Some(last)) = (clock.stamps.first(), clock.stamps.last()) else {
            return Err("the hour observer never fired".to_string());
        };
        let latencies_ms: Vec<f64> = clock
            .stamps
            .windows(2)
            .map(|w| (w[1] - w[0]).as_secs_f64() * 1e3)
            .collect();
        let s = &report.scheduler_stats;
        let round = Round {
            setup_s: (*first - t0).as_secs_f64(),
            wall_s: (*last - *first).as_secs_f64(),
            cpu_s: clock
                .cpu
                .last()
                .zip(clock.cpu.first())
                .map_or(0.0, |(b, a)| b - a),
            attempted: latencies_ms.len() as u64,
            latencies_ms,
            counts: vec![
                ("scheduler.rounds".to_string(), s.rounds.to_string()),
                ("simplex_iterations".to_string(), s.iterations.to_string()),
                ("migrations".to_string(), report.migrations.to_string()),
                ("brown_mwh".to_string(), report.total_brown_mwh.to_string()),
                (
                    "settlement_usd".to_string(),
                    report.energy_settlement_usd.to_string(),
                ),
            ],
            ..Round::default()
        };
        self.report = Some(report);
        Ok(round)
    }

    fn finish(&mut self, tracer: &Tracer) -> Finish {
        let mut finish = Finish::default();
        let Some(report) = &self.report else {
            return finish;
        };
        let sites = self.config.sites.len();
        finish.checks.push((
            format!(
                "trace rows {} == hours {HOURS} x sites {sites}",
                report.rows.len()
            ),
            report.rows.len() == HOURS * sites,
        ));
        finish.checks.push(energy_balance(report));
        if !tracer.on() {
            return finish;
        }
        // Replay the scheduler alone over the same network, window and
        // hours, feeding each plan's targets back as the next loads.
        let catalog = WorldCatalog::anchors_only(REPRO_SEED);
        let replay = tracer.open("nebula.scheduler.replay", None, 0);
        if let Some(profiles) = table3_profiles(&catalog) {
            let mut scheduler = RollingScheduler::new(self.config.scheduler.clone());
            let window = self.config.scheduler.window_hours;
            let mut loads = vec![0.0; profiles.len()];
            loads[0] = self.config.total_load_mw;
            let start = self.config.start_hour;
            for t in start..start + HOURS {
                let states = rolling_states(&profiles, t, window, &loads);
                match tracer.time("nebula.scheduler.plan", replay, || scheduler.plan(&states)) {
                    Ok(plan) => loads = plan.target_mw,
                    Err(e) => {
                        finish
                            .checks
                            .push((format!("scheduler replay hour {t}: {e}"), false));
                        break;
                    }
                }
            }
        }
        tracer.close(replay);
        let spans = tracer.spans();
        let ms = |name| -> Vec<f64> {
            crate::trace::durations(&spans, name)
                .iter()
                .map(|d| d * 1e3)
                .collect()
        };
        let plans = ms("nebula.scheduler.plan");
        let plan_p50 = crate::stats::median(&plans).unwrap_or(0.0);
        let hour_p50 = crate::stats::median(&ms("nebula.hour")).unwrap_or(0.0);
        let s = &report.scheduler_stats;
        let l = &mut finish.layer;
        l.insert(
            "climate.world_s",
            crate::med(crate::trace::durations(&spans, "climate.world")),
        );
        l.insert("nebula.scheduler.rounds", s.rounds as f64);
        l.insert("nebula.scheduler.warm_rate", s.warm_rate());
        l.insert("nebula.scheduler.rebuilds", s.rebuilds as f64);
        l.insert("nebula.scheduler.recoveries", s.recoveries as f64);
        l.insert("nebula.scheduler.plan_ms_p50", plan_p50);
        l.insert(
            "nebula.scheduler.plan_ms_p99",
            crate::stats::percentile(&plans, 99.0).unwrap_or(0.0),
        );
        l.insert("nebula.emulate_ms_p50", hour_p50 - plan_p50);
        l.insert("nebula.migrations", report.migrations as f64);
        l.insert("nebula.migrated_gb", report.migrated_gb);
        l.insert(
            "nebula.rereplicated_blocks",
            report.rereplicated_blocks as f64,
        );
        l.insert("lp.iterations", s.iterations as f64);
        l.insert(
            "lp.iters_per_solve",
            if s.rounds > 0 {
                s.iterations as f64 / s.rounds as f64
            } else {
                0.0
            },
        );
        l.insert("lp.refactorizations", s.refactorizations as f64);
        l.insert("lp.ftrans", s.ftrans as f64);
        l.insert("lp.btrans", s.btrans as f64);
        l.insert("lp.pricing_ms", s.pricing_ms());
        finish
    }
}

/// Every site-hour's demand is covered exactly by green, battery, banked
/// credit and brown energy, and the rows add up to the reported totals.
fn energy_balance(r: &EmulationReport) -> (String, bool) {
    let mut worst = 0.0f64;
    let (mut demand, mut brown) = (0.0, 0.0);
    for row in &r.rows {
        let need = row.load_mw + row.migration_mw + row.pue_overhead_mw;
        let covered = row.green_available_mw.min(need)
            + row.battery_discharge_mw
            + row.net_draw_mw
            + row.brown_mw;
        worst = worst.max((covered - need).abs() / need.max(1.0));
        demand += need;
        brown += row.brown_mw;
    }
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-6 * b.abs().max(1.0);
    let ok = worst <= 1e-7 && close(demand, r.total_demand_mwh) && close(brown, r.total_brown_mwh);
    (
        format!(
            "energy balance: worst site-hour gap {worst:.1e}, demand {demand:.3} vs {:.3} MWh, brown {brown:.3} vs {:.3} MWh",
            r.total_demand_mwh, r.total_brown_mwh
        ),
        ok,
    )
}
