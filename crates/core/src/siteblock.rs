//! Per-site LP column blocks.
//!
//! The siting LP ([`crate::formulation`]) is block-structured: every site
//! contributes an identical *shape* of sizing/dispatch variables and
//! per-slot constraints, coupled only by a thin layer of network rows
//! (demand, green fraction, redundancy). A [`SiteBlock`] is one site's
//! compiled contribution — variable definitions, constraint rows over
//! *local* variable indices, and the site's unit costs — independent of
//! which other sites share the network.
//!
//! Blocks depend only on `(candidate, SizeClass)` for a fixed
//! [`PlacementInput`]/[`CostParams`], so the annealing search and the exact
//! enumerator each keep a map of the blocks they compiled, local to one
//! call, and [`assemble`](crate::formulation::assemble) every siting from
//! it: a neighbour siting that adds, removes, or swaps one site compiles at
//! most one block instead of re-emitting every variable and constraint.
//! Assembly order follows the siting (which is kept sorted), giving a
//! stable variable ordering so simplex bases transfer between neighbouring
//! sitings (see `DESIGN.md`).

use crate::candidate::CandidateSite;
use crate::formulation::UnitCosts;
use crate::framework::{PlacementInput, SizeClass, StorageMode};
use greencloud_cost::params::CostParams;
use greencloud_lp::{Model, Sense, VarId};

/// Months per year (energy flows are annual; costs are reported monthly).
pub(crate) const MONTHS: f64 = 12.0;

/// One variable definition inside a block (local to the block).
#[derive(Debug, Clone)]
struct BlockVar {
    name: String,
    lb: f64,
    ub: f64,
    obj: f64,
}

/// One constraint row inside a block, over local variable indices.
#[derive(Debug, Clone)]
struct BlockCon {
    name: String,
    terms: Vec<(usize, f64)>,
    sense: Sense,
    rhs: f64,
}

/// Local (block-relative) indices of the semantically named variables;
/// mirrors `formulation::SiteVars` before offsetting.
#[derive(Debug, Clone, Default)]
pub(crate) struct LocalVars {
    pub capacity: usize,
    pub solar: usize,
    pub wind: usize,
    pub batt: Option<usize>,
    pub credited: Option<usize>,
    pub comp: Vec<usize>,
    pub mig: Option<Vec<usize>>,
    pub green_used: Vec<usize>,
    pub brown: Vec<usize>,
    pub batt_charge: Option<Vec<usize>>,
    pub batt_discharge: Option<Vec<usize>>,
    pub batt_level: Option<Vec<usize>>,
    pub nm_push: Option<Vec<usize>>,
    pub nm_draw: Option<Vec<usize>>,
}

/// Global `VarId` handles for one site after assembly into a model (the
/// battery *level* series stays block-internal — nothing downstream reads
/// it).
#[derive(Debug, Clone)]
pub(crate) struct SiteVars {
    pub capacity: VarId,
    pub solar: VarId,
    pub wind: VarId,
    pub batt: Option<VarId>,
    pub credited: Option<VarId>,
    pub comp: Vec<VarId>,
    pub mig: Option<Vec<VarId>>,
    pub green_used: Vec<VarId>,
    pub brown: Vec<VarId>,
    pub batt_charge: Option<Vec<VarId>>,
    pub batt_discharge: Option<Vec<VarId>>,
    pub nm_push: Option<Vec<VarId>>,
    pub nm_draw: Option<Vec<VarId>>,
}

/// One site's compiled LP contribution for a fixed `(input, params)` pair.
#[derive(Debug)]
pub struct SiteBlock {
    vars: Vec<BlockVar>,
    cons: Vec<BlockCon>,
    locals: LocalVars,
    /// Fixed monthly objective offset (the site's connection cost).
    obj_offset: f64,
    /// The site's Table I unit costs.
    pub(crate) unit_costs: UnitCosts,
    /// Retail electricity price, $/MWh.
    pub(crate) price_mwh: f64,
    /// Slots in the site's representative profile.
    pub(crate) num_slots: usize,
}

impl SiteBlock {
    /// Compiles the block for `site` under `input`/`params`. `ci` is the
    /// candidate's index, baked into variable/constraint names so that the
    /// same block is identifiable regardless of its position in a siting.
    pub fn build(
        params: &CostParams,
        input: &PlacementInput,
        ci: usize,
        site: &CandidateSite,
        class: SizeClass,
    ) -> Self {
        let uc = UnitCosts::compute(params, site, class);
        let max_pue = site.max_pue();
        let p_mwh = site.econ.elec_usd_per_kwh * 1000.0;
        let prof = &site.profile;
        let num_slots = prof.len();
        let weights = &prof.weight_hours;
        let theta = input.migration_fraction;
        let block_len = prof.block_len;

        let mut b = SiteBlock {
            vars: Vec::with_capacity(3 + 8 * num_slots),
            cons: Vec::with_capacity(6 * num_slots + 3),
            locals: LocalVars::default(),
            obj_offset: uc.connection,
            unit_costs: uc,
            price_mwh: p_mwh,
            num_slots,
        };

        // --- sizing variables (same emission order as the original
        // monolithic builder, so models assemble identically) -------------
        let (cap_lb, cap_ub) = match class {
            SizeClass::Small => (0.0, 10.0 / max_pue),
            SizeClass::Large => (10.0 / max_pue, f64::INFINITY),
        };
        b.locals.capacity = b.var(format!("cap[c{ci}]"), cap_lb, cap_ub, uc.capacity_mw);
        let solar_ub = if input.tech.allows_solar() {
            f64::INFINITY
        } else {
            0.0
        };
        let wind_ub = if input.tech.allows_wind() {
            f64::INFINITY
        } else {
            0.0
        };
        b.locals.solar = b.var(format!("solar[c{ci}]"), 0.0, solar_ub, uc.solar_mw);
        b.locals.wind = b.var(format!("wind[c{ci}]"), 0.0, wind_ub, uc.wind_mw);
        b.locals.batt = match input.storage {
            StorageMode::Batteries => {
                Some(b.var(format!("batt[c{ci}]"), 0.0, f64::INFINITY, uc.batt_mwh))
            }
            _ => None,
        };

        // --- per-slot variables ------------------------------------------
        let brown_cap_mw = site.econ.near_plant_cap_kw / 1000.0 * params.brown_cap_fraction;
        for (t, &w) in weights.iter().enumerate() {
            let comp = b.var(format!("comp[c{ci},{t}]"), 0.0, f64::INFINITY, 0.0);
            let g = b.var(format!("g[c{ci},{t}]"), 0.0, f64::INFINITY, 0.0);
            // Brown power is priced per MWh of annual energy, reported
            // monthly: coefficient = price · w_t / 12.
            let brown = b.var(
                format!("brown[c{ci},{t}]"),
                0.0,
                brown_cap_mw,
                p_mwh * w / MONTHS,
            );
            b.locals.comp.push(comp);
            b.locals.green_used.push(g);
            b.locals.brown.push(brown);
        }
        if theta > 0.0 {
            b.locals.mig = Some(
                (0..num_slots)
                    .map(|t| b.var(format!("mig[c{ci},{t}]"), 0.0, f64::INFINITY, 0.0))
                    .collect(),
            );
        }
        if matches!(input.storage, StorageMode::Batteries) {
            b.locals.batt_charge = Some(
                (0..num_slots)
                    .map(|t| b.var(format!("bc[c{ci},{t}]"), 0.0, f64::INFINITY, 0.0))
                    .collect(),
            );
            b.locals.batt_discharge = Some(
                (0..num_slots)
                    .map(|t| b.var(format!("bd[c{ci},{t}]"), 0.0, f64::INFINITY, 0.0))
                    .collect(),
            );
            b.locals.batt_level = Some(
                (0..num_slots)
                    .map(|t| b.var(format!("bl[c{ci},{t}]"), 0.0, f64::INFINITY, 0.0))
                    .collect(),
            );
        }
        if matches!(input.storage, StorageMode::NetMetering) {
            b.locals.nm_push = Some(
                (0..num_slots)
                    .map(|t| b.var(format!("np[c{ci},{t}]"), 0.0, f64::INFINITY, 0.0))
                    .collect(),
            );
            // Draws are billed at retail like brown energy.
            b.locals.nm_draw = Some(
                (0..num_slots)
                    .map(|t| {
                        b.var(
                            format!("nd[c{ci},{t}]"),
                            0.0,
                            f64::INFINITY,
                            p_mwh * weights[t] / MONTHS,
                        )
                    })
                    .collect(),
            );
            // Credit revenue: maximized by the solver, bounded by the two
            // no-cash-out rows added below.
            b.locals.credited = Some(b.var(format!("credited[c{ci}]"), 0.0, f64::INFINITY, -1.0));
        }

        // --- per-slot constraints ----------------------------------------
        let v = b.locals.clone();
        for t in 0..num_slots {
            let pue = prof.pue[t];
            // Load balance (equality): g + bd + nd + brown − pue·(comp+mig) = 0.
            let mut terms = vec![(v.green_used[t], 1.0), (v.brown[t], 1.0), (v.comp[t], -pue)];
            if let Some(bd) = &v.batt_discharge {
                terms.push((bd[t], 1.0));
            }
            if let Some(nd) = &v.nm_draw {
                terms.push((nd[t], 1.0));
            }
            if let Some(m) = &v.mig {
                terms.push((m[t], -pue));
            }
            b.con(format!("bal[c{ci},{t}]"), terms, Sense::Eq, 0.0);

            // Production split: g + bc + np − α·solar − β·wind ≤ 0.
            let mut terms = vec![
                (v.green_used[t], 1.0),
                (v.solar, -prof.alpha[t]),
                (v.wind, -prof.beta[t]),
            ];
            if let Some(bc) = &v.batt_charge {
                terms.push((bc[t], 1.0));
            }
            if let Some(np) = &v.nm_push {
                terms.push((np[t], 1.0));
            }
            b.con(format!("prod[c{ci},{t}]"), terms, Sense::Le, 0.0);

            // Capacity link: comp + mig − capacity ≤ 0.
            let mut terms = vec![(v.comp[t], 1.0), (v.capacity, -1.0)];
            if let Some(m) = &v.mig {
                terms.push((m[t], 1.0));
            }
            b.con(format!("caplink[c{ci},{t}]"), terms, Sense::Le, 0.0);

            // Migration floor: θ·comp_prev − θ·comp_t − mig_t ≤ 0, cyclic per
            // dispatch block.
            if let Some(m) = &v.mig {
                let prev = cyclic_prev(t, block_len, num_slots);
                if prev != t {
                    b.con(
                        format!("migfloor[c{ci},{t}]"),
                        vec![(v.comp[prev], theta), (v.comp[t], -theta), (m[t], -1.0)],
                        Sense::Le,
                        0.0,
                    );
                }
            }

            // Battery dynamics (cyclic per block) and capacity.
            if let (Some(bc), Some(bd), Some(bl), Some(bcap)) =
                (&v.batt_charge, &v.batt_discharge, &v.batt_level, v.batt)
            {
                let prev = cyclic_prev(t, block_len, num_slots);
                let eff = params.batt_efficiency;
                b.con(
                    format!("battdyn[c{ci},{t}]"),
                    vec![(bl[t], 1.0), (bl[prev], -1.0), (bc[t], -eff), (bd[t], 1.0)],
                    Sense::Eq,
                    0.0,
                );
                b.con(
                    format!("battcap[c{ci},{t}]"),
                    vec![(bl[t], 1.0), (bcap, -1.0)],
                    Sense::Le,
                    0.0,
                );
            }
        }

        // Net-metering annual true-up: Σ w·nd − Σ w·np ≤ 0.
        if let (Some(np), Some(nd)) = (&v.nm_push, &v.nm_draw) {
            let mut terms = Vec::with_capacity(2 * num_slots);
            for t in 0..num_slots {
                terms.push((nd[t], weights[t]));
                terms.push((np[t], -weights[t]));
            }
            b.con(format!("bank[c{ci}]"), terms, Sense::Le, 0.0);

            // No cash-out: credited ≤ credit·Σ w·np·price/12 and
            // credited ≤ payable = Σ w·(brown+nd)·price/12.
            let cr = v.credited.expect("net metering implies credit var");
            let mut terms = vec![(cr, 1.0)];
            for t in 0..num_slots {
                terms.push((np[t], -input.credit_net_meter * p_mwh * weights[t] / MONTHS));
            }
            b.con(format!("credit_push[c{ci}]"), terms, Sense::Le, 0.0);
            let mut terms = vec![(cr, 1.0)];
            for t in 0..num_slots {
                terms.push((v.brown[t], -p_mwh * weights[t] / MONTHS));
                terms.push((nd[t], -p_mwh * weights[t] / MONTHS));
            }
            b.con(format!("credit_pay[c{ci}]"), terms, Sense::Le, 0.0);
        }

        b
    }

    fn var(&mut self, name: String, lb: f64, ub: f64, obj: f64) -> usize {
        let idx = self.vars.len();
        self.vars.push(BlockVar { name, lb, ub, obj });
        idx
    }

    fn con(&mut self, name: String, terms: Vec<(usize, f64)>, sense: Sense, rhs: f64) {
        self.cons.push(BlockCon {
            name,
            terms,
            sense,
            rhs,
        });
    }

    /// Number of variables this block contributes.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints this block contributes.
    pub fn num_cons(&self) -> usize {
        self.cons.len()
    }

    /// Appends this block's variables to `model`, returning the site's
    /// global handles. Constraints are appended separately (all blocks'
    /// variables first, then all constraints) by
    /// [`SiteBlock::append_cons_to`].
    pub(crate) fn append_vars_to(&self, model: &mut Model) -> SiteVars {
        let base = model.num_vars();
        for v in &self.vars {
            model.add_var(v.name.clone(), v.lb, v.ub, v.obj);
        }
        model.add_obj_offset(self.obj_offset);
        let at = |local: usize| VarId::from_index(base + local);
        let all = |locals: &Vec<usize>| -> Vec<VarId> { locals.iter().map(|&l| at(l)).collect() };
        let l = &self.locals;
        SiteVars {
            capacity: at(l.capacity),
            solar: at(l.solar),
            wind: at(l.wind),
            batt: l.batt.map(at),
            credited: l.credited.map(at),
            comp: all(&l.comp),
            mig: l.mig.as_ref().map(all),
            green_used: all(&l.green_used),
            brown: all(&l.brown),
            batt_charge: l.batt_charge.as_ref().map(all),
            batt_discharge: l.batt_discharge.as_ref().map(all),
            nm_push: l.nm_push.as_ref().map(all),
            nm_draw: l.nm_draw.as_ref().map(all),
        }
    }

    /// Appends this block's constraints to `model`, remapping local variable
    /// indices by `var_base` (the model index of this block's first var).
    pub(crate) fn append_cons_to(&self, model: &mut Model, var_base: usize) {
        for c in &self.cons {
            model.add_con(
                c.name.clone(),
                c.terms
                    .iter()
                    .map(|&(l, coeff)| (VarId::from_index(var_base + l), coeff)),
                c.sense,
                c.rhs,
            );
        }
    }
}

/// Previous slot in the same cyclic dispatch block.
fn cyclic_prev(t: usize, block_len: usize, num_slots: usize) -> usize {
    if t.is_multiple_of(block_len) {
        ((t / block_len + 1) * block_len).min(num_slots) - 1
    } else {
        t - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formulation::{assemble, build_network_lp, NetworkLp};
    use crate::framework::{PlacementInput, TechMix};
    use greencloud_climate::catalog::WorldCatalog;
    use greencloud_climate::profiles::ProfileConfig;
    use std::collections::HashMap;
    use std::sync::Arc;

    fn candidates() -> Vec<CandidateSite> {
        let w = WorldCatalog::anchors_only(4);
        CandidateSite::build_all(&w, &ProfileConfig::coarse())
    }

    fn nm_input() -> PlacementInput {
        PlacementInput {
            total_capacity_mw: 20.0,
            min_green_fraction: 0.5,
            tech: TechMix::Both,
            storage: StorageMode::NetMetering,
            ..PlacementInput::default()
        }
    }

    /// Assembles `siting` from `blocks`, compiling the blocks it lacks, as
    /// the search paths do.
    fn assemble_from(
        blocks: &mut HashMap<(usize, SizeClass), Arc<SiteBlock>>,
        params: &CostParams,
        input: &PlacementInput,
        cands: &[CandidateSite],
        siting: &[(usize, SizeClass)],
    ) -> NetworkLp {
        let sites: Vec<_> = siting
            .iter()
            .map(|&(ci, class)| {
                let block = blocks.entry((ci, class)).or_insert_with(|| {
                    Arc::new(SiteBlock::build(params, input, ci, &cands[ci], class))
                });
                (&cands[ci], Arc::clone(block))
            })
            .collect();
        assemble(input, &sites)
    }

    #[test]
    fn cached_and_uncached_builders_agree() {
        let cands = candidates();
        let params = CostParams::default();
        for input in [
            nm_input(),
            PlacementInput {
                storage: StorageMode::Batteries,
                ..nm_input()
            },
            PlacementInput {
                storage: StorageMode::None,
                migration_fraction: 0.0,
                ..nm_input()
            },
        ] {
            let siting = vec![(2usize, SizeClass::Large), (5usize, SizeClass::Small)];
            let sites: Vec<_> = siting.iter().map(|&(ci, c)| (&cands[ci], c)).collect();
            let direct = build_network_lp(&params, &input, &sites);
            let cached = assemble_from(&mut HashMap::new(), &params, &input, &cands, &siting);
            assert_eq!(direct.num_vars(), cached.num_vars());
            assert_eq!(direct.num_cons(), cached.num_cons());
            let a = direct.solve();
            let b = cached.solve();
            match (a, b) {
                (Ok(da), Ok(db)) => {
                    let scale = 1.0 + da.monthly_cost.abs();
                    assert!(
                        (da.monthly_cost - db.monthly_cost).abs() < 1e-7 * scale,
                        "cached {} vs direct {}",
                        db.monthly_cost,
                        da.monthly_cost
                    );
                }
                (Err(ea), Err(eb)) => assert_eq!(ea, eb),
                (a, b) => panic!("builders disagree: direct {a:?} cached {b:?}"),
            }
        }
    }

    #[test]
    fn neighbour_sitings_transfer_bases() {
        // Two sitings differing in one site (same length, same storage
        // mode): the optimal basis of the first must warm-start the second
        // without changing its optimum.
        let cands = candidates();
        let params = CostParams::default();
        let input = nm_input();
        let mut blocks = HashMap::new();
        let a = vec![(2usize, SizeClass::Large), (5usize, SizeClass::Large)];
        let b = vec![(2usize, SizeClass::Large), (7usize, SizeClass::Large)];
        let lp_a = assemble_from(&mut blocks, &params, &input, &cands, &a);
        let (_, basis_a) = lp_a
            .solve_warm(Default::default(), None)
            .expect("siting A solves");
        let lp_b = assemble_from(&mut blocks, &params, &input, &cands, &b);
        let (cold_b, _) = lp_b.solve_warm(Default::default(), None).expect("cold B");
        let (warm_b, _) = lp_b
            .solve_warm(Default::default(), basis_a.as_ref())
            .expect("warm B");
        let scale = 1.0 + cold_b.monthly_cost.abs();
        assert!(
            (warm_b.monthly_cost - cold_b.monthly_cost).abs() < 1e-6 * scale,
            "warm {} vs cold {}",
            warm_b.monthly_cost,
            cold_b.monthly_cost
        );
        if warm_b.warm_started {
            assert!(warm_b.iterations <= cold_b.iterations);
        }
        // The shared site block (candidate 2, Large) was compiled once.
        assert_eq!(blocks.len(), 3);
    }
}
