//! Turning target loads into concrete VM migrations (paper §V-A).
//!
//! "…it orders the datacenters in decreasing amount of load to be migrated
//! out. It then uses a first fit strategy to migrate VMs from each donor to
//! the closest receiver. … the donor datacenters effect the migrations,
//! choosing VMs with smaller memory/disk footprints before larger ones,
//! until the desired amount of power has been migrated out."

use crate::cluster::{Datacenter, DatacenterId};
use crate::vm::VmId;

/// One planned VM move.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Migration {
    /// Which VM.
    pub vm: VmId,
    /// Donor datacenter.
    pub from: DatacenterId,
    /// Receiver datacenter.
    pub to: DatacenterId,
}

/// The ordered list of migrations for one scheduling round.
#[derive(Debug, Clone, Default)]
pub struct MigrationPlan {
    /// Moves in execution order.
    pub moves: Vec<Migration>,
}

impl MigrationPlan {
    /// Number of planned moves.
    pub fn len(&self) -> usize {
        self.moves.len()
    }

    /// `true` when nothing migrates.
    pub fn is_empty(&self) -> bool {
        self.moves.is_empty()
    }
}

/// Computes the migration plan that moves each datacenter's hosted power
/// toward `targets_mw` (indexed like `datacenters`).
///
/// VM power is discrete, so donors stop once hosted power is within one
/// VM of the target (never overshooting below it by more than one VM).
///
/// # Panics
///
/// Panics if `targets_mw` and `datacenters` lengths differ.
pub fn plan_migrations(datacenters: &[Datacenter], targets_mw: &[f64]) -> MigrationPlan {
    assert_eq!(
        datacenters.len(),
        targets_mw.len(),
        "targets per datacenter"
    );
    let n = datacenters.len();

    // Excess (to give) and deficit (can take), in MW.
    let mut excess: Vec<f64> = (0..n)
        .map(|i| (datacenters[i].load_mw() - targets_mw[i]).max(0.0))
        .collect();
    let mut deficit: Vec<f64> = (0..n)
        .map(|i| (targets_mw[i] - datacenters[i].load_mw()).max(0.0))
        .collect();

    // Donors in decreasing out-power order.
    let mut donors: Vec<usize> = (0..n).filter(|&i| excess[i] > 1e-12).collect();
    donors.sort_by(|&a, &b| excess[b].total_cmp(&excess[a]));

    let mut moves = Vec::new();
    for &d in &donors {
        // Smallest memory/disk footprint first.
        let mut vms: Vec<(VmId, f64, f64)> = datacenters[d]
            .vms()
            .map(|vm| {
                (
                    vm.id,
                    vm.spec.mem_mb + vm.spec.disk_gb * 1024.0,
                    vm.power_mw(),
                )
            })
            .collect();
        vms.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));

        // Receivers for this donor: closest first.
        let mut receivers: Vec<usize> = (0..n).filter(|&i| i != d && deficit[i] > 1e-12).collect();
        receivers.sort_by(|&a, &b| {
            let da = datacenters[d]
                .position
                .distance_km(&datacenters[a].position);
            let db = datacenters[d]
                .position
                .distance_km(&datacenters[b].position);
            da.total_cmp(&db)
        });

        let mut to_move = excess[d];
        for (vm, _, power) in vms {
            if to_move < power * 0.5 {
                break; // within one VM of the target
            }
            // First fit among receivers (closest that can still take it).
            if let Some(&r) = receivers.iter().find(|&&r| deficit[r] >= power * 0.5) {
                moves.push(Migration {
                    vm,
                    from: datacenters[d].id,
                    to: datacenters[r].id,
                });
                to_move -= power;
                deficit[r] = (deficit[r] - power).max(0.0);
                receivers.retain(|&x| deficit[x] > 1e-12);
            } else {
                break; // nobody can take more
            }
        }
        excess[d] = to_move;
    }
    MigrationPlan { moves }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vm::{Vm, VmSpec};
    use greencloud_climate::geo::LatLon;

    fn dc(id: u32, lon: f64, vms: u32) -> Datacenter {
        let mut d = Datacenter::new(
            DatacenterId(id),
            format!("dc{id}"),
            LatLon::new(0.0, lon),
            100.0,
            0.0,
            64,
            64,
            (1u64 << 20) as f64,
        );
        for k in 0..vms {
            assert!(d.place_vm(Vm::new(VmId(id * 1000 + k), VmSpec::default())));
        }
        d
    }

    const VMP: f64 = 30e-6; // default VM power in MW

    #[test]
    fn empty_plan_when_targets_match() {
        let dcs = [dc(0, 0.0, 10), dc(1, 30.0, 5)];
        let plan = plan_migrations(&dcs, &[10.0 * VMP, 5.0 * VMP]);
        assert!(plan.is_empty());
    }

    #[test]
    fn moves_flow_from_donor_to_receiver() {
        let dcs = [dc(0, 0.0, 10), dc(1, 30.0, 0)];
        let plan = plan_migrations(&dcs, &[4.0 * VMP, 6.0 * VMP]);
        assert_eq!(plan.len(), 6);
        for m in &plan.moves {
            assert_eq!(m.from, DatacenterId(0));
            assert_eq!(m.to, DatacenterId(1));
        }
    }

    #[test]
    fn closest_receiver_takes_priority() {
        // Donor at lon 0; receivers at lon 10 (close) and lon 120 (far).
        let dcs = [dc(0, 0.0, 8), dc(1, 10.0, 0), dc(2, 120.0, 0)];
        // Close receiver wants 4 VMs, far wants 4.
        let plan = plan_migrations(&dcs, &[0.0, 4.0 * VMP, 4.0 * VMP]);
        assert_eq!(plan.len(), 8);
        // The first four moves go to the closer receiver.
        for m in &plan.moves[..4] {
            assert_eq!(m.to, DatacenterId(1));
        }
        for m in &plan.moves[4..] {
            assert_eq!(m.to, DatacenterId(2));
        }
    }

    #[test]
    fn smallest_footprint_first() {
        let mut d0 = Datacenter::new(
            DatacenterId(0),
            "d0",
            LatLon::new(0.0, 0.0),
            0.0,
            0.0,
            4,
            64,
            (1u64 << 20) as f64,
        );
        let small = VmSpec {
            mem_mb: 256.0,
            disk_gb: 1.0,
            ..VmSpec::default()
        };
        let big = VmSpec {
            mem_mb: 4096.0,
            disk_gb: 50.0,
            ..VmSpec::default()
        };
        d0.place_vm(Vm::new(VmId(1), big));
        d0.place_vm(Vm::new(VmId(2), small));
        let d1 = dc(1, 20.0, 0);
        let plan = plan_migrations(&[d0, d1], &[VMP, VMP]);
        assert_eq!(plan.len(), 1);
        assert_eq!(plan.moves[0].vm, VmId(2), "small VM moves first");
    }

    #[test]
    fn conservation_of_vms() {
        let dcs = [dc(0, 0.0, 12), dc(1, 40.0, 3), dc(2, -50.0, 0)];
        let plan = plan_migrations(&dcs, &[5.0 * VMP, 5.0 * VMP, 5.0 * VMP]);
        // All moves reference distinct VMs that exist at their donors.
        let mut seen = std::collections::HashSet::new();
        for m in &plan.moves {
            assert!(seen.insert(m.vm), "vm moved twice");
            assert_ne!(m.from, m.to);
        }
        // Donor 0 sheds ~7 VMs.
        let out0 = plan
            .moves
            .iter()
            .filter(|m| m.from == DatacenterId(0))
            .count();
        assert!((6..=8).contains(&out0), "out0 {out0}");
    }

    #[test]
    fn never_overshoots_below_target_by_more_than_one_vm() {
        let dcs = [dc(0, 0.0, 10), dc(1, 30.0, 0)];
        let plan = plan_migrations(&dcs, &[3.5 * VMP, 6.5 * VMP]);
        let moved = plan.len() as f64;
        // Donor keeps at least 3 VMs' worth (target 3.5, one-VM slack).
        assert!(10.0 - moved >= 3.0, "moved {moved}");
    }
}
