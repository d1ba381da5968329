//! Hosts, datacenters, and the per-datacenter manager (the OpenNebula role).

use crate::vm::{Vm, VmId, VmSpec};
use greencloud_climate::geo::LatLon;
use std::collections::BTreeMap;

/// Identifier of a datacenter in the deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DatacenterId(pub u32);

/// A physical machine.
#[derive(Debug, Clone)]
pub struct Host {
    /// CPU cores.
    pub cores: u32,
    /// Memory, MB.
    pub mem_mb: f64,
    /// VMs currently placed here.
    vms: Vec<VmId>,
    /// Committed resources.
    used_cores: u32,
    used_mem_mb: f64,
}

impl Host {
    /// Creates an empty host.
    pub fn new(cores: u32, mem_mb: f64) -> Self {
        Self {
            cores,
            mem_mb,
            vms: Vec::new(),
            used_cores: 0,
            used_mem_mb: 0.0,
        }
    }

    /// Whether `spec` fits in the remaining capacity.
    pub fn fits(&self, spec: &VmSpec) -> bool {
        self.used_cores + spec.vcpus <= self.cores && self.used_mem_mb + spec.mem_mb <= self.mem_mb
    }

    fn place(&mut self, vm: &Vm) {
        self.vms.push(vm.id);
        self.used_cores += vm.spec.vcpus;
        self.used_mem_mb += vm.spec.mem_mb;
    }

    fn evict(&mut self, vm: &Vm) -> bool {
        if let Some(k) = self.vms.iter().position(|&id| id == vm.id) {
            self.vms.remove(k);
            self.used_cores -= vm.spec.vcpus;
            self.used_mem_mb -= vm.spec.mem_mb;
            true
        } else {
            false
        }
    }

    /// VMs on this host.
    pub fn vms(&self) -> &[VmId] {
        &self.vms
    }
}

/// A datacenter: hosts plus its on-site plant capacities, managed by a
/// first-fit placer (the within-datacenter OpenNebula role).
#[derive(Debug, Clone)]
pub struct Datacenter {
    /// Identity.
    pub id: DatacenterId,
    /// Name (for traces).
    pub name: String,
    /// Position (drives "closest receiver" in the planner).
    pub position: LatLon,
    /// Installed solar capacity, MW.
    pub solar_mw: f64,
    /// Installed wind capacity, MW.
    pub wind_mw: f64,
    hosts: Vec<Host>,
    /// VM registry: id → (vm, host index).
    vms: BTreeMap<VmId, (Vm, usize)>,
}

impl Datacenter {
    /// Creates a datacenter with `n_hosts` identical hosts.
    #[allow(clippy::too_many_arguments)] // constructor mirrors the site spec
    pub fn new(
        id: DatacenterId,
        name: impl Into<String>,
        position: LatLon,
        solar_mw: f64,
        wind_mw: f64,
        n_hosts: usize,
        host_cores: u32,
        host_mem_mb: f64,
    ) -> Self {
        Self {
            id,
            name: name.into(),
            position,
            solar_mw,
            wind_mw,
            hosts: (0..n_hosts)
                .map(|_| Host::new(host_cores, host_mem_mb))
                .collect(),
            vms: BTreeMap::new(),
        }
    }

    /// Places a VM on the first host with room (OpenNebula's default-style
    /// first fit). Returns `false` when no host fits.
    pub fn place_vm(&mut self, vm: Vm) -> bool {
        for (hi, host) in self.hosts.iter_mut().enumerate() {
            if host.fits(&vm.spec) {
                host.place(&vm);
                self.vms.insert(vm.id, (vm, hi));
                return true;
            }
        }
        false
    }

    /// Removes a VM (start of an outbound migration); returns it.
    pub fn remove_vm(&mut self, id: VmId) -> Option<Vm> {
        let (vm, hi) = self.vms.remove(&id)?;
        let evicted = self.hosts[hi].evict(&vm);
        debug_assert!(evicted, "registry and host disagree");
        Some(vm)
    }

    /// The VMs currently hosted, in id order.
    pub fn vms(&self) -> impl Iterator<Item = &Vm> {
        self.vms.values().map(|(vm, _)| vm)
    }

    /// Number of hosted VMs.
    pub fn vm_count(&self) -> usize {
        self.vms.len()
    }

    /// Total IT power of hosted VMs, MW.
    pub fn load_mw(&self) -> f64 {
        self.vms.values().map(|(vm, _)| vm.power_mw()).sum()
    }

    /// Green power available at this hour given production fractions.
    pub fn green_mw(&self, alpha: f64, beta: f64) -> f64 {
        alpha * self.solar_mw + beta * self.wind_mw
    }

    /// Hosts (read-only).
    pub fn hosts(&self) -> &[Host] {
        &self.hosts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dc() -> Datacenter {
        Datacenter::new(
            DatacenterId(0),
            "test",
            LatLon::new(0.0, 0.0),
            100.0,
            10.0,
            2,
            4,
            2048.0,
        )
    }

    fn vm(id: u32) -> Vm {
        Vm::new(VmId(id), VmSpec::default())
    }

    #[test]
    fn first_fit_fills_hosts_in_order() {
        let mut d = dc();
        // Host has 4 cores / 2048 MB → fits 4 default VMs (512 MB each).
        for i in 0..8 {
            assert!(d.place_vm(vm(i)), "vm {i}");
        }
        assert!(!d.place_vm(vm(8)), "both hosts full");
        assert_eq!(d.hosts()[0].vms().len(), 4);
        assert_eq!(d.hosts()[1].vms().len(), 4);
        assert_eq!(d.vm_count(), 8);
    }

    #[test]
    fn remove_frees_capacity() {
        let mut d = dc();
        for i in 0..4 {
            d.place_vm(vm(i));
        }
        let got = d.remove_vm(VmId(2)).expect("present");
        assert_eq!(got.id, VmId(2));
        assert!(d.remove_vm(VmId(2)).is_none());
        assert!(d.place_vm(vm(99)), "slot reopened");
    }

    #[test]
    fn load_accounts_vm_power() {
        let mut d = dc();
        for i in 0..5 {
            d.place_vm(vm(i));
        }
        assert!((d.load_mw() - 5.0 * 30e-6).abs() < 1e-12);
    }

    #[test]
    fn green_power_combines_plants() {
        let d = dc();
        assert!((d.green_mw(0.5, 0.2) - (50.0 + 2.0)).abs() < 1e-12);
        assert_eq!(d.green_mw(0.0, 0.0), 0.0);
    }
}
