//! Virtual machines.

/// Identifier of a VM within one GreenNebula deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VmId(pub u32);

/// Static description of a VM.
///
/// The default matches the paper's validation workload: 1 vCPU, 512 MB of
/// memory, a 5 GB disk, ~110 MB of new disk data per hour, 30 W.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VmSpec {
    /// Virtual CPUs.
    pub vcpus: u32,
    /// Memory footprint, MB.
    pub mem_mb: f64,
    /// Disk size, GB.
    pub disk_gb: f64,
    /// Disk data written per hour, MB (drives GDFS re-replication and
    /// migration payload).
    pub dirty_mb_per_hour: f64,
    /// Average electrical power, W.
    pub power_w: f64,
}

impl Default for VmSpec {
    fn default() -> Self {
        Self {
            vcpus: 1,
            mem_mb: 512.0,
            disk_gb: 5.0,
            dirty_mb_per_hour: 110.0,
            power_w: 30.0,
        }
    }
}

impl VmSpec {
    /// Data volume that must move with the VM in the worst case (memory +
    /// unreplicated dirty blocks), MB.
    pub fn migration_footprint_mb(&self, unreplicated_dirty_mb: f64) -> f64 {
        self.mem_mb + unreplicated_dirty_mb.max(0.0)
    }
}

/// A running VM.
#[derive(Debug, Clone, PartialEq)]
pub struct Vm {
    /// Identity.
    pub id: VmId,
    /// Static spec.
    pub spec: VmSpec,
}

impl Vm {
    /// Creates a VM with the given id and spec.
    pub fn new(id: VmId, spec: VmSpec) -> Self {
        Self { id, spec }
    }

    /// Power draw in MW (specs carry watts).
    pub fn power_mw(&self) -> f64 {
        self.spec.power_w / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_spec() {
        let s = VmSpec::default();
        assert_eq!(s.mem_mb, 512.0);
        assert_eq!(s.disk_gb, 5.0);
        assert_eq!(s.dirty_mb_per_hour, 110.0);
        assert_eq!(s.power_w, 30.0);
    }

    #[test]
    fn migration_footprint_combines_memory_and_dirty_data() {
        let s = VmSpec::default();
        // The paper's measurement: memory + dirty data ≈ 750 MB in < 1 h.
        let fp = s.migration_footprint_mb(238.0);
        assert_eq!(fp, 750.0);
        assert_eq!(s.migration_footprint_mb(-5.0), 512.0);
    }

    #[test]
    fn power_units() {
        let vm = Vm::new(VmId(1), VmSpec::default());
        assert!((vm.power_mw() - 30e-6).abs() < 1e-15);
    }
}
