//! The nebula crate's typed error: emulation and sweep failures that used
//! to be panics or shoehorned [`SolveError::InvalidModel`]s.

use greencloud_lp::SolveError;
use std::fmt;

/// Any failure of the GreenNebula emulation layer.
#[derive(Debug, Clone, PartialEq)]
pub enum NebulaError {
    /// The hourly re-partitioning optimization failed even after the
    /// graceful-degradation retry ladder (rebuild, cold solve, escalating
    /// tolerances).
    Solve(SolveError),
    /// The emulation configuration is out of range (bad battery
    /// efficiency, invalid fault spec, no sites, …).
    Config(String),
    /// A configured site name is not in the engine's world catalog.
    UnknownSite(String),
    /// The run was cancelled cooperatively (deadline or caller abort)
    /// before completing.
    Cancelled,
}

impl fmt::Display for NebulaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NebulaError::Solve(e) => write!(f, "scheduler solve failed: {e}"),
            NebulaError::Config(msg) => write!(f, "invalid emulation config: {msg}"),
            NebulaError::UnknownSite(name) => write!(f, "unknown site {name}"),
            NebulaError::Cancelled => write!(f, "emulation cancelled"),
        }
    }
}

impl std::error::Error for NebulaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NebulaError::Solve(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SolveError> for NebulaError {
    fn from(e: SolveError) -> Self {
        NebulaError::Solve(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversion() {
        let e: NebulaError = SolveError::Infeasible.into();
        assert!(e.to_string().contains("infeasible") || e.to_string().contains("Infeasible"));
        assert_eq!(
            NebulaError::UnknownSite("Atlantis".into()).to_string(),
            "unknown site Atlantis"
        );
        assert_eq!(NebulaError::Cancelled.to_string(), "emulation cancelled");
        assert!(NebulaError::Config("no sites".into())
            .to_string()
            .contains("no sites"));
    }
}
