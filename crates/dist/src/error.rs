//! Error type of the distributed protocol layer.

use std::error::Error;
use std::fmt;

use lcs_congest::SimError;

/// Errors raised by the distributed protocols and the cross-check harness.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DistError {
    /// The underlying CONGEST simulation failed (bandwidth violation,
    /// round-cap overflow, malformed send).
    Simulation(SimError),
    /// A fault-free distributed execution reached a state that violates a
    /// protocol invariant (for example part members disagreeing on a
    /// flooded minimum). This indicates a protocol bug, never bad input;
    /// under a fault plan the same state is a stalled epoch, retried and
    /// at worst reported as [`DistError::Degraded`].
    ProtocolInvariant {
        /// Human readable description.
        reason: String,
    },
    /// Distributed and centralized results disagree (reported by
    /// [`crate::CrossCheck`]).
    Mismatch {
        /// Human readable description.
        reason: String,
    },
    /// An executed round count exceeded the bound it must respect
    /// (reported by [`crate::CrossCheck`]).
    BoundViolation {
        /// Human readable description.
        reason: String,
    },
    /// Every epoch of a fault-injected run stalled: some part's members
    /// never all decided or never agreed (a permanent crash, for
    /// example). The answer is withheld rather than returned incomplete.
    Degraded {
        /// Number of epochs executed.
        epochs: u32,
        /// Number of epochs that stalled (indecisive or round-cap hit).
        stalls: u32,
    },
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistError::Simulation(err) => write!(f, "simulation error: {err}"),
            DistError::ProtocolInvariant { reason } => {
                write!(f, "protocol invariant violated: {reason}")
            }
            DistError::Mismatch { reason } => {
                write!(f, "distributed/centralized mismatch: {reason}")
            }
            DistError::BoundViolation { reason } => write!(f, "round bound violated: {reason}"),
            &DistError::Degraded { epochs, stalls } => {
                let stall = lcs_core::CoreError::Degraded { epochs, stalls };
                write!(f, "{stall} ({stalls} stalled)")
            }
        }
    }
}

impl Error for DistError {}

impl From<SimError> for DistError {
    fn from(err: SimError) -> Self {
        DistError::Simulation(err)
    }
}

impl From<DistError> for lcs_core::CoreError {
    fn from(err: DistError) -> Self {
        use lcs_core::CoreError;
        match err {
            DistError::Degraded { epochs, stalls } => CoreError::Degraded { epochs, stalls },
            other => CoreError::Simulation {
                reason: other.to_string(),
            },
        }
    }
}

impl From<DistError> for lcs_graph::LcsError {
    fn from(err: DistError) -> Self {
        use lcs_graph::LcsError;
        match err {
            DistError::Simulation(sim) => sim.into(),
            DistError::Degraded { epochs, stalls } => {
                lcs_core::CoreError::Degraded { epochs, stalls }.into()
            }
            other => LcsError::Protocol {
                reason: other.to_string(),
            },
        }
    }
}

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, DistError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversions() {
        let err: DistError = SimError::RoundLimitExceeded { limit: 9 }.into();
        assert!(err.to_string().contains("simulation error"));
        let core: lcs_core::CoreError = err.into();
        assert!(matches!(core, lcs_core::CoreError::Simulation { .. }));
        let err = DistError::Mismatch {
            reason: "x".to_string(),
        };
        assert!(err.to_string().contains("mismatch"));
        let lcs: lcs_graph::LcsError = DistError::Degraded {
            epochs: 5,
            stalls: 5,
        }
        .into();
        assert_eq!(
            lcs.to_string(),
            "degraded result after 5 epochs (5 stalled): fault-injected run stayed incomplete \
             after 5 epochs"
        );
    }
}
