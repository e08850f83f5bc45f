//! Error type for shortcut construction and routing.

use std::error::Error;
use std::fmt;

use lcs_graph::{EdgeId, PartId};

/// Errors raised by the shortcut framework.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CoreError {
    /// A shortcut subgraph contained an edge that is not a tree edge even
    /// though the shortcut was declared tree-restricted.
    NotATreeEdge {
        /// The offending edge.
        edge: EdgeId,
        /// The part whose subgraph contained it.
        part: PartId,
    },
    /// A part id was out of range for the partition in use.
    PartOutOfRange {
        /// The offending part id.
        part: PartId,
        /// Number of parts in the partition.
        part_count: usize,
    },
    /// The construction did not mark every part good within the iteration
    /// budget (used by the fixed-parameter `FindShortcut` run and detected
    /// by the doubling search).
    IterationBudgetExhausted {
        /// Number of iterations executed.
        iterations: usize,
        /// Number of parts still bad.
        remaining_bad: usize,
    },
    /// A lower-level simulation failed.
    Simulation {
        /// Human readable description.
        reason: String,
    },
    /// A fault-injected simulation stalled in every retry epoch, so it
    /// withheld its answer (surfaces as `LcsError::Degraded`).
    Degraded {
        /// Number of retry epochs executed.
        epochs: u32,
        /// Number of epochs that stalled.
        stalls: u32,
    },
    /// The graph, tree and partition passed to an algorithm are mutually
    /// inconsistent (for example differing node counts).
    InconsistentInputs {
        /// Human readable description.
        reason: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::NotATreeEdge { edge, part } => {
                write!(f, "edge {edge} assigned to part {part} is not an edge of the spanning tree")
            }
            CoreError::PartOutOfRange { part, part_count } => {
                write!(f, "part {part} out of range for a partition with {part_count} parts")
            }
            CoreError::IterationBudgetExhausted { iterations, remaining_bad } => write!(
                f,
                "construction stopped after {iterations} iterations with {remaining_bad} parts still bad"
            ),
            CoreError::Simulation { reason } => write!(f, "simulation error: {reason}"),
            CoreError::Degraded { epochs, .. } => {
                write!(f, "fault-injected run stayed incomplete after {epochs} epochs")
            }
            CoreError::InconsistentInputs { reason } => write!(f, "inconsistent inputs: {reason}"),
        }
    }
}

impl Error for CoreError {}

impl From<lcs_congest::SimError> for CoreError {
    fn from(err: lcs_congest::SimError) -> Self {
        CoreError::Simulation {
            reason: err.to_string(),
        }
    }
}

impl From<CoreError> for lcs_graph::LcsError {
    fn from(err: CoreError) -> Self {
        use lcs_graph::LcsError;
        match err {
            CoreError::IterationBudgetExhausted {
                iterations,
                remaining_bad,
            } => LcsError::BudgetExhausted {
                iterations,
                remaining_bad,
            },
            CoreError::InconsistentInputs { reason } => LcsError::InconsistentInputs { reason },
            CoreError::Simulation { reason } => LcsError::Simulation { reason },
            CoreError::Degraded { epochs, stalls } => LcsError::Degraded {
                epochs,
                stalls,
                reason: err.to_string(),
            },
            other => LcsError::Construction {
                reason: other.to_string(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let err = CoreError::NotATreeEdge {
            edge: EdgeId::new(7),
            part: PartId::new(2),
        };
        assert!(err.to_string().contains("e7"));
        assert!(err.to_string().contains("P2"));
        let err = CoreError::IterationBudgetExhausted {
            iterations: 5,
            remaining_bad: 3,
        };
        assert!(err.to_string().contains("5 iterations"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<CoreError>();
    }

    #[test]
    fn sim_error_converts() {
        let sim = lcs_congest::SimError::RoundLimitExceeded { limit: 3 };
        let core: CoreError = sim.into();
        assert!(matches!(core, CoreError::Simulation { .. }));
    }
}
