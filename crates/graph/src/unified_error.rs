//! The workspace-wide error of the shortcut pipeline.
//!
//! [`LcsError`] is the one error the pipeline raises: `lcs_core`,
//! `lcs_dist` and `lcs_mst` return it directly, and it is the only error
//! that crosses the public boundary of the `lcs_api` façade. It lives here,
//! at the bottom of the dependency graph, so every layer can name it, and
//! each raise site picks its variant and text once. Two structured errors
//! stay beneath it: [`GraphError`] (wrapped by [`LcsError::Graph`]) and the
//! simulator's `SimError` in `lcs_congest`, which converts into
//! [`LcsError::Simulation`].

use std::error::Error;
use std::fmt;

use crate::GraphError;

/// The unified error of the shortcut pipeline, as surfaced by the
/// `lcs_api` façade.
///
/// The variants mirror the *stages* of the pipeline rather than the crates
/// that implement them: input validation, configuration, simulation,
/// construction, distributed protocol, budget exhaustion, and a degraded
/// fault-injected run.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LcsError {
    /// Graph or partition construction/validation failed.
    Graph(GraphError),
    /// The graph, tree and partition handed to a pipeline stage are
    /// mutually inconsistent (for example differing node counts).
    InconsistentInputs {
        /// Human readable description.
        reason: String,
    },
    /// A configuration value was invalid (for example a zero or
    /// non-numeric thread count).
    Config {
        /// Human readable description.
        reason: String,
    },
    /// The CONGEST simulation failed (bandwidth violation, duplicate send,
    /// round-cap overflow, malformed send).
    Simulation {
        /// Human readable description.
        reason: String,
    },
    /// Shortcut construction failed for a reason other than running out of
    /// budget (for example a non-tree edge assigned to a tree-restricted
    /// shortcut).
    Construction {
        /// Human readable description.
        reason: String,
    },
    /// A distributed protocol violated one of its invariants, disagreed
    /// with its centralized reference, or exceeded its round bound.
    Protocol {
        /// Human readable description.
        reason: String,
    },
    /// A construction stopped at its iteration or doubling budget with
    /// parts still bad.
    BudgetExhausted {
        /// Number of iterations (or doubling attempts) executed.
        iterations: usize,
        /// Number of parts still bad when the budget ran out.
        remaining_bad: usize,
    },
    /// A fault-injected query exhausted its retry epochs without one
    /// complete run. This is a *degraded* outcome, not a wrong one: every
    /// epoch had some part whose members missed a superstep, never all
    /// decided or never agreed (for example because a node crashed
    /// permanently), so the caller gets this typed error instead of an
    /// answer that could differ from the fault-free one.
    Degraded {
        /// Number of retry epochs executed.
        epochs: u32,
        /// Number of epochs that stalled (indecisive or round-cap hit).
        stalls: u32,
        /// Human readable description.
        reason: String,
    },
}

impl fmt::Display for LcsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LcsError::Graph(err) => write!(f, "graph error: {err}"),
            LcsError::InconsistentInputs { reason } => {
                write!(f, "inconsistent inputs: {reason}")
            }
            LcsError::Config { reason } => write!(f, "invalid configuration: {reason}"),
            LcsError::Simulation { reason } => write!(f, "simulation error: {reason}"),
            LcsError::Construction { reason } => write!(f, "construction error: {reason}"),
            LcsError::Protocol { reason } => write!(f, "protocol error: {reason}"),
            LcsError::BudgetExhausted {
                iterations,
                remaining_bad,
            } => write!(
                f,
                "construction stopped after {iterations} iterations with {remaining_bad} parts still bad"
            ),
            LcsError::Degraded {
                epochs,
                stalls,
                reason,
            } => write!(
                f,
                "degraded result after {epochs} epochs ({stalls} stalled): {reason}"
            ),
        }
    }
}

impl Error for LcsError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            LcsError::Graph(err) => Some(err),
            _ => None,
        }
    }
}

impl From<GraphError> for LcsError {
    fn from(err: GraphError) -> Self {
        LcsError::Graph(err)
    }
}

/// Convenience result alias for façade-level entry points.
pub type LcsResult<T> = std::result::Result<T, LcsError>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeId;

    #[test]
    fn display_and_source() {
        let err: LcsError = GraphError::SelfLoop {
            node: NodeId::new(3),
        }
        .into();
        assert!(err.to_string().contains("self-loop at node v3"));
        assert!(err.source().is_some());
        let err = LcsError::Config {
            reason: "threads must be >= 1".to_string(),
        };
        assert!(err.to_string().contains("invalid configuration"));
        assert!(err.source().is_none());
    }

    #[test]
    fn error_is_std_error_send_sync() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<LcsError>();
    }
}
