//! Simulator error type.

use std::error::Error;
use std::fmt;

use lcs_graph::NodeId;

/// Errors raised while executing a protocol on the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// A node attempted to send a message to a node that is not its
    /// neighbor.
    NotANeighbor {
        /// The sending node.
        from: NodeId,
        /// The intended (non-adjacent) recipient.
        to: NodeId,
    },
    /// A node attempted to send two messages to the same neighbor in one
    /// round.
    DuplicateSend {
        /// The sending node.
        from: NodeId,
        /// The recipient that would have received two messages.
        to: NodeId,
        /// The round in which the violation happened.
        round: u64,
    },
    /// A message exceeded the per-edge per-round bandwidth.
    BandwidthExceeded {
        /// The sending node.
        from: NodeId,
        /// The recipient.
        to: NodeId,
        /// The size of the offending message in bits.
        message_bits: usize,
        /// The configured bandwidth in bits.
        bandwidth_bits: usize,
    },
    /// The protocol did not reach quiescence within the configured round
    /// budget.
    RoundLimitExceeded {
        /// The configured limit.
        limit: u64,
    },
    /// A protocol-level invariant was violated (used by protocol
    /// implementations to surface internal errors).
    Protocol {
        /// Human readable description.
        reason: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::NotANeighbor { from, to } => {
                write!(f, "node {from} attempted to send to non-neighbor {to}")
            }
            SimError::DuplicateSend { from, to, round } => {
                write!(f, "node {from} sent two messages to {to} in round {round}")
            }
            SimError::BandwidthExceeded { from, to, message_bits, bandwidth_bits } => write!(
                f,
                "message of {message_bits} bits from {from} to {to} exceeds the {bandwidth_bits}-bit bandwidth"
            ),
            SimError::RoundLimitExceeded { limit } => {
                write!(f, "protocol did not terminate within {limit} rounds")
            }
            SimError::Protocol { reason } => write!(f, "protocol error: {reason}"),
        }
    }
}

impl Error for SimError {}

impl From<SimError> for lcs_graph::LcsError {
    fn from(err: SimError) -> Self {
        lcs_graph::LcsError::Simulation {
            reason: err.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let err = SimError::BandwidthExceeded {
            from: NodeId::new(1),
            to: NodeId::new(2),
            message_bits: 80,
            bandwidth_bits: 32,
        };
        assert!(err.to_string().contains("80 bits"));
        assert!(err.to_string().contains("32-bit"));
        let err = SimError::RoundLimitExceeded { limit: 10 };
        assert!(err.to_string().contains("10 rounds"));
    }

    #[test]
    fn error_is_std_error_send_sync() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<SimError>();
    }

    /// A simulator failure reaches the pipeline's one error as
    /// `Simulation`, its text prefixed once.
    #[test]
    fn sim_error_converts() {
        let err = lcs_graph::LcsError::from(SimError::RoundLimitExceeded { limit: 3 });
        assert!(matches!(err, lcs_graph::LcsError::Simulation { .. }));
        assert_eq!(
            err.to_string(),
            "simulation error: protocol did not terminate within 3 rounds"
        );
    }
}
