//! Typed failures of the message-passing runtime.
//!
//! The substrate guarantees that no rank blocks forever: when a peer
//! panics or returns an error, every blocked receive and collective on
//! every other rank wakes up and returns [`MpsError::PeerFailed`]; when
//! a message genuinely never arrives (a protocol bug), the receive
//! gives up after a configurable deadline and returns
//! [`MpsError::Timeout`] together with a per-rank diagnostic dump; and
//! when two ranks call *different* collectives at the same program
//! point, the receiver detects the crossed operation and returns
//! [`MpsError::CollectiveMismatch`] instead of mis-parsing the payload.

use std::time::Duration;

/// A failure of a communication operation.
///
/// All variants identify the rank that *observed* the failure and
/// carry enough context to reconstruct what the universe was doing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MpsError {
    /// A peer rank panicked or returned an error, so the operation can
    /// never complete.
    PeerFailed {
        /// The rank that failed first.
        rank: usize,
        /// The panic payload or error message of that rank.
        msg: String,
    },
    /// No matching message arrived within the receive deadline.
    Timeout {
        /// The rank whose receive expired.
        rank: usize,
        /// The source rank the receive was waiting on.
        src: usize,
        /// The operation blocked (`"recv"`, `"barrier"`, …).
        op: &'static str,
        /// The awaited message tag.
        tag: u64,
        /// How long the receive waited.
        waited: Duration,
        /// Per-rank diagnostic dump taken when the deadline expired:
        /// which operation each rank was blocked in (if any) and its
        /// communication counters.
        report: String,
    },
    /// Two ranks executed different collective operations at the same
    /// program point (e.g. one called `barrier` while another called
    /// `allreduce`, or payload element types differ).
    CollectiveMismatch {
        /// The rank that detected the crossed collective.
        rank: usize,
        /// The peer whose message revealed the mismatch.
        peer: usize,
        /// What this rank was executing.
        expected: String,
        /// What the peer was executing.
        got: String,
    },
    /// A message arrived intact but its contents violate the
    /// application-level protocol (e.g. a per-edge credit referencing
    /// an edge the receiving rank does not own). The run fails cleanly
    /// instead of tearing the rank down through panic propagation.
    Protocol {
        /// The rank that rejected the payload.
        rank: usize,
        /// What was wrong with it.
        msg: String,
    },
    /// The input the ranks were handed is not a valid graph. Unlike
    /// every other variant this is a verdict the ranks reach
    /// *together* — the rank that finds the defect tells the others in
    /// the exchange it would have sent its data in — so each of them
    /// returns the same value and none is left blocked.
    InvalidInput {
        /// The rank whose share of the input is defective.
        rank: usize,
        /// What is wrong, and where.
        msg: String,
    },
    /// The universe a caller asked for cannot run the algorithm it asked
    /// for (a rank count that is not a perfect square under a square
    /// grid, a `pr × pc` grid that is not the launched rank count).
    /// Found before any rank starts or any socket is bound, so nothing
    /// has to be torn down.
    Geometry {
        /// Rank count of the requested universe.
        ranks: usize,
        /// What does not fit.
        msg: String,
    },
    /// A peer's connection dropped while the fabric was running in
    /// recoverable mode: the process behind it is gone (crashed or
    /// killed), but the universe is *restartable* — a supervisor can
    /// respawn the rank and every survivor can rejoin at the next
    /// epoch. Distinct from [`MpsError::PeerFailed`] (an orderly
    /// application-level failure) so session loops can tell "respawn
    /// and rejoin" apart from "give up".
    PeerDown {
        /// The rank whose connection was lost.
        rank: usize,
    },
}

impl std::fmt::Display for MpsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MpsError::PeerFailed { rank, msg } => {
                write!(f, "peer rank {rank} failed: {msg}")
            }
            MpsError::Timeout { rank, src, op, tag, waited, report } => {
                write!(
                    f,
                    "rank {rank}: {op} from rank {src} (tag {tag:#x}) timed out after \
                     {waited:.1?}\n{report}"
                )
            }
            MpsError::CollectiveMismatch { rank, peer, expected, got } => {
                write!(
                    f,
                    "rank {rank}: collective mismatch: this rank is in {expected} but \
                     rank {peer} sent {got}"
                )
            }
            MpsError::Protocol { rank, msg } => {
                write!(f, "rank {rank}: protocol violation: {msg}")
            }
            MpsError::InvalidInput { rank, msg } => {
                write!(f, "{msg} (in the input share of rank {rank})")
            }
            MpsError::Geometry { ranks, msg } => {
                write!(f, "cannot run on {ranks} ranks: {msg}")
            }
            MpsError::PeerDown { rank } => {
                write!(f, "peer rank {rank} is down (connection lost in recoverable mode)")
            }
        }
    }
}

impl std::error::Error for MpsError {}

/// Shorthand for results of communication operations.
pub type MpsResult<T> = Result<T, MpsError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = MpsError::PeerFailed { rank: 3, msg: "boom".into() };
        assert!(e.to_string().contains("rank 3"));
        assert!(e.to_string().contains("boom"));

        let t = MpsError::Timeout {
            rank: 1,
            src: 0,
            op: "barrier",
            tag: 0x8100_0000_0000_0000,
            waited: Duration::from_secs(5),
            report: "rank 0: blocked in recv".into(),
        };
        let s = t.to_string();
        assert!(s.contains("barrier"));
        assert!(s.contains("timed out"));
        assert!(s.contains("blocked in recv"));

        let m = MpsError::CollectiveMismatch {
            rank: 0,
            peer: 1,
            expected: "barrier (seq 4)".into(),
            got: "reduce (seq 4)".into(),
        };
        assert!(m.to_string().contains("mismatch"));

        let p = MpsError::Protocol { rank: 2, msg: "credited edge (3,4) has no local task".into() };
        assert!(p.to_string().contains("rank 2"));
        assert!(p.to_string().contains("protocol violation"));
        assert!(p.to_string().contains("(3,4)"));

        let bad = MpsError::InvalidInput { rank: 1, msg: "edge 7: self-loop (3, 3)".into() };
        assert_eq!(bad.to_string(), "edge 7: self-loop (3, 3) (in the input share of rank 1)");

        let geo = MpsError::Geometry { ranks: 3, msg: "not a perfect square".into() };
        assert_eq!(geo.to_string(), "cannot run on 3 ranks: not a perfect square");

        let down = MpsError::PeerDown { rank: 5 };
        let s = down.to_string();
        assert!(s.contains("rank 5"), "{s}");
        assert!(s.contains("down"), "{s}");
    }

    #[test]
    fn error_trait_object() {
        let e: Box<dyn std::error::Error> =
            Box::new(MpsError::PeerFailed { rank: 0, msg: "x".into() });
        assert!(e.to_string().contains("failed"));
    }
}
