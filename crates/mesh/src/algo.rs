//! Collective-algorithm registry: which schedule a collective runs.
//!
//! The paper's Eq. 4–5 assume one broadcast algorithm (binomial tree) and
//! one all-reduce algorithm (ring) at every message size, but the α-β
//! trade-off flips with message size and group shape: small messages want
//! few rounds (α-bound), large messages want minimal bytes-per-link and
//! pipelining (β-bound). This module names the implemented algorithms
//! ([`CollAlgo`]), the menu each collective can choose from
//! ([`CollAlgo::menu`]), and a rule table ([`AlgoTable`]) keyed by
//! `(op, group_size, bytes)` that picks one per call.
//!
//! Selection is a value on the run: an [`AlgoTable`] is handed to
//! [`crate::MeshRun::new`], every device of that run holds it, and every
//! plain [`crate::Communicator`] method resolves its [`CollAlgo`] through
//! [`crate::Communicator::algo`] — so the live mesh and the dry-run replay
//! of one run always agree on the schedule, and two runs in one process
//! cannot see each other's tables.
//!
//! The default table is [`AlgoTable::baseline`]: the pre-registry
//! hardwired choices (tree broadcast/reduce, ring everything else), so
//! bitwise-identity tests and golden traces are unchanged under
//! `AlgoTable::default()`.

use crate::stats::CommOp;

/// A concrete collective schedule. Not every algorithm applies to every
/// collective — see [`CollAlgo::menu`] for the valid choices per op.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CollAlgo {
    /// Binomial tree (broadcast/reduce); for all-reduce, a reduce to group
    /// index 0 followed by a broadcast. `⌈log₂ g⌉` rounds of the full
    /// payload — the α winner for tiny messages.
    Tree,
    /// Segmented pipelined chain: the payload streams down the member
    /// chain in `S` segments (see [`crate::chain_segments`]), overlapping hops —
    /// the β winner for large broadcasts on long chains.
    Chain,
    /// Ring reduce-scatter + all-gather (the paper's Eq. 5): minimal
    /// bytes-per-link, `g−1` rounds per phase — the β winner.
    Ring,
    /// Recursive halving/doubling (Rabenseifner): `⌈log₂ g⌉` rounds per
    /// phase at ring-equivalent wire volume — the α winner for small
    /// all-reduce / reduce-scatter payloads. Non-power-of-two groups use
    /// an uneven binary split (documented in DESIGN.md §10).
    Halving,
    /// Bruck all-gather: `⌈log₂ g⌉` rounds of doubling block counts —
    /// ring wire volume at tree latency.
    Bruck,
}

impl CollAlgo {
    /// Every algorithm paired with its stable display name, in declaration
    /// order. Single source of truth for the strings stamped into trace
    /// events (`args.algo`) and the tuning-file format.
    pub const ALL: [(CollAlgo, &'static str); 5] = [
        (CollAlgo::Tree, "tree"),
        (CollAlgo::Chain, "chain"),
        (CollAlgo::Ring, "ring"),
        (CollAlgo::Halving, "halving"),
        (CollAlgo::Bruck, "bruck"),
    ];

    /// Stable display name (also the trace label and tuning-file token).
    pub fn name(self) -> &'static str {
        Self::ALL[self as usize].1
    }

    /// Inverse of [`CollAlgo::name`].
    pub fn from_name(name: &str) -> Option<CollAlgo> {
        Self::ALL
            .into_iter()
            .find(|(_, n)| *n == name)
            .map(|(a, _)| a)
    }

    /// The algorithms implemented for a collective, default first. The
    /// default is the pre-registry hardwired schedule, so an empty table
    /// reproduces historical behaviour bit for bit.
    pub fn menu(op: CommOp) -> &'static [CollAlgo] {
        match op {
            CommOp::Broadcast | CommOp::Reduce => &[CollAlgo::Tree, CollAlgo::Chain],
            CommOp::AllReduce => &[CollAlgo::Ring, CollAlgo::Halving, CollAlgo::Tree],
            CommOp::AllGather => &[CollAlgo::Ring, CollAlgo::Bruck],
            CommOp::ReduceScatter => &[CollAlgo::Ring, CollAlgo::Halving],
            CommOp::Barrier => &[CollAlgo::Tree],
        }
    }

    /// The hardwired pre-registry choice for a collective.
    pub fn default_for(op: CommOp) -> CollAlgo {
        Self::menu(op)[0]
    }

    /// Whether this algorithm is implemented for the given collective.
    pub fn valid_for(self, op: CommOp) -> bool {
        Self::menu(op).contains(&self)
    }
}

/// One selection rule: `algo` applies when the op matches and both the
/// group size and payload byte count fall inside the (inclusive) ranges.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AlgoRule {
    pub op: CommOp,
    pub min_group: usize,
    pub max_group: usize,
    pub min_bytes: usize,
    pub max_bytes: usize,
    pub algo: CollAlgo,
}

impl AlgoRule {
    fn matches(&self, op: CommOp, group_size: usize, bytes: usize) -> bool {
        self.op == op
            && (self.min_group..=self.max_group).contains(&group_size)
            && (self.min_bytes..=self.max_bytes).contains(&bytes)
    }
}

/// Algorithm selection table: an ordered rule list (first match wins) with
/// the hardwired defaults as fallback.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AlgoTable {
    pub rules: Vec<AlgoRule>,
}

impl AlgoTable {
    /// The empty table: every collective runs its pre-registry default
    /// (tree broadcast/reduce, ring all-reduce/all-gather/reduce-scatter).
    pub fn baseline() -> AlgoTable {
        AlgoTable { rules: Vec::new() }
    }

    /// Picks the algorithm for one collective call: first matching rule
    /// wins, no match falls back to the hardwired default. A rule must name
    /// an algorithm on its op's menu — `perf::CollTune` rejects one that
    /// does not when it loads a file, and [`crate::coll_steps`] panics on it.
    pub fn select(&self, op: CommOp, group_size: usize, bytes: usize) -> CollAlgo {
        self.rules
            .iter()
            .find(|r| r.matches(op, group_size, bytes))
            .map(|r| r.algo)
            .unwrap_or_else(|| CollAlgo::default_for(op))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_match_discriminants() {
        for (i, (algo, _)) in CollAlgo::ALL.iter().enumerate() {
            assert_eq!(*algo as usize, i, "ALL out of declaration order");
            assert_eq!(CollAlgo::from_name(algo.name()), Some(*algo));
        }
        assert_eq!(CollAlgo::from_name("gossip"), None);
    }

    #[test]
    fn menus_lead_with_the_legacy_default() {
        assert_eq!(CollAlgo::default_for(CommOp::Broadcast), CollAlgo::Tree);
        assert_eq!(CollAlgo::default_for(CommOp::Reduce), CollAlgo::Tree);
        assert_eq!(CollAlgo::default_for(CommOp::AllReduce), CollAlgo::Ring);
        assert_eq!(CollAlgo::default_for(CommOp::AllGather), CollAlgo::Ring);
        assert_eq!(CollAlgo::default_for(CommOp::ReduceScatter), CollAlgo::Ring);
        for (op, _) in CommOp::KINDS {
            for algo in CollAlgo::menu(op) {
                assert!(algo.valid_for(op));
            }
        }
    }

    #[test]
    fn baseline_table_always_picks_defaults() {
        let t = AlgoTable::baseline();
        for (op, _) in CommOp::KINDS {
            for g in [1, 2, 5, 64] {
                for b in [0, 17, 1 << 20] {
                    assert_eq!(t.select(op, g, b), CollAlgo::default_for(op));
                }
            }
        }
    }

    #[test]
    fn first_matching_rule_wins() {
        let t = AlgoTable {
            rules: vec![
                AlgoRule {
                    op: CommOp::AllReduce,
                    min_group: 4,
                    max_group: 8,
                    min_bytes: 0,
                    max_bytes: 1024,
                    algo: CollAlgo::Halving,
                },
                AlgoRule {
                    op: CommOp::AllReduce,
                    min_group: 4,
                    max_group: 8,
                    min_bytes: 0,
                    max_bytes: 4096,
                    algo: CollAlgo::Tree,
                },
            ],
        };
        assert_eq!(t.select(CommOp::AllReduce, 4, 512), CollAlgo::Halving);
        assert_eq!(t.select(CommOp::AllReduce, 4, 2048), CollAlgo::Tree);
        assert_eq!(t.select(CommOp::AllReduce, 4, 1 << 20), CollAlgo::Ring);
        assert_eq!(t.select(CommOp::AllReduce, 2, 512), CollAlgo::Ring);
        assert_eq!(t.select(CommOp::Broadcast, 4, 512), CollAlgo::Tree);
    }
}
