//! Communication accounting.
//!
//! Every point-to-point transfer and every collective participation is
//! recorded per device. The `perf` crate replays [`OpRecord`]s through the
//! α-β cost model (each collective's cost depends only on its kind, group
//! size and payload — exactly the granularity of the paper's Eqs. 4–5), and
//! uses [`LinkRecord`]s for the topology/contention analysis of Figure 8.
//!
//! Records double as the raw material of the structured tracer: each record
//! carries the [`trace`] span that was open when it was made (`span` 0 when
//! the run was untraced), and [`OpRecord`]s carry the recording `rank`.

/// Kind of collective a device participated in.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CommOp {
    Broadcast,
    Reduce,
    AllReduce,
    AllGather,
    ReduceScatter,
    Barrier,
}

impl CommOp {
    /// Every collective kind paired with its stable display name, in
    /// declaration order. The **single source of truth** for these strings:
    /// stats display, the trace event kind (`OpMeta.kind`), and the metrics
    /// wait-histogram labels all go through [`CommOp::name`], which reads
    /// this table.
    pub const KINDS: [(CommOp, &'static str); 6] = [
        (CommOp::Broadcast, "Broadcast"),
        (CommOp::Reduce, "Reduce"),
        (CommOp::AllReduce, "AllReduce"),
        (CommOp::AllGather, "AllGather"),
        (CommOp::ReduceScatter, "ReduceScatter"),
        (CommOp::Barrier, "Barrier"),
    ];

    /// Stable display name, also used as the trace event kind and the
    /// metrics histogram label.
    pub fn name(self) -> &'static str {
        Self::KINDS[self as usize].1
    }

    /// Inverse of [`CommOp::name`].
    pub fn from_name(name: &str) -> Option<CommOp> {
        Self::KINDS
            .into_iter()
            .find(|(_, n)| *n == name)
            .map(|(op, _)| op)
    }
}

/// One collective participation: the payload is the *logical* tensor size in
/// `f32` elements (what the paper's `B` denotes), not the wire traffic — the
/// wire traffic is in the link records.
///
/// `group_first`/`group_stride` encode the group's membership for arithmetic
/// groups (mesh rows have stride 1, mesh columns stride `q`, the world
/// stride 1); a stride of 0 marks an irregular group. The `perf` crate uses
/// this to pick intra- vs inter-node bandwidth when replaying a log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpRecord {
    pub op: CommOp,
    /// The schedule this participation ran (see [`crate::CollAlgo`]);
    /// `perf` prices the record with the matching per-algorithm formula.
    pub algo: crate::CollAlgo,
    pub group_size: usize,
    pub elems: usize,
    pub group_first: usize,
    pub group_stride: usize,
    /// The device that recorded this participation.
    pub rank: usize,
    /// The innermost [`trace`] span open when the op ran (0 = untraced).
    pub span: u32,
}

impl OpRecord {
    /// Reconstructs the member ranks for arithmetic groups; `None` when the
    /// group was irregular (stride 0 with more than one member).
    pub fn group_ranks(&self) -> Option<Vec<usize>> {
        if self.group_size == 1 {
            return Some(vec![self.group_first]);
        }
        if self.group_stride == 0 {
            return None;
        }
        Some(
            (0..self.group_size)
                .map(|i| self.group_first + i * self.group_stride)
                .collect(),
        )
    }
}

/// One point-to-point transfer on a concrete link, sent by `from`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkRecord {
    pub from: usize,
    pub to: usize,
    pub elems: usize,
    /// The kind of collective the transfer was a step of; `None` for a
    /// point-to-point send.
    pub op: Option<CommOp>,
    /// The innermost [`trace`] span open when the send ran (0 = untraced).
    pub span: u32,
}

/// Per-device log of all communication in a mesh run.
#[derive(Clone, Debug)]
pub struct CommLog {
    pub rank: usize,
    pub ops: Vec<OpRecord>,
    pub links: Vec<LinkRecord>,
    /// Running total of link elements; kept incrementally so the tracer can
    /// take O(1) before/after snapshots around each collective.
    wire: usize,
}

/// The `(size, first, stride)` encoding of a group's membership; stride 0
/// marks an irregular (non-arithmetic) group.
pub(crate) fn group_shape(group: &crate::Group) -> (usize, usize, usize) {
    let ranks = group.ranks();
    let stride = if ranks.len() > 1 {
        let s = ranks[1].wrapping_sub(ranks[0]);
        let arithmetic = ranks.windows(2).all(|w| w[1].wrapping_sub(w[0]) == s);
        if arithmetic {
            s
        } else {
            0
        }
    } else {
        0
    };
    (ranks.len(), ranks[0], stride)
}

/// Records a collective participation, encoding the group as
/// first/stride when its membership is arithmetic. Shared by both
/// [`crate::Communicator`] backends so their op streams are byte-identical.
pub(crate) fn record_group_op(
    log: &mut CommLog,
    op: CommOp,
    algo: crate::CollAlgo,
    group: &crate::Group,
    elems: usize,
) {
    let (size, first, stride) = group_shape(group);
    log.record_op(op, algo, size, elems, first, stride);
}

impl CommLog {
    pub fn new(rank: usize) -> Self {
        CommLog {
            rank,
            ops: Vec::new(),
            links: Vec::new(),
            wire: 0,
        }
    }

    /// Empties the log, keeping its capacity.
    pub(crate) fn clear(&mut self) {
        self.ops.clear();
        self.links.clear();
        self.wire = 0;
    }

    pub(crate) fn record_op(
        &mut self,
        op: CommOp,
        algo: crate::CollAlgo,
        group_size: usize,
        elems: usize,
        group_first: usize,
        group_stride: usize,
    ) {
        self.ops.push(OpRecord {
            op,
            algo,
            group_size,
            elems,
            group_first,
            group_stride,
            rank: self.rank,
            span: trace::current_span(),
        });
    }

    pub(crate) fn record_link(&mut self, from: usize, to: usize, elems: usize, op: Option<CommOp>) {
        self.wire += elems;
        self.links.push(LinkRecord {
            from,
            to,
            elems,
            op,
            span: trace::current_span(),
        });
    }

    /// Total `f32` elements this device pushed onto the fabric. O(1).
    pub fn total_link_elems(&self) -> usize {
        debug_assert_eq!(self.wire, self.links.iter().map(|l| l.elems).sum::<usize>());
        self.wire
    }

    /// `f32` elements this device pushed onto the fabric as steps of
    /// collectives of kind `op` (`None`: point-to-point sends).
    pub fn link_elems(&self, op: Option<CommOp>) -> usize {
        self.links
            .iter()
            .filter(|l| l.op == op)
            .map(|l| l.elems)
            .sum()
    }

    /// Total logical payload across collectives of a given kind.
    pub fn op_elems(&self, op: CommOp) -> usize {
        self.ops
            .iter()
            .filter(|r| r.op == op)
            .map(|r| r.elems)
            .sum()
    }

    /// Number of collectives of a given kind this device joined.
    pub fn op_count(&self, op: CommOp) -> usize {
        self.ops.iter().filter(|r| r.op == op).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_ranks_reconstruction() {
        let row = OpRecord {
            op: CommOp::Broadcast,
            algo: crate::CollAlgo::Tree,
            group_size: 3,
            elems: 10,
            group_first: 6,
            group_stride: 1,
            rank: 0,
            span: 0,
        };
        assert_eq!(row.group_ranks(), Some(vec![6, 7, 8]));
        let col = OpRecord {
            group_stride: 3,
            group_first: 1,
            ..row
        };
        assert_eq!(col.group_ranks(), Some(vec![1, 4, 7]));
        let irregular = OpRecord {
            group_stride: 0,
            ..row
        };
        assert_eq!(irregular.group_ranks(), None);
        let singleton = OpRecord {
            group_size: 1,
            group_stride: 0,
            group_first: 5,
            ..row
        };
        assert_eq!(singleton.group_ranks(), Some(vec![5]));
    }

    #[test]
    fn op_accounting() {
        use crate::CollAlgo;
        let mut log = CommLog::new(0);
        log.record_op(CommOp::Broadcast, CollAlgo::Tree, 4, 100, 0, 1);
        log.record_op(CommOp::Broadcast, CollAlgo::Chain, 4, 50, 0, 1);
        log.record_op(CommOp::AllReduce, CollAlgo::Ring, 16, 200, 0, 1);
        assert_eq!(log.op_elems(CommOp::Broadcast), 150);
        assert_eq!(log.op_count(CommOp::Broadcast), 2);
        assert_eq!(log.op_elems(CommOp::AllReduce), 200);
        assert_eq!(log.op_count(CommOp::Reduce), 0);
    }

    #[test]
    fn link_accounting() {
        let mut a = CommLog::new(0);
        a.record_link(0, 1, 10, Some(CommOp::Broadcast));
        a.record_link(1, 0, 5, None);
        assert_eq!(a.total_link_elems(), 15);
        assert_eq!(a.links.len(), 2);
        assert_eq!(a.link_elems(Some(CommOp::Broadcast)), 10);
        assert_eq!(a.link_elems(None), 5);
        assert_eq!(a.link_elems(Some(CommOp::Reduce)), 0);
    }

    #[test]
    fn name_round_trips() {
        for (op, _) in CommOp::KINDS {
            assert_eq!(CommOp::from_name(op.name()), Some(op));
        }
        assert_eq!(CommOp::from_name("Gossip"), None);
    }

    #[test]
    fn kinds_table_matches_discriminants() {
        // `name()` indexes KINDS by discriminant; the table must stay in
        // declaration order.
        for (i, (op, _)) in CommOp::KINDS.iter().enumerate() {
            assert_eq!(*op as usize, i, "KINDS out of declaration order");
        }
    }
}
