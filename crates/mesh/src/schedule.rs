//! Collective schedules as data — the only module that knows an algorithm.
//!
//! [`coll_steps`] is a pure function `(collective, algorithm, group size,
//! my index, payload length) → this member's ordered steps`. A step sends a
//! range of the member's **working buffer** to a peer, receives a peer's
//! payload into a range (overwriting it or combining into it), or rotates
//! the buffer locally. Everything else in the crate *interprets* the list:
//! the live backend moves the bytes, the trace-only backend logs the
//! `Send`s, and [`replay`] walks all members' lists without threads — which
//! is how `perf::CostModel` prices a collective and how
//! `tests/coll_algos.rs` proves each schedule sound. So live ≡ dry-run ≡
//! priced holds by construction.
//!
//! The working buffer is the caller's payload for every collective except
//! all-gather and gather, where it is the `g`-slot output with the member's
//! own block already in slot `me`. Chunked schedules split `n` elements at
//! `n·i/g` boundaries ([`chunk`]). Peers are group indices.
//!
//! Every accumulation order is part of the contract (DESIGN.md §10): a
//! member combines incoming ranges in exactly the order its `Recv` steps
//! appear.

use crate::algo::CollAlgo;
use crate::stats::CommOp;
use std::collections::VecDeque;
use std::ops::Range;

/// A collective as the schedule layer sees it: the op, plus the root where
/// there is one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Coll {
    Broadcast {
        root: usize,
    },
    /// Sum to `root`; other members' buffers end as partial-sum scratch.
    Reduce {
        root: usize,
    },
    AllReduce,
    /// All-reduce under `f32::max` instead of `+` (same schedules).
    AllReduceMax,
    AllGather,
    ReduceScatter,
    /// Every member's block to `root`'s slots; logged as `AllGather`.
    Gather {
        root: usize,
    },
    /// An empty reduce to index 0, then an empty broadcast from it. The
    /// backends run and log the two parts as nested collectives; the step
    /// list is the parts back to back, which is what a barrier costs.
    Barrier,
}

impl Coll {
    /// What a barrier runs, in order.
    pub(crate) const BARRIER_PARTS: [Coll; 2] =
        [Coll::Reduce { root: 0 }, Coll::Broadcast { root: 0 }];

    /// The collective a log or trace record of kind `op` describes, which
    /// carries no root: rooted kinds come back rooted at index 0 (a root
    /// only rotates the member indices of a schedule), and
    /// [`CommOp::AllGather`] is the all-gather proper.
    pub fn of(op: CommOp) -> Coll {
        match op {
            CommOp::Broadcast => Coll::Broadcast { root: 0 },
            CommOp::Reduce => Coll::Reduce { root: 0 },
            CommOp::AllReduce => Coll::AllReduce,
            CommOp::AllGather => Coll::AllGather,
            CommOp::ReduceScatter => Coll::ReduceScatter,
            CommOp::Barrier => Coll::Barrier,
        }
    }

    /// The kind this collective is logged, selected and priced as.
    pub fn op(self) -> CommOp {
        match self {
            Coll::Broadcast { .. } => CommOp::Broadcast,
            Coll::Reduce { .. } => CommOp::Reduce,
            Coll::AllReduce | Coll::AllReduceMax => CommOp::AllReduce,
            Coll::AllGather | Coll::Gather { .. } => CommOp::AllGather,
            Coll::ReduceScatter => CommOp::ReduceScatter,
            Coll::Barrier => CommOp::Barrier,
        }
    }

    /// Logical payload `n` of a working buffer of `work_len` elements: the
    /// per-member block for the slot-layout collectives, the buffer itself
    /// otherwise.
    pub(crate) fn payload_len(self, work_len: usize, g: usize) -> usize {
        match self {
            Coll::AllGather | Coll::Gather { .. } => work_len / g,
            _ => work_len,
        }
    }

    /// The operator this collective's [`RecvMode::Combine`] receives apply.
    pub(crate) fn combine(self) -> Combine {
        match self {
            Coll::AllReduceMax => Combine::Max,
            _ => Combine::Sum,
        }
    }
}

/// The element-wise operator of a reduction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Combine {
    Sum,
    Max,
}

/// What a received payload does to its range of the working buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecvMode {
    /// Overwrite the range.
    Copy,
    /// Combine element-wise into the range (`+`, or `max` for
    /// [`Coll::AllReduceMax`]).
    Combine,
}

/// One step of one member's schedule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Step {
    /// Send `range` of the working buffer to `peer` (never blocks).
    Send { peer: usize, range: Range<usize> },
    /// Block for `peer`'s next payload and apply it to `range`.
    Recv {
        peer: usize,
        range: Range<usize>,
        mode: RecvMode,
    },
    /// Rotate the whole working buffer left by `left` elements (Bruck's
    /// layout change; no communication).
    Rotate { left: usize },
}

/// Element range of chunk `i` when `n` elements split into `g` near-equal
/// chunks — the boundaries every chunked schedule (and the caller slicing a
/// reduce-scatter result) shares.
pub fn chunk(n: usize, g: usize, i: usize) -> Range<usize> {
    (n * i) / g..(n * (i + 1)) / g
}

/// Number of pipeline segments the chain algorithms split a payload into:
/// ~2048 `f32` (8 KiB) each, capped at 32; payloads below one segment
/// stream as a single hop. Shared with `perf::cost` pricing.
pub fn chain_segments(elems: usize) -> usize {
    elems.div_ceil(2048).clamp(1, 32)
}

/// This member's ordered steps for one collective. Panics if `algo` is not
/// on the collective's menu ([`CollAlgo::menu`]) or a root is out of range.
pub fn coll_steps(coll: Coll, algo: CollAlgo, g: usize, me: usize, n: usize) -> Vec<Step> {
    assert!(me < g, "member index {me} out of range for group of {g}");
    let mut s = Vec::new();
    match coll {
        Coll::Broadcast { root } | Coll::Reduce { root } | Coll::Gather { root } => {
            assert!(root < g, "root index {root} out of range for group of {g}");
        }
        _ => {}
    }
    if g == 1 {
        return s;
    }
    let (right, left) = ((me + 1) % g, (me + g - 1) % g);
    let ring = |i: usize| chunk(n, g, i % g);
    let slot = |i: usize| (i % g) * n..(i % g + 1) * n;
    match (coll, algo) {
        (Coll::Broadcast { root }, CollAlgo::Tree) => bcast_tree_steps(&mut s, g, me, root, n),
        (Coll::Reduce { root }, CollAlgo::Tree) => reduce_tree_steps(&mut s, g, me, root, n),
        (Coll::Broadcast { root }, CollAlgo::Chain) => {
            // Segments stream down the member chain root → root+1 → …; every
            // hop forwards segment j as soon as it lands, so hops overlap.
            let rel = (me + g - root) % g;
            let segs = chain_segments(n);
            for j in 0..segs {
                if rel > 0 {
                    s.push(recv(left, chunk(n, segs, j), RecvMode::Copy));
                }
                if rel + 1 < g {
                    s.push(send(right, chunk(n, segs, j)));
                }
            }
        }
        (Coll::Reduce { root }, CollAlgo::Chain) => {
            // Reverse chain: partial sums flow root+g−1 → … → root, so each
            // element accumulates as x_rel + (x_{rel+1} + …).
            let rel = (me + g - root) % g;
            let segs = chain_segments(n);
            for j in 0..segs {
                if rel + 1 < g {
                    s.push(recv(right, chunk(n, segs, j), RecvMode::Combine));
                }
                if rel > 0 {
                    s.push(send(left, chunk(n, segs, j)));
                }
            }
        }
        (Coll::AllReduce | Coll::AllReduceMax, CollAlgo::Ring) => {
            // The paper's Eq. 5. Phase 1 (reduce-scatter): after g−1 steps
            // chunk me+1 is complete here. Phase 2: all-gather of the
            // completed chunks.
            for step in 0..g - 1 {
                s.push(send(right, ring(me + g - step)));
                s.push(recv(left, ring(me + 2 * g - step - 1), RecvMode::Combine));
            }
            for step in 0..g - 1 {
                s.push(send(right, ring(me + 1 + g - step)));
                s.push(recv(left, ring(me + g - step), RecvMode::Copy));
            }
        }
        (Coll::AllReduce | Coll::AllReduceMax, CollAlgo::Halving) => {
            // Halving reduce-scatter, then the same rounds reversed as a
            // doubling all-gather: receives become sends of the now-complete
            // range.
            let rounds = halving_rounds(g, me);
            for round in &rounds {
                halving_round_steps(&mut s, n, g, &round.sends, &round.recvs, RecvMode::Combine);
            }
            for round in rounds.iter().rev() {
                halving_round_steps(&mut s, n, g, &round.recvs, &round.sends, RecvMode::Copy);
            }
        }
        (Coll::AllReduce | Coll::AllReduceMax, CollAlgo::Tree) => {
            reduce_tree_steps(&mut s, g, me, 0, n);
            bcast_tree_steps(&mut s, g, me, 0, n);
        }
        (Coll::AllGather, CollAlgo::Ring) => {
            for step in 0..g - 1 {
                s.push(send(right, slot(me + g - step)));
                s.push(recv(left, slot(me + 2 * g - step - 1), RecvMode::Copy));
            }
        }
        (Coll::AllGather, CollAlgo::Bruck) => {
            // Rotated layout: slot j holds the block of member (me + j) mod
            // g, so every round moves one contiguous prefix. Block counts
            // double each round; the closing rotation restores group order.
            s.push(Step::Rotate { left: me * n });
            for (have, cnt) in bruck_rounds(g) {
                s.push(send((me + g - have) % g, 0..cnt * n));
                s.push(recv(
                    (me + have) % g,
                    have * n..(have + cnt) * n,
                    RecvMode::Copy,
                ));
            }
            s.push(Step::Rotate {
                left: (g - me) % g * n,
            });
        }
        (Coll::ReduceScatter, CollAlgo::Ring) => {
            // The all-reduce phase-1 ring, relabelled so that chunk `me`
            // (rather than `me+1`) completes locally.
            for step in 0..g - 1 {
                s.push(send(right, ring(me + 2 * g - step - 1)));
                s.push(recv(left, ring(me + 2 * g - step - 2), RecvMode::Combine));
            }
        }
        (Coll::ReduceScatter, CollAlgo::Halving) => {
            for round in &halving_rounds(g, me) {
                halving_round_steps(&mut s, n, g, &round.sends, &round.recvs, RecvMode::Combine);
            }
        }
        (Coll::Gather { root }, _) if me == root => {
            s.extend(
                (0..g)
                    .filter(|&i| i != root)
                    .map(|i| recv(i, slot(i), RecvMode::Copy)),
            );
        }
        (Coll::Gather { root }, _) => s.push(send(root, slot(me))),
        (Coll::Barrier, _) => {
            for part in Coll::BARRIER_PARTS {
                s.extend(coll_steps(part, algo, g, me, 0));
            }
        }
        (coll, algo) => panic!("{algo:?} is not on the {} menu", coll.op().name()),
    }
    s
}

/// Every member's step list for [`Coll::of`]`(op)` — what a record of kind
/// `op` ran, and so what it is priced as.
pub fn group_steps(op: CommOp, algo: CollAlgo, g: usize, n: usize) -> Vec<Vec<Step>> {
    (0..g)
        .map(|me| coll_steps(Coll::of(op), algo, g, me, n))
        .collect()
}

/// Replays all members' lists against per-(src, dst) FIFO queues under an
/// arbitrary fair interleaving, calling `on_recv(me, step, payload)` at each
/// matched receive and `on_local(me, step)` at each rotation. `payload_of`
/// captures what a send carries. Panics if the replay cannot finish (a
/// deadlock) or leaves a message undelivered.
pub fn replay<P>(
    lists: &[Vec<Step>],
    label: &str,
    mut payload_of: impl FnMut(usize, &Step) -> P,
    mut on_recv: impl FnMut(usize, &Step, P),
    mut on_local: impl FnMut(usize, &Step),
) {
    let g = lists.len();
    let mut queues: Vec<VecDeque<P>> = (0..g * g).map(|_| VecDeque::new()).collect();
    let mut pc = vec![0usize; g];
    loop {
        let mut progressed = false;
        for me in 0..g {
            while let Some(step) = lists[me].get(pc[me]) {
                match step {
                    Step::Send { peer, .. } => {
                        let p = payload_of(me, step);
                        queues[me * g + peer].push_back(p);
                    }
                    Step::Recv { peer, .. } => {
                        let Some(p) = queues[peer * g + me].pop_front() else {
                            break; // blocked until the peer sends
                        };
                        on_recv(me, step, p);
                    }
                    Step::Rotate { .. } => on_local(me, step),
                }
                pc[me] += 1;
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }
    for (me, (at, list)) in pc.iter().zip(lists).enumerate() {
        assert_eq!(
            *at,
            list.len(),
            "{label}: member {me} deadlocked at step {at}"
        );
    }
    assert!(
        queues.iter().all(|q| q.is_empty()),
        "{label}: undelivered messages"
    );
}

fn send(peer: usize, range: Range<usize>) -> Step {
    Step::Send { peer, range }
}

fn recv(peer: usize, range: Range<usize>, mode: RecvMode) -> Step {
    Step::Recv { peer, range, mode }
}

/// Binomial broadcast tree: receive the whole payload from the parent (the
/// root has none), then forward it to the children, far subtree first.
fn bcast_tree_steps(s: &mut Vec<Step>, g: usize, me: usize, root: usize, n: usize) {
    let rel = (me + g - root) % g;
    let abs = |r: usize| (r + root) % g;
    let mut mask = 1usize;
    while mask < g {
        if rel & mask != 0 {
            s.push(recv(abs(rel - mask), 0..n, RecvMode::Copy));
            break;
        }
        mask <<= 1;
    }
    mask >>= 1;
    while mask > 0 {
        if rel + mask < g {
            s.push(send(abs(rel + mask), 0..n));
        }
        mask >>= 1;
    }
}

/// Reverse binomial tree: accumulate the children's partial sums, nearest
/// first, then send the partial sum to the parent (the root keeps it).
fn reduce_tree_steps(s: &mut Vec<Step>, g: usize, me: usize, root: usize, n: usize) {
    let rel = (me + g - root) % g;
    let abs = |r: usize| (r + root) % g;
    let mut mask = 1usize;
    while mask < g {
        if rel & mask != 0 {
            s.push(send(abs(rel - mask), 0..n));
            break;
        }
        if rel + mask < g {
            s.push(recv(abs(rel + mask), 0..n, RecvMode::Combine));
        }
        mask <<= 1;
    }
}

/// One round of the recursive-halving schedule for a single member, as
/// `(peer, chunk_lo, chunk_hi)` triples over group-index chunks.
struct HalvingRound {
    sends: Vec<(usize, usize, usize)>,
    /// Accumulation order is part of the contract: partner first, then the
    /// unpaired member's donation.
    recvs: Vec<(usize, usize, usize)>,
}

/// The recursive-halving reduce-scatter schedule for member `me`.
///
/// Classic Rabenseifner halving generalized to any `g`: the member range
/// splits into a lower half of `⌈len/2⌉` and an upper half of `⌊len/2⌋`;
/// upper member `u` pairs with lower member `u − ⌈len/2⌉` and the pair
/// exchanges the halves they are *not* responsible for. When the halves
/// are uneven, the one unpaired lower member donates its upper-range
/// contribution to the last upper member (receiving nothing that round —
/// other lower members carry the upper contributions it needs through
/// later rounds). After all rounds member `i` owns exactly chunk `i`.
fn halving_rounds(g: usize, me: usize) -> Vec<HalvingRound> {
    let mut rounds = Vec::new();
    let (mut lo, mut hi) = (0usize, g);
    while hi - lo > 1 {
        let low_size = (hi - lo).div_ceil(2);
        let mid = lo + low_size;
        let up_size = hi - mid;
        let mut round = HalvingRound {
            sends: Vec::new(),
            recvs: Vec::new(),
        };
        if me < mid {
            let l = me - lo;
            if l < up_size {
                round.sends.push((mid + l, mid, hi));
                round.recvs.push((mid + l, lo, mid));
            } else {
                round.sends.push((hi - 1, mid, hi));
            }
            hi = mid;
        } else {
            let partner = lo + (me - mid);
            round.sends.push((partner, lo, mid));
            round.recvs.push((partner, mid, hi));
            if me == hi - 1 && low_size > up_size {
                round.recvs.push((mid - 1, mid, hi));
            }
            lo = mid;
        }
        rounds.push(round);
    }
    rounds
}

/// Emits one halving round: all of `sends`, then all of `recvs` in `mode`.
fn halving_round_steps(
    s: &mut Vec<Step>,
    n: usize,
    g: usize,
    sends: &[(usize, usize, usize)],
    recvs: &[(usize, usize, usize)],
    mode: RecvMode,
) {
    let elems = |clo: usize, chi: usize| chunk(n, g, clo).start..chunk(n, g, chi).start;
    s.extend(sends.iter().map(|&(p, clo, chi)| send(p, elems(clo, chi))));
    s.extend(
        recvs
            .iter()
            .map(|&(p, clo, chi)| recv(p, elems(clo, chi), mode)),
    );
}

/// The Bruck all-gather rounds as `(have, cnt)`: `have` blocks are held
/// before the round; the first `cnt` go to member `(me − have) mod g` while
/// `cnt` arrive from `(me + have) mod g`.
fn bruck_rounds(g: usize) -> Vec<(usize, usize)> {
    let mut rounds = Vec::new();
    let mut have = 1usize;
    while have < g {
        let cnt = have.min(g - have);
        rounds.push((have, cnt));
        have += cnt;
    }
    rounds
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Symbolic replay of the halving reduce-scatter schedule: after all
    /// rounds, member `i`'s chunk `i` must hold exactly one contribution
    /// from every member (no drops, no double-adds), for any group size.
    /// (`tests/coll_algos.rs` generalises this to every schedule.)
    #[test]
    fn halving_rounds_deliver_every_contribution_exactly_once() {
        for g in 1..=9usize {
            // state[m][c][src] = how many times member m's copy of chunk c
            // includes member src's contribution.
            let mut state = vec![vec![vec![0u32; g]; g]; g];
            for (m, row) in state.iter_mut().enumerate() {
                for chunk in row.iter_mut() {
                    chunk[m] = 1;
                }
            }
            let rounds: Vec<_> = (0..g).map(|m| halving_rounds(g, m)).collect();
            let depth = rounds.iter().map(|r| r.len()).max().unwrap_or(0);
            for r in 0..depth {
                // Snapshot sends at round start (each member sends before
                // it receives), then apply the accumulations.
                let mut inflight: Vec<(usize, usize, usize, Vec<Vec<u32>>)> = Vec::new();
                for (m, rs) in rounds.iter().enumerate() {
                    if let Some(round) = rs.get(r) {
                        for &(peer, clo, chi) in &round.sends {
                            inflight.push((m, peer, clo, state[m][clo..chi].to_vec()));
                        }
                    }
                }
                for (from, to, clo, payload) in inflight {
                    for (off, contrib) in payload.iter().enumerate() {
                        for (src, cnt) in contrib.iter().enumerate() {
                            state[to][clo + off][src] += cnt;
                        }
                    }
                    // The receiver must actually list this receive.
                    let listed = rounds[to][r]
                        .recvs
                        .iter()
                        .any(|&(p, lo, _)| p == from && lo == clo);
                    assert!(listed, "g={g}: send {from}->{to} round {r} unmatched");
                }
            }
            for (m, owned) in state.iter().enumerate() {
                assert_eq!(
                    owned[m],
                    vec![1u32; g],
                    "g={g} member {m}: chunk {m} must sum each contribution once"
                );
            }
        }
    }

    #[test]
    fn bruck_rounds_cover_the_group_in_log_rounds() {
        for g in 1..=9usize {
            let rounds = bruck_rounds(g);
            let total: usize = 1 + rounds.iter().map(|&(_, cnt)| cnt).sum::<usize>();
            assert_eq!(total, g, "g={g}: all blocks gathered");
            let ceil_log2 = (usize::BITS - 1 - g.next_power_of_two().leading_zeros()) as usize;
            assert!(rounds.len() <= ceil_log2.max(1), "g={g}: log rounds");
        }
    }

    #[test]
    fn chain_segments_is_clamped_and_monotone() {
        assert_eq!(chain_segments(0), 1);
        assert_eq!(chain_segments(1), 1);
        assert_eq!(chain_segments(2048), 1);
        assert_eq!(chain_segments(2049), 2);
        assert_eq!(chain_segments(1 << 20), 32);
        let mut last = 0;
        for n in [0usize, 1, 7, 1023, 65536, 1 << 20] {
            let s = chain_segments(n);
            assert!(s >= last.min(32));
            last = s;
        }
    }

    #[test]
    fn tree_schedules_are_mirror_images() {
        // The reduce tree is the broadcast tree with every edge reversed, so
        // a member's reduce sources are its broadcast children (nearest
        // first instead of farthest first) and its target is its parent.
        for g in 1..=9usize {
            for root in 0..g {
                for me in 0..g {
                    let edges = |coll| -> (Vec<usize>, Vec<usize>) {
                        let (mut tx, mut rx) = (Vec::new(), Vec::new());
                        for step in coll_steps(coll, CollAlgo::Tree, g, me, 3) {
                            match step {
                                Step::Send { peer, .. } => tx.push(peer),
                                Step::Recv { peer, .. } => rx.push(peer),
                                Step::Rotate { .. } => unreachable!(),
                            }
                        }
                        (tx, rx)
                    };
                    let (children, parent) = edges(Coll::Broadcast { root });
                    let (target, mut sources) = edges(Coll::Reduce { root });
                    sources.reverse();
                    assert_eq!(children, sources, "g={g} root={root} me={me}");
                    assert_eq!(parent, target, "g={g} root={root} me={me}");
                }
            }
        }
    }
}
