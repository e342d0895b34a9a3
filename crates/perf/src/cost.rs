//! Collective cost functions, topology-aware.
//!
//! Two kinds. The paper's Eq. 4–5 closed forms ([`CostModel::broadcast_time`],
//! [`CostModel::all_reduce_time`], …) are envelopes for the scaling stems,
//! which predict cost without knowing which algorithm will run. Everything
//! that prices a collective that *did* run — a log record, a trace event, a
//! tuning cell — goes through [`CostModel::coll_time`], which replays the
//! very step lists the mesh executes ([`mesh::group_steps`]) under the
//! postal model, so an algorithm needs no formula here.

use crate::profile::HardwareProfile;
use mesh::{CollAlgo, CommLog, CommOp, OpRecord, Step, Topology};
use std::cell::RefCell;
use std::collections::HashMap;

/// What a makespan depends on besides the model's own α: the schedule
/// (`op`, `algo`, group size, payload) and the per-element hop cost (bits).
type CollKey = (CommOp, CollAlgo, usize, usize, u64);

/// α-β cost model over a concrete device-to-node placement.
#[derive(Clone, Debug)]
pub struct CostModel {
    profile: HardwareProfile,
    topology: Topology,
    /// A training step repeats a handful of distinct collectives thousands
    /// of times; each is replayed once.
    priced: RefCell<HashMap<CollKey, f64>>,
}

fn log2_ceil(g: usize) -> f64 {
    (g.max(1) as f64).log2().ceil()
}

impl CostModel {
    pub fn new(profile: HardwareProfile, topology: Topology) -> Self {
        CostModel {
            profile,
            topology,
            priced: RefCell::default(),
        }
    }

    /// The hardware rates this model prices with.
    pub fn profile(&self) -> &HardwareProfile {
        &self.profile
    }

    /// Effective β for a collective over `ranks`, accounting for node
    /// placement and NIC contention (the crowding of Fig. 8):
    ///
    /// * all members in one node → `β_intra`;
    /// * otherwise `β_inter · √(gpus_per_node / members_per_node)` — when
    ///   sibling groups (the other mesh rows/columns) communicate
    ///   concurrently, each node's uplink is shared by one flow per sibling
    ///   group represented on the node. The naive placement of a 4×4 mesh
    ///   on 4-GPU nodes has 4 concurrent flows per uplink for column
    ///   groups; the bunched placement has 2 (Fig. 8's "only two GPUs share
    ///   the cable"). The square root models the partial overlap of
    ///   pipelined flows observed in practice (calibrated against Table 2;
    ///   see EXPERIMENTS.md).
    pub fn group_beta(&self, ranks: &[usize]) -> f64 {
        let spanned = self.topology.nodes_spanned(ranks);
        if spanned <= 1 {
            return self.profile.beta_intra;
        }
        let members_per_node = (ranks.len() as f64 / spanned as f64).max(1.0);
        let contention = (self.topology.gpus_per_node() as f64 / members_per_node).max(1.0);
        self.profile.beta_inter * contention.sqrt()
    }

    /// Broadcast cost as a **best-algorithm envelope**: the better of the
    /// binomial tree (paper Eq. 4, `log(g)·(α + β·B)` — optimal for small
    /// messages) and a pipelined ring (`(g−1)·α + β·B` — what NCCL achieves
    /// for large panels). Used by the closed-form scaling stems, which
    /// predict cost without knowing which algorithm the registry will pick;
    /// replay pricing uses [`CostModel::coll_time`] instead.
    pub fn broadcast_time(&self, ranks: &[usize], elems: usize) -> f64 {
        let g = ranks.len();
        if g <= 1 {
            return 0.0;
        }
        let beta = self.group_beta(ranks);
        let b = elems as f64;
        let tree = log2_ceil(g) * (self.profile.alpha + beta * b);
        let ring = (g as f64 - 1.0) * self.profile.alpha + beta * b;
        tree.min(ring)
    }

    /// Eq. 4 again (reduce has the same tree shape).
    pub fn reduce_time(&self, ranks: &[usize], elems: usize) -> f64 {
        self.broadcast_time(ranks, elems)
    }

    /// Eq. 5: ring all-reduce, `T = 2(g−1)·(α + β·B/g)`.
    pub fn all_reduce_time(&self, ranks: &[usize], elems: usize) -> f64 {
        let g = ranks.len();
        if g <= 1 {
            return 0.0;
        }
        2.0 * (g as f64 - 1.0)
            * (self.profile.alpha + self.group_beta(ranks) * elems as f64 / g as f64)
    }

    /// Time to execute `macs` multiply-accumulates on one device.
    pub fn compute_time(&self, macs: f64) -> f64 {
        macs / self.profile.mac_rate
    }

    /// Seconds one collective of kind `op` takes over `ranks` when it runs
    /// `algo`: the makespan of all members' step lists under the postal
    /// model. A send occupies its sender for `α + β_group · |range|` and
    /// lands when it ends; a receive completes once both the receiver and
    /// the message are ready.
    ///
    /// `elems` follows the `OpRecord` convention — the **per-member block**
    /// for all-gather (each hop of whose ring moves one whole block), the
    /// total payload for every other kind. Panics if `algo` is not on `op`'s
    /// menu.
    pub fn coll_time(&self, op: CommOp, algo: CollAlgo, ranks: &[usize], elems: usize) -> f64 {
        let g = ranks.len();
        if g <= 1 {
            return 0.0;
        }
        let alpha = self.profile.alpha;
        let beta = self.group_beta(ranks);
        let key = (op, algo, g, elems, beta.to_bits());
        if let Some(&t) = self.priced.borrow().get(&key) {
            return t;
        }
        let clock = RefCell::new(vec![0.0f64; g]);
        mesh::replay(
            &mesh::group_steps(op, algo, g, elems),
            op.name(),
            |me, step| {
                let Step::Send { range, .. } = step else {
                    unreachable!("only sends carry a payload")
                };
                let mut clock = clock.borrow_mut();
                clock[me] += alpha + beta * range.len() as f64;
                clock[me] // arrival time
            },
            |me, _, arrival| {
                let mut clock = clock.borrow_mut();
                clock[me] = clock[me].max(arrival);
            },
            |_, _| {},
        );
        let t = clock.into_inner().into_iter().fold(0.0, f64::max);
        self.priced.borrow_mut().insert(key, t);
        t
    }

    /// Cost of one logged collective participation, priced by the
    /// algorithm the record says actually ran.
    pub fn op_time(&self, op: &OpRecord) -> f64 {
        let ranks = op.group_ranks().unwrap_or_else(|| {
            // Irregular group: be conservative, treat as inter-node.
            (0..op.group_size).collect()
        });
        self.coll_time(op.op, op.algo, &ranks, op.elems)
    }

    /// Cost of one trace op event, in seconds — [`CostModel::coll_time`]
    /// applied to a [`trace::OpMeta`], so `tracecheck` re-prices exactly
    /// the steps that ran. `mesh::comm::op_meta` writes both labels from a
    /// typed `CommOp` and `CollAlgo`, so a label that names none panics.
    pub fn meta_time(&self, meta: &trace::OpMeta) -> f64 {
        let op = CommOp::from_name(meta.kind)
            .unwrap_or_else(|| panic!("op kind '{}' is no CommOp", meta.kind));
        let algo = CollAlgo::from_name(meta.algo)
            .unwrap_or_else(|| panic!("algorithm '{}' is no CollAlgo", meta.algo));
        let ranks = meta
            .group_ranks()
            .unwrap_or_else(|| (0..meta.group_size).collect());
        self.coll_time(op, algo, &ranks, meta.elems)
    }

    /// A nanosecond pricer for [`mesh::MeshRun::dry_run_traced`]: dry-run
    /// traces advanced by this closure stamp exactly this model's times, so
    /// the trace's "measured" durations equal [`CostModel::meta_time`] up to
    /// sub-nanosecond rounding.
    pub fn ns_pricer(&self) -> impl Fn(&trace::OpMeta) -> u64 + 'static {
        let model = self.clone();
        move |meta| (model.meta_time(meta) * 1e9).round() as u64
    }

    /// Replays one device's communication log through the model.
    pub fn replay(&self, log: &CommLog) -> f64 {
        log.ops.iter().map(|op| self.op_time(op)).sum()
    }

    /// Replays a whole mesh run: the slowest device's communication time.
    pub fn replay_max(&self, logs: &[CommLog]) -> f64 {
        logs.iter().map(|l| self.replay(l)).fold(0.0, f64::max)
    }
}

/// Cost of an `iters`-round panel loop whose round `l+1` communication
/// runs while round `l` computes, so only the first communication and the
/// last compute are exposed —
/// `t_comm + (iters − 1) · max(t_comm, t_comp) + t_comp`.
///
/// This projects a GPU schedule with a separate communication engine (the
/// paper's NCCL streams). The thread mesh does not run it: each device is
/// one thread, and every SUMMA round pays `t_comm + t_comp` in full.
pub fn pipelined_loop_time(iters: usize, t_comm: f64, t_comp: f64) -> f64 {
    if iters == 0 {
        return 0.0;
    }
    t_comm + (iters as f64 - 1.0) * t_comm.max(t_comp) + t_comp
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh::Arrangement;

    fn uniform_model(beta: f64) -> CostModel {
        CostModel::new(
            HardwareProfile::uniform(1e12, beta),
            Topology::single_node(16),
        )
    }

    #[test]
    fn large_broadcast_is_pipelined_ring() {
        let m = uniform_model(1e-9);
        let ranks: Vec<usize> = (0..8).collect();
        // With no latency the pipelined ring wins: beta * B, no log factor.
        let t = m.broadcast_time(&ranks, 1_000_000);
        assert!((t - 1.0e-3).abs() < 1e-9, "t={t}");
    }

    #[test]
    fn tiny_broadcast_uses_the_tree() {
        // With latency dominating, the binomial tree's log2(g) rounds beat
        // the ring's g-1 hops (paper Eq. 4).
        let prof = HardwareProfile {
            alpha: 1e-4,
            ..HardwareProfile::uniform(1e12, 1e-12)
        };
        let m = CostModel::new(prof, Topology::single_node(8));
        let ranks: Vec<usize> = (0..8).collect();
        let t = m.broadcast_time(&ranks, 1);
        assert!((t - 3.0e-4).abs() < 1e-8, "t={t}");
    }

    #[test]
    fn eq5_all_reduce_cost() {
        let m = uniform_model(1e-9);
        let ranks: Vec<usize> = (0..4).collect();
        // 2*(4-1)/4 * beta * B.
        let t = m.all_reduce_time(&ranks, 1_000_000);
        assert!((t - 1.5e-3).abs() < 1e-9, "t={t}");
    }

    #[test]
    fn single_member_collectives_are_free() {
        let m = uniform_model(1e-9);
        assert_eq!(m.broadcast_time(&[3], 100), 0.0);
        assert_eq!(m.all_reduce_time(&[3], 100), 0.0);
    }

    #[test]
    fn fig8_bunched_beats_naive_for_columns() {
        // 4x4 mesh on 4-GPU nodes: column broadcasts see contention 4 under
        // naive placement vs 2 under bunched -> sqrt(2)x faster.
        let prof = HardwareProfile {
            alpha: 0.0,
            ..HardwareProfile::frontera_rtx5000()
        };
        let naive = CostModel::new(prof.clone(), Topology::new(4, 4, Arrangement::Naive));
        let bunched = CostModel::new(prof, Topology::new(4, 4, Arrangement::Bunched));
        let col: Vec<usize> = (0..4).map(|i| i * 4 + 1).collect();
        let t_naive = naive.broadcast_time(&col, 1 << 20);
        let t_bunched = bunched.broadcast_time(&col, 1 << 20);
        assert!(
            (t_naive / t_bunched - 2.0f64.sqrt()).abs() < 1e-9,
            "naive={t_naive} bunched={t_bunched}"
        );
        // Rows: naive keeps them in-node (fast), bunched spans 2 nodes.
        let row: Vec<usize> = (4..8).collect();
        assert!(naive.broadcast_time(&row, 1 << 20) < bunched.broadcast_time(&row, 1 << 20));
    }

    #[test]
    fn world_ring_has_no_contention_penalty() {
        let prof = HardwareProfile {
            alpha: 0.0,
            ..HardwareProfile::frontera_rtx5000()
        };
        let m = CostModel::new(prof.clone(), Topology::new(4, 4, Arrangement::Naive));
        let world: Vec<usize> = (0..16).collect();
        // members_per_node = 4 = gpus_per_node -> contention 1.
        assert_eq!(m.group_beta(&world), prof.beta_inter);
    }

    fn latency_model() -> CostModel {
        let prof = HardwareProfile {
            alpha: 1e-5,
            ..HardwareProfile::uniform(1e12, 1e-9)
        };
        CostModel::new(prof, Topology::single_node(16))
    }

    #[test]
    fn replay_accounts_for_real_logs() {
        use mesh::{Group, Mesh};
        let (_, logs) = Mesh::run_with_logs(4, |ctx| {
            let g = Group::world(4);
            let mut d = vec![0.0f32; 1000];
            ctx.all_reduce(&g, &mut d);
            ctx.broadcast(&g, 0, &mut d);
        });
        let m = uniform_model(1e-9);
        // The default table runs ring all-reduce and tree broadcast; the
        // replay must price those faithfully, not the closed-form envelope.
        let ranks = [0, 1, 2, 3];
        let expect = m.coll_time(CommOp::AllReduce, CollAlgo::Ring, &ranks, 1000)
            + m.coll_time(CommOp::Broadcast, CollAlgo::Tree, &ranks, 1000);
        assert!((expect - (1.5 + 2.0) * 1e-6).abs() < 1e-15, "{expect}");
        for log in &logs {
            let t = m.replay(log);
            assert!((t - expect).abs() < 1e-12, "t={t} expect={expect}");
        }
    }

    #[test]
    fn all_gather_is_priced_per_member_block() {
        // Each of the ring's g−1 rounds moves one whole n-element block, and
        // Bruck moves the same g−1 blocks in log₂g rounds. (The closed form
        // this replaced priced n/g per round.)
        let m = uniform_model(1e-9);
        let ranks: Vec<usize> = (0..8).collect();
        for algo in [CollAlgo::Ring, CollAlgo::Bruck] {
            let t = m.coll_time(CommOp::AllGather, algo, &ranks, 1000);
            assert!((t - 7.0 * 1e-9 * 1000.0).abs() < 1e-18, "{algo:?}: {t}");
        }
    }

    #[test]
    fn algorithm_crossovers_exist_in_the_model() {
        // The registry's whole premise: for each collective family there is
        // a message size where the non-default algorithm is cheaper.
        let m = latency_model();
        let ranks: Vec<usize> = (0..8).collect();
        let t = |op, algo, elems| m.coll_time(op, algo, &ranks, elems);
        // Tiny all-reduce: halving's 2·log g rounds beat ring's 2(g−1).
        assert!(
            t(CommOp::AllReduce, CollAlgo::Halving, 16) < t(CommOp::AllReduce, CollAlgo::Ring, 16)
        );
        // Huge all-reduce: ring's minimal wire volume wins back.
        assert!(
            t(CommOp::AllReduce, CollAlgo::Ring, 1 << 22)
                < t(CommOp::AllReduce, CollAlgo::Tree, 1 << 22)
        );
        // Huge broadcast: the segmented chain beats the tree.
        assert!(
            t(CommOp::Broadcast, CollAlgo::Chain, 1 << 20)
                < t(CommOp::Broadcast, CollAlgo::Tree, 1 << 20)
        );
        // Tiny all-gather: Bruck's log-round latency beats the ring.
        assert!(
            t(CommOp::AllGather, CollAlgo::Bruck, 16) < t(CommOp::AllGather, CollAlgo::Ring, 16)
        );
    }

    #[test]
    fn meta_time_dispatches_on_the_algo_label() {
        let m = latency_model();
        let meta = |algo| trace::OpMeta {
            algo,
            ..trace::OpMeta::collective("AllReduce", 8, 0, 1, 4096, 0)
        };
        let ranks: Vec<usize> = (0..8).collect();
        let t = |algo| m.coll_time(CommOp::AllReduce, algo, &ranks, 4096);
        assert_eq!(m.meta_time(&meta("halving")), t(CollAlgo::Halving));
    }

    #[test]
    fn pipelined_loop_never_beats_its_own_bottleneck() {
        // Comm-bound: all q rounds of communication are on the critical
        // path; only the interior compute hides.
        let t = pipelined_loop_time(4, 3.0, 1.0);
        assert_eq!(t, 3.0 + 3.0 * 3.0 + 1.0);
        // Compute-bound: symmetric.
        let t = pipelined_loop_time(4, 1.0, 3.0);
        assert_eq!(t, 1.0 + 3.0 * 3.0 + 3.0);
    }

    #[test]
    fn single_round_loop_has_nothing_to_hide() {
        assert_eq!(pipelined_loop_time(1, 2.0, 5.0), 7.0);
        assert_eq!(pipelined_loop_time(0, 2.0, 5.0), 0.0);
    }

    #[test]
    fn overlap_bounds_hold_for_arbitrary_loops() {
        // overlapped ≤ serial, and overlapped ≥ max(Σcomm, Σcomp) — the
        // pipeline can hide the smaller stream but never shrink the larger.
        for &(iters, comm, comp) in &[(2, 0.5, 3.0), (7, 2.0, 2.0), (16, 4.0, 0.1)] {
            let s = iters as f64 * (comm + comp);
            let o = pipelined_loop_time(iters, comm, comp);
            let floor = (iters as f64 * comm).max(iters as f64 * comp);
            assert!(o <= s + 1e-12, "o={o} s={s}");
            assert!(o >= floor - 1e-12, "o={o} floor={floor}");
        }
    }

    #[test]
    fn alpha_term_dominates_tiny_messages() {
        let prof = HardwareProfile {
            alpha: 1e-4,
            ..HardwareProfile::uniform(1e12, 1e-12)
        };
        let m = CostModel::new(prof, Topology::single_node(8));
        let ranks: Vec<usize> = (0..8).collect();
        let t = m.broadcast_time(&ranks, 1);
        assert!(t > 2.9e-4, "latency floor missing: {t}");
    }
}
