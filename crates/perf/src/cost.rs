//! Collective cost functions (paper Eqs. 4–5), topology-aware and
//! per-algorithm: every entry of the `mesh` collective-algorithm registry
//! has its own α-β formula here ([`CostModel::coll_time`]), and replayed
//! logs / trace events are priced by the algorithm they actually ran.

use crate::profile::HardwareProfile;
use mesh::{chain_segments, CollAlgo, CommLog, CommOp, OpRecord, Topology, WireDtype};

/// α-β cost model over a concrete device-to-node placement.
#[derive(Clone, Debug)]
pub struct CostModel {
    pub profile: HardwareProfile,
    pub topology: Topology,
}

fn log2_ceil(g: usize) -> f64 {
    (g.max(1) as f64).log2().ceil()
}

impl CostModel {
    pub fn new(profile: HardwareProfile, topology: Topology) -> Self {
        CostModel { profile, topology }
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
    /// replay pricing uses the faithful per-algorithm
    /// [`CostModel::coll_time`] instead.
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

    /// One ring pass (all-gather or reduce-scatter): half of Eq. 5.
    pub fn ring_pass_time(&self, ranks: &[usize], elems: usize) -> f64 {
        self.all_reduce_time(ranks, elems) / 2.0
    }

    /// Time to execute `macs` multiply-accumulates on one device.
    pub fn compute_time(&self, macs: f64) -> f64 {
        macs / self.profile.mac_rate
    }

    /// Cost of one collective participation of a given kind **and
    /// algorithm** — the faithful per-algorithm α-β formulas (derivations
    /// in DESIGN.md §10). `elems` follows the `OpRecord` convention: the
    /// logical payload, except all-gather where it is the per-member block.
    ///
    /// | op, algo                  | formula                           |
    /// |---------------------------|-----------------------------------|
    /// | bcast/reduce, tree        | `⌈log₂g⌉·(α + βB)` (Eq. 4)        |
    /// | bcast/reduce, chain       | `(g+S−2)·(α + βB/S)`              |
    /// | all-reduce, ring          | `2(g−1)·(α + βB/g)` (Eq. 5)       |
    /// | all-reduce, halving       | `2⌈log₂g⌉·α + 2βB(g−1)/g`         |
    /// | all-reduce, tree          | `2⌈log₂g⌉·(α + βB)`               |
    /// | AG/RS, ring               | `(g−1)·(α + βB/g)`                |
    /// | AG bruck / RS halving     | `⌈log₂g⌉·α + (g−1)·βB/g`          |
    /// | barrier                   | `2⌈log₂g⌉·α`                      |
    pub fn coll_time(&self, op: CommOp, algo: CollAlgo, ranks: &[usize], elems: usize) -> f64 {
        self.coll_time_scaled(op, algo, ranks, elems, 1.0)
    }

    /// [`CostModel::coll_time`] for a payload traveling at a compressed
    /// wire dtype: every β term scales by the bytes-on-wire ratio
    /// (`bytes_per_elem / 4`, so bf16/f16 halve the bandwidth cost), the α
    /// round structure and chain segmentation stay functions of the
    /// *logical* payload, and compressed ops pay the pack/unpack boundary
    /// cost `γ·B` once per participation.
    pub fn coll_time_wire(
        &self,
        op: CommOp,
        algo: CollAlgo,
        ranks: &[usize],
        elems: usize,
        wire: WireDtype,
    ) -> f64 {
        if ranks.len() <= 1 {
            return 0.0;
        }
        let ratio = wire.bytes_per_elem() as f64 / 4.0;
        let mut t = self.coll_time_scaled(op, algo, ranks, elems, ratio);
        if !wire.is_f32() {
            t += self.profile.gamma * elems as f64;
        }
        t
    }

    fn coll_time_scaled(
        &self,
        op: CommOp,
        algo: CollAlgo,
        ranks: &[usize],
        elems: usize,
        wire_ratio: f64,
    ) -> f64 {
        let g = ranks.len();
        if g <= 1 {
            return 0.0;
        }
        let alpha = self.profile.alpha;
        let beta = self.group_beta(ranks) * wire_ratio;
        let b = elems as f64;
        let gf = g as f64;
        let rounds = log2_ceil(g);
        match (op, algo) {
            (CommOp::Broadcast | CommOp::Reduce, CollAlgo::Tree) => rounds * (alpha + beta * b),
            (CommOp::Broadcast | CommOp::Reduce, CollAlgo::Chain) => {
                let s = chain_segments(elems) as f64;
                (gf + s - 2.0) * (alpha + beta * b / s)
            }
            (CommOp::AllReduce, CollAlgo::Ring) => 2.0 * (gf - 1.0) * (alpha + beta * b / gf),
            (CommOp::AllReduce, CollAlgo::Halving) => {
                2.0 * rounds * alpha + 2.0 * beta * b * (gf - 1.0) / gf
            }
            (CommOp::AllReduce, CollAlgo::Tree) => 2.0 * rounds * (alpha + beta * b),
            (CommOp::AllGather | CommOp::ReduceScatter, CollAlgo::Ring) => {
                (gf - 1.0) * (alpha + beta * b / gf)
            }
            (CommOp::AllGather, CollAlgo::Bruck) | (CommOp::ReduceScatter, CollAlgo::Halving) => {
                rounds * alpha + (gf - 1.0) * beta * b / gf
            }
            (CommOp::Barrier, _) => 2.0 * rounds * alpha,
            // An algorithm the op does not implement (stale tuning file):
            // price the op's default schedule.
            _ => self.coll_time_scaled(op, CollAlgo::default_for(op), ranks, elems, wire_ratio),
        }
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

    /// Cost of one trace op event, in seconds — the same per-algorithm
    /// pricing as [`CostModel::op_time`] applied to a [`trace::OpMeta`].
    /// Unknown kinds cost zero; an empty or unknown algorithm label prices
    /// the op's default schedule. The event's wire-dtype stamp feeds
    /// [`CostModel::coll_time_wire`], so `tracecheck` re-prices exactly the
    /// bytes that traveled (an empty or unknown label means full-width f32).
    pub fn meta_time(&self, meta: &trace::OpMeta) -> f64 {
        let Some(op) = CommOp::from_name(meta.kind) else {
            return 0.0;
        };
        let algo = CollAlgo::from_name(meta.algo).unwrap_or_else(|| CollAlgo::default_for(op));
        let wire = WireDtype::from_name(meta.wire).unwrap_or(WireDtype::F32);
        let ranks = meta
            .group_ranks()
            .unwrap_or_else(|| (0..meta.group_size).collect());
        self.coll_time_wire(op, algo, &ranks, meta.elems, wire)
    }

    /// A nanosecond pricer for [`mesh::Mesh::dry_run_traced`]: dry-run
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

    /// Prices one SUMMA-style product loop (`iters` panel rounds of
    /// `t_comm` communication and `t_comp` compute each) under both
    /// schedules — the serial reference and the double-buffered prefetch
    /// pipeline the live mesh runs by default.
    pub fn loop_cost(&self, iters: usize, t_comm: f64, t_comp: f64) -> OverlapCost {
        OverlapCost {
            serial_s: serial_loop_time(iters, t_comm, t_comp),
            overlapped_s: pipelined_loop_time(iters, t_comm, t_comp),
        }
    }

    /// Replays a whole mesh run: the slowest device's communication time.
    pub fn replay_max(&self, logs: &[CommLog]) -> f64 {
        logs.iter().map(|l| self.replay(l)).fold(0.0, f64::max)
    }
}

/// Serial (no-overlap) cost of an `iters`-round communicate-then-compute
/// loop: every round pays both terms in full, `iters · (t_comm + t_comp)`.
pub fn serial_loop_time(iters: usize, t_comm: f64, t_comp: f64) -> f64 {
    iters as f64 * (t_comm + t_comp)
}

/// Double-buffered (prefetch) cost of the same loop: round `l+1`'s panels
/// move while round `l` computes, so only the first communication and the
/// last compute are exposed —
/// `t_comm + (iters − 1) · max(t_comm, t_comp) + t_comp`.
///
/// This is the schedule `summa_*_into` runs when [`mesh::Grid2d::overlap`]
/// is on; the serial form is the `--no-overlap` escape hatch.
pub fn pipelined_loop_time(iters: usize, t_comm: f64, t_comp: f64) -> f64 {
    if iters == 0 {
        return 0.0;
    }
    t_comm + (iters as f64 - 1.0) * t_comm.max(t_comp) + t_comp
}

/// Both prices of one overlapped loop, plus the derived hidden time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OverlapCost {
    /// The blocking schedule's time.
    pub serial_s: f64,
    /// The double-buffered schedule's time.
    pub overlapped_s: f64,
}

impl OverlapCost {
    /// Communication (or compute) time hidden by the overlap — the
    /// difference between the two schedules. Never negative: the pipeline
    /// degenerates to the serial schedule when `iters ≤ 1`.
    pub fn hidden_s(&self) -> f64 {
        (self.serial_s - self.overlapped_s).max(0.0)
    }

    /// Serial / overlapped; ≥ 1, and → 2 for a long perfectly balanced loop.
    pub fn speedup(&self) -> f64 {
        if self.overlapped_s == 0.0 {
            1.0
        } else {
            self.serial_s / self.overlapped_s
        }
    }
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
        for log in &logs {
            let t = m.replay(log);
            assert!((t - expect).abs() < 1e-12, "t={t} expect={expect}");
        }
    }

    #[test]
    fn per_algorithm_prices_match_their_formulas() {
        let prof = HardwareProfile {
            alpha: 1e-5,
            ..HardwareProfile::uniform(1e12, 1e-9)
        };
        let m = CostModel::new(prof, Topology::single_node(16));
        let ranks: Vec<usize> = (0..8).collect();
        let (a, bb) = (1e-5, 1e-9 * 65536.0);
        let t = |op, algo| m.coll_time(op, algo, &ranks, 65536);
        let close = |x: f64, y: f64| (x - y).abs() < 1e-12 * y.abs().max(1.0);
        assert!(close(t(CommOp::Broadcast, CollAlgo::Tree), 3.0 * (a + bb)));
        let s = chain_segments(65536) as f64;
        assert!(close(
            t(CommOp::Broadcast, CollAlgo::Chain),
            (8.0 + s - 2.0) * (a + bb / s)
        ));
        assert!(close(
            t(CommOp::AllReduce, CollAlgo::Ring),
            14.0 * (a + bb / 8.0)
        ));
        assert!(close(
            t(CommOp::AllReduce, CollAlgo::Halving),
            6.0 * a + 2.0 * bb * 7.0 / 8.0
        ));
        assert!(close(t(CommOp::AllReduce, CollAlgo::Tree), 6.0 * (a + bb)));
        assert!(close(
            t(CommOp::AllGather, CollAlgo::Bruck),
            3.0 * a + 7.0 * bb / 8.0
        ));
        assert!(close(
            t(CommOp::ReduceScatter, CollAlgo::Halving),
            3.0 * a + 7.0 * bb / 8.0
        ));
        // Ring AG/RS is half of Eq. 5 — unchanged from the legacy pricer.
        assert!(close(
            t(CommOp::AllGather, CollAlgo::Ring),
            m.ring_pass_time(&ranks, 65536)
        ));
    }

    #[test]
    fn algorithm_crossovers_exist_in_the_model() {
        // The registry's whole premise: for each collective family there is
        // a message size where the non-default algorithm is cheaper.
        let prof = HardwareProfile {
            alpha: 1e-5,
            ..HardwareProfile::uniform(1e12, 1e-9)
        };
        let m = CostModel::new(prof, Topology::single_node(16));
        let ranks: Vec<usize> = (0..8).collect();
        // Tiny all-reduce: halving's 2·log g rounds beat ring's 2(g−1).
        assert!(
            m.coll_time(CommOp::AllReduce, CollAlgo::Halving, &ranks, 16)
                < m.coll_time(CommOp::AllReduce, CollAlgo::Ring, &ranks, 16)
        );
        // Huge all-reduce: ring's minimal wire volume wins back.
        assert!(
            m.coll_time(CommOp::AllReduce, CollAlgo::Ring, &ranks, 1 << 22)
                < m.coll_time(CommOp::AllReduce, CollAlgo::Tree, &ranks, 1 << 22)
        );
        // Huge broadcast: the segmented chain beats the tree.
        assert!(
            m.coll_time(CommOp::Broadcast, CollAlgo::Chain, &ranks, 1 << 20)
                < m.coll_time(CommOp::Broadcast, CollAlgo::Tree, &ranks, 1 << 20)
        );
        // Tiny all-gather: Bruck's log-round latency beats the ring.
        assert!(
            m.coll_time(CommOp::AllGather, CollAlgo::Bruck, &ranks, 16)
                < m.coll_time(CommOp::AllGather, CollAlgo::Ring, &ranks, 16)
        );
    }

    #[test]
    fn meta_time_dispatches_on_the_algo_label() {
        let prof = HardwareProfile {
            alpha: 1e-5,
            ..HardwareProfile::uniform(1e12, 1e-9)
        };
        let m = CostModel::new(prof, Topology::single_node(16));
        let meta = |algo| trace::OpMeta::collective("AllReduce", 8, 0, 1, 4096, 0).with_algo(algo);
        let ranks: Vec<usize> = (0..8).collect();
        assert_eq!(
            m.meta_time(&meta("halving")),
            m.coll_time(CommOp::AllReduce, CollAlgo::Halving, &ranks, 4096)
        );
        // Empty label (pre-registry producer) prices the default schedule.
        assert_eq!(
            m.meta_time(&meta("")),
            m.coll_time(CommOp::AllReduce, CollAlgo::Ring, &ranks, 4096)
        );
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
    fn balanced_loop_approaches_2x_speedup() {
        let c = uniform_model(1e-9).loop_cost(64, 1.0, 1.0);
        assert_eq!(c.serial_s, 128.0);
        assert_eq!(c.overlapped_s, 65.0); // 1 + 63·1 + 1
        assert!((c.speedup() - 128.0 / 65.0).abs() < 1e-12);
        assert_eq!(c.hidden_s(), 63.0);
    }

    #[test]
    fn single_round_loop_has_nothing_to_hide() {
        let c = uniform_model(1e-9).loop_cost(1, 2.0, 5.0);
        assert_eq!(c.serial_s, c.overlapped_s);
        assert_eq!(c.hidden_s(), 0.0);
        assert_eq!(c.speedup(), 1.0);
        assert_eq!(pipelined_loop_time(0, 2.0, 5.0), 0.0);
    }

    #[test]
    fn overlap_bounds_hold_for_arbitrary_loops() {
        // overlapped ≤ serial, and overlapped ≥ max(Σcomm, Σcomp) — the
        // pipeline can hide the smaller stream but never shrink the larger.
        for &(iters, comm, comp) in &[(2, 0.5, 3.0), (7, 2.0, 2.0), (16, 4.0, 0.1)] {
            let s = serial_loop_time(iters, comm, comp);
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
