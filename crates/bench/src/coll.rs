//! Live measurement harness for collective algorithms, shared by
//! `optimus-cli tune-coll` and the `coll-bench` binary.
//!
//! Each cell of the sweep runs one `(op, algorithm, payload size)`
//! combination on a fresh thread mesh: every rank loops the collective
//! `reps` times between barriers and times its own loop, the cell takes the
//! **max over ranks** (a collective is only done when its slowest member
//! is) and the **min over trials** (the noise-robust statistic on a loaded
//! host), divided down to seconds per call.
//!
//! `elems` is the total payload a cell moves, so every op's row of one size
//! compares directly: the full buffer for broadcast, reduce, all-reduce and
//! reduce-scatter, the **gathered output** for all-gather (each rank
//! contributes `elems / p`; [`select_elems`] converts to the per-rank block
//! the selection tables and the cost model key all-gather on). All-gather
//! and reduce-scatter payloads must divide by the group size, so sweep
//! sizes should be multiples of the world size.

use mesh::{Coll, CollAlgo, CollBuf, CollPlan, CommOp, Communicator, Group, Mesh, WireDtype};
use std::hint::black_box;
use std::time::Instant;

/// The collectives a tuning sweep covers (everything with a selectable
/// algorithm menu; `Barrier` has a single implementation).
pub const TUNE_OPS: [CommOp; 5] = [
    CommOp::Broadcast,
    CommOp::Reduce,
    CommOp::AllReduce,
    CommOp::AllGather,
    CommOp::ReduceScatter,
];

/// Default payload sizes (f32 elements): 256 B, 4 KiB, 64 KiB, 1 MiB.
pub const TUNE_ELEMS: [usize; 4] = [64, 1024, 16384, 262144];

/// One measured `(op, algorithm, size, wire dtype)` cell.
#[derive(Clone, Copy, Debug)]
pub struct CollSample {
    pub op: CommOp,
    pub algo: CollAlgo,
    /// Total payload f32 elements (see the module docs).
    pub elems: usize,
    /// Wire dtype the payload traveled as (f32 = full width).
    pub wire: WireDtype,
    /// Seconds per collective call.
    pub secs: f64,
}

impl CollSample {
    /// Payload bandwidth in GB/s: logical payload bytes over call time.
    /// Algorithm-agnostic by design — wire traffic differs per algorithm,
    /// the payload a caller hands over does not — so cells in one
    /// `(op, size)` row compare directly.
    pub fn gbps(&self) -> f64 {
        (self.elems * 4) as f64 / self.secs / 1e9
    }
}

/// The payload size `mesh::AlgoTable`, `mesh::WireTable` and
/// `perf::CostModel::coll_time` key a cell of `elems` total elements on.
pub fn select_elems(op: CommOp, p: usize, elems: usize) -> usize {
    match op {
        CommOp::AllGather => elems / p,
        _ => elems,
    }
}

/// Measures one cell — `op` under an explicit `plan` (algorithm and wire
/// dtype; the compressed-vs-full-width cells of `BENCH_coll.json` differ
/// only in `plan.wire`) — on a live `p`-device thread mesh. Panics if
/// `plan.algo` is not on `op`'s menu (the sweep should never ask for an
/// invalid pairing).
pub fn measure_coll(
    op: CommOp,
    plan: CollPlan,
    p: usize,
    elems: usize,
    reps: usize,
    trials: usize,
) -> CollSample {
    assert!(
        plan.algo.valid_for(op),
        "{} has no {:?} algorithm",
        op.name(),
        plan.algo
    );
    assert!(
        !matches!(op, CommOp::AllGather | CommOp::ReduceScatter) || elems.is_multiple_of(p),
        "{} payload {elems} must divide by the group size {p}",
        op.name()
    );
    let coll = Coll::of(op);
    let reps = reps.max(1);
    let trials = trials.max(1);
    let per_rank: Vec<Vec<f64>> = Mesh::run(p, move |ctx| {
        let g = Group::world(p);
        // Every collective's working buffer is `elems` long — for all-gather
        // the p-slot output with the own block already in place — so one
        // allocation outside the timed loop serves every call. The plan is
        // explicit per call: a cell measures exactly the algorithm and wire
        // dtype it names.
        let mut work = vec![1.0f32; elems];
        let mut run_once = || {
            ctx.collective(coll, &g, CollBuf::Now(&mut work), plan);
            black_box(&mut work);
        };
        run_once(); // warm the queues
        let mut times = Vec::with_capacity(trials);
        for _ in 0..trials {
            ctx.barrier(&g);
            let t0 = Instant::now();
            for _ in 0..reps {
                run_once();
            }
            ctx.barrier(&g);
            times.push(t0.elapsed().as_secs_f64());
        }
        times
    });
    let secs = (0..trials)
        .map(|t| per_rank.iter().map(|r| r[t]).fold(0.0, f64::max))
        .fold(f64::INFINITY, f64::min)
        / reps as f64;
    CollSample {
        op,
        algo: plan.algo,
        elems,
        wire: plan.wire,
        secs,
    }
}

/// Repetition count for a cell: scaled down for big payloads so the sweep
/// stays quick, never below 4 so the min-of-trials has something to pick
/// from.
pub fn reps_for(base: usize, elems: usize) -> usize {
    (base * 16384 / elems.max(1)).clamp(4, base.max(4))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_menu_cell_measures_positive_time() {
        for op in TUNE_OPS {
            for &(algo, _) in CollAlgo::ALL.iter() {
                if !algo.valid_for(op) {
                    continue;
                }
                let wire = WireDtype::F32;
                let s = measure_coll(op, CollPlan { algo, wire }, 4, 64, 2, 1);
                assert!(s.secs > 0.0, "{} / {:?}", op.name(), algo);
                assert!(s.gbps() > 0.0);
            }
        }
    }

    #[test]
    fn reps_scale_down_with_payload() {
        assert_eq!(reps_for(24, 64), 24);
        assert_eq!(reps_for(24, 16384), 24);
        assert_eq!(reps_for(24, 262144), 4);
        assert_eq!(reps_for(0, 1), 4);
    }
}
