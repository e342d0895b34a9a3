//! Live measurement harness for collective algorithms behind the
//! `coll-bench` binary, and the reader `optimus-cli tune-coll` derives its
//! selection table from ([`read_artifact`]); both pick a cell's winner with
//! [`winner`].
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

use mesh::{Coll, CollAlgo, CommOp, Communicator, Group, Mesh};
use minjson::Json;
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

/// One measured `(op, algorithm, size)` cell.
#[derive(Clone, Copy, Debug)]
pub struct CollSample {
    pub op: CommOp,
    pub algo: CollAlgo,
    /// Total payload f32 elements (see the module docs).
    pub elems: usize,
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

/// The measured winner of one `(op, size)` cell: its fastest sample.
pub fn winner(cell: &[CollSample]) -> CollSample {
    *cell
        .iter()
        .min_by(|x, y| x.secs.total_cmp(&y.secs))
        .expect("a cell measures at least one algorithm")
}

/// Reads a `coll-bench` artifact back: the mesh size it was measured on
/// (`devices`) and its `results` rows grouped into `(op, size)` cells, in
/// order of first appearance. Errors name the path, and the row and field
/// of a malformed row.
pub fn read_artifact(path: &str) -> Result<(usize, Vec<Vec<CollSample>>), String> {
    fn at<T>(path: &str, field: &str, r: Result<T, String>) -> Result<T, String> {
        r.map_err(|e| format!("{path}: {field}: {e}"))
    }
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let doc = minjson::parse(&text).map_err(|e| format!("parse {path}: {e}"))?;
    let devices = at(path, "devices", doc.get("devices").and_then(Json::as_usize))?;
    let rows = at(path, "results", doc.get("results").and_then(Json::as_arr))?;
    let mut cells: Vec<Vec<CollSample>> = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        let field = |key: &str| format!("results[{i}].{key}");
        let name = |key: &str| match row.get(key)? {
            Json::Str(s) => Ok(s.as_str()),
            other => Err(format!("expected a string, got {}", other.to_string())),
        };
        let op = name("op").and_then(|n| {
            (CommOp::from_name(n).filter(|op| TUNE_OPS.contains(op)))
                .ok_or(format!("{n:?} is not a tuned collective"))
        });
        let op = at(path, &field("op"), op)?;
        let algo = name("algo").and_then(|n| {
            (CollAlgo::from_name(n).filter(|a| a.valid_for(op)))
                .ok_or(format!("{n:?} is not on {}'s menu", op.name()))
        });
        let algo = at(path, &field("algo"), algo)?;
        let elems = at(
            path,
            &field("elems"),
            row.get("elems").and_then(Json::as_usize),
        )?;
        let secs = row.get("secs").and_then(Json::as_f64).and_then(|s| {
            (s.is_finite() && s > 0.0)
                .then_some(s)
                .ok_or(format!("{s} is not a positive time"))
        });
        let secs = at(path, &field("secs"), secs)?;
        let sample = CollSample {
            op,
            algo,
            elems,
            secs,
        };
        match (cells.iter_mut()).find(|c| c[0].op == op && c[0].elems == elems) {
            Some(cell) => cell.push(sample),
            None => cells.push(vec![sample]),
        }
    }
    if devices < 2 || cells.is_empty() {
        return Err(format!(
            "{path}: needs devices >= 2 and at least one results row"
        ));
    }
    Ok((devices, cells))
}

/// The payload size `mesh::AlgoTable` and `perf::CostModel::coll_time` key
/// a cell of `elems` total elements on.
pub fn select_elems(op: CommOp, p: usize, elems: usize) -> usize {
    match op {
        CommOp::AllGather => elems / p,
        _ => elems,
    }
}

/// Measures one cell — `op` under an explicit `algo` — on a live
/// `p`-device thread mesh. Panics if `algo` is not on `op`'s menu (the
/// sweep should never ask for an invalid pairing).
pub fn measure_coll(
    op: CommOp,
    algo: CollAlgo,
    p: usize,
    elems: usize,
    reps: usize,
    trials: usize,
) -> CollSample {
    assert!(
        algo.valid_for(op),
        "{} has no {algo:?} algorithm",
        op.name()
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
        // allocation outside the timed loop serves every call. The algorithm
        // is explicit per call: a cell measures exactly the one it names.
        let mut work = vec![1.0f32; elems];
        let mut run_once = || {
            ctx.collective(coll, &g, &mut work, algo);
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
        algo,
        elems,
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
                let s = measure_coll(op, algo, 4, 64, 2, 1);
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
