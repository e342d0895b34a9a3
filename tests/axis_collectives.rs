//! Axis-subgroup collective coverage on non-square `MeshNd` shapes.
//!
//! Two properties, each over the shapes `[2, 3]`, `[2, 2, 2]`, and
//! `[1, 4, 2]` (mixed extents, a unit axis, and a cubic mesh):
//!
//! 1. broadcast / reduce / all-reduce over every axis subgroup produce the
//!    values the group membership dictates — with a deliberately uneven
//!    13-element payload, so the chunked tree pipelines exercise their
//!    ragged-tail arithmetic;
//! 2. the dry-run backend replays the whole schedule with op and link logs
//!    byte-identical to the live mesh's.

use mesh::{Communicator, GridNd, MeshNd};

const SHAPES: [&[usize]; 3] = [&[2, 3], &[2, 2, 2], &[1, 4, 2]];

/// Uneven payload: 13 elements, valued so every (rank, slot) is distinct.
const N: usize = 13;

fn payload(rank: usize) -> Vec<f32> {
    (0..N).map(|i| (rank * 100 + i) as f32 + 0.5).collect()
}

/// Runs one blocking collective of each kind over every axis subgroup and
/// returns the results in axis order: (broadcast, reduce-at-last, allreduce).
fn exercise_blocking<C: Communicator>(g: &GridNd<C>) -> Vec<(Vec<f32>, Vec<f32>, Vec<f32>)> {
    let me = g.ctx().rank();
    (0..g.ndim())
        .map(|axis| {
            let group = g.axis_group(axis).clone();
            let mut bc = payload(me);
            g.ctx().broadcast(&group, 0, &mut bc);
            let mut rd = payload(me);
            let last = group.len() - 1;
            g.ctx().reduce(&group, last, &mut rd);
            let mut ar = payload(me);
            g.ctx().all_reduce(&group, &mut ar);
            (bc, rd, ar)
        })
        .collect()
}

/// What the group membership says each collective must produce for `me`.
/// The reduce result is only contractual at its root (interior tree nodes
/// keep their accumulated partials), so it comes back as `None` elsewhere.
fn expected(g_ranks: &[usize], me: usize) -> (Vec<f32>, Option<Vec<f32>>, Vec<f32>) {
    let root = g_ranks[0];
    let last = *g_ranks.last().unwrap();
    let sum: Vec<f32> = (0..N)
        .map(|i| g_ranks.iter().map(|&r| payload(r)[i]).sum())
        .collect();
    let bc = payload(root);
    let rd = (me == last).then(|| sum.clone());
    (bc, rd, sum)
}

#[test]
fn axis_collectives_produce_group_correct_values_on_odd_shapes() {
    for dims in SHAPES {
        let results = MeshNd::run(dims, |g| {
            let groups: Vec<Vec<usize>> = (0..g.ndim())
                .map(|a| g.axis_group(a).ranks().to_vec())
                .collect();
            (g.ctx().rank(), groups, exercise_blocking(g))
        });
        for (me, groups, got) in &results {
            for (axis, (bc, rd, ar)) in got.iter().enumerate() {
                let (ebc, erd, ear) = expected(&groups[axis], *me);
                assert_eq!(bc, &ebc, "broadcast, rank {me} axis {axis} of {dims:?}");
                if let Some(erd) = erd {
                    assert_eq!(rd, &erd, "reduce, rank {me} axis {axis} of {dims:?}");
                }
                assert_eq!(ar, &ear, "all-reduce, rank {me} axis {axis} of {dims:?}");
            }
        }
    }
}

#[test]
fn dry_run_logs_are_byte_identical_to_live_for_axis_collectives() {
    for dims in SHAPES {
        let (_, live) = MeshNd::run_with_logs(dims, exercise_blocking);
        let (_, dry) = MeshNd::dry_run_with_logs(dims, exercise_blocking);
        assert_eq!(live.len(), dry.len());
        for (rank, (l, d)) in live.iter().zip(&dry).enumerate() {
            assert_eq!(l.ops, d.ops, "op log, rank {rank} of {dims:?}");
            assert_eq!(l.links, d.links, "link log, rank {rank} of {dims:?}");
        }
    }
}
