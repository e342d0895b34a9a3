//! The dry-run contract (ISSUE acceptance criterion): replaying a
//! distributed program through the trace-only `DryRunComm` backend must
//! produce communication logs **byte-for-byte identical** to a live
//! `Mesh2d::run_with_logs` execution — same op stream, same link stream,
//! per rank — because every program here is data-independent.

use mesh::{
    packed_len, AlgoRule, AlgoTable, CollAlgo, CollTables, CommLog, CommOp, Communicator, Grid2d,
    Group, Mesh, Mesh2d, MeshRun, WireDtype, WireTable,
};
use optimus_core::{OptimusConfig, OptimusModel};
use tensor::Rng;

fn assert_identical_logs(live: &[CommLog], dry: &[CommLog]) {
    assert_eq!(live.len(), dry.len());
    for (l, d) in live.iter().zip(dry) {
        assert_eq!(l.rank, d.rank);
        assert_eq!(l.ops, d.ops, "op stream diverges at rank {}", l.rank);
        assert_eq!(l.links, d.links, "link stream diverges at rank {}", l.rank);
    }
}

/// One forward + backward step of the full Optimus model on a 4×4 mesh:
/// embedding, q layers of SUMMA attention + MLP, final layer norm, tied LM
/// head, cross-entropy, and the whole backward sweep.
#[test]
fn forward_backward_step_traces_match_live_4x4() {
    let q = 4;
    let cfg = OptimusConfig {
        q,
        batch: q,
        seq: 6,
        hidden: 8 * q,
        heads: q,
        vocab: 4 * q,
        layers: 2,
        causal: true,
        checkpoint: true,
        fused_attention: false,
    };
    let mut rng = Rng::new(11);
    let tokens: Vec<usize> = (0..cfg.batch * cfg.seq)
        .map(|_| rng.below(cfg.vocab))
        .collect();
    let labels: Vec<usize> = (0..cfg.batch * cfg.seq)
        .map(|_| rng.below(cfg.vocab))
        .collect();

    fn step<C: Communicator>(
        g: &Grid2d<C>,
        cfg: &OptimusConfig,
        tokens: &[usize],
        labels: &[usize],
    ) -> f32 {
        let mut m = OptimusModel::new(cfg, 3, g);
        let (loss, _grads) = m.lm_grads(g, tokens, labels);
        loss
    }
    let (_, live) = Mesh2d::run_with_logs(q, |g| step(g, &cfg, &tokens, &labels));
    let (_, dry) = Mesh2d::dry_run_with_logs(q, |g| step(g, &cfg, &tokens, &labels));
    assert_identical_logs(&live, &dry);
    // Sanity: this is a non-trivial trace.
    assert!(
        live[0].ops.len() > 50,
        "only {} ops logged",
        live[0].ops.len()
    );
}

/// The same contract holds for a full training step (gradients + update)
/// without activation checkpointing.
#[test]
fn train_step_traces_match_live() {
    let q = 2;
    let cfg = OptimusConfig {
        q,
        batch: 2 * q,
        seq: 4,
        hidden: 4 * q,
        heads: q,
        vocab: 6 * q,
        layers: 2,
        causal: false,
        checkpoint: false,
        fused_attention: false,
    };
    let mut rng = Rng::new(5);
    let tokens: Vec<usize> = (0..cfg.batch * cfg.seq)
        .map(|_| rng.below(cfg.vocab))
        .collect();
    let labels: Vec<usize> = (0..cfg.batch * cfg.seq)
        .map(|_| rng.below(cfg.vocab))
        .collect();

    let (_, live) = Mesh2d::run_with_logs(q, |g| {
        let mut m = OptimusModel::new(&cfg, 3, g);
        m.train_step(g, &tokens, &labels, 0.1)
    });
    let (_, dry) = Mesh2d::dry_run_with_logs(q, |g| {
        let mut m = OptimusModel::new(&cfg, 3, g);
        m.train_step(g, &tokens, &labels, 0.1)
    });
    assert_identical_logs(&live, &dry);
}

/// Flat-world collectives (the megatron/dp layer's usage pattern) trace
/// identically too, including uneven ring chunking.
#[test]
fn flat_world_traces_match_live() {
    let p = 6;
    fn program<C: Communicator>(ctx: &C) {
        let world = Group::world(6);
        let mut d = vec![0.0f32; 13];
        ctx.all_reduce(&world, &mut d);
        let mut d = vec![0.0f32; 13];
        let _ = ctx.reduce_scatter(&world, &mut d);
        let _ = ctx.all_gather(&world, &[0.0; 5]);
        ctx.barrier(&world);
    }
    let (_, live) = Mesh::run_with_logs(p, program::<mesh::DeviceCtx>);
    let (_, dry) = Mesh::dry_run_with_logs(p, program::<mesh::DryRunComm>);
    assert_identical_logs(&live, &dry);
}

/// Selection belongs to the run: two live meshes with *different* tables,
/// provably in flight at the same time on two threads of this one process,
/// each log their own algorithms and wire dtype — and each still matches
/// the dry run of its own [`MeshRun`].
#[test]
fn concurrent_runs_select_from_their_own_tables() {
    const N: usize = 1024;
    let always = |op, algo| AlgoRule {
        op,
        min_group: 1,
        max_group: usize::MAX,
        min_bytes: 0,
        max_bytes: usize::MAX,
        algo,
    };
    let retuned = CollTables {
        algo: AlgoTable {
            rules: vec![
                always(CommOp::AllReduce, CollAlgo::Halving),
                always(CommOp::Broadcast, CollAlgo::Chain),
            ],
        },
        ..CollTables::default()
    };
    let compressed = CollTables {
        wire: WireTable::all(WireDtype::Bf16),
        ..CollTables::default()
    };
    fn program<C: Communicator>(ctx: &C) {
        let world = Group::world(4);
        let mut d = vec![1.0f32; N];
        ctx.all_reduce(&world, &mut d);
        ctx.broadcast(&world, 0, &mut d);
    }
    // Rank 0 of each mesh meets the other's before its first collective and
    // after its last, so both meshes are up for the whole of both programs.
    let both_up = std::sync::Barrier::new(2);
    let launch = |tables: &CollTables| {
        let run = MeshRun::new(&[4], tables.clone());
        let (_, live) = run.run_with_logs(|g| {
            if g.ctx().rank() == 0 {
                both_up.wait();
            }
            program(g.ctx());
            if g.ctx().rank() == 0 {
                both_up.wait();
            }
        });
        let (_, dry) = run.dry_run_with_logs(|g| program(g.ctx()));
        assert_identical_logs(&live, &dry);
        live
    };
    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(|| launch(&retuned));
        let b = s.spawn(|| launch(&compressed));
        (a.join().unwrap(), b.join().unwrap())
    });
    let algos = |log: &CommLog| log.ops.iter().map(|o| o.algo).collect::<Vec<_>>();
    for (ra, rb) in a.iter().zip(&b) {
        assert_eq!(algos(ra), [CollAlgo::Halving, CollAlgo::Chain]);
        assert_eq!(algos(rb), [CollAlgo::Ring, CollAlgo::Tree]);
        // Halving's first round moves half the payload, full width; every
        // ring hop moves a quarter of it, packed two values to a slot.
        assert_eq!(ra.links[0].elems, N / 2);
        assert_eq!(rb.links[0].elems, packed_len(N / 4, WireDtype::Bf16));
    }
}
