//! Integration tests for the hybrid 3D/4D schedule: the degenerate hybrid
//! step must be *bitwise* the plain `GridNd` step, the dp=2 step must match
//! serial gradient summation to 1e-12, ZeRO-1 must be serial Adam with
//! sharded state, clipping must be the serial clip, mixed specs must replay identically on the dry-run
//! backend, and every configuration the autotuner prices must be a spec the
//! live runtime accepts.

use hybrid::{build, HybridSpec, HybridStage};
use mesh::{CommLog, GridNd, Mesh};
use optimus_core::{OptimusConfig, OptimusModel};
use perf::autotune::{autotune, AutotuneModel};
use perf::HardwareProfile;
use serial::{ModelParams, Optimizer, SerialModel};
use std::fmt::Write;
use tensor::optim::Adam;
use tensor::Rng;

fn data(cfg: &OptimusConfig, seed: u64) -> (Vec<usize>, Vec<usize>) {
    let mut rng = Rng::new(seed);
    let n = cfg.batch * cfg.seq;
    (
        (0..n).map(|_| rng.below(cfg.vocab)).collect(),
        (0..n).map(|_| rng.below(cfg.vocab)).collect(),
    )
}

/// Canonical parameters as one flat stream, for exact comparisons.
fn flatten(p: &ModelParams) -> Vec<f32> {
    let mut out: Vec<f32> = p.embedding.as_slice().to_vec();
    for l in &p.layers {
        out.extend_from_slice(&l.ln1_g);
        out.extend_from_slice(&l.ln1_b);
        out.extend_from_slice(l.w_qkv.as_slice());
        out.extend_from_slice(&l.b_qkv);
        out.extend_from_slice(l.w_out.as_slice());
        out.extend_from_slice(&l.b_out);
        out.extend_from_slice(&l.ln2_g);
        out.extend_from_slice(&l.ln2_b);
        out.extend_from_slice(l.w_fc1.as_slice());
        out.extend_from_slice(&l.b_fc1);
        out.extend_from_slice(l.w_fc2.as_slice());
        out.extend_from_slice(&l.b_fc2);
    }
    out.extend_from_slice(&p.final_ln_g);
    out.extend_from_slice(&p.final_ln_b);
    out
}

/// The degenerate spec `pp=1, dp=1, m=1` must collapse to the existing 2D
/// step *bitwise*: same losses, same updated parameters, over several steps.
/// This holds because `HybridStage::new` and `OptimusModel::new` draw the
/// same pieces of the same `seed` streams (`serial::init`), and the
/// schedule degenerates to exactly the `lm_grads` + SGD op sequence.
#[test]
fn degenerate_hybrid_step_is_bitwise_the_grid_nd_step() {
    let cfg = OptimusConfig::tiny(2);
    let (tokens, labels) = data(&cfg, 21);
    let spec = HybridSpec {
        pp: 1,
        dp: 1,
        grid: [2, 2, 1],
        microbatches: 1,
    };
    spec.validate(&cfg).unwrap();
    let steps = 3;

    let hybrid_out = Mesh::run(spec.devices(), |ctx| {
        let (mut st, grid) = build(ctx, &spec, &cfg, 42);
        let losses: Vec<f32> = (0..steps)
            .map(|_| st.train_step(&grid, &tokens, &labels, 0.1))
            .collect();
        (losses, st.model.gather_params(&grid).map(|p| flatten(&p)))
    });
    let plain_out = Mesh::run(spec.devices(), |ctx| {
        let grid = GridNd::sub_mesh_nd(ctx, &spec.grid, 0);
        let mut model = OptimusModel::new(&cfg, 42, &grid);
        let losses: Vec<f32> = (0..steps)
            .map(|_| model.train_step(&grid, &tokens, &labels, 0.1))
            .collect();
        (losses, model.gather_params(&grid).map(|p| flatten(&p)))
    });

    for ((hl, hp), (pl, p)) in hybrid_out.iter().zip(&plain_out) {
        assert_eq!(hl, pl, "loss trajectories must be bitwise equal");
        assert_eq!(hp.is_some(), p.is_some());
        if let (Some(hp), Some(p)) = (hp, p) {
            assert_eq!(hp.len(), p.len());
            let diffs = hp.iter().zip(p).filter(|(a, b)| a != b).count();
            assert_eq!(diffs, 0, "{diffs} parameter elements differ");
        }
    }
    // Rank 0 is mesh position (0,0) on both worlds and must have gathered.
    assert!(hybrid_out[0].1.is_some() && plain_out[0].1.is_some());
}

/// A dp=2 step must equal serial gradient averaging to 1e-12. Because every
/// microbatch loss is scaled by `1/(global batch · seq)` (the `total_rows`
/// trick), per-replica gradients are *summands* of the average: the dp
/// all-reduce of the live step and a serial f32 add of the two replica
/// gradients perform the identical commutative addition, so the updated
/// parameters agree bitwise — far inside the 1e-12 budget.
#[test]
fn dp2_step_matches_serial_gradient_averaging_to_1e12() {
    let cfg = OptimusConfig {
        q: 1,
        batch: 4,
        ..OptimusConfig::tiny(1)
    };
    let (tokens, labels) = data(&cfg, 33);
    let spec = HybridSpec {
        pp: 1,
        dp: 2,
        grid: [1, 1, 1],
        microbatches: 1,
    };
    spec.validate(&cfg).unwrap();
    let (seed, lr) = (9, 0.2);

    // Live: two replicas, each on a 1-device mesh, dp all-reduce between.
    let live = Mesh::run(spec.devices(), |ctx| {
        let (mut st, grid) = build(ctx, &spec, &cfg, seed);
        let loss = st.train_step(&grid, &tokens, &labels, lr);
        (loss, flatten(&st.model.gather_params(&grid).unwrap()))
    });
    assert_eq!(live[0], live[1], "replicas must agree after the dp sync");

    // Serial reference: run each replica's accumulation phase alone on a
    // single-device world, sum the two scaled gradients, apply SGD once.
    let replica = |r: usize| {
        Mesh::run(1, |ctx| {
            let grid = GridNd::sub_mesh_nd(ctx, &spec.grid, 0);
            let mut st = HybridStage::new(&spec, &cfg, seed, 0, r, &grid);
            st.replica_grads(&grid, &tokens, &labels)
        })
        .pop()
        .unwrap()
    };
    let (l0, mut grads) = replica(0);
    let (l1, other) = replica(1);
    grads.accumulate(&other);
    let reference = Mesh::run(1, |ctx| {
        let grid = GridNd::sub_mesh_nd(ctx, &spec.grid, 0);
        let mut st = HybridStage::new(&spec, &cfg, seed, 0, 0, &grid);
        st.model.apply_sgd(&grads, lr);
        flatten(&st.model.gather_params(&grid).unwrap())
    })
    .pop()
    .unwrap();

    let ref_loss = l0 as f32 + l1 as f32;
    assert!(
        (live[0].0 - ref_loss).abs() <= 1e-12,
        "dp-summed loss {} vs serial sum {}",
        live[0].0,
        ref_loss
    );
    let worst = live[0]
        .1
        .iter()
        .zip(&reference)
        .map(|(a, b)| (a - b).abs() as f64)
        .fold(0.0f64, f64::max);
    assert!(
        worst <= 1e-12,
        "max parameter deviation {worst:e} exceeds 1e-12"
    );
}

/// ZeRO-1 on the hybrid stage is full-state Adam on the global batch: the
/// serial Adam trajectory within 2e-3 and one loss on every device, on a
/// dp × 2D spec, on a pipeline × dp spec, on a pipeline alone, and over
/// three replicas, whose 520-parameter region splits unevenly.
#[test]
fn zero1_matches_serial_adam_on_the_global_batch() {
    let lr = 0.02;
    let specs = [
        (1, 2, 2, 1, 4),
        (2, 2, 1, 2, 4),
        (2, 1, 1, 2, 4),
        (1, 3, 1, 1, 6),
    ];
    for (pp, dp, q, microbatches, batch) in specs {
        let spec = HybridSpec {
            pp,
            dp,
            grid: [q, q, 1],
            microbatches,
        };
        let cfg = OptimusConfig {
            batch,
            ..OptimusConfig::tiny(q)
        };
        let (tokens, labels) = data(&cfg, 3);
        let mut reference = SerialModel::new(cfg.model(), 5);
        let mut ref_opt = Optimizer::Adam(Adam::new(lr));
        let ref_losses: Vec<f32> = (0..4)
            .map(|_| reference.step(&tokens, &labels, &mut ref_opt).0)
            .collect();

        let losses = Mesh::run(spec.devices(), |ctx| {
            let (mut st, grid) = build(ctx, &spec, &cfg, 5);
            let mut opt = Optimizer::Adam(Adam::new(lr));
            (0..4)
                .map(|_| st.step(&grid, &tokens, &labels, &mut opt).0)
                .collect::<Vec<f32>>()
        });
        for dev in &losses {
            assert_eq!(dev, &losses[0], "{spec:?}: losses differ across devices");
            for (a, b) in dev.iter().zip(&ref_losses) {
                assert!((a - b).abs() < 2e-3, "{spec:?}: zero1={a} serial={b}");
            }
        }
    }
}

/// ZeRO-1 shards the Adam moments: with one stage, all devices together
/// hold exactly one f32 pair (8 bytes) per model parameter, and the replicas
/// of each mesh position split theirs evenly — also over three replicas,
/// whose 520-parameter region does not divide into equal blocks.
#[test]
fn zero1_state_bytes_sum_to_eight_per_parameter() {
    for (dp, q, batch) in [(2, 2, 4), (3, 1, 6)] {
        let spec = HybridSpec {
            pp: 1,
            dp,
            grid: [q, q, 1],
            microbatches: 1,
        };
        let cfg = OptimusConfig {
            batch,
            ..OptimusConfig::tiny(q)
        };
        let (tokens, labels) = data(&cfg, 4);
        let bytes = Mesh::run(spec.devices(), |ctx| {
            let (mut st, grid) = build(ctx, &spec, &cfg, 5);
            let mut opt = Optimizer::Adam(Adam::new(0.01));
            st.step(&grid, &tokens, &labels, &mut opt);
            let Optimizer::Adam(opt) = opt else {
                unreachable!()
            };
            opt.state_bytes()
        });
        let total: usize = bytes.iter().sum();
        assert_eq!(total, 8 * cfg.model().total_params(), "dp={dp}");
        for position in 0..spec.mesh_devices() {
            let group = bytes[position..].iter().step_by(spec.mesh_devices());
            let (lo, hi) = (group.clone().min().unwrap(), group.max().unwrap());
            assert!(
                hi - lo <= 8 * (dp - 1),
                "dp={dp}: shard not balanced: {bytes:?}"
            );
        }
    }
}

/// Clipping composes with data parallelism: on `pp 1, dp 2, [2,2,1]` the
/// norm is taken over the dp-summed gradients, so the trajectory and the
/// clip scale track the serial model under the same clip, and every device
/// reports one loss and one scale.
#[test]
fn clipped_dp_step_tracks_the_serial_clip() {
    let spec = HybridSpec {
        pp: 1,
        dp: 2,
        grid: [2, 2, 1],
        microbatches: 1,
    };
    let cfg = OptimusConfig {
        batch: 4,
        ..OptimusConfig::tiny(2)
    };
    let (tokens, labels) = data(&cfg, 9);
    let clipped = || Optimizer::Clipped {
        lr: 0.3,
        max_norm: 0.5,
    };
    let (mut reference, mut ref_opt) = (SerialModel::new(cfg.model(), 6), clipped());
    let ref_out: Vec<(f32, f32)> = (0..4)
        .map(|_| reference.step(&tokens, &labels, &mut ref_opt))
        .collect();
    assert!(
        ref_out.iter().any(|(_, s)| *s < 1.0),
        "the test must exercise actual clipping: {ref_out:?}"
    );

    let runs = Mesh::run(spec.devices(), |ctx| {
        let (mut st, grid) = build(ctx, &spec, &cfg, 6);
        let mut opt = clipped();
        (0..4)
            .map(|_| st.step(&grid, &tokens, &labels, &mut opt))
            .collect::<Vec<(f32, f32)>>()
    });
    for dev in &runs {
        assert_eq!(dev, &runs[0], "loss or clip scale differs across devices");
        for ((l, s), (rl, rs)) in dev.iter().zip(&ref_out) {
            assert!((l - rl).abs() < 2e-3, "loss {l} vs serial {rl}");
            assert!((s - rs).abs() < 1e-4, "clip scale {s} vs serial {rs}");
        }
    }
}

/// A pipeline stage holds only its own layers' gradients, so a global-norm
/// clip over a pipeline is refused by name rather than taken per stage.
#[test]
#[should_panic(expected = "Optimizer::Clipped needs pp = 1")]
fn clipping_a_pipeline_is_refused() {
    let spec = HybridSpec {
        pp: 2,
        dp: 1,
        grid: [1, 1, 1],
        microbatches: 2,
    };
    let cfg = OptimusConfig {
        batch: 4,
        ..OptimusConfig::tiny(1)
    };
    let (tokens, labels) = data(&cfg, 9);
    let clipped = || Optimizer::Clipped {
        lr: 0.1,
        max_norm: 1.0,
    };
    Mesh::dry_run_with_logs(spec.devices(), |c| {
        let (mut st, grid) = build(c, &spec, &cfg, 6);
        st.step(&grid, &tokens, &labels, &mut clipped())
    });
}

/// A full 4D spec — 2 pipeline stages over 2.5D `[2,2,2]` meshes — must emit
/// byte-identical CommLog streams from the live thread mesh and the
/// sequential dry-run backend, and report one global loss everywhere.
#[test]
fn mixed_4d_spec_replays_identically_on_the_dry_run_backend() {
    let cfg = OptimusConfig::tiny(2);
    let (tokens, labels) = data(&cfg, 17);
    let spec = HybridSpec {
        pp: 2,
        dp: 1,
        grid: [2, 2, 2],
        microbatches: 2,
    };
    spec.validate(&cfg).unwrap();

    let (live, live_logs) = Mesh::run_with_logs(spec.devices(), |ctx| {
        let (mut st, grid) = build(ctx, &spec, &cfg, 3);
        st.train_step(&grid, &tokens, &labels, 0.1)
    });
    let (_, dry_logs) = Mesh::dry_run_with_logs(spec.devices(), |c| {
        let (mut st, grid) = build(c, &spec, &cfg, 3);
        st.train_step(&grid, &tokens, &labels, 0.1)
    });

    for l in &live {
        assert_eq!(*l, live[0], "loss must be identical on all 16 devices");
    }
    assert_eq!(live_logs.len(), dry_logs.len());
    for (l, d) in live_logs.iter().zip(&dry_logs) {
        assert_eq!(l.ops, d.ops, "op stream mismatch at rank {}", l.rank);
        assert_eq!(l.links, d.links, "link stream mismatch at rank {}", l.rank);
    }
}

/// Every rank's collectives as (op, group, elems) in order, then its
/// point-to-point sends in order.
fn render(logs: &[CommLog]) -> String {
    let mut s = String::new();
    for log in logs {
        for op in &log.ops {
            let g = (op.group_first, op.group_stride, op.group_size);
            let (rank, name, elems) = (op.rank, op.op.name(), op.elems);
            writeln!(s, "rank {rank} {name} group {g:?} elems {elems}").unwrap();
        }
        for l in log.links.iter().filter(|l| l.op.is_none()) {
            writeln!(s, "rank {} Send to {} elems {}", l.from, l.to, l.elems).unwrap();
        }
    }
    s
}

/// The 1F1B schedule's communication, pinned: a checkpointed
/// `pp=2, dp=2, [2,2,1], microbatches=2` step — SGD, and Adam under ZeRO-1 —
/// issues the collectives and boundary sends of `golden/hybrid_step.txt` in
/// its order, on every rank. Live ≡ dry-run alone would let a rewrite
/// reorder both backends together.
#[test]
fn a_hybrid_step_issues_the_pinned_schedule() {
    let cfg = OptimusConfig {
        batch: 8,
        checkpoint: true,
        ..OptimusConfig::tiny(2)
    };
    let spec = HybridSpec {
        pp: 2,
        dp: 2,
        grid: [2, 2, 1],
        microbatches: 2,
    };
    let (tokens, labels) = data(&cfg, 9);
    let (_, sgd) = Mesh::run_with_logs(spec.devices(), |ctx| {
        let (mut st, grid) = build(ctx, &spec, &cfg, 7);
        st.train_step(&grid, &tokens, &labels, 0.1)
    });
    let (_, zero1) = Mesh::run_with_logs(spec.devices(), |ctx| {
        let (mut st, grid) = build(ctx, &spec, &cfg, 7);
        let mut opt = Optimizer::Adam(Adam::new(0.01));
        st.step(&grid, &tokens, &labels, &mut opt).0
    });
    let got = format!(
        "# train_step\n{}# train_step_zero1\n{}",
        render(&sgd),
        render(&zero1)
    );
    assert!(
        got == include_str!("golden/hybrid_step.txt"),
        "the hybrid step's schedule drifted from tests/golden/hybrid_step.txt"
    );
}

/// Everything the autotuner prices must be runnable: each frontier entry,
/// rebuilt as a `HybridSpec` against the model it was priced for, passes the
/// live runtime's own validation for that world size.
#[test]
fn every_autotune_frontier_entry_is_a_valid_live_spec() {
    let profile = HardwareProfile::frontera_rtx5000();
    let model = AutotuneModel {
        batch: 384,
        seq: 512,
        hidden: 1024,
        heads: 32,
        vocab: 32000,
        layers: 24,
    };
    let devices = 64;
    let result = autotune(&profile, &model, devices, f64::INFINITY);
    assert!(
        !result.frontier.is_empty(),
        "64-device frontier must be non-empty"
    );

    for c in &result.frontier {
        let spec = HybridSpec {
            pp: c.pp,
            dp: c.dp,
            grid: [c.q, c.q, c.d],
            microbatches: c.microbatches,
        };
        let cfg = OptimusConfig {
            q: c.q,
            batch: model.batch,
            seq: model.seq,
            hidden: model.hidden,
            heads: model.heads,
            vocab: model.vocab,
            layers: model.layers,
            causal: true,
            checkpoint: true,
            fused_attention: false,
        };
        spec.validate_for_world(&cfg, devices)
            .unwrap_or_else(|e| panic!("{} priced but rejected live: {e}", c.label()));
    }
}

/// The sub-mesh constructor used by `build` must give every stage-replica
/// mesh its own contiguous rank block (smoke check of the world partition on
/// a 16-device 2×2×[2,2,1] spec, the DESIGN.md worked example).
#[test]
fn sixteen_device_worked_example_partitions_cleanly() {
    let cfg = OptimusConfig {
        batch: 8,
        ..OptimusConfig::tiny(2)
    };
    let spec = HybridSpec {
        pp: 2,
        dp: 2,
        grid: [2, 2, 1],
        microbatches: 2,
    };
    spec.validate(&cfg).unwrap();
    assert_eq!(spec.devices(), 16);

    let positions = Mesh::run(spec.devices(), |ctx| {
        let (st, grid) = build(ctx, &spec, &cfg, 1);
        let _ = &grid;
        (ctx.rank(), st.stage, st.replica, st.mesh_rank)
    });
    for (rank, stage, replica, mesh_rank) in positions {
        assert_eq!(rank, (stage * 2 + replica) * 4 + mesh_rank);
    }
}

/// A pipeline stage updates only the tensors it uses: at `dp = 1` Adam
/// keeps moments for a middle stage's layers alone and for the final layer
/// norm on the last stage only — the rule ZeRO-1's region already follows.
/// `pp 4` at four layers then holds one moment pair per model parameter,
/// plus one for the tied table's copy on the last stage: 1032, where a walk
/// of every held tensor kept 1104.
#[test]
fn stages_keep_adam_moments_only_for_the_tensors_they_use() {
    let spec = HybridSpec {
        pp: 4,
        dp: 1,
        grid: [1, 1, 1],
        microbatches: 1,
    };
    let cfg = OptimusConfig {
        layers: 4,
        ..OptimusConfig::tiny(1)
    };
    let (tokens, labels) = data(&cfg, 6);
    let bytes = Mesh::run(spec.devices(), |ctx| {
        let (mut st, grid) = build(ctx, &spec, &cfg, 5);
        let mut opt = Optimizer::Adam(Adam::new(0.01));
        for _ in 0..2 {
            st.step(&grid, &tokens, &labels, &mut opt);
        }
        let Optimizer::Adam(opt) = opt else {
            unreachable!()
        };
        opt.state_bytes()
    });
    let moments: usize = bytes.iter().sum::<usize>() / 8;
    let table = cfg.vocab * cfg.hidden;
    assert_eq!(moments, cfg.model().total_params() + table);
    assert_eq!(moments, 1032);
}
