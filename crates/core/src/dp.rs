//! Hybrid data-parallel × 2D tensor-parallel training.
//!
//! The paper notes (Section 1) that data-parallel techniques are orthogonal
//! to its model parallelism. This module composes them: `d` replicas, each a
//! `q × q` Optimus sub-mesh, train on disjoint batch shards; after the local
//! backward pass every *hosted* parameter gradient is averaged across the
//! replicas that host the same block (the data-parallel group = the devices
//! with equal mesh position across replicas). The result is numerically
//! identical to one Optimus run — or the serial model — on the full global
//! batch, which the integration tests assert.

use crate::model::OptimusModel;
use mesh::{
    Coll, CollBuf, CollPlan, CommOp, Communicator, ErrorFeedback, Grid2d, Group, WireDtype,
};

/// Computes this device's role in a `d × (q × q)` hybrid layout over a world
/// of `d·q²` devices: its replica's sub-mesh grid, its data-parallel group
/// (same mesh position across replicas) and its replica index.
pub fn hybrid_layout<C: Communicator>(
    ctx: &C,
    dp: usize,
    q: usize,
) -> (Grid2d<'_, C>, Group, usize) {
    let p = q * q;
    assert_eq!(
        ctx.world_size(),
        dp * p,
        "world must be dp * q^2 = {}",
        dp * p
    );
    let replica = ctx.rank() / p;
    let position = ctx.rank() % p;
    let grid = Grid2d::sub_mesh(ctx, q, replica * p);
    let dp_group = Group::new((0..dp).map(|r| r * p + position).collect());
    (grid, dp_group, replica)
}

/// One hybrid training step over the **global** batch
/// (`dp · cfg.batch` sequences; `tokens`/`labels` have `dp·b·s` entries).
///
/// Each replica computes gradients on its shard, gradients are averaged
/// across the data-parallel group (ring all-reduce, the standard DP
/// pattern), and the update is applied locally. Returns the global mean
/// loss, identical on every device.
pub fn hybrid_train_step<C: Communicator>(
    model: &mut OptimusModel,
    grid: &Grid2d<C>,
    dp_group: &Group,
    replica: usize,
    tokens: &[usize],
    labels: &[usize],
    lr: f32,
) -> f32 {
    let cfg = model.cfg;
    let shard = cfg.batch * cfg.seq;
    let dp = dp_group.len();
    assert_eq!(tokens.len(), dp * shard, "expected the global token array");
    assert_eq!(labels.len(), dp * shard, "expected the global label array");

    let my_tokens = &tokens[replica * shard..(replica + 1) * shard];
    let my_labels = &labels[replica * shard..(replica + 1) * shard];
    let (local_loss, mut grads) = model.lm_grads(grid, my_tokens, my_labels);

    // Average gradients and the reported loss across replicas.
    let scale = 1.0 / dp as f32;
    grads.walk_mut(&mut |g| {
        grid.ctx().all_reduce(dp_group, g);
        for v in g.iter_mut() {
            *v *= scale;
        }
    });
    let mut loss = vec![local_loss * scale];
    grid.ctx().all_reduce(dp_group, &mut loss);

    model.apply_sgd(&grads, lr);
    loss[0]
}

/// [`hybrid_train_step`] with the gradient all-reduce traveling at an
/// explicit wire dtype under **error feedback** (Seide et al.; Karimireddy
/// et al.): each step sends the quantized `Q(g_t + e_{t-1})` and carries the
/// quantization error `e_t = (g_t + e_{t-1}) − Q(g_t + e_{t-1})` into the
/// next step instead of losing it, which restores SGD convergence under
/// biased compressors like bf16 rounding.
///
/// `ef` must be one [`ErrorFeedback`] per device, reused across steps — the
/// residual state *is* the algorithm. With `wire = WireDtype::F32` the
/// quantizer is the identity, the residual stays zero, and the step is
/// bitwise identical to [`hybrid_train_step`]. The loss all-reduce always
/// travels full-width (4 bytes of scalar is not worth a residual).
#[allow(clippy::too_many_arguments)]
pub fn hybrid_train_step_ef<C: Communicator>(
    model: &mut OptimusModel,
    grid: &Grid2d<C>,
    dp_group: &Group,
    replica: usize,
    tokens: &[usize],
    labels: &[usize],
    lr: f32,
    wire: WireDtype,
    ef: &mut ErrorFeedback,
) -> f32 {
    let cfg = model.cfg;
    let shard = cfg.batch * cfg.seq;
    let dp = dp_group.len();
    assert_eq!(tokens.len(), dp * shard, "expected the global token array");
    assert_eq!(labels.len(), dp * shard, "expected the global label array");

    let my_tokens = &tokens[replica * shard..(replica + 1) * shard];
    let my_labels = &labels[replica * shard..(replica + 1) * shard];
    let (local_loss, mut grads) = model.lm_grads(grid, my_tokens, my_labels);

    let scale = 1.0 / dp as f32;
    ef.begin_step();
    grads.walk_mut(&mut |g| {
        ef.apply(g, wire);
        let ctx = grid.ctx();
        let plan = CollPlan {
            wire,
            ..ctx.plan(CommOp::AllReduce, dp, g.len())
        };
        ctx.collective(Coll::AllReduce, dp_group, CollBuf::Now(g), plan);
        for v in g.iter_mut() {
            *v *= scale;
        }
    });
    let mut loss = vec![local_loss * scale];
    grid.ctx().all_reduce(dp_group, &mut loss);

    model.apply_sgd(&grads, lr);
    loss[0]
}

/// Start of data-parallel shard `i` when splitting `n` elements across `d`
/// replicas (same convention as the ring collectives).
fn shard_start(n: usize, d: usize, i: usize) -> usize {
    n * i / d
}

/// One hybrid training step with **ZeRO stage-1 optimizer-state sharding**
/// (Rajbhandari et al., cited by the paper as an orthogonal technique).
///
/// Instead of every replica holding full Adam moments, replica `r` owns the
/// moments — and performs the update — for shard `r` of each parameter:
/// gradients are reduce-scattered across the DP group, each replica Adam-
/// updates its shard, and the fresh shards are broadcast back. Optimizer
/// memory per replica drops by `d×` while the math stays identical to
/// full-state data-parallel Adam (asserted by tests).
pub fn hybrid_train_step_zero1<C: Communicator>(
    model: &mut OptimusModel,
    grid: &Grid2d<C>,
    dp_group: &Group,
    replica: usize,
    tokens: &[usize],
    labels: &[usize],
    opt: &mut tensor::optim::AdamSet,
) -> f32 {
    let cfg = model.cfg;
    let shard = cfg.batch * cfg.seq;
    let d = dp_group.len();
    assert_eq!(tokens.len(), d * shard, "expected the global token array");
    assert_eq!(labels.len(), d * shard, "expected the global label array");

    let my_tokens = &tokens[replica * shard..(replica + 1) * shard];
    let my_labels = &labels[replica * shard..(replica + 1) * shard];
    let (local_loss, grads) = model.lm_grads(grid, my_tokens, my_labels);

    let ctx = grid.ctx();
    let scale = 1.0 / d as f32;
    opt.begin_step();
    model.visit_params_grads(&grads, &mut |param, grad| {
        let n = param.len();
        // Reduce-scatter the gradient: replica r ends with the summed shard r.
        let mut g = grad.to_vec();
        let mut my_shard = ctx.reduce_scatter(dp_group, &mut g);
        for v in &mut my_shard {
            *v *= scale;
        }
        // Adam-update only the owned shard (sharded optimizer state).
        let (s0, s1) = (shard_start(n, d, replica), shard_start(n, d, replica + 1));
        opt.apply(&mut param[s0..s1], &my_shard);
        // Redistribute the fresh shards (the ZeRO all-gather).
        for r in 0..d {
            let (r0, r1) = (shard_start(n, d, r), shard_start(n, d, r + 1));
            let mut buf = if r == replica {
                param[r0..r1].to_vec()
            } else {
                // Pre-sized so the trace backend knows the payload length.
                vec![0.0; r1 - r0]
            };
            ctx.broadcast(dp_group, r, &mut buf);
            param[r0..r1].copy_from_slice(&buf);
        }
    });

    let mut loss = vec![local_loss * scale];
    ctx.all_reduce(dp_group, &mut loss);
    loss[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OptimusConfig;
    use mesh::Mesh;
    use serial::{ModelConfig, SerialModel};
    use tensor::Rng;

    fn tp_cfg(per_replica_batch: usize) -> OptimusConfig {
        OptimusConfig {
            q: 2,
            batch: per_replica_batch,
            seq: 4,
            hidden: 8,
            heads: 2,
            vocab: 16,
            layers: 2,
            causal: false,
            checkpoint: false,
            fused_attention: false,
        }
    }

    fn data(n: usize, vocab: usize, seed: u64) -> (Vec<usize>, Vec<usize>) {
        let mut rng = Rng::new(seed);
        (
            (0..n).map(|_| rng.below(vocab)).collect(),
            (0..n).map(|_| rng.below(vocab)).collect(),
        )
    }

    #[test]
    fn layout_partitions_the_world() {
        let (dp, q) = (2usize, 2usize);
        let out = Mesh::run(dp * q * q, |ctx| {
            let (grid, dp_group, replica) = hybrid_layout(ctx, dp, q);
            (replica, grid.row(), grid.col(), dp_group.ranks().to_vec())
        });
        // Rank 5 = replica 1, local position 1 -> row 0, col 1; its DP
        // group pairs it with rank 1.
        assert_eq!(out[5], (1, 0, 1, vec![1, 5]));
        assert_eq!(out[0], (0, 0, 0, vec![0, 4]));
    }

    #[test]
    fn hybrid_matches_serial_on_the_global_batch() {
        let (dp, q) = (2usize, 2usize);
        let per_replica = 2;
        let cfg = tp_cfg(per_replica);
        let global_batch = dp * per_replica;
        let (tokens, labels) = data(global_batch * cfg.seq, cfg.vocab, 1);

        // Serial reference on the *global* batch.
        let serial_cfg = ModelConfig {
            batch: global_batch,
            seq: cfg.seq,
            hidden: cfg.hidden,
            heads: cfg.heads,
            vocab: cfg.vocab,
            layers: cfg.layers,
            causal: false,
        };
        let mut reference = SerialModel::new(serial_cfg, 5);
        let ref_losses: Vec<f32> = (0..4)
            .map(|_| reference.train_step(&tokens, &labels, 0.2))
            .collect();

        let losses = Mesh::run(dp * q * q, |ctx| {
            let (grid, dp_group, replica) = hybrid_layout(ctx, dp, q);
            let mut model = OptimusModel::new(&cfg, 5, &grid);
            (0..4)
                .map(|_| {
                    hybrid_train_step(&mut model, &grid, &dp_group, replica, &tokens, &labels, 0.2)
                })
                .collect::<Vec<f32>>()
        });
        for dev in &losses {
            for (a, b) in dev.iter().zip(&ref_losses) {
                assert!((a - b).abs() < 2e-3, "hybrid={a} serial={b}");
            }
        }
    }

    #[test]
    fn zero1_matches_serial_adam_on_the_global_batch() {
        let (dp, q) = (2usize, 2usize);
        let per_replica = 2;
        let cfg = tp_cfg(per_replica);
        let global_batch = dp * per_replica;
        let (tokens, labels) = data(global_batch * cfg.seq, cfg.vocab, 3);
        let lr = 0.02;

        let serial_cfg = ModelConfig {
            batch: global_batch,
            seq: cfg.seq,
            hidden: cfg.hidden,
            heads: cfg.heads,
            vocab: cfg.vocab,
            layers: cfg.layers,
            causal: false,
        };
        let mut reference = SerialModel::new(serial_cfg, 5);
        let mut ref_opt = tensor::optim::AdamSet::new(lr);
        let ref_losses: Vec<f32> = (0..4)
            .map(|_| reference.train_step_adam(&tokens, &labels, &mut ref_opt))
            .collect();

        let losses = Mesh::run(dp * q * q, |ctx| {
            let (grid, dp_group, replica) = hybrid_layout(ctx, dp, q);
            let mut model = OptimusModel::new(&cfg, 5, &grid);
            let mut opt = tensor::optim::AdamSet::new(lr);
            (0..4)
                .map(|_| {
                    hybrid_train_step_zero1(
                        &mut model, &grid, &dp_group, replica, &tokens, &labels, &mut opt,
                    )
                })
                .collect::<Vec<f32>>()
        });
        for dev in &losses {
            for (a, b) in dev.iter().zip(&ref_losses) {
                assert!((a - b).abs() < 2e-3, "zero1={a} serial={b}");
            }
        }
    }

    #[test]
    fn zero1_shards_the_optimizer_state() {
        let (dp, q) = (2usize, 2usize);
        let cfg = tp_cfg(2);
        let (tokens, labels) = data(dp * cfg.batch * cfg.seq, cfg.vocab, 4);
        let bytes = Mesh::run(dp * q * q, |ctx| {
            let (grid, dp_group, replica) = hybrid_layout(ctx, dp, q);
            let mut model = OptimusModel::new(&cfg, 5, &grid);
            let mut opt = tensor::optim::AdamSet::new(0.01);
            hybrid_train_step_zero1(
                &mut model, &grid, &dp_group, replica, &tokens, &labels, &mut opt,
            );
            opt.state_bytes()
        });
        // All replicas' shards together hold exactly 8 bytes per global
        // parameter — d x less per replica than full-state DP-Adam.
        let total: usize = bytes.iter().sum();
        let model_cfg = cfg.model();
        assert_eq!(total, model_cfg.total_params() * 8);
        // And each DP pair splits its blocks roughly in half.
        let pair_total = bytes[0] + bytes[q * q];
        assert!(
            bytes[0] < pair_total * 6 / 10,
            "shard not balanced: {bytes:?}"
        );
    }

    #[test]
    fn ef_step_at_f32_is_bitwise_identical_to_plain_hybrid() {
        let (dp, q) = (2usize, 2usize);
        let cfg = tp_cfg(2);
        let (tokens, labels) = data(dp * cfg.batch * cfg.seq, cfg.vocab, 6);
        let run = |ef_path: bool| {
            Mesh::run(dp * q * q, |ctx| {
                let (grid, dp_group, replica) = hybrid_layout(ctx, dp, q);
                let mut model = OptimusModel::new(&cfg, 9, &grid);
                let mut ef = mesh::ErrorFeedback::new();
                let losses: Vec<f32> = (0..3)
                    .map(|_| {
                        if ef_path {
                            hybrid_train_step_ef(
                                &mut model,
                                &grid,
                                &dp_group,
                                replica,
                                &tokens,
                                &labels,
                                0.1,
                                mesh::WireDtype::F32,
                                &mut ef,
                            )
                        } else {
                            hybrid_train_step(
                                &mut model, &grid, &dp_group, replica, &tokens, &labels, 0.1,
                            )
                        }
                    })
                    .collect();
                (losses, model.table)
            })
        };
        let plain = run(false);
        let ef = run(true);
        for (rank, ((pl, pt), (el, et))) in plain.iter().zip(&ef).enumerate() {
            assert_eq!(pl, el, "losses diverged on rank {rank}");
            assert_eq!(
                pt.as_slice(),
                et.as_slice(),
                "parameters diverged on rank {rank}"
            );
        }
    }

    #[test]
    fn ef_bf16_gradient_sync_tracks_the_f32_loss_curve() {
        // Error feedback carries bf16 rounding error forward, so training
        // loss must track the full-width run closely (documented tolerance:
        // bf16 keeps 8 mantissa bits -> per-step gradient error <= 2^-8
        // relative; over a few steps the loss gap stays within 2e-2).
        let (dp, q) = (2usize, 2usize);
        let cfg = tp_cfg(2);
        let (tokens, labels) = data(dp * cfg.batch * cfg.seq, cfg.vocab, 8);
        let run = |wire: mesh::WireDtype| {
            Mesh::run(dp * q * q, |ctx| {
                let (grid, dp_group, replica) = hybrid_layout(ctx, dp, q);
                let mut model = OptimusModel::new(&cfg, 11, &grid);
                let mut ef = mesh::ErrorFeedback::new();
                (0..6)
                    .map(|_| {
                        hybrid_train_step_ef(
                            &mut model, &grid, &dp_group, replica, &tokens, &labels, 0.1, wire,
                            &mut ef,
                        )
                    })
                    .collect::<Vec<f32>>()
            })
        };
        let full = run(mesh::WireDtype::F32);
        let half = run(mesh::WireDtype::Bf16);
        for (a, b) in full[0].iter().zip(&half[0]) {
            assert!((a - b).abs() < 2e-2, "f32={a} bf16+ef={b}");
        }
        // Both runs must actually learn.
        assert!(half[0].last().unwrap() < &(half[0][0] - 1e-3));
    }

    #[test]
    fn replicas_stay_in_sync() {
        let (dp, q) = (2usize, 2usize);
        let cfg = tp_cfg(2);
        let (tokens, labels) = data(dp * cfg.batch * cfg.seq, cfg.vocab, 2);
        let tables = Mesh::run(dp * q * q, |ctx| {
            let (grid, dp_group, replica) = hybrid_layout(ctx, dp, q);
            let mut model = OptimusModel::new(&cfg, 7, &grid);
            for _ in 0..3 {
                hybrid_train_step(&mut model, &grid, &dp_group, replica, &tokens, &labels, 0.1);
            }
            model.table
        });
        // Same mesh position across replicas -> identical parameter blocks.
        for pos in 0..q * q {
            assert_eq!(
                tables[pos].as_slice(),
                tables[q * q + pos].as_slice(),
                "position {pos} diverged across replicas"
            );
        }
    }
}
