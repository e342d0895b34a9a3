//! One placement table, two interpreters: every scheme's parameters are cut
//! by `serial::shard` and put back by `serial::gather` from its lowering's
//! `place` row. These tests hold the table to the layouts the schemes
//! compute on, the gather to the serial gradients, and checkpoints to
//! loading across schemes both ways.

use optimus::megatron::{Megatron1d, MegatronConfig, MegatronModel};
use optimus::mesh::{CommLog, Group, Mesh, Mesh2d, MeshNd};
use optimus::minjson::{self, Json};
use optimus::optimus_core::{OptimusConfig, OptimusModel, Summa2d};
use optimus::serial::{gather, shard, Lowering, ModelConfig, ModelParams, SerialModel};
use optimus::tensor::{assert_close, Rng};
use std::fmt::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};

fn data(cfg: &ModelConfig, seed: u64) -> (Vec<usize>, Vec<usize>) {
    let mut rng = Rng::new(seed);
    let n = cfg.tokens();
    (
        (0..n).map(|_| rng.below(cfg.vocab)).collect(),
        (0..n).map(|_| rng.below(cfg.vocab)).collect(),
    )
}

/// A model every scheme below can run: `q ∈ {2, 3}`, `p ∈ {2, 4}`.
fn shared_cfg() -> ModelConfig {
    ModelConfig {
        batch: 6,
        seq: 4,
        hidden: 24,
        heads: 12,
        vocab: 24,
        layers: 2,
        causal: false,
    }
}

fn optimus_cfg(cfg: &ModelConfig, q: usize) -> OptimusConfig {
    OptimusConfig {
        q,
        batch: cfg.batch,
        seq: cfg.seq,
        hidden: cfg.hidden,
        heads: cfg.heads,
        vocab: cfg.vocab,
        layers: cfg.layers,
        causal: cfg.causal,
        checkpoint: false,
        fused_attention: false,
    }
}

/// Every tensor's bits, in the canonical walk order.
fn bits(p: &ModelParams) -> Vec<u32> {
    let mut out = Vec::new();
    p.clone()
        .walk(p, &mut |_, v| out.extend(v.iter().map(|x| x.to_bits())));
    out
}

/// One device's share of `full` cut by `low`, whose row block is `i` of
/// `rp` and column block `j` of `cp`: asserts that its local Q, K and V
/// columns are the full matrix's columns of the same heads, then returns
/// its parameter count and what gathering the share back yields.
fn place<L: Lowering>(
    low: &L,
    full: &ModelParams,
    cfg: &ModelConfig,
    (i, rp): (usize, usize),
    (j, cp): (usize, usize),
) -> (usize, Option<ModelParams>) {
    let local = shard(low, full, cfg);
    let h = cfg.hidden;
    let (rows, w) = (h / rp, h / cp);
    for (lt, lf) in local.layers.iter().zip(&full.layers) {
        assert_eq!(lt.w_qkv.dims(), &[rows, 3 * w]);
        for (third, c) in (0..3).flat_map(|t| (0..w).map(move |c| (t, c))) {
            let (local_col, full_col) = (third * w + c, third * h + j * w + c);
            for r in 0..rows {
                let want = lf.w_qkv.at(i * rows + r, full_col);
                assert_eq!(lt.w_qkv.at(r, local_col).to_bits(), want.to_bits());
            }
            if let Some(b) = lt.b_qkv.get(local_col) {
                assert_eq!(b.to_bits(), lf.b_qkv[full_col].to_bits());
            }
        }
    }
    (local.num_params(), gather(low, &local.stem()))
}

/// The scalars every Megatron device holds whole: per layer both layer
/// norms and the two contract biases, plus the final layer norm.
fn replicated_vectors(cfg: &ModelConfig) -> usize {
    cfg.layers * 6 * cfg.hidden + 2 * cfg.hidden
}

#[test]
fn every_scheme_cuts_and_gathers_by_its_placement_row() {
    for p in [1usize, 2, 4] {
        let cfg = ModelConfig {
            heads: 4,
            ..ModelConfig::tiny()
        };
        let (full, mcfg) = (ModelParams::init(5, &cfg), MegatronConfig::new(cfg, p));
        let outs = Mesh::run(p, |ctx| {
            let world = Group::world(p);
            let low = Megatron1d {
                ctx,
                world: &world,
                cfg: &mcfg,
            };
            place(&low, &full, &cfg, (0, 1), (ctx.rank(), p))
        });
        let total: usize = outs.iter().map(|o| o.0).sum();
        let want = full.num_params() + (p - 1) * replicated_vectors(&cfg);
        assert_eq!(total, want, "p={p}: replicas counted once per device");
        assert_eq!(bits(outs[0].1.as_ref().unwrap()), bits(&full), "p={p}");
        assert!(outs[1..].iter().all(|o| o.1.is_none()), "p={p}");
    }
    for q in [1usize, 2, 3] {
        let ocfg = OptimusConfig::tiny(q);
        let (cfg, full) = (ocfg.model(), ModelParams::init(5, &ocfg.model()));
        let outs = Mesh2d::run(q, |g| {
            let low = Summa2d {
                grid: g,
                cfg: &ocfg,
            };
            place(&low, &full, &cfg, (g.row(), q), (g.col(), q))
        });
        let total: usize = outs.iter().map(|o| o.0).sum();
        assert_eq!(total, full.num_params(), "q={q}: each scalar held once");
        assert_eq!(bits(outs[0].1.as_ref().unwrap()), bits(&full), "q={q}");
        assert!(outs[1..].iter().all(|o| o.1.is_none()), "q={q}");
    }
}

fn render(logs: &[CommLog]) -> String {
    let mut s = String::new();
    for op in logs.iter().flat_map(|l| &l.ops) {
        let g = (op.group_first, op.group_stride, op.group_size);
        let (rank, name, elems) = (op.rank, op.op.name(), op.elems);
        writeln!(s, "rank {rank} {name} group {g:?} elems {elems}").unwrap();
    }
    s
}

#[test]
fn gather_params_issues_the_pinned_collectives() {
    // Matrices over the mesh, row-0 vectors along mesh row 0, 1D splits
    // over the world, replicas not at all — in the canonical order.
    let cfg = OptimusConfig::tiny(2);
    let (_, two_d) = Mesh2d::run_with_logs(2, |g| OptimusModel::new(&cfg, 5, g).gather_params(g));
    let mcfg = MegatronConfig::new(ModelConfig::tiny(), 2);
    let (_, one_d) =
        Mesh::run_with_logs(2, |ctx| MegatronModel::new(mcfg, 5, ctx).gather_params(ctx));
    let got = format!(
        "# optimus 2x2\n{}# megatron p=2\n{}",
        render(&two_d),
        render(&one_d)
    );
    assert_eq!(got, include_str!("golden/gather_params.txt"));
}

/// Gathers every gradient on each root and compares all `12L + 3` tensors
/// with the serial model's.
fn assert_serial_grads(gathered: &[Option<ModelParams>], want: &ModelParams, what: &str) {
    let roots: Vec<_> = gathered.iter().flatten().collect();
    assert!(!roots.is_empty(), "{what}: no root gathered");
    for got in roots {
        let mut tensors = 0;
        want.clone().walk(got, &mut |w, g| {
            assert_close(g, w, 1e-4, 1e-3);
            tensors += 1;
        });
        assert_eq!(tensors, 12 * want.layers.len() + 3, "{what}");
    }
}

#[test]
fn every_gathered_gradient_is_the_serial_gradient() {
    let cfg = shared_cfg();
    let (tokens, labels) = data(&cfg, 3);
    let (_, want) = SerialModel::new(cfg, 8).lm_grads(&tokens, &labels);
    for grid in [[2, 2, 1], [3, 3, 1], [2, 2, 2]] {
        let ocfg = optimus_cfg(&cfg, grid[0]);
        let gathered = MeshNd::run(&grid, |g| {
            let (_, grads) = OptimusModel::new(&ocfg, 8, g).lm_grads(g, &tokens, &labels);
            gather(
                &Summa2d {
                    grid: g,
                    cfg: &ocfg,
                },
                &grads.stem(),
            )
        });
        assert_serial_grads(&gathered, &want, &format!("optimus {grid:?}"));
    }
    for p in [2usize, 4] {
        let mcfg = MegatronConfig::new(cfg, p);
        let gathered = Mesh::run(p, |ctx| {
            let m = MegatronModel::new(mcfg, 8, ctx);
            let (_, grads) = m.lm_grads(ctx, &tokens, &labels);
            let low = Megatron1d {
                ctx,
                world: &m.world,
                cfg: &mcfg,
            };
            gather(&low, &grads.stem())
        });
        assert_serial_grads(&gathered, &want, &format!("megatron p={p}"));
    }
}

/// `params` through the checkpoint format and back.
fn reload(params: &ModelParams) -> ModelParams {
    let json = minjson::parse(&params.to_json().to_string()).unwrap();
    ModelParams::from_json(&json).unwrap()
}

#[test]
fn checkpoints_load_across_schemes_both_ways() {
    let cfg = shared_cfg();
    let (tokens, labels) = data(&cfg, 4);
    let close = |got: &[f32], want: f32, what: &str| {
        for l in got {
            assert!((l - want).abs() < 1e-4, "{what}: {l} vs {want}");
        }
    };

    // 2D → 1D: train on 2×2, load on Megatron p = 2 and 4.
    let ocfg = optimus_cfg(&cfg, 2);
    let out = Mesh2d::run(2, |g| {
        let mut m = OptimusModel::new(&ocfg, 6, g);
        for _ in 0..2 {
            m.train_step(g, &tokens, &labels, 0.2);
        }
        (m.gather_params(g), m.lm_loss(g, &tokens, &labels))
    });
    let (params, loss) = (reload(out[0].0.as_ref().unwrap()), out[0].1);
    for p in [2usize, 4] {
        let mcfg = MegatronConfig::new(cfg, p);
        let losses = Mesh::run(p, |ctx| {
            MegatronModel::from_params(mcfg, &params, ctx).lm_loss(ctx, &tokens, &labels)
        });
        close(&losses, loss, &format!("2x2 -> megatron p={p}"));
    }

    // 1D → 2D: train on Megatron p = 2, load on 3×3.
    let mcfg = MegatronConfig::new(cfg, 2);
    let out = Mesh::run(2, |ctx| {
        let mut m = MegatronModel::new(mcfg, 6, ctx);
        for _ in 0..2 {
            m.train_step(ctx, &tokens, &labels, 0.2);
        }
        (m.gather_params(ctx), m.lm_loss(ctx, &tokens, &labels))
    });
    let (params, loss) = (reload(out[0].0.as_ref().unwrap()), out[0].1);
    let ocfg = optimus_cfg(&cfg, 3);
    let losses = Mesh2d::run(3, |g| {
        OptimusModel::from_params(&ocfg, &params, g).lm_loss(g, &tokens, &labels)
    });
    close(&losses, loss, "megatron p=2 -> 3x3");
}

/// A checkpoint whose `layers[1].b_fc1` lost its last value in the JSON.
fn truncated_checkpoint(cfg: &ModelConfig) -> ModelParams {
    let mut json = minjson::parse(&ModelParams::init(2, cfg).to_json().to_string()).unwrap();
    let Json::Obj(model) = &mut json else {
        panic!("a checkpoint is an object")
    };
    let Some(Json::Arr(layers)) = model.get_mut("layers") else {
        panic!("with a layer array")
    };
    let Json::Obj(layer) = &mut layers[1] else {
        panic!("of objects")
    };
    let Some(Json::Arr(bias)) = layer.get_mut("b_fc1") else {
        panic!("holding b_fc1")
    };
    bias.pop();
    ModelParams::from_json(&json).unwrap()
}

/// The panic message of `f`, which must panic.
fn panic_message(f: impl FnOnce()) -> String {
    let err = catch_unwind(AssertUnwindSafe(f)).expect_err("must panic");
    let text = err.downcast_ref::<String>().cloned();
    text.or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

#[test]
fn a_truncated_checkpoint_is_rejected_naming_the_tensor() {
    let cfg = shared_cfg();
    let params = truncated_checkpoint(&cfg);
    let ocfg = optimus_cfg(&cfg, 2);
    let messages = Mesh2d::run(2, |g| {
        panic_message(|| drop(OptimusModel::from_params(&ocfg, &params, g)))
    });
    let mcfg = MegatronConfig::new(cfg, 2);
    let messages = messages.into_iter().chain(Mesh::run(2, |ctx| {
        panic_message(|| drop(MegatronModel::from_params(mcfg, &params, ctx)))
    }));
    for m in messages {
        assert!(m.contains("layers[1].b_fc1"), "{m}");
    }
}
