//! The top layer's forward is its own recompute. A sweep whose backward
//! comes straight after its forward keeps the top layer's full cache, with
//! the panels its projections received, so a checkpointed step re-runs only
//! the `L − 1` layers below it. That holds for the single-stage models
//! (Optimus and Megatron, whether the step updates each gradient as soon as
//! it is complete or collects them first) and for the last pipeline stage,
//! where 1F1B runs a microbatch's backward right after its forward; the
//! other stages still re-run every layer.
//!
//! The kept cache is the one a recompute would rebuild from the same input,
//! so none of this may move a bit: checkpointed training equals cached
//! training bitwise, and with one layer the two send the same messages.

use optimus::hybrid::{build, HybridSpec};
use optimus::megatron::{MegatronConfig, MegatronModel};
use optimus::mesh::{CommLog, Communicator, Mesh, MeshNd};
use optimus::optimus_core::{OptimusConfig, OptimusModel};
use optimus::serial::{ModelConfig, Optimizer, SerialModel};
use optimus::tensor::Rng;
use optimus::trace::{DeviceTrace, Event};

fn data(n: usize, vocab: usize, seed: u64) -> (Vec<usize>, Vec<usize>) {
    let mut rng = Rng::new(seed);
    (
        (0..n).map(|_| rng.below(vocab)).collect(),
        (0..n).map(|_| rng.below(vocab)).collect(),
    )
}

fn bits(v: &[f32]) -> impl Iterator<Item = u32> + '_ {
    v.iter().map(|x| x.to_bits())
}

fn optimus_cfg(q: usize, layers: usize, checkpoint: bool) -> OptimusConfig {
    OptimusConfig {
        layers,
        checkpoint,
        ..OptimusConfig::tiny(q)
    }
}

fn megatron_cfg(p: usize, layers: usize, checkpoint: bool) -> MegatronConfig {
    let model = ModelConfig {
        batch: 4,
        seq: 8,
        hidden: 16,
        heads: 4,
        vocab: 32,
        layers,
        causal: true,
    };
    MegatronConfig {
        checkpoint,
        ..MegatronConfig::new(model, p)
    }
}

fn hybrid_spec() -> HybridSpec {
    HybridSpec {
        pp: 2,
        dp: 2,
        grid: [2, 2, 1],
        microbatches: 2,
    }
}

fn hybrid_cfg(layers: usize, checkpoint: bool) -> OptimusConfig {
    OptimusConfig {
        batch: 8,
        ..optimus_cfg(2, layers, checkpoint)
    }
}

/// Layer forwards each device ran: the forward sweep's plus the recomputes.
fn layer_forwards(traces: &[DeviceTrace], name: &str) -> Vec<usize> {
    traces
        .iter()
        .map(|t| {
            let enters = t.events.iter().filter(|ev| match ev {
                Event::Enter { name: n, .. } => *n == name,
                _ => false,
            });
            enters.count()
        })
        .collect()
}

fn free(_: &optimus::trace::OpMeta) -> u64 {
    0
}

/// Layers each device re-ran in one dry-run Optimus training step.
fn optimus_recomputes(cfg: &OptimusConfig) -> Vec<usize> {
    let (tokens, labels) = data(cfg.batch * cfg.seq, cfg.vocab, 1);
    let (_, _, traces) = MeshNd::dry_run_traced(&[cfg.q, cfg.q], free, |g| {
        OptimusModel::new(cfg, 3, g).train_step(g, &tokens, &labels, 0.1)
    });
    let forwards = layer_forwards(&traces, "fwd.layer2d");
    forwards.into_iter().map(|n| n - cfg.layers).collect()
}

/// Layers each device re-ran in one dry-run Megatron training step.
fn megatron_recomputes(cfg: MegatronConfig) -> Vec<usize> {
    let (tokens, labels) = data(cfg.model.tokens(), cfg.model.vocab, 1);
    let (_, _, traces) = Mesh::dry_run_traced(cfg.p, free, |ctx| {
        MegatronModel::new(cfg, 3, ctx).train_step(ctx, &tokens, &labels, 0.1)
    });
    let forwards = layer_forwards(&traces, "fwd.layer1d");
    forwards.into_iter().map(|n| n - cfg.model.layers).collect()
}

/// Layers each device of each pipeline stage re-ran, per microbatch, in
/// one dry-run hybrid training step: `(stage, recomputes)` by rank.
fn hybrid_recomputes(spec: &HybridSpec, cfg: &OptimusConfig) -> Vec<(usize, usize)> {
    let (tokens, labels) = data(cfg.batch * cfg.seq, cfg.vocab, 1);
    let (stages, _, traces) = Mesh::dry_run_traced(spec.devices(), free, |ctx| {
        let (mut st, grid) = build(ctx, spec, cfg, 3);
        st.train_step(&grid, &tokens, &labels, 0.1);
        spec.position(ctx.rank()).0
    });
    let per_stage = spec.layers_per_stage(cfg);
    let forwards = layer_forwards(&traces, "fwd.layer2d");
    stages
        .into_iter()
        .zip(forwards)
        .map(|(stage, n)| (stage, n / spec.microbatches - per_stage))
        .collect()
}

#[test]
fn a_checkpointed_step_recomputes_every_layer_but_the_top_one() {
    for layers in [1, 2, 3] {
        let got = optimus_recomputes(&optimus_cfg(2, layers, true));
        assert!(
            got.iter().all(|&r| r == layers - 1),
            "Optimus L={layers}: {got:?}"
        );
        let got = megatron_recomputes(megatron_cfg(2, layers, true));
        assert!(
            got.iter().all(|&r| r == layers - 1),
            "Megatron L={layers}: {got:?}"
        );
        // Without checkpointing nothing is recomputed.
        let got = optimus_recomputes(&optimus_cfg(2, layers, false));
        assert!(
            got.iter().all(|&r| r == 0),
            "cached Optimus L={layers}: {got:?}"
        );
    }

    // The last stage runs each microbatch's backward right after its
    // forward and skips the top layer's recompute; the first stage runs
    // other forwards in between and re-runs all of its layers.
    let spec = hybrid_spec();
    for layers in [2, 4] {
        let per_stage = layers / spec.pp;
        for (stage, r) in hybrid_recomputes(&spec, &hybrid_cfg(layers, true)) {
            let want = if stage + 1 == spec.pp {
                per_stage - 1
            } else {
                per_stage
            };
            assert_eq!(r, want, "hybrid L={layers} stage {stage}");
        }
    }
}

fn same_log(a: &CommLog, b: &CommLog) -> bool {
    a.ops == b.ops && a.links == b.links
}

#[test]
fn with_one_layer_checkpointed_and_cached_steps_send_the_same_messages() {
    for q in [2usize, 3] {
        let logs = |checkpoint: bool| {
            let cfg = optimus_cfg(q, 1, checkpoint);
            let (tokens, labels) = data(cfg.batch * cfg.seq, cfg.vocab, 2);
            MeshNd::dry_run_with_logs(&[q, q], |g| {
                OptimusModel::new(&cfg, 3, g).train_step(g, &tokens, &labels, 0.1)
            })
            .1
        };
        let (ckpt, cached) = (logs(true), logs(false));
        assert_eq!(ckpt.len(), cached.len());
        for (rank, (c, p)) in ckpt.iter().zip(&cached).enumerate() {
            assert!(same_log(c, p), "Optimus q={q}: rank {rank} logs differ");
        }
    }
    let logs = |checkpoint: bool| {
        let cfg = megatron_cfg(4, 1, checkpoint);
        let (tokens, labels) = data(cfg.model.tokens(), cfg.model.vocab, 2);
        Mesh::dry_run_with_logs(4, |ctx| {
            MegatronModel::new(cfg, 3, ctx).train_step(ctx, &tokens, &labels, 0.1)
        })
        .1
    };
    for (rank, (c, p)) in logs(true).iter().zip(&logs(false)).enumerate() {
        assert!(same_log(c, p), "Megatron: rank {rank} logs differ");
    }
}

/// Per device: the loss bits of three SGD steps, then every parameter bit.
type Run = Vec<(Vec<u32>, Vec<u32>)>;

fn megatron_params(m: &MegatronModel) -> Vec<u32> {
    let mut params: Vec<u32> = bits(m.table.as_slice()).collect();
    params.extend(bits(&m.final_ln_g).chain(bits(&m.final_ln_b)));
    for layer in &m.layers {
        layer.clone().walk_mut(&mut |p| params.extend(bits(p)));
    }
    params
}

fn megatron_run(cfg: MegatronConfig) -> Run {
    let (tokens, labels) = data(cfg.model.tokens(), cfg.model.vocab, 4);
    Mesh::run(cfg.p, |ctx| {
        let mut m = MegatronModel::new(cfg, 7, ctx);
        let losses = (0..3)
            .map(|_| m.train_step(ctx, &tokens, &labels, 0.2).to_bits())
            .collect();
        (losses, megatron_params(&m))
    })
}

fn assert_same(a: &Run, b: &Run, what: &str) {
    assert_eq!(a.len(), b.len());
    for (rank, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.0, y.0, "{what}: losses diverge on rank {rank}");
        assert_eq!(x.1, y.1, "{what}: parameters diverge on rank {rank}");
    }
}

#[test]
fn checkpointed_megatron_training_is_bitwise_cached_training() {
    for p in [2usize, 4] {
        let ckpt = megatron_run(megatron_cfg(p, 3, true));
        let cached = megatron_run(megatron_cfg(p, 3, false));
        assert_same(&ckpt, &cached, &format!("Megatron p={p}"));
    }
}

fn optimus_params(m: &OptimusModel) -> Vec<u32> {
    let mut out: Vec<u32> = bits(m.table.as_slice()).collect();
    for v in [&m.final_ln_g, &m.final_ln_b] {
        out.extend(bits(v));
    }
    for layer in &m.layers {
        layer.clone().walk_mut(&mut |p| out.extend(bits(p)));
    }
    out
}

/// Clipping at an infinite norm scales by exactly 1, but it collects every
/// gradient before it updates; plain SGD updates each one as soon as it is
/// complete.
fn collecting(lr: f32) -> Optimizer {
    Optimizer::Clipped {
        lr,
        max_norm: f64::INFINITY,
    }
}

/// Three steps under `opt`: the loss bits, then every parameter bit.
fn steps(opt: &Optimizer, mut step: impl FnMut(&mut Optimizer) -> f32) -> Vec<u32> {
    let mut opt = opt.clone();
    (0..3).map(|_| step(&mut opt).to_bits()).collect()
}

#[test]
fn the_fused_immediate_update_step_is_bitwise_cached_training() {
    // The immediate update, checkpointed or not, against cached training
    // that collects its gradients.
    for q in [2usize, 3] {
        let cached = optimus_cfg(q, 3, false);
        let (tokens, labels) = data(cached.batch * cached.seq, cached.vocab, 8);
        let run = |checkpoint: bool, opt: &Optimizer| -> Run {
            MeshNd::run(&[q, q], |g| {
                let mut m = OptimusModel::new(&optimus_cfg(q, 3, checkpoint), 5, g);
                let losses = steps(opt, |o| m.step(g, &tokens, &labels, o).0);
                (losses, optimus_params(&m))
            })
        };
        let reference = run(false, &collecting(0.2));
        for checkpoint in [true, false] {
            let what = format!("immediate q={q} checkpoint={checkpoint}");
            assert_same(
                &run(checkpoint, &Optimizer::Sgd { lr: 0.2 }),
                &reference,
                &what,
            );
        }
    }

    let cfg = megatron_cfg(2, 3, false);
    let (tokens, labels) = data(cfg.model.tokens(), cfg.model.vocab, 8);
    let run = |checkpoint: bool, opt: &Optimizer| -> Run {
        Mesh::run(cfg.p, |ctx| {
            let mut m = MegatronModel::new(megatron_cfg(2, 3, checkpoint), 5, ctx);
            let losses = steps(opt, |o| m.step(ctx, &tokens, &labels, o).0);
            (losses, megatron_params(&m))
        })
    };
    let reference = run(false, &collecting(0.2));
    for checkpoint in [true, false] {
        let what = format!("immediate Megatron p=2 checkpoint={checkpoint}");
        assert_same(
            &run(checkpoint, &Optimizer::Sgd { lr: 0.2 }),
            &reference,
            &what,
        );
    }

    let run = |opt: &Optimizer| -> Run {
        let mut m = SerialModel::new(cfg.model, 5);
        let losses = steps(opt, |o| m.step(&tokens, &labels, o).0);
        let p = &m.params;
        let mut params: Vec<u32> = bits(p.embedding.as_slice()).collect();
        params.extend(bits(&p.final_ln_g).chain(bits(&p.final_ln_b)));
        for layer in &p.layers {
            layer.clone().walk_mut(&mut |x| params.extend(bits(x)));
        }
        vec![(losses, params)]
    };
    let immediate = run(&Optimizer::Sgd { lr: 0.2 });
    assert_same(&immediate, &run(&collecting(0.2)), "immediate serial");
}
