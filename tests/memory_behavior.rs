//! Runtime memory behaviour of the executed simulation: the mechanisms
//! behind Figure 9 and the Section 3.2.3 buffer techniques, observed rather
//! than modelled.

use optimus::mesh::{Mesh2d, MeshNd};
use optimus::optimus_core::{layer2d_forward, OptimusConfig, OptimusModel, Summa2d};
use optimus::serial::{ln_forward, stem, Lowering};
use optimus::summa::{distribute, summa_nn_into, summa_nt_into, summa_tn_into, Workspace};
use optimus::tensor::gemm::Form;
use optimus::tensor::{Rng, Tensor};

fn cfg(layers: usize, checkpoint: bool) -> OptimusConfig {
    OptimusConfig {
        q: 2,
        batch: 4,
        seq: 8,
        hidden: 16,
        heads: 4,
        vocab: 32,
        layers,
        causal: false,
        checkpoint,
        fused_attention: false,
    }
}

fn data(c: &OptimusConfig, seed: u64) -> (Vec<usize>, Vec<usize>) {
    let mut rng = Rng::new(seed);
    let n = c.batch * c.seq;
    (
        (0..n).map(|_| rng.below(c.vocab)).collect(),
        (0..n).map(|_| rng.below(c.vocab)).collect(),
    )
}

fn peak(c: &OptimusConfig, tokens: &[usize], labels: &[usize]) -> usize {
    Mesh2d::run(c.q, |g| {
        let mut m = OptimusModel::new(c, 3, g);
        m.train_step_detailed(g, tokens, labels, 0.1)
            .peak_activation_bytes
    })[0]
}

#[test]
fn peak_memory_grows_linearly_without_checkpointing() {
    // Without checkpointing, peak activations scale with depth; with it,
    // they are dominated by one layer plus the per-layer checkpoints.
    let c2 = cfg(2, false);
    let (tokens, labels) = data(&c2, 1);
    let p2 = peak(&c2, &tokens, &labels);
    let p8 = peak(&cfg(8, false), &tokens, &labels);
    let ratio = p8 as f64 / p2 as f64;
    assert!(
        (2.5..4.5).contains(&ratio),
        "8 vs 2 layers should scale ~4x without checkpointing, got {ratio}"
    );
}

#[test]
fn non_checkpointed_peak_is_the_caches_and_the_head_exactly() {
    // Without checkpointing nothing reads a layer's input again, so the
    // step pins the one activation block in flight, every layer cache, the
    // final hidden block and the logits — and not one byte more.
    let c = cfg(3, false);
    let (tokens, labels) = data(&c, 7);
    let peaks = Mesh2d::run(c.q, |g| {
        let mut m = OptimusModel::new(&c, 3, g);
        let low = Summa2d { grid: g, cfg: &c };
        let mut x = low.embed(&m.table, c.local_tokens(&tokens, g.row()));
        let mut want = x.len() * 4;
        for lp in &m.layers {
            let (y, cache) = layer2d_forward(g, &c, lp, &x);
            want += cache.bytes();
            x = y;
        }
        let (hidden, _) = ln_forward(&low, &x, &m.final_ln_g, &m.final_ln_b);
        want += (hidden.len() + stem::logits(&low, &hidden, &m.table).len()) * 4;
        let got = m.train_step_detailed(g, &tokens, &labels, 0.1);
        (got.peak_activation_bytes, want)
    });
    for (got, want) in peaks {
        assert_eq!(got, want);
    }
}

#[test]
fn checkpointing_flattens_depth_scaling() {
    let (tokens, labels) = data(&cfg(2, true), 2);
    let p2 = peak(&cfg(2, true), &tokens, &labels);
    let p8 = peak(&cfg(8, true), &tokens, &labels);
    let ratio = p8 as f64 / p2 as f64;
    assert!(
        ratio < 2.0,
        "with checkpointing depth-8 should cost < 2x depth-2, got {ratio}"
    );
}

#[test]
fn checkpoint_savings_grow_with_depth() {
    let (tokens, labels) = data(&cfg(2, false), 3);
    let saving = |layers| {
        let off = peak(&cfg(layers, false), &tokens, &labels);
        let on = peak(&cfg(layers, true), &tokens, &labels);
        off as f64 / on as f64
    };
    let s2 = saving(2);
    let s8 = saving(8);
    assert!(s8 > s2, "savings should grow with depth: {s2} -> {s8}");
    assert!(s8 > 2.5, "deep model savings should be substantial: {s8}");
}

#[test]
fn activation_blocks_shrink_with_mesh_size() {
    // The per-device activation block is bsh/p: growing the mesh at fixed
    // global problem shrinks it quadratically in q.
    let global = (12usize, 8usize, 36usize); // b, s, h divisible by 2 and 3
    let block_bytes = |q: usize| {
        let c = OptimusConfig {
            q,
            batch: global.0,
            seq: global.1,
            hidden: global.2,
            heads: 6,
            vocab: 72,
            layers: 1,
            causal: false,
            checkpoint: false,
            fused_attention: false,
        };
        let (tokens, _) = data(&c, 4);
        Mesh2d::run(q, |g| {
            let m = OptimusModel::new(&c, 1, g);
            let tl = c.local_tokens(&tokens, g.row());
            Summa2d { grid: g, cfg: &c }.embed(&m.table, tl).len()
        })[0]
    };
    let b1 = block_bytes(1);
    let b2 = block_bytes(2);
    let b3 = block_bytes(3);
    assert_eq!(b1, 4 * b2);
    assert_eq!(b1, 9 * b3);
}

/// Per-rank workspace growth over five rounds of `forms` on a `dims` mesh
/// after one warm-up round — Section 3.2.3's "allocate once" says all zeros.
fn growth_after_warmup(dims: &[usize], forms: &[Form]) -> Vec<usize> {
    let mut rng = Rng::new(5);
    let a = Tensor::randn(&[16, 16], 1.0, &mut rng);
    let b = Tensor::randn(&[16, 16], 1.0, &mut rng);
    MeshNd::run(dims, |g| {
        let (al, bl) = (distribute(g, &a), distribute(g, &b));
        let mut ws = Workspace::new();
        let mut c = Tensor::zeros(&[8, 8]);
        let mut round = |ws: &mut Workspace| {
            for form in forms {
                match form {
                    Form::NN => summa_nn_into(g, &al, &bl, &mut c, ws),
                    Form::NT => summa_nt_into(g, &al, &bl, &mut c, ws),
                    Form::TN => summa_tn_into(g, &al, &bl, &mut c, ws),
                }
            }
        };
        round(&mut ws);
        let warm = ws.fresh_allocs;
        assert!(warm > 0, "warm-up must size the workspace");
        for _ in 0..5 {
            round(&mut ws);
        }
        ws.fresh_allocs - warm
    })
}

#[test]
fn summa_workspace_reaches_steady_state_reuse() {
    // On [2,2,2] the depth-1 slice starts at an odd iteration, which is
    // where a slot rotation keyed on `l` rather than `l - lo` loses its warm
    // buffers and re-grows them on every product.
    for dims in [&[2, 2][..], &[2, 2, 2]] {
        for forms in [
            &[Form::NN][..],
            &[Form::NT],
            &[Form::TN],
            &[Form::NN, Form::NT, Form::TN],
        ] {
            let growth = growth_after_warmup(dims, forms);
            assert!(
                growth.iter().all(|&g| g == 0),
                "{forms:?} on {dims:?} grew per rank: {growth:?}"
            );
        }
    }
}

#[test]
fn train_step_detailed_reports_consistent_peaks_across_devices() {
    let c = cfg(3, false);
    let (tokens, labels) = data(&c, 6);
    let peaks = Mesh2d::run(c.q, |g| {
        let mut m = OptimusModel::new(&c, 9, g);
        m.train_step_detailed(g, &tokens, &labels, 0.1)
            .peak_activation_bytes
    });
    // Blocks are uniform, so all devices peak identically.
    for p in &peaks {
        assert_eq!(*p, peaks[0]);
    }
    assert!(peaks[0] > 0);
}

#[test]
fn transport_buffers_reach_steady_state_outside_the_first_row() {
    // Outside mesh row 0 a device receives more messages per step than it
    // sends, so its transport pool fills up every step. Posted panels and
    // blocking all-reduce chunks share that pool; unless a full pool keeps
    // its panel-sized buffers, each later panel send allocates afresh. (Row
    // 0 sends more than it receives and allocates every step by design of
    // the traffic, not of the pool.)
    let c = OptimusConfig {
        batch: 8,
        hidden: 32,
        ..cfg(4, true)
    };
    let (tokens, labels) = data(&c, 8);
    let fresh = Mesh2d::run(c.q, |g| {
        let mut m = OptimusModel::new(&c, 4, g);
        m.train_step(g, &tokens, &labels, 0.1);
        g.ctx().reset_pool_stats();
        for _ in 0..10 {
            m.train_step(g, &tokens, &labels, 0.1);
        }
        g.ctx().fresh_allocs()
    });
    assert_eq!(fresh[c.q..], [0, 0], "fresh buffers per rank: {fresh:?}");
}
