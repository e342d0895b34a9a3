//! Runtime memory behaviour of the executed simulation: the mechanisms
//! behind Figure 9 and the Section 3.2.3 buffer techniques, observed rather
//! than modelled.

use optimus::mesh::{Mesh2d, MeshNd};
use optimus::optimus_core::{layer2d_forward, OptimusConfig, OptimusModel, Summa2d};
use optimus::serial::{ln_forward, stem, Lowering};
use optimus::summa::{distribute, summa_nn, summa_nt, summa_tn};
use optimus::tensor::gemm::Form;
use optimus::tensor::{recycler, Rng, Tensor};

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
    // final hidden block and the logits — and not one byte more. The top
    // layer's cache, whose backward follows at once, keeps its panels, so
    // it leaves out the four left operands its row strips carry.
    let c = cfg(3, false);
    let (tokens, labels) = data(&c, 7);
    let peaks = Mesh2d::run(c.q, |g| {
        let mut m = OptimusModel::new(&c, 3, g);
        let low = Summa2d { grid: g, cfg: &c };
        let mut x = low.embed(&m.table, c.local_tokens(&tokens, g.row()));
        let mut want = x.len() * 4;
        for (l, lp) in m.layers.iter().enumerate() {
            let (y, cache) = layer2d_forward(g, &c, lp, &x);
            want += cache.bytes();
            if l + 1 == m.layers.len() {
                let carried = [&cache.ln1_out, &cache.ctxt, &cache.ln2_out, &cache.g];
                want -= carried.iter().map(|t| t.len() * 4).sum::<usize>();
            }
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

/// Per-rank buffer growth over five rounds of `forms` on a `dims` mesh
/// after one warm-up round — Section 3.2.3's "allocate once" says all
/// zeros. Each product builds its workspace from the device's recycler and
/// gives it back on drop, so growth is the recycler's misses, less those a
/// device owes its traffic: a buffer it sends leaves its recycler, and one
/// it receives arrives there, so a device that sends more messages per
/// round than it receives allocates the difference every round. (All
/// blocks and panels here are one size, so any buffer serves any message.)
fn growth_after_warmup(dims: &[usize], forms: &[Form]) -> Vec<usize> {
    const ROUNDS: usize = 5;
    let mut rng = Rng::new(5);
    let a = Tensor::randn(&[16, 16], 1.0, &mut rng);
    let b = Tensor::randn(&[16, 16], 1.0, &mut rng);
    let (misses, logs) = MeshNd::run_with_logs(dims, |g| {
        let (al, bl) = (distribute(g, &a), distribute(g, &b));
        let round = || {
            for form in forms {
                match form {
                    Form::NN => summa_nn(g, &al, &bl),
                    Form::NT => summa_nt(g, &al, &bl),
                    Form::TN => summa_tn(g, &al, &bl),
                };
            }
        };
        recycler::reset_misses();
        round();
        assert!(recycler::misses() > 0, "warm-up must size the buffers");
        recycler::reset_misses();
        for _ in 0..ROUNDS {
            round();
        }
        recycler::misses()
    });
    let links: Vec<_> = logs.iter().flat_map(|l| &l.links).collect();
    misses
        .iter()
        .enumerate()
        .map(|(rank, &m)| {
            let sent = links.iter().filter(|l| l.from == rank).count();
            let received = links.iter().filter(|l| l.to == rank).count();
            // The logs cover the warm-up round too.
            let owed = sent.saturating_sub(received) / (ROUNDS + 1);
            m.saturating_sub(ROUNDS * owed)
        })
        .collect()
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
    // sends, so buffers flow into its recycler every step: each message it
    // receives gives its buffer there, and panel and all-reduce sends take
    // theirs from there. Unless the recycler keeps panel-sized buffers among
    // them, each later panel send allocates afresh. (Row 0 sends more than
    // it receives, so its buffers leave with its sends and it allocates
    // every step by design of the traffic, not of the recycler.)
    let c = OptimusConfig {
        batch: 8,
        hidden: 32,
        ..cfg(4, true)
    };
    let (tokens, labels) = data(&c, 8);
    let fresh = Mesh2d::run(c.q, |g| {
        let mut m = OptimusModel::new(&c, 4, g);
        m.train_step(g, &tokens, &labels, 0.1);
        recycler::reset_misses();
        for _ in 0..10 {
            m.train_step(g, &tokens, &labels, 0.1);
        }
        recycler::misses()
    });
    assert_eq!(fresh[c.q..], [0, 0], "fresh buffers per rank: {fresh:?}");
}
