//! Recompute once, broadcast once. A checkpointed layer's backward reads
//! the SUMMA panels its recompute received (`summa::Strips`), and the tied
//! head's backward reads the table panels the logits product received and
//! shares one strip of `dL` panels between its two products, instead of
//! receiving any of them again.
//!
//! A broadcast moves exact payloads, so none of this may move a bit:
//! checkpointed training equals cached training bitwise on every mesh
//! shape. The traffic it removes is `(q−1)·(7bsh + 12h²)` link elements
//! per layer pass and `(q−1)·(vh + bsv)` per head pass, and what a
//! checkpointed step still sends beyond a cached one is exactly the
//! recompute's layer-norm all-reduces: its vectors come from the step's one
//! region.

use optimus::hybrid::{build, HybridSpec};
use optimus::mesh::{CommLog, Mesh, MeshNd, Topology};
use optimus::optimus_core::{OptimusConfig, OptimusModel, Summa2d};
use optimus::perf::memory::{optimus_bytes, MemoryConfig};
use optimus::perf::table1::optimus_layer_costs;
use optimus::perf::{CostModel, HardwareProfile};
use optimus::serial::{
    layer_backward, layer_forward, layer_recompute, shard_layer, stem, LayerParams, Lowering,
    MemMeter, Role,
};
use optimus::summa::{distribute, Strips};
use optimus::tensor::gemm::Form;
use optimus::tensor::{Rng, Tensor};
use optimus::trace::{DeviceTrace, Event};
use std::collections::HashMap;

fn data(cfg: &OptimusConfig, seed: u64) -> (Vec<usize>, Vec<usize>) {
    let mut rng = Rng::new(seed);
    let n = cfg.batch * cfg.seq;
    (
        (0..n).map(|_| rng.below(cfg.vocab)).collect(),
        (0..n).map(|_| rng.below(cfg.vocab)).collect(),
    )
}

fn bits(v: &[f32]) -> impl Iterator<Item = u32> + '_ {
    v.iter().map(|x| x.to_bits())
}

/// Every bit of one device's parameters: its table block, the final
/// layer-norm vectors it hosts and every layer block and hosted vector.
fn param_bits(m: &OptimusModel) -> Vec<u32> {
    let mut out: Vec<u32> = bits(m.table.as_slice()).collect();
    for v in [&m.final_ln_g, &m.final_ln_b] {
        out.extend(bits(v));
    }
    for layer in &m.layers {
        layer.clone().walk_mut(&mut |p| out.extend(bits(p)));
    }
    out
}

/// Per device: the loss bits of three SGD steps, then every parameter bit.
type Run = Vec<(Vec<u32>, Vec<u32>)>;

fn train_on(dims: &[usize], cfg: &OptimusConfig) -> Run {
    let (tokens, labels) = data(cfg, 5);
    MeshNd::run(dims, |g| {
        let mut m = OptimusModel::new(cfg, 11, g);
        let losses = (0..3)
            .map(|_| m.train_step(g, &tokens, &labels, 0.2).to_bits())
            .collect();
        (losses, param_bits(&m))
    })
}

fn train_hybrid(spec: &HybridSpec, cfg: &OptimusConfig) -> Run {
    let (tokens, labels) = data(cfg, 6);
    Mesh::run(spec.devices(), |ctx| {
        let (mut st, grid) = build(ctx, spec, cfg, 12);
        let losses = (0..3)
            .map(|_| st.train_step(&grid, &tokens, &labels, 0.2).to_bits())
            .collect();
        (losses, param_bits(&st.model))
    })
}

fn with_checkpoint(cfg: &OptimusConfig, checkpoint: bool) -> OptimusConfig {
    OptimusConfig { checkpoint, ..*cfg }
}

#[test]
fn checkpointed_training_is_bitwise_cached_training_on_every_mesh_shape() {
    for dims in [&[2, 2][..], &[3, 3], &[4, 4], &[2, 2, 2]] {
        let cfg = OptimusConfig::tiny(dims[0]);
        let cached = train_on(dims, &with_checkpoint(&cfg, false));
        let ckpt = train_on(dims, &with_checkpoint(&cfg, true));
        assert_eq!(ckpt.len(), cached.len());
        for (rank, (c, p)) in ckpt.iter().zip(&cached).enumerate() {
            assert_eq!(c.0, p.0, "{dims:?}: losses diverge on rank {rank}");
            assert_eq!(c.1, p.1, "{dims:?}: parameters diverge on rank {rank}");
        }
    }
}

#[test]
fn checkpointed_hybrid_stage_is_bitwise_cached() {
    let spec = HybridSpec {
        pp: 2,
        dp: 2,
        grid: [2, 2, 1],
        microbatches: 2,
    };
    let cfg = OptimusConfig {
        batch: 8,
        ..OptimusConfig::tiny(2)
    };
    spec.validate(&cfg).unwrap();
    let cached = train_hybrid(&spec, &with_checkpoint(&cfg, false));
    let ckpt = train_hybrid(&spec, &with_checkpoint(&cfg, true));
    for (rank, (c, p)) in ckpt.iter().zip(&cached).enumerate() {
        assert_eq!(c.0, p.0, "losses diverge on rank {rank}");
        assert_eq!(c.1, p.1, "parameters diverge on rank {rank}");
    }
}

/// One dry-run training step on a `q × q` mesh: logs and traces.
fn traced_step(cfg: &OptimusConfig) -> (Vec<CommLog>, Vec<DeviceTrace>) {
    let (tokens, labels) = data(cfg, 7);
    let p = cfg.q * cfg.q;
    let cost = CostModel::new(
        HardwareProfile::uniform(1e12, 1e-9),
        Topology::single_node(p),
    );
    let (_, logs, traces) = MeshNd::dry_run_traced(&[cfg.q, cfg.q], cost.ns_pricer(), |g| {
        OptimusModel::new(cfg, 3, g).train_step(g, &tokens, &labels, 0.1)
    });
    (logs, traces)
}

/// Broadcasts recorded anywhere under a span named `under`, all devices.
fn broadcasts_under(traces: &[DeviceTrace], under: &str) -> usize {
    let mut count = 0;
    for t in traces {
        let mut spans = HashMap::new();
        for ev in &t.events {
            match ev {
                Event::Enter {
                    span, parent, name, ..
                } => {
                    spans.insert(*span, (*name, *parent));
                }
                Event::Op { span, meta, .. } if meta.kind == "Broadcast" => {
                    let mut at = *span;
                    while let Some(&(name, parent)) = spans.get(&at) {
                        if name == under {
                            count += 1;
                            break;
                        }
                        at = parent;
                    }
                }
                _ => {}
            }
        }
    }
    count
}

fn link_elems(logs: &[CommLog]) -> usize {
    logs.iter().map(CommLog::total_link_elems).sum()
}

#[test]
fn a_checkpointed_backward_receives_no_panel_twice() {
    for q in [2usize, 3] {
        let cfg = OptimusConfig::tiny(q);
        let (cached_logs, cached_traces) = traced_step(&with_checkpoint(&cfg, false));
        let (ckpt_logs, ckpt_traces) = traced_step(&with_checkpoint(&cfg, true));

        // Without a recompute the backward has no strips and broadcasts its
        // panels; after one it posts only its reduces.
        assert!(broadcasts_under(&cached_traces, "bwd.linear2d") > 0);
        assert_eq!(broadcasts_under(&ckpt_traces, "bwd.linear2d"), 0, "q={q}");

        // The recompute's SUMMA broadcasts are exactly the ones the backward
        // no longer makes, and its vectors come from the step's one region,
        // so a checkpointed step sends, beyond a cached one, only the
        // recompute's four row all-reduces of `bs/q` layer-norm partials
        // (`2(q−1)·n` link elements per group of `q`), on each of `q`
        // groups, per recomputed layer. The top layer's forward kept its
        // cache, so `L − 1` layers are recomputed.
        let bs = cfg.batch * cfg.seq;
        let extra = (cfg.layers - 1) * (q - 1) * 8 * bs;
        assert_eq!(
            link_elems(&ckpt_logs),
            link_elems(&cached_logs) + extra,
            "q={q}"
        );
    }
}

#[test]
fn the_executed_checkpointed_backward_moves_twice_the_forward_payload() {
    // The paper's Table 1 prices the checkpointed 2D backward at 3× the
    // forward (recompute + two products per matmul); with the recompute's
    // panels kept, the backward's products move only their reduces, and
    // recompute + backward move 2× the forward's SUMMA payload.
    let (b, s, h, q) = (4usize, 8usize, 16usize, 2usize);
    let cfg = OptimusConfig {
        q,
        batch: b,
        seq: s,
        hidden: h,
        heads: 4,
        vocab: 4 * h,
        layers: 1,
        causal: false,
        checkpoint: true,
        fused_attention: false,
    };
    let full = LayerParams::init(0, 0, h);
    let mut rng = Rng::new(2);
    let x = Tensor::randn(&[b * s, h], 1.0, &mut rng);
    let dy = Tensor::randn(&[b * s, h], 1.0, &mut rng);
    // Smallest SUMMA payload: a `bsh/p` activation or `h²/p` weight panel.
    // The layer's eight vectors travel as one region of `13h/q`, which is
    // larger here, so it is told apart by its exact length.
    let (panel_min, region) = ((b * s * h).min(h * h) / (q * q), 13 * h / q);
    let summa_payload = |log: &CommLog| -> usize {
        log.ops
            .iter()
            .filter(|o| o.elems >= panel_min && o.elems != region)
            .map(|o| o.elems)
            .sum()
    };
    let (_, fwd_logs) = MeshNd::dry_run_with_logs(&[q, q], |g| {
        let low = Summa2d { grid: g, cfg: &cfg };
        layer_forward(&low, &shard_layer(&low, &full), &distribute(g, &x));
    });
    let (_, bwd_logs) = MeshNd::dry_run_with_logs(&[q, q], |g| {
        let low = Summa2d { grid: g, cfg: &cfg };
        let p = shard_layer(&low, &full);
        let cache = layer_recompute(&low, &p, &distribute(g, &x), Default::default());
        layer_backward(&low, &p, &cache, &distribute(g, &dy));
    });
    let fwd = (7 * b * s * h + 12 * h * h) / q;
    let table1 = optimus_layer_costs(b, s, h, q * q);
    assert_eq!(table1.bwd_comm, 3.0 * table1.fwd_comm, "the paper's 3×");
    for (f, bw) in fwd_logs.iter().zip(&bwd_logs) {
        assert_eq!(summa_payload(f), fwd);
        assert_eq!(summa_payload(bw), 2 * fwd);
    }
}

/// The model one of the step benchmark's 2D workloads trains: sequence 64,
/// 8 heads, 4 layers, causal, vocabulary 256, checkpointing on.
fn bench_cfg(q: usize, hidden: usize, batch: usize) -> OptimusConfig {
    OptimusConfig {
        q,
        batch,
        seq: 64,
        hidden,
        heads: 8,
        vocab: 256,
        layers: 4,
        causal: true,
        checkpoint: true,
        fused_attention: false,
    }
}

/// Link elements the top layer's recompute sent before its forward kept its
/// cache, beyond its vector fetches: the `q − 1` copies of every
/// projection's input and weight plus its layer-norm all-reduces,
/// `(q−1)·(7bsh + 12h² + 8bs)`.
fn top_recompute(c: &OptimusConfig, q: usize, bs: usize) -> usize {
    let h = c.hidden;
    (q - 1) * (7 * bs * h + 12 * h * h + 8 * bs)
}

/// Link elements `n` layers' vectors took on all `q` mesh columns when a
/// layer pass fetched its own, `13h/q` each down a column of `q`:
/// `n·(q−1)·13h`.
fn fetches(c: &OptimusConfig, q: usize, n: usize) -> usize {
    n * (q - 1) * 13 * c.hidden
}

#[test]
fn benchmark_2d_workloads_send_the_pinned_link_elements_per_step() {
    // Pinned against the same `CommLog::total_link_elems` that the step
    // benchmark's `comm_mib_per_step` reads (elements · 4 / 2²⁰), with the
    // counts before the vectors travelled in one region per step, and
    // before that before the top layer's recompute was dropped, alongside:
    // the differences are the recomputes' vector fetches and the
    // closed-form top-layer recompute.
    let (tokens, labels) = data(&bench_cfg(1, 1, 8), 9);
    let step = |q: usize, hidden: usize| {
        let cfg = bench_cfg(q, hidden, 8);
        let (_, logs) = MeshNd::dry_run_with_logs(&[q, q], |g| {
            OptimusModel::new(&cfg, 1, g).train_step(g, &tokens, &labels, 0.01)
        });
        let top = top_recompute(&cfg, q, cfg.batch * cfg.seq);
        let (now, l) = (link_elems(&logs), cfg.layers);
        [0, fetches(&cfg, q, l - 1), fetches(&cfg, q, l) + top].map(|saving| now + saving)
    };
    // opt2d_2x2_h256: 80.3711 → 73.8428 → 73.8047 MiB.
    assert_eq!(step(2, 256), [19_347_460, 19_357_444, 21_068_804]);
    // opt2d_4x4_h128: 95.3790 → 87.8131 → 87.7560 MiB.
    assert_eq!(step(4, 128), [23_004_696, 23_019_672, 25_003_032]);

    // hyb_pp2_dp2_2x2_h128: 90.7950 → 84.2384 → 84.0568 MiB. Every
    // (replica, microbatch) pass fetched its recomputed layers' vectors
    // (`L − 1` over the two stages: only the last stage's top layer skips
    // its recompute), and every microbatch after the first fetched the
    // stage's vectors and sent their gradients home again, `(13L + 2)·h/q`
    // a column over both stages, each way.
    let spec = HybridSpec {
        pp: 2,
        dp: 2,
        grid: [2, 2, 1],
        microbatches: 2,
    };
    let cfg = bench_cfg(2, 128, 16);
    let (tokens, labels) = data(&cfg, 9);
    let (_, logs) = Mesh::dry_run_with_logs(spec.devices(), |ctx| {
        let (mut st, grid) = build(ctx, &spec, &cfg, 1);
        st.train_step(&grid, &tokens, &labels, 0.01)
    });
    let (passes, q, l) = (spec.dp * spec.microbatches, spec.q(), cfg.layers);
    let bs = spec.micro_batch(&cfg) * cfg.seq;
    let repeats = 2 * spec.dp * (spec.microbatches - 1) * (q - 1) * (13 * l + 2) * cfg.hidden;
    let vectors = passes * fetches(&cfg, q, l - 1) + repeats;
    let top = passes * (top_recompute(&cfg, q, bs) + fetches(&cfg, q, 1));
    let now = link_elems(&logs);
    assert_eq!(
        [now, now + vectors, now + vectors + top],
        [22_034_976, 22_082_592, 23_801_376]
    );
}

fn panel_ptrs(s: &Strips) -> Vec<*const f32> {
    s.row.iter().chain(&s.col).map(|p| p.as_ptr()).collect()
}

#[test]
fn strips_held_after_a_recompute_are_the_memory_model_term() {
    // The benchmark's three 2D shapes: (q, hidden, per-mesh batch); the
    // hybrid workload's stage mesh recomputes microbatches of 16/(dp·m) = 4.
    for (q, hidden, batch) in [(2usize, 256usize, 8usize), (4, 128, 8), (2, 128, 4)] {
        let cfg = bench_cfg(q, hidden, batch);
        let full = LayerParams::init(0, 0, hidden);
        let bs = batch * cfg.seq;
        let mut rng = Rng::new(3);
        let x = Tensor::randn(&[bs, hidden], 1.0, &mut rng);
        let table = Tensor::randn(&[cfg.vocab, hidden], 1.0, &mut rng);
        let (_, labels) = data(&cfg, 8);
        let held = MeshNd::dry_run_with_logs(&[q, q], |g| {
            let low = Summa2d { grid: g, cfg: &cfg };
            let (p, x) = (shard_layer(&low, &full), distribute(g, &x));
            let first = layer_recompute(&low, &p, &x, Default::default());
            // A recompute that takes over an earlier one's panels holds the
            // same bytes, in the same allocations.
            let before: Vec<*const f32> = first.panels.iter().flat_map(panel_ptrs).collect();
            let again = layer_recompute(&low, &p, &x, first.panels);
            let after: Vec<*const f32> = again.panels.iter().flat_map(panel_ptrs).collect();
            assert_eq!(before, after, "the recompute allocated new panels");
            let layer: usize = again.panels.iter().map(Strips::bytes).sum();

            // The top layer's strips are live through the tied head, whose
            // `dL·E` reads the table strip the logits product kept while it
            // keeps the `dL` strip (the first product of `head_backward`).
            let (table, labels) = (distribute(g, &table), cfg.local_tokens(&labels, g.row()));
            let meter = &mut MemMeter::new();
            let (_, dlogits, table_strip) = stem::head_loss(&low, &table, &x, labels, bs, meter);
            let mut dl_strip = Strips::default();
            low.gemm(
                Form::NN,
                Role::Contract,
                &dlogits,
                &table,
                &table_strip,
                Some(&mut dl_strip),
            );
            layer + table_strip.bytes() + dl_strip.bytes()
        })
        .0;
        let model = optimus_bytes(
            &MemoryConfig {
                seq: cfg.seq,
                hidden,
                heads: cfg.heads,
                vocab: cfg.vocab,
                layers: cfg.layers,
                p: q * q,
            },
            batch,
        )
        .panel_strips;
        for bytes in held {
            assert_eq!(bytes as f64, model, "q={q} h={hidden} b={batch}");
        }
    }
    // A first forward keeps nothing.
    let cfg = OptimusConfig::tiny(2);
    let full = LayerParams::init(0, 0, cfg.hidden);
    let x = Tensor::randn(&[cfg.batch * cfg.seq, cfg.hidden], 1.0, &mut Rng::new(4));
    let (kept, _) = MeshNd::dry_run_with_logs(&[2, 2], |g| {
        let low = Summa2d { grid: g, cfg: &cfg };
        let (_, cache) = layer_forward(&low, &shard_layer(&low, &full), &distribute(g, &x));
        cache.panels.iter().map(Strips::bytes).sum::<usize>()
    });
    assert!(kept.iter().all(|&b| b == 0));
}
