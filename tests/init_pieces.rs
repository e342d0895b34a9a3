//! The placement table's third interpreter: `serial::init` draws a device's
//! pieces straight from each tensor's `(seed, param id)` stream. Every piece
//! must be, bit for bit, what `serial::shard` cuts from the whole model
//! `ModelParams::init` builds — on every lowering, for any layer range, and
//! for the classification head — and the whole model must be the
//! row-major draws `tensor::init::init_matrix` defines.

use optimus::megatron::{Megatron1d, MegatronConfig};
use optimus::mesh::{Group, Mesh, Mesh2d, MeshNd};
use optimus::optimus_core::{OptimusConfig, Summa2d};
use optimus::serial::{
    init, init_head, shard, shard_tensor, LayerTensors, Local, Lowering, ModelConfig, ModelParams,
    ModelTensors, Role, Slot,
};
use optimus::tensor::init::{init_matrix, param_ids, WEIGHT_STD};
use optimus::tensor::Tensor;
use std::ops::Range;

const SEED: u64 = 11;

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Asserts that `got` and `want` hold the same tensors — shapes, hosting
/// and every bit.
fn assert_bitwise(got: &ModelTensors, want: &ModelTensors, what: &str) {
    assert_eq!(got.layers.len(), want.layers.len(), "{what}: layers");
    assert_eq!(got.embedding.dims(), want.embedding.dims(), "{what}: table");
    for (g, w) in got.layers.iter().zip(&want.layers) {
        let dims =
            |l: &LayerTensors| [&l.w_qkv, &l.w_out, &l.w_fc1, &l.w_fc2].map(|t| t.dims().to_vec());
        assert_eq!(dims(g), dims(w), "{what}: weight shapes");
    }
    let mut tensors = 0;
    got.clone().walk(want, &mut |g, w| {
        assert_eq!(
            bits(g),
            bits(w),
            "{what}: hosted tensor {tensors} in walk order"
        );
        tensors += 1;
    });
    assert!(tensors > 0, "{what}: nothing compared");
}

/// `low`'s pieces of the model's layers `layers`: drawn, and cut from the
/// whole model's same layers.
fn drawn_and_cut<L: Lowering>(
    low: &L,
    cfg: &ModelConfig,
    layers: Range<usize>,
) -> [ModelTensors; 2] {
    let mut full = ModelParams::init(SEED, cfg);
    full.layers = full.layers.drain(layers.clone()).collect();
    let stage = ModelConfig {
        layers: layers.len(),
        ..*cfg
    };
    [init(low, SEED, cfg, layers), shard(low, &full, &stage)]
}

fn model_cfg() -> ModelConfig {
    ModelConfig {
        batch: 6,
        seq: 4,
        hidden: 24,
        heads: 12,
        vocab: 36,
        layers: 4,
        causal: false,
    }
}

fn optimus_cfg(q: usize) -> OptimusConfig {
    let m = model_cfg();
    OptimusConfig {
        q,
        batch: m.batch,
        seq: m.seq,
        hidden: m.hidden,
        heads: m.heads,
        vocab: m.vocab,
        layers: m.layers,
        causal: m.causal,
        checkpoint: false,
        fused_attention: false,
    }
}

#[test]
fn the_local_reading_is_the_row_major_draw_of_every_stream() {
    let cfg = model_cfg();
    let [drawn, cut] = drawn_and_cut(&Local(cfg), &cfg, 0..cfg.layers);
    assert_bitwise(&drawn, &cut, "local");
    let (h, v) = (cfg.hidden, cfg.vocab);
    let whole = |id, dims: &[usize]| bits(init_matrix(SEED, id, dims, WEIGHT_STD).as_slice());
    assert_eq!(
        bits(drawn.embedding.as_slice()),
        whole(param_ids::EMBEDDING, &[v, h])
    );
    for (l, layer) in drawn.layers.iter().enumerate() {
        let id = |off| param_ids::layer(l, off);
        let weights = [
            (&layer.w_qkv, id(param_ids::W_QKV), [h, 3 * h]),
            (&layer.w_out, id(param_ids::W_OUT), [h, h]),
            (&layer.w_fc1, id(param_ids::W_FC1), [h, 4 * h]),
            (&layer.w_fc2, id(param_ids::W_FC2), [4 * h, h]),
        ];
        for (w, id, dims) in weights {
            assert_eq!(bits(w.as_slice()), whole(id, &dims), "layer {l}");
        }
        let fills = [
            (&layer.ln1_g, 1.0),
            (&layer.ln2_g, 1.0),
            (&layer.b_fc1, 0.0),
        ];
        for (v, fill) in fills {
            assert!(v.iter().all(|&x| x == fill), "layer {l}");
        }
    }
    assert!(drawn.final_ln_g.iter().all(|&x| x == 1.0));
    assert!(drawn.final_ln_b.iter().all(|&x| x == 0.0));
}

#[test]
fn summa2d_pieces_are_the_cut_pieces_bitwise() {
    let cfg = model_cfg();
    for dims in [[1, 1, 1], [2, 2, 1], [3, 3, 1], [2, 2, 2]] {
        let ocfg = optimus_cfg(dims[0]);
        let outs = MeshNd::run(&dims, |g| {
            let low = Summa2d {
                grid: g,
                cfg: &ocfg,
            };
            drawn_and_cut(&low, &cfg, 0..cfg.layers)
        });
        for (rank, [drawn, cut]) in outs.iter().enumerate() {
            assert_bitwise(drawn, cut, &format!("{dims:?} rank {rank}"));
        }
    }
}

#[test]
fn megatron1d_pieces_are_the_cut_pieces_bitwise() {
    let cfg = model_cfg();
    for p in [1usize, 2, 4] {
        let mcfg = MegatronConfig::new(cfg, p);
        let outs = Mesh::run(p, |ctx| {
            let world = Group::world(p);
            let low = Megatron1d {
                ctx,
                world: &world,
                cfg: &mcfg,
            };
            drawn_and_cut(&low, &cfg, 0..cfg.layers)
        });
        for (rank, [drawn, cut]) in outs.iter().enumerate() {
            assert_bitwise(drawn, cut, &format!("p={p} rank {rank}"));
        }
    }
}

#[test]
fn every_stage_draws_its_own_layers_of_the_whole_model() {
    let cfg = model_cfg();
    let ocfg = optimus_cfg(2);
    for pp in [2usize, 4] {
        let lps = cfg.layers / pp;
        for stage in 0..pp {
            let layers = stage * lps..(stage + 1) * lps;
            let outs = Mesh2d::run(2, |g| {
                let low = Summa2d {
                    grid: g,
                    cfg: &ocfg,
                };
                drawn_and_cut(&low, &cfg, layers.clone())
            });
            for (rank, [drawn, cut]) in outs.iter().enumerate() {
                assert_bitwise(drawn, cut, &format!("pp={pp} stage {stage} rank {rank}"));
            }
        }
    }
}

#[test]
fn both_classifier_heads_are_the_cut_heads_bitwise() {
    let (cfg, classes) = (model_cfg(), 6);
    let full = init_matrix(
        SEED,
        param_ids::CLS_HEAD,
        &[cfg.hidden, classes],
        WEIGHT_STD,
    );
    let (w, b) = init_head(&Local(cfg), SEED, classes);
    assert_eq!(bits(w.as_slice()), bits(full.as_slice()), "serial head");
    assert_eq!(b, vec![0.0; classes], "serial bias");
    for q in [2usize, 3] {
        let ocfg = optimus_cfg(q);
        let outs = Mesh2d::run(q, |g| {
            let low = Summa2d {
                grid: g,
                cfg: &ocfg,
            };
            let zeros = Tensor::zeros(&[1, classes]);
            let cut = (
                shard_tensor(&low, Slot::Weight(Role::Expand), &full).unwrap(),
                shard_tensor(&low, Slot::Bias(Role::Expand), &zeros)
                    .map_or_else(Vec::new, Tensor::into_vec),
            );
            (init_head(&low, SEED, classes), cut)
        });
        for (rank, ((w, b), (cut_w, cut_b))) in outs.iter().enumerate() {
            assert_eq!(w.dims(), cut_w.dims(), "q={q} rank {rank}");
            assert_eq!(
                bits(w.as_slice()),
                bits(cut_w.as_slice()),
                "q={q} rank {rank}"
            );
            assert_eq!(b, cut_b, "q={q} rank {rank}");
        }
    }
}
