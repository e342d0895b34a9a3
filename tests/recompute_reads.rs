//! A checkpoint recompute keeps what the layer's backward reads, and only
//! that. It stops after `g = gelu(f1)`: nobody reads the layer's output, so
//! fc2's product, bias and residual are not computed, and a lowering whose
//! backward reads fc2's panels only receives them. A 2D recompute keeps its
//! projections' row strips, so its cache holds none of the four left
//! operands they carry (`ln1_out`, `ctxt`, `ln2_out`, `g`); the backward's
//! `xᵀ·dy` reads the strips instead.
//!
//! For each lowering, the recompute's cache equals the forward's bitwise on
//! every field the backward reads, and a backward from either gives the
//! same bits.

use optimus::megatron::{Megatron1d, MegatronConfig};
use optimus::mesh::{CommLog, CommOp, Group, Mesh, MeshNd, OpRecord};
use optimus::optimus_core::{OptimusConfig, Summa2d};
use optimus::serial::{
    layer_backward, layer_forward, layer_recompute, shard_layer, LayerCache, LayerParams,
    LayerTensors, Local, Lowering, ModelConfig,
};
use optimus::summa::distribute;
use optimus::tensor::{Rng, Tensor};

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn data(rows: usize, hidden: usize) -> (LayerParams, Tensor, Tensor) {
    let mut rng = Rng::new(8);
    let x = Tensor::randn(&[rows, hidden], 1.0, &mut rng);
    let dy = Tensor::randn(&[rows, hidden], 1.0, &mut rng);
    (LayerParams::init(4, 0, hidden), x, dy)
}

/// The left operands of QKV, the output projection, fc1 and fc2, in the
/// order of the cache's panels.
fn left_operands<P>(c: &LayerCache<P>) -> [&Tensor; 4] {
    [&c.ln1_out, &c.ctxt, &c.ln2_out, &c.g]
}

/// Every tensor the backward reads of a cache other than the left operands
/// (`x1` is not among them).
fn read_fields<P>(c: &LayerCache<P>) -> Vec<Vec<u32>> {
    let mut out = vec![
        bits(&c.ln1.xhat),
        c.ln1.inv_std.iter().map(|v| v.to_bits()).collect(),
        c.ln1.gamma.iter().map(|v| v.to_bits()).collect(),
        bits(&c.ln2.xhat),
        c.ln2.inv_std.iter().map(|v| v.to_bits()).collect(),
        c.ln2.gamma.iter().map(|v| v.to_bits()).collect(),
        bits(&c.q),
        bits(&c.k),
        bits(&c.v),
        bits(&c.f1),
    ];
    out.extend(c.attn.iter().flat_map(|a| a.probs.iter().map(bits)));
    out
}

fn grad_bits(dx: &Tensor, mut grads: LayerTensors) -> Vec<Vec<u32>> {
    let mut out = vec![bits(dx)];
    grads.walk_mut(&mut |g| out.push(g.iter().map(|v| v.to_bits()).collect()));
    out
}

/// Runs a forward and a recompute of the same layer on one device and
/// checks their caches and their backwards against each other. Returns
/// how many left operands the recompute's cache left to its panels.
fn recompute_matches_forward<L: Lowering>(
    low: &L,
    p: &LayerTensors,
    x: &Tensor,
    dy: &Tensor,
) -> usize {
    let (_, fwd) = layer_forward(low, p, x);
    let rec = layer_recompute(low, p, x, Default::default());
    assert_eq!(read_fields(&rec), read_fields(&fwd));
    let mut carried = 0;
    let pairs = left_operands(&rec).into_iter().zip(left_operands(&fwd));
    for ((r, f), kept) in pairs.zip(&rec.panels) {
        if r.is_empty() {
            assert!(low.carries_left(kept), "an operand dropped with no panels");
            carried += 1;
        } else {
            assert_eq!(bits(r), bits(f));
        }
    }
    let (dx_f, g_f) = layer_backward(low, p, &fwd, dy);
    let (dx_r, g_r) = layer_backward(low, p, &rec, dy);
    assert_eq!(grad_bits(&dx_r, g_r), grad_bits(&dx_f, g_f));
    carried
}

#[test]
fn a_local_recompute_keeps_every_operand() {
    let cfg = ModelConfig::tiny();
    let (p, x, dy) = data(cfg.tokens(), cfg.hidden);
    assert_eq!(recompute_matches_forward(&Local(cfg), &p, &x, &dy), 0);
}

#[test]
fn a_megatron_recompute_keeps_every_operand_and_makes_one_all_reduce() {
    let cfg = MegatronConfig::new(ModelConfig::tiny(), 2);
    let (full, x, dy) = data(cfg.model.tokens(), cfg.model.hidden);
    let world = Group::world(cfg.p);
    let carried = Mesh::run(cfg.p, |ctx| {
        let low = Megatron1d {
            ctx,
            world: &world,
            cfg: &cfg,
        };
        recompute_matches_forward(&low, &shard_layer(&low, &full), &x, &dy)
    });
    assert_eq!(carried, vec![0; cfg.p]);

    // Of the forward's two `bsh` all-reduces, after the output projection
    // and after fc2, a recompute makes only the first.
    let bsh = cfg.model.tokens() * cfg.model.hidden;
    let count = |recompute: bool| {
        let (_, logs) = Mesh::run_with_logs(cfg.p, |ctx| {
            let low = Megatron1d {
                ctx,
                world: &world,
                cfg: &cfg,
            };
            let p = shard_layer(&low, &full);
            match recompute {
                true => drop(layer_recompute(&low, &p, &x, Default::default())),
                false => drop(layer_forward(&low, &p, &x)),
            }
        });
        let ars = |log: &CommLog| {
            let big = |o: &&OpRecord| o.op == CommOp::AllReduce && o.elems == bsh;
            log.ops.iter().filter(big).count()
        };
        logs.iter().map(ars).collect::<Vec<_>>()
    };
    assert_eq!(count(false), vec![2; cfg.p]);
    assert_eq!(count(true), vec![1; cfg.p]);
}

#[test]
fn a_2d_recompute_leaves_its_left_operands_to_the_row_strips() {
    for dims in [&[2, 2][..], &[2, 2, 2]] {
        let cfg = OptimusConfig::tiny(2);
        let (full, x, dy) = data(cfg.batch * cfg.seq, cfg.hidden);
        let carried = MeshNd::run(dims, |g| {
            let low = Summa2d { grid: g, cfg: &cfg };
            let p = shard_layer(&low, &full);
            recompute_matches_forward(&low, &p, &distribute(g, &x), &distribute(g, &dy))
        });
        assert_eq!(carried, vec![4; carried.len()], "{dims:?}");
    }
}
