//! The traced pass: the per-layer metrics of one workload.
//!
//! Four mesh runs, each a fresh mesh and model:
//! 1. a short untraced round — the reference step time, the exact
//!    communication counts and the modal collective shapes;
//! 2. the same steps with the `metrics` registries and the span buffer on —
//!    wait times, memory, and the overhead of being traced;
//! 3. a replay run that calls each layer's public entry points, from outside
//!    the crates, at the shapes the workload's own steps use;
//! 4. the MLP-up product once more as 2.5D SUMMA on `[2, 2, 2]`.
//!
//! The single-thread kernels, the serial model and the cost model are then
//! measured on the driver thread.

use crate::round::{run_round, Round, StepPlan};
use crate::spans::{Span, Spans};
use crate::stats::{cv, median};
use crate::untraced::{Rounds, MIB, SERIAL_CHECK_STEPS};
use crate::workloads::{Device, Scheme, Workload, LR};
use megatron::{layer1d_backward, layer1d_forward};
use mesh::{CommLog, CommOp, DeviceCtx, GridNd, Group, Mesh, MeshNd, Topology};
use optimus_core::{layer2d_backward, layer2d_forward, OptimusModel};
use perf::{CostModel, HardwareProfile};
use serial::SerialModel;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Barrier;
use std::time::Instant;
use summa::{summa_nn, summa_nt, summa_tn};
use tensor::{Rng, Tensor};

/// Metric name → value. Metrics a `--quick` pass skips are absent.
pub type Values = BTreeMap<&'static str, f64>;

pub struct Traced {
    /// The untraced and the traced round, checked like any other rounds.
    pub rounds: Rounds,
    pub values: Values,
    pub spans: Vec<Span>,
}

/// `(group size, group stride, elements)` of one collective call.
type Shape = (usize, usize, usize);

/// The modal call shape of each collective kind in a rank's step log,
/// indexed by `CommOp as usize`. A kind the steps never call borrows the
/// modal shape over all kinds, so every workload probes every collective at
/// a message size it actually sends.
fn modal_shapes(log: &CommLog) -> [Shape; CommOp::KINDS.len()] {
    let mut per_kind: Vec<BTreeMap<Shape, usize>> = vec![BTreeMap::new(); CommOp::KINDS.len()];
    let mut overall = BTreeMap::<Shape, usize>::new();
    for op in log.ops.iter().filter(|op| op.group_size > 1) {
        let shape = (op.group_size, op.group_stride, op.elems);
        *per_kind[op.op as usize].entry(shape).or_default() += 1;
        if op.elems > 0 {
            *overall.entry(shape).or_default() += 1;
        }
    }
    // Most frequent; among equals the largest shape (BTreeMap order).
    let mode = |m: &BTreeMap<Shape, usize>| m.iter().max_by_key(|(&s, &n)| (n, s)).map(|(&s, _)| s);
    let fallback = mode(&overall).unwrap_or((2, 1, 1024));
    std::array::from_fn(|k| match mode(&per_kind[k]) {
        // A barrier carries no payload; everything else needs one.
        Some(s) if s.2 > 0 || k == CommOp::Barrier as usize => s,
        _ => fallback,
    })
}

/// The group of `size` ranks `stride` apart that contains `rank` — how mesh
/// rows, columns, the world and the hybrid axis groups are all laid out.
/// Falls back to the world when the shape does not tile it.
fn group_of(rank: usize, world: usize, size: usize, stride: usize) -> Group {
    if stride == 0 || !world.is_multiple_of(size * stride) {
        return Group::world(world);
    }
    let base = rank - (rank / stride % size) * stride;
    Group::new((0..size).map(|i| base + i * stride).collect())
}

/// Repetitions of each replay, scaled from the 20-second defaults.
#[derive(Clone, Copy)]
struct Reps {
    coll_batches: usize,
    coll_calls: usize,
    product: usize,
    model: usize,
    kernel: usize,
}

impl Reps {
    fn for_seconds(seconds: f64) -> Self {
        let scaled = |base: usize| ((base as f64 * seconds / 20.0).round() as usize).max(3);
        Reps {
            coll_batches: scaled(15),
            coll_calls: 20,
            product: scaled(15),
            model: scaled(5),
            kernel: scaled(25),
        }
    }
}

/// The metric that probes each collective kind, in `CommOp::KINDS` order.
const COLL_METRIC: [&str; CommOp::KINDS.len()] = [
    "mesh.bcast_us",
    "mesh.reduce_us",
    "mesh.allreduce_us",
    "mesh.allgather_us",
    "mesh.reducescatter_us",
    "mesh.barrier_us",
];

/// Per-call seconds of each collective at its modal shape: batches of
/// back-to-back plain calls, the median batch, on every rank.
fn replay_collectives(
    ctx: &DeviceCtx,
    shapes: &[Shape; CommOp::KINDS.len()],
    p2p_elems: usize,
    aligned: &Barrier,
    spans: &mut Spans,
    reps: Reps,
    out: &mut Vec<(&'static str, f64)>,
) {
    let (rank, world) = (ctx.rank(), ctx.world_size());
    let mut timed = |name: &'static str, call: &mut dyn FnMut()| {
        aligned.wait();
        let batch = spans.median_of(name, reps.coll_batches, || {
            for _ in 0..reps.coll_calls {
                call();
            }
        });
        out.push((name, batch / reps.coll_calls as f64));
    };
    let setup = |op: CommOp| {
        let (size, stride, elems) = shapes[op as usize];
        // Zeros: sums stay finite however often they are reduced again.
        (group_of(rank, world, size, stride), vec![0.0f32; elems])
    };

    let (g, mut buf) = setup(CommOp::Broadcast);
    timed(COLL_METRIC[CommOp::Broadcast as usize], &mut || {
        ctx.broadcast(&g, 0, &mut buf)
    });
    let (g, mut buf) = setup(CommOp::Reduce);
    timed(COLL_METRIC[CommOp::Reduce as usize], &mut || {
        ctx.reduce(&g, 0, &mut buf)
    });
    let (g, mut buf) = setup(CommOp::AllReduce);
    timed(COLL_METRIC[CommOp::AllReduce as usize], &mut || {
        ctx.all_reduce(&g, &mut buf)
    });
    let (g, buf) = setup(CommOp::AllGather);
    timed(COLL_METRIC[CommOp::AllGather as usize], &mut || {
        black_box(ctx.all_gather(&g, &buf));
    });
    let (g, mut buf) = setup(CommOp::ReduceScatter);
    buf.resize(buf.len().max(g.len()), 0.0);
    timed(COLL_METRIC[CommOp::ReduceScatter as usize], &mut || {
        black_box(ctx.reduce_scatter(&g, &mut buf));
    });
    let (g, _) = setup(CommOp::Barrier);
    timed(COLL_METRIC[CommOp::Barrier as usize], &mut || {
        ctx.barrier(&g)
    });

    // Ping-pong with the neighbouring rank; half a round trip is one
    // transfer. Worlds here are even.
    let peer = rank ^ 1;
    let block = vec![0.0f32; p2p_elems];
    timed("mesh.sendrecv_us", &mut || {
        if rank % 2 == 0 {
            ctx.send(peer, block.clone());
            black_box(ctx.recv(peer));
        } else {
            black_box(ctx.recv(peer));
            ctx.send(peer, block.clone());
        }
    });
    let pingpong = out.last_mut().expect("just pushed");
    pingpong.1 /= 2.0;
}

/// This device's blocks of the MLP-up product `[m, k] · [k, n]` on a mesh of
/// side `q`: `A`, `B` and an upstream gradient shaped like `C`.
fn mlp_blocks(w: &Workload, q: usize, rank: usize) -> (Tensor, Tensor, Tensor) {
    let (m, k, n) = w.mlp_up_shape();
    let mut rng = Rng::new(rank as u64);
    (
        Tensor::randn(&[m / q, k / q], 1.0, &mut rng),
        Tensor::randn(&[k / q, n / q], 1.0, &mut rng),
        Tensor::randn(&[m / q, n / q], 1.0, &mut rng),
    )
}

/// The forward product and its two gradient products (paper Eq. 1).
fn replay_summa(
    grid: &GridNd,
    w: &Workload,
    spans: &mut Spans,
    reps: Reps,
    out: &mut Vec<(&'static str, f64)>,
) {
    let (a, b, dc) = mlp_blocks(w, grid.q(), grid.ctx().rank());
    let nn = spans.median_of("summa.nn_ms", reps.product, || {
        black_box(summa_nn(grid, &a, &b));
    });
    let nt = spans.median_of("summa.nt_ms", reps.product, || {
        black_box(summa_nt(grid, &dc, &b));
    });
    let tn = spans.median_of("summa.tn_ms", reps.product, || {
        black_box(summa_tn(grid, &a, &dc));
    });
    out.extend([
        ("summa.nn_ms", nn),
        ("summa.nt_ms", nt),
        ("summa.tn_ms", tn),
    ]);
}

/// Times a layer's forward (which yields the cache) and its backward.
fn replay_layer<C>(
    spans: &mut Spans,
    reps: Reps,
    out: &mut Vec<(&'static str, f64)>,
    forward: impl Fn() -> C,
    backward: impl Fn(&C),
) {
    let mut cache = None;
    let fwd = spans.median_of("model.layer_fwd_ms", reps.product, || {
        cache = Some(forward())
    });
    let cache = cache.expect("at least one repetition");
    let bwd = spans.median_of("model.layer_bwd_ms", reps.product, || backward(&cache));
    out.extend([("model.layer_fwd_ms", fwd), ("model.layer_bwd_ms", bwd)]);
}

/// One 2D transformer layer forward and backward on this device's block.
fn replay_layer2d(
    grid: &GridNd,
    model: &OptimusModel,
    spans: &mut Spans,
    reps: Reps,
    out: &mut Vec<(&'static str, f64)>,
) {
    let (cfg, layer) = (model.cfg, &model.layers[0]);
    let mut rng = Rng::new(grid.ctx().rank() as u64);
    let x = Tensor::randn(&[cfg.local_rows(), cfg.local_cols()], 1.0, &mut rng);
    replay_layer(
        spans,
        reps,
        out,
        || layer2d_forward(grid, &cfg, layer, &x).1,
        |cache| {
            black_box(layer2d_backward(grid, &cfg, layer, cache, &x));
        },
    );
}

/// Times a model's forward, forward + backward (which yields the gradients)
/// and optimiser entry points.
fn replay_model<M, G>(
    model: &mut M,
    spans: &mut Spans,
    reps: Reps,
    out: &mut Vec<(&'static str, f64)>,
    forward: impl Fn(&M),
    forward_backward: impl Fn(&mut M) -> G,
    optimise: impl Fn(&mut M, &G),
) {
    let fwd = spans.median_of("model.fwd_ms", reps.model, || forward(model));
    let mut grads = None;
    let fwd_bwd = spans.median_of("model.fwd_bwd_ms", reps.model, || {
        grads = Some(forward_backward(model));
    });
    let grads = grads.expect("at least one repetition");
    let optim = spans.median_of("model.optim_ms", reps.product, || optimise(model, &grads));
    out.extend([
        ("model.fwd_ms", fwd),
        ("model.fwd_bwd_ms", fwd_bwd),
        ("model.optim_ms", optim),
    ]);
}

impl Device<'_> {
    /// Times the model crate's public entry points: forward, forward +
    /// backward, the optimiser (learning rate 0, so parameters stay put),
    /// and a single layer each way.
    fn replay(
        &mut self,
        w: &Workload,
        seed: u64,
        spans: &mut Spans,
        reps: Reps,
        out: &mut Vec<(&'static str, f64)>,
    ) {
        let (tokens, labels) = w.batch(seed, 1);
        let (tokens, labels) = (&tokens[..], &labels[..]);
        match self {
            Device::Optimus(m, g) => {
                let g = &*g;
                replay_model(
                    m,
                    spans,
                    reps,
                    out,
                    |m| {
                        black_box(m.lm_loss(g, tokens, labels));
                    },
                    |m| m.lm_grads(g, tokens, labels).1,
                    |m, grads| m.apply_sgd(grads, 0.0),
                );
                replay_layer2d(g, m, spans, reps, out);
            }
            Device::Hybrid(st, g) => {
                let g = &*g;
                // Forward alone is not a hybrid entry point: time the stage's
                // own 2D model on one microbatch (embedding, this stage's
                // layers, head), every stage mesh at once.
                let micro = st.model.cfg.batch * st.model.cfg.seq;
                replay_model(
                    st,
                    spans,
                    reps,
                    out,
                    |st| {
                        black_box(st.model.lm_loss(g, &tokens[..micro], &labels[..micro]));
                    },
                    |st| st.replica_grads(g, tokens, labels).1,
                    |st, grads| st.model.apply_sgd(grads, 0.0),
                );
                replay_layer2d(g, &st.model, spans, reps, out);
            }
            Device::Megatron(m, ctx) => {
                let ctx = *ctx;
                replay_model(
                    m,
                    spans,
                    reps,
                    out,
                    |m| {
                        black_box(m.lm_loss(ctx, tokens, labels));
                    },
                    |m| m.lm_grads(ctx, tokens, labels).1,
                    |m, grads| m.apply_sgd(grads, 0.0),
                );
                let mut rng = Rng::new(ctx.rank() as u64);
                let x = Tensor::randn(&[w.model.tokens(), w.model.hidden], 1.0, &mut rng);
                let layer = &m.layers[0];
                replay_layer(
                    spans,
                    reps,
                    out,
                    || layer1d_forward(ctx, &m.world, &m.cfg, layer, &x).1,
                    |cache| {
                        black_box(layer1d_backward(ctx, &m.world, &m.cfg, layer, cache, &x));
                    },
                );
            }
        }
    }
}

/// The replay run: seconds per call of every in-mesh probe, the largest
/// over the ranks (a collective is done when its slowest member is).
fn replay_round(
    w: &Workload,
    seed: u64,
    shapes: &[Shape; CommOp::KINDS.len()],
    reps: Reps,
) -> (Vec<(&'static str, f64)>, Vec<Span>) {
    let world = w.world();
    let aligned = Barrier::new(world);
    let (m, k, _) = w.local_mlp_up_shape();
    let epoch = Instant::now();
    let outs = Mesh::run(world, |ctx| {
        let mut spans = Spans::new(ctx.rank(), epoch, true);
        let mut out = Vec::new();
        let setup = spans.open("setup", 0);
        let mut dev = Device::build(w, seed, ctx);
        let (tokens, labels) = w.batch(seed, 0);
        dev.train_step(&tokens, &labels);
        spans.close(setup);

        let replay = spans.open("replay", 0);
        // The activation block a pipeline stage hands to the next.
        replay_collectives(ctx, shapes, m * k, &aligned, &mut spans, reps, &mut out);
        aligned.wait();
        match &dev {
            Device::Optimus(_, g) | Device::Hybrid(_, g) => {
                replay_summa(g, w, &mut spans, reps, &mut out)
            }
            Device::Megatron(..) => {
                let q = w.summa_q();
                replay_summa(
                    &GridNd::with_shape(ctx, &[q, q]),
                    w,
                    &mut spans,
                    reps,
                    &mut out,
                )
            }
        }
        aligned.wait();
        dev.replay(w, seed, &mut spans, reps, &mut out);
        spans.close(replay);
        (out, spans.into_vec())
    });
    let mut worst = BTreeMap::<&'static str, f64>::new();
    let mut spans = Vec::new();
    for (out, s) in outs {
        for (name, secs) in out {
            let slot = worst.entry(name).or_insert(0.0);
            *slot = slot.max(secs);
        }
        spans.extend(s);
    }
    (worst.into_iter().collect(), spans)
}

/// Median seconds of `f` over `reps` calls, after one untimed call.
fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let secs: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&secs)
}

/// Median seconds of the MLP-up product as Tesseract 2.5D SUMMA on
/// `[2, 2, 2]`, the largest over the eight ranks.
fn summa_nn25d_s(w: &Workload, reps: Reps) -> f64 {
    MeshNd::run(&[2, 2, 2], |g| {
        let (a, b, _) = mlp_blocks(w, 2, g.ctx().rank());
        median_secs(reps.product, || {
            black_box(summa_nn(g, &a, &b));
        })
    })
    .into_iter()
    .fold(0.0, f64::max)
}

/// [`median_secs`] of `f` on this thread alone.
fn kernel_s(reps: usize, f: impl FnMut()) -> f64 {
    tensor::pool::with_thread_cap(1, || median_secs(reps, f))
}

/// Single-thread GEMM in the three product forms (forward, and the two
/// gradients of it) at `(m, k, n)`: seconds per call.
fn gemm_s(shape: (usize, usize, usize), reps: usize) -> [f64; 3] {
    let (m, k, n) = shape;
    let mut rng = Rng::new(1);
    let a = Tensor::randn(&[m, k], 1.0, &mut rng);
    let b = Tensor::randn(&[k, n], 1.0, &mut rng);
    let dc = Tensor::randn(&[m, n], 1.0, &mut rng);
    [
        kernel_s(reps, || {
            black_box(tensor::matmul_nn(&a, &b));
        }),
        kernel_s(reps, || {
            black_box(tensor::matmul_nt(&dc, &b));
        }),
        kernel_s(reps, || {
            black_box(tensor::matmul_tn(&a, &dc));
        }),
    ]
}

/// The `tensor` kernels at the shapes one device of `w` gives them.
fn tensor_kernels(w: &Workload, reps: usize, v: &mut Values) {
    let shape = w.local_mlp_up_shape();
    let (m, k, n) = shape;
    let gflops = |secs: f64| 2.0 * (m * k * n) as f64 / secs / 1e9;
    let [nn, nt, tn] = gemm_s(shape, reps);
    v.insert("tensor.gemm_nn_gflops", gflops(nn));
    v.insert("tensor.gemm_nt_gflops", gflops(nt));
    v.insert("tensor.gemm_tn_gflops", gflops(tn));

    // Forward + backward of each element-wise kernel.
    let mut rng = Rng::new(2);
    let scores = Tensor::randn(&[w.local_attn_rows(), w.model.seq], 1.0, &mut rng);
    v.insert(
        "tensor.softmax_us",
        1e6 * kernel_s(reps, || {
            let y = tensor::softmax::softmax_rows(&scores);
            black_box(tensor::softmax::softmax_backward(&scores, &y));
        }),
    );
    let x = Tensor::randn(&[m, k], 1.0, &mut rng);
    let (gamma, beta) = (vec![1.0f32; k], vec![0.0f32; k]);
    v.insert(
        "tensor.layernorm_us",
        1e6 * kernel_s(reps, || {
            let (_, cache) =
                tensor::layernorm::layer_norm_forward(&x, &gamma, &beta, tensor::layernorm::LN_EPS);
            black_box(tensor::layernorm::layer_norm_backward(&x, &cache, &gamma));
        }),
    );
    let up = Tensor::randn(&[m, n], 1.0, &mut rng);
    v.insert(
        "tensor.gelu_us",
        1e6 * kernel_s(reps, || {
            black_box(tensor::ops::gelu_forward(&up));
            black_box(tensor::ops::gelu_backward(&up, &up));
        }),
    );
    let vocab = w.local_vocab();
    let logits = Tensor::randn(&[m, vocab], 1.0, &mut rng);
    let labels: Vec<usize> = (0..m).map(|i| i % vocab).collect();
    v.insert(
        "tensor.xent_us",
        1e6 * kernel_s(reps, || {
            black_box(tensor::loss::cross_entropy(&logits, &labels));
        }),
    );
}

/// Step time of the single-device model on the same task, and its losses
/// (warm-up first) for the output check.
fn serial_steps(w: &Workload, seed: u64, v: &mut Values) -> Vec<f32> {
    let mut model = SerialModel::new(w.model, seed);
    let mut secs = Vec::new();
    let losses = (0..=SERIAL_CHECK_STEPS)
        .map(|i| {
            let (tokens, labels) = w.batch(seed, i);
            let t = Instant::now();
            let loss = model.train_step(&tokens, &labels, LR);
            secs.push(t.elapsed().as_secs_f64());
            loss
        })
        .collect();
    let step = median(&secs[1..]);
    v.insert("serial.step_ms", step * 1e3);
    v.insert("serial.tokens_per_s", w.tokens_per_step() as f64 / step);
    losses
}

/// Counts and ratios read off the two step rounds.
fn step_counters(w: &Workload, plain: &Round, traced: &Round, v: &mut Values) {
    let steps = plain.step_s.len() as f64;
    let p50 = median(&plain.step_s);
    let jobs = (plain.pool.jobs_shared + plain.pool.jobs_inline) as f64;
    v.insert("tensor.pool_jobs_per_step", jobs / steps);
    v.insert(
        "tensor.pool_shared_frac",
        plain.pool.jobs_shared as f64 / jobs.max(1.0),
    );
    v.insert(
        "tensor.pool_idle_ms_per_step",
        plain.pool.idle_ns as f64 / 1e6 / steps,
    );

    let ops: usize = plain.logs.iter().map(|l| l.ops.len()).sum();
    let msgs: usize = plain.logs.iter().map(|l| l.links.len()).sum();
    let busiest = plain
        .logs
        .iter()
        .map(CommLog::total_link_elems)
        .max()
        .unwrap_or(0);
    v.insert("mesh.coll_calls_per_step", ops as f64 / steps);
    v.insert("mesh.link_msgs_per_step", msgs as f64 / steps);
    v.insert(
        "mesh.link_mib_per_step_max_rank",
        (busiest * 4) as f64 / MIB / steps,
    );

    // The wait histograms cover the traced round's warm-up step too.
    let waited_ns = traced
        .devices
        .iter()
        .map(|d| d.wait_ns.values().map(|h| h.sum).sum::<u64>())
        .max()
        .unwrap_or(0);
    let traced_wall: f64 = traced.step_s.iter().sum::<f64>() * (steps + 1.0) / steps;
    v.insert("mesh.wait_frac", waited_ns as f64 / 1e9 / traced_wall);
    v.insert("metrics.overhead_frac", median(&traced.step_s) / p50 - 1.0);

    v.insert("model.bubble_frac_sched", w.bubble_frac());
    v.insert(
        "model.peak_live_microbatches",
        plain.peak_live_microbatches as f64,
    );

    let min = plain.step_s.iter().copied().fold(f64::INFINITY, f64::min);
    v.insert("bench.step_ms_min", min * 1e3);
    v.insert("bench.step_cv", cv(&plain.step_s));
    let losses = &plain.losses[0];
    v.insert("bench.loss_first", losses[1] as f64);
    v.insert("bench.loss_final", losses[losses.len() - 1] as f64);
}

/// The α-β model's price of a step's communication on the paper's testbed,
/// against what the same calls cost here at their modal shapes.
fn cost_model(w: &Workload, plain: &Round, reps: usize, v: &mut Values) {
    let steps = plain.step_s.len() as f64;
    let profile = HardwareProfile::frontera_rtx5000();
    let gpn = profile.gpus_per_node.min(w.world());
    let cost = CostModel::new(profile.clone(), Topology::flat(w.world(), gpn));
    let model_ms = cost.replay_max(&plain.logs) * 1e3 / steps;
    v.insert("perf.comm_model_per_step", model_ms);

    if COLL_METRIC.iter().all(|name| v.contains_key(name)) {
        let measured_ms: f64 = CommOp::KINDS
            .iter()
            .zip(COLL_METRIC)
            .map(|((op, _), name)| plain.logs[0].op_count(*op) as f64 / steps * v[name] / 1e3)
            .sum();
        v.insert("perf.comm_residual_frac", 1.0 - model_ms / measured_ms);
    }

    let search = perf::autotune::AutotuneModel {
        batch: 64,
        seq: 512,
        hidden: 2048,
        heads: 32,
        vocab: 32_000,
        layers: 24,
    };
    v.insert(
        "perf.autotune_512_ms",
        1e3 * kernel_s(reps, || {
            black_box(perf::autotune::autotune(
                &profile,
                &search,
                512,
                f64::INFINITY,
            ));
        }),
    );
}

/// Runs the traced pass of `w`. `seconds` is the time to measure for; `None`
/// (`--quick`) runs five steps per round and skips the replays.
pub fn run(w: &'static Workload, seed: u64, seconds: Option<f64>) -> Traced {
    let plan = match seconds {
        // A third of the time each for the two step rounds; the replays
        // take about as long again.
        Some(s) => StepPlan::Budget {
            secs: s / 3.0,
            est_step_s: None,
        },
        None => StepPlan::Fixed(5),
    };
    let plain = run_round(w, seed, plan, false);
    let traced = run_round(w, seed, StepPlan::Fixed(plain.step_s.len()), true);
    let mut v = Values::new();
    step_counters(w, &plain, &traced, &mut v);
    let p50 = median(&plain.step_s);
    let init: Vec<f64> = [&plain, &traced].iter().map(|r| r.build_s).collect();
    let spawn: Vec<f64> = [&plain, &traced].iter().map(|r| r.spawn_s).collect();
    v.insert("model.init_ms", median(&init) * 1e3);
    v.insert("mesh.spawn_ms", median(&spawn) * 1e3);
    let mut spans = traced.spans.clone();

    if let Some(seconds) = seconds {
        let reps = Reps::for_seconds(seconds);
        let (probes, replay_spans) = replay_round(w, seed, &modal_shapes(&plain.logs[0]), reps);
        spans.extend(replay_spans);
        for (name, secs) in probes {
            let scale = if name.ends_with("_us") { 1e6 } else { 1e3 };
            v.insert(name, secs * scale);
        }
        v.insert("summa.nn25d_ms", summa_nn25d_s(w, reps) * 1e3);
        // Useful share of a SUMMA product: its q local GEMMs, one thread.
        let q = w.summa_q();
        let (m, k, n) = w.mlp_up_shape();
        let [local_nn, ..] = gemm_s((m / q, k / q, n / q), reps.kernel);
        v.insert(
            "summa.local_gemm_frac",
            q as f64 * local_nn * 1e3 / v["summa.nn_ms"],
        );
        let (fwd_bwd, optim) = (v["model.fwd_bwd_ms"], v["model.optim_ms"]);
        v.insert("model.sync_ms", p50 * 1e3 - fwd_bwd - optim);
        v.insert(
            "model.unattributed_frac",
            1.0 - (fwd_bwd + optim) / (p50 * 1e3),
        );
        tensor_kernels(w, reps.kernel, &mut v);
    }
    cost_model(
        w,
        &plain,
        seconds.map_or(3, |s| Reps::for_seconds(s).kernel),
        &mut v,
    );
    let serial = serial_steps(w, seed, &mut v);

    let peak_bytes = traced.peak_bytes();
    Traced {
        rounds: Rounds::checked(w, vec![plain, traced], peak_bytes, &serial),
        values: v,
        spans,
    }
}

impl Workload {
    /// Rows of the attention-score matrix one device soft-maxes:
    /// local sequences × local heads × sequence length.
    fn local_attn_rows(&self) -> usize {
        let (m, _, _) = self.mlp_up_shape();
        let (seqs, heads) = match self.scheme {
            Scheme::Megatron { p } => (m / self.model.seq, self.model.heads / p),
            _ => {
                let q = self.summa_q();
                (m / self.model.seq / q, self.model.heads / q)
            }
        };
        seqs * heads * self.model.seq
    }

    /// Vocabulary columns of one device's logits block.
    fn local_vocab(&self) -> usize {
        match self.scheme {
            Scheme::Megatron { p } => self.model.vocab / p,
            _ => self.model.vocab / self.summa_q(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    #[test]
    fn groups_tile_the_world_like_rows_columns_and_axis_groups() {
        // 4×4 mesh: rows are stride 1, columns stride 4.
        assert_eq!(group_of(6, 16, 4, 1).ranks(), &[4, 5, 6, 7]);
        assert_eq!(group_of(6, 16, 4, 4).ranks(), &[2, 6, 10, 14]);
        // Hybrid pp=2 dp=2 [2,2]: sub-mesh column, dp axis, tie axis.
        assert_eq!(group_of(5, 16, 2, 2).ranks(), &[5, 7]);
        assert_eq!(group_of(13, 16, 2, 4).ranks(), &[9, 13]);
        assert_eq!(group_of(13, 16, 2, 8).ranks(), &[5, 13]);
        // Every member computes the same group.
        for r in group_of(13, 16, 2, 8).ranks() {
            assert_eq!(group_of(*r, 16, 2, 8).ranks(), &[5, 13]);
        }
        // Irregular or non-tiling shapes fall back to the world.
        assert_eq!(group_of(1, 4, 3, 1).len(), 4);
        assert_eq!(group_of(1, 4, 2, 0).len(), 4);
    }

    #[test]
    fn modal_shapes_pick_the_most_frequent_and_lend_it_to_unused_kinds() {
        let (_, logs) = Mesh::run_with_logs(4, |ctx| {
            let world = Group::world(4);
            let pair = group_of(ctx.rank(), 4, 2, 2);
            for _ in 0..3 {
                ctx.broadcast(&pair, 0, &mut [0.0; 8]);
            }
            ctx.broadcast(&world, 0, &mut [0.0; 64]);
            ctx.all_reduce(&world, &mut [0.0; 16]);
        });
        let shapes = modal_shapes(&logs[0]);
        assert_eq!(shapes[CommOp::Broadcast as usize], (2, 2, 8));
        assert_eq!(shapes[CommOp::AllReduce as usize], (4, 1, 16));
        // Never called: borrows the overall mode.
        assert_eq!(shapes[CommOp::AllGather as usize], (2, 2, 8));
        assert_eq!(shapes[CommOp::Barrier as usize], (2, 2, 8));
    }

    #[test]
    fn local_shapes_follow_the_partition() {
        // 2×2, batch 8, 8 heads: 4 sequences × 4 heads × 64 rows.
        assert_eq!(WORKLOADS[0].local_attn_rows(), 1024);
        assert_eq!(WORKLOADS[2].local_attn_rows(), 8 * 2 * 64);
        assert_eq!(WORKLOADS[3].local_attn_rows(), 2 * 4 * 64);
        assert_eq!(WORKLOADS[1].local_vocab(), 64);
        assert_eq!(WORKLOADS[2].local_vocab(), 64);
    }
}
