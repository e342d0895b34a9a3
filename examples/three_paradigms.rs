//! The three model-parallelism paradigms on the same model, same data, same
//! four simulated devices: Megatron's 1D tensor parallelism, Optimus's 2D
//! tensor parallelism, and GPipe-style pipeline parallelism. All three must
//! follow the serial training trajectory; what differs is *communication*,
//! which this example measures from the executed runs.
//!
//! ```text
//! cargo run --release --example three_paradigms
//! ```

use optimus::hybrid::{self, HybridSpec};
use optimus::megatron::{MegatronConfig, MegatronModel};
use optimus::mesh::{CommOp, Mesh, Mesh2d};
use optimus::optimus_core::{OptimusConfig, OptimusModel};
use optimus::serial::{ModelConfig, SerialModel};
use optimus::tensor::Rng;

fn main() {
    let model = ModelConfig {
        batch: 8,
        seq: 16,
        hidden: 32,
        heads: 4,
        vocab: 64,
        layers: 4,
        causal: false,
    };
    let mut rng = Rng::new(0);
    let tokens: Vec<usize> = (0..model.tokens())
        .map(|_| rng.below(model.vocab))
        .collect();
    let labels: Vec<usize> = (0..model.tokens())
        .map(|_| rng.below(model.vocab))
        .collect();
    let steps = 3;
    let lr = 0.3;
    let seed = 11;

    let mut serial = SerialModel::new(model, seed);
    let serial_losses: Vec<f32> = (0..steps)
        .map(|_| serial.train_step(&tokens, &labels, lr))
        .collect();

    // 1D tensor parallel on 4 devices.
    let mcfg = MegatronConfig::new(model, 4).with_checkpoint();
    let (meg_losses, meg_logs) = Mesh::run_with_logs(4, |ctx| {
        let mut m = MegatronModel::new(mcfg, seed, ctx);
        (0..steps)
            .map(|_| m.train_step(ctx, &tokens, &labels, lr))
            .collect::<Vec<f32>>()
    });

    // 2D tensor parallel on a 2x2 mesh.
    let ocfg = OptimusConfig {
        q: 2,
        batch: model.batch,
        seq: model.seq,
        hidden: model.hidden,
        heads: model.heads,
        vocab: model.vocab,
        layers: model.layers,
        causal: false,
        checkpoint: true,
        fused_attention: false,
    };
    let (opt_losses, opt_logs) = Mesh2d::run_with_logs(2, |g| {
        let mut m = OptimusModel::new(&ocfg, seed, g);
        (0..steps)
            .map(|_| m.train_step(g, &tokens, &labels, lr))
            .collect::<Vec<f32>>()
    });

    // Pipeline parallel: 4 stages of one device each, 4 microbatches.
    let spec = HybridSpec {
        pp: 4,
        dp: 1,
        grid: [1, 1, 1],
        microbatches: 4,
    };
    let pcfg = OptimusConfig {
        q: 1,
        checkpoint: false,
        ..ocfg
    };
    let (pipe_losses, pipe_logs) = Mesh::run_with_logs(4, |ctx| {
        let (mut st, grid) = hybrid::build(ctx, &spec, &pcfg, seed);
        (0..steps)
            .map(|_| st.train_step(&grid, &tokens, &labels, lr))
            .collect::<Vec<f32>>()
    });

    println!("same model, same data, 4 simulated devices each:\n");
    println!("step   serial     megatron-1D   optimus-2D   pipeline");
    for i in 0..steps {
        println!(
            "{i:>4}   {:.5}    {:.5}       {:.5}      {:.5}",
            serial_losses[i], meg_losses[0][i], opt_losses[0][i], pipe_losses[0][i]
        );
        for l in [meg_losses[0][i], opt_losses[0][i], pipe_losses[0][i]] {
            assert!((l - serial_losses[i]).abs() < 5e-3, "paradigms diverged");
        }
    }

    // Communication inventory per device over the run (f32 elements moved
    // onto the fabric). A collective over a group of one — every SUMMA
    // panel of a one-device pipeline stage — moves nothing and is skipped.
    let wire = |logs: &[optimus::mesh::CommLog]| -> (usize, usize, usize) {
        let l = &logs[0];
        let payload = |kinds: &[CommOp]| -> usize {
            (l.ops.iter())
                .filter(|o| o.group_size > 1 && kinds.contains(&o.op))
                .map(|o| o.elems)
                .sum()
        };
        let bcast = payload(&[CommOp::Broadcast, CommOp::Reduce]);
        let ar = payload(&[CommOp::AllReduce]);
        let p2p = l.total_link_elems();
        (bcast, ar, p2p)
    };
    println!("\nper-device communication inventory (device 0, whole run):");
    println!("paradigm      bcast/reduce payload   all-reduce payload   wire elems sent");
    for (name, logs) in [
        ("megatron-1D", &meg_logs),
        ("optimus-2D", &opt_logs),
        ("pipeline", &pipe_logs),
    ] {
        let (bc, ar, p2p) = wire(logs);
        println!("{name:<12}  {bc:>20}   {ar:>18}   {p2p:>15}");
    }
    println!("\nall three paradigms trained identically; they differ only in how bytes move ✓");
}
