//! Train a small *causal* character language model with Optimus 2D
//! parallelism on a synthetic corpus, then sample from it.
//!
//! The corpus is a deterministic pattern language ("abcabc…", with
//! punctuation), so a correctly learning model drives the loss far below
//! the uniform baseline and the greedy samples reproduce the pattern.
//!
//! ```text
//! cargo run --release --example train_lm
//! ```

use optimus::mesh::Mesh2d;
use optimus::optimus_core::{OptimusConfig, OptimusModel};
use optimus::serial::SerialModel;
use optimus::tensor::Rng;

const ALPHABET: &[u8] = b"abcdefgh.,:; ABC"; // vocab of 16 symbols

fn corpus_window(rng: &mut Rng, seq: usize) -> Vec<usize> {
    // Repeating pattern with a random phase: "abcdefgh." cycled.
    let pattern: Vec<usize> = (0..9).map(|i| i % ALPHABET.len()).collect();
    let phase = rng.below(pattern.len());
    (0..seq)
        .map(|t| pattern[(phase + t) % pattern.len()])
        .collect()
}

fn main() {
    let cfg = OptimusConfig {
        q: 2,
        batch: 8,
        seq: 16,
        hidden: 32,
        heads: 4,
        vocab: ALPHABET.len(),
        layers: 2,
        causal: true,     // decoder-style LM
        checkpoint: true, // train with the paper's memory scheme
        fused_attention: false,
    };
    cfg.validate();
    let steps = 60;
    let lr = 0.5;

    println!(
        "training a causal char-LM on a 2x2 mesh (b={}, s={}, h={}, vocab={})",
        cfg.batch, cfg.seq, cfg.hidden, cfg.vocab
    );
    let uniform = (cfg.vocab as f32).ln();
    println!("uniform-guess loss: {uniform:.3}\n");

    // Build the batched next-token dataset once per step, shared by all
    // devices (each uses its own batch block).
    let mut data_rng = Rng::new(123);
    let mut batches = Vec::with_capacity(steps);
    for _ in 0..steps {
        let mut tokens = Vec::with_capacity(cfg.batch * cfg.seq);
        let mut labels = Vec::with_capacity(cfg.batch * cfg.seq);
        for _ in 0..cfg.batch {
            let window = corpus_window(&mut data_rng, cfg.seq + 1);
            tokens.extend_from_slice(&window[..cfg.seq]);
            labels.extend_from_slice(&window[1..]);
        }
        batches.push((tokens, labels));
    }

    let losses = Mesh2d::run(cfg.q, |grid| {
        let mut model = OptimusModel::new(&cfg, 7, grid);
        batches
            .iter()
            .map(|(t, l)| model.train_step(grid, t, l, lr))
            .collect::<Vec<f32>>()
    });

    for (step, loss) in losses[0].iter().enumerate() {
        if step % 10 == 0 || step == steps - 1 {
            println!("step {step:>3}: loss {loss:.4}");
        }
    }
    let final_loss = *losses[0].last().unwrap();
    assert!(
        final_loss < uniform * 0.5,
        "model failed to learn the pattern: {final_loss} vs uniform {uniform}"
    );

    // Replay the same training serially (same seed, same data) to obtain an
    // identical model we can sample from on one device.
    let mut sampler = SerialModel::new(cfg.model(), 7);
    for (t, l) in &batches {
        sampler.train_step(t, l, lr);
    }

    // Greedy generation: seed with one pattern period, extend s tokens.
    let mut ctx = corpus_window(&mut Rng::new(5), cfg.seq).to_vec();
    let mut generated = String::new();
    for _ in 0..cfg.seq {
        // Run the serial model on a full b*s batch built by repeating ctx.
        let mut tokens = Vec::with_capacity(cfg.batch * cfg.seq);
        for _ in 0..cfg.batch {
            tokens.extend_from_slice(&ctx[ctx.len() - cfg.seq..]);
        }
        let logits = sampler.lm_logits(&sampler.hidden_states(&tokens));
        // Next token = argmax at the last position of sequence 0.
        let row = logits.row(cfg.seq - 1);
        let next = row
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        generated.push(ALPHABET[next] as char);
        ctx.push(next);
    }
    println!("\nfinal loss {final_loss:.4} (uniform {uniform:.3})");
    println!("greedy continuation: {generated:?}");
}
