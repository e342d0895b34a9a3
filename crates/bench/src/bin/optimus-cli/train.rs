//! `train`, `eval` and `generate`: live runs on the thread mesh, plus the
//! extra wall-clock-traced step behind `train --trace` and the metrics
//! report behind `train --metrics`.

use crate::{
    emit_trace, memory_model_json, model_cfg, optimus_cfg, pattern_batch, projection_cost, Args,
    Scheme, PATTERN_PERIOD,
};
use megatron::{MegatronConfig, MegatronModel};
use mesh::{AlgoTable, MeshRun};
use optimus_core::{OptimusConfig, OptimusModel};
use serial::{ModelParams, SerialModel};
use tensor::Rng;

/// Trains under the chosen scheme, every mesh selecting its collectives from
/// `tables`, and returns (losses, canonical params).
pub fn train(a: &Args, tables: &AlgoTable) -> (Vec<f32>, ModelParams) {
    let cfg = model_cfg(a);
    let mut rng = Rng::new(a.seed ^ 0xDA7A);
    let batches: Vec<_> = (0..a.steps)
        .map(|_| pattern_batch(&cfg, &mut rng))
        .collect();
    let ocfg = optimus_cfg(&cfg, a.q);
    match a.scheme {
        Scheme::Serial => {
            let mut m = SerialModel::new(cfg, a.seed);
            let losses = batches
                .iter()
                .map(|(t, l)| m.train_step(t, l, a.lr))
                .collect();
            (losses, m.params)
        }
        Scheme::Megatron => {
            let p = a.q * a.q; // same device count as the 2D run
            let mcfg = MegatronConfig::new(cfg, p).with_checkpoint();
            let (mut out, _) = MeshRun::new(&[p], tables.clone()).run_with_logs(|g| {
                let ctx = g.ctx();
                let mut m = MegatronModel::new(mcfg, a.seed, ctx);
                let losses: Vec<f32> = batches
                    .iter()
                    .map(|(t, l)| m.train_step(ctx, t, l, a.lr))
                    .collect();
                (losses, m.gather_params(ctx))
            });
            let (losses, params) = out.remove(0);
            (losses, params.expect("rank 0 gathers"))
        }
        Scheme::Optimus => {
            // [q, q, 1] is byte-identical to the plain 2D mesh, so one code
            // path serves both; with d > 1 each depth slice runs q/d of the
            // SUMMA rounds and the replicas agree bitwise.
            let run = MeshRun::new(&[a.q, a.q, a.depth], tables.clone());
            let (mut out, _) = run.run_with_logs(|g| {
                let mut m = OptimusModel::new(&ocfg, a.seed, g);
                let losses: Vec<f32> = batches
                    .iter()
                    .map(|(t, l)| m.train_step(g, t, l, a.lr))
                    .collect();
                (losses, m.gather_params(g))
            });
            let (losses, params) = out.remove(0);
            (losses, params.expect("mesh (0,0) gathers"))
        }
        Scheme::Pipeline => {
            // Largest stage count <= q^2 that divides the layer count.
            let stages = (1..=(a.q * a.q).min(cfg.layers))
                .rev()
                .find(|s| cfg.layers.is_multiple_of(*s))
                .unwrap_or(1);
            // One device per stage: the hybrid schedule with no data or
            // tensor parallelism, every layer cache kept.
            let spec = hybrid::HybridSpec {
                pp: stages,
                dp: 1,
                grid: [1, 1, 1],
                microbatches: 2.min(cfg.batch),
            };
            let pcfg = OptimusConfig {
                q: 1,
                checkpoint: false,
                ..ocfg
            };
            let run = MeshRun::new(&[stages], tables.clone());
            let (mut losses, _) = run.run_with_logs(|g| {
                let (mut st, grid) = hybrid::build(g.ctx(), &spec, &pcfg, a.seed);
                batches
                    .iter()
                    .map(|(t, l)| st.train_step(&grid, t, l, a.lr))
                    .collect::<Vec<f32>>()
            });
            let losses = losses.remove(0);
            // Pipeline stages don't implement gather; replay serially (the
            // trajectories are identical) to obtain the parameters.
            let mut m = SerialModel::new(cfg, a.seed);
            for (t, l) in &batches {
                m.train_step(t, l, a.lr);
            }
            (losses, m.params)
        }
    }
}

pub fn eval(a: &Args, tables: &AlgoTable, params: ModelParams) -> f32 {
    let cfg = model_cfg(a);
    let mut rng = Rng::new(a.seed ^ 0xE7A1);
    let (tokens, labels) = pattern_batch(&cfg, &mut rng);
    let ocfg = OptimusConfig {
        checkpoint: false,
        fused_attention: true,
        ..optimus_cfg(&cfg, a.q)
    };
    let run = MeshRun::new(&[a.q, a.q], tables.clone());
    let (losses, _) = run.run_with_logs(|g| {
        let m = OptimusModel::from_params(&ocfg, &params, g);
        m.lm_loss(g, &tokens, &labels)
    });
    losses[0]
}

pub fn generate(a: &Args, params: ModelParams) -> Vec<usize> {
    let cfg = model_cfg(a);
    let model = SerialModel {
        cfg,
        params,
        cls: None,
    };
    let mut ctx_tokens: Vec<usize> = Vec::new();
    for b in 0..cfg.batch {
        for t in 0..cfg.seq {
            ctx_tokens.push((b + t) % PATTERN_PERIOD);
        }
    }
    let mut out = Vec::new();
    for _ in 0..a.len {
        let next = model.greedy_next(&ctx_tokens);
        out.push(next[0]);
        for b in 0..cfg.batch {
            let row = &mut ctx_tokens[b * cfg.seq..(b + 1) * cfg.seq];
            row.rotate_left(1);
            row[cfg.seq - 1] = next[b];
        }
    }
    out
}

/// Runs one extra wall-clock-traced training step (after `train` finishes)
/// under the chosen scheme and exports the timeline; the summary's modeled
/// column uses the same projection cost model as `--dry-run`, so the table
/// is a direct measured-vs-Eq. 4–5 comparison.
pub fn live_trace_step(a: &Args, tables: &AlgoTable, path: &str) {
    let cfg = model_cfg(a);
    let mut rng = Rng::new(a.seed ^ 0x7ACE);
    let (tokens, labels) = pattern_batch(&cfg, &mut rng);
    let (_, _, cost) = projection_cost(a);
    let traces = match a.scheme {
        Scheme::Optimus => {
            let ocfg = optimus_cfg(&cfg, a.q);
            let run = MeshRun::new(&[a.q, a.q, a.depth], tables.clone());
            run.run_traced(|g| {
                let mut m = OptimusModel::new(&ocfg, a.seed, g);
                m.train_step(g, &tokens, &labels, a.lr)
            })
            .2
        }
        Scheme::Megatron => {
            let p = a.q * a.q;
            let mcfg = MegatronConfig::new(cfg, p).with_checkpoint();
            let run = MeshRun::new(&[p], tables.clone());
            run.run_traced(|g| {
                let mut m = MegatronModel::new(mcfg, a.seed, g.ctx());
                m.train_step(g.ctx(), &tokens, &labels, a.lr)
            })
            .2
        }
        other => {
            eprintln!("--trace supports --scheme optimus|megatron (got {other:?}); skipping");
            return;
        }
    };
    println!("traced one extra {:?} training step (wall-clock)", a.scheme);
    emit_trace(path, &traces, &cost);
}

/// Writes the metrics report harvested from a live run and prints the human
/// summary table. `devices` must already be drained from the registry.
pub fn emit_metrics_live(a: &Args, path: &str, devices: &[metrics::DeviceSnapshot]) {
    let report = metrics::report_json(
        "live",
        devices,
        vec![("memory_model", memory_model_json(a))],
    );
    std::fs::write(path, report.to_string()).expect("write metrics file");
    println!(
        "wrote metrics report ({} ranks, measured memory) to {path}",
        devices.len()
    );
    print!("{}", metrics::render_summary(devices));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deep_grid_trains_bitwise_like_the_flat_one() {
        // The CLI-level version of the 2.5D acceptance property: a 2x2x2
        // run produces byte-identical losses and parameters to 2x2.
        let base = Args {
            steps: 2,
            batch: 4,
            seq: 8,
            hidden: 16,
            heads: 4,
            vocab: 16,
            layers: 1,
            q: 2,
            ..Args::default()
        };
        let (flat_losses, flat_params) = train(&base, &AlgoTable::default());
        let (deep_losses, deep_params) = train(&Args { depth: 2, ..base }, &AlgoTable::default());
        assert_eq!(flat_losses, deep_losses);
        assert_eq!(
            flat_params.embedding.as_slice(),
            deep_params.embedding.as_slice()
        );
        assert_eq!(
            flat_params.layers[0].w_qkv.as_slice(),
            deep_params.layers[0].w_qkv.as_slice()
        );
    }

    #[test]
    fn all_schemes_train_and_agree() {
        let base = Args {
            steps: 3,
            batch: 4,
            seq: 8,
            hidden: 16,
            heads: 4,
            vocab: 16,
            layers: 2,
            q: 2,
            ..Args::default()
        };
        let tables = AlgoTable::default();
        let (serial_losses, serial_params) = train(
            &Args {
                scheme: Scheme::Serial,
                ..base
            },
            &tables,
        );
        for scheme in [Scheme::Megatron, Scheme::Optimus, Scheme::Pipeline] {
            let (losses, params) = train(&Args { scheme, ..base }, &tables);
            for (a, b) in losses.iter().zip(&serial_losses) {
                assert!((a - b).abs() < 5e-3, "{scheme:?}: {a} vs {b}");
            }
            tensor::assert_close(
                params.embedding.as_slice(),
                serial_params.embedding.as_slice(),
                1e-3,
                1e-2,
            );
        }
    }

    #[test]
    fn train_eval_generate_flow() {
        let args = Args {
            steps: 120,
            ..Args::default()
        };
        let tables = AlgoTable::default();
        let (losses, params) = train(&args, &tables);
        assert!(*losses.last().unwrap() < 1.0, "must learn the pattern");
        let eval_loss = eval(&args, &tables, params.clone());
        assert!(eval_loss < 1.0, "eval loss {eval_loss}");
        let gen = generate(&args, params);
        // Continuation of sequence 0 (phase 0): next tokens follow the cycle.
        for (i, &t) in gen.iter().enumerate() {
            assert_eq!(t, (args.seq + i) % PATTERN_PERIOD, "position {i}");
        }
    }
}
