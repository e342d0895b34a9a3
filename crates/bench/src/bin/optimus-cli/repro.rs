//! `repro`: regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! optimus-cli repro [table1|table2|table3|fig7|fig8|fig9|projection|paradigms|trace|all]
//! ```
//!
//! Model numbers come from the paper's Frontera profile (see
//! EXPERIMENTS.md), priced with the built-in collective algorithms; nothing
//! under `results/` is read, so a calibration or a tuned table on disk does
//! not move them. The paper's published numbers are printed alongside.
//! `trace` records one training step's phase-scoped timeline on a 4×4
//! dry-run mesh and cross-checks it against Table 1 (the worked example of
//! OBSERVABILITY.md).

use bench::{f3, f4, render_table, write_csv};
use perf::memory;
use perf::scaling::{self, optimus25d_stem_times, strong_scaling, weak_scaling, LAYERS, SEQ};
use perf::table1::{megatron_layer_costs, optimus_layer_costs};
use perf::{CostModel, HardwareProfile};

/// Paper Table 2: (fwd/seq, bwd/seq, throughput, inference).
const PAPER_WEAK_MEG: [(f64, f64, f64, f64); 4] = [
    (0.0793, 0.2613, 2.9363, 13.1047),
    (0.2081, 0.5149, 1.3831, 4.8046),
    (0.3379, 0.7955, 0.8823, 2.9596),
    (0.4638, 1.0963, 0.6410, 2.1560),
];
const PAPER_WEAK_OPT: [(f64, f64, f64, f64); 4] = [
    (0.0985, 0.2979, 2.5229, 10.1502),
    (0.1764, 0.5312, 1.4134, 5.6704),
    (0.1901, 0.5759, 1.3055, 5.2593),
    (0.2589, 0.7935, 0.9502, 3.8625),
];
/// Paper Table 3.
const PAPER_STRONG_MEG: [(f64, f64, f64, f64); 4] = [
    (0.1225, 0.4749, 1.6737, 8.1616),
    (0.1143, 0.4293, 1.8397, 8.7521),
    (0.1212, 0.4512, 1.7470, 8.2503),
    (0.1195, 0.5306, 1.8180, 8.3711),
];
const PAPER_STRONG_OPT: [(f64, f64, f64, f64); 4] = [
    (0.1888, 0.5691, 1.3195, 5.2966),
    (0.1950, 0.5704, 1.4095, 5.1285),
    (0.1625, 0.4764, 1.5653, 6.1542),
    (0.1253, 0.3716, 2.0123, 7.9808),
];

fn table1(_: &HardwareProfile) {
    println!(
        "== Table 1: per-layer, per-device communication (f32 elems) and computation (MACs) =="
    );
    println!("   symbolic entries evaluated at b=32, s=512, h=4096, p=16\n");
    let (b, s, h, p) = (32, 512, 4096, 16);
    let m = megatron_layer_costs(b, s, h, p);
    let o = optimus_layer_costs(b, s, h, p);
    let rows = vec![
        vec![
            "forward communication".into(),
            format!("{:.3e}", m.fwd_comm),
            format!("{:.3e}", o.fwd_comm),
        ],
        vec![
            "backward communication".into(),
            format!("{:.3e}", m.bwd_comm),
            format!("{:.3e}", o.bwd_comm),
        ],
        vec![
            "forward computation".into(),
            format!("{:.3e}", m.fwd_macs),
            format!("{:.3e}", o.fwd_macs),
        ],
        vec![
            "backward computation".into(),
            format!("{:.3e}", m.bwd_macs),
            format!("{:.3e}", o.bwd_macs),
        ],
    ];
    let t = render_table(&["item \\ scheme", "Megatron", "Optimus"], &rows);
    println!("{t}");
    let _ = write_csv("table1", &["item", "megatron", "optimus"], &rows);
}

fn scaling_table(
    title: &str,
    csv: &str,
    rows_model: &[scaling::ScalingRow],
    paper: &[(f64, f64, f64, f64)],
) {
    println!("-- {title} --");
    let mut rows = Vec::new();
    for (r, p) in rows_model.iter().zip(paper.iter()) {
        rows.push(vec![
            r.nodes.to_string(),
            r.gpus.to_string(),
            r.batch.to_string(),
            r.hidden.to_string(),
            r.heads.to_string(),
            format!("{} ({})", f4(r.fwd_per_seq), f4(p.0)),
            format!("{} ({})", f4(r.bwd_per_seq), f4(p.1)),
            format!("{} ({})", f4(r.throughput), f4(p.2)),
            format!("{} ({})", f4(r.inference), f4(p.3)),
        ]);
    }
    let t = render_table(
        &[
            "#nodes",
            "#GPUs",
            "batch",
            "hidden",
            "#heads",
            "fwd/seq s (paper)",
            "bwd/seq s (paper)",
            "throughput seq/s (paper)",
            "inference seq/s (paper)",
        ],
        &rows,
    );
    println!("{t}");
    let _ = write_csv(
        csv,
        &[
            "nodes",
            "gpus",
            "batch",
            "hidden",
            "heads",
            "fwd_per_seq",
            "bwd_per_seq",
            "throughput",
            "inference",
        ],
        &rows,
    );
}

fn table2(profile: &HardwareProfile) {
    println!("== Table 2: weak scaling (h ∝ q, n ∝ p, s=512, N=24) — model (paper) ==\n");
    let (meg, opt) = weak_scaling(profile);
    scaling_table("Megatron", "table2_megatron", &meg, &PAPER_WEAK_MEG);
    scaling_table("Optimus", "table2_optimus", &opt, &PAPER_WEAK_OPT);
    let r = opt[3].throughput / meg[3].throughput;
    let ri = opt[3].inference / meg[3].inference;
    println!(
        "64-GPU speedup Optimus/Megatron: training {:.2}x (paper 1.48x), inference {:.2}x (paper 1.79x)\n",
        r, ri
    );
}

fn table3(profile: &HardwareProfile) {
    println!(
        "== Table 3: strong scaling (fixed problem, h=3072, s=512, N=24) — model (paper) ==\n"
    );
    let (meg, opt) = strong_scaling(profile);
    scaling_table(
        "Megatron (b=12)",
        "table3_megatron",
        &meg,
        &PAPER_STRONG_MEG,
    );
    scaling_table("Optimus (b=24)", "table3_optimus", &opt, &PAPER_STRONG_OPT);
}

fn fig7(profile: &HardwareProfile) {
    println!("== Figure 7: weak (left) and strong (right) scaling efficiency ==\n");
    let (wm, wo) = weak_scaling(profile);
    let mut rows = Vec::new();
    for (m, o) in wm.iter().zip(&wo) {
        rows.push(vec![m.gpus.to_string(), f3(m.efficiency), f3(o.efficiency)]);
    }
    println!("weak scaling efficiency  E = T_serial / (p · T_p)");
    let t = render_table(&["#GPUs", "Megatron", "Optimus"], &rows);
    println!("{t}");
    let _ = write_csv("fig7_weak", &["gpus", "megatron_eff", "optimus_eff"], &rows);

    let (sm, so) = strong_scaling(profile);
    let mut rows = Vec::new();
    for (m, o) in sm.iter().zip(&so) {
        rows.push(vec![
            m.gpus.to_string(),
            f3(m.efficiency),
            f3(o.efficiency),
            f3(m.speedup),
            f3(o.speedup),
        ]);
    }
    println!("strong scaling: efficiency E = T_serial/(p·T_p) and speedup S = T_serial/T_p");
    println!("(the paper's right panel shows Megatron falling and Optimus rising with a 64-GPU");
    println!(" crossover; in this model the crossover appears in E, S and raw throughput)");
    let t = render_table(&["#GPUs", "Meg E", "Opt E", "Meg S", "Opt S"], &rows);
    println!("{t}");
    let _ = write_csv(
        "fig7_strong",
        &[
            "gpus",
            "megatron_eff",
            "optimus_eff",
            "megatron_speedup",
            "optimus_speedup",
        ],
        &rows,
    );
}

fn fig8(profile: &HardwareProfile) {
    println!("== Figure 8: naive vs bunched GPU arrangement ==\n");
    use mesh::{Arrangement, Topology};

    // (a) The paper's claim at the collective level: a column broadcast
    // crowds 4 concurrent flows per uplink under the naive placement but
    // only 2 under the bunched one.
    println!("column broadcast of one 64 MB panel on a 4x4 mesh (the paper's example):");
    let mut rows = Vec::new();
    let col: Vec<usize> = (0..4).map(|i| i * 4 + 1).collect();
    let elems = 16 << 20;
    for (name, arr) in [
        ("naive", Arrangement::Naive),
        ("bunched", Arrangement::Bunched),
    ] {
        let cm = CostModel::new(profile.clone(), Topology::new(4, 4, arr));
        let topo = Topology::new(4, 4, arr);
        rows.push(vec![
            name.to_string(),
            topo.nodes_spanned(&col).to_string(),
            f4(cm.broadcast_time(&col, elems)),
        ]);
    }
    let t = render_table(&["arrangement", "nodes spanned", "bcast time s"], &rows);
    println!("{t}");
    let _ = write_csv(
        "fig8_collective",
        &["arrangement", "nodes_spanned", "bcast_s"],
        &rows,
    );

    // (b) Whole-stem ablation: the aggregate picture depends on the traffic
    // mix. Activation panels (the 7bsh term) ride mesh *rows*, which the
    // naive placement keeps intra-node, so at the paper's weak-scaling
    // shapes naive wins overall even though bunched wins every column
    // collective — an honest model-level finding recorded in EXPERIMENTS.md.
    println!("whole-stem iteration time (fwd+bwd) under each arrangement:");
    let mut rows = Vec::new();
    for &(_, gpus, q, h, _, _, b) in &scaling::WEAK_CONFIGS {
        if gpus <= profile.gpus_per_node {
            continue; // single node: arrangements coincide
        }
        let t = |arr| {
            let cm = CostModel::new(
                profile.clone(),
                Topology::new(q, profile.gpus_per_node, arr),
            );
            let (fwd, bwd) = optimus25d_stem_times(&cm, b, SEQ, h, LAYERS, q, 1);
            fwd + bwd
        };
        let naive = t(Arrangement::Naive);
        let bunched = t(Arrangement::Bunched);
        rows.push(vec![
            gpus.to_string(),
            format!("{q}x{q}"),
            f3(naive),
            f3(bunched),
            format!("{:.2}x", naive / bunched),
        ]);
    }
    let t = render_table(
        &[
            "#GPUs",
            "mesh",
            "naive iter s",
            "bunched iter s",
            "naive/bunched",
        ],
        &rows,
    );
    println!("{t}");
    let _ = write_csv(
        "fig8_stem",
        &["gpus", "mesh", "naive_s", "bunched_s", "ratio"],
        &rows,
    );
}

fn fig9(profile: &HardwareProfile) {
    println!("== Figure 9: memory limits — max batch ξ(η): runs with ξ, OOMs at η ==\n");
    let (meg, opt) = memory::fig9(profile, 4);
    let mut rows = Vec::new();
    for (m, o) in meg.iter().zip(&opt) {
        rows.push(vec![
            m.gpus.to_string(),
            m.hidden.to_string(),
            format!("{} ({})", m.runs, m.ooms),
            format!("{} ({})", o.runs, o.ooms),
            format!("{:.1}x", o.runs as f64 / m.runs.max(1) as f64),
        ]);
    }
    let t = render_table(
        &[
            "#GPUs",
            "hidden",
            "Megatron max b",
            "Optimus max b",
            "advantage",
        ],
        &rows,
    );
    println!("{t}");
    println!("paper: Optimus runs b=480 on 64 GPUs, 8x Megatron's limit\n");
    let _ = write_csv(
        "fig9",
        &[
            "gpus",
            "hidden",
            "megatron_runs",
            "optimus_runs",
            "advantage",
        ],
        &rows,
    );
}

fn paradigms(profile: &HardwareProfile) {
    println!("== Paradigm comparison (beyond the paper): pipeline vs tensor parallelism ==\n");
    use mesh::Topology;
    use perf::paradigms::{attention_partition_volumes, pipeline_stem_times};
    use perf::scaling::megatron_stem_times;

    println!("stem step time at the paper's weak-scaling points (seconds/iteration):");
    let mut rows = Vec::new();
    for &(_, gpus, q, h, _, b_meg, b_opt) in &scaling::WEAK_CONFIGS {
        let gpn = profile.gpus_per_node.min(gpus);
        let cm_flat = CostModel::new(profile.clone(), Topology::flat(gpus, gpn));
        let cm_mesh = CostModel::new(
            profile.clone(),
            Topology::new(q, gpn, mesh::Arrangement::Bunched),
        );
        let (mf, mb) = megatron_stem_times(&cm_flat, b_meg, SEQ, h, LAYERS, gpus);
        let (of, ob) = optimus25d_stem_times(&cm_mesh, b_opt, SEQ, h, LAYERS, q, 1);
        // Pipeline with as many stages as devices (layers=24 divides by 4,
        // not by 36/64 — cap stages at a divisor of 24).
        let stages = (1..=gpus.min(LAYERS))
            .rev()
            .find(|s| LAYERS.is_multiple_of(*s))
            .unwrap();
        let (pf, pb) = pipeline_stem_times(&cm_flat, b_opt, SEQ, h, LAYERS, stages, 8);
        rows.push(vec![
            gpus.to_string(),
            h.to_string(),
            f3((mf + mb) / b_meg as f64 * b_opt as f64), // normalised to b_opt
            f3(of + ob),
            format!("{} ({} stages)", f3(pf + pb), stages),
        ]);
    }
    let t = render_table(
        &[
            "#GPUs",
            "hidden",
            "megatron (scaled)",
            "optimus",
            "pipeline",
        ],
        &rows,
    );
    println!("{t}");
    let _ = write_csv(
        "paradigms",
        &["gpus", "hidden", "megatron_s", "optimus_s", "pipeline_s"],
        &rows,
    );

    println!("attention partition (Sec. 3.2.1): per-layer comm volume, f32 elems/device:");
    let mut rows = Vec::new();
    for &(_, gpus, _, h, n, _, b_opt) in &scaling::WEAK_CONFIGS {
        let v = attention_partition_volumes(b_opt, SEQ, h, n, gpus);
        rows.push(vec![
            gpus.to_string(),
            format!("{:.3e}", v.batch_hidden),
            format!("{:.3e}", v.seq_hidden),
            format!("{:.2}x", v.seq_hidden / v.batch_hidden),
        ]);
    }
    let t = render_table(
        &["#GPUs", "(b,h) adopted", "(s,h) rejected", "penalty"],
        &rows,
    );
    println!("{t}");
    let _ = write_csv(
        "attention_partition",
        &["gpus", "adopted", "rejected", "penalty"],
        &rows,
    );
}

fn projection(profile: &HardwareProfile) {
    println!("== Projection: weak scaling extended to 1024 devices (beyond the paper) ==\n");
    use perf::projection::{torus_profile, weak_scaling_projection};
    for (name, prof) in [
        ("frontera", profile.clone()),
        ("torus (TPU-like)", torus_profile()),
    ] {
        println!("-- {name} --");
        let pts = weak_scaling_projection(&prof);
        let mut rows = Vec::new();
        for p in &pts {
            rows.push(vec![
                p.gpus.to_string(),
                p.hidden.to_string(),
                p.batch_megatron.to_string(),
                p.batch_optimus.to_string(),
                f3(p.megatron_throughput),
                f3(p.optimus_throughput),
                format!("{:.2}x", p.advantage),
            ]);
        }
        let t = render_table(
            &[
                "#GPUs",
                "hidden",
                "b_meg",
                "b_opt",
                "meg thr",
                "opt thr",
                "advantage",
            ],
            &rows,
        );
        println!("{t}");
        let _ = write_csv(
            &format!("projection_{}", name.split(' ').next().unwrap()),
            &[
                "gpus",
                "hidden",
                "b_meg",
                "b_opt",
                "meg_thr",
                "opt_thr",
                "advantage",
            ],
            &rows,
        );
    }
}

/// Traces one Optimus training step on a 4×4 dry-run mesh (timeline stamped
/// with α-β model time), prints the per-phase summary, and cross-checks the
/// recorded volumes against the Table 1 closed forms — the worked example of
/// EXPERIMENTS.md and OBSERVABILITY.md.
fn trace_demo(profile: &HardwareProfile) {
    use mesh::{Arrangement, Mesh, Mesh2d, Topology};
    use optimus_core::{OptimusConfig, OptimusModel};
    use tensor::Rng;

    println!("== Trace: one Optimus train step on a 4x4 dry-run mesh ==\n");
    let q = 4;
    let ocfg = OptimusConfig {
        q,
        batch: 8,
        seq: 16,
        hidden: 64,
        heads: 8,
        vocab: 32,
        layers: 2,
        causal: true,
        checkpoint: true,
        fused_attention: false,
    };
    let mut rng = Rng::new(0x7ACE);
    let n = ocfg.batch * ocfg.seq;
    let tokens: Vec<usize> = (0..n).map(|_| rng.below(ocfg.vocab)).collect();
    let labels: Vec<usize> = (0..n).map(|_| rng.below(ocfg.vocab)).collect();
    let cost = CostModel::new(
        profile.clone(),
        Topology::new(q, profile.gpus_per_node, Arrangement::Bunched),
    );
    let (_, _, traces) = Mesh2d::dry_run_traced(q, cost.ns_pricer(), |g| {
        let mut m = OptimusModel::new(&ocfg, 7, g);
        m.train_step(g, &tokens, &labels, 0.1)
    });
    let rows = trace::summarize(&traces, |m| cost.meta_time(m));
    println!("{}", trace::render_summary(&rows));

    // Table 1 cross-check, Megatron column: one layer forward on p = q²
    // devices does two ring all-reduces of b·s·h elements; the wire volume
    // per device is 4(p−1)/p·bsh — exactly Table 1's forward entry.
    let p = q * q;
    let model_cfg = serial::ModelConfig {
        batch: ocfg.batch,
        seq: ocfg.seq,
        hidden: ocfg.hidden,
        heads: 16, // heads must divide by p for the 1D scheme
        vocab: ocfg.vocab,
        layers: 1,
        causal: true,
    };
    let mcfg = megatron::MegatronConfig::new(model_cfg, p);
    let full = serial::LayerParams::init(0, 0, model_cfg.hidden);
    let mut rng = Rng::new(1);
    let x = tensor::Tensor::randn(&[model_cfg.tokens(), model_cfg.hidden], 1.0, &mut rng);
    let (_, logs) = Mesh::dry_run_with_logs(p, |ctx| {
        let world = mesh::Group::world(p);
        let low = megatron::Megatron1d {
            ctx,
            world: &world,
            cfg: &mcfg,
        };
        let lp = serial::shard_layer(&low, &full);
        megatron::layer1d_forward(ctx, &world, &mcfg, &lp, &x);
    });
    let wire: usize = logs
        .iter()
        .map(|log| log.link_elems(Some(mesh::CommOp::AllReduce)))
        .sum();
    let wire_per_dev = wire / p;
    let table1 = megatron_layer_costs(model_cfg.batch, model_cfg.seq, model_cfg.hidden, p).fwd_comm;
    println!(
        "[table 1 cross-check] traced AllReduce wire volume {} elems/device, closed form 4(p-1)/p*bsh = {} -> {}",
        wire_per_dev,
        table1,
        if (wire_per_dev as f64 - table1).abs() < 1e-6 {
            "OK"
        } else {
            "MISMATCH"
        }
    );
    assert!((wire_per_dev as f64 - table1).abs() < 1e-6);
    println!();
}

/// Prints one artifact and writes its CSVs.
type Artifact = fn(&HardwareProfile);

/// Every artifact, in the order `all` prints them.
const ARTIFACTS: [(&str, Artifact); 9] = [
    ("table1", table1),
    ("table2", table2),
    ("table3", table3),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("projection", projection),
    ("paradigms", paradigms),
    ("trace", trace_demo),
];

/// The `repro` command: prints the artifact `argv` names (`all` when it
/// names none) and writes its CSVs under `results/`. An unknown name, or
/// more than one, is an error that lists the artifacts.
pub fn run(argv: &[String]) -> Result<(), String> {
    let usage = || {
        let names: Vec<&str> = ARTIFACTS.iter().map(|(name, _)| *name).collect();
        format!("usage: optimus-cli repro [{}|all]", names.join("|"))
    };
    let artifact = match argv {
        [] => "all",
        [a] => a.as_str(),
        _ => return Err(format!("repro takes one artifact name; {}", usage())),
    };
    if artifact != "all" && !ARTIFACTS.iter().any(|(name, _)| *name == artifact) {
        return Err(format!("unknown artifact '{artifact}'; {}", usage()));
    }
    let profile = HardwareProfile::frontera_rtx5000();
    for (name, f) in ARTIFACTS {
        if artifact == "all" || artifact == name {
            f(&profile);
        }
    }
    Ok(())
}
