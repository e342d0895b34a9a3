//! `--dry-run`: one Optimus training step per rank through the trace-only
//! backend, priced by the α-β cost model on the projected mesh.

use crate::{
    emit_trace, memory_estimate, memory_model_json, model_cfg, optimus_cfg, pattern_batch,
    projection_cost, Args,
};
use mesh::{AlgoTable, CommOp, MeshRun};
use optimus_core::OptimusModel;
use tensor::Rng;

/// Traces one Optimus training step per rank through [`mesh::DryRunComm`]
/// (no device threads, no data movement) and prices the recorded schedule
/// with the α-β cost model on the projected `q × q` mesh. With `trace_path`,
/// also records the model-time timeline and exports it as Chrome JSON.
pub fn dry_run_projection(
    a: &Args,
    tables: &AlgoTable,
    trace_path: Option<&str>,
    metrics_path: Option<&str>,
) {
    let cfg = model_cfg(a);
    let ocfg = optimus_cfg(&cfg, a.q);
    ocfg.validate();
    let mut rng = Rng::new(a.seed ^ 0xDA7A);
    let (tokens, labels) = pattern_batch(&cfg, &mut rng);
    let (profile, gpn, cost) = projection_cost(a);
    // The loss values are garbage (trace-backend payloads are zeros); only
    // the communication logs and the timeline matter here.
    let step = |g: &mesh::Grid2d<mesh::DryRunComm>| {
        let mut m = OptimusModel::new(&ocfg, a.seed, g);
        m.train_step(g, &tokens, &labels, a.lr)
    };
    let run = MeshRun::new(&[a.q, a.q, a.depth], tables.clone());
    let (logs, traces) = if trace_path.is_some() {
        let (_, logs, traces) = run.dry_run_traced(cost.ns_pricer(), step);
        (logs, Some(traces))
    } else {
        (run.dry_run_with_logs(step).1, None)
    };

    println!(
        "dry-run projection: {q}x{q}x{d} mesh ({p} devices), one Optimus train step",
        q = a.q,
        d = a.depth,
        p = a.q * a.q * a.depth
    );
    println!(
        "model: batch={} seq={} hidden={} heads={} vocab={} layers={}",
        cfg.batch, cfg.seq, cfg.hidden, cfg.heads, cfg.vocab, cfg.layers
    );
    println!(
        "cost model: profile={}, {placement} placement, {gpn} devices/node",
        profile.name,
        placement = if a.depth > 1 { "rank-major" } else { "bunched" },
    );
    for k in 0..a.depth {
        if a.depth > 1 {
            println!("depth slice {k} — per-device comm time (ms), device (i, j):");
        } else {
            println!("per-device comm time (ms), device (i, j) at row i, column j:");
        }
        for i in 0..a.q {
            let row: Vec<String> = (0..a.q)
                .map(|j| {
                    format!(
                        "{:8.3}",
                        cost.replay(&logs[(i * a.q + j) * a.depth + k]) * 1e3
                    )
                })
                .collect();
            println!("  {}", row.join(" "));
        }
    }
    let ops: usize = logs.iter().map(|l| l.ops.len()).sum();
    let elems: usize = logs.iter().map(|l| l.total_link_elems()).sum();
    let by_kind: Vec<String> = CommOp::KINDS
        .iter()
        .map(|&(op, name)| (Some(op), name))
        .chain([(None, "p2p")])
        .filter_map(|(op, name)| {
            let n: usize = logs.iter().map(|l| l.link_elems(op)).sum();
            (n > 0).then(|| format!("{name} {n}"))
        })
        .collect();
    println!(
        "totals: {ops} collective participations, {elems} f32 sent on links ({})",
        by_kind.join(", ")
    );
    println!(
        "projected step comm time (slowest device): {:.3} ms",
        cost.replay_max(&logs) * 1e3
    );
    if let (Some(path), Some(traces)) = (trace_path, traces) {
        emit_trace(path, &traces, &cost);
    }
    if let Some(path) = metrics_path {
        // No live devices ran, so there is nothing measured to report; the
        // memory numbers come from the analytical model and the report's
        // `source` field says so.
        let report =
            metrics::report_json("dry-run", &[], vec![("memory_model", memory_model_json(a))]);
        std::fs::write(path, report.to_string()).expect("write metrics file");
        println!(
            "wrote metrics report (analytical memory model, no live devices) to {path}; \
             modeled per-device total {:.2} MiB",
            memory_estimate(a).total / (1u64 << 20) as f64
        );
    }
}
