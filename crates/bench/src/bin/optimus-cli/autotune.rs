//! `autotune`: every valid hybrid partition of `--devices N`, priced, cut
//! to the memory budget, and the Pareto frontier printed; `--report` writes
//! it, `--check` runs the 8-device winner live.

use crate::{calibrated_profile, Args};
use mesh::{AlgoTable, MeshRun};
use minjson::Json;
use optimus_core::OptimusConfig;
use perf::HardwareProfile;
use std::collections::HashMap;
use tensor::Rng;

fn isqrt_floor(n: usize) -> usize {
    let mut r = (n as f64).sqrt() as usize;
    while (r + 1) * (r + 1) <= n {
        r += 1;
    }
    while r * r > n {
        r -= 1;
    }
    r
}

/// Model dimensions for the autotune sweep. Flags pin any of them; the
/// defaults follow the weak-scaling recipe keyed to the device count (the
/// same sizes the `crossover` table projects: `h = 1024·⌊√N⌋/8`,
/// `b = 48·⌊√N⌋` at `s = 512`), so a bare `autotune --devices 512` prices a
/// paper-scale model rather than the CLI's thread-mesh-sized default.
fn autotune_model(
    a: &Args,
    flags: &HashMap<String, String>,
    devices: usize,
) -> perf::autotune::AutotuneModel {
    let side = isqrt_floor(devices).max(1);
    let pick = |key: &str, pinned: usize, recipe: usize| {
        if flags.contains_key(key) {
            pinned
        } else {
            recipe
        }
    };
    perf::autotune::AutotuneModel {
        batch: pick("batch", a.batch, 48 * side),
        seq: pick("seq", a.seq, 512),
        hidden: pick("hidden", a.hidden, 1024 * (side / 8).max(1)),
        heads: pick("heads", a.heads, 32),
        vocab: pick("vocab", a.vocab, 32_000),
        layers: pick("layers", a.layers, 24),
    }
}

/// Shapes the sweep result as a metrics-schema report (`optimus-metrics-v1`
/// with `source: "dry-run"` — nothing live ran), so `regress-check
/// validate` accepts it and CI can gate on its contents.
fn autotune_report(
    devices: usize,
    budget_bytes: f64,
    model: &perf::autotune::AutotuneModel,
    r: &perf::autotune::AutotuneResult,
) -> Json {
    let cand = |c: &perf::autotune::CandidateCost| {
        Json::obj(vec![
            ("config", Json::Str(c.label())),
            ("pp", Json::Num(c.pp as f64)),
            ("dp", Json::Num(c.dp as f64)),
            ("q", Json::Num(c.q as f64)),
            ("d", Json::Num(c.d as f64)),
            ("microbatches", Json::Num(c.microbatches as f64)),
            ("step_time_s", Json::Num(c.step_time)),
            ("throughput_seq_s", Json::Num(c.throughput)),
            ("peak_bytes", Json::Num(c.peak_bytes)),
            ("bubble_fraction", Json::Num(c.bubble_fraction())),
        ])
    };
    let autotune = Json::obj(vec![
        ("devices", Json::Num(devices as f64)),
        (
            "mem_budget_bytes",
            if budget_bytes.is_finite() {
                Json::Num(budget_bytes)
            } else {
                Json::Null
            },
        ),
        (
            "model",
            Json::obj(vec![
                ("batch", Json::Num(model.batch as f64)),
                ("seq", Json::Num(model.seq as f64)),
                ("hidden", Json::Num(model.hidden as f64)),
                ("heads", Json::Num(model.heads as f64)),
                ("vocab", Json::Num(model.vocab as f64)),
                ("layers", Json::Num(model.layers as f64)),
            ]),
        ),
        ("enumerated", Json::Num(r.enumerated as f64)),
        ("feasible", Json::Num(r.feasible.len() as f64)),
        ("frontier", Json::Arr(r.frontier.iter().map(cand).collect())),
        (
            "best",
            match r.best() {
                Some(b) => Json::Str(b.label()),
                None => Json::Null,
            },
        ),
    ]);
    metrics::report_json("dry-run", &[], vec![("autotune", autotune)])
}

/// The live cross-check behind `autotune --check`: the best 8-device hybrid
/// configuration for a thread-mesh-sized model runs one training step on
/// **both** backends, and the CommLog streams must match byte for byte,
/// rank by rank.
fn autotune_check(profile: &HardwareProfile, tables: &AlgoTable) -> Result<(), String> {
    const CHECK_DEVICES: usize = 8;
    let cfg = OptimusConfig {
        q: 2,
        batch: 8,
        seq: 16,
        hidden: 32,
        heads: 4,
        vocab: 16,
        layers: 2,
        causal: true,
        checkpoint: true,
        fused_attention: false,
    };
    let model = perf::autotune::AutotuneModel {
        batch: cfg.batch,
        seq: cfg.seq,
        hidden: cfg.hidden,
        heads: cfg.heads,
        vocab: cfg.vocab,
        layers: cfg.layers,
    };
    let r = perf::autotune::autotune(profile, &model, CHECK_DEVICES, f64::INFINITY);
    let best = r
        .best()
        .ok_or("no valid 8-device hybrid configuration to cross-check")?;
    let spec = hybrid::HybridSpec {
        pp: best.pp,
        dp: best.dp,
        grid: [best.q, best.q, best.d],
        microbatches: best.microbatches,
    };
    let mut rng = Rng::new(0xC0DE);
    let n = cfg.batch * cfg.seq;
    let tokens: Vec<usize> = (0..n).map(|_| rng.below(cfg.vocab)).collect();
    let labels: Vec<usize> = (0..n).map(|_| rng.below(cfg.vocab)).collect();

    let run = MeshRun::new(&[CHECK_DEVICES], tables.clone());
    let (_, live_logs) = run.run_with_logs(|g| {
        let (mut st, grid) = hybrid::build(g.ctx(), &spec, &cfg, 7);
        st.train_step(&grid, &tokens, &labels, 0.1)
    });
    let (_, dry_logs) = run.dry_run_with_logs(|g| {
        let (mut st, grid) = hybrid::build(g.ctx(), &spec, &cfg, 7);
        st.train_step(&grid, &tokens, &labels, 0.1)
    });
    for (l, d) in live_logs.iter().zip(&dry_logs) {
        if l.ops != d.ops || l.links != d.links {
            return Err(format!(
                "live and dry-run CommLogs diverge at rank {} for {}",
                l.rank,
                best.label()
            ));
        }
    }
    println!(
        "live cross-check ({} on {CHECK_DEVICES} devices): CommLogs byte-identical",
        best.label()
    );
    Ok(())
}

/// The `autotune` command: sweep, table, optional report and live check.
pub fn autotune_cmd(
    a: &Args,
    tables: &AlgoTable,
    flags: &HashMap<String, String>,
) -> Result<(), String> {
    let devices = a
        .devices
        .ok_or("autotune needs --devices N (the world size to partition)")?;
    if devices == 0 {
        return Err("--devices must be at least 1".to_string());
    }
    let budget_bytes = match flags.get("mem-budget") {
        Some(v) => {
            let gb: f64 = v.parse().map_err(|e| format!("--mem-budget: {e}"))?;
            if gb.is_nan() || gb <= 0.0 {
                return Err(format!("--mem-budget {gb} GiB is not a positive budget"));
            }
            gb * (1u64 << 30) as f64
        }
        None => f64::INFINITY,
    };
    let model = autotune_model(a, flags, devices);
    let profile = calibrated_profile(a);
    let t0 = std::time::Instant::now();
    let r = perf::autotune::autotune(&profile, &model, devices, budget_bytes);
    let secs = t0.elapsed().as_secs_f64();

    println!(
        "autotune: {devices} devices, model batch={} seq={} hidden={} heads={} vocab={} layers={}",
        model.batch, model.seq, model.hidden, model.heads, model.vocab, model.layers
    );
    println!(
        "{} valid configurations priced in {:.3} s ({} within budget); profile={}",
        r.enumerated,
        secs,
        r.feasible.len(),
        profile.name
    );
    if r.frontier.is_empty() {
        return Err(format!(
            "no hybrid configuration of {devices} devices fits ({} enumerated, {} within budget); \
             the world must factor as pp*dp*q^2*d with pp | layers, dp | batch and \
             q | gcd(hidden, heads, vocab) — try another --devices or a larger --mem-budget",
            r.enumerated,
            r.feasible.len()
        ));
    }
    println!("Pareto frontier (throughput vs per-device peak memory):");
    println!(
        "{:>22} {:>10} {:>10} {:>10} {:>8}",
        "pp x dp x [grid] x m", "step ms", "seq/s", "peak GiB", "bubble"
    );
    for c in &r.frontier {
        println!(
            "{:>22} {:>10.2} {:>10.1} {:>10.2} {:>8.2}",
            c.label(),
            c.step_time * 1e3,
            c.throughput,
            c.peak_bytes / (1u64 << 30) as f64,
            c.bubble_fraction()
        );
    }
    let best = &r.frontier[0];
    println!(
        "winner: {} — {:.1} seq/s, {:.2} GiB/device peak",
        best.label(),
        best.throughput,
        best.peak_bytes / (1u64 << 30) as f64
    );
    if let Some(path) = flags.get("report") {
        let report = autotune_report(devices, budget_bytes, &model, &r);
        std::fs::write(path, report.to_string()).map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote autotune report to {path}");
    }
    if flags.contains_key("check") {
        autotune_check(&profile, tables)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::flags;
    use crate::{apply_flags, parse_flags};

    #[test]
    fn autotune_rejects_impossible_specs_with_readable_errors() {
        // No --devices at all.
        let tables = AlgoTable::default();
        let e = autotune_cmd(&Args::default(), &tables, &flags(&[])).unwrap_err();
        assert!(e.contains("--devices"), "{e}");
        // A prime world admits no pp·dp·q²·d factorization compatible with
        // the model's divisibility rules.
        let f = flags(&[("devices", "7")]);
        let a = apply_flags(Args::default(), &f).unwrap();
        let e = autotune_cmd(&a, &tables, &f).unwrap_err();
        assert!(e.contains("no hybrid configuration"), "{e}");
        // Nonsense budget.
        let f = flags(&[("devices", "64"), ("mem-budget", "-3")]);
        let a = apply_flags(Args::default(), &f).unwrap();
        let e = autotune_cmd(&a, &tables, &f).unwrap_err();
        assert!(e.contains("mem-budget"), "{e}");
        // --check is valueless, like --dry-run.
        let argv: Vec<String> = ["--devices", "8", "--check"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let f = parse_flags(&argv).unwrap();
        assert_eq!(f.get("check").map(String::as_str), Some("true"));
    }

    #[test]
    fn autotune_model_recipe_scales_with_devices_unless_pinned() {
        let a = Args::default();
        let m = autotune_model(&a, &flags(&[]), 512);
        // 512 devices -> side 22 -> the crossover sizes.
        assert_eq!((m.batch, m.hidden, m.seq), (48 * 22, 2048, 512));
        let f = flags(&[("hidden", "128")]);
        let a = apply_flags(a, &f).unwrap();
        let m = autotune_model(&a, &f, 512);
        assert_eq!(m.hidden, 128, "explicit flags pin the recipe");
        assert_eq!(m.batch, 48 * 22, "unpinned dims keep the recipe");
    }

    #[test]
    fn autotune_report_passes_metrics_validation() {
        let model = perf::autotune::AutotuneModel {
            batch: 8,
            seq: 16,
            hidden: 32,
            heads: 4,
            vocab: 16,
            layers: 2,
        };
        let profile = HardwareProfile::frontera_rtx5000();
        let r = perf::autotune::autotune(&profile, &model, 8, f64::INFINITY);
        assert!(!r.frontier.is_empty());
        let report = autotune_report(8, f64::INFINITY, &model, &r);
        metrics::validate_report(&report).expect("schema-valid report");
        let back = minjson::parse(&report.to_string()).expect("roundtrip");
        let frontier = back
            .get("autotune")
            .and_then(|a| a.get("frontier"))
            .expect("frontier present");
        assert!(matches!(frontier, Json::Arr(v) if !v.is_empty()));
    }

    #[test]
    fn autotune_check_matches_live_and_dry_run_comm_logs() {
        // The acceptance-criteria cross-check, run in-process: byte-equal
        // CommLogs on an 8-device live run.
        autotune_check(&HardwareProfile::frontera_rtx5000(), &AlgoTable::default()).unwrap();
    }
}
