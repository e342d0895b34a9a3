//! Command-line driver for the workspace: train/evaluate/generate with any
//! of the parallelism schemes on the simulated mesh, with JSON model
//! checkpoints interchangeable between all of them, and regenerate the
//! paper's tables and figures.
//!
//! ```text
//! optimus-cli train    --scheme optimus --q 2 --layers 2 --steps 40 --save model.json
//! optimus-cli eval     --load model.json --q 2
//! optimus-cli generate --load model.json --len 24
//! optimus-cli --dry-run [--q 8 --hidden 64 ...] [--trace out.json]
//! optimus-cli train --scheme optimus --trace out.json
//! optimus-cli train --scheme optimus --metrics m.json
//! optimus-cli train --grid 2,2,2                    # Tesseract 2.5D mesh
//! optimus-cli --dry-run --grid 8,8,2 --devices 128
//! optimus-cli crossover                             # 1D vs 2D vs 2.5D table
//! optimus-cli autotune --devices 512 --mem-budget 16 [--report R.json] [--check]
//! optimus-cli calibrate [--bench BENCH_gemm.json]
//! optimus-cli tune-coll [--bench BENCH_coll.json] [--save results/coll_tune.json]
//! optimus-cli repro [table1|table2|table3|fig7|fig8|fig9|projection|paradigms|trace|all]
//! optimus-cli info
//! ```
//!
//! One module per command: [`train`] (`train`, `eval`, `generate`),
//! [`dry_run`], [`crossover`], [`autotune`], [`tune_coll`], [`calibrate`]
//! and [`repro`]. This file holds the flags, the dispatch and the helpers
//! they share.
//!
//! `--grid p,q,d` (or `--depth d` next to `--q`) selects a `[q, q, d]`
//! Tesseract mesh: each of the `d` depth slices runs `q/d` of the SUMMA
//! panel rounds and the partial products meet in a depth-subgroup epilogue.
//! `--devices N` cross-checks the grid against an intended device count and
//! fails with a readable message instead of a mid-run panic when
//! `p·q·d ≠ N`. `crossover` prints the projected 512–4096-device table
//! where 2.5D overtakes both 1D Megatron and 2D Optimus.
//!
//! `autotune` enumerates every valid hybrid partition of `--devices N` into
//! pipeline stages × data-parallel replicas × `[q, q, d]` tensor meshes
//! (`pp·dp·q²·d = N`), prices each candidate's training step with the α-β +
//! memory models (`perf::autotune`), cuts the ones that exceed
//! `--mem-budget` GiB per device, and prints the Pareto frontier of
//! throughput vs peak memory. `--report out.json` writes the frontier as a
//! metrics-schema report (`regress-check validate` accepts it); `--check`
//! additionally runs the best 8-device hybrid configuration **live** on the
//! thread mesh and verifies the dry-run backend emitted byte-identical
//! CommLog streams.
//!
//! `--dry-run` (usable bare or with `train`) replays one Optimus training
//! step per rank through the trace-only [`mesh::DryRunComm`] backend — no
//! device threads, no data movement — and prices the recorded communication
//! schedule with the α-β cost model on a projected mesh (8 × 8 by default).
//!
//! `--trace out.json` additionally records a phase-scoped timeline and
//! writes it as Chrome `trace_event` JSON (load in Perfetto or
//! `chrome://tracing`; see OBSERVABILITY.md). Under `--dry-run` the
//! timeline is stamped with α-β model time; under a live `train` it is
//! wall-clock, traced over one extra training step after training ends.
//! Either way a per-phase summary table (measured vs modeled time per
//! collective kind) is printed.
//!
//! `--metrics out.json` writes a runtime metrics report (see
//! OBSERVABILITY.md, "Metrics"): under a live `train`, per-rank **measured**
//! peak memory per phase and per-collective wait histograms harvested from the metered training run; under
//! `--dry-run` the memory numbers come from the `perf::memory` analytical
//! model instead — the report's `source` fields label which is which.
//! Unwritable `--trace`/`--metrics` paths are rejected before the run.
//!
//! `calibrate` reads from a `gemm-bench` artifact the GFLOP/s the in-tree
//! GEMM engine achieves on this host and stores it at
//! `results/calibration.json`. Later `--dry-run` projections pick the file
//! up automatically, so Eq. 4–5 track the measured kernels instead of the
//! paper's GPU profile; `--profile frontera` forces the paper profile back.
//!
//! `tune-coll` does the same for the **collective algorithm registry** from
//! a `coll-bench` artifact (`--bench`, default `BENCH_coll.json`, measured
//! on its `devices`): it keeps a byte-range rule for every cell where
//! coll-bench's winner is not the default algorithm, prints the
//! measured-vs-α-β-modeled winner per cell, and persists the table to
//! `results/coll_tune.json` — which every other command but `repro` loads
//! and hands, as a `mesh::AlgoTable` value, to each mesh it launches
//! (`mesh::MeshRun::new`). Delete the file to return to the built-in
//! defaults.
//!
//! `repro` regenerates every table and figure of the paper's evaluation on
//! the paper's profile and the built-in algorithms, whatever `results/`
//! holds; it takes an artifact name and no flags.
//!
//! The training corpus is the built-in cyclic-pattern language (the same one
//! the tests and examples use), so runs are self-contained and deterministic.

mod autotune;
mod calibrate;
mod crossover;
mod dry_run;
mod repro;
mod train;
mod tune_coll;

use mesh::{AlgoTable, Arrangement, Topology};
use minjson::Json;
use optimus_core::OptimusConfig;
use perf::calibration::CALIBRATION_PATH;
use perf::colltune::COLL_TUNE_PATH;
use perf::memory::MemoryEstimate;
use perf::{Calibration, CollTune, CostModel, HardwareProfile};
use serial::{ModelConfig, ModelParams};
use std::collections::HashMap;
use std::path::Path;
use tensor::Rng;

const PATTERN_PERIOD: usize = 5;

/// Everything the CLI needs to build a run.
#[derive(Clone, Copy, Debug)]
struct Args {
    scheme: Scheme,
    q: usize,
    /// Depth of the Tesseract mesh: `[q, q, depth]` devices, `depth | q`.
    depth: usize,
    /// Intended total device count (`--devices`), checked against the grid.
    devices: Option<usize>,
    batch: usize,
    seq: usize,
    hidden: usize,
    heads: usize,
    vocab: usize,
    layers: usize,
    steps: usize,
    lr: f32,
    seed: u64,
    len: usize,
    dry_run: bool,
    profile: ProfileChoice,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Scheme {
    Serial,
    Megatron,
    Optimus,
    Pipeline,
}

/// Which compute rate the projection cost model uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ProfileChoice {
    /// Paper profile, overridden by `results/calibration.json` when present.
    Auto,
    /// Always the paper's Frontera rtx profile, even if calibrated.
    Frontera,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            scheme: Scheme::Optimus,
            q: 2,
            depth: 1,
            devices: None,
            batch: 8,
            seq: 16,
            hidden: 32,
            heads: 4,
            vocab: 16,
            layers: 2,
            steps: 40,
            lr: 0.5,
            seed: 7,
            len: 16,
            dry_run: false,
            profile: ProfileChoice::Auto,
        }
    }
}

impl Args {
    /// Defaults for a dry-run projection: the paper-scale 8 × 8 mesh, with
    /// the model dimensions scaled to stay divisible by `q = 8`. Explicit
    /// flags still override any of these.
    fn dry_run_defaults() -> Self {
        Args {
            q: 8,
            hidden: 64,
            heads: 8,
            dry_run: true,
            ..Args::default()
        }
    }
}

/// Parses `--key value` pairs (order-free). Returns the remaining error on
/// unknown keys so typos fail loudly. `--dry-run` and `--check` are
/// valueless.
fn parse_flags(argv: &[String]) -> Result<HashMap<String, String>, String> {
    let mut out = HashMap::new();
    let mut it = argv.iter().peekable();
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got '{k}'"))?;
        if matches!(key, "dry-run" | "check") && it.peek().is_none_or(|n| n.starts_with("--")) {
            out.insert(key.to_string(), "true".to_string());
            continue;
        }
        let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        out.insert(key.to_string(), v.clone());
    }
    Ok(out)
}

fn apply_flags(mut args: Args, flags: &HashMap<String, String>) -> Result<Args, String> {
    for (k, v) in flags {
        let us = |v: &str| v.parse::<usize>().map_err(|e| format!("--{k}: {e}"));
        match k.as_str() {
            "scheme" => {
                args.scheme = match v.as_str() {
                    "serial" => Scheme::Serial,
                    "megatron" => Scheme::Megatron,
                    "optimus" => Scheme::Optimus,
                    "pipeline" => Scheme::Pipeline,
                    other => return Err(format!("unknown scheme '{other}'")),
                }
            }
            "q" => args.q = us(v)?,
            "depth" => args.depth = us(v)?,
            "devices" => args.devices = Some(us(v)?),
            "batch" => args.batch = us(v)?,
            "seq" => args.seq = us(v)?,
            "hidden" => args.hidden = us(v)?,
            "heads" => args.heads = us(v)?,
            "vocab" => args.vocab = us(v)?,
            "layers" => args.layers = us(v)?,
            "steps" => args.steps = us(v)?,
            "len" => args.len = us(v)?,
            "seed" => args.seed = v.parse().map_err(|e| format!("--seed: {e}"))?,
            "lr" => args.lr = v.parse().map_err(|e| format!("--lr: {e}"))?,
            "dry-run" => args.dry_run = v.parse().map_err(|e| format!("--dry-run: {e}"))?,
            "profile" => {
                args.profile = match v.as_str() {
                    "auto" => ProfileChoice::Auto,
                    "frontera" => ProfileChoice::Frontera,
                    other => return Err(format!("unknown profile '{other}' (auto|frontera)")),
                }
            }
            "save" | "load" | "trace" | "bench" | "metrics" => {} // handled by the caller
            "mem-budget" | "report" | "check" => {}               // autotune flags, handled there
            "grid" => {} // handled by finalize_mesh (order-independent)
            other => return Err(format!("unknown flag --{other}")),
        }
    }
    Ok(args)
}

/// Applies `--grid p,q,d` and validates the mesh geometry after every flag
/// has landed (flag order must not matter). All failure modes here are user
/// input, so they come back as readable errors, not panics.
fn finalize_mesh(mut args: Args, flags: &HashMap<String, String>) -> Result<Args, String> {
    if let Some(spec) = flags.get("grid") {
        if flags.contains_key("q") || flags.contains_key("depth") {
            return Err("--grid p,q,d already fixes the mesh; drop --q/--depth".to_string());
        }
        let dims: Vec<usize> = spec
            .split(',')
            .map(|s| {
                s.trim()
                    .parse::<usize>()
                    .map_err(|_| format!("--grid: '{s}' is not a device count (want p,q or p,q,d)"))
            })
            .collect::<Result<_, _>>()?;
        let (p, q, d) = match dims[..] {
            [p, q] => (p, q, 1),
            [p, q, d] => (p, q, d),
            _ => {
                return Err(format!(
                    "--grid wants 2 or 3 axes (p,q or p,q,d), got '{spec}'"
                ))
            }
        };
        if p != q {
            return Err(format!(
                "--grid {spec}: SUMMA slices must be square (p = q); got {p}x{q}"
            ));
        }
        args.q = q;
        args.depth = d;
    }
    if args.q == 0 || args.depth == 0 {
        return Err("mesh axes must be at least 1".to_string());
    }
    if !args.q.is_multiple_of(args.depth) {
        return Err(format!(
            "2.5D SUMMA needs the depth to divide the mesh side: --grid {q},{q},{d} \
             (try d in {{1, {hint}}})",
            q = args.q,
            d = args.depth,
            hint = args.q
        ));
    }
    if let Some(n) = args.devices {
        let need = args.q * args.q * args.depth;
        if need != n {
            return Err(format!(
                "a {q}x{q}x{d} grid uses {need} devices, but --devices says {n}; \
                 pick a grid with p*q*d = {n}",
                q = args.q,
                d = args.depth,
            ));
        }
    }
    if args.depth > 1 && args.scheme != Scheme::Optimus {
        return Err(format!(
            "--depth {} only applies to --scheme optimus (the {:?} scheme has no depth axis)",
            args.depth, args.scheme
        ));
    }
    Ok(args)
}

fn model_cfg(a: &Args) -> ModelConfig {
    ModelConfig {
        batch: a.batch,
        seq: a.seq,
        hidden: a.hidden,
        heads: a.heads,
        vocab: a.vocab,
        layers: a.layers,
        causal: true,
    }
}

/// The Optimus training configuration of `cfg` on a `q × q` mesh:
/// checkpointed, attention probabilities cached. `eval` and the pipeline
/// override the two switches.
fn optimus_cfg(cfg: &ModelConfig, q: usize) -> OptimusConfig {
    OptimusConfig {
        q,
        batch: cfg.batch,
        seq: cfg.seq,
        hidden: cfg.hidden,
        heads: cfg.heads,
        vocab: cfg.vocab,
        layers: cfg.layers,
        causal: cfg.causal,
        checkpoint: true,
        fused_attention: false,
    }
}

fn pattern_batch(cfg: &ModelConfig, rng: &mut Rng) -> (Vec<usize>, Vec<usize>) {
    let mut tokens = Vec::with_capacity(cfg.tokens());
    let mut labels = Vec::with_capacity(cfg.tokens());
    for _ in 0..cfg.batch {
        let phase = rng.below(PATTERN_PERIOD);
        for t in 0..cfg.seq {
            tokens.push((phase + t) % PATTERN_PERIOD);
            labels.push((phase + t + 1) % PATTERN_PERIOD);
        }
    }
    (tokens, labels)
}

/// The paper's hardware profile. Under the default `--profile auto`, a
/// `results/calibration.json` written by `optimus-cli calibrate` overrides
/// the compute rate with the one this host's GEMM engine actually measured
/// (communication terms keep modelling the paper's fabric either way); a
/// malformed file is ignored with a warning.
fn calibrated_profile(a: &Args) -> HardwareProfile {
    let paper = HardwareProfile::frontera_rtx5000();
    if a.profile == ProfileChoice::Frontera {
        return paper;
    }
    match Calibration::load(CALIBRATION_PATH) {
        Ok(Some(cal)) => {
            println!(
                "compute rate calibrated to {:.2} GFLOP/s from {CALIBRATION_PATH} \
                 (source: {}; pass --profile frontera for the paper profile)",
                cal.gflops(),
                cal.source,
            );
            cal.apply(paper)
        }
        Ok(None) => paper,
        Err(e) => {
            eprintln!("warning: ignoring calibration: {e}");
            paper
        }
    }
}

/// The projection's cost model: [`calibrated_profile`], bunched placement
/// (Fig. 8) on the projected `q × q` mesh.
fn projection_cost(a: &Args) -> (HardwareProfile, usize, CostModel) {
    let profile = calibrated_profile(a);
    let p = a.q * a.q * a.depth;
    let gpn = profile.gpus_per_node.min(p);
    // Bunched tiling is defined on a square mesh; a deep grid falls back to
    // rank-major placement, which keeps each depth subgroup node-local.
    let topology = if a.depth > 1 {
        Topology::flat(p, gpn)
    } else {
        Topology::new(a.q, gpn, Arrangement::Bunched)
    };
    let cost = CostModel::new(profile.clone(), topology);
    (profile, gpn, cost)
}

/// Writes `traces` as a Chrome `trace_event` JSON file and prints the
/// per-phase summary table, with `cost` supplying the modeled column.
fn emit_trace(path: &str, traces: &[trace::DeviceTrace], cost: &CostModel) {
    let json = trace::chrome_trace(traces);
    std::fs::write(path, json.to_string()).expect("write trace file");
    println!(
        "wrote Chrome trace ({} ranks) to {path} — load in Perfetto or chrome://tracing",
        traces.len()
    );
    let rows = trace::summarize(traces, |m| cost.meta_time(m));
    print!("{}", trace::render_summary(&rows));
}

/// Verifies an output path is writable *before* the run starts, so a typo'd
/// directory fails in milliseconds with a readable error instead of
/// panicking after minutes of training. When the file does not already
/// exist, the probe is removed again.
fn check_writable(flag: &str, path: &str) -> Result<(), String> {
    let existed = Path::new(path).exists();
    match std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
    {
        Ok(_) => {
            if !existed {
                let _ = std::fs::remove_file(path);
            }
            Ok(())
        }
        Err(e) => Err(format!("--{flag} {path} is not writable: {e}")),
    }
}

/// The analytical per-device memory estimate for the current model. The
/// Fig. 9 model covers the square mesh; depth replicas hold the same
/// blocks, so per-device memory is unchanged by d.
fn memory_estimate(a: &Args) -> MemoryEstimate {
    let mc = perf::memory::MemoryConfig {
        seq: a.seq,
        hidden: a.hidden,
        heads: a.heads,
        vocab: a.vocab,
        layers: a.layers,
        p: a.q * a.q,
    };
    perf::memory::optimus_bytes(&mc, a.batch)
}

/// [`memory_estimate`] as a report section — the "model" half of the dual
/// memory discipline: dry-run reports carry only this, live reports carry
/// it next to the measured tracker numbers, and the `source` field inside
/// says which is which.
fn memory_model_json(a: &Args) -> Json {
    let est = memory_estimate(a);
    Json::obj(vec![
        ("source", Json::Str("analytical (perf::memory)".into())),
        ("params_bytes", Json::Num(est.params)),
        ("grads_bytes", Json::Num(est.grads)),
        ("checkpoints_bytes", Json::Num(est.checkpoints)),
        ("working_set_bytes", Json::Num(est.working_set)),
        ("panel_strips_bytes", Json::Num(est.panel_strips)),
        ("total_bytes", Json::Num(est.total)),
    ])
}

fn infer_dims(a: &Args, params: &ModelParams) -> Args {
    Args {
        vocab: params.embedding.rows(),
        hidden: params.embedding.cols(),
        layers: params.layers.len(),
        ..*a
    }
}

/// Prints `error: {e}` and exits with `code`.
fn fail(e: &str, code: i32) -> ! {
    eprintln!("error: {e}");
    std::process::exit(code);
}

fn main() {
    // A reader that stops early (`optimus-cli repro | head`) ends the run
    // quietly with status 0; every other panic reports as usual.
    let report = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info.payload_as_str().unwrap_or("");
        if msg.starts_with("failed printing to stdout") && msg.contains("Broken pipe") {
            std::process::exit(0);
        }
        report(info);
    }));
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // A bare `optimus-cli --dry-run ...` is sugar for `train --dry-run ...`.
    let (cmd, rest) = match argv.split_first() {
        Some((c, _)) if c.starts_with("--") => ("train".to_string(), argv.clone()),
        Some((c, r)) => (c.clone(), r.to_vec()),
        None => {
            eprintln!(
                "usage: optimus-cli [train|eval|generate|calibrate|tune-coll|crossover|autotune|repro|info] --flag value ..."
            );
            std::process::exit(2);
        }
    };
    // `repro` takes an artifact name, not flags, and reads nothing under
    // results/: its numbers are the paper profile's on the built-in tables.
    if cmd == "repro" {
        if let Err(e) = repro::run(&rest) {
            fail(&e, 2);
        }
        return;
    }
    let flags = parse_flags(&rest).unwrap_or_else(|e| fail(&e, 2));
    let base = if flags.contains_key("dry-run") {
        Args::dry_run_defaults()
    } else {
        Args::default()
    };
    let args = apply_flags(base, &flags)
        .and_then(|a| {
            if cmd == "autotune" || cmd == "tune-coll" {
                // autotune sizes its own world: --devices is the world to
                // partition, not a q²·d cross-check (tune-coll refuses it).
                Ok(a)
            } else {
                finalize_mesh(a, &flags)
            }
        })
        .unwrap_or_else(|e| fail(&e, 2));
    // The algorithm table persisted by `tune-coll` applies to every mesh an
    // entry point launches, exactly like the calibrated compute rate —
    // except to `tune-coll` itself, which derives a fresh one.
    let mut tables = AlgoTable::default();
    if cmd != "tune-coll" {
        match CollTune::load(COLL_TUNE_PATH) {
            Ok(Some(tune)) => {
                println!(
                    "collective algorithms: {} tuned rule(s) from {COLL_TUNE_PATH} (source: {})",
                    tune.algo.rules.len(),
                    tune.source
                );
                tables = tune.algo;
            }
            Ok(None) => {}
            Err(e) => eprintln!("warning: ignoring collective tune: {e}"),
        }
    }

    // Reject unwritable output paths before any work happens: a run that
    // trains for minutes and then dies writing its report helps nobody.
    for flag in ["trace", "metrics", "report"] {
        if let Some(path) = flags.get(flag) {
            if let Err(e) = check_writable(flag, path) {
                fail(&e, 2);
            }
        }
    }

    match cmd.as_str() {
        "train" if args.dry_run => dry_run::dry_run_projection(
            &args,
            &tables,
            flags.get("trace").map(|s| s.as_str()),
            flags.get("metrics").map(|s| s.as_str()),
        ),
        "train" => {
            println!(
                "training ({:?}, {} devices) {} steps on the pattern corpus…",
                args.scheme,
                args.q * args.q * args.depth,
                args.steps
            );
            let metrics_path = flags.get("metrics").filter(|_| {
                if args.scheme == Scheme::Serial {
                    eprintln!("--metrics needs a mesh scheme (serial runs no devices); skipping");
                    return false;
                }
                true
            });
            if metrics_path.is_some() {
                metrics::enable();
            }
            let (losses, params) = train::train(&args, &tables);
            let first = losses.first().copied().unwrap_or(0.0);
            let last = losses.last().copied().unwrap_or(0.0);
            println!("loss {first:.4} -> {last:.4} over {} steps", losses.len());
            if let Some(path) = metrics_path {
                metrics::disable();
                let devices = metrics::drain();
                train::emit_metrics_live(&args, path, &devices);
            }
            if let Some(path) = flags.get("save") {
                params.save_json(Path::new(path)).expect("write checkpoint");
                println!("saved canonical checkpoint to {path}");
            }
            if let Some(path) = flags.get("trace") {
                train::live_trace_step(&args, &tables, path);
            }
        }
        "eval" => {
            let path = flags.get("load").expect("eval needs --load <path>");
            let params = ModelParams::load_json(Path::new(path)).expect("read checkpoint");
            let args = infer_dims(&args, &params);
            let loss = train::eval(&args, &tables, params);
            println!("eval loss on a fresh pattern batch: {loss:.4}");
        }
        "generate" => {
            let path = flags.get("load").expect("generate needs --load <path>");
            let params = ModelParams::load_json(Path::new(path)).expect("read checkpoint");
            let args = infer_dims(&args, &params);
            let tokens = train::generate(&args, params);
            println!("greedy continuation (token ids): {tokens:?}");
        }
        "calibrate" => calibrate::calibrate(&flags),
        "tune-coll" => {
            if let Err(e) = tune_coll::tune_coll_cmd(&args, &flags) {
                fail(&e, 1);
            }
        }
        "crossover" => crossover::crossover(&args),
        "autotune" => {
            if let Err(e) = autotune::autotune_cmd(&args, &tables, &flags) {
                fail(&e, 1);
            }
        }
        "info" => {
            println!("optimus-rs CLI — schemes: serial | megatron | optimus | pipeline");
            println!("2.5D meshes: --grid p,q,d (or --q Q --depth D), cross-checked by --devices");
            println!(
                "hybrid 3D/4D: autotune --devices N [--mem-budget GiB] [--report R.json] [--check]"
            );
            println!("defaults: {:?}", Args::default());
        }
        other => {
            eprintln!("unknown command '{other}'");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub fn flags(pairs: &[(&str, &str)]) -> HashMap<String, String> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn flag_parsing_roundtrip() {
        let argv: Vec<String> = ["--steps", "5", "--lr", "0.1", "--scheme", "serial"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let f = parse_flags(&argv).unwrap();
        let a = apply_flags(Args::default(), &f).unwrap();
        assert_eq!(a.steps, 5);
        assert_eq!(a.lr, 0.1);
        assert_eq!(a.scheme, Scheme::Serial);
    }

    #[test]
    fn grid_flag_sets_the_mesh_and_checks_devices() {
        let f = flags(&[("grid", "4,4,2"), ("devices", "32")]);
        let a = apply_flags(Args::default(), &f).unwrap();
        let a = finalize_mesh(a, &f).unwrap();
        assert_eq!((a.q, a.depth), (4, 2));

        // Two-axis form means a plain 2D mesh.
        let f = flags(&[("grid", "3,3")]);
        let a = finalize_mesh(apply_flags(Args::default(), &f).unwrap(), &f).unwrap();
        assert_eq!((a.q, a.depth), (3, 1));

        // --depth alongside --q works without --grid.
        let f = flags(&[("q", "4"), ("depth", "4"), ("devices", "64")]);
        let a = finalize_mesh(apply_flags(Args::default(), &f).unwrap(), &f).unwrap();
        assert_eq!((a.q, a.depth), (4, 4));
    }

    #[test]
    fn bad_grids_fail_with_readable_errors_not_panics() {
        let run = |pairs: &[(&str, &str)]| {
            let f = flags(pairs);
            apply_flags(Args::default(), &f).and_then(|a| finalize_mesh(a, &f))
        };
        // Device-count mismatch names both numbers.
        let e = run(&[("grid", "4,4,2"), ("devices", "33")]).unwrap_err();
        assert!(e.contains("32") && e.contains("33"), "{e}");
        // Non-square slice.
        assert!(run(&[("grid", "4,2,2")]).unwrap_err().contains("square"));
        // Depth must divide the side.
        let e = run(&[("grid", "4,4,3")]).unwrap_err();
        assert!(e.contains("divide"), "{e}");
        // Malformed axis lists.
        assert!(run(&[("grid", "4")]).is_err());
        assert!(run(&[("grid", "4,4,2,2")]).is_err());
        assert!(run(&[("grid", "4,x,2")]).is_err());
        assert!(run(&[("grid", "4,4,0")]).is_err());
        // --grid and --q together is ambiguous.
        assert!(run(&[("grid", "4,4,2"), ("q", "2")]).is_err());
        // Depth needs the Optimus scheme.
        let e = run(&[("scheme", "megatron"), ("q", "4"), ("depth", "2")]).unwrap_err();
        assert!(e.contains("optimus"), "{e}");
    }

    #[test]
    fn unknown_flags_fail() {
        for flag in ["bogus", "wire", "reps", "no-overlap"] {
            assert!(apply_flags(Args::default(), &flags(&[(flag, "1")])).is_err());
        }
        let argv = vec!["steps".to_string()];
        assert!(parse_flags(&argv).is_err());
        // An unknown artifact is rejected with the list of known ones.
        let e = repro::run(&["validate".to_string()]).unwrap_err();
        assert!(e.contains("'validate'") && e.contains("table1|"), "{e}");
    }
}
