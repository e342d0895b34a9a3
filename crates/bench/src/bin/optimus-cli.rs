//! Command-line driver for the workspace: train/evaluate/generate with any
//! of the parallelism schemes on the simulated mesh, with JSON model
//! checkpoints interchangeable between all of them.
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
//! optimus-cli tune-coll [--devices 8] [--reps 24] [--wire bf16] [--save results/coll_tune.json]
//! optimus-cli info
//! ```
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
//! CommLog streams and a `tracecheck`-reconciled (< 1e-5) priced timeline.
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
//! `calibrate` measures (or reads from a `gemm-bench` artifact) the GFLOP/s
//! the in-tree GEMM engine actually achieves on this host and stores it at
//! `results/calibration.json`. Later `--dry-run` projections pick the file
//! up automatically, so Eq. 4–5 track the measured kernels instead of the
//! paper's GPU profile; `--profile frontera` forces the paper profile back.
//!
//! `tune-coll` does the same for the **collective algorithm registry**: it
//! times every algorithm on each collective's menu across message sizes on
//! the live thread mesh (`--devices`, default 8), keeps a byte-range rule
//! for every cell where a non-default algorithm measures fastest, prints
//! the measured-vs-α-β-modeled winner per cell, gates the table with a
//! tracecheck-reconciled (< 1e-5) 8 × 8 dry-run, and persists it to
//! `results/coll_tune.json` — which every other command loads and hands,
//! as a `mesh::CollTables` value, to each mesh it launches
//! (`mesh::MeshRun::new`). Delete the file to return to the built-in
//! defaults. Every cell is additionally measured on the compressed 16-bit
//! wire (bf16 by default) and reported next to the full-width winner;
//! `--wire bf16` (or `f16`) opts in to *persisting* wire-precision rules
//! for the cells where compression measured faster, which subsequent runs
//! then select from too — an explicit opt-in, because a compressed wire
//! trades bitwise f32 reproducibility for bandwidth (see DESIGN.md §11).
//!
//! The training corpus is the built-in cyclic-pattern language (the same one
//! the tests and examples use), so runs are self-contained and deterministic.

use megatron::{MegatronConfig, MegatronModel};
use mesh::{
    AlgoRule, AlgoTable, Arrangement, CollAlgo, CollPlan, CollTables, CommOp, MeshRun, Topology,
    WireDtype, WireRule, WireTable,
};
use minjson::Json;
use optimus_core::{OptimusConfig, OptimusModel};
use perf::calibration::CALIBRATION_PATH;
use perf::colltune::COLL_TUNE_PATH;
use perf::{Calibration, CollTune, CostModel, HardwareProfile};
use serial::{ModelConfig, ModelParams, SerialModel};
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
            "reps" | "wire" => {}                                 // tune-coll flags, handled there
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

/// Trains under the chosen scheme, every mesh selecting its collectives from
/// `tables`, and returns (losses, canonical params).
fn train(a: &Args, tables: &CollTables) -> (Vec<f32>, ModelParams) {
    let cfg = model_cfg(a);
    let mut rng = Rng::new(a.seed ^ 0xDA7A);
    let batches: Vec<_> = (0..a.steps)
        .map(|_| pattern_batch(&cfg, &mut rng))
        .collect();
    let ocfg = OptimusConfig {
        q: a.q,
        batch: cfg.batch,
        seq: cfg.seq,
        hidden: cfg.hidden,
        heads: cfg.heads,
        vocab: cfg.vocab,
        layers: cfg.layers,
        causal: cfg.causal,
        checkpoint: true,
        fused_attention: false,
    };
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

fn eval(a: &Args, tables: &CollTables, params: ModelParams) -> f32 {
    let cfg = model_cfg(a);
    let mut rng = Rng::new(a.seed ^ 0xE7A1);
    let (tokens, labels) = pattern_batch(&cfg, &mut rng);
    let ocfg = OptimusConfig {
        q: a.q,
        batch: cfg.batch,
        seq: cfg.seq,
        hidden: cfg.hidden,
        heads: cfg.heads,
        vocab: cfg.vocab,
        layers: cfg.layers,
        causal: cfg.causal,
        checkpoint: false,
        fused_attention: true,
    };
    let run = MeshRun::new(&[a.q, a.q], tables.clone());
    let (losses, _) = run.run_with_logs(|g| {
        let m = OptimusModel::from_params(&ocfg, &params, g);
        m.lm_loss(g, &tokens, &labels)
    });
    losses[0]
}

fn generate(a: &Args, params: ModelParams) -> Vec<usize> {
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

/// The projection's cost model: the paper's hardware profile, bunched
/// placement (Fig. 8) on the projected `q × q` mesh. Under the default
/// `--profile auto`, a `results/calibration.json` written by
/// `optimus-cli calibrate` overrides the compute rate with the one this
/// host's GEMM engine actually measured (communication terms keep modelling
/// the paper's fabric either way).
fn projection_cost(a: &Args) -> (HardwareProfile, usize, CostModel) {
    let mut profile = HardwareProfile::frontera_rtx5000();
    if a.profile == ProfileChoice::Auto {
        match Calibration::load(CALIBRATION_PATH) {
            Ok(Some(cal)) => {
                println!(
                    "compute rate calibrated to {:.2} GFLOP/s from {CALIBRATION_PATH} \
                     (source: {}; pass --profile frontera for the paper profile)",
                    cal.gflops(),
                    cal.source,
                );
                profile = cal.apply(profile);
            }
            Ok(None) => {}
            Err(e) => eprintln!("warning: ignoring calibration: {e}"),
        }
    }
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

/// Extracts a [`Calibration`] from a `gemm-bench` artifact: the engine row
/// with the most MACs (the most load-bearing
/// measurement, `square-512` in a full run). `Ok(None)` if the file is
/// absent so the caller can fall back to measuring in-process.
fn calibration_from_bench(path: &str) -> Result<Option<Calibration>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("read {path}: {e}")),
    };
    let doc = minjson::parse(&text).map_err(|e| format!("parse {path}: {e:?}"))?;
    let results = match doc.get("results")? {
        Json::Arr(rows) => rows,
        other => return Err(format!("expected results array, got {other:?}")),
    };
    let mut best: Option<(usize, Calibration)> = None;
    for row in results {
        let (m, k, n) = (
            row.get("m")?.as_usize()?,
            row.get("k")?.as_usize()?,
            row.get("n")?.as_usize()?,
        );
        let macs = m * k * n;
        if best.as_ref().is_none_or(|(b, _)| macs > *b) {
            let name = match row.get("name")? {
                Json::Str(s) => s.clone(),
                other => return Err(format!("expected string name, got {other:?}")),
            };
            best = Some((
                macs,
                Calibration {
                    mac_rate: row.get("gflops")?.as_f64()? * 1e9 / 2.0,
                    shape: [m, k, n],
                    source: format!("{path}:{name}"),
                },
            ));
        }
    }
    match best {
        Some((_, cal)) => Ok(Some(cal)),
        None => Err(format!("{path} has no result rows")),
    }
}

/// Measures the engine in-process at 512³ (the same configuration
/// `gemm-bench` uses for its seed-speedup headline).
fn calibration_measured() -> Calibration {
    use tensor::gemm::{gemm_acc, Form};
    const S: usize = 512;
    let a = tensor::Tensor::randn(&[S, S], 1.0, &mut Rng::new(1)).into_vec();
    let b = tensor::Tensor::randn(&[S, S], 1.0, &mut Rng::new(2)).into_vec();
    let mut c = vec![0.0f32; S * S];
    let secs = bench::bench_fn("calibrate", "square-512", 5, || {
        gemm_acc(Form::NN, &mut c, S, S, &a, &b, S);
        c[0]
    });
    Calibration {
        mac_rate: (S * S * S) as f64 / secs,
        shape: [S, S, S],
        source: format!("measured in-process ({})", tensor::gemm::kernel_name()),
    }
}

/// The `calibrate` command: derive the measured compute rate (preferring an
/// existing `gemm-bench` artifact, measuring in-process otherwise) and
/// persist it where [`projection_cost`] auto-loads it.
fn calibrate(flags: &HashMap<String, String>) {
    let bench_path = flags
        .get("bench")
        .map(String::as_str)
        .unwrap_or("BENCH_gemm.json");
    let cal = match calibration_from_bench(bench_path) {
        Ok(Some(cal)) => {
            println!("read measured rate from {bench_path}");
            cal
        }
        Ok(None) => {
            println!("{bench_path} not found; measuring 512^3 in-process (~seconds)…");
            calibration_measured()
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let out = flags
        .get("save")
        .map(String::as_str)
        .unwrap_or(CALIBRATION_PATH);
    cal.save(out).expect("write calibration file");
    println!(
        "calibrated: {:.2} GFLOP/s at {}x{}x{} — wrote {out}",
        cal.gflops(),
        cal.shape[0],
        cal.shape[1],
        cal.shape[2],
    );
    println!("dry-run projections now use this rate (override with --profile frontera)");
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

/// Traces one Optimus training step per rank through [`mesh::DryRunComm`]
/// (no device threads, no data movement) and prices the recorded schedule
/// with the α-β cost model on the projected `q × q` mesh. With `trace_path`,
/// also records the model-time timeline and exports it as Chrome JSON.
fn dry_run_projection(
    a: &Args,
    tables: &CollTables,
    trace_path: Option<&str>,
    metrics_path: Option<&str>,
) {
    let cfg = model_cfg(a);
    let ocfg = OptimusConfig {
        q: a.q,
        batch: cfg.batch,
        seq: cfg.seq,
        hidden: cfg.hidden,
        heads: cfg.heads,
        vocab: cfg.vocab,
        layers: cfg.layers,
        causal: cfg.causal,
        checkpoint: true,
        fused_attention: false,
    };
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
        let est = perf::memory::optimus_bytes(
            &perf::memory::MemoryConfig {
                seq: a.seq,
                hidden: a.hidden,
                heads: a.heads,
                vocab: a.vocab,
                layers: a.layers,
                p: a.q * a.q,
            },
            a.batch,
        );
        println!(
            "wrote metrics report (analytical memory model, no live devices) to {path}; \
             modeled per-device total {:.2} MiB",
            est.total / (1u64 << 20) as f64
        );
    }
}

/// The `crossover` command: prints the projected 1D-vs-2D-vs-2.5D table on
/// 512–4096 devices (the Tesseract claim), plus the full d-sweep behind
/// each winning grid.
fn crossover(a: &Args) {
    let mut profile = HardwareProfile::frontera_rtx5000();
    if a.profile == ProfileChoice::Auto {
        if let Ok(Some(cal)) = Calibration::load(CALIBRATION_PATH) {
            profile = cal.apply(profile);
        }
    }
    let pts = perf::projection::crossover_projection(&profile);
    println!(
        "projected training throughput (seq/s), profile={}, weak-scaling sizes:",
        profile.name
    );
    println!(
        "{:>8} {:>8} {:>7} {:>12} {:>14} {:>16} {:>9}",
        "devices", "hidden", "batch", "1D megatron", "2D optimus", "2.5D tesseract", "2.5D/2D"
    );
    for p in &pts {
        println!(
            "{:>8} {:>8} {:>7} {:>12.3} {:>10.3} {q2}x{q2} {:>10.3} {q}x{q}x{d} {:>9.2}",
            p.devices,
            p.hidden,
            p.batch,
            p.megatron_throughput,
            p.optimus2d_throughput,
            p.optimus25d_throughput,
            p.optimus25d_throughput / p.optimus2d_throughput,
            q2 = p.optimus2d_q,
            q = p.best_q,
            d = p.best_d,
        );
    }
    println!("d-sweep (every admissible [q, q, d] grid):");
    for p in &pts {
        let entries: Vec<String> = p
            .depth_sweep
            .iter()
            .map(|e| format!("{}x{}x{} -> {:.3}", e.q, e.q, e.d, e.throughput))
            .collect();
        println!("  {:>5} devices: {}", p.devices, entries.join(", "));
    }
}

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

/// The autotune cost profile: the paper's hardware, with the compute rate
/// overridden by `results/calibration.json` under the default
/// `--profile auto` (same policy as the other projections).
fn autotune_profile(a: &Args) -> HardwareProfile {
    let mut profile = HardwareProfile::frontera_rtx5000();
    if a.profile == ProfileChoice::Auto {
        if let Ok(Some(cal)) = Calibration::load(CALIBRATION_PATH) {
            profile = cal.apply(profile);
        }
    }
    profile
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
/// configuration for a thread-mesh-sized model runs end to end on **both**
/// backends. The CommLog streams must match byte for byte rank by rank, and
/// the dry-run timeline priced by `CostModel::ns_pricer` must reconcile
/// with the model through `perf::tracecheck` to better than 1e-5 — the same
/// bar the 2.5D projections are held to.
fn autotune_check(profile: &HardwareProfile, tables: &CollTables) -> Result<(), String> {
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
                spec_label(&spec)
            ));
        }
    }

    // Run the virtual clock 1024× finer than a nanosecond: every term of
    // the α-β model is linear, so scaling α, β and 1/mac_rate together
    // leaves relative gaps untouched while the clock-rounding floor (±0.5
    // tick per event, which alone is ~2.5e-5 of a bare-α op) drops three
    // orders of magnitude below the 1e-5 bar. Stamping and re-pricing use
    // the same scaled model, so the reconciliation is exact by construction
    // up to that rounding.
    const CLOCK_SCALE: f64 = 1024.0;
    let fine = HardwareProfile {
        mac_rate: profile.mac_rate / CLOCK_SCALE,
        alpha: profile.alpha * CLOCK_SCALE,
        beta_intra: profile.beta_intra * CLOCK_SCALE,
        beta_inter: profile.beta_inter * CLOCK_SCALE,
        ..profile.clone()
    };
    let gpn = profile.gpus_per_node.min(CHECK_DEVICES);
    let cost = CostModel::new(fine, Topology::flat(CHECK_DEVICES, gpn));
    let (_, _, traces) = run.dry_run_traced(cost.ns_pricer(), |g| {
        let (mut st, grid) = hybrid::build(g.ctx(), &spec, &cfg, 7);
        st.train_step(&grid, &tokens, &labels, 0.1)
    });
    let totals = perf::tracecheck::op_totals(&cost, &traces);
    let gap = perf::tracecheck::max_rel_gap(&totals);
    if gap.is_nan() || gap >= 1e-5 {
        return Err(format!(
            "tracecheck reconciliation gap {gap:.3e} exceeds 1e-5 for {}",
            spec_label(&spec)
        ));
    }
    println!(
        "live cross-check ({} on {CHECK_DEVICES} devices): CommLogs byte-identical, \
         tracecheck max relative gap {gap:.2e} < 1e-5",
        spec_label(&spec)
    );
    Ok(())
}

fn spec_label(s: &hybrid::HybridSpec) -> String {
    format!(
        "{}x{}x[{},{},{}]x{}",
        s.pp, s.dp, s.grid[0], s.grid[1], s.grid[2], s.microbatches
    )
}

/// Byte-range boundaries for the tuned rules: cell `i` of the sweep grid
/// owns `[lo, hi]` bytes where the split between adjacent measured sizes is
/// their geometric midpoint (sizes are log-spaced, so the midpoint in log
/// space is the natural crossover estimate), the first cell reaches down to
/// zero and the last up to `usize::MAX`.
fn cell_bounds(sizes: &[usize], i: usize) -> (usize, usize) {
    let mid = |a: usize, b: usize| (((a * 4) as f64 * (b * 4) as f64).sqrt()) as usize;
    let lo = if i == 0 {
        0
    } else {
        mid(sizes[i - 1], sizes[i]) + 1
    };
    let hi = if i + 1 == sizes.len() {
        usize::MAX
    } else {
        mid(sizes[i], sizes[i + 1])
    };
    (lo, hi)
}

/// The end-to-end gate behind `tune-coll`: selecting from the tuned
/// `tables`, one Optimus training step dry-runs on the paper-scale 8 × 8
/// mesh and the priced timeline must reconcile with the cost model through
/// `perf::tracecheck` to better than 1e-5 — proof that the dry-run prices
/// exactly the algorithm the selection layer picks, rule by rule.
fn tune_coll_check(profile: &HardwareProfile, tables: &CollTables) -> Result<(), String> {
    const Q: usize = 8;
    let ocfg = OptimusConfig {
        q: Q,
        batch: 8,
        seq: 16,
        hidden: 64,
        heads: 8,
        vocab: 16,
        layers: 2,
        causal: true,
        checkpoint: true,
        fused_attention: false,
    };
    let mut rng = Rng::new(0xC011);
    let n = ocfg.batch * ocfg.seq;
    let tokens: Vec<usize> = (0..n).map(|_| rng.below(ocfg.vocab)).collect();
    let labels: Vec<usize> = (0..n).map(|_| rng.below(ocfg.vocab)).collect();
    // Same fine-clock trick as `autotune --check`: the α-β model is linear,
    // so scaling every rate term together shrinks the clock-rounding floor
    // three orders of magnitude below the 1e-5 bar without moving any
    // relative gap.
    const CLOCK_SCALE: f64 = 1024.0;
    let fine = HardwareProfile {
        mac_rate: profile.mac_rate / CLOCK_SCALE,
        alpha: profile.alpha * CLOCK_SCALE,
        beta_intra: profile.beta_intra * CLOCK_SCALE,
        beta_inter: profile.beta_inter * CLOCK_SCALE,
        ..profile.clone()
    };
    let p = Q * Q;
    let cost = CostModel::new(fine, Topology::flat(p, profile.gpus_per_node.min(p)));
    let run = MeshRun::new(&[Q, Q, 1], tables.clone());
    let (_, _, traces) = run.dry_run_traced(cost.ns_pricer(), |g| {
        let mut m = OptimusModel::new(&ocfg, 7, g);
        m.train_step(g, &tokens, &labels, 0.1)
    });
    let totals = perf::tracecheck::op_totals(&cost, &traces);
    let gap = perf::tracecheck::max_rel_gap(&totals);
    if gap.is_nan() || gap >= 1e-5 {
        return Err(format!(
            "tracecheck reconciliation gap {gap:.3e} exceeds 1e-5 on the tuned 8x8 dry-run"
        ));
    }
    println!(
        "tuned-table cross-check (8x8 dry-run, one Optimus train step): \
         tracecheck max relative gap {gap:.2e} < 1e-5"
    );
    Ok(())
}

/// The `tune-coll` command: measures every registered collective algorithm
/// on the live thread mesh across message sizes, derives the selection
/// table of measured winners (one byte-range rule per cell where the winner
/// differs from the built-in default), cross-checks the modeled winner
/// against the measured one per cell, gates the table with a tracecheck'd
/// 8 × 8 dry-run, and persists it where every entry point loads it from.
fn tune_coll_cmd(a: &Args, flags: &HashMap<String, String>) -> Result<(), String> {
    let p = a.devices.unwrap_or(8);
    if p < 2 {
        return Err("--devices must be at least 2 to measure collectives".to_string());
    }
    let base_reps: usize = match flags.get("reps") {
        Some(v) => v.parse().map_err(|e| format!("--reps: {e}"))?,
        None => 24,
    };
    // `--wire bf16|f16` opts in to *persisting* wire-precision rules for
    // cells where the compressed wire measures faster than the full-width
    // winner — an explicit opt-in because persisted rules trade bitwise
    // reproducibility for bandwidth. Without the flag the compressed column
    // is still measured and reported (at bf16), just never saved.
    let wire_opt: Option<WireDtype> = match flags.get("wire").map(String::as_str) {
        None | Some("off") | Some("f32") => None,
        Some(name) => Some(
            WireDtype::from_name(name)
                .filter(|w| !w.is_f32())
                .ok_or_else(|| format!("--wire wants bf16|f16|off, got '{name}'"))?,
        ),
    };
    let probe = wire_opt.unwrap_or(WireDtype::Bf16);
    let trials = 3;
    let sizes: Vec<usize> = bench::coll::TUNE_ELEMS.to_vec();
    let profile = autotune_profile(a);
    let cost = CostModel::new(
        profile.clone(),
        Topology::flat(p, profile.gpus_per_node.min(p)),
    );
    let ranks: Vec<usize> = (0..p).collect();

    println!(
        "tune-coll: {p}-device live mesh, sizes {:?} f32 elems, reps<= {base_reps}, min of {trials} trials",
        sizes
    );
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut rules: Vec<AlgoRule> = Vec::new();
    let mut wire_rules: Vec<WireRule> = Vec::new();
    let (mut cells, mut agree) = (0usize, 0usize);
    for op in bench::coll::TUNE_OPS {
        // What the selection tables and the cost model key each cell on.
        let keyed: Vec<usize> = sizes
            .iter()
            .map(|&elems| bench::coll::select_elems(op, p, elems))
            .collect();
        for (i, &elems) in sizes.iter().enumerate() {
            if matches!(op, CommOp::AllGather | CommOp::ReduceScatter) && elems % p != 0 {
                continue; // both split the payload p ways
            }
            let measure = |algo: CollAlgo, wire: WireDtype| {
                bench::coll::measure_coll(
                    op,
                    CollPlan { algo, wire },
                    p,
                    elems,
                    bench::coll::reps_for(base_reps, elems),
                    trials,
                )
            };
            let samples: Vec<bench::coll::CollSample> = CollAlgo::menu(op)
                .iter()
                .map(|&algo| measure(algo, WireDtype::F32))
                .collect();
            // Same menu again on the compressed wire: half the bytes move,
            // plus pack/unpack work — whether that nets out faster is
            // exactly what the cell measures.
            let compressed: Vec<bench::coll::CollSample> = CollAlgo::menu(op)
                .iter()
                .map(|&algo| measure(algo, probe))
                .collect();
            let winner = samples
                .iter()
                .min_by(|x, y| x.secs.total_cmp(&y.secs))
                .expect("non-empty menu");
            let cbest = compressed
                .iter()
                .min_by(|x, y| x.secs.total_cmp(&y.secs))
                .expect("non-empty menu");
            let modeled = *CollAlgo::menu(op)
                .iter()
                .min_by(|&&x, &&y| {
                    let price = |algo| cost.coll_time(op, algo, WireDtype::F32, &ranks, keyed[i]);
                    price(x).total_cmp(&price(y))
                })
                .expect("non-empty menu");
            cells += 1;
            if winner.algo == modeled {
                agree += 1;
            }
            rows.push(vec![
                op.name().to_string(),
                elems.to_string(),
                samples
                    .iter()
                    .map(|s| format!("{} {:.1}us", s.algo.name(), s.secs * 1e6))
                    .collect::<Vec<_>>()
                    .join("  "),
                winner.algo.name().to_string(),
                modeled.name().to_string(),
                format!(
                    "{} {:.1}us ({:.2}x)",
                    cbest.algo.name(),
                    cbest.secs * 1e6,
                    winner.secs / cbest.secs
                ),
            ]);
            let (min_bytes, max_bytes) = cell_bounds(&keyed, i);
            if winner.algo != CollAlgo::default_for(op) {
                rules.push(AlgoRule {
                    op,
                    min_group: 2,
                    max_group: usize::MAX,
                    min_bytes,
                    max_bytes,
                    algo: winner.algo,
                });
            }
            if let Some(w) = wire_opt {
                if cbest.secs < winner.secs {
                    wire_rules.push(WireRule {
                        op,
                        min_group: 2,
                        max_group: usize::MAX,
                        min_bytes,
                        max_bytes,
                        wire: w,
                    });
                }
            }
        }
    }
    println!(
        "{}",
        bench::render_table(
            &[
                "op",
                "elems",
                "measured per algorithm",
                "winner",
                "modeled",
                &format!("{} best", probe.name()),
            ],
            &rows
        )
    );
    println!("α-β model picks the measured winner in {agree}/{cells} cells");
    if rules.is_empty() {
        println!("every measured winner matches the built-in default; writing an empty table");
    } else {
        println!(
            "{} cell(s) beat the default — rules: {}",
            rules.len(),
            rules
                .iter()
                .map(|r| format!(
                    "{} [{}..{}B] -> {}",
                    r.op.name(),
                    r.min_bytes,
                    if r.max_bytes == usize::MAX {
                        "inf".to_string()
                    } else {
                        r.max_bytes.to_string()
                    },
                    r.algo.name()
                ))
                .collect::<Vec<_>>()
                .join(", ")
        );
    }

    if let Some(w) = wire_opt {
        if wire_rules.is_empty() {
            println!(
                "no cell measured {} faster than the full-width winner; \
                 persisting no wire rules",
                w.name()
            );
        } else {
            println!(
                "{} cell(s) measured faster at {} — wire rules: {}",
                wire_rules.len(),
                w.name(),
                wire_rules
                    .iter()
                    .map(|r| format!(
                        "{} [{}..{}B]",
                        r.op.name(),
                        r.min_bytes,
                        if r.max_bytes == usize::MAX {
                            "inf".to_string()
                        } else {
                            r.max_bytes.to_string()
                        },
                    ))
                    .collect::<Vec<_>>()
                    .join(", ")
            );
        }
    }

    let tune = CollTune {
        source: format!("tune-coll p={p} ({cells} cells)"),
        tables: CollTables {
            algo: AlgoTable { rules },
            wire: WireTable { rules: wire_rules },
        },
    };
    // Gate with the wire rules in force too: the 8x8 dry-run then prices
    // compressed cells end-to-end, so a mispriced wire dtype fails here
    // instead of after the table ships.
    tune_coll_check(&profile, &tune.tables)?;
    let out = flags
        .get("save")
        .map(String::as_str)
        .unwrap_or(COLL_TUNE_PATH);
    tune.save(out).map_err(|e| format!("write {out}: {e}"))?;
    println!("wrote tuned table to {out} — every CLI entry point now loads it");
    Ok(())
}

/// The `autotune` command: sweep, table, optional report and live check.
fn autotune_cmd(
    a: &Args,
    tables: &CollTables,
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
    let profile = autotune_profile(a);
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

/// Runs one extra wall-clock-traced training step (after `train` finishes)
/// under the chosen scheme and exports the timeline; the summary's modeled
/// column uses the same projection cost model as `--dry-run`, so the table
/// is a direct measured-vs-Eq. 4–5 comparison.
fn live_trace_step(a: &Args, tables: &CollTables, path: &str) {
    let cfg = model_cfg(a);
    let mut rng = Rng::new(a.seed ^ 0x7ACE);
    let (tokens, labels) = pattern_batch(&cfg, &mut rng);
    let (_, _, cost) = projection_cost(a);
    let traces = match a.scheme {
        Scheme::Optimus => {
            let ocfg = OptimusConfig {
                q: a.q,
                batch: cfg.batch,
                seq: cfg.seq,
                hidden: cfg.hidden,
                heads: cfg.heads,
                vocab: cfg.vocab,
                layers: cfg.layers,
                causal: cfg.causal,
                checkpoint: true,
                fused_attention: false,
            };
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

/// The analytical per-device memory estimate for the current model — the
/// "model" half of the dual memory discipline: dry-run reports carry only
/// this, live reports carry it next to the measured tracker numbers, and
/// the `source` field inside says which is which.
fn memory_model_json(a: &Args) -> Json {
    let mc = perf::memory::MemoryConfig {
        seq: a.seq,
        hidden: a.hidden,
        heads: a.heads,
        vocab: a.vocab,
        layers: a.layers,
        // The Fig. 9 model covers the square mesh; depth replicas hold the
        // same blocks, so per-device memory is unchanged by d.
        p: a.q * a.q,
    };
    let est = perf::memory::optimus_bytes(&mc, a.batch);
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

/// Writes the metrics report harvested from a live run and prints the human
/// summary table. `devices` must already be drained from the registry.
fn emit_metrics_live(a: &Args, path: &str, devices: &[metrics::DeviceSnapshot]) {
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

fn infer_dims(a: &Args, params: &ModelParams) -> Args {
    Args {
        vocab: params.embedding.rows(),
        hidden: params.embedding.cols(),
        layers: params.layers.len(),
        ..*a
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // A bare `optimus-cli --dry-run ...` is sugar for `train --dry-run ...`.
    let (cmd, rest) = match argv.split_first() {
        Some((c, _)) if c.starts_with("--") => ("train".to_string(), argv.clone()),
        Some((c, r)) => (c.clone(), r.to_vec()),
        None => {
            eprintln!(
                "usage: optimus-cli [train|eval|generate|calibrate|tune-coll|crossover|autotune|info] --flag value ..."
            );
            std::process::exit(2);
        }
    };
    let flags = match parse_flags(&rest) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let base = if flags.contains_key("dry-run") {
        Args::dry_run_defaults()
    } else {
        Args::default()
    };
    let args = match apply_flags(base, &flags).and_then(|a| {
        if cmd == "autotune" || cmd == "tune-coll" {
            // autotune and tune-coll size their own worlds: --devices is the
            // world to partition/measure, not a q²·d cross-check.
            Ok(a)
        } else {
            finalize_mesh(a, &flags)
        }
    }) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    // The selection tables persisted by `tune-coll` apply to every mesh an
    // entry point launches, exactly like the calibrated compute rate —
    // except to `tune-coll` itself, which must measure from the baseline.
    let mut tables = CollTables::default();
    if cmd != "tune-coll" {
        match CollTune::load(COLL_TUNE_PATH) {
            Ok(Some(tune)) => {
                println!(
                    "collective algorithms: {} tuned rule(s) from {COLL_TUNE_PATH} (source: {})",
                    tune.tables.algo.rules.len(),
                    tune.source
                );
                if !tune.tables.wire.rules.is_empty() {
                    println!(
                        "wire compression: {} tuned rule(s) in force — collectives they match \
                         travel 16-bit (results are no longer bitwise vs f32; delete \
                         {COLL_TUNE_PATH} to revert)",
                        tune.tables.wire.rules.len()
                    );
                }
                tables = tune.tables;
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
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
    }

    match cmd.as_str() {
        "train" if args.dry_run => dry_run_projection(
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
            let (losses, params) = train(&args, &tables);
            let first = losses.first().copied().unwrap_or(0.0);
            let last = losses.last().copied().unwrap_or(0.0);
            println!("loss {first:.4} -> {last:.4} over {} steps", losses.len());
            if let Some(path) = metrics_path {
                metrics::disable();
                let devices = metrics::drain();
                emit_metrics_live(&args, path, &devices);
            }
            if let Some(path) = flags.get("save") {
                params.save_json(Path::new(path)).expect("write checkpoint");
                println!("saved canonical checkpoint to {path}");
            }
            if let Some(path) = flags.get("trace") {
                live_trace_step(&args, &tables, path);
            }
        }
        "eval" => {
            let path = flags.get("load").expect("eval needs --load <path>");
            let params = ModelParams::load_json(Path::new(path)).expect("read checkpoint");
            let args = infer_dims(&args, &params);
            let loss = eval(&args, &tables, params);
            println!("eval loss on a fresh pattern batch: {loss:.4}");
        }
        "generate" => {
            let path = flags.get("load").expect("generate needs --load <path>");
            let params = ModelParams::load_json(Path::new(path)).expect("read checkpoint");
            let args = infer_dims(&args, &params);
            let tokens = generate(&args, params);
            println!("greedy continuation (token ids): {tokens:?}");
        }
        "calibrate" => calibrate(&flags),
        "tune-coll" => {
            if let Err(e) = tune_coll_cmd(&args, &flags) {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
        "crossover" => crossover(&args),
        "autotune" => {
            if let Err(e) = autotune_cmd(&args, &tables, &flags) {
                eprintln!("error: {e}");
                std::process::exit(1);
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

    fn flags(pairs: &[(&str, &str)]) -> HashMap<String, String> {
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
        let (flat_losses, flat_params) = train(&base, &CollTables::default());
        let (deep_losses, deep_params) = train(&Args { depth: 2, ..base }, &CollTables::default());
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
    fn unknown_flags_fail() {
        assert!(apply_flags(Args::default(), &flags(&[("bogus", "1")])).is_err());
        let argv = vec!["steps".to_string()];
        assert!(parse_flags(&argv).is_err());
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
        let tables = CollTables::default();
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
    fn calibration_prefers_largest_row() {
        let dir = std::env::temp_dir().join("optimus-cli-calibrate-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_gemm.json");
        // The 512³ row wins even though the 256³ one is faster.
        std::fs::write(
            &path,
            r#"{"results": [
                {"name": "square-256", "m": 256, "k": 256, "n": 256, "secs": 0.001, "gflops": 60.0},
                {"name": "square-512", "m": 512, "k": 512, "n": 512, "secs": 0.005, "gflops": 50.0}
            ]}"#,
        )
        .unwrap();
        let cal = calibration_from_bench(path.to_str().unwrap())
            .unwrap()
            .unwrap();
        assert_eq!(cal.shape, [512, 512, 512]);
        assert!((cal.gflops() - 50.0).abs() < 1e-9);
        assert!(cal.source.ends_with("square-512"));
        assert!(calibration_from_bench("/nonexistent/BENCH.json")
            .unwrap()
            .is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn autotune_rejects_impossible_specs_with_readable_errors() {
        // No --devices at all.
        let tables = CollTables::default();
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
    fn autotune_check_reconciles_live_and_dry_backends() {
        // The acceptance-criteria cross-check, run in-process: byte-equal
        // CommLogs and a < 1e-5 tracecheck gap on an 8-device live run.
        autotune_check(&HardwareProfile::frontera_rtx5000(), &CollTables::default()).unwrap();
    }

    #[test]
    fn train_eval_generate_flow() {
        let args = Args {
            steps: 120,
            ..Args::default()
        };
        let tables = CollTables::default();
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
