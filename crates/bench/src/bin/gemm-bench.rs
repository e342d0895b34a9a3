//! GEMM engine benchmark: times square, transformer-shaped and
//! workload-block products on one thread (every kernel runs on its caller's
//! thread), reports GFLOP/s, and writes `BENCH_gemm.json` at the repo root —
//! the perf trajectory file the CI smoke job regenerates and `optimus-cli
//! calibrate` consumes. The same file carries the `tiers` rows (every shape ×
//! NN/NT/TN, one column per instruction-set tier the host runs), the
//! `packing` rows (share of a 256×128×128 product spent in `pack_a` /
//! `pack_b` / the microkernel) and the `elementwise` rows: forward + backward
//! of GELU and row softmax, and the serial cross-entropy, at three block
//! shapes.
//!
//! ```text
//! gemm-bench [--smoke] [--out PATH] [--trace PATH]
//! ```
//!
//! * `--smoke`   — small sizes, few samples, plus self-checks: the written
//!   JSON must re-parse with `minjson`, and on a host with both FMA tiers the
//!   AVX-512 tier must not be slower than the AVX2 tier at 256³ (>10%
//!   regression fails) — the tile is auto-vectorized, and a compiler that
//!   stops vectorizing it still computes the right bits, 15× slower.
//! * `--out`     — output path (default `BENCH_gemm.json`).
//! * `--trace`   — also run one traced product and write a Chrome trace
//!   showing its `gemm.pack_a` / `gemm.pack_b` / `gemm.ukr` spans to the
//!   given path.
//!
//! The JSON carries a `host` stamp (thread count, AVX2, AVX-512F, git rev) so the
//! regression gate can flag cross-machine comparisons, and a
//! `metrics_overhead` ratio — metrics-on vs metrics-off time at the largest
//! square shape — which the gate treats as lower-is-better (the telemetry
//! layer's "stay under 2%" budget).

use bench::{bench_fn, bench_fn_min, render_table};
use minjson::Json;
use tensor::gemm::{gemm_acc, kernel_name, with_tier, Form, Tier};
use tensor::matmul::reference;
use tensor::{Rng, Tensor};

struct Shape {
    name: &'static str,
    m: usize,
    k: usize,
    n: usize,
}

#[rustfmt::skip]
const FULL_SHAPES: &[Shape] = &[
    Shape { name: "square-64", m: 64, k: 64, n: 64 },
    Shape { name: "square-128", m: 128, k: 128, n: 128 },
    Shape { name: "square-256", m: 256, k: 256, n: 256 },
    Shape { name: "square-512", m: 512, k: 512, n: 512 },
    Shape { name: "tall-skinny", m: 2048, k: 512, n: 64 },
    Shape { name: "wide", m: 64, k: 512, n: 2048 },
    Shape { name: "mlp-block", m: 512, k: 2048, n: 512 },
    // The local blocks the step benchmark's workloads multiply: 256 rows ×
    // 128-wide panels on `opt2d_2x2_h256` (projection, QKV, MLP up / down),
    // 128 rows × 32-wide panels on `opt2d_4x4_h128`.
    Shape { name: "blk-256x128x128", m: 256, k: 128, n: 128 },
    Shape { name: "blk-256x384x128", m: 256, k: 384, n: 128 },
    Shape { name: "blk-256x512x128", m: 256, k: 512, n: 128 },
    Shape { name: "blk-256x128x512", m: 256, k: 128, n: 512 },
    Shape { name: "blk-128x32x32", m: 128, k: 32, n: 32 },
    Shape { name: "blk-128x128x32", m: 128, k: 128, n: 32 },
    Shape { name: "blk-128x32x128", m: 128, k: 32, n: 128 },
];

#[rustfmt::skip]
const SMOKE_SHAPES: &[Shape] = &[
    Shape { name: "square-64", m: 64, k: 64, n: 64 },
    Shape { name: "square-128", m: 128, k: 128, n: 128 },
    Shape { name: "square-256", m: 256, k: 256, n: 256 },
    Shape { name: "blk-256x128x128", m: 256, k: 128, n: 128 },
];

/// The shape the smoke self-check compares tiers at.
const SQUARE_256: &str = "square-256";
/// The `opt2d_2x2_h256` projection block, whose packing share is reported.
const PACKING_SHAPE: &str = "blk-256x128x128";

const FORMS: [Form; 3] = [Form::NN, Form::NT, Form::TN];

/// A shape both modes sweep, by name.
fn find_shape(shapes: &'static [Shape], name: &str) -> &'static Shape {
    shapes
        .iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("{name} is in both modes"))
}

fn gflops(m: usize, k: usize, n: usize, secs: f64) -> f64 {
    2.0 * (m * k * n) as f64 / secs / 1e9
}

fn rand(dims: &[usize], seed: u64) -> Tensor {
    Tensor::randn(dims, 1.0, &mut Rng::new(seed))
}

struct Row {
    name: String,
    m: usize,
    k: usize,
    n: usize,
    secs: f64,
    gflops: f64,
}

impl Row {
    fn json(&self) -> Json {
        Json::obj(vec![
            ("name", Json::Str(self.name.clone())),
            ("m", Json::Num(self.m as f64)),
            ("k", Json::Num(self.k as f64)),
            ("n", Json::Num(self.n as f64)),
            ("secs", Json::Num(self.secs)),
            ("gflops", Json::Num(self.gflops)),
        ])
    }
}

/// Times `C += A·B` for the engine.
fn time_engine(shape: &Shape, samples: usize) -> f64 {
    let (m, k, n) = (shape.m, shape.k, shape.n);
    let a = rand(&[m, k], 1).into_vec();
    let b = rand(&[k, n], 2).into_vec();
    let mut c = vec![0.0f32; m * n];
    bench_fn("gemm", shape.name, samples, || {
        gemm_acc(Form::NN, &mut c, m, n, &a, &b, k);
        c[0]
    })
}

/// Min-of-samples ratio of the engine with metrics collection **on**
/// (registry enabled, device installed — the state a live `--metrics` run
/// puts every device thread in) vs fully **off**, samples **interleaved** so
/// machine-load swings hit both equally. The acceptance bar for the
/// telemetry layer is that this ratio stays under 1.02 at 512³: the hot GEMM
/// loop must not pay for observability it isn't using. Emitted as
/// `metrics_overhead` in the JSON, where the regression gate treats it as
/// lower-is-better.
fn time_metrics_overhead(shape: &Shape, samples: usize) -> f64 {
    let (m, k, n) = (shape.m, shape.k, shape.n);
    let a = rand(&[m, k], 1).into_vec();
    let b = rand(&[k, n], 2).into_vec();
    let mut c = vec![0.0f32; m * n];
    let mut mins = [f64::INFINITY; 2];
    gemm_acc(Form::NN, &mut c, m, n, &a, &b, k);
    for _ in 0..samples {
        for (slot, on) in [(0usize, false), (1, true)] {
            if on {
                metrics::enable();
                metrics::device_install();
            }
            let t0 = std::time::Instant::now();
            gemm_acc(Form::NN, &mut c, m, n, &a, &b, k);
            mins[slot] = mins[slot].min(t0.elapsed().as_secs_f64());
            if on {
                metrics::device_finish(0);
                metrics::disable();
                let _ = metrics::drain();
            }
            bench::black_box(c[0]);
        }
    }
    mins[1] / mins[0]
}

/// Min-of-samples for the engine vs the seed `i-k-j` NN kernel, interleaved
/// for the same reason as [`time_metrics_overhead`]: the headline speedup
/// must reflect kernel quality, not which of the two happened to run in the
/// quieter load window. Returns `(engine_min, seed_min)`.
fn time_engine_vs_seed(shape: &Shape, samples: usize) -> (f64, f64) {
    let (m, k, n) = (shape.m, shape.k, shape.n);
    let a = rand(&[m, k], 1).into_vec();
    let b = rand(&[k, n], 2).into_vec();
    let mut c = vec![0.0f32; m * n];
    let mut mins = [f64::INFINITY; 2];
    gemm_acc(Form::NN, &mut c, m, n, &a, &b, k);
    reference::seed_nn(&mut c, &a, &b, k, n);
    for _ in 0..samples {
        let t0 = std::time::Instant::now();
        gemm_acc(Form::NN, &mut c, m, n, &a, &b, k);
        mins[0] = mins[0].min(t0.elapsed().as_secs_f64());
        let t0 = std::time::Instant::now();
        reference::seed_nn(&mut c, &a, &b, k, n);
        mins[1] = mins[1].min(t0.elapsed().as_secs_f64());
        bench::black_box(c[0]);
    }
    (mins[0], mins[1])
}

struct TierRow {
    name: &'static str,
    m: usize,
    k: usize,
    n: usize,
    form: Form,
    tier: Tier,
    gflops: f64,
}

impl TierRow {
    fn json(&self) -> Json {
        Json::obj(vec![
            ("name", Json::Str(self.name.to_string())),
            ("m", Json::Num(self.m as f64)),
            ("k", Json::Num(self.k as f64)),
            ("n", Json::Num(self.n as f64)),
            ("form", Json::Str(format!("{:?}", self.form))),
            ("tier", Json::Str(self.tier.to_string())),
            ("gflops", Json::Num(self.gflops)),
        ])
    }
}

/// The tiers this host runs, narrowest first.
fn host_tiers() -> Vec<Tier> {
    Tier::ALL
        .into_iter()
        .filter(|&t| t <= Tier::host())
        .collect()
}

/// GFLOP/s of `form` at `shape` on every tier this host runs,
/// min-of-samples with the tiers' samples **interleaved** (the columns are
/// compared with each other). A sample repeats the product until it has done
/// ~20 MFLOP, so the 4×4 workload's 5 µs blocks are timed over hundreds of µs.
fn time_tiers(shape: &Shape, form: Form, samples: usize) -> Vec<TierRow> {
    let (m, k, n) = (shape.m, shape.k, shape.n);
    // Physical layouts differ by form; the element counts do not.
    let a = rand(&[m * k], 1).into_vec();
    let b = rand(&[k * n], 2).into_vec();
    let mut c = vec![0.0f32; m * n];
    let reps = 10_000_000usize.div_ceil(m * k * n);
    let tiers = host_tiers();
    let mut mins = vec![f64::INFINITY; tiers.len()];
    for sample in 0..samples + 1 {
        for (min, &tier) in mins.iter_mut().zip(&tiers) {
            let t0 = std::time::Instant::now();
            with_tier(tier, || {
                for _ in 0..reps {
                    gemm_acc(form, &mut c, m, n, &a, &b, k);
                }
            });
            // Sample 0 is the warm-up.
            if sample > 0 {
                *min = min.min(t0.elapsed().as_secs_f64() / reps as f64);
            }
            bench::black_box(c[0]);
        }
    }
    tiers
        .into_iter()
        .zip(mins)
        .map(|(tier, secs)| TierRow {
            name: shape.name,
            m,
            k,
            n,
            form,
            tier,
            gflops: gflops(m, k, n, secs),
        })
        .collect()
}

/// Shares of a product at `shape` spent in the `gemm.pack_a` /
/// `gemm.pack_b` / `gemm.ukr` spans, as fractions of their sum, from a
/// wall-clock trace of `reps` products.
fn packing_shares(shape: &Shape, form: Form, reps: usize) -> [f64; 3] {
    const SPANS: [&str; 3] = ["gemm.pack_a", "gemm.pack_b", "gemm.ukr"];
    let (m, k, n) = (shape.m, shape.k, shape.n);
    let a = rand(&[m * k], 1).into_vec();
    let b = rand(&[k * n], 2).into_vec();
    let mut c = vec![0.0f32; m * n];
    let mut run = |reps| {
        for _ in 0..reps {
            gemm_acc(form, &mut c, m, n, &a, &b, k);
        }
    };
    run(3);
    trace::start_wall();
    run(reps);
    let device = trace::finish(0).expect("collector installed above");
    // Spans nest, so an exit closes the innermost open one.
    let mut open = Vec::new();
    let mut ns = [0u64; 3];
    for e in &device.events {
        match *e {
            trace::Event::Enter { name, t_ns, .. } => open.push((name, t_ns)),
            trace::Event::Exit { t_ns, .. } => {
                let (name, t0) = open.pop().expect("exit without enter");
                if let Some(i) = SPANS.iter().position(|&s| s == name) {
                    ns[i] += t_ns - t0;
                }
            }
            trace::Event::Op { .. } => {}
        }
    }
    let total = ns.iter().sum::<u64>() as f64;
    ns.map(|v| v as f64 / total)
}

/// `[rows, cols]` of the element-wise rows: the 2×2 workload's local MLP
/// block, a tall attention-score stack, and the 4×4 workload's block.
const ELEMENTWISE_SHAPES: &[(usize, usize)] = &[(256, 512), (1024, 64), (128, 128)];

struct ElementwiseRow {
    name: &'static str,
    rows: usize,
    cols: usize,
    secs: f64,
}

impl ElementwiseRow {
    fn ns_per_elem(&self) -> f64 {
        self.secs * 1e9 / (self.rows * self.cols) as f64
    }

    fn json(&self) -> Json {
        Json::obj(vec![
            ("name", Json::Str(self.name.to_string())),
            ("rows", Json::Num(self.rows as f64)),
            ("cols", Json::Num(self.cols as f64)),
            ("us", Json::Num(self.secs * 1e6)),
            ("ns_per_elem", Json::Num(self.ns_per_elem())),
            ("melem_per_s", Json::Num(1e3 / self.ns_per_elem())),
        ])
    }
}

/// Min-of-samples of the three element-wise kernel pairs the
/// training step runs outside GEMM, through the calls the layers make.
fn time_elementwise(samples: usize) -> Vec<ElementwiseRow> {
    let mut out = Vec::new();
    for &(rows, cols) in ELEMENTWISE_SHAPES {
        let x = rand(&[rows, cols], 3);
        let dy = rand(&[rows, cols], 4);
        let labels: Vec<usize> = (0..rows).map(|r| r % cols).collect();
        let shape = format!("{rows}x{cols}");
        let mut time = |name: &'static str, f: &mut dyn FnMut()| {
            let secs = bench_fn_min("elementwise", &format!("{name}/{shape}"), samples, &mut *f);
            out.push(ElementwiseRow {
                name,
                rows,
                cols,
                secs,
            });
        };
        time("gelu_fwd_bwd", &mut || {
            bench::black_box(tensor::ops::gelu_forward(&x));
            bench::black_box(tensor::ops::gelu_backward(&dy, &x));
        });
        time("softmax_fwd_bwd", &mut || {
            let y = tensor::softmax::softmax_rows(&x);
            bench::black_box(tensor::softmax::softmax_backward(&dy, &y));
        });
        time("xent", &mut || {
            bench::black_box(tensor::loss::cross_entropy(&x, &labels));
        });
    }
    out
}

fn run_traced_product(path: &str, size: usize) {
    let a = rand(&[size, size], 1);
    let b = rand(&[size, size], 2);
    trace::start_wall();
    let c = trace::span("compute", || tensor::matmul_nn(&a, &b));
    std::hint::black_box(c);
    let device = trace::finish(0).expect("collector installed above");
    let json = trace::chrome_trace(std::slice::from_ref(&device)).to_string();
    std::fs::write(path, json).expect("write trace file");
    println!(
        "wrote Chrome trace ({} events) to {path}",
        device.events.len()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut out = "BENCH_gemm.json".to_string();
    let mut trace_out: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => smoke = true,
            "--out" => {
                i += 1;
                out = args.get(i).expect("--out needs a path").clone();
            }
            "--trace" => {
                i += 1;
                trace_out = Some(args.get(i).expect("--trace needs a path").clone());
            }
            other => {
                eprintln!("unknown flag {other}");
                eprintln!("usage: gemm-bench [--smoke] [--out PATH] [--trace PATH]");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let samples = if smoke { 3 } else { 7 };
    let shapes = if smoke { SMOKE_SHAPES } else { FULL_SHAPES };

    println!(
        "gemm-bench: kernel={} mode={}",
        kernel_name(),
        if smoke { "smoke" } else { "full" },
    );

    let rows: Vec<Row> = shapes
        .iter()
        .map(|shape| {
            let secs = time_engine(shape, samples);
            Row {
                name: shape.name.to_string(),
                m: shape.m,
                k: shape.k,
                n: shape.n,
                secs,
                gflops: gflops(shape.m, shape.k, shape.n, secs),
            }
        })
        .collect();

    // Every shape × form, one column per tier.
    let mut tier_rows: Vec<TierRow> = Vec::new();
    for shape in shapes {
        for form in FORMS {
            tier_rows.extend(time_tiers(shape, form, samples));
        }
    }

    // Where a product at the 2×2 workload's block spends its time.
    let packing_shape = find_shape(shapes, PACKING_SHAPE);
    let packing: Vec<(Form, [f64; 3])> = FORMS
        .into_iter()
        .map(|form| {
            let reps = if smoke { 50 } else { 500 };
            (form, packing_shares(packing_shape, form, reps))
        })
        .collect();

    // Seed baseline at the largest square shape in this mode.
    let baseline_shape = shapes
        .iter()
        .rfind(|s| s.name.starts_with("square"))
        .expect("a square shape");
    let (engine_secs, seed_secs) = time_engine_vs_seed(baseline_shape, samples.max(5));
    let seed_gflops = gflops(
        baseline_shape.m,
        baseline_shape.k,
        baseline_shape.n,
        seed_secs,
    );
    let engine_gflops = gflops(
        baseline_shape.m,
        baseline_shape.k,
        baseline_shape.n,
        engine_secs,
    );
    let speedup = engine_gflops / seed_gflops;
    println!(
        "speedup vs seed at {}: {:.2}x ({:.2} vs {:.2} GFLOP/s)",
        baseline_shape.name, speedup, engine_gflops, seed_gflops,
    );

    // Telemetry overhead at the largest square shape (512³ full, 256³
    // smoke): metrics-on vs metrics-off time ratio, acceptance bar < 2%.
    let overhead = time_metrics_overhead(baseline_shape, samples.max(5));
    println!(
        "metrics overhead at {}: {:.4}x (enabled/disabled, min-of-samples)",
        baseline_shape.name, overhead,
    );

    let elementwise = time_elementwise(if smoke { 20 } else { 200 });

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                format!("{}x{}x{}", r.m, r.k, r.n),
                format!("{:.4}", r.secs),
                format!("{:.2}", r.gflops),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["shape", "mkn", "secs", "GFLOP/s"], &table)
    );

    // One row per (shape, form), one column per tier: `time_tiers` returns
    // the host's tiers in order, so the rows chunk evenly.
    let tier_names: Vec<String> = host_tiers().iter().map(Tier::to_string).collect();
    let table: Vec<Vec<String>> = tier_rows
        .chunks(tier_names.len())
        .map(|per_tier| {
            let r = &per_tier[0];
            let mut row = vec![
                r.name.to_string(),
                format!("{}x{}x{}", r.m, r.k, r.n),
                format!("{:?}", r.form),
            ];
            row.extend(per_tier.iter().map(|r| format!("{:.2}", r.gflops)));
            row
        })
        .collect();
    let mut headers = vec!["shape", "mkn", "form"];
    headers.extend(tier_names.iter().map(String::as_str));
    println!("GFLOP/s by tier:\n{}", render_table(&headers, &table));

    let table: Vec<Vec<String>> = packing
        .iter()
        .map(|(form, shares)| {
            let mut row = vec![format!("{form:?}")];
            row.extend(shares.iter().map(|s| format!("{:.1}%", s * 100.0)));
            row
        })
        .collect();
    println!(
        "share of a {} product ({}):\n{}",
        PACKING_SHAPE,
        kernel_name(),
        render_table(&["form", "pack_a", "pack_b", "ukr"], &table)
    );

    let table: Vec<Vec<String>> = elementwise
        .iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                format!("{}x{}", r.rows, r.cols),
                format!("{:.1}", r.secs * 1e6),
                format!("{:.2}", r.ns_per_elem()),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["elementwise", "shape", "us", "ns/elem"], &table)
    );

    let doc = Json::obj(vec![
        ("kernel", Json::Str(kernel_name().to_string())),
        ("host", bench::host_stamp()),
        ("smoke", Json::Bool(smoke)),
        ("metrics_overhead", Json::Num(overhead)),
        ("results", Json::Arr(rows.iter().map(Row::json).collect())),
        (
            "tiers",
            Json::Arr(tier_rows.iter().map(TierRow::json).collect()),
        ),
        (
            "packing",
            Json::obj(vec![
                ("shape", Json::Str(PACKING_SHAPE.to_string())),
                (
                    "rows",
                    Json::Arr(
                        packing
                            .iter()
                            .map(|(form, [pack_a, pack_b, ukr])| {
                                Json::obj(vec![
                                    ("form", Json::Str(format!("{form:?}"))),
                                    ("pack_a_frac", Json::Num(*pack_a)),
                                    ("pack_b_frac", Json::Num(*pack_b)),
                                    ("ukr_frac", Json::Num(*ukr)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ),
        (
            "elementwise",
            Json::Arr(elementwise.iter().map(ElementwiseRow::json).collect()),
        ),
        (
            "seed_baseline",
            Json::obj(vec![
                ("name", Json::Str(baseline_shape.name.to_string())),
                ("secs", Json::Num(seed_secs)),
                ("gflops", Json::Num(seed_gflops)),
            ]),
        ),
        ("speedup_vs_seed", Json::Num(speedup)),
    ]);
    std::fs::write(&out, doc.to_string()).expect("write BENCH_gemm.json");
    println!("wrote {out}");

    if let Some(path) = &trace_out {
        run_traced_product(path, if smoke { 256 } else { 512 });
    }

    if smoke {
        // Self-check 1: the artifact must parse back with minjson.
        let text = std::fs::read_to_string(&out).expect("re-read artifact");
        minjson::parse(&text).expect("BENCH_gemm.json must re-parse with minjson");
        // Self-check 2: on a host with both FMA tiers, the AVX-512 tier must
        // not be slower than the AVX2 tier at 256³ (10% tolerance absorbs
        // timer noise) — same bits either way, so only a timing catches a
        // tile the compiler stopped vectorizing.
        let tier_gflops = |tier: Tier| {
            tier_rows
                .iter()
                .find(|r| r.name == SQUARE_256 && r.form == Form::NN && r.tier == tier)
                .map(|r| r.gflops)
        };
        if let (Some(avx2), Some(avx512)) = (tier_gflops(Tier::Avx2), tier_gflops(Tier::Avx512)) {
            let tier_ratio = avx512 / avx2;
            if tier_ratio < 0.9 {
                eprintln!(
                    "FAIL: the AVX-512 tier is {tier_ratio:.2}x of the AVX2 tier at 256^3 \
                     ({avx512:.2} vs {avx2:.2} GFLOP/s, limit 0.9)"
                );
                std::process::exit(1);
            }
            println!("AVX-512 / AVX2 tier ratio at 256^3: {tier_ratio:.2}");
        }
        println!("smoke checks passed");
    }
}
