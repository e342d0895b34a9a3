//! One step benchmark for every parallel scheme in the repository.
//!
//! ```text
//! stepbench [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]
//!           [--quick] [--check-repeat] [--out PATH]
//! ```
//!
//! * no `--trace` — both passes: the untraced pass over the chosen workloads
//!   (their rounds interleaved), then one traced pass per workload;
//! * `--trace 0` / `--trace 1` — only the untraced / only the traced pass.
//!   With exactly one `--workload` the last line printed is the result
//!   object `/BENCHMARK.json` describes;
//! * `--seconds S` — seconds each workload measures for in each pass;
//! * `--quick` — one round of five steps, no replays: a smoke run whose
//!   numbers compare with nothing;
//! * `--check-repeat` — the untraced pass twice, A then B; fails if any
//!   end-to-end metric differs by more than its bound.
//!
//! Exit code 0 only if every output check passed.

mod report;
mod round;
mod spans;
mod stats;
mod traced;
mod untraced;
mod workloads;

use minjson::Json;
use report::{MetricDef, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::time::Instant;
use untraced::{Effort, Rounds};
use workloads::{Workload, WORKLOADS};

const BENCH_DIR: &str = env!("CARGO_MANIFEST_DIR");

/// Rounds of the untraced pass: each is one `setup_s` and one
/// `tokens_per_s` sample.
const ROUNDS: usize = 5;

struct Args {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    quick: bool,
    check_repeat: bool,
    out: PathBuf,
}

fn usage(problem: &str) -> ! {
    eprintln!("stepbench: {problem}");
    eprintln!(
        "usage: stepbench [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1] \
         [--quick] [--check-repeat] [--out PATH]"
    );
    eprintln!("workloads: {}", WORKLOADS.map(|w| w.name).join(", "));
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut a = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 20.0,
        trace: None,
        quick: false,
        check_repeat: false,
        out: Path::new(BENCH_DIR).join("out/latest.json"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value();
                let w = workloads::by_name(&name)
                    .unwrap_or_else(|| usage(&format!("unknown workload {name:?}")));
                a.workloads.push(w);
            }
            "--seed" => {
                a.seed = value()
                    .parse()
                    .unwrap_or_else(|_| usage("--seed takes a whole number"));
            }
            "--seconds" => {
                a.seconds = value().parse().unwrap_or(f64::NAN);
                if !(a.seconds >= 1.0 && a.seconds <= 600.0) {
                    usage("--seconds takes a number from 1 to 600");
                }
            }
            "--trace" => {
                a.trace = Some(match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                });
            }
            "--quick" => a.quick = true,
            "--check-repeat" => a.check_repeat = true,
            "--out" => a.out = PathBuf::from(value()),
            _ => usage(&format!("unknown flag {flag:?}")),
        }
    }
    if a.workloads.is_empty() {
        a.workloads = WORKLOADS.iter().collect();
    }
    for w in &a.workloads {
        w.validate().unwrap_or_else(|e| usage(&e));
        println!("{}: {}", w.name, w.why);
    }
    a
}

fn print_metric(workload: &str, d: &MetricDef, value: f64, note: &str) {
    println!(
        "{workload:<22} {:<34} {value:>14.4} {:<8} {note}",
        d.name, d.unit
    );
}

fn print_untraced(r: &Rounds) {
    let name = r.workload.name;
    let samples = r.step_s().len();
    for ((d, bound), v) in END_TO_END.iter().zip(r.metrics()) {
        let note = match d.name {
            "step_ms_p50" | "tokens_per_s" => format!("n={samples} steps, bound {bound}"),
            "setup_s" => format!("n={} rounds, bound {bound}", r.rounds.len()),
            _ => format!("bound {bound}"),
        };
        print_metric(name, d, v, &note);
    }
    match r.step_tail_ms() {
        Some((pct, ms)) => println!(
            "{name:<22} {:<34} {ms:>14.4} ms       ten samples lie beyond it",
            format!("step_ms_p{pct}")
        ),
        None => println!("{name:<22} (too few steps for a tail percentile)"),
    }
    println!(
        "{name:<22} {:<34} {:>14.4} frac     {} failed / {} attempted",
        "failed_frac",
        r.failed as f64 / r.attempted.max(1) as f64,
        r.failed,
        r.attempted
    );
}

fn report_failures(r: &Rounds) {
    for f in &r.failures {
        eprintln!("FAIL: {f}");
    }
}

fn rounds_json(r: &Rounds) -> Json {
    Json::obj(vec![
        ("attempted", Json::Num(r.attempted as f64)),
        ("failed", Json::Num(r.failed as f64)),
        ("correct", Json::Bool(r.correct())),
        ("step_samples", Json::Num(r.step_s().len() as f64)),
        ("setup_samples", Json::Num(r.rounds.len() as f64)),
        (
            "step_ms",
            Json::Arr(
                r.rounds
                    .iter()
                    .map(|round| {
                        Json::Arr(round.step_s.iter().map(|s| Json::Num(s * 1e3)).collect())
                    })
                    .collect(),
            ),
        ),
    ])
}

fn end_to_end_json(r: &Rounds) -> Json {
    report::metrics_json(END_TO_END.iter().map(|(d, _)| d).zip(r.metrics()))
}

fn write_file(path: &Path, text: &str) {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    }
    std::fs::write(path, text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}

/// Warns when this host cannot time-share 16 device threads sensibly, or is
/// not the host the previous result file was measured on.
fn host_warnings(out: &Path) {
    let n = report::nproc();
    if n < 2 {
        eprintln!(
            "warning: nproc = {n}; device threads outnumber cores 16 to 1, timings will be noisy"
        );
    }
    let previous = std::fs::read_to_string(out)
        .ok()
        .and_then(|t| minjson::parse(&t).ok())
        .and_then(|j| {
            j.get("host")
                .and_then(|h| h.get("nproc"))
                .and_then(Json::as_usize)
                .ok()
        });
    if let Some(p) = previous.filter(|&p| p != n) {
        eprintln!(
            "warning: {} was measured with nproc = {p}, this host has {n}",
            out.display()
        );
    }
}

/// `--check-repeat`: the untraced suite twice; every end-to-end metric of
/// run B must be within its bound of run A. Returns whether it was.
fn check_repeat(args: &Args, effort: Effort) -> bool {
    let a = untraced::run(&args.workloads, args.seed, effort);
    let b = untraced::run(&args.workloads, args.seed, effort);
    let mut ok = true;
    println!(
        "{:<22} {:<20} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "A", "B", "rel.diff", "bound"
    );
    for (ra, rb) in a.iter().zip(&b) {
        report_failures(ra);
        report_failures(rb);
        ok &= ra.correct() && rb.correct();
        for (((d, bound), va), vb) in END_TO_END.iter().zip(ra.metrics()).zip(rb.metrics()) {
            let worse = if d.better == "lower" {
                vb / va - 1.0
            } else {
                1.0 - vb / va
            };
            let verdict = if worse > *bound { "EXCEEDED" } else { "" };
            ok &= worse <= *bound;
            println!(
                "{:<22} {:<20} {va:>14.4} {vb:>14.4} {:>+9.4} {bound:>7} {verdict}",
                ra.workload.name,
                d.name,
                vb / va - 1.0
            );
        }
    }
    ok
}

fn main() {
    let args = parse_args();
    host_warnings(&args.out);
    let effort = if args.quick {
        println!(
            "--quick: one round of five steps, no replays; these numbers compare with nothing"
        );
        Effort {
            rounds: 1,
            seconds: None,
        }
    } else {
        Effort {
            rounds: ROUNDS,
            seconds: Some(args.seconds),
        }
    };
    if args.check_repeat {
        std::process::exit(if check_repeat(&args, effort) { 0 } else { 1 });
    }

    let started = Instant::now();
    let mut ok = true;
    let mut doc: Vec<(&str, Json)> = vec![
        (
            "host",
            report::host_stamp(Path::new(BENCH_DIR).join("..").as_path()),
        ),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("quick", Json::Bool(args.quick)),
    ];
    let mut per_workload: Vec<Vec<(&str, Json)>> =
        args.workloads.iter().map(|_| Vec::new()).collect();
    // The contract's result: the metrics of the single workload and pass asked for.
    let mut result = None;

    if args.trace != Some(true) {
        let runs = untraced::run(&args.workloads, args.seed, effort);
        for (r, fields) in runs.iter().zip(&mut per_workload) {
            print_untraced(r);
            report_failures(r);
            ok &= r.correct() && r.metrics().iter().all(|v| v.is_finite() && *v > 0.0);
            fields.push(("untraced", rounds_json(r)));
            fields.push(("end_to_end", end_to_end_json(r)));
            result = Some(report::result_line(
                ok,
                r.attempted,
                r.failed,
                end_to_end_json(r),
            ));
        }
    }
    if args.trace != Some(false) {
        for (w, fields) in args.workloads.iter().zip(&mut per_workload) {
            let t = traced::run(w, args.seed, effort.seconds);
            for d in PER_LAYER.iter() {
                match t.values.get(d.name) {
                    Some(&v) => print_metric(w.name, d, v, ""),
                    None => println!("{:<22} {:<34} {:>14}", w.name, d.name, "(skipped)"),
                }
            }
            println!(
                "{:<22} {:<34} {:>14.4} MiB      from the traced round",
                w.name,
                "peak_mem_mib",
                t.rounds.peak_bytes as f64 / untraced::MIB
            );
            report_failures(&t.rounds);
            ok &= t.rounds.correct();
            // A `--quick` pass skips the replays, so some metrics are absent.
            let present = || {
                PER_LAYER
                    .iter()
                    .filter_map(|d| Some((d, *t.values.get(d.name)?)))
            };
            let layers = report::metrics_json(present());
            let complete = present().filter(|(_, v)| v.is_finite()).count() == PER_LAYER.len();
            ok &= complete || args.quick;
            let trace_path = Path::new(BENCH_DIR).join(format!("out/trace_{}.json", w.name));
            write_file(
                &trace_path,
                &Json::obj(vec![
                    ("workload", Json::Str(w.name.to_string())),
                    ("seed", Json::Num(args.seed as f64)),
                    ("counters", layers.clone()),
                    ("spans", spans::to_json(&t.spans)),
                ])
                .to_string(),
            );
            println!(
                "{:<22} wrote {} ({} spans)",
                w.name,
                trace_path.display(),
                t.spans.len()
            );
            result = complete.then(|| {
                report::result_line(ok, t.rounds.attempted, t.rounds.failed, layers.clone())
            });
            fields.push(("traced_rounds", rounds_json(&t.rounds)));
            fields.push(("per_layer", layers));
        }
    }

    doc.push((
        "workloads",
        Json::obj(
            args.workloads
                .iter()
                .zip(per_workload)
                .map(|(w, fields)| (w.name, Json::obj(fields)))
                .collect(),
        ),
    ));
    write_file(&args.out, &Json::obj(doc).to_string());
    println!(
        "wrote {} after {:.1} s",
        args.out.display(),
        started.elapsed().as_secs_f64()
    );

    if args.workloads.len() == 1 && args.trace.is_some() && !args.quick {
        match result {
            Some(line) => println!("{line}"),
            None => {
                eprintln!("FAIL: a metric is missing or not finite");
                ok = false;
            }
        }
    }
    std::process::exit(if ok { 0 } else { 1 });
}
