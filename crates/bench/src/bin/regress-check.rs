//! CI gate driver for the telemetry artifacts: validates `--metrics`
//! reports and compares fresh `BENCH_gemm.json` / `BENCH_coll.json` runs
//! against their committed baselines.
//!
//! ```text
//! regress-check validate REPORT.json
//! regress-check compare BASELINE.json FRESH.json [--tol FRACTION]
//! ```
//!
//! * `validate` — parse the file with `minjson` and check it against the
//!   `optimus-metrics-v1` report schema (`metrics::validate_report`).
//!   Exit 0 if well-formed, 1 with the reason otherwise.
//! * `compare`  — extract the comparable scalar metrics from both bench
//!   files (`metrics::regress::compare`) and gate each fresh value within
//!   `--tol` relative slack (default `0.5` — wide, sized for shared CI
//!   runners; tighten locally). Improvements never fail; metrics present on
//!   only one side are skipped with a warning, so a smoke run can be gated
//!   against a committed full baseline. Exit 0 on pass, 1 on any violation
//!   or structural mismatch.
//!
//! Both subcommands print what they checked — the gate should never fail
//! silently nor pass invisibly.

use minjson::Json;

fn usage() -> ! {
    eprintln!("usage: regress-check validate REPORT.json");
    eprintln!("       regress-check compare BASELINE.json FRESH.json [--tol FRACTION]");
    std::process::exit(2);
}

fn read_json(path: &str) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("regress-check: cannot read {path}: {e}");
        std::process::exit(1);
    });
    minjson::parse(&text).unwrap_or_else(|e| {
        eprintln!("regress-check: {path} is not valid JSON: {e}");
        std::process::exit(1);
    })
}

fn cmd_validate(path: &str) {
    let report = read_json(path);
    match metrics::validate_report(&report) {
        Ok(()) => {
            let source = match report.get("source") {
                Ok(Json::Str(s)) => s.clone(),
                _ => "unknown".to_string(),
            };
            let devices = report
                .get("devices")
                .and_then(|d| d.as_arr().map(|a| a.len()))
                .unwrap_or(0);
            println!("ok: {path} is a well-formed {source} metrics report ({devices} devices)");
        }
        Err(e) => {
            eprintln!("FAIL: {path} is not a valid metrics report: {e}");
            std::process::exit(1);
        }
    }
}

fn cmd_compare(baseline_path: &str, fresh_path: &str, tol: f64) {
    let baseline = read_json(baseline_path);
    let fresh = read_json(fresh_path);
    let cmp = match metrics::regress::compare(&baseline, &fresh, tol) {
        Ok(cmp) => cmp,
        Err(e) => {
            eprintln!("FAIL: cannot compare {fresh_path} against {baseline_path}: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "comparing {fresh_path} against baseline {baseline_path} (tol {:.0}%)",
        tol * 100.0
    );
    print!("{}", cmp.render());
    if cmp.passed() {
        println!(
            "ok: {} metric(s) within tolerance, no regressions",
            cmp.checks.len()
        );
    } else {
        eprintln!(
            "FAIL: {} of {} metric(s) regressed beyond tolerance",
            cmp.violations().len(),
            cmp.checks.len()
        );
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("validate") => {
            let [_, path] = args.as_slice() else { usage() };
            cmd_validate(path);
        }
        Some("compare") => {
            let (paths, mut tol) = (&args[1..], 0.5f64);
            let mut positional: Vec<&String> = Vec::new();
            let mut i = 0;
            while i < paths.len() {
                if paths[i] == "--tol" {
                    i += 1;
                    tol = paths
                        .get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| {
                            eprintln!("--tol needs a non-negative fraction, e.g. 0.5");
                            std::process::exit(2);
                        });
                } else {
                    positional.push(&paths[i]);
                }
                i += 1;
            }
            let [baseline, fresh] = positional.as_slice() else {
                usage()
            };
            if tol < 0.0 {
                eprintln!("--tol needs a non-negative fraction, e.g. 0.5");
                std::process::exit(2);
            }
            cmd_compare(baseline, fresh, tol);
        }
        _ => usage(),
    }
}
