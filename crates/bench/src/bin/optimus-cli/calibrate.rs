//! `calibrate`: the measured compute rate from a `gemm-bench` artifact,
//! persisted where every projection loads it.

use minjson::Json;
use perf::calibration::CALIBRATION_PATH;
use perf::Calibration;
use std::collections::HashMap;

/// Extracts a [`Calibration`] from a `gemm-bench` artifact: the engine row
/// with the most MACs (the most load-bearing measurement, `square-512` in a
/// full run). Errors name the path.
fn calibration_from_bench(path: &str) -> Result<Calibration, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
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
    best.map(|(_, cal)| cal)
        .ok_or_else(|| format!("{path} has no result rows"))
}

/// The `calibrate` command: read the measured compute rate from a
/// `gemm-bench` artifact and persist it where [`crate::projection_cost`]
/// auto-loads it.
pub fn calibrate(flags: &HashMap<String, String>) {
    let bench_path = flags
        .get("bench")
        .map(String::as_str)
        .unwrap_or("BENCH_gemm.json");
    let cal = calibration_from_bench(bench_path).unwrap_or_else(|e| {
        eprintln!("error: {e} (gemm-bench --out {bench_path} measures the engine)");
        std::process::exit(1);
    });
    println!("read measured rate from {bench_path}");
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

#[cfg(test)]
mod tests {
    use super::*;

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
        let cal = calibration_from_bench(path.to_str().unwrap()).unwrap();
        assert_eq!(cal.shape, [512, 512, 512]);
        assert!((cal.gflops() - 50.0).abs() < 1e-9);
        assert!(cal.source.ends_with("square-512"));
        let e = calibration_from_bench("/nonexistent/BENCH.json").unwrap_err();
        assert!(e.contains("/nonexistent/BENCH.json"), "{e}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
