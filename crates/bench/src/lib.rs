//! Shared helpers for the reproduction harness: text-table rendering, CSV
//! output for `optimus-cli repro`, and a minimal wall-clock microbenchmark
//! runner used by `gemm-bench`.

pub mod coll;

use std::fs;
use std::path::Path;
use std::time::Instant;

pub use std::hint::black_box;

/// Runs `f` a few warm-up times, then `samples` timed times, and prints a
/// `group/label: min/median/mean` line. Returns the median seconds so
/// callers can assert relative speed if they want to.
///
/// Deliberately tiny: no statistics beyond min/median/mean, no outlier
/// rejection — enough to eyeball the ablation deltas the paper discusses.
pub fn bench_fn<T>(group: &str, label: &str, samples: usize, f: impl FnMut() -> T) -> f64 {
    bench_times(group, label, samples, f).1
}

/// Like [`bench_fn`] but returns the **minimum** seconds — the
/// noise-robust statistic to use when comparing two timings on a loaded
/// machine (the min converges on the true cost; the median wanders with
/// scheduler interference).
pub fn bench_fn_min<T>(group: &str, label: &str, samples: usize, f: impl FnMut() -> T) -> f64 {
    bench_times(group, label, samples, f).0
}

fn bench_times<T>(
    group: &str,
    label: &str,
    samples: usize,
    mut f: impl FnMut() -> T,
) -> (f64, f64) {
    let samples = samples.max(1);
    for _ in 0..2.min(samples) {
        black_box(f());
    }
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let min = times[0];
    let median = times[times.len() / 2];
    let mean: f64 = times.iter().sum::<f64>() / times.len() as f64;
    println!(
        "{group}/{label:<28} min {:>10.3?}  median {:>10.3?}  mean {:>10.3?}",
        std::time::Duration::from_secs_f64(min),
        std::time::Duration::from_secs_f64(median),
        std::time::Duration::from_secs_f64(mean),
    );
    (min, median)
}

/// Renders an aligned text table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let sep: String = widths
        .iter()
        .map(|w| "-".repeat(w + 2))
        .collect::<Vec<_>>()
        .join("+");
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!(" {c:>w$} "))
            .collect::<Vec<_>>()
            .join("|")
    };
    let mut out = String::new();
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&fmt_row(&header_cells));
    out.push('\n');
    out.push_str(&sep);
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row));
        out.push('\n');
    }
    out
}

/// Writes rows as CSV under `results/` (creating the directory), returning
/// the path written.
pub fn write_csv(name: &str, headers: &[&str], rows: &[Vec<String>]) -> std::io::Result<String> {
    let dir = Path::new("results");
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.csv"));
    let mut body = headers.join(",");
    body.push('\n');
    for row in rows {
        body.push_str(&row.join(","));
        body.push('\n');
    }
    fs::write(&path, body)?;
    Ok(path.display().to_string())
}

/// Host metadata stamp embedded in every `BENCH_*.json` so the regression
/// gate ([`metrics::regress`]) can tell whether a baseline and a fresh run
/// came from comparable machines. Keys `threads`, `avx2` and `avx512f` are
/// the ones `regress::compare` warns on when they differ — the last two say
/// which `tensor::gemm::Tier` the kernels ran at, worth ~1.5× between
/// neighbours; `git_rev` records which commit produced the numbers
/// (best-effort — `"unknown"` outside a git checkout).
pub fn host_stamp() -> minjson::Json {
    use minjson::Json;
    // Record whether core detection actually succeeded: `threads: 1` from a
    // failed probe and a genuine single-core host are different situations,
    // and whoever compares two stamps wants to know which one they are on.
    let detected = std::thread::available_parallelism();
    let threads = detected.as_ref().map_or(1, |n| n.get());
    let threads_detected = detected.is_ok();
    let tier = tensor::gemm::Tier::host();
    let git_rev = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string());
    Json::obj(vec![
        ("threads", Json::Num(threads as f64)),
        ("threads_detected", Json::Bool(threads_detected)),
        ("avx2", Json::Bool(tier >= tensor::gemm::Tier::Avx2)),
        ("avx512f", Json::Bool(tier >= tensor::gemm::Tier::Avx512)),
        ("git_rev", Json::Str(git_rev)),
    ])
}

/// Formats a float with 4 decimal places.
pub fn f4(x: f64) -> String {
    format!("{x:.4}")
}

/// Formats a float with 3 decimal places.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = render_table(
            &["a", "long-header"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines.windows(2).all(|w| w[0].len() == w[1].len()));
    }

    #[test]
    fn f4_and_f3_format() {
        assert_eq!(f4(1.23456), "1.2346");
        assert_eq!(f3(1.23456), "1.235");
    }

    #[test]
    fn host_stamp_has_gate_keys() {
        let stamp = host_stamp();
        // `threads`, `avx2` and `avx512f` are the keys regress::compare warns
        // on; all must be present and well-typed on every platform.
        assert!(stamp.get("threads").unwrap().as_usize().unwrap() >= 1);
        assert!(matches!(
            stamp.get("threads_detected").unwrap(),
            minjson::Json::Bool(_)
        ));
        for key in ["avx2", "avx512f"] {
            assert!(matches!(stamp.get(key).unwrap(), minjson::Json::Bool(_)));
        }
        assert!(matches!(
            stamp.get("git_rev").unwrap(),
            minjson::Json::Str(s) if !s.is_empty()
        ));
    }
}
