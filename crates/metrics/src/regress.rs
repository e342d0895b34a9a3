//! Perf-regression gate: compare a fresh `BENCH_gemm.json` /
//! `BENCH_coll.json` run against the committed baseline.
//!
//! The bench binaries have always recorded their numbers; nothing *gated*
//! on them, so a kernel regression only surfaced when someone eyeballed the
//! JSON. This module extracts the comparable scalar metrics from both bench
//! schemas, pairs them by stable keys (shape name for GEMM rows; op +
//! payload + algorithm for collective rows), and checks each
//! fresh value against the baseline within a relative tolerance band:
//!
//! * higher-is-better metrics (GFLOP/s, GB/s, speedups): `fresh ≥ base·(1 − tol)`
//! * lower-is-better metrics (overhead ratios): `fresh ≤ base·(1 + tol)`
//!
//! Improvements never fail. Metrics present on only one side are skipped
//! (a smoke run covers a subset of the full shape sweep), so the same gate
//! works for CI smoke runs against the committed full baselines. Host
//! metadata (`host.threads`, `host.avx2`, `host.avx512f`) is *compared but
//! never gated* —
//! a mismatch is reported as a warning because absolute numbers from a
//! different machine are only loosely comparable; pick the tolerance
//! accordingly.

use minjson::Json;

/// One paired metric and its verdict.
#[derive(Clone, Debug)]
pub struct Check {
    /// Stable metric key, e.g. `"gemm.square-512.gflops"`.
    pub key: String,
    pub baseline: f64,
    pub fresh: f64,
    pub higher_is_better: bool,
    pub ok: bool,
}

impl Check {
    /// `fresh / baseline`, the number humans scan for.
    pub fn ratio(&self) -> f64 {
        if self.baseline == 0.0 {
            f64::NAN
        } else {
            self.fresh / self.baseline
        }
    }
}

/// Result of one baseline-vs-fresh comparison.
#[derive(Clone, Debug, Default)]
pub struct Comparison {
    pub checks: Vec<Check>,
    /// Non-gating observations (host mismatch, skipped keys).
    pub warnings: Vec<String>,
}

impl Comparison {
    pub fn violations(&self) -> Vec<&Check> {
        self.checks.iter().filter(|c| !c.ok).collect()
    }

    pub fn passed(&self) -> bool {
        !self.checks.is_empty() && self.violations().is_empty()
    }

    /// One line per check, violations marked, warnings appended.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for c in &self.checks {
            let dir = if c.higher_is_better { "↑" } else { "↓" };
            let verdict = if c.ok { "ok  " } else { "FAIL" };
            out.push_str(&format!(
                "{verdict} {dir} {:<36} base {:>12.6}  fresh {:>12.6}  ratio {:.3}\n",
                c.key,
                c.baseline,
                c.fresh,
                c.ratio()
            ));
        }
        for w in &self.warnings {
            out.push_str(&format!("warn: {w}\n"));
        }
        out
    }
}

fn num(j: &Json, key: &str) -> Option<f64> {
    j.get(key).ok().and_then(|v| v.as_f64().ok())
}

fn str_field(row: &Json, key: &str) -> Result<String, String> {
    match row.get(key)? {
        Json::Str(s) => Ok(s.clone()),
        other => Err(format!("{key} must be a string, got {}", other.to_string())),
    }
}

/// `(key, value, higher_is_better)` triples extracted from one bench file.
fn extract(j: &Json) -> Result<Vec<(String, f64, bool)>, String> {
    let mut out = Vec::new();
    if j.get("speedup_vs_seed").is_ok() {
        // BENCH_gemm.json
        out.push((
            "gemm.speedup_vs_seed".into(),
            j.get("speedup_vs_seed")?.as_f64()?,
            true,
        ));
        for row in j.get("results")?.as_arr()? {
            let name = str_field(row, "name")?;
            let gflops = row.get("gflops")?.as_f64()?;
            out.push((format!("gemm.{name}.gflops"), gflops, true));
        }
        // Element-wise kernel rows (absent from files written before them).
        if let Ok(rows) = j.get("elementwise") {
            for row in rows.as_arr()? {
                let name = str_field(row, "name")?;
                let (r, c) = (row.get("rows")?.as_usize()?, row.get("cols")?.as_usize()?);
                let rate = row.get("melem_per_s")?.as_f64()?;
                out.push((
                    format!("elementwise.{name}.{r}x{c}.melem_per_s"),
                    rate,
                    true,
                ));
            }
        }
        if let Some(ovh) = num(j, "metrics_overhead") {
            // Overhead ratio: lower is better, and it must stay near 1.
            out.push(("gemm.metrics_overhead".into(), ovh, false));
        }
    } else if j.get("coll_winners").is_ok() {
        // BENCH_coll.json
        for row in j.get("results")?.as_arr()? {
            let op = str_field(row, "op")?;
            let algo = str_field(row, "algo")?;
            let elems = row.get("elems")?.as_usize()?;
            let gbps = row.get("gbps")?.as_f64()?;
            // Compressed cells carry a "wire" key and get their own metric
            // key; full-width rows keep the legacy key so old baselines
            // still pair up.
            let key = match row.get("wire") {
                Ok(Json::Str(w)) if w != "f32" => {
                    format!("coll.{op}.e{elems}.{algo}.{w}.gbps")
                }
                _ => format!("coll.{op}.e{elems}.{algo}.gbps"),
            };
            out.push((key, gbps, true));
        }
        for row in j.get("coll_winners")?.as_arr()? {
            let op = str_field(row, "op")?;
            let elems = row.get("elems")?.as_usize()?;
            let speedup = row.get("speedup_vs_default")?.as_f64()?;
            out.push((format!("coll.{op}.e{elems}.win_vs_default"), speedup, true));
        }
    } else {
        return Err(
            "unrecognized bench file: expected BENCH_gemm.json or BENCH_coll.json shape"
                .to_string(),
        );
    }
    Ok(out)
}

fn host_warnings(baseline: &Json, fresh: &Json) -> Vec<String> {
    let mut warnings = Vec::new();
    let base_host = baseline.get("host").ok();
    let fresh_host = fresh.get("host").ok();
    match (base_host, fresh_host) {
        (Some(b), Some(f)) => {
            for key in ["threads", "avx2", "avx512f"] {
                let (bv, fv) = (b.get(key).ok(), f.get(key).ok());
                if bv != fv {
                    warnings.push(format!(
                        "host.{key} differs: baseline {} vs fresh {} — absolute numbers are only loosely comparable",
                        bv.map_or("absent".into(), |v| v.to_string()),
                        fv.map_or("absent".into(), |v| v.to_string()),
                    ));
                }
            }
        }
        (None, _) => warnings.push("baseline has no host stamp (pre-stamp file)".into()),
        (_, None) => warnings.push("fresh run has no host stamp".into()),
    }
    warnings
}

/// Compares a fresh bench file against its committed baseline. `rel_tol`
/// is the allowed relative slack (e.g. `0.5` = fresh may be up to 50%
/// worse). Errors only on structural problems — a mismatched file kind or
/// zero pairable metrics; slow numbers are reported as failed [`Check`]s.
pub fn compare(baseline: &Json, fresh: &Json, rel_tol: f64) -> Result<Comparison, String> {
    assert!(rel_tol >= 0.0, "tolerance must be non-negative");
    let base = extract(baseline).map_err(|e| format!("baseline: {e}"))?;
    let new = extract(fresh).map_err(|e| format!("fresh: {e}"))?;
    let mut warnings = host_warnings(baseline, fresh);

    let mut checks = Vec::new();
    for (key, fresh_v, higher) in &new {
        let Some((_, base_v, _)) = base.iter().find(|(k, _, _)| k == key) else {
            warnings.push(format!("{key}: not in baseline, skipped"));
            continue;
        };
        let ok = if *higher {
            *fresh_v >= base_v * (1.0 - rel_tol)
        } else {
            *fresh_v <= base_v * (1.0 + rel_tol)
        };
        checks.push(Check {
            key: key.clone(),
            baseline: *base_v,
            fresh: *fresh_v,
            higher_is_better: *higher,
            ok,
        });
    }
    if checks.is_empty() {
        return Err("no comparable metrics between baseline and fresh run".into());
    }
    // Honesty flag: never silently compare a smoke run as if it were full.
    let smoke = |j: &Json| matches!(j.get("smoke"), Ok(Json::Bool(true)));
    if smoke(fresh) && !smoke(baseline) {
        warnings.push("fresh run is a smoke run compared against a full baseline".into());
    }
    Ok(Comparison { checks, warnings })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gemm(gflops_512: f64, speedup: f64, smoke: bool) -> Json {
        minjson::parse(&format!(
            r#"{{"smoke":{smoke},"speedup_vs_seed":{speedup},
                "host":{{"threads":1,"avx2":true}},
                "results":[
                  {{"name":"square-512","gflops":{gflops_512},"m":512,"n":512,"k":512,"secs":0.004}},
                  {{"name":"square-64","gflops":30.0,"m":64,"n":64,"k":64,"secs":0.0001}}
                ]}}"#
        ))
        .unwrap()
    }

    fn coll(ring_gbps: f64, speedup: f64) -> Json {
        minjson::parse(&format!(
            r#"{{"smoke":false,"devices":8,
                "host":{{"threads":1,"avx2":true}},
                "results":[
                  {{"op":"AllReduce","algo":"ring","elems":1024,"secs":0.0001,"gbps":{ring_gbps}}},
                  {{"op":"AllReduce","algo":"tree","elems":1024,"secs":0.00005,"gbps":0.08}},
                  {{"op":"AllReduce","algo":"ring","elems":1024,"secs":0.00008,"gbps":0.05,"wire":"bf16"}}
                ],
                "coll_winners":[
                  {{"op":"AllReduce","elems":1024,"algo":"tree","gbps":0.08,
                    "speedup_vs_default":{speedup}}}
                ]}}"#
        ))
        .unwrap()
    }

    #[test]
    fn elementwise_rows_pair_by_name_and_shape() {
        let with_rows = |rate: f64| {
            let mut j = gemm(57.0, 3.2, false);
            let Json::Obj(fields) = &mut j else {
                unreachable!()
            };
            let rows = format!(
                r#"[{{"name":"gelu_fwd_bwd","rows":256,"cols":512,"us":300.0,
                     "ns_per_elem":2.3,"melem_per_s":{rate}}}]"#
            );
            fields.insert("elementwise".into(), minjson::parse(&rows).unwrap());
            j
        };
        let cmp = compare(&with_rows(430.0), &with_rows(400.0), 0.1).unwrap();
        assert!(cmp.passed(), "{}", cmp.render());
        assert!(
            cmp.checks
                .iter()
                .any(|c| c.key == "elementwise.gelu_fwd_bwd.256x512.melem_per_s"
                    && c.higher_is_better)
        );
        assert!(!compare(&with_rows(430.0), &with_rows(200.0), 0.1)
            .unwrap()
            .passed());
        // A baseline written before the rows existed still gates the rest.
        let cmp = compare(&gemm(57.0, 3.2, false), &with_rows(430.0), 0.1).unwrap();
        assert!(cmp.passed(), "{}", cmp.render());
    }

    #[test]
    fn coll_bandwidth_and_wins_are_higher_is_better() {
        let cmp = compare(&coll(0.04, 2.0), &coll(0.04, 2.0), 0.1).unwrap();
        assert!(cmp.passed(), "{}", cmp.render());
        assert!(cmp
            .checks
            .iter()
            .any(|c| c.key == "coll.AllReduce.e1024.ring.gbps" && c.higher_is_better));
        assert!(cmp
            .checks
            .iter()
            .any(|c| c.key == "coll.AllReduce.e1024.win_vs_default"));
        // Compressed cells key separately, so a bf16 row never pairs with
        // (or regresses against) the full-width cell of the same shape.
        assert!(cmp
            .checks
            .iter()
            .any(|c| c.key == "coll.AllReduce.e1024.ring.bf16.gbps" && c.higher_is_better));
        // Halved bandwidth with a 10% band: must fail.
        let cmp = compare(&coll(0.04, 2.0), &coll(0.02, 2.0), 0.1).unwrap();
        assert!(!cmp.passed());
        // A winner that stops winning fails too.
        let cmp = compare(&coll(0.04, 2.0), &coll(0.04, 0.9), 0.1).unwrap();
        assert!(!cmp.passed());
    }

    #[test]
    fn identical_gemm_runs_pass() {
        let cmp = compare(&gemm(57.0, 3.2, false), &gemm(57.0, 3.2, false), 0.1).unwrap();
        assert!(cmp.passed(), "{}", cmp.render());
        assert!(cmp.checks.len() >= 3);
    }

    #[test]
    fn gemm_regression_fails_and_improvement_passes() {
        // 40% slower at 512 with a 10% band: must fail.
        let cmp = compare(&gemm(57.0, 3.2, false), &gemm(34.0, 3.2, false), 0.1).unwrap();
        assert!(!cmp.passed());
        let bad = cmp.violations();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].key, "gemm.square-512.gflops");
        // 40% faster: improvements never fail.
        let cmp = compare(&gemm(57.0, 3.2, false), &gemm(80.0, 4.5, false), 0.1).unwrap();
        assert!(cmp.passed());
    }

    #[test]
    fn metrics_overhead_is_lower_is_better() {
        let with_overhead = |ovh: f64| {
            let mut j = gemm(57.0, 3.2, false);
            let Json::Obj(fields) = &mut j else {
                unreachable!()
            };
            fields.insert("metrics_overhead".into(), Json::Num(ovh));
            j
        };
        let cmp = compare(&with_overhead(1.01), &with_overhead(1.02), 0.25).unwrap();
        assert!(cmp.passed(), "{}", cmp.render());
        let cmp = compare(&with_overhead(1.01), &with_overhead(2.0), 0.25).unwrap();
        assert!(!cmp.passed());
        assert!(cmp
            .violations()
            .iter()
            .any(|c| c.key == "gemm.metrics_overhead" && !c.higher_is_better));
    }

    #[test]
    fn missing_shapes_are_skipped_with_warning() {
        // Fresh smoke run covers only square-64; square-512 must be skipped,
        // and the smoke-vs-full mismatch noted.
        let fresh = minjson::parse(
            r#"{"smoke":true,"speedup_vs_seed":3.1,
                "host":{"threads":1,"avx2":true},
                "results":[{"name":"square-64","gflops":29.0,"m":64,"n":64,"k":64,"secs":0.0001}]}"#,
        )
        .unwrap();
        let cmp = compare(&gemm(57.0, 3.2, false), &fresh, 0.5).unwrap();
        assert!(cmp.passed(), "{}", cmp.render());
        assert!(cmp.warnings.iter().any(|w| w.contains("smoke run")));
        assert!(!cmp.checks.iter().any(|c| c.key.contains("square-512")));
    }

    #[test]
    fn host_mismatch_warns_but_does_not_gate() {
        let with_host = |threads: f64, avx512f: bool| {
            let mut j = gemm(57.0, 3.2, false);
            if let Json::Obj(map) = &mut j {
                map.insert(
                    "host".into(),
                    Json::obj(vec![
                        ("threads", Json::Num(threads)),
                        ("avx2", Json::Bool(true)),
                        ("avx512f", Json::Bool(avx512f)),
                    ]),
                );
            }
            j
        };
        let warned = |cmp: &Comparison, key: &str| cmp.warnings.iter().any(|w| w.contains(key));
        // A baseline stamped before `avx512f` existed differs in that key.
        let cmp = compare(&gemm(57.0, 3.2, false), &with_host(8.0, true), 0.1).unwrap();
        assert!(cmp.passed());
        assert!(warned(&cmp, "host.threads") && warned(&cmp, "host.avx512f"));
        assert!(!warned(&cmp, "host.avx2"));
        // An AVX2-only runner against an AVX-512 baseline: the tier's ~1.5×
        // reads as a kernel regression, and the warning sits beside it.
        let cmp = compare(&with_host(1.0, true), &with_host(1.0, false), 0.1).unwrap();
        assert!(warned(&cmp, "host.avx512f") && !warned(&cmp, "host.threads"));
        let cmp = compare(&with_host(1.0, true), &with_host(1.0, true), 0.1).unwrap();
        assert!(cmp.warnings.is_empty(), "{}", cmp.render());
    }

    #[test]
    fn mismatched_file_kinds_error() {
        assert!(compare(&gemm(57.0, 3.2, false), &coll(0.04, 2.0), 0.1).is_err());
        assert!(compare(&Json::obj(vec![]), &gemm(57.0, 3.2, false), 0.1).is_err());
    }
}
