//! Metric names, units and bounds — mirrored by `/BENCHMARK.json`, which a
//! unit test holds equal to these tables — and the JSON the run writes.

use minjson::Json;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "higher",
    }
}

/// End-to-end metrics with the share of the parent's median by which each
/// may worsen. Failed steps are not a metric here (they must be 0, and the
/// contract wants metrics that never are): they are the `failed` /
/// `attempted` counts of the result line.
pub const END_TO_END: [(MetricDef, f64); 5] = [
    (lower("step_ms_p50", "ms"), 0.15),
    (higher("tokens_per_s", "1/s"), 0.25),
    (lower("comm_mib_per_step", "MiB"), 0.001),
    (lower("peak_mem_mib", "MiB"), 0.01),
    (lower("setup_s", "s"), 0.25),
];

/// Per-layer metrics, layer = crate; `model.*` is the workload's own model
/// crate (`optimus-core`, `megatron` or `hybrid`). Every workload reports
/// every metric — see the README for what each probes on a workload whose
/// steps never enter that layer.
pub const PER_LAYER: [MetricDef; 47] = [
    higher("tensor.gemm_nn_gflops", "GFLOP/s"),
    higher("tensor.gemm_nt_gflops", "GFLOP/s"),
    higher("tensor.gemm_tn_gflops", "GFLOP/s"),
    lower("tensor.softmax_us", "us"),
    lower("tensor.layernorm_us", "us"),
    lower("tensor.gelu_us", "us"),
    lower("tensor.xent_us", "us"),
    lower("tensor.pool_jobs_per_step", "count"),
    higher("tensor.pool_shared_frac", "frac"),
    lower("tensor.pool_idle_ms_per_step", "ms"),
    lower("mesh.spawn_ms", "ms"),
    lower("mesh.bcast_us", "us"),
    lower("mesh.reduce_us", "us"),
    lower("mesh.allreduce_us", "us"),
    lower("mesh.allgather_us", "us"),
    lower("mesh.reducescatter_us", "us"),
    lower("mesh.sendrecv_us", "us"),
    lower("mesh.barrier_us", "us"),
    lower("mesh.coll_calls_per_step", "count"),
    lower("mesh.link_msgs_per_step", "count"),
    lower("mesh.link_mib_per_step_max_rank", "MiB"),
    lower("mesh.wait_frac", "frac"),
    lower("summa.nn_ms", "ms"),
    lower("summa.nt_ms", "ms"),
    lower("summa.tn_ms", "ms"),
    higher("summa.local_gemm_frac", "frac"),
    lower("summa.nn25d_ms", "ms"),
    lower("model.init_ms", "ms"),
    lower("model.fwd_ms", "ms"),
    lower("model.fwd_bwd_ms", "ms"),
    lower("model.optim_ms", "ms"),
    lower("model.layer_fwd_ms", "ms"),
    lower("model.layer_bwd_ms", "ms"),
    lower("model.sync_ms", "ms"),
    lower("model.unattributed_frac", "frac"),
    lower("model.bubble_frac_sched", "frac"),
    lower("model.peak_live_microbatches", "count"),
    lower("serial.step_ms", "ms"),
    higher("serial.tokens_per_s", "1/s"),
    lower("perf.comm_model_per_step", "model_ms"),
    lower("perf.comm_residual_frac", "frac"),
    lower("perf.autotune_512_ms", "ms"),
    lower("metrics.overhead_frac", "frac"),
    lower("bench.step_ms_min", "ms"),
    lower("bench.step_cv", "frac"),
    lower("bench.loss_first", "nats"),
    lower("bench.loss_final", "nats"),
];

/// `{"name": {"value": v, "unit": u}, …}`.
pub fn metrics_json<'a>(metrics: impl IntoIterator<Item = (&'a MetricDef, f64)>) -> Json {
    Json::obj(
        metrics
            .into_iter()
            .map(|(d, v)| {
                (
                    d.name,
                    Json::obj(vec![
                        ("value", Json::Num(v)),
                        ("unit", Json::Str(d.unit.to_string())),
                    ]),
                )
            })
            .collect(),
    )
}

/// The one-line result the benchmark contract asks for.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: Json) -> String {
    Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", metrics),
    ])
    .to_string()
}

/// Hardware threads of this host, as the compute pool sees them.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn git_rev(repo: &std::path::Path) -> Option<String> {
    let head = std::fs::read_to_string(repo.join(".git/HEAD")).ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => Some(
            std::fs::read_to_string(repo.join(".git").join(r))
                .ok()?
                .trim()
                .to_string(),
        ),
        None => Some(head.to_string()),
    }
}

/// What the numbers depend on besides the code: cores, SIMD, revision.
pub fn host_stamp(repo: &std::path::Path) -> Json {
    #[cfg(target_arch = "x86_64")]
    let avx2 = std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    let avx2 = false;
    Json::obj(vec![
        ("nproc", Json::Num(nproc() as f64)),
        ("avx2", Json::Bool(avx2)),
        (
            "git_rev",
            // A checkout without `.git` (the driver's) has no revision.
            Json::Str(git_rev(repo).unwrap_or_else(|| "unknown".to_string())),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;
    use std::collections::BTreeSet;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            && name.chars().next().unwrap().is_ascii_alphanumeric()
    }

    fn manifest() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        minjson::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
            .expect("BENCHMARK.json parses")
    }

    fn str_of(j: &Json, key: &str) -> String {
        match j.get(key).unwrap() {
            Json::Str(s) => s.clone(),
            other => panic!("{key} is not a string: {}", other.to_string()),
        }
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|(d, _)| d.name))
            .chain(PER_LAYER.iter().map(|d| d.name));
        for name in names {
            assert!(well_formed(name), "bad name {name:?}");
            assert!(seen.insert(name), "duplicate name {name:?}");
        }
    }

    #[test]
    fn manifest_lists_exactly_these_workloads_and_metrics() {
        let m = manifest();
        let listed: Vec<(String, String)> = m
            .get("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| (str_of(w, "name"), str_of(w, "why")))
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(listed, ours);

        let e2e = m.get("end_to_end").unwrap().as_arr().unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, (d, bound)) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(str_of(j, "name"), d.name);
            assert_eq!(str_of(j, "unit"), d.unit);
            assert_eq!(str_of(j, "better"), d.better);
            assert_eq!(j.get("bound").unwrap().as_f64().unwrap(), *bound);
        }
        let layers = m.get("per_layer").unwrap().as_arr().unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, d) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(str_of(j, "name"), d.name);
            assert_eq!(str_of(j, "unit"), d.unit);
            assert_eq!(str_of(j, "better"), d.better);
        }
    }

    #[test]
    fn result_line_reparses_with_every_metric() {
        let values: Vec<f64> = (0..END_TO_END.len()).map(|i| i as f64 + 0.125).collect();
        let line = result_line(
            true,
            30,
            0,
            metrics_json(
                END_TO_END
                    .iter()
                    .map(|(d, _)| d)
                    .zip(values.iter().copied()),
            ),
        );
        assert!(!line.contains('\n'));
        let back = minjson::parse(&line).expect("result line must re-parse");
        assert_eq!(back.get("attempted").unwrap().as_usize().unwrap(), 30);
        let m = back.get("metrics").unwrap();
        for ((d, _), v) in END_TO_END.iter().zip(&values) {
            let entry = m.get(d.name).unwrap();
            assert_eq!(entry.get("value").unwrap().as_f64().unwrap(), *v);
            assert_eq!(str_of(entry, "unit"), d.unit);
        }
    }
}
