//! Trace-export contract tests: golden-file byte stability of the Chrome
//! JSON, live-vs-dry-run structural equivalence, and the acceptance check
//! that an 8×8 dry-run trace's per-collective totals match the α-β model
//! (and, through `perf::table1`, the paper's closed forms).
//!
//! Regenerate the golden file after an intentional format change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test trace_export
//! ```

use mesh::{Arrangement, Mesh2d, Topology};
use optimus_core::{OptimusConfig, OptimusModel};
use perf::{tracecheck, CostModel, HardwareProfile};
use tensor::Rng;

/// Deterministic token/label batch for `cfg`.
fn data(cfg: &OptimusConfig, seed: u64) -> (Vec<usize>, Vec<usize>) {
    let mut rng = Rng::new(seed);
    let n = cfg.batch * cfg.seq;
    let tokens = (0..n).map(|_| rng.below(cfg.vocab)).collect();
    let labels = (0..n).map(|_| rng.below(cfg.vocab)).collect();
    (tokens, labels)
}

fn uniform_cost(p: usize) -> CostModel {
    CostModel::new(
        HardwareProfile::uniform(1e12, 1e-9),
        Topology::single_node(p),
    )
}

/// One Optimus training step on a `q × q` dry-run mesh, traced with virtual
/// (α-β model) time.
fn traced_step(
    cfg: &OptimusConfig,
    cost: &CostModel,
) -> (Vec<mesh::CommLog>, Vec<trace::DeviceTrace>) {
    let (tokens, labels) = data(cfg, 42);
    let (_, logs, traces) = Mesh2d::dry_run_traced(cfg.q, cost.ns_pricer(), |g| {
        let mut m = OptimusModel::new(cfg, 7, g);
        m.train_step(g, &tokens, &labels, 0.1)
    });
    (logs, traces)
}

#[test]
fn chrome_json_is_byte_stable_against_the_golden_file() {
    let cfg = OptimusConfig::tiny(2);
    let cost = uniform_cost(4);
    let (_, traces) = traced_step(&cfg, &cost);
    let rendered = trace::chrome_trace(&traces).to_string();

    // Dry-run traces are fully deterministic: a second run must render to
    // the identical bytes.
    let (_, again) = traced_step(&cfg, &cost);
    assert_eq!(
        rendered,
        trace::chrome_trace(&again).to_string(),
        "dry-run trace rendering must be deterministic"
    );

    let golden = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("trace_2x2.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(golden.parent().unwrap()).unwrap();
        std::fs::write(&golden, &rendered).unwrap();
        return;
    }
    let expect = std::fs::read_to_string(&golden)
        .expect("golden file missing — run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        rendered, expect,
        "Chrome trace JSON drifted from tests/golden/trace_2x2.json; \
         regenerate with UPDATE_GOLDEN=1 if the change is intentional"
    );
}

#[test]
fn live_and_dry_run_traces_are_structurally_identical() {
    let cfg = OptimusConfig::tiny(2);
    let (tokens, labels) = data(&cfg, 43);
    let step_live = |g: &mesh::Grid2d| {
        let mut m = OptimusModel::new(&cfg, 7, g);
        m.train_step(g, &tokens, &labels, 0.1)
    };
    let step_dry = |g: &mesh::Grid2d<mesh::DryRunComm>| {
        let mut m = OptimusModel::new(&cfg, 7, g);
        m.train_step(g, &tokens, &labels, 0.1)
    };
    let (_, _, live) = Mesh2d::run_traced(cfg.q, step_live);
    let cost = uniform_cost(4);
    let (_, _, dry) = Mesh2d::dry_run_traced(cfg.q, cost.ns_pricer(), step_dry);

    assert_eq!(live.len(), dry.len());
    for (l, d) in live.iter().zip(&dry) {
        assert_eq!(l.rank, d.rank);
        // Same spans, same nesting, same op sequence with identical
        // metadata per rank — only the timestamps differ.
        assert_eq!(
            l.structure(),
            d.structure(),
            "rank {}: live and dry-run event structure diverged",
            l.rank
        );
    }
}

#[test]
fn dry_run_8x8_trace_is_valid_and_matches_the_cost_model() {
    // The acceptance-criterion mesh: 8×8 = 64 ranks, one training step.
    // Kept to one small layer so the test stays fast — the collective
    // *schedule* (what the trace checks) is what matters, not the flops.
    let cfg = OptimusConfig {
        q: 8,
        batch: 8,
        seq: 4,
        hidden: 64,
        heads: 8,
        vocab: 16,
        layers: 1,
        causal: true,
        checkpoint: true,
        fused_attention: false,
    };
    let cost = CostModel::new(
        HardwareProfile::frontera_rtx5000(),
        Topology::new(8, 4, Arrangement::Bunched),
    );
    let (logs, traces) = traced_step(&cfg, &cost);
    assert_eq!(traces.len(), 64);

    // (a) The export is valid JSON of the Chrome trace_event shape.
    let rendered = trace::chrome_trace(&traces).to_string();
    let parsed = minjson::parse(&rendered).expect("trace must be valid JSON");
    let minjson::Json::Obj(top) = &parsed else {
        panic!("top level must be an object");
    };
    let minjson::Json::Arr(events) = &top["traceEvents"] else {
        panic!("traceEvents must be an array");
    };
    assert!(events.len() > 64, "expected a real timeline");
    let mut phases = std::collections::BTreeSet::new();
    let mut threads = std::collections::BTreeSet::new();
    for ev in events {
        let minjson::Json::Obj(e) = ev else {
            panic!("every trace event is an object");
        };
        let minjson::Json::Str(ph) = &e["ph"] else {
            panic!("event without ph")
        };
        phases.insert(ph.clone());
        if let Some(minjson::Json::Num(tid)) = e.get("tid") {
            threads.insert(*tid as usize);
        }
    }
    // Complete events, metadata, and cross-rank flow arrows all present;
    // one track per rank.
    for needed in ["X", "M", "s", "f"] {
        assert!(phases.contains(needed), "missing ph {needed:?}");
    }
    assert_eq!(threads.len(), 64, "one tid per rank");

    // (b) Per-CommOp totals agree with the Eq. 4–5 closed forms: dry-run
    // durations are priced by `cost`, so re-applying `meta_time` must
    // reproduce them (within 1 ns rounding per event).
    let totals = tracecheck::op_totals(&cost, &traces);
    assert!(!totals.is_empty());
    let gap = tracecheck::max_rel_gap(&totals);
    assert!(gap < 1e-6, "measured vs modeled per-op gap {gap}");

    // (c) And with `CostModel::replay` over the same run's CommLogs — the
    // trace and the log are two views of one schedule.
    let from_logs: f64 = logs.iter().map(|l| cost.replay(l)).sum();
    let from_trace = tracecheck::modeled_total(&totals);
    assert!(
        (from_logs - from_trace).abs() < 1e-9 * from_logs.max(1.0),
        "logs={from_logs} trace={from_trace}"
    );

    // (d) Every collective runs where it is called, so each rank's virtual
    // timeline is its CommLog replayed back to back: the makespan equals
    // the replay within 1 ns of rounding per op event.
    for (dev, log) in traces.iter().zip(&logs) {
        let ends = dev.events.iter().filter_map(|e| match e {
            trace::Event::Op { t1_ns, .. } => Some(*t1_ns),
            _ => None,
        });
        let (ops, makespan) = ends.fold((0usize, 0u64), |(n, m), t| (n + 1, m.max(t)));
        let replay_ns = cost.replay(log) * 1e9;
        assert!(
            (makespan as f64 - replay_ns).abs() <= ops as f64,
            "rank {}: virtual makespan {makespan} ns vs replay {replay_ns} ns over {ops} ops",
            dev.rank
        );
    }
}
