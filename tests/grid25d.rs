//! Tesseract 2.5D acceptance tests: the `[q, q, d]` mesh must train
//! **bitwise identically** to the plain `q × q` mesh, the depth-sliced
//! schedule must reach the wire and price consistently under the α-β model,
//! and the Chrome trace with its axis-labeled tracks must stay byte-stable.
//!
//! Regenerate the golden file after an intentional format change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test grid25d
//! ```

use mesh::{MeshNd, Topology};
use optimus_core::{OptimusConfig, OptimusModel};
use perf::{CostModel, HardwareProfile};
use tensor::Rng;

fn data(cfg: &OptimusConfig, seed: u64) -> (Vec<usize>, Vec<usize>) {
    let mut rng = Rng::new(seed);
    let n = cfg.batch * cfg.seq;
    let tokens = (0..n).map(|_| rng.below(cfg.vocab)).collect();
    let labels = (0..n).map(|_| rng.below(cfg.vocab)).collect();
    (tokens, labels)
}

/// Two live training steps on `[q, q, d]`; returns per-device
/// (loss bits, a parameter shard's bits) for exact comparison.
fn train_bits(cfg: &OptimusConfig, d: usize) -> Vec<(Vec<u32>, Vec<u32>)> {
    let (tokens, labels) = data(cfg, 42);
    MeshNd::run(&[cfg.q, cfg.q, d], |g| {
        let mut m = OptimusModel::new(cfg, 7, g);
        let losses: Vec<u32> = (0..2)
            .map(|_| m.train_step(g, &tokens, &labels, 0.1).to_bits())
            .collect();
        let shard: Vec<u32> = m.layers[0]
            .w_qkv
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        (losses, shard)
    })
}

#[test]
fn live_2x2x2_train_step_is_bitwise_identical_to_2x2() {
    // THE acceptance property: every depth slice of the 2×2×2 mesh walks
    // the exact float trajectory of the flat 2×2 mesh — losses and updated
    // parameters agree to the bit, for two consecutive steps.
    let cfg = OptimusConfig::tiny(2);
    let flat = train_bits(&cfg, 1);
    let deep = train_bits(&cfg, 2);
    assert_eq!(flat.len(), 4);
    assert_eq!(deep.len(), 8);
    for (rank, got) in deep.iter().enumerate() {
        // Device (i, j, k) replicates device (i, j) of the flat mesh.
        let (i, j) = (rank / 4, (rank / 2) % 2);
        let want = &flat[i * 2 + j];
        assert_eq!(got.0, want.0, "losses, deep rank {rank} vs flat ({i},{j})");
        assert_eq!(got.1, want.1, "params, deep rank {rank} vs flat ({i},{j})");
    }
}

#[test]
fn dry_run_8x8x2_prices_consistently_with_the_cost_model() {
    // The projected 128-device Tesseract mesh: one training step through
    // the dry-run backend, virtual-time-stamped by the α-β model.
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
    let (tokens, labels) = data(&cfg, 42);
    let cost = CostModel::new(
        HardwareProfile::frontera_rtx5000(),
        Topology::flat(8 * 8 * 2, 4),
    );
    let (_, logs, traces) = MeshNd::dry_run_traced(&[8, 8, 2], cost.ns_pricer(), |g| {
        let mut m = OptimusModel::new(&cfg, 7, g);
        m.train_step(g, &tokens, &labels, 0.1)
    });
    assert_eq!(traces.len(), 128);

    // Every collective runs where it is called, so each rank's virtual
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

    // The depth axis actually went on the wire: some ops carry the
    // depth-subgroup axis label.
    let depth_ops: usize = traces
        .iter()
        .flat_map(|t| t.events.iter())
        .filter(|e| matches!(e, trace::Event::Op { meta, .. } if meta.axis == "depth"))
        .count();
    assert!(depth_ops > 0, "no depth-subgroup collectives in the trace");
}

#[test]
fn chrome_trace_2x2x2_is_byte_stable_against_the_golden_file() {
    let cfg = OptimusConfig::tiny(2);
    let (tokens, labels) = data(&cfg, 42);
    let cost = CostModel::new(
        HardwareProfile::uniform(1e12, 1e-9),
        Topology::single_node(8),
    );
    let render = || {
        let (_, _, traces) = MeshNd::dry_run_traced(&[2, 2, 2], cost.ns_pricer(), |g| {
            let mut m = OptimusModel::new(&cfg, 7, g);
            m.train_step(g, &tokens, &labels, 0.1)
        });
        trace::chrome_trace(&traces).to_string()
    };
    let rendered = render();
    assert_eq!(rendered, render(), "dry-run trace must be deterministic");

    let golden = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("trace_2x2x2.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(golden.parent().unwrap()).unwrap();
        std::fs::write(&golden, &rendered).unwrap();
        return;
    }
    let expect = std::fs::read_to_string(&golden)
        .expect("golden file missing — run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        rendered, expect,
        "Chrome trace JSON drifted from tests/golden/trace_2x2x2.json; \
         regenerate with UPDATE_GOLDEN=1 if the change is intentional"
    );
}
