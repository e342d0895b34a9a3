//! The `wait_ns` histograms cover every collective a device runs, not only
//! SUMMA's panels. Alone in its test binary: the metrics sink is
//! process-global, so a live mesh of any concurrently running test would
//! land in this test's `drain()`.

use optimus::mesh::Mesh2d;
use optimus::optimus_core::{OptimusConfig, OptimusModel};

#[test]
fn a_live_train_step_times_every_collective_kind_on_every_rank() {
    let cfg = OptimusConfig::tiny(2);
    let n = cfg.batch * cfg.seq;
    let tokens: Vec<usize> = (0..n).map(|i| i % cfg.vocab).collect();
    let labels: Vec<usize> = (0..n).map(|i| (i + 1) % cfg.vocab).collect();
    metrics::enable();
    Mesh2d::run(cfg.q, |g| {
        let mut m = OptimusModel::new(&cfg, 7, g);
        m.train_step(g, &tokens, &labels, 0.1)
    });
    metrics::disable();
    let mut devices = metrics::drain();
    devices.sort_by_key(|d| d.rank);
    assert_eq!(devices.len(), cfg.q * cfg.q, "one snapshot per device");
    for d in &devices {
        for kind in ["Broadcast", "Reduce", "AllReduce"] {
            let h = d.wait_ns.get(kind);
            assert!(
                h.is_some_and(|h| h.count > 0),
                "rank {}: no wait_ns entries for {kind} (kinds: {:?})",
                d.rank,
                d.wait_ns.keys().collect::<Vec<_>>()
            );
        }
    }
}
