//! The bytes-on-wire metrics counter. Alone in its test binary: the metrics
//! sink is process-global, so a live mesh of any concurrently running test
//! would land in this test's `drain()`.

use mesh::{Group, Mesh};

/// `coll_wire_bytes` records 4 bytes per f32 element the device sends, as
/// its `CommLog` link records count them.
#[test]
fn coll_wire_bytes_are_four_per_sent_element() {
    metrics::enable();
    let logs = Mesh::run(4, |ctx| {
        let world = Group::world(4);
        let mut data = vec![1.0f32; 4096];
        ctx.all_reduce(&world, &mut data);
        ctx.broadcast(&world, 1, &mut data);
        ctx.log_snapshot()
    });
    metrics::disable();
    let devices = metrics::drain();
    assert_eq!(devices.len(), 4);
    for d in &devices {
        let sent: usize = logs[d.rank].links.iter().map(|l| l.elems).sum();
        assert!(sent > 0, "rank {}: sent nothing", d.rank);
        assert_eq!(
            d.counters["coll_wire_bytes"],
            4 * sent as u64,
            "rank {}",
            d.rank
        );
    }
}
