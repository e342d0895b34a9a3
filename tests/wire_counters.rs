//! The bytes-on-wire metrics counters under wire compression. Alone in its
//! test binary: the metrics sink is process-global, so a live mesh of any
//! concurrently running test would land in this test's `drain()`.

use mesh::{Coll, CollBuf, CollPlan, CommOp, Communicator, Group, Mesh, WireDtype};

/// The `coll_wire_bytes` / `coll_logical_bytes` counters must record the
/// genuine halving: a bf16 all-reduce moves about half the bytes its
/// logical payload implies, an f32 one exactly as many. Posted collectives
/// count too — SUMMA's panel traffic is all `ibroadcast` / `ireduce` — and
/// every rank's wire counter is exactly the bytes of its link records.
#[test]
fn bytes_on_wire_counters_record_the_halved_traffic() {
    for (w, ratio_num, ratio_den) in [(WireDtype::F32, 1usize, 1usize), (WireDtype::Bf16, 1, 2)] {
        metrics::enable();
        Mesh::run(4, move |ctx| {
            let world = Group::world(4);
            let mut data = vec![1.0f32; 4096];
            let plan = CollPlan {
                wire: w,
                ..ctx.plan(CommOp::AllReduce, 4, data.len())
            };
            ctx.collective(Coll::AllReduce, &world, CollBuf::Now(&mut data), plan);
        });
        metrics::disable();
        let devices = metrics::drain();
        assert_eq!(devices.len(), 4);
        for d in &devices {
            let wire = d.counters["coll_wire_bytes"];
            let logical = d.counters["coll_logical_bytes"];
            assert!(logical > 0, "rank {}: no logical bytes recorded", d.rank);
            assert_eq!(
                wire,
                logical * ratio_num as u64 / ratio_den as u64,
                "rank {}: {} wire bytes vs {} logical under {:?}",
                d.rank,
                wire,
                logical,
                w
            );
        }
    }

    metrics::enable();
    let (_, logs) = Mesh::run_with_logs(4, |ctx| {
        let world = Group::world(4);
        let panel = ctx.ibroadcast(&world, 1, vec![1.0f32; 300]).wait();
        ctx.ireduce(&world, 2, panel).wait();
    });
    metrics::disable();
    let mut devices = metrics::drain();
    devices.sort_by_key(|d| d.rank);
    assert_eq!(devices.len(), 4);
    for (d, log) in devices.iter().zip(&logs) {
        let link_elems: usize = log.links.iter().map(|l| l.elems).sum();
        assert_eq!(
            d.counters.get("coll_wire_bytes").copied().unwrap_or(0),
            4 * link_elems as u64,
            "rank {}: posted collectives missing from the wire counter",
            d.rank
        );
    }
    assert!(logs.iter().any(|l| !l.links.is_empty()));
}
