//! Cross-checking recorded traces against the α-β model.
//!
//! A dry-run trace's durations are *produced by* [`CostModel::ns_pricer`],
//! so they must agree with [`CostModel::meta_time`] re-applied to the same
//! events — and with [`CostModel::replay`] over the [`mesh::CommLog`]s of
//! the same run. A live trace's durations are wall-clock; comparing them to
//! the modeled column of [`op_totals`] is how measured reality is held up
//! against Eqs. 4–5 (and, through the integration tests, against the
//! closed forms of Table 1).

use crate::cost::CostModel;
use std::collections::BTreeMap;
use trace::{DeviceTrace, Event};

/// Aggregate of all op events of one collective kind, across every rank.
#[derive(Clone, Debug, PartialEq)]
pub struct KindTotals {
    pub kind: &'static str,
    /// Op events summed over ranks.
    pub count: usize,
    /// Logical payload elements summed over ranks.
    pub elems: usize,
    /// Wire elements (sent) summed over ranks.
    pub wire_elems: usize,
    /// Trace-stamped duration in seconds, summed over ranks.
    pub measured_s: f64,
    /// [`CostModel::meta_time`] re-applied to each event, summed.
    pub modeled_s: f64,
}

/// Totals per collective kind, sorted by kind name.
pub fn op_totals(model: &CostModel, traces: &[DeviceTrace]) -> Vec<KindTotals> {
    let mut acc: BTreeMap<&'static str, KindTotals> = BTreeMap::new();
    for dev in traces {
        for ev in &dev.events {
            if let Event::Op {
                t0_ns, t1_ns, meta, ..
            } = ev
            {
                let row = acc.entry(meta.kind).or_insert_with(|| KindTotals {
                    kind: meta.kind,
                    count: 0,
                    elems: 0,
                    wire_elems: 0,
                    measured_s: 0.0,
                    modeled_s: 0.0,
                });
                row.count += 1;
                row.elems += meta.elems;
                row.wire_elems += meta.wire_elems;
                row.measured_s += t1_ns.saturating_sub(*t0_ns) as f64 * 1e-9;
                row.modeled_s += model.meta_time(meta);
            }
        }
    }
    acc.into_values().collect()
}

/// Largest relative |measured − modeled| / modeled across kinds with a
/// nonzero model time. For a dry-run trace priced by the same model this is
/// bounded by clock-rounding (≈1 ns per event); for a live trace it is the
/// model's prediction error.
pub fn max_rel_gap(totals: &[KindTotals]) -> f64 {
    totals
        .iter()
        .filter(|t| t.modeled_s > 0.0)
        .map(|t| (t.measured_s - t.modeled_s).abs() / t.modeled_s)
        .fold(0.0, f64::max)
}

/// Sum of modeled times across all op events of all ranks — comparable to
/// summing [`CostModel::replay`] over the same run's [`mesh::CommLog`]s.
pub fn modeled_total(totals: &[KindTotals]) -> f64 {
    totals.iter().map(|t| t.modeled_s).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::HardwareProfile;
    use mesh::{Communicator, Group, Mesh, Topology};

    fn model() -> CostModel {
        CostModel::new(
            HardwareProfile::uniform(1e12, 1e-9),
            Topology::single_node(16),
        )
    }

    fn program<C: Communicator>(comm: &C) {
        let world = Group::world(comm.world_size());
        let mut d = vec![0.0f32; 4096];
        comm.all_reduce(&world, &mut d);
        let mut b = vec![0.0f32; 1024];
        comm.broadcast(&world, 0, &mut b);
        comm.reduce(&world, 0, &mut b);
    }

    #[test]
    fn dry_run_measured_equals_modeled_up_to_rounding() {
        let m = model();
        let (_, _, traces) = Mesh::dry_run_traced(4, m.ns_pricer(), program);
        let totals = op_totals(&m, &traces);
        assert_eq!(totals.len(), 3); // AllReduce, Broadcast, Reduce
        assert!(max_rel_gap(&totals) < 1e-6, "gap: {}", max_rel_gap(&totals));
    }

    #[test]
    fn trace_totals_agree_with_commlog_replay() {
        let m = model();
        let (_, logs, traces) = Mesh::dry_run_traced(4, m.ns_pricer(), program);
        let from_logs: f64 = logs.iter().map(|l| m.replay(l)).sum();
        let from_trace = modeled_total(&op_totals(&m, &traces));
        assert!(
            (from_logs - from_trace).abs() < 1e-12 * from_logs.max(1.0),
            "logs={from_logs} trace={from_trace}"
        );
    }

    #[test]
    fn meta_time_matches_op_time_on_the_same_collective() {
        let m = model();
        let (_, logs, traces) = Mesh::dry_run_traced(4, m.ns_pricer(), |c| {
            let world = Group::world(4);
            let mut d = vec![0.0f32; 1000];
            c.all_reduce(&world, &mut d);
        });
        let from_record = m.op_time(&logs[0].ops[0]);
        match &traces[0].events[0] {
            Event::Op { meta, .. } => {
                assert_eq!(m.meta_time(meta), from_record);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
