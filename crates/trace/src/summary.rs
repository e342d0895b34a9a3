//! Per-phase communication summary.
//!
//! Aggregates a mesh run's op events by (top-level phase, collective kind,
//! algorithm) and totals counts, logical elements, wire elements, and time —
//! both the *measured* time stamped in the trace and a *modeled* time from a
//! caller-supplied α-β cost function (normally `perf::CostModel`), so a
//! table row directly shows how far reality is from Eqs. 4–5, per algorithm.

use crate::{DeviceTrace, Event, OpMeta};
use std::collections::BTreeMap;

/// One (phase, op-kind) aggregate across all ranks.
#[derive(Clone, Debug, PartialEq)]
pub struct SummaryRow {
    /// Outermost enclosing span name, `"(root)"` for untagged ops.
    pub phase: String,
    /// Collective kind (`CommOp::name`).
    pub kind: &'static str,
    /// Algorithm name stamped on the ops (`""` for metas built by
    /// [`crate::OpMeta::collective`]).
    pub algo: &'static str,
    /// Number of op events (summed over ranks).
    pub count: usize,
    /// Logical payload elements (summed over ranks).
    pub elems: usize,
    /// Elements actually sent on the wire (summed over ranks).
    pub wire_elems: usize,
    /// Trace-stamped time in seconds, summed over ranks. Wall-clock for the
    /// live backend, α-β model time for dry-run.
    pub measured_s: f64,
    /// `model`-priced time in seconds, summed over ranks.
    pub modeled_s: f64,
}

/// Aggregates op events by (top-level phase, kind, algorithm). `model`
/// prices one op participation in seconds; pass `|_| 0.0` when no cost
/// model applies. Rows come back sorted by phase, then kind, then algorithm.
pub fn summarize(traces: &[DeviceTrace], model: impl Fn(&OpMeta) -> f64) -> Vec<SummaryRow> {
    let mut acc: BTreeMap<(String, &'static str, &'static str), SummaryRow> = BTreeMap::new();
    for dev in traces {
        let mut stack: Vec<&'static str> = Vec::new();
        for ev in &dev.events {
            match ev {
                Event::Enter { name, .. } => stack.push(name),
                Event::Exit { .. } => {
                    stack.pop();
                }
                Event::Op {
                    t0_ns, t1_ns, meta, ..
                } => {
                    let phase = stack.first().copied().unwrap_or("(root)");
                    let row = acc
                        .entry((phase.to_string(), meta.kind, meta.algo))
                        .or_insert_with(|| SummaryRow {
                            phase: phase.to_string(),
                            kind: meta.kind,
                            algo: meta.algo,
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
                    row.modeled_s += model(meta);
                }
            }
        }
    }
    acc.into_values().collect()
}

/// Renders summary rows as an aligned text table with a totals line.
pub fn render_summary(rows: &[SummaryRow]) -> String {
    let headers = [
        "phase", "op", "algo", "count", "elems", "wire", "measured", "modeled",
    ];
    let mut cells: Vec<[String; 8]> = rows
        .iter()
        .map(|r| {
            [
                r.phase.clone(),
                r.kind.to_string(),
                r.algo.to_string(),
                r.count.to_string(),
                r.elems.to_string(),
                r.wire_elems.to_string(),
                format!("{:.3} ms", r.measured_s * 1e3),
                format!("{:.3} ms", r.modeled_s * 1e3),
            ]
        })
        .collect();
    let total = rows.iter().fold((0, 0, 0, 0.0, 0.0), |t, r| {
        (
            t.0 + r.count,
            t.1 + r.elems,
            t.2 + r.wire_elems,
            t.3 + r.measured_s,
            t.4 + r.modeled_s,
        )
    });
    cells.push([
        "TOTAL".into(),
        String::new(),
        String::new(),
        total.0.to_string(),
        total.1.to_string(),
        total.2.to_string(),
        format!("{:.3} ms", total.3 * 1e3),
        format!("{:.3} ms", total.4 * 1e3),
    ]);

    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in &cells {
        for (w, c) in widths.iter_mut().zip(row.iter()) {
            *w = (*w).max(c.len());
        }
    }
    let mut out = String::new();
    let line = |out: &mut String, cols: &[String]| {
        for (i, (c, w)) in cols.iter().zip(&widths).enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            if i < 3 {
                out.push_str(&format!("{c:<w$}"));
            } else {
                out.push_str(&format!("{c:>w$}"));
            }
        }
        // Trim the padding of the final column.
        while out.ends_with(' ') {
            out.pop();
        }
        out.push('\n');
    };
    line(
        &mut out,
        &headers.iter().map(|h| h.to_string()).collect::<Vec<_>>(),
    );
    for row in &cells {
        line(&mut out, row);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OpMeta;

    fn dev(rank: usize) -> DeviceTrace {
        DeviceTrace {
            rank,
            events: vec![
                Event::Enter {
                    span: 1,
                    parent: 0,
                    name: "fwd",
                    t_ns: 0,
                },
                Event::Enter {
                    span: 2,
                    parent: 1,
                    name: "fwd.linear2d",
                    t_ns: 0,
                },
                Event::Op {
                    span: 2,
                    t0_ns: 0,
                    t1_ns: 1_000_000,
                    meta: OpMeta::collective("Broadcast", 2, 0, 1, 100, 100),
                },
                Event::Exit { span: 2, t_ns: 1 },
                Event::Exit { span: 1, t_ns: 2 },
                Event::Op {
                    span: 0,
                    t0_ns: 2,
                    t1_ns: 3,
                    meta: OpMeta::collective("AllReduce", 4, 0, 1, 10, 15),
                },
            ],
        }
    }

    #[test]
    fn groups_by_top_level_phase_and_kind() {
        let traces = vec![dev(0), dev(1)];
        let rows = summarize(&traces, |m| m.elems as f64);
        assert_eq!(rows.len(), 2);
        let root = &rows[0];
        assert_eq!((root.phase.as_str(), root.kind), ("(root)", "AllReduce"));
        assert_eq!(root.count, 2);
        assert_eq!(root.elems, 20);
        assert_eq!(root.wire_elems, 30);
        let fwd = &rows[1];
        // Nested under fwd.linear2d but attributed to the outermost phase.
        assert_eq!((fwd.phase.as_str(), fwd.kind), ("fwd", "Broadcast"));
        assert_eq!(fwd.count, 2);
        assert!((fwd.measured_s - 2e-3).abs() < 1e-12);
        assert!((fwd.modeled_s - 200.0).abs() < 1e-9);
    }

    #[test]
    fn render_is_aligned_and_totalled() {
        let rows = summarize(&[dev(0)], |_| 0.0);
        let text = render_summary(&rows);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1 + rows.len() + 1);
        assert!(lines[0].starts_with("phase"));
        assert!(lines.last().unwrap().starts_with("TOTAL"));
    }
}
