//! Chrome `trace_event` export.
//!
//! Produces the JSON object format (`{"traceEvents": [...]}`) understood by
//! `chrome://tracing` and by Perfetto's legacy-trace importer:
//!
//! * one **thread track per device rank** (`pid` 0, `tid` = rank), named via
//!   `M` metadata events;
//! * every span and collective as a complete `"X"` event (`ts`/`dur` in
//!   microseconds);
//! * each multi-rank collective additionally as a **flow** (`s`/`t`/`f`
//!   events sharing an `id`) connecting the participating ranks' op slices,
//!   so Perfetto draws arrows between the ranks of one broadcast/reduce.
//!
//! Output is deterministic: `minjson` objects are key-sorted and events are
//! emitted in a fixed walk order, so identical traces serialize to
//! byte-identical JSON (the golden-file test relies on this).

use crate::{DeviceTrace, Event};
use minjson::Json;
use std::collections::BTreeMap;

/// Nanoseconds → the microsecond `ts`/`dur` unit of trace_event.
fn us(ns: u64) -> Json {
    Json::Num(ns as f64 / 1000.0)
}

fn meta_event(name: &str, tid: Option<usize>, value: String) -> Json {
    let mut pairs = vec![
        ("ph", Json::Str("M".into())),
        ("name", Json::Str(name.into())),
        ("pid", Json::Num(0.0)),
        ("args", Json::obj(vec![("name", Json::Str(value))])),
    ];
    if let Some(tid) = tid {
        pairs.push(("tid", Json::Num(tid as f64)));
    }
    Json::obj(pairs)
}

/// Renders per-device timelines as one Chrome trace_event JSON document.
pub fn chrome_trace(traces: &[DeviceTrace]) -> Json {
    let mut events: Vec<Json> = Vec::new();
    events.push(meta_event("process_name", None, "mesh".into()));
    for dev in traces {
        events.push(meta_event(
            "thread_name",
            Some(dev.rank),
            format!("rank {}", dev.rank),
        ));
    }

    // Collectives matched across ranks by (kind, group, occurrence index):
    // the k-th op a rank runs on a given group lines up with the k-th op
    // every other member runs on it, because collectives are blocking and
    // ordered within a group.
    type GroupKey = (&'static str, usize, usize, usize);
    let mut flows: BTreeMap<(GroupKey, usize), Vec<(usize, u64)>> = BTreeMap::new();

    for dev in traces {
        let mut occurrence: BTreeMap<GroupKey, usize> = BTreeMap::new();
        let mut open: Vec<(&'static str, u64)> = Vec::new();
        for ev in &dev.events {
            match ev {
                Event::Enter { name, t_ns, .. } => open.push((name, *t_ns)),
                Event::Exit { t_ns, .. } => {
                    let (name, t0) = open.pop().expect("balanced span events");
                    events.push(Json::obj(vec![
                        ("ph", Json::Str("X".into())),
                        ("cat", Json::Str("span".into())),
                        ("name", Json::Str((*name).into())),
                        ("pid", Json::Num(0.0)),
                        ("tid", Json::Num(dev.rank as f64)),
                        ("ts", us(t0)),
                        ("dur", us(t_ns.saturating_sub(t0))),
                        (
                            "args",
                            Json::obj(vec![("depth", Json::Num(open.len() as f64))]),
                        ),
                    ]));
                }
                Event::Op {
                    span,
                    t0_ns,
                    t1_ns,
                    meta,
                } => {
                    let args = vec![
                        ("span", Json::Num(*span as f64)),
                        ("axis", Json::Str(meta.axis.into())),
                        ("algo", Json::Str(meta.algo.into())),
                        ("elems", Json::Num(meta.elems as f64)),
                        ("wire_elems", Json::Num(meta.wire_elems as f64)),
                        ("group_size", Json::Num(meta.group_size as f64)),
                        ("group_first", Json::Num(meta.group_first as f64)),
                        ("group_stride", Json::Num(meta.group_stride as f64)),
                    ];
                    events.push(Json::obj(vec![
                        ("ph", Json::Str("X".into())),
                        ("cat", Json::Str("comm".into())),
                        ("name", Json::Str(meta.kind.into())),
                        ("pid", Json::Num(0.0)),
                        ("tid", Json::Num(dev.rank as f64)),
                        ("ts", us(*t0_ns)),
                        ("dur", us(t1_ns.saturating_sub(*t0_ns))),
                        ("args", Json::obj(args)),
                    ]));
                    if meta.group_size > 1 {
                        let key = (
                            meta.kind,
                            meta.group_first,
                            meta.group_stride,
                            meta.group_size,
                        );
                        let occ = occurrence.entry(key).or_insert(0);
                        flows
                            .entry((key, *occ))
                            .or_default()
                            .push((dev.rank, *t0_ns));
                        *occ += 1;
                    }
                }
            }
        }
    }

    for (id, ((key, _), mut members)) in flows.into_iter().enumerate() {
        if members.len() < 2 {
            continue; // partial trace: only one participant was captured
        }
        members.sort_unstable();
        let last = members.len() - 1;
        for (i, (rank, t0)) in members.into_iter().enumerate() {
            let ph = if i == 0 {
                "s"
            } else if i == last {
                "f"
            } else {
                "t"
            };
            events.push(Json::obj(vec![
                ("ph", Json::Str(ph.into())),
                ("cat", Json::Str("commflow".into())),
                ("name", Json::Str(key.0.into())),
                ("id", Json::Num((id + 1) as f64)),
                ("pid", Json::Num(0.0)),
                ("tid", Json::Num(rank as f64)),
                ("ts", us(t0)),
                ("bp", Json::Str("e".into())),
            ]));
        }
    }

    Json::obj(vec![
        ("displayTimeUnit", Json::Str("ms".into())),
        ("traceEvents", Json::Arr(events)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OpMeta;

    fn demo_traces() -> Vec<DeviceTrace> {
        (0..2)
            .map(|rank| DeviceTrace {
                rank,
                events: vec![
                    Event::Enter {
                        span: 1,
                        parent: 0,
                        name: "fwd",
                        t_ns: 0,
                    },
                    Event::Op {
                        span: 1,
                        t0_ns: 100,
                        t1_ns: 600,
                        meta: OpMeta::collective("Broadcast", 2, 0, 1, 8, 8),
                    },
                    Event::Exit { span: 1, t_ns: 700 },
                ],
            })
            .collect()
    }

    #[test]
    fn emits_valid_reparseable_json() {
        let json = chrome_trace(&demo_traces());
        let text = json.to_string();
        let back = minjson::parse(&text).unwrap();
        assert_eq!(back, json);
        let events = back.get("traceEvents").unwrap().as_arr().unwrap();
        // 1 process_name + 2 thread_name + 2 span X + 1 op X per rank
        // + 2 flow events (s on rank 0, f on rank 1).
        assert_eq!(events.len(), 1 + 2 + 2 * 2 + 2);
    }

    #[test]
    fn flows_connect_group_members() {
        let json = chrome_trace(&demo_traces());
        let text = json.to_string();
        assert!(text.contains("\"ph\":\"s\""));
        assert!(text.contains("\"ph\":\"f\""));
        assert!(!text.contains("\"ph\":\"t\"")); // only two members
    }

    #[test]
    fn byte_stable_for_equal_traces() {
        let a = chrome_trace(&demo_traces()).to_string();
        let b = chrome_trace(&demo_traces()).to_string();
        assert_eq!(a, b);
    }

    #[test]
    fn singleton_groups_get_no_flow() {
        let traces = vec![DeviceTrace {
            rank: 0,
            events: vec![Event::Op {
                span: 0,
                t0_ns: 0,
                t1_ns: 1,
                meta: OpMeta::collective("Reduce", 1, 0, 1, 4, 0),
            }],
        }];
        let text = chrome_trace(&traces).to_string();
        assert!(!text.contains("commflow"));
    }
}
