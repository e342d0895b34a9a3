//! Persistence for the tuned collective selection tables.
//!
//! `optimus-cli tune-coll` sweeps every registered algorithm across message
//! sizes on the live mesh, derives an [`mesh::AlgoTable`] of measured
//! winners, and persists it here ([`CollTune::save`], conventionally at
//! [`COLL_TUNE_PATH`], which is *not* committed — fresh clones keep the
//! baseline table until they tune). CLI entry points load the file and pass
//! its [`CollTune::tables`] to every [`mesh::MeshRun`] they launch, the same
//! convention `results/calibration.json` uses for the compute rate.
//!
//! The file format is a rule list in first-match-wins order, one JSON
//! object per [`mesh::AlgoRule`]; unbounded range ends serialize as `-1`
//! (JSON numbers are doubles and cannot carry `usize::MAX` exactly).
//!
//! A tune may additionally carry **wire-precision** rules
//! ([`mesh::WireRule`], serialized under `"wire_rules"`): cells where
//! `tune-coll --wire bf16` measured the compressed wire faster than
//! full-width. The key is absent when empty, so files written before wire
//! compression (and tunes that never opted in) load unchanged — and loading
//! such a file keeps every collective at bitwise-identical f32.

use mesh::{AlgoRule, AlgoTable, CollAlgo, CollTables, CommOp, WireDtype, WireRule, WireTable};
use minjson::Json;

/// Default on-disk location, relative to the repo root.
pub const COLL_TUNE_PATH: &str = "results/coll_tune.json";

/// Tuned selection tables plus their provenance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CollTune {
    /// Where the tables came from (e.g. `"tune-coll p=8"`).
    pub source: String,
    /// The algorithm rules and the wire-precision rules, first match wins;
    /// empty wire rules mean every collective stays full-width f32.
    pub tables: CollTables,
}

fn bound_to_json(v: usize) -> Json {
    if v == usize::MAX {
        Json::Num(-1.0)
    } else {
        Json::Num(v as f64)
    }
}

fn bound_from_json(v: &Json) -> Result<usize, String> {
    let f = v.as_f64()?;
    if f < 0.0 {
        Ok(usize::MAX)
    } else {
        Ok(f as usize)
    }
}

impl CollTune {
    /// The tune as JSON.
    pub fn to_json(&self) -> Json {
        let rules = self
            .tables
            .algo
            .rules
            .iter()
            .map(|r| {
                Json::obj(vec![
                    ("op", Json::Str(r.op.name().to_string())),
                    ("min_group", bound_to_json(r.min_group)),
                    ("max_group", bound_to_json(r.max_group)),
                    ("min_bytes", bound_to_json(r.min_bytes)),
                    ("max_bytes", bound_to_json(r.max_bytes)),
                    ("algo", Json::Str(r.algo.name().to_string())),
                ])
            })
            .collect();
        let mut doc = vec![
            ("source", Json::Str(self.source.clone())),
            ("rules", Json::Arr(rules)),
        ];
        if !self.tables.wire.rules.is_empty() {
            let wire_rules = self
                .tables
                .wire
                .rules
                .iter()
                .map(|r| {
                    Json::obj(vec![
                        ("op", Json::Str(r.op.name().to_string())),
                        ("min_group", bound_to_json(r.min_group)),
                        ("max_group", bound_to_json(r.max_group)),
                        ("min_bytes", bound_to_json(r.min_bytes)),
                        ("max_bytes", bound_to_json(r.max_bytes)),
                        ("wire", Json::Str(r.wire.name().to_string())),
                    ])
                })
                .collect();
            doc.push(("wire_rules", Json::Arr(wire_rules)));
        }
        Json::obj(doc)
    }

    /// Inverse of [`CollTune::to_json`]. Rejects unknown op or algorithm
    /// names and rules naming an algorithm the op does not implement, so a
    /// hand-edited file fails loudly instead of silently falling back.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let source = match v.get("source")? {
            Json::Str(s) => s.clone(),
            other => return Err(format!("expected string source, got {other:?}")),
        };
        let rules_v = match v.get("rules")? {
            Json::Arr(items) => items,
            other => return Err(format!("expected rules array, got {other:?}")),
        };
        let mut rules = Vec::with_capacity(rules_v.len());
        for rv in rules_v {
            let op_name = match rv.get("op")? {
                Json::Str(s) => s.clone(),
                other => return Err(format!("expected string op, got {other:?}")),
            };
            let op = CommOp::from_name(&op_name)
                .ok_or_else(|| format!("unknown collective {op_name:?}"))?;
            let algo_name = match rv.get("algo")? {
                Json::Str(s) => s.clone(),
                other => return Err(format!("expected string algo, got {other:?}")),
            };
            let algo = CollAlgo::from_name(&algo_name)
                .ok_or_else(|| format!("unknown algorithm {algo_name:?}"))?;
            if !algo.valid_for(op) {
                return Err(format!("{algo_name:?} is not a {op_name} algorithm"));
            }
            rules.push(AlgoRule {
                op,
                min_group: bound_from_json(rv.get("min_group")?)?,
                max_group: bound_from_json(rv.get("max_group")?)?,
                min_bytes: bound_from_json(rv.get("min_bytes")?)?,
                max_bytes: bound_from_json(rv.get("max_bytes")?)?,
                algo,
            });
        }
        // `wire_rules` postdates the format; absent means full-width f32.
        let mut wire_rules = Vec::new();
        if let Ok(Json::Arr(items)) = v.get("wire_rules") {
            for rv in items {
                let op_name = match rv.get("op")? {
                    Json::Str(s) => s.clone(),
                    other => return Err(format!("expected string op, got {other:?}")),
                };
                let op = CommOp::from_name(&op_name)
                    .ok_or_else(|| format!("unknown collective {op_name:?}"))?;
                let wire_name = match rv.get("wire")? {
                    Json::Str(s) => s.clone(),
                    other => return Err(format!("expected string wire dtype, got {other:?}")),
                };
                let wire = WireDtype::from_name(&wire_name)
                    .ok_or_else(|| format!("unknown wire dtype {wire_name:?}"))?;
                wire_rules.push(WireRule {
                    op,
                    min_group: bound_from_json(rv.get("min_group")?)?,
                    max_group: bound_from_json(rv.get("max_group")?)?,
                    min_bytes: bound_from_json(rv.get("min_bytes")?)?,
                    max_bytes: bound_from_json(rv.get("max_bytes")?)?,
                    wire,
                });
            }
        }
        Ok(CollTune {
            source,
            tables: CollTables {
                algo: AlgoTable { rules },
                wire: WireTable { rules: wire_rules },
            },
        })
    }

    /// Writes the tune to `path` as JSON.
    pub fn save(&self, path: &str) -> std::io::Result<()> {
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_json().to_string())
    }

    /// Loads a tune from `path`; `Ok(None)` if the file is absent.
    pub fn load(path: &str) -> Result<Option<Self>, String> {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(format!("read {path}: {e}")),
        };
        let v = minjson::parse(&text).map_err(|e| format!("parse {path}: {e:?}"))?;
        Self::from_json(&v).map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CollTune {
        let algo = AlgoTable {
            rules: vec![
                AlgoRule {
                    op: CommOp::AllReduce,
                    min_group: 2,
                    max_group: usize::MAX,
                    min_bytes: 0,
                    max_bytes: 4096,
                    algo: CollAlgo::Halving,
                },
                AlgoRule {
                    op: CommOp::Broadcast,
                    min_group: 4,
                    max_group: 64,
                    min_bytes: 1 << 18,
                    max_bytes: usize::MAX,
                    algo: CollAlgo::Chain,
                },
            ],
        };
        CollTune {
            source: "tune-coll p=8".to_string(),
            tables: CollTables {
                algo,
                wire: WireTable::default(),
            },
        }
    }

    #[test]
    fn json_roundtrip_preserves_rules_and_unbounded_ends() {
        let t = sample();
        let s = t.to_json().to_string();
        // No wire rules -> the key is absent, exactly the legacy shape.
        assert!(!s.contains("wire_rules"));
        let back = CollTune::from_json(&minjson::parse(&s).unwrap()).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.tables.algo.rules[0].max_group, usize::MAX);
        assert_eq!(back.tables.algo.rules[1].max_bytes, usize::MAX);
    }

    #[test]
    fn wire_rules_roundtrip_and_select_after_reload() {
        let mut t = sample();
        t.tables.wire = WireTable {
            rules: vec![WireRule {
                op: CommOp::AllReduce,
                min_group: 2,
                max_group: usize::MAX,
                min_bytes: 4096,
                max_bytes: usize::MAX,
                wire: WireDtype::Bf16,
            }],
        };
        let s = t.to_json().to_string();
        let back = CollTune::from_json(&minjson::parse(&s).unwrap()).unwrap();
        assert_eq!(back, t);
        assert_eq!(
            back.tables.wire.select(CommOp::AllReduce, 8, 1 << 20),
            WireDtype::Bf16
        );
        assert_eq!(
            back.tables.wire.select(CommOp::AllReduce, 8, 64),
            WireDtype::F32
        );
        assert_eq!(
            back.tables.wire.select(CommOp::Broadcast, 8, 1 << 20),
            WireDtype::F32
        );
    }

    #[test]
    fn unknown_wire_dtype_is_rejected() {
        let text = r#"{"source":"x","rules":[],"wire_rules":[{"op":"AllReduce",
            "min_group":2,"max_group":-1,"min_bytes":0,"max_bytes":-1,"wire":"fp8"}]}"#;
        let v = minjson::parse(text).unwrap();
        assert!(CollTune::from_json(&v).is_err());
    }

    #[test]
    fn loaded_table_selects_like_the_original() {
        let t = sample();
        let s = t.to_json().to_string();
        let back = CollTune::from_json(&minjson::parse(&s).unwrap()).unwrap();
        for (op, g, bytes) in [
            (CommOp::AllReduce, 8, 1024),
            (CommOp::AllReduce, 8, 1 << 20),
            (CommOp::Broadcast, 8, 1 << 20),
            (CommOp::AllGather, 8, 64),
        ] {
            assert_eq!(
                back.tables.algo.select(op, g, bytes),
                t.tables.algo.select(op, g, bytes)
            );
        }
    }

    #[test]
    fn invalid_algo_for_op_is_rejected() {
        let text = r#"{"source":"x","rules":[{"op":"Broadcast","min_group":2,
            "max_group":-1,"min_bytes":0,"max_bytes":-1,"algo":"bruck"}]}"#;
        let v = minjson::parse(text).unwrap();
        assert!(CollTune::from_json(&v).is_err());
    }

    #[test]
    fn unknown_names_are_rejected() {
        for text in [
            r#"{"source":"x","rules":[{"op":"Gossip","min_group":2,"max_group":-1,
                "min_bytes":0,"max_bytes":-1,"algo":"tree"}]}"#,
            r#"{"source":"x","rules":[{"op":"Broadcast","min_group":2,"max_group":-1,
                "min_bytes":0,"max_bytes":-1,"algo":"quantum"}]}"#,
        ] {
            let v = minjson::parse(text).unwrap();
            assert!(CollTune::from_json(&v).is_err());
        }
    }

    #[test]
    fn load_missing_file_is_none() {
        assert!(CollTune::load("/nonexistent/coll_tune.json")
            .unwrap()
            .is_none());
    }

    #[test]
    fn save_load_roundtrip() {
        let dir = std::env::temp_dir().join("optimus-colltune-test");
        let path = dir.join("coll_tune.json");
        let path = path.to_str().unwrap();
        sample().save(path).unwrap();
        let back = CollTune::load(path).unwrap().unwrap();
        assert_eq!(back, sample());
        std::fs::remove_dir_all(&dir).ok();
    }
}
