//! Persistence for the tuned collective-algorithm table.
//!
//! `optimus-cli tune-coll` derives an [`mesh::AlgoTable`] of measured
//! winners from `coll-bench`'s sweep of every registered algorithm across
//! message sizes on the live mesh, and persists it here ([`CollTune::save`], conventionally at
//! [`COLL_TUNE_PATH`], which is *not* committed — fresh clones keep the
//! baseline table until they tune). CLI entry points load the file and hand
//! its [`CollTune::algo`] to every [`mesh::MeshRun`] they launch, the same
//! convention `results/calibration.json` uses for the compute rate.
//!
//! The file format is a rule list in first-match-wins order, one JSON
//! object per [`mesh::AlgoRule`]; unbounded range ends serialize as `-1`
//! (JSON numbers are doubles and cannot carry `usize::MAX` exactly).
//!
//! A tune persists no wire dtype: every collective travels f32. A file
//! carrying the retired `"wire_rules"` key is rejected by name rather than
//! read as f32.

use mesh::{AlgoRule, AlgoTable, CollAlgo, CommOp};
use minjson::Json;

/// Default on-disk location, relative to the repo root.
pub const COLL_TUNE_PATH: &str = "results/coll_tune.json";

/// A tuned algorithm table plus its provenance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CollTune {
    /// Where the table came from (e.g. `"tune-coll p=8"`).
    pub source: String,
    /// The algorithm rules, first match wins.
    pub algo: AlgoTable,
}

fn bound_to_json(v: usize) -> Json {
    if v == usize::MAX {
        Json::Num(-1.0)
    } else {
        Json::Num(v as f64)
    }
}

/// A range end: a non-negative integer a double holds exactly, or `-1` for
/// unbounded.
fn bound_from_json(v: &Json) -> Result<usize, String> {
    let f = v.as_f64()?;
    if f == -1.0 {
        Ok(usize::MAX)
    } else if f >= 0.0 && f.fract() == 0.0 && f <= (1u64 << 53) as f64 {
        Ok(f as usize)
    } else {
        Err(format!(
            "bound {f:?} is neither a non-negative integer nor -1"
        ))
    }
}

fn rule_from_json(rv: &Json) -> Result<AlgoRule, String> {
    let op_name = match rv.get("op")? {
        Json::Str(s) => s.clone(),
        other => return Err(format!("expected string op, got {other:?}")),
    };
    let op =
        CommOp::from_name(&op_name).ok_or_else(|| format!("unknown collective {op_name:?}"))?;
    let algo_name = match rv.get("algo")? {
        Json::Str(s) => s.clone(),
        other => return Err(format!("expected string algo, got {other:?}")),
    };
    let algo = CollAlgo::from_name(&algo_name)
        .ok_or_else(|| format!("unknown algorithm {algo_name:?}"))?;
    if !algo.valid_for(op) {
        return Err(format!("{algo_name:?} is not a {op_name} algorithm"));
    }
    let bound = |key: &str| bound_from_json(rv.get(key)?).map_err(|e| format!("{key}: {e}"));
    let rule = AlgoRule {
        op,
        min_group: bound("min_group")?,
        max_group: bound("max_group")?,
        min_bytes: bound("min_bytes")?,
        max_bytes: bound("max_bytes")?,
        algo,
    };
    for (what, lo, hi) in [
        ("group", rule.min_group, rule.max_group),
        ("bytes", rule.min_bytes, rule.max_bytes),
    ] {
        if lo > hi {
            return Err(format!("min_{what} {lo} > max_{what} {hi} never matches"));
        }
    }
    Ok(rule)
}

impl CollTune {
    /// The tune as JSON.
    pub fn to_json(&self) -> Json {
        let rules = self
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
        Json::obj(vec![
            ("source", Json::Str(self.source.clone())),
            ("rules", Json::Arr(rules)),
        ])
    }

    /// Inverse of [`CollTune::to_json`]. Rejects unknown op or algorithm
    /// names, rules naming an algorithm the op does not implement, range
    /// ends that are not a non-negative integer or `-1`, inverted ranges
    /// and the retired `"wire_rules"` key, so a hand-edited or stale file
    /// fails loudly instead of silently falling back.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        if v.get("wire_rules").is_ok() {
            return Err("\"wire_rules\" is retired: a tune carries no wire dtype".to_string());
        }
        let source = match v.get("source")? {
            Json::Str(s) => s.clone(),
            other => return Err(format!("expected string source, got {other:?}")),
        };
        let rules = v
            .get("rules")?
            .as_arr()?
            .iter()
            .enumerate()
            .map(|(i, rv)| rule_from_json(rv).map_err(|e| format!("rule {i}: {e}")))
            .collect::<Result<_, _>>()?;
        Ok(CollTune {
            source,
            algo: AlgoTable { rules },
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
            algo,
        }
    }

    #[test]
    fn json_roundtrip_preserves_rules_and_unbounded_ends() {
        let t = sample();
        let s = t.to_json().to_string();
        let back = CollTune::from_json(&minjson::parse(&s).unwrap()).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.algo.rules[0].max_group, usize::MAX);
        assert_eq!(back.algo.rules[1].max_bytes, usize::MAX);
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
            assert_eq!(back.algo.select(op, g, bytes), t.algo.select(op, g, bytes));
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
    fn malformed_bounds_and_stale_keys_are_rejected_by_name() {
        let rule = |[min_group, max_group, min_bytes, max_bytes]: [&str; 4]| {
            format!(
                r#"{{"op":"AllReduce","min_group":{min_group},"max_group":{max_group},
                "min_bytes":{min_bytes},"max_bytes":{max_bytes},"algo":"ring"}}"#
            )
        };
        let ok = rule(["2", "-1", "0", "-1"]);
        let second = |r: [&str; 4]| format!("{ok},{}", rule(r));
        // (rules, extra top-level keys, expected error; "" = accepted)
        for (rules, extra, want) in [
            (ok.clone(), "", ""),
            (second(["2", "8", "0", "0"]), "", ""),
            (
                rule(["-2", "-1", "0", "-1"]),
                "",
                "rule 0: min_group: bound -2.0",
            ),
            (
                rule(["2.5", "-1", "0", "-1"]),
                "",
                "rule 0: min_group: bound 2.5",
            ),
            (
                rule(["2", "-1", "0", "1e300"]),
                "",
                "rule 0: max_bytes: bound 1e300",
            ),
            (
                second(["9", "4", "0", "-1"]),
                "",
                "rule 1: min_group 9 > max_group 4",
            ),
            (
                second(["2", "-1", "64", "32"]),
                "",
                "rule 1: min_bytes 64 > max_bytes 32",
            ),
            (ok.clone(), r#","wire_rules":[]"#, "\"wire_rules\""),
        ] {
            let text = format!(r#"{{"source":"x","rules":[{rules}]{extra}}}"#);
            match CollTune::from_json(&minjson::parse(&text).unwrap()) {
                Err(e) => assert!(!want.is_empty() && e.contains(want), "{text}: {e}"),
                Ok(_) => assert!(want.is_empty(), "{text} was accepted"),
            }
        }
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
