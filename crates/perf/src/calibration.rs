//! Measured-kernel calibration for the cost model.
//!
//! The Eq. 4–5 dry-run projections divide MAC counts by
//! [`HardwareProfile::mac_rate`]. That constant is only meaningful relative
//! to a concrete GEMM implementation: the default Frontera profile encodes
//! the paper's GPUs, while local runs should use the rate the in-tree engine
//! actually achieves on this host. `gemm-bench` measures it and
//! `optimus-cli calibrate` persists it here ([`Calibration::save`],
//! conventionally at `results/calibration.json`, which is *not* committed —
//! fresh clones keep the paper profile until they calibrate).

use crate::profile::HardwareProfile;
use minjson::Json;

/// Default on-disk location, relative to the repo root.
pub const CALIBRATION_PATH: &str = "results/calibration.json";

/// A measured compute rate for this host's GEMM engine.
#[derive(Clone, Debug)]
pub struct Calibration {
    /// Achieved multiply-accumulate rate (MAC/s). GFLOP/s = `2e-9 × mac_rate`.
    pub mac_rate: f64,
    /// Shape the rate was measured at, `[m, k, n]`.
    pub shape: [usize; 3],
    /// Where the number came from (e.g. `"gemm-bench"` or `"BENCH_gemm.json"`).
    pub source: String,
}

impl Calibration {
    /// Achieved GFLOP/s (2 flops per MAC).
    pub fn gflops(&self) -> f64 {
        2.0 * self.mac_rate / 1e9
    }

    /// Returns `profile` with its compute rate replaced by the measured one
    /// and the name marked as calibrated. Communication terms are untouched
    /// (they model the paper's fabric, not this host).
    pub fn apply(&self, mut profile: HardwareProfile) -> HardwareProfile {
        profile.mac_rate = self.mac_rate;
        profile.name = format!("{}+calibrated", profile.name);
        profile
    }

    /// Calibration as JSON.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("mac_rate", Json::Num(self.mac_rate)),
            (
                "shape",
                Json::Arr(
                    self.shape
                        .iter()
                        .map(|&d| Json::Num(d as f64))
                        .collect::<Vec<_>>(),
                ),
            ),
            ("source", Json::Str(self.source.clone())),
        ])
    }

    /// Inverse of [`Calibration::to_json`]. A `threads` key, which files
    /// written when the engine could fan out still carry, is ignored.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let shape_v = match v.get("shape")? {
            Json::Arr(items) if items.len() == 3 => items,
            other => return Err(format!("expected 3-element shape, got {other:?}")),
        };
        let mut shape = [0usize; 3];
        for (dst, item) in shape.iter_mut().zip(shape_v) {
            *dst = item.as_usize()?;
        }
        let source = match v.get("source")? {
            Json::Str(s) => s.clone(),
            other => return Err(format!("expected string source, got {other:?}")),
        };
        Ok(Calibration {
            mac_rate: v.get("mac_rate")?.as_f64()?,
            shape,
            source,
        })
    }

    /// Writes the calibration to `path` as JSON.
    pub fn save(&self, path: &str) -> std::io::Result<()> {
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_json().to_string())
    }

    /// Loads a calibration from `path`; `Ok(None)` if the file is absent.
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

    fn sample() -> Calibration {
        Calibration {
            mac_rate: 5.0e9,
            shape: [512, 512, 512],
            source: "gemm-bench".to_string(),
        }
    }

    #[test]
    fn json_roundtrip() {
        let c = sample();
        let s = c.to_json().to_string();
        let back = Calibration::from_json(&minjson::parse(&s).unwrap()).unwrap();
        assert_eq!(back.mac_rate, c.mac_rate);
        assert_eq!(back.shape, c.shape);
        assert_eq!(back.source, "gemm-bench");
        assert!(!s.contains("threads"), "{s}");
    }

    #[test]
    fn loads_a_file_that_records_a_thread_count() {
        let s = r#"{"mac_rate":5e9,"shape":[512,512,512],"threads":1,"source":"gemm-bench"}"#;
        let c = Calibration::from_json(&minjson::parse(s).unwrap()).unwrap();
        assert_eq!((c.mac_rate, c.shape), (5.0e9, [512, 512, 512]));
        assert_eq!(c.source, "gemm-bench");
    }

    #[test]
    fn apply_overrides_only_compute() {
        let base = HardwareProfile::frontera_rtx5000();
        let cal = sample();
        let p = cal.apply(base.clone());
        assert_eq!(p.mac_rate, 5.0e9);
        assert_eq!(p.alpha, base.alpha);
        assert_eq!(p.beta_intra, base.beta_intra);
        assert!(p.name.contains("calibrated"));
    }

    #[test]
    fn gflops_is_twice_mac_rate() {
        assert_eq!(sample().gflops(), 10.0);
    }

    #[test]
    fn load_missing_file_is_none() {
        assert!(Calibration::load("/nonexistent/calibration.json")
            .unwrap()
            .is_none());
    }

    #[test]
    fn save_load_roundtrip() {
        let dir = std::env::temp_dir().join("optimus-calibration-test");
        let path = dir.join("calibration.json");
        let path = path.to_str().unwrap();
        sample().save(path).unwrap();
        let back = Calibration::load(path).unwrap().unwrap();
        assert_eq!(back.mac_rate, sample().mac_rate);
        std::fs::remove_dir_all(&dir).ok();
    }
}
