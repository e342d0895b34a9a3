//! Hardware profiles for the cost model.

/// Machine constants for the α-β + flop-rate model.
///
/// All bandwidth terms are expressed as `β` — seconds per f32 element
/// transferred (the paper's "time to transfer a scalar"). `α` is the
/// per-message latency (the paper drops it as negligible for its payload
/// sizes; we keep it for fidelity at small block sizes).
#[derive(Clone, Debug)]
pub struct HardwareProfile {
    pub name: String,
    /// Effective multiply-accumulate rate per device (MAC/s), i.e. achieved
    /// GEMM throughput, not peak.
    pub mac_rate: f64,
    /// Per-message latency in seconds.
    pub alpha: f64,
    /// Seconds per f32 moved between two devices in the same node.
    pub beta_intra: f64,
    /// Seconds per f32 moved between nodes (per concurrent flow).
    pub beta_inter: f64,
    /// Device memory capacity in bytes.
    pub mem_bytes: f64,
    /// Devices per node.
    pub gpus_per_node: usize,
}

impl HardwareProfile {
    /// TACC Frontera rtx partition (the paper's testbed): 4 × NVIDIA Quadro
    /// RTX 5000 (16 GB, 11.2 TFLOP/s fp32 peak) per node, nodes linked by
    /// InfiniBand.
    ///
    /// Calibration (documented in EXPERIMENTS.md): the achieved MAC rate is
    /// set so the modelled single-node forward time matches the paper's
    /// Table 2 row 1 for Megatron (0.0793 s per sequence at b=60, h=2048,
    /// N=24, s=512 on 4 GPUs), which lands at ~36 % of fp32 peak — a
    /// typical PyTorch GEMM efficiency on that part. β values correspond to
    /// ~10 GB/s PCIe within a node and ~5 GB/s per concurrent flow across
    /// the InfiniBand fabric.
    pub fn frontera_rtx5000() -> Self {
        HardwareProfile {
            name: "frontera-rtx5000".to_string(),
            mac_rate: 2.0e12,
            alpha: 2.0e-5,
            beta_intra: 4.0e-10,
            beta_inter: 8.0e-10,
            mem_bytes: 16.0 * (1u64 << 30) as f64,
            gpus_per_node: 4,
        }
    }

    /// An idealised profile with uniform bandwidth and no latency — useful
    /// in tests where closed-form expectations must match exactly.
    pub fn uniform(mac_rate: f64, beta: f64) -> Self {
        HardwareProfile {
            name: "uniform".to_string(),
            mac_rate,
            alpha: 0.0,
            beta_intra: beta,
            beta_inter: beta,
            mem_bytes: f64::INFINITY,
            gpus_per_node: usize::MAX,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frontera_profile_is_sane() {
        let p = HardwareProfile::frontera_rtx5000();
        assert!(p.mac_rate > 1e12 && p.mac_rate < 6e12);
        assert!(p.beta_inter >= p.beta_intra);
        assert_eq!(p.gpus_per_node, 4);
        assert!(p.mem_bytes > 15e9);
    }
}
