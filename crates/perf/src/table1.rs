//! Closed-form per-layer costs — the paper's Table 1.
//!
//! Communication entries are **f32 elements moved per device per layer**
//! (the paper's unit: "numbers of scalars transferred"); computation entries
//! are multiply-accumulates per device ("scalar-scalar multiplications").
//! Integration tests validate these expressions against the *executed*
//! `megatron`/`optimus-core` layers' [`mesh::CommLog`]s.
//!
//! The table is per layer, as the paper prints it: its checkpointed
//! backward includes one recompute. An executed step makes `L − 1`
//! recomputes, not `L`: the top layer's forward keeps its cache for the
//! backward that follows it (`serial::stem::Keep::TopCache`), so that
//! layer's backward costs what a non-checkpointed one does.

/// Per-layer, per-device costs of one scheme.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LayerCosts {
    /// Forward communication, f32 elements.
    pub fwd_comm: f64,
    /// Backward communication (with activation checkpointing), f32 elements.
    pub bwd_comm: f64,
    /// Forward computation, MACs.
    pub fwd_macs: f64,
    /// Backward computation (2× grads + 1× recompute), MACs.
    pub bwd_macs: f64,
}

/// Forward computation of one transformer layer, total MACs:
/// `12bsh² + 2bs²h` (QKV `3bsh²`, scores+context `2bs²h`, out-proj `bsh²`,
/// MLP `8bsh²`).
pub fn layer_macs(b: usize, s: usize, h: usize) -> f64 {
    let (b, s, h) = (b as f64, s as f64, h as f64);
    12.0 * b * s * h * h + 2.0 * b * s * s * h
}

/// Table 1, Megatron column.
pub fn megatron_layer_costs(b: usize, s: usize, h: usize, p: usize) -> LayerCosts {
    let bsh = (b * s * h) as f64;
    let pf = p as f64;
    let ar = 2.0 * (pf - 1.0) / pf * bsh; // wire volume of one bsh all-reduce
    LayerCosts {
        fwd_comm: 2.0 * ar, // = 4(p−1)/p·bsh
        bwd_comm: 4.0 * ar, // = 8(p−1)/p·bsh (2 grad ARs + recompute)
        fwd_macs: layer_macs(b, s, h) / pf,
        bwd_macs: 3.0 * layer_macs(b, s, h) / pf,
    }
}

/// Table 1, Optimus column: `log(p)/(2√p)·(7bsh + 12h²)` forward, 3× that
/// backward (each matmul's backward is two SUMMA products, plus the
/// checkpoint recompute), exactly as the paper prints it.
///
/// The executed checkpointed backward moves 2× the forward, not 3×: the
/// recompute keeps the panels it receives and the backward's `NT`/`TN`
/// products read them instead of broadcasting them again, so they move only
/// their reduces (`tests/panel_reuse.rs` checks the 2× on an executed
/// layer). Without checkpointing the backward is the two products alone,
/// 2× as well.
pub fn optimus_layer_costs(b: usize, s: usize, h: usize, p: usize) -> LayerCosts {
    let q = (p as f64).sqrt();
    assert!(
        (q.round() * q.round() - p as f64).abs() < 1e-9,
        "Optimus needs a square device count, got p={p}"
    );
    let bsh = (b * s * h) as f64;
    let h2 = (h * h) as f64;
    let log_p = (p as f64).log2().max(1.0);
    let fwd = log_p / (2.0 * q) * (7.0 * bsh + 12.0 * h2);
    LayerCosts {
        fwd_comm: fwd,
        bwd_comm: 3.0 * fwd,
        fwd_macs: layer_macs(b, s, h) / p as f64,
        bwd_macs: 3.0 * layer_macs(b, s, h) / p as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn computation_is_identical_across_schemes() {
        let m = megatron_layer_costs(8, 64, 128, 4);
        let o = optimus_layer_costs(8, 64, 128, 4);
        assert_eq!(m.fwd_macs, o.fwd_macs);
        assert_eq!(m.bwd_macs, o.bwd_macs);
        assert_eq!(m.bwd_macs, 3.0 * m.fwd_macs);
    }

    #[test]
    fn megatron_comm_is_independent_of_h_squared_terms() {
        // Megatron moves activations only: doubling h doubles its comm,
        // while Optimus gains an h² weight-panel term.
        let m1 = megatron_layer_costs(8, 64, 128, 4);
        let m2 = megatron_layer_costs(8, 64, 256, 4);
        assert!((m2.fwd_comm / m1.fwd_comm - 2.0).abs() < 1e-12);
    }

    #[test]
    fn optimus_comm_shrinks_with_p_at_fixed_problem() {
        // log(p)/(2√p) decreases: 16 -> 64 devices must cut per-device comm.
        let o16 = optimus_layer_costs(32, 512, 4096, 16);
        let o64 = optimus_layer_costs(32, 512, 4096, 64);
        assert!(o64.fwd_comm < o16.fwd_comm);
        // Megatron's barely moves (the (p−1)/p factor saturates).
        let m16 = megatron_layer_costs(32, 512, 4096, 16);
        let m64 = megatron_layer_costs(32, 512, 4096, 64);
        assert!(m64.fwd_comm > m16.fwd_comm);
    }

    #[test]
    fn backward_ratios_match_table1() {
        let m = megatron_layer_costs(4, 32, 64, 4);
        assert!((m.bwd_comm / m.fwd_comm - 2.0).abs() < 1e-12);
        let o = optimus_layer_costs(4, 32, 64, 4);
        assert!((o.bwd_comm / o.fwd_comm - 3.0).abs() < 1e-12);
    }

    #[test]
    fn exact_paper_expressions() {
        let (b, s, h, p) = (16, 512, 1024, 16);
        let bsh = (b * s * h) as f64;
        let m = megatron_layer_costs(b, s, h, p);
        assert!((m.fwd_comm - 4.0 * 15.0 / 16.0 * bsh).abs() < 1e-6);
        let o = optimus_layer_costs(b, s, h, p);
        let expect = 4.0 / 8.0 * (7.0 * bsh + 12.0 * (h * h) as f64);
        assert!((o.fwd_comm - expect).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "square device count")]
    fn optimus_rejects_non_square_p() {
        optimus_layer_costs(4, 32, 64, 6);
    }
}
