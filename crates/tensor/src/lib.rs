//! Dense tensor substrate for the Optimus reproduction.
//!
//! The paper's algorithms (SUMMA-style distributed matrix multiplication,
//! Megatron-style 1D tensor parallelism, and the 2D-parallel transformer
//! layers built on top) are pure linear algebra. This crate provides the
//! single-device numeric substrate they run on:
//!
//! * [`Tensor`] — a dense, row-major `f32` tensor with shape metadata.
//! * Cache-blocked, packed matrix-multiplication kernels in [`matmul`] /
//!   [`gemm`] (`C = AB`, `C = ABᵀ`, `C = AᵀB`). Every kernel runs on its
//!   caller's thread: a mesh device is one thread, and so is the serial
//!   reference.
//! * Neural-network primitives with **manual backward passes**: bias add,
//!   GELU, row softmax, layer normalisation (saving `x̂` and `1/σ` exactly as
//!   the paper's Section 3.2.2 prescribes), and cross-entropy from logits.
//! * A small, seedable xoshiro256++ PRNG ([`rng::Rng`]) so that every
//!   simulation in the workspace is bit-reproducible without external
//!   dependencies.
//! * Finite-difference gradient checking utilities in [`gradcheck`].
//!
//! Everything is `f32` end to end, mirroring the configuration the paper
//! benchmarks; accumulation order is deterministic so distributed results can
//! be compared against the serial reference with tight tolerances.

pub mod amp;
pub mod gemm;
pub mod gradcheck;
pub mod init;
pub mod layernorm;
pub mod loss;
pub mod matmul;
pub mod ops;
pub mod optim;
pub mod pool;
pub mod rng;
pub mod schedule;
pub mod softmax;
mod tensor;
mod vmath;

pub use matmul::{matmul_nn, matmul_nt, matmul_tn};
pub use rng::Rng;
pub use tensor::Tensor;

/// Asserts that two slices are element-wise close within absolute tolerance
/// `atol` plus relative tolerance `rtol * |expected|`.
///
/// Panics with the index and values of the first offending element, which is
/// far more useful in distributed tests than a bare boolean.
pub fn assert_close(actual: &[f32], expected: &[f32], atol: f32, rtol: f32) {
    assert_eq!(
        actual.len(),
        expected.len(),
        "length mismatch: {} vs {}",
        actual.len(),
        expected.len()
    );
    for (i, (&a, &e)) in actual.iter().zip(expected.iter()).enumerate() {
        let tol = atol + rtol * e.abs();
        assert!(
            (a - e).abs() <= tol,
            "element {i} differs: actual={a}, expected={e}, |diff|={}, tol={tol}",
            (a - e).abs()
        );
    }
}

/// Maximum absolute difference between two equal-length slices.
pub fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f32::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assert_close_accepts_equal() {
        assert_close(&[1.0, 2.0], &[1.0, 2.0], 0.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "element 1 differs")]
    fn assert_close_rejects_distant() {
        assert_close(&[1.0, 2.0], &[1.0, 3.0], 1e-3, 0.0);
    }

    #[test]
    fn max_abs_diff_finds_largest() {
        assert_eq!(max_abs_diff(&[0.0, 1.0, -3.0], &[0.5, 1.0, 1.0]), 4.0);
    }
}
