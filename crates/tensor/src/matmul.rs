//! Matrix-multiplication entry points.
//!
//! The paper relies on three product forms that are closed under
//! differentiation (Section 2.4, Eqs. 1–3):
//!
//! * `C = A B`    ([`matmul_nn`])
//! * `C = A Bᵀ`   ([`matmul_nt`])
//! * `C = Aᵀ B`   ([`matmul_tn`])
//!
//! Each kernel also has an accumulating variant (`C += …`) because SUMMA
//! accumulates one outer-product panel per iteration into the local output
//! block. All three forms dispatch into the cache-blocked packed engine in
//! [`crate::gemm`], which packs panels so one register microkernel serves
//! every layout, on the calling thread. The historical seed `NN` kernel is
//! preserved under [`mod@reference`] for benchmarking, beside the `f64` test
//! oracle.

use crate::gemm::{self, Form};
use crate::tensor::Tensor;

/// `C += A B` where `A: [m, k]`, `B: [k, n]`, `C: [m, n]`.
pub fn matmul_nn_acc(c: &mut Tensor, a: &Tensor, b: &Tensor) {
    let (m, k) = (a.rows(), a.cols());
    let (k2, n) = (b.rows(), b.cols());
    assert_eq!(k, k2, "inner dims: A is [{m},{k}], B is [{k2},{n}]");
    assert_eq!((c.rows(), c.cols()), (m, n), "output shape");
    gemm::gemm_acc(
        Form::NN,
        c.as_mut_slice(),
        m,
        n,
        a.as_slice(),
        b.as_slice(),
        k,
    );
}

/// `C = A B`.
pub fn matmul_nn(a: &Tensor, b: &Tensor) -> Tensor {
    let mut c = Tensor::zeros(&[a.rows(), b.cols()]);
    matmul_nn_acc(&mut c, a, b);
    c
}

/// `C += A Bᵀ` where `A: [m, k]`, `B: [n, k]`, `C: [m, n]`.
pub fn matmul_nt_acc(c: &mut Tensor, a: &Tensor, b: &Tensor) {
    let (m, k) = (a.rows(), a.cols());
    let (n, k2) = (b.rows(), b.cols());
    assert_eq!(k, k2, "inner dims: A is [{m},{k}], B is [{n},{k2}]");
    assert_eq!((c.rows(), c.cols()), (m, n), "output shape");
    gemm::gemm_acc(
        Form::NT,
        c.as_mut_slice(),
        m,
        n,
        a.as_slice(),
        b.as_slice(),
        k,
    );
}

/// `C = A Bᵀ`.
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
    let mut c = Tensor::zeros(&[a.rows(), b.rows()]);
    matmul_nt_acc(&mut c, a, b);
    c
}

/// `C += Aᵀ B` where `A: [k, m]`, `B: [k, n]`, `C: [m, n]`.
///
/// Dense data takes the packed path unconditionally: the seed kernel's
/// per-element `if a_il == 0.0` skip is gone (it mispredicted on dense
/// activations and made the work depend on the data).
pub fn matmul_tn_acc(c: &mut Tensor, a: &Tensor, b: &Tensor) {
    let (k, m) = (a.rows(), a.cols());
    let (k2, n) = (b.rows(), b.cols());
    assert_eq!(k, k2, "inner dims: A is [{k},{m}], B is [{k2},{n}]");
    assert_eq!((c.rows(), c.cols()), (m, n), "output shape");
    gemm::gemm_acc(
        Form::TN,
        c.as_mut_slice(),
        m,
        n,
        a.as_slice(),
        b.as_slice(),
        k,
    );
}

/// `C = Aᵀ B`.
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
    let mut c = Tensor::zeros(&[a.cols(), b.cols()]);
    matmul_tn_acc(&mut c, a, b);
    c
}

/// The seed's `NN` kernel and an `f64` oracle, kept verbatim for `gemm-bench`
/// baselines and as independent references in tests. Not used by any
/// production path.
pub mod reference {
    use super::Form;

    /// `C += A B` with the seed's unblocked `i-k-j` loops
    /// (`c: [m, n]`, `a: [m, k]`, `b: [k, n]`).
    pub fn seed_nn(c: &mut [f32], a: &[f32], b: &[f32], k: usize, n: usize) {
        let rows = c.len() / n;
        for i in 0..rows {
            let a_row = &a[i * k..(i + 1) * k];
            let c_row = &mut c[i * n..(i + 1) * n];
            for (l, &a_il) in a_row.iter().enumerate() {
                let b_row = &b[l * n..(l + 1) * n];
                for (c_ij, &b_lj) in c_row.iter_mut().zip(b_row.iter()) {
                    *c_ij += a_il * b_lj;
                }
            }
        }
    }

    /// `op(A) op(B)` accumulated in `f64` and rounded once at the end — the
    /// numeric oracle for every kernel test.
    pub fn naive_f64(form: Form, m: usize, n: usize, a: &[f32], b: &[f32], k: usize) -> Vec<f32> {
        let at = |i: usize, l: usize| match form {
            Form::NN | Form::NT => a[i * k + l] as f64,
            Form::TN => a[l * m + i] as f64,
        };
        let bt = |l: usize, j: usize| match form {
            Form::NN | Form::TN => b[l * n + j] as f64,
            Form::NT => b[j * k + l] as f64,
        };
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f64;
                for l in 0..k {
                    acc += at(i, l) * bt(l, j);
                }
                c[i * n + j] = acc as f32;
            }
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;
    use crate::{assert_close, Tensor};

    fn naive_nn(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        let data = reference::naive_f64(gemm::Form::NN, m, n, a.as_slice(), b.as_slice(), k);
        Tensor::from_vec(&[m, n], data)
    }

    #[test]
    fn nn_matches_naive() {
        let mut rng = Rng::new(0);
        let a = Tensor::randn(&[7, 5], 1.0, &mut rng);
        let b = Tensor::randn(&[5, 9], 1.0, &mut rng);
        assert_close(
            matmul_nn(&a, &b).as_slice(),
            naive_nn(&a, &b).as_slice(),
            1e-4,
            1e-4,
        );
    }

    #[test]
    fn nt_equals_nn_with_explicit_transpose() {
        let mut rng = Rng::new(1);
        let a = Tensor::randn(&[6, 4], 1.0, &mut rng);
        let b = Tensor::randn(&[8, 4], 1.0, &mut rng);
        assert_close(
            matmul_nt(&a, &b).as_slice(),
            matmul_nn(&a, &b.transpose()).as_slice(),
            1e-4,
            1e-4,
        );
    }

    #[test]
    fn tn_equals_nn_with_explicit_transpose() {
        let mut rng = Rng::new(2);
        let a = Tensor::randn(&[4, 6], 1.0, &mut rng);
        let b = Tensor::randn(&[4, 8], 1.0, &mut rng);
        assert_close(
            matmul_tn(&a, &b).as_slice(),
            matmul_nn(&a.transpose(), &b).as_slice(),
            1e-4,
            1e-4,
        );
    }

    #[test]
    fn tn_dense_matches_f64_reference() {
        // Regression for the seed's `a_il == 0.0` skip: dense random data
        // through the packed TN path must track the f64 oracle.
        let mut rng = Rng::new(20);
        let a = Tensor::randn(&[96, 72], 1.0, &mut rng);
        let b = Tensor::randn(&[96, 80], 1.0, &mut rng);
        let got = matmul_tn(&a, &b);
        let expect = reference::naive_f64(gemm::Form::TN, 72, 80, a.as_slice(), b.as_slice(), 96);
        assert_close(got.as_slice(), &expect, 1e-3, 1e-3);
    }

    #[test]
    fn acc_variants_accumulate() {
        let mut rng = Rng::new(3);
        let a = Tensor::randn(&[3, 3], 1.0, &mut rng);
        let b = Tensor::randn(&[3, 3], 1.0, &mut rng);
        let mut c = matmul_nn(&a, &b);
        matmul_nn_acc(&mut c, &a, &b);
        let mut twice = matmul_nn(&a, &b);
        twice.scale(2.0);
        assert_close(c.as_slice(), twice.as_slice(), 1e-5, 1e-5);
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = Rng::new(4);
        let a = Tensor::randn(&[5, 5], 1.0, &mut rng);
        let mut eye = Tensor::zeros(&[5, 5]);
        for i in 0..5 {
            *eye.at_mut(i, i) = 1.0;
        }
        assert_close(matmul_nn(&a, &eye).as_slice(), a.as_slice(), 1e-6, 0.0);
        assert_close(matmul_nn(&eye, &a).as_slice(), a.as_slice(), 1e-6, 0.0);
    }

    #[test]
    fn large_blocked_path_matches_naive() {
        let mut rng = Rng::new(5);
        let a = Tensor::randn(&[130, 64], 0.5, &mut rng);
        let b = Tensor::randn(&[64, 70], 0.5, &mut rng);
        assert_close(
            matmul_nn(&a, &b).as_slice(),
            naive_nn(&a, &b).as_slice(),
            1e-3,
            1e-3,
        );
    }

    #[test]
    fn large_blocked_nt_tn_match() {
        let mut rng = Rng::new(6);
        let a = Tensor::randn(&[100, 80], 0.5, &mut rng);
        let b = Tensor::randn(&[90, 80], 0.5, &mut rng);
        assert_close(
            matmul_nt(&a, &b).as_slice(),
            naive_nn(&a, &b.transpose()).as_slice(),
            1e-3,
            1e-3,
        );
        let a2 = Tensor::randn(&[80, 100], 0.5, &mut rng);
        let b2 = Tensor::randn(&[80, 90], 0.5, &mut rng);
        assert_close(
            matmul_tn(&a2, &b2).as_slice(),
            naive_nn(&a2.transpose(), &b2).as_slice(),
            1e-3,
            1e-3,
        );
    }

    #[test]
    fn seed_kernels_match_engine() {
        let mut rng = Rng::new(7);
        let a = Tensor::randn(&[40, 30], 0.7, &mut rng);
        let b = Tensor::randn(&[30, 20], 0.7, &mut rng);
        let mut c = vec![0.0f32; 40 * 20];
        reference::seed_nn(&mut c, a.as_slice(), b.as_slice(), 30, 20);
        assert_close(matmul_nn(&a, &b).as_slice(), &c, 1e-4, 1e-4);
    }

    #[test]
    #[should_panic(expected = "inner dims")]
    fn nn_rejects_mismatched_inner_dims() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        matmul_nn(&a, &b);
    }
}
