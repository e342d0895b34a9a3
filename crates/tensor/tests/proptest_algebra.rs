//! Property-style tests over the kernel algebra — the identities SUMMA's
//! correctness ultimately rests on. Cases come from the crate's own seeded
//! PRNG (deterministic, no external property-testing framework).

use tensor::{matmul_nn, matmul_nt, matmul_tn, max_abs_diff, Rng, Tensor};

fn rand(dims: &[usize], seed: u64) -> Tensor {
    Tensor::randn(dims, 1.0, &mut Rng::new(seed))
}

#[test]
fn transpose_duality() {
    let mut case = Rng::new(0xA1A1);
    for _ in 0..32 {
        let (m, k, n) = (1 + case.below(7), 1 + case.below(7), 1 + case.below(7));
        let seed = case.below(1000) as u64;
        // (A·B)ᵀ = Bᵀ·Aᵀ, and the NT/TN kernels agree with explicit
        // transposes.
        let a = rand(&[m, k], seed);
        let b = rand(&[k, n], seed + 1);
        let ab_t = matmul_nn(&a, &b).transpose();
        let bt_at = matmul_nn(&b.transpose(), &a.transpose());
        assert!(max_abs_diff(ab_t.as_slice(), bt_at.as_slice()) < 1e-4);

        let bt = rand(&[n, k], seed + 2);
        let via_nt = matmul_nt(&a, &bt);
        let via_nn = matmul_nn(&a, &bt.transpose());
        assert!(max_abs_diff(via_nt.as_slice(), via_nn.as_slice()) < 1e-4);

        let at = rand(&[k, m], seed + 3);
        let via_tn = matmul_tn(&at, &b);
        let via_nn2 = matmul_nn(&at.transpose(), &b);
        assert!(max_abs_diff(via_tn.as_slice(), via_nn2.as_slice()) < 1e-4);
    }
}

#[test]
fn distributivity_over_addition() {
    let mut case = Rng::new(0xA1A2);
    for _ in 0..32 {
        let (m, k, n) = (1 + case.below(7), 1 + case.below(7), 1 + case.below(7));
        let seed = case.below(1000) as u64;
        // A·(B + C) = A·B + A·C.
        let a = rand(&[m, k], seed);
        let b = rand(&[k, n], seed + 1);
        let c = rand(&[k, n], seed + 2);
        let mut bc = b.clone();
        bc.add_assign(&c);
        let lhs = matmul_nn(&a, &bc);
        let mut rhs = matmul_nn(&a, &b);
        rhs.add_assign(&matmul_nn(&a, &c));
        assert!(max_abs_diff(lhs.as_slice(), rhs.as_slice()) < 1e-3);
    }
}

#[test]
fn block_decomposition_is_exact() {
    let mut case = Rng::new(0xA1A3);
    for _ in 0..32 {
        let q = 1 + case.below(3);
        let (mb, kb, nb) = (1 + case.below(3), 1 + case.below(3), 1 + case.below(3));
        let seed = case.below(1000) as u64;
        // The SUMMA identity on one device: C_ij = Σ_l A_il · B_lj.
        let (m, k, n) = (mb * q, kb * q, nb * q);
        let a = rand(&[m, k], seed);
        let b = rand(&[k, n], seed + 1);
        let full = matmul_nn(&a, &b);
        for i in 0..q {
            for j in 0..q {
                let mut c_ij = Tensor::zeros(&[mb, nb]);
                for l in 0..q {
                    let a_il = a.summa_block(i, l, q);
                    let b_lj = b.summa_block(l, j, q);
                    c_ij.add_assign(&matmul_nn(&a_il, &b_lj));
                }
                let expect = full.summa_block(i, j, q);
                assert!(
                    max_abs_diff(c_ij.as_slice(), expect.as_slice()) < 1e-3,
                    "block ({i},{j})"
                );
            }
        }
    }
}

#[test]
fn gradient_identities_close_the_set() {
    let mut case = Rng::new(0xA1A4);
    for _ in 0..32 {
        let (m, k, n) = (1 + case.below(5), 1 + case.below(5), 1 + case.below(5));
        let seed = case.below(1000) as u64;
        // Eq. 1: for C = A·B and scalar loss L = <C, W>,
        // dA = W·Bᵀ and dB = Aᵀ·W — check by perturbation of one entry.
        let a = rand(&[m, k], seed);
        let b = rand(&[k, n], seed + 1);
        let w = rand(&[m, n], seed + 2);
        let loss = |a: &Tensor, b: &Tensor| -> f32 {
            matmul_nn(a, b)
                .as_slice()
                .iter()
                .zip(w.as_slice())
                .map(|(x, y)| x * y)
                .sum()
        };
        let da = matmul_nt(&w, &b);
        let db = matmul_tn(&a, &w);
        let eps = 1e-2f32;
        let idx_a = (seed as usize) % a.len();
        let mut ap = a.clone();
        ap.as_mut_slice()[idx_a] += eps;
        let mut am = a.clone();
        am.as_mut_slice()[idx_a] -= eps;
        let fd = (loss(&ap, &b) - loss(&am, &b)) / (2.0 * eps);
        assert!((da.as_slice()[idx_a] - fd).abs() < 1e-2 + 0.05 * fd.abs());

        let idx_b = (seed as usize) % b.len();
        let mut bp = b.clone();
        bp.as_mut_slice()[idx_b] += eps;
        let mut bm = b.clone();
        bm.as_mut_slice()[idx_b] -= eps;
        let fd = (loss(&a, &bp) - loss(&a, &bm)) / (2.0 * eps);
        assert!((db.as_slice()[idx_b] - fd).abs() < 1e-2 + 0.05 * fd.abs());
    }
}

#[test]
fn softmax_rows_are_distributions() {
    let mut case = Rng::new(0xA1A6);
    for _ in 0..32 {
        let rows = 1 + case.below(5);
        let cols = 1 + case.below(11);
        let seed = case.below(1000) as u64;
        let scale = 0.1 + 7.9 * (case.below(1000) as f32 / 1000.0);
        let x = Tensor::randn(&[rows, cols], scale, &mut Rng::new(seed));
        let y = tensor::softmax::softmax_rows(&x);
        for r in 0..rows {
            let row = y.row(r);
            assert!(row.iter().all(|&v| (0.0..=1.0).contains(&v)));
            let s: f32 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-4);
        }
    }
}
