//! The three SUMMA product forms and their gradients.
//!
//! These are thin allocating wrappers over the double-buffered cores in
//! `workspace.rs`: each call stages panels through a throwaway
//! [`Workspace`] (two buffer pairs instead of `2q` fresh tensors) and runs
//! the prefetch schedule, the only one there is.

use crate::workspace::{product_dims, summa_product_into, Strips, Workspace};
use mesh::{Communicator, Grid2d};
use tensor::gemm::Form;
use tensor::Tensor;

/// One SUMMA product of `form` into a fresh output block: `NN` is `A B`,
/// `NT` is `A Bᵀ`, `TN` is `Aᵀ B`. Operand panels that `from` holds are read
/// from there instead of being received again; with `keep`, the panels the
/// product receives are left in it (see [`summa_product_into`]).
pub fn summa_product<C: Communicator>(
    grid: &Grid2d<C>,
    form: Form,
    a: &Tensor,
    b: &Tensor,
    from: &Strips,
    keep: Option<&mut Strips>,
) -> Tensor {
    let (mb, nb, _) = product_dims(form, a, b);
    let mut c = Tensor::zeros(&[mb, nb]);
    summa_product_into(grid, form, a, b, &mut c, &mut Workspace::new(), from, keep);
    c
}

/// `C = A B` (Algorithm 1). `a: [M/q, K/q]`, `b: [K/q, N/q]` local blocks;
/// returns the local `[M/q, N/q]` block of `C`.
///
/// Iteration `l` broadcasts `A`'s column-`l` panel along mesh rows and `B`'s
/// row-`l` panel along mesh columns, then accumulates the outer product
/// locally (Fig. 3). Iteration `l+1`'s broadcasts are posted before
/// iteration `l`'s GEMM runs.
pub fn summa_nn<C: Communicator>(grid: &Grid2d<C>, a: &Tensor, b: &Tensor) -> Tensor {
    summa_product(grid, Form::NN, a, b, &Strips::default(), None)
}

/// `C = A Bᵀ` (Algorithm 2). `a: [M/q, K/q]` blocks of `A: [M, K]`;
/// `b: [N/q, K/q]` blocks of `B: [N, K]`; returns `[M/q, N/q]` blocks of `C`.
///
/// Iteration `l` broadcasts `B`'s row-`l` panel along columns, forms the
/// partial product locally, and reduces it along rows to column `l`; the
/// reduce rides the fabric during the next iteration's GEMM.
pub fn summa_nt<C: Communicator>(grid: &Grid2d<C>, a: &Tensor, b: &Tensor) -> Tensor {
    summa_product(grid, Form::NT, a, b, &Strips::default(), None)
}

/// `C = Aᵀ B` (Algorithm 3). `a: [K/q, M/q]` blocks of `A: [K, M]`;
/// `b: [K/q, N/q]` blocks of `B: [K, N]`; returns `[M/q, N/q]` blocks of `C`.
///
/// Iteration `l` broadcasts `A`'s column-`l` panel along rows, forms the
/// partial product locally, and reduces it along columns to row `l`; the
/// reduce rides the fabric during the next iteration's GEMM.
pub fn summa_tn<C: Communicator>(grid: &Grid2d<C>, a: &Tensor, b: &Tensor) -> Tensor {
    summa_product(grid, Form::TN, a, b, &Strips::default(), None)
}

/// Gradients of `C = A B` (paper Eq. 1): `dA = dC Bᵀ`, `dB = Aᵀ dC`.
pub fn grad_nn<C: Communicator>(
    grid: &Grid2d<C>,
    a: &Tensor,
    b: &Tensor,
    dc: &Tensor,
) -> (Tensor, Tensor) {
    (summa_nt(grid, dc, b), summa_tn(grid, a, dc))
}

/// Gradients of `C = A Bᵀ` (paper Eq. 3): `dA = dC B`, `dB = dCᵀ A`.
pub fn grad_nt<C: Communicator>(
    grid: &Grid2d<C>,
    a: &Tensor,
    b: &Tensor,
    dc: &Tensor,
) -> (Tensor, Tensor) {
    (summa_nn(grid, dc, b), summa_tn(grid, dc, a))
}

/// Gradients of `C = Aᵀ B` (paper Eq. 2): `dA = B dCᵀ`, `dB = A dC`.
pub fn grad_tn<C: Communicator>(
    grid: &Grid2d<C>,
    a: &Tensor,
    b: &Tensor,
    dc: &Tensor,
) -> (Tensor, Tensor) {
    (summa_nt(grid, b, dc), summa_nn(grid, a, dc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{collect_blocks, distribute};
    use mesh::Mesh2d;
    use tensor::{assert_close, matmul_nn, matmul_nt, matmul_tn, Rng, Tensor};

    fn rand(dims: &[usize], seed: u64) -> Tensor {
        Tensor::randn(dims, 1.0, &mut Rng::new(seed))
    }

    #[test]
    fn nn_matches_serial_for_q2_and_q3() {
        for q in [2usize, 3] {
            let a = rand(&[6 * q, 4 * q], 1);
            let b = rand(&[4 * q, 5 * q], 2);
            let expect = matmul_nn(&a, &b);
            let blocks = Mesh2d::run(q, |g| summa_nn(g, &distribute(g, &a), &distribute(g, &b)));
            let got = collect_blocks(&blocks, q);
            assert_close(got.as_slice(), expect.as_slice(), 1e-4, 1e-4);
        }
    }

    #[test]
    fn nt_matches_serial() {
        for q in [2usize, 3] {
            let a = rand(&[4 * q, 3 * q], 3);
            let b = rand(&[5 * q, 3 * q], 4);
            let expect = matmul_nt(&a, &b);
            let blocks = Mesh2d::run(q, |g| summa_nt(g, &distribute(g, &a), &distribute(g, &b)));
            let got = collect_blocks(&blocks, q);
            assert_close(got.as_slice(), expect.as_slice(), 1e-4, 1e-4);
        }
    }

    #[test]
    fn tn_matches_serial() {
        for q in [2usize, 3] {
            let a = rand(&[3 * q, 4 * q], 5);
            let b = rand(&[3 * q, 5 * q], 6);
            let expect = matmul_tn(&a, &b);
            let blocks = Mesh2d::run(q, |g| summa_tn(g, &distribute(g, &a), &distribute(g, &b)));
            let got = collect_blocks(&blocks, q);
            assert_close(got.as_slice(), expect.as_slice(), 1e-4, 1e-4);
        }
    }

    #[test]
    fn q1_degenerates_to_local_matmul() {
        let a = rand(&[4, 3], 7);
        let b = rand(&[3, 5], 8);
        let expect = matmul_nn(&a, &b);
        let blocks = Mesh2d::run(1, |g| summa_nn(g, &a, &b));
        assert_close(blocks[0].as_slice(), expect.as_slice(), 1e-5, 1e-5);
    }

    #[test]
    fn grads_match_serial_formulas() {
        let q = 2;
        let a = rand(&[4 * q, 3 * q], 9);
        let b = rand(&[3 * q, 5 * q], 10);
        let dc = rand(&[4 * q, 5 * q], 11);
        let expect_da = matmul_nt(&dc, &b);
        let expect_db = matmul_tn(&a, &dc);
        let out = Mesh2d::run(q, |g| {
            grad_nn(
                g,
                &distribute(g, &a),
                &distribute(g, &b),
                &distribute(g, &dc),
            )
        });
        let da: Vec<Tensor> = out.iter().map(|(x, _)| x.clone()).collect();
        let db: Vec<Tensor> = out.iter().map(|(_, y)| y.clone()).collect();
        assert_close(
            collect_blocks(&da, q).as_slice(),
            expect_da.as_slice(),
            1e-4,
            1e-4,
        );
        assert_close(
            collect_blocks(&db, q).as_slice(),
            expect_db.as_slice(),
            1e-4,
            1e-4,
        );
    }

    #[test]
    fn grads_of_nt_and_tn_match_serial_formulas() {
        let q = 2;
        // C = A B^T with A [M,K], B [N,K].
        let a = rand(&[4 * q, 3 * q], 12);
        let b = rand(&[5 * q, 3 * q], 13);
        let dc = rand(&[4 * q, 5 * q], 14);
        let out = Mesh2d::run(q, |g| {
            grad_nt(
                g,
                &distribute(g, &a),
                &distribute(g, &b),
                &distribute(g, &dc),
            )
        });
        let da: Vec<Tensor> = out.iter().map(|(x, _)| x.clone()).collect();
        let db: Vec<Tensor> = out.iter().map(|(_, y)| y.clone()).collect();
        assert_close(
            collect_blocks(&da, q).as_slice(),
            matmul_nn(&dc, &b).as_slice(),
            1e-4,
            1e-4,
        );
        assert_close(
            collect_blocks(&db, q).as_slice(),
            matmul_tn(&dc, &a).as_slice(),
            1e-4,
            1e-4,
        );

        // C = A^T B with A [K,M], B [K,N].
        let a = rand(&[3 * q, 4 * q], 15);
        let b = rand(&[3 * q, 5 * q], 16);
        let dc = rand(&[4 * q, 5 * q], 17);
        let out = Mesh2d::run(q, |g| {
            grad_tn(
                g,
                &distribute(g, &a),
                &distribute(g, &b),
                &distribute(g, &dc),
            )
        });
        let da: Vec<Tensor> = out.iter().map(|(x, _)| x.clone()).collect();
        let db: Vec<Tensor> = out.iter().map(|(_, y)| y.clone()).collect();
        assert_close(
            collect_blocks(&da, q).as_slice(),
            matmul_nt(&b, &dc).as_slice(),
            1e-4,
            1e-4,
        );
        assert_close(
            collect_blocks(&db, q).as_slice(),
            matmul_nn(&a, &dc).as_slice(),
            1e-4,
            1e-4,
        );
    }

    #[test]
    fn comm_volume_matches_paper_model() {
        // Each device in summa_nn broadcasts/receives q panels of A and B:
        // logical payload per broadcast is the block size; per device the
        // total logged broadcast payload is q*(|A|/p) + q*(|B|/p).
        let q = 2;
        let a = rand(&[8, 8], 20);
        let b = rand(&[8, 8], 21);
        let (_, logs) =
            Mesh2d::run_with_logs(q, |g| summa_nn(g, &distribute(g, &a), &distribute(g, &b)));
        for log in &logs {
            assert_eq!(log.op_count(mesh::CommOp::Broadcast), 2 * q);
            assert_eq!(log.op_elems(mesh::CommOp::Broadcast), q * (16 + 16));
        }
    }
}
