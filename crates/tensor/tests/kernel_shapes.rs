//! Seeded property sweeps for the cache-blocked GEMM engine and for the
//! vectorized element-wise kernels (GELU, softmax, cross-entropy).
//!
//! For every form (NN / NT / TN) and a grid of edge-case shapes — unit
//! dims, prime dims, exact microkernel stripe/panel boundaries of both
//! register tiles, one past them, cache-block boundaries, and sizes past the
//! small-path threshold — the engine must agree with an f64-accumulated
//! naive product to within f32 rounding, and on a host with both FMA tiers
//! the AVX-512 and the AVX2 microkernel must compute it to the same bits.
//!
//! The element-wise kernels must give every element a result that depends
//! on its value alone — not on its offset in the buffer or the buffer's
//! length (vector body or scalar tail) — which is what keeps serial ≡
//! distributed bitwise however an activation is partitioned.

use tensor::gemm::{gemm_acc, with_tier, Form, Tier, MC};
use tensor::loss::{ce_grad_local, partial_row_max, partial_sumexp, softmax_from_parts};
use tensor::matmul::reference;
use tensor::ops::{gelu, gelu_backward, gelu_forward, gelu_grad};
use tensor::softmax::softmax_rows;
use tensor::{Rng, Tensor};

/// Shape grid: microkernel stripes are 6 rows (MR) × 16 or 32 columns (NR,
/// by tier), cache blocks are MC=96 / KC=256 / NC=1024, and products under
/// 32³ MACs take the direct small path. The tiers differ in NR alone, so
/// only the column axis carries the edges of the 32-wide tile.
const DIMS: &[usize] = &[1, 6, 7, 16, 17, 31, 96, 97, 256];
const N_DIMS: &[usize] = &[1, 6, 7, 16, 17, 31, 32, 33, 63, 64, 65, 96, 97, 256];
const FORMS: &[Form] = &[Form::NN, Form::NT, Form::TN];

fn fill(len: usize, rng: &mut Rng) -> Vec<f32> {
    (0..len).map(|_| rng.normal()).collect()
}

/// Buffer lengths for (a, b) under each physical layout.
fn buf_lens(form: Form, m: usize, k: usize, n: usize) -> (usize, usize) {
    match form {
        Form::NN => (m * k, k * n),
        Form::NT => (m * k, n * k),
        Form::TN => (k * m, k * n),
    }
}

/// Asserts `got ≈ init + op(A)·op(B)` with the product accumulated in f64.
#[allow(clippy::too_many_arguments)]
fn assert_matches_oracle(
    got: &[f32],
    init: &[f32],
    form: Form,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
) {
    let oracle = reference::naive_f64(form, m, n, a, b, k);
    for (idx, ((&got, &c0), &p)) in got.iter().zip(init).zip(&oracle).enumerate() {
        let want = c0 + p;
        let tol = 1e-4 * (k as f32).sqrt().max(1.0) + 1e-5;
        assert!(
            (got - want).abs() <= tol * want.abs().max(1.0),
            "{form:?} {m}x{k}x{n} at {idx}: {got} vs f64 oracle {want}"
        );
    }
}

fn check_shape(form: Form, m: usize, k: usize, n: usize, rng: &mut Rng) {
    let (alen, blen) = buf_lens(form, m, k, n);
    let a = fill(alen, rng);
    let b = fill(blen, rng);

    let mut c = vec![0.0f32; m * n];
    gemm_acc(form, &mut c, m, n, &a, &b, k);

    // The tile an element is computed in does not enter its operation
    // sequence: the two FMA tiers agree to the bit.
    if Tier::host() == Tier::Avx512 {
        let mut avx2 = vec![0.0f32; m * n];
        with_tier(Tier::Avx2, || gemm_acc(form, &mut avx2, m, n, &a, &b, k));
        assert_eq!(
            bits(&c),
            bits(&avx2),
            "{form:?} {m}x{k}x{n}: AVX-512 tier differs from AVX2 tier"
        );
    }

    assert_matches_oracle(&c, &vec![0.0; m * n], form, m, k, n, &a, &b);
}

#[test]
fn edge_shape_sweep_all_forms() {
    let mut rng = Rng::new(0x5EED);
    for &form in FORMS {
        for &m in DIMS {
            for &k in DIMS {
                for &n in N_DIMS {
                    // Keep the sweep fast: skip products where every dim is
                    // large (covered by the dedicated big-shape test below).
                    if m * k * n > 100 * 96 * 96 {
                        continue;
                    }
                    check_shape(form, m, k, n, &mut rng);
                }
            }
        }
    }
}

#[test]
fn blocked_path_large_shapes() {
    let mut rng = Rng::new(0xB10C);
    for &form in FORMS {
        // Past every cache-block boundary at once, non-multiples of all of
        // MR/NR/MC/KC so packing pads in each dimension.
        check_shape(form, 130, 70, 90, &mut rng);
        // Tall-skinny and k=1 extremes through the blocked path.
        check_shape(form, 300, 40, 5, &mut rng);
        check_shape(form, 64, 1, 64, &mut rng);
        // Several KC bands and several MC blocks under one pack of op(B).
        check_shape(form, 2 * MC + 5, 600, 70, &mut rng);
        // One MC block, a ragged second block, and a ragged third.
        for m in [MC - 1, MC + 1, 2 * MC + 5] {
            check_shape(form, m, 70, 90, &mut rng);
        }
    }
}

#[test]
fn adds_into_a_non_zero_c() {
    // A blocked-path product: `c += acc` lands on the values already there.
    let mut rng = Rng::new(0xACC);
    let (m, k, n) = (97, 33, 49);
    let a = fill(m * k, &mut rng);
    let b = fill(k * n, &mut rng);
    let init = fill(m * n, &mut rng);
    let mut c = init.clone();
    gemm_acc(Form::NN, &mut c, m, n, &a, &b, k);
    assert_matches_oracle(&c, &init, Form::NN, m, k, n, &a, &b);
}

// ---------------------------------------------------------------------------
// Element-wise kernels
// ---------------------------------------------------------------------------

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// `exp(v)` through the one-element case of the softmax kernel:
/// `exp(v − 0) · (1/1) · 1`.
fn exp1(v: f32) -> f32 {
    softmax_from_parts(&Tensor::from_vec(&[1, 1], vec![v]), &[0.0], &[1.0], 1.0).at(0, 0)
}

/// The softmax of one row, assembled from one-element calls in the kernel's
/// stated order: row maximum, `exp`, left-to-right sum, one reciprocal.
fn softmax_row_by_elements(row: &[f32]) -> Vec<f32> {
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let e: Vec<f32> = row.iter().map(|&v| exp1(v - max)).collect();
    let mut sum = 0.0f32;
    for &v in &e {
        sum += v;
    }
    let inv = 1.0 / sum;
    e.iter().map(|&v| v * inv).collect()
}

#[test]
fn elementwise_results_do_not_depend_on_position() {
    let mut rng = Rng::new(0xE1E);
    let buf = fill(64, &mut rng);
    let dy = fill(64, &mut rng);
    for off in 0..=16 {
        for len in 1..=40 {
            let window = &buf[off..off + len];
            let x = Tensor::from_vec(&[1, len], window.to_vec());
            let g = Tensor::from_vec(&[1, len], dy[off..off + len].to_vec());

            let want: Vec<f32> = window.iter().map(|&v| gelu(v)).collect();
            assert_eq!(
                bits(gelu_forward(&x).as_slice()),
                bits(&want),
                "gelu_forward at offset {off}, length {len}"
            );
            let want: Vec<f32> = window
                .iter()
                .zip(g.as_slice())
                .map(|(&v, &g)| g * gelu_grad(v))
                .collect();
            assert_eq!(
                bits(gelu_backward(&g, &x).as_slice()),
                bits(&want),
                "gelu_backward at offset {off}, length {len}"
            );
            assert_eq!(
                bits(softmax_rows(&x).as_slice()),
                bits(&softmax_row_by_elements(window)),
                "softmax_rows at offset {off}, length {len}"
            );
        }
    }
}

#[test]
fn softmax_row_does_not_depend_on_its_neighbours() {
    // The same row at every position of a taller tensor, beside other rows.
    let mut rng = Rng::new(0xE2E);
    for cols in [1usize, 7, 8, 9, 33, 64, 100] {
        let rows = 5;
        let mut x = Tensor::randn(&[rows, cols], 2.0, &mut rng);
        let row = fill(cols, &mut rng);
        let want = bits(&softmax_row_by_elements(&row));
        for r in 0..rows {
            x.row_mut(r).copy_from_slice(&row);
            assert_eq!(
                bits(softmax_rows(&x).row(r)),
                want,
                "row {r} of {rows}x{cols}"
            );
        }
    }
}

#[test]
fn cross_entropy_halves_share_one_exp() {
    // Forward Σexp and the backward softmax are built from the same
    // one-element exp, summed left to right: a vocabulary split in two (as
    // a mesh row would hold it) reproduces the unsplit numerators bitwise.
    let mut rng = Rng::new(0xE3E);
    let (rows, vocab) = (6, 150); // longer than the kernel's 64-lane sum block
    let logits = Tensor::randn(&[rows, vocab], 3.0, &mut rng);
    let labels: Vec<usize> = (0..rows).map(|r| (r * 37) % vocab).collect();
    let m = partial_row_max(&logits);
    let se = partial_sumexp(&logits, &m);
    for r in 0..rows {
        let mut sum = 0.0f32;
        for &v in logits.row(r) {
            sum += exp1(v - m[r]);
        }
        assert_eq!(se[r].to_bits(), sum.to_bits(), "row {r}");
    }
    let scale = 1.0 / rows as f32;
    let grad = ce_grad_local(&logits, &labels, 0, &m, &se, scale);
    let (left, right) = (
        logits.block(0, 0, rows, 64),
        logits.block(0, 64, rows, vocab - 64),
    );
    let mut split = Tensor::zeros(&[rows, vocab]);
    split.set_block(0, 0, &ce_grad_local(&left, &labels, 0, &m, &se, scale));
    split.set_block(0, 64, &ce_grad_local(&right, &labels, 64, &m, &se, scale));
    assert_eq!(bits(split.as_slice()), bits(grad.as_slice()));
    for r in 0..rows {
        let inv = 1.0 / se[r];
        for c in 0..vocab {
            let p = exp1(logits.at(r, c) - m[r]) * inv;
            let want = if labels[r] == c {
                (p - 1.0) * scale
            } else {
                p * scale
            };
            assert_eq!(grad.at(r, c).to_bits(), want.to_bits(), "({r}, {c})");
        }
    }
}
