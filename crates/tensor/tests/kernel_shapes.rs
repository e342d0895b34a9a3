//! Seeded property sweeps for the cache-blocked GEMM engine and for the
//! vectorized element-wise kernels (GELU, softmax, cross-entropy).
//!
//! For every form (NN / NT / TN) and a grid of edge-case shapes — unit
//! dims, prime dims, exact microkernel stripe/panel boundaries of both
//! register tiles, one past them, cache-block boundaries, and sizes past the
//! small-path threshold — the engine must be **bitwise identical** whether it
//! runs serially (thread cap 1: one slab), over the pool (uncapped), as
//! `MC`-row slabs each packing `op(B)` for itself (what pool participants
//! do, here on any host) or inline on a simulated-device thread
//! (`enter_device`), and on a host with both FMA tiers whether the AVX-512
//! or the AVX2 microkernel computes it; and it must agree with an
//! f64-accumulated naive product to within f32 rounding. A final test
//! pins the pool's defining property: a thousand back-to-back matmuls
//! spawn no threads beyond the initial worker set.
//!
//! The element-wise kernels must give every element a result that depends
//! on its value alone — not on its offset in the buffer, the buffer's
//! length (vector body or scalar tail), the chunking or the thread count —
//! which is what keeps serial ≡ distributed bitwise however an activation
//! is partitioned.

use tensor::gemm::{gemm_acc, with_tier, Form, Tier, BLOCKED_THRESHOLD, MC};
use tensor::loss::{ce_grad_local, partial_row_max, partial_sumexp, softmax_from_parts};
use tensor::matmul::reference;
use tensor::ops::{gelu, gelu_backward, gelu_forward, gelu_grad};
use tensor::softmax::{softmax_backward, softmax_rows};
use tensor::{pool, Rng, Tensor};

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

/// Checks `whole` (an `m × n` product the blocked engine computed) against
/// the product computed the way pool participants compute it: one `gemm_acc`
/// per `MC`-row slab of the output, each packing `op(B)` itself. A slab too
/// small for the blocked engine on its own (a ragged last one, or every slab
/// of a product that took the small path whole) is not compared.
fn assert_slabs_match(
    whole: &[f32],
    form: Form,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
) {
    for r0 in (0..m).step_by(MC) {
        let r1 = m.min(r0 + MC);
        if (r1 - r0) * k * n < BLOCKED_THRESHOLD {
            continue;
        }
        // Rows [r0, r1) of op(A): columns of the physical A under TN.
        let a_slab: Vec<f32> = match form {
            Form::NN | Form::NT => a[r0 * k..r1 * k].to_vec(),
            Form::TN => (0..k)
                .flat_map(|l| a[l * m + r0..l * m + r1].iter().copied())
                .collect(),
        };
        let mut c_slab = vec![0.0f32; (r1 - r0) * n];
        pool::with_thread_cap(1, || gemm_acc(form, &mut c_slab, r1 - r0, n, &a_slab, b, k));
        assert_eq!(
            bits(&whole[r0 * n..r1 * n]),
            bits(&c_slab),
            "{form:?} {m}x{k}x{n}: rows {r0}..{r1} as a slab of their own differ from one slab"
        );
    }
}

fn check_shape(form: Form, m: usize, k: usize, n: usize, rng: &mut Rng) {
    let (alen, blen) = buf_lens(form, m, k, n);
    let a = fill(alen, rng);
    let b = fill(blen, rng);

    // One thread, no helpers: one slab over all rows, op(B) packed once.
    let mut serial = vec![0.0f32; m * n];
    pool::with_thread_cap(1, || gemm_acc(form, &mut serial, m, n, &a, &b, k));

    let mut pooled = vec![0.0f32; m * n];
    gemm_acc(form, &mut pooled, m, n, &a, &b, k);

    // Row-slab ownership with a fixed per-element accumulation order makes
    // the pooled result bitwise equal to the serial one, not merely close —
    // whatever the host's core count made of "pooled".
    assert_eq!(
        bits(&serial),
        bits(&pooled),
        "{form:?} {m}x{k}x{n}: pooled differs from serial"
    );
    assert_slabs_match(&serial, form, m, k, n, &a, &b);

    // A device thread runs one slab inline.
    let mut device = vec![0.0f32; m * n];
    {
        let _device = pool::enter_device();
        gemm_acc(form, &mut device, m, n, &a, &b, k);
    }
    assert_eq!(
        bits(&serial),
        bits(&device),
        "{form:?} {m}x{k}x{n}: device-thread result differs from serial"
    );

    // The tile an element is computed in does not enter its operation
    // sequence either: the two FMA tiers agree to the bit.
    if Tier::host() == Tier::Avx512 {
        let mut avx2 = vec![0.0f32; m * n];
        with_tier(Tier::Avx2, || {
            pool::with_thread_cap(1, || gemm_acc(form, &mut avx2, m, n, &a, &b, k))
        });
        assert_eq!(
            bits(&serial),
            bits(&avx2),
            "{form:?} {m}x{k}x{n}: AVX-512 tier differs from AVX2 tier"
        );
    }

    let oracle = reference::naive_f64(form, m, n, &a, &b, k);
    for (idx, (&got, &want)) in serial.iter().zip(&oracle).enumerate() {
        let tol = 1e-4 * (k as f32).sqrt().max(1.0) + 1e-5;
        assert!(
            (got - want).abs() <= tol * want.abs().max(1.0),
            "{form:?} {m}x{k}x{n} at {idx}: {got} vs f64 oracle {want}"
        );
    }
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
        // One slab, a ragged second slab, and a ragged third.
        for m in [MC - 1, MC + 1, 2 * MC + 5] {
            check_shape(form, m, 70, 90, &mut rng);
        }
    }
}

#[test]
fn accumulation_preserved_across_paths() {
    // gemm_acc adds into C; capped and uncapped runs must agree starting
    // from the same non-zero C.
    let mut rng = Rng::new(0xACC);
    let (m, k, n) = (97, 33, 49);
    let a = fill(m * k, &mut rng);
    let b = fill(k * n, &mut rng);
    let init = fill(m * n, &mut rng);

    let mut serial = init.clone();
    pool::with_thread_cap(1, || gemm_acc(Form::NN, &mut serial, m, n, &a, &b, k));
    let mut pooled = init.clone();
    gemm_acc(Form::NN, &mut pooled, m, n, &a, &b, k);
    assert_eq!(serial, pooled);
    assert_ne!(serial, init, "product must have changed C");
}

#[test]
fn pool_thread_count_is_constant_across_many_matmuls() {
    let (m, k, n) = (64, 48, 80);
    let mut rng = Rng::new(0x7007);
    let a = fill(m * k, &mut rng);
    let b = fill(k * n, &mut rng);
    let mut c = vec![0.0f32; m * n];

    gemm_acc(Form::NN, &mut c, m, n, &a, &b, k); // force pool init
    let spawned = pool::pool().threads_spawned();
    for _ in 0..1000 {
        gemm_acc(Form::NN, &mut c, m, n, &a, &b, k);
    }
    assert_eq!(
        pool::pool().threads_spawned(),
        spawned,
        "matmuls must reuse the persistent workers, not spawn threads"
    );
    assert_eq!(spawned, pool::pool().worker_count());
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

#[test]
fn elementwise_pooled_equals_one_thread() {
    // Large enough that every pass splits into several pool tasks, with a
    // ragged last task.
    let mut rng = Rng::new(0xE4E);
    let x = Tensor::randn(&[701, 301], 2.0, &mut rng);
    let dy = Tensor::randn(&[701, 301], 1.0, &mut rng);
    let run = || {
        let y = softmax_rows(&x);
        (
            gelu_forward(&x),
            gelu_backward(&dy, &x),
            softmax_backward(&dy, &y),
            y,
        )
    };
    let serial = pool::with_thread_cap(1, run);
    let pooled = run();
    assert_eq!(
        bits(serial.0.as_slice()),
        bits(pooled.0.as_slice()),
        "gelu_forward"
    );
    assert_eq!(
        bits(serial.1.as_slice()),
        bits(pooled.1.as_slice()),
        "gelu_backward"
    );
    assert_eq!(
        bits(serial.2.as_slice()),
        bits(pooled.2.as_slice()),
        "softmax_backward"
    );
    assert_eq!(
        bits(serial.3.as_slice()),
        bits(pooled.3.as_slice()),
        "softmax_rows"
    );
}
