//! Cache-blocked, packed GEMM engine (the Goto/BLIS decomposition).
//!
//! All three product forms the paper needs (`C += AB`, `C += ABᵀ`,
//! `C += AᵀB`; Section 2.4) reduce to **one** register microkernel: the
//! transposes are absorbed by the *packing* step, so the inner loop never
//! branches on layout (and the seed's per-element `if a_il == 0.0` skip in
//! the TN kernel — a mispredicted branch on dense data — is gone entirely).
//!
//! # Blocking scheme
//!
//! ```text
//! for j0 in 0..n step NC:            // B macro-column   (L3-resident)
//!   for l0 in 0..k step KC:          // contraction band
//!     pack op(B)[l0.., j0..] -> bpack  (KC×NC, NR-wide row panels)
//!     for i0 in rows step MC:        // A macro-row      (L2-resident)
//!       pack op(A)[i0.., l0..] -> apack (MC×KC, MR-wide column panels)
//!       for each NR column panel × MR row panel:
//!         microkernel: MR×NR accumulator over KC in registers
//! ```
//!
//! Tiling parameters (f32): `MR×NR = 6×16` (12 AVX2 `ymm` accumulators plus
//! operand registers — the classic Haswell SGEMM shape), `KC = 256`
//! (`apack` panel 6×256×4 B = 6 KB, streams from L1), `MC = 96`
//! (`apack` = 96 KB, L2-resident), `NC = 1024` (`bpack` = 1 MB, shared by
//! every row block of the same contraction band).
//!
//! The microkernel is written as plain auto-vectorizable Rust and
//! instantiated twice: once under `#[target_feature(enable = "avx2,fma")]`
//! (using `mul_add`, selected at runtime via CPU detection) and once
//! portable (separate multiply/add — `mul_add` without hardware FMA is a
//! libm call). Packed panels are padded with zeros to full MR/NR multiples,
//! so the kernel itself has no edge branches; the write-back clips to the
//! real tile bounds.
//!
//! # Parallelism and determinism
//!
//! Large products split their *output rows* into MC-row slabs executed on
//! the shared [`crate::pool`]: each slab re-runs the full blocked loop nest
//! on its rows (re-packing B per participant — a `P/m` fraction of the
//! arithmetic, negligible for the shapes that go parallel). Every output
//! element is computed by exactly one task in a fixed accumulation order, so
//! the pooled result is **bitwise identical** to the serial one. Packing
//! scratch lives in pool-owned thread-local buffers that persist across
//! calls (no steady-state allocation).
//!
//! On a simulated-device thread (under the mesh) the slabs run inline on
//! that thread, in order — a device is one thread; see [`crate::pool`].

use crate::pool::{self, SendPtr};
use std::cell::RefCell;

/// Microkernel rows (register-blocked rows of `C`).
pub const MR: usize = 6;
/// Microkernel columns (register-blocked columns of `C`).
pub const NR: usize = 16;
/// Rows of `op(A)` packed per macro-block (multiple of [`MR`]).
pub const MC: usize = 96;
/// Contraction band width.
pub const KC: usize = 256;
/// Columns of `op(B)` packed per macro-block (multiple of [`NR`]).
pub const NC: usize = 1024;

/// Multiply-add count below which the direct (non-packing) loops run.
const BLOCKED_THRESHOLD: usize = 32 * 32 * 32;

/// The three product forms, named by the layout of the *physical* operands:
/// `op(A)` is `[m, k]` and `op(B)` is `[k, n]` in every case.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Form {
    /// `A: [m, k]`, `B: [k, n]` — `C += A B`.
    NN,
    /// `A: [m, k]`, `B: [n, k]` — `C += A Bᵀ`.
    NT,
    /// `A: [k, m]`, `B: [k, n]` — `C += Aᵀ B`.
    TN,
}

// ---------------------------------------------------------------------------
// Microkernel
// ---------------------------------------------------------------------------

/// The generic MR×NR microkernel body. `a` holds one packed A panel
/// (`kc × MR`, column-of-rows layout), `b` one packed B panel (`kc × NR`).
/// Inlined into the `target_feature` wrappers below so the same source
/// compiles to an FMA/AVX2 kernel and a portable one.
#[inline(always)]
fn ukr_body<const FMA: bool>(kc: usize, a: &[f32], b: &[f32], acc: &mut [[f32; NR]; MR]) {
    // Accumulate into a local copy: a by-value array is trivially promoted
    // to registers, where updating through `&mut` re-stores every iteration.
    let mut t = *acc;
    for (ar, br) in a.chunks_exact(MR).zip(b.chunks_exact(NR)).take(kc) {
        for (r, row) in t.iter_mut().enumerate() {
            let av = ar[r];
            for (c, cell) in row.iter_mut().enumerate() {
                *cell = if FMA {
                    av.mul_add(br[c], *cell)
                } else {
                    av * br[c] + *cell
                };
            }
        }
    }
    *acc = t;
}

fn ukr_portable(kc: usize, a: &[f32], b: &[f32], acc: &mut [[f32; NR]; MR]) {
    ukr_body::<false>(kc, a, b, acc);
}

/// # Safety
/// Must only be called on CPUs with AVX2 and FMA (checked in [`select_ukr`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn ukr_avx2(kc: usize, a: &[f32], b: &[f32], acc: &mut [[f32; NR]; MR]) {
    ukr_body::<true>(kc, a, b, acc);
}

#[derive(Clone, Copy)]
enum Ukr {
    Portable,
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Ukr {
    #[inline]
    fn call(self, kc: usize, a: &[f32], b: &[f32], acc: &mut [[f32; NR]; MR]) {
        match self {
            Ukr::Portable => ukr_portable(kc, a, b, acc),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the Avx2 variant is only constructed after runtime
            // feature detection in `select_ukr`.
            Ukr::Avx2 => unsafe { ukr_avx2(kc, a, b, acc) },
        }
    }
}

/// Whether this CPU runs the `avx2,fma` instantiations — of the microkernel
/// above and of the `vmath` kernels. Detected once per process.
#[cfg(target_arch = "x86_64")]
pub(crate) fn fma_host() -> bool {
    static FMA_HOST: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *FMA_HOST.get_or_init(|| {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    })
}

fn select_ukr() -> (Ukr, &'static str) {
    #[cfg(target_arch = "x86_64")]
    if fma_host() {
        return (Ukr::Avx2, "avx2+fma 6x16");
    }
    (Ukr::Portable, "portable 6x16")
}

fn ukr() -> Ukr {
    static UKR: std::sync::OnceLock<(Ukr, &'static str)> = std::sync::OnceLock::new();
    UKR.get_or_init(select_ukr).0
}

/// Human-readable name of the microkernel selected for this CPU
/// (e.g. `"avx2+fma 6x16"`). Reported by `gemm-bench`.
pub fn kernel_name() -> &'static str {
    static UKR: std::sync::OnceLock<(Ukr, &'static str)> = std::sync::OnceLock::new();
    UKR.get_or_init(select_ukr).1
}

// ---------------------------------------------------------------------------
// Packing
// ---------------------------------------------------------------------------

/// Pool-owned, per-thread packing scratch, reused across calls.
struct Scratch {
    apack: Vec<f32>,
    bpack: Vec<f32>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = const {
        RefCell::new(Scratch {
            apack: Vec::new(),
            bpack: Vec::new(),
        })
    };
}

/// Packs `op(A)[rows0..rows1, l0..l0+kc]` as `div_ceil(rows, MR)` panels of
/// `kc × MR` (rows beyond `rows1` padded with zeros).
#[allow(clippy::too_many_arguments)]
fn pack_a(
    form: Form,
    dst: &mut [f32],
    a: &[f32],
    k: usize,
    m: usize,
    rows: (usize, usize),
    l0: usize,
    kc: usize,
) {
    let (r0, r1) = rows;
    let panels = (r1 - r0).div_ceil(MR);
    match form {
        // A is row-major [m, k] (NN and NT share the A layout).
        Form::NN | Form::NT => {
            for p in 0..panels {
                let panel = &mut dst[p * kc * MR..(p + 1) * kc * MR];
                for r in 0..MR {
                    let row = r0 + p * MR + r;
                    if row < r1 {
                        let src = &a[row * k + l0..row * k + l0 + kc];
                        for (l, &v) in src.iter().enumerate() {
                            panel[l * MR + r] = v;
                        }
                    } else {
                        for l in 0..kc {
                            panel[l * MR + r] = 0.0;
                        }
                    }
                }
            }
        }
        // A is row-major [k, m]; op(A) rows are physical columns.
        Form::TN => {
            for p in 0..panels {
                let panel = &mut dst[p * kc * MR..(p + 1) * kc * MR];
                let base = r0 + p * MR;
                let cols = MR.min(r1 - base);
                for l in 0..kc {
                    let src = &a[(l0 + l) * m + base..(l0 + l) * m + base + cols];
                    let out = &mut panel[l * MR..(l + 1) * MR];
                    out[..cols].copy_from_slice(src);
                    out[cols..].fill(0.0);
                }
            }
        }
    }
}

/// Packs `op(B)[l0..l0+kc, j0..j0+nc]` as `div_ceil(nc, NR)` panels of
/// `kc × NR` (columns beyond `nc` padded with zeros).
#[allow(clippy::too_many_arguments)]
fn pack_b(
    form: Form,
    dst: &mut [f32],
    b: &[f32],
    k: usize,
    n: usize,
    l0: usize,
    kc: usize,
    j0: usize,
    nc: usize,
) {
    let panels = nc.div_ceil(NR);
    match form {
        // B is row-major [k, n].
        Form::NN | Form::TN => {
            for p in 0..panels {
                let panel = &mut dst[p * kc * NR..(p + 1) * kc * NR];
                let base = j0 + p * NR;
                let cols = NR.min(j0 + nc - base);
                for l in 0..kc {
                    let src = &b[(l0 + l) * n + base..(l0 + l) * n + base + cols];
                    let out = &mut panel[l * NR..(l + 1) * NR];
                    out[..cols].copy_from_slice(src);
                    out[cols..].fill(0.0);
                }
            }
        }
        // B is row-major [n, k]; op(B) columns are physical rows.
        Form::NT => {
            for p in 0..panels {
                let panel = &mut dst[p * kc * NR..(p + 1) * kc * NR];
                for c in 0..NR {
                    let j = j0 + p * NR + c;
                    if j < j0 + nc {
                        let src = &b[j * k + l0..j * k + l0 + kc];
                        for (l, &v) in src.iter().enumerate() {
                            panel[l * NR + c] = v;
                        }
                    } else {
                        for l in 0..kc {
                            panel[l * NR + c] = 0.0;
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Blocked driver
// ---------------------------------------------------------------------------

/// Runs the full blocked loop nest over output rows `[r0, r1)`, writing into
/// `c_slab` (the `(r1-r0) × n` row-major slab of `C` starting at row `r0`).
#[allow(clippy::too_many_arguments)]
fn gemm_blocked_rows(
    form: Form,
    c_slab: &mut [f32],
    n: usize,
    a: &[f32],
    b: &[f32],
    k: usize,
    m: usize,
    r0: usize,
    r1: usize,
) {
    let kernel = ukr();
    SCRATCH.with(|s| {
        let mut s = s.borrow_mut();
        s.apack.resize(MC * KC, 0.0);
        s.bpack.resize(KC * NC, 0.0);
        let Scratch { apack, bpack } = &mut *s;
        for j0 in (0..n).step_by(NC) {
            let nc = NC.min(n - j0);
            let jpanels = nc.div_ceil(NR);
            for l0 in (0..k).step_by(KC) {
                let kc = KC.min(k - l0);
                trace::span("gemm.pack_b", || {
                    pack_b(form, bpack, b, k, n, l0, kc, j0, nc);
                });
                for i0 in (r0..r1).step_by(MC) {
                    let mc = MC.min(r1 - i0);
                    trace::span("gemm.pack_a", || {
                        pack_a(form, apack, a, k, m, (i0, i0 + mc), l0, kc);
                    });
                    trace::span("gemm.ukr", || {
                        for jp in 0..jpanels {
                            let n_eff = NR.min(nc - jp * NR);
                            let bpanel = &bpack[jp * kc * NR..(jp + 1) * kc * NR];
                            for ip in 0..mc.div_ceil(MR) {
                                let m_eff = MR.min(mc - ip * MR);
                                let apanel = &apack[ip * kc * MR..(ip + 1) * kc * MR];
                                let mut acc = [[0.0f32; NR]; MR];
                                kernel.call(kc, apanel, bpanel, &mut acc);
                                let row_base = i0 - r0 + ip * MR;
                                for (r, acc_row) in acc.iter().enumerate().take(m_eff) {
                                    let crow =
                                        &mut c_slab[(row_base + r) * n + j0 + jp * NR..][..n_eff];
                                    for (dst, &v) in crow.iter_mut().zip(acc_row.iter()) {
                                        *dst += v;
                                    }
                                }
                            }
                        }
                    });
                }
            }
        }
    });
}

// ---------------------------------------------------------------------------
// Small-product direct loops (no packing, no branches)
// ---------------------------------------------------------------------------

fn gemm_small(form: Form, c: &mut [f32], m: usize, n: usize, a: &[f32], b: &[f32], k: usize) {
    match form {
        Form::NN => {
            for i in 0..m {
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
        Form::NT => {
            for i in 0..m {
                let a_row = &a[i * k..(i + 1) * k];
                let c_row = &mut c[i * n..(i + 1) * n];
                for (j, c_ij) in c_row.iter_mut().enumerate() {
                    let b_row = &b[j * k..(j + 1) * k];
                    let mut acc = 0.0f32;
                    for (x, y) in a_row.iter().zip(b_row.iter()) {
                        acc += x * y;
                    }
                    *c_ij += acc;
                }
            }
        }
        Form::TN => {
            // C[i, j] += Σ_l A[l, i] B[l, j]; stream rows of B. Dense data:
            // no zero-skip (the seed's branch mispredicted on every element
            // and silently diverged from `gemm_flops` accounting).
            for l in 0..k {
                let b_row = &b[l * n..(l + 1) * n];
                for i in 0..m {
                    let a_li = a[l * m + i];
                    let c_row = &mut c[i * n..(i + 1) * n];
                    for (c_ij, &b_lj) in c_row.iter_mut().zip(b_row.iter()) {
                        *c_ij += a_li * b_lj;
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

/// `C += op(A) op(B)` on raw row-major slices, where `op(A): [m, k]` and
/// `op(B): [k, n]` (see [`Form`] for the physical layouts).
///
/// Small products run direct loops; large ones run the cache-blocked packed
/// engine, split over the shared compute pool by MC-row output slabs (run
/// inline, in order, on a simulated-device thread; see [`crate::pool`]).
/// Results are bitwise independent of the thread count.
pub fn gemm_acc(form: Form, c: &mut [f32], m: usize, n: usize, a: &[f32], b: &[f32], k: usize) {
    let (a_len, b_len) = match form {
        Form::NN => (m * k, k * n),
        Form::NT => (m * k, n * k),
        Form::TN => (k * m, k * n),
    };
    assert_eq!(a.len(), a_len, "A buffer length for {form:?} [m={m},k={k}]");
    assert_eq!(b.len(), b_len, "B buffer length for {form:?} [k={k},n={n}]");
    assert_eq!(c.len(), m * n, "C buffer length [m={m},n={n}]");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    if m * k * n < BLOCKED_THRESHOLD {
        gemm_small(form, c, m, n, a, b, k);
        return;
    }
    let tasks = m.div_ceil(MC);
    let cptr = SendPtr::new(c.as_mut_ptr());
    pool::parallel_for(tasks, |t| {
        let r0 = t * MC;
        let r1 = m.min(r0 + MC);
        // SAFETY: each task owns the disjoint row range [r0, r1) of C.
        let c_slab =
            unsafe { std::slice::from_raw_parts_mut(cptr.get().add(r0 * n), (r1 - r0) * n) };
        gemm_blocked_rows(form, c_slab, n, a, b, k, m, r0, r1);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matmul::reference::naive_f64;
    use crate::rng::Rng;
    use crate::{assert_close, Tensor};

    fn rand_vec(n: usize, seed: u64) -> Vec<f32> {
        Tensor::randn(&[n], 1.0, &mut Rng::new(seed)).into_vec()
    }

    fn check(form: Form, m: usize, k: usize, n: usize, seed: u64) {
        let (a_len, b_len) = match form {
            Form::NN => (m * k, k * n),
            Form::NT => (m * k, n * k),
            Form::TN => (k * m, k * n),
        };
        let a = rand_vec(a_len, seed);
        let b = rand_vec(b_len, seed + 1);
        let mut c = vec![0.0f32; m * n];
        gemm_acc(form, &mut c, m, n, &a, &b, k);
        let expect = naive_f64(form, m, n, &a, &b, k);
        let tol = 1e-4 * (k as f32).sqrt().max(1.0);
        assert_close(&c, &expect, tol, tol);
    }

    #[test]
    fn blocked_path_matches_naive_all_forms() {
        for form in [Form::NN, Form::NT, Form::TN] {
            check(form, 130, 70, 90, 42);
        }
    }

    #[test]
    fn panel_boundary_shapes() {
        // Exactly on and just off the MR/NR/MC/KC/NC boundaries.
        for form in [Form::NN, Form::NT, Form::TN] {
            for &(m, k, n) in &[
                (MR, KC, NR),
                (MR + 1, KC + 1, NR + 1),
                (MC, 64, NR * 2),
                (MC + MR - 1, KC - 1, 33),
            ] {
                check(form, m, k, n, 7 + m as u64);
            }
        }
    }

    #[test]
    fn degenerate_dims_are_noops_or_correct() {
        // k = 0 leaves C untouched.
        let mut c = vec![3.0f32; 4];
        gemm_acc(Form::NN, &mut c, 2, 2, &[], &[], 0);
        assert_eq!(c, vec![3.0; 4]);
        // m = 1 / n = 1 / k = 1 paths.
        check(Form::NN, 1, 40, 40, 1);
        check(Form::NT, 40, 40, 1, 2);
        check(Form::TN, 40, 1, 40, 3);
    }

    #[test]
    fn accumulates_into_existing_c() {
        let a = rand_vec(6 * 5, 10);
        let b = rand_vec(5 * 4, 11);
        let mut c = vec![1.0f32; 6 * 4];
        gemm_acc(Form::NN, &mut c, 6, 4, &a, &b, 5);
        let mut expect = naive_f64(Form::NN, 6, 4, &a, &b, 5);
        for v in &mut expect {
            *v += 1.0;
        }
        assert_close(&c, &expect, 1e-4, 1e-4);
    }

    #[test]
    fn kernel_name_is_reported() {
        let name = kernel_name();
        assert!(name.contains("6x16"), "got {name}");
    }
}
