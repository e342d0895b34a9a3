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
//! Tiling parameters (f32): the register tile `MR×NR` belongs to the
//! [`Tier`] — six rows by two vectors of the tier's width, so twelve
//! accumulator registers plus operand registers in every tier: `6×16` on
//! AVX2 `ymm` (the classic Haswell SGEMM shape; the portable tier shares it)
//! and `6×32` on AVX-512 `zmm`. The cache blocks are the same for all tiers:
//! `KC = 256` (an `apack` panel is 6×256×4 B = 6 KB and streams from L1),
//! `MC = 96` (`apack` = 96 KB, L2-resident), `NC = 1024` (`bpack` = 1 MB,
//! shared by every row block of the same contraction band).
//!
//! The microkernel is written once as plain auto-vectorizable Rust, generic
//! over `<const FMA, const MR, const NR>`; packing and the blocked driver are
//! generic over the same constants, so there is one driver, one packing
//! layout and one kernel body. The driver, with the kernel inlined into it,
//! is instantiated three times: under
//! `#[target_feature(enable = "avx512f,avx2,fma")]` at `6×32`, under
//! `#[target_feature(enable = "avx2,fma")]` at `6×16` (both using `mul_add`)
//! and portable at `6×16` (separate multiply/add — `mul_add` without hardware
//! FMA is a libm call) — the whole slab loop rather than the kernel alone, so
//! that the `c += acc` write-back runs at the tier's vector width too
//! (4–18 % of a one-thread product on the workloads' blocks, most at
//! `k = 32`, against a baseline-SSE2 write-back around a per-tier kernel).
//! [`Tier::host`] detects the CPU once per process and the widest tier it
//! supports runs. No intrinsics: which tile auto-vectorizes is a property of
//! the compiler, not of the source. EXPERIMENTS.md records the tile × `KC`
//! sweep behind `6×32` (under rustc 1.95 the `zmm` tiles 8×32, 12×32, 12×16,
//! 16×16 and 24×16 compile to correct *scalar* code, and so does a kernel
//! that writes `C` back itself), and `gemm-bench --smoke` fails if the
//! AVX-512 tier is ever slower than the AVX2 one. Packed panels are padded
//! with zeros to full MR/NR multiples, so the kernel itself has no edge
//! branches; the write-back clips to the real tile bounds.
//!
//! # Parallelism and determinism
//!
//! A caller with pool helpers splits the *output rows* into MC-row slabs
//! executed on the shared [`crate::pool`]: each slab re-runs the full blocked
//! loop nest on its rows, re-packing `op(B)` for itself (one element copied
//! per `MC` multiply-adds). A caller with no helpers — a simulated-device
//! thread under the mesh (a device is one thread; see [`crate::pool`]), a
//! thread cap of one, a one-core host — is the only participant, so it runs
//! one slab over all rows and packs each `op(B)` band once; the `i0` loop
//! walks the same MC blocks.
//!
//! Every output element is computed by exactly one task in a fixed order:
//! per contraction band, `acc = fma(a_l, b_l, acc)` for `l` ascending from
//! zero, then `c += acc`. Neither the slab a row falls in nor the tile it is
//! computed in enters that sequence, so the result is **bitwise identical**
//! across task counts, thread counts and the two FMA tiers (the portable tier
//! rounds the multiply and differs, as it always has). Packing scratch lives
//! in pool-owned thread-local buffers that persist across calls (no
//! steady-state allocation).

use crate::pool::{self, SendPtr};
use std::cell::{Cell, RefCell};

/// Rows of `op(A)` packed per macro-block (a multiple of every tier's `MR`).
pub const MC: usize = 96;
/// Contraction band width.
pub const KC: usize = 256;
/// Columns of `op(B)` packed per macro-block (a multiple of every tier's
/// `NR`).
pub const NC: usize = 1024;

/// Multiply-add count below which the direct (non-packing) loops run.
pub const BLOCKED_THRESHOLD: usize = 32 * 32 * 32;

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
// Instruction-set tier
// ---------------------------------------------------------------------------

/// The instruction-set tiers the kernels of this crate are instantiated for,
/// narrowest first. The one CPU detection of the crate: the GEMM microkernel
/// runs at [`tier`], the `vmath` kernels at `min(host, Avx2)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// Baseline target features, separate multiply and add.
    Portable,
    /// `avx2,fma`: 8-lane `ymm` vectors.
    Avx2,
    /// `avx512f,avx2,fma`: 16-lane `zmm` vectors.
    Avx512,
}

impl Tier {
    /// Every tier, narrowest first.
    pub const ALL: [Tier; 3] = [Tier::Portable, Tier::Avx2, Tier::Avx512];

    /// The widest tier this CPU runs. Detected once per process.
    pub fn host() -> Tier {
        static HOST: std::sync::OnceLock<Tier> = std::sync::OnceLock::new();
        *HOST.get_or_init(|| {
            #[cfg(target_arch = "x86_64")]
            {
                use std::arch::is_x86_feature_detected as has;
                if has!("avx2") && has!("fma") {
                    return if has!("avx512f") {
                        Tier::Avx512
                    } else {
                        Tier::Avx2
                    };
                }
            }
            Tier::Portable
        })
    }

    /// The GEMM register tile `(MR, NR)` of this tier (what `run_rows`
    /// instantiates the driver at).
    pub const fn tile(self) -> (usize, usize) {
        match self {
            Tier::Portable | Tier::Avx2 => (6, 16),
            Tier::Avx512 => (6, 32),
        }
    }
}

/// Instruction set and GEMM tile, e.g. `avx512f+fma 6x32`.
impl std::fmt::Display for Tier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let isa = match self {
            Tier::Portable => "portable",
            Tier::Avx2 => "avx2+fma",
            Tier::Avx512 => "avx512f+fma",
        };
        let (mr, nr) = self.tile();
        write!(f, "{isa} {mr}x{nr}")
    }
}

thread_local! {
    /// Per-thread ceiling on the GEMM tier (see [`with_tier`]).
    static TIER_CAP: Cell<Tier> = const { Cell::new(Tier::Avx512) };
}

/// The tier products issued from this thread run at: the host's, unless
/// [`with_tier`] lowered it.
pub fn tier() -> Tier {
    Tier::host().min(TIER_CAP.with(|c| c.get()))
}

/// Runs products issued from this thread while `f` runs at `tier` or the
/// host's tier, whichever is narrower — lowering only, so a tier the CPU
/// lacks is never selected. For tests and `gemm-bench`, which compare tiers
/// on one host.
pub fn with_tier<T>(tier: Tier, f: impl FnOnce() -> T) -> T {
    /// Restores the previous ceiling on drop, so a panic in `f` does too.
    struct CapGuard(Tier);
    impl Drop for CapGuard {
        fn drop(&mut self) {
            TIER_CAP.with(|c| c.set(self.0));
        }
    }
    let _restore = CapGuard(TIER_CAP.with(|c| c.replace(tier)));
    f()
}

/// Name of the microkernel products issued from this thread run on: tier
/// and tile (e.g. `"avx2+fma 6x16"`). Reported by `gemm-bench`.
pub fn kernel_name() -> String {
    tier().to_string()
}

// ---------------------------------------------------------------------------
// Microkernel
// ---------------------------------------------------------------------------

/// The generic MR×NR microkernel body. `a` holds one packed A panel
/// (`kc × MR`, column-of-rows layout), `b` one packed B panel (`kc × NR`).
/// Inlined, with the driver around it, into the `target_feature` wrappers
/// below so the same source compiles to an AVX-512 kernel, an FMA/AVX2 kernel
/// and a portable one.
#[inline(always)]
fn ukr_body<const FMA: bool, const MR: usize, const NR: usize>(
    kc: usize,
    a: &[f32],
    b: &[f32],
    acc: &mut [[f32; NR]; MR],
) {
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

/// Packs `kc` operand rows — `row(0..kc)`, all of one length — as
/// `div_ceil(len, W)` panels of `kc × W`, the last zero-padded to `W`. Reads
/// each row once, front to back; a full strip is a fixed-size copy (inline
/// moves, where a slice copy of six floats is a `memcpy` call).
#[inline(always)]
fn pack_strips<'a, const W: usize>(dst: &mut [f32], kc: usize, row: impl Fn(usize) -> &'a [f32]) {
    for l in 0..kc {
        for (p, src) in row(l).chunks(W).enumerate() {
            let out = &mut dst[(p * kc + l) * W..][..W];
            match <&[f32; W]>::try_from(src) {
                Ok(full) => out.copy_from_slice(full),
                Err(_) => {
                    out[..src.len()].copy_from_slice(src);
                    out[src.len()..].fill(0.0);
                }
            }
        }
    }
}

/// Writes the `kc × W` transpose of `W` source rows of `kc` elements into
/// `panel`; `row(i)` is `None` past the operand's edge and packs as zeros.
/// Walks the panel in write order, reading the `W` rows side by side, so the
/// stores are sequential and every load stream is too (scattering a row at a
/// time instead touches a new cache line on every third store).
#[inline(always)]
fn transpose_into<'a, const W: usize>(
    panel: &mut [f32],
    kc: usize,
    row: impl Fn(usize) -> Option<&'a [f32]>,
) {
    static ZEROS: [f32; KC] = [0.0; KC];
    let rows: [&[f32]; W] = std::array::from_fn(|i| row(i).unwrap_or(&ZEROS[..kc]));
    for (l, out) in panel.chunks_exact_mut(W).enumerate() {
        for (o, r) in out.iter_mut().zip(&rows) {
            *o = r[l];
        }
    }
}

/// Packs `op(A)[rows0..rows1, l0..l0+kc]` as `div_ceil(rows, MR)` panels of
/// `kc × MR` (rows beyond `rows1` padded with zeros).
#[allow(clippy::too_many_arguments)]
fn pack_a<const MR: usize>(
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
        // A is row-major [m, k] (NN and NT share the A layout): a panel is
        // the transpose of an MR × kc block.
        Form::NN | Form::NT => {
            for p in 0..panels {
                let panel = &mut dst[p * kc * MR..(p + 1) * kc * MR];
                let base = r0 + p * MR;
                transpose_into::<MR>(panel, kc, |r| {
                    (base + r < r1).then(|| &a[(base + r) * k + l0..][..kc])
                });
            }
        }
        // A is row-major [k, m]; op(A) rows are physical columns.
        Form::TN => pack_strips::<MR>(dst, kc, |l| &a[(l0 + l) * m + r0..][..r1 - r0]),
    }
}

/// Packs `op(B)[l0..l0+kc, j0..j0+nc]` as `div_ceil(nc, NR)` panels of
/// `kc × NR` (columns beyond `nc` padded with zeros).
#[allow(clippy::too_many_arguments)]
fn pack_b<const NR: usize>(
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
        Form::NN | Form::TN => pack_strips::<NR>(dst, kc, |l| &b[(l0 + l) * n + j0..][..nc]),
        // B is row-major [n, k]; op(B) columns are physical rows: a panel is
        // the transpose of an NR × kc block.
        Form::NT => {
            for p in 0..panels {
                let panel = &mut dst[p * kc * NR..(p + 1) * kc * NR];
                let base = j0 + p * NR;
                transpose_into::<NR>(panel, kc, |c| {
                    (base + c < j0 + nc).then(|| &b[(base + c) * k + l0..][..kc])
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Blocked driver
// ---------------------------------------------------------------------------

/// The operands of one product, as every row slab of it sees them.
#[derive(Clone, Copy)]
struct Product<'a> {
    form: Form,
    a: &'a [f32],
    b: &'a [f32],
    m: usize,
    n: usize,
    k: usize,
}

/// Runs the full blocked loop nest over output rows `[r0, r1)` with the
/// `MR×NR` microkernel, writing into `c_slab` (the `(r1-r0) × n` row-major
/// slab of `C` starting at row `r0`). Inlined whole into the per-tier
/// `target_feature` wrappers below — packing, microkernel and write-back
/// compile at the tier's vector width — so it holds no closure: a closure's
/// body is a function of its own and would keep the baseline features.
#[inline(always)]
fn gemm_blocked_rows<const FMA: bool, const MR: usize, const NR: usize>(
    p: Product,
    scratch: &mut Scratch,
    c_slab: &mut [f32],
    r0: usize,
    r1: usize,
) {
    let Product {
        form,
        a,
        b,
        m,
        n,
        k,
    } = p;
    let Scratch { apack, bpack } = scratch;
    for j0 in (0..n).step_by(NC) {
        let nc = NC.min(n - j0);
        let jpanels = nc.div_ceil(NR);
        for l0 in (0..k).step_by(KC) {
            let kc = KC.min(k - l0);
            {
                let _span = trace::span_guard("gemm.pack_b");
                pack_b::<NR>(form, bpack, b, k, n, l0, kc, j0, nc);
            }
            for i0 in (r0..r1).step_by(MC) {
                let mc = MC.min(r1 - i0);
                {
                    let _span = trace::span_guard("gemm.pack_a");
                    pack_a::<MR>(form, apack, a, k, m, (i0, i0 + mc), l0, kc);
                }
                let _span = trace::span_guard("gemm.ukr");
                for jp in 0..jpanels {
                    let n_eff = NR.min(nc - jp * NR);
                    let bpanel = &bpack[jp * kc * NR..(jp + 1) * kc * NR];
                    for ip in 0..mc.div_ceil(MR) {
                        let m_eff = MR.min(mc - ip * MR);
                        let apanel = &apack[ip * kc * MR..(ip + 1) * kc * MR];
                        let mut acc = [[0.0f32; NR]; MR];
                        ukr_body::<FMA, MR, NR>(kc, apanel, bpanel, &mut acc);
                        let row_base = i0 - r0 + ip * MR;
                        for (r, acc_row) in acc.iter().enumerate().take(m_eff) {
                            let crow = &mut c_slab[(row_base + r) * n + j0 + jp * NR..][..n_eff];
                            for (dst, &v) in crow.iter_mut().zip(acc_row.iter()) {
                                *dst += v;
                            }
                        }
                    }
                }
            }
        }
    }
}

/// # Safety
/// Must only be called on CPUs with AVX2 and FMA ([`Tier::Avx2`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn rows_avx2(p: Product, s: &mut Scratch, c_slab: &mut [f32], r0: usize, r1: usize) {
    gemm_blocked_rows::<true, 6, 16>(p, s, c_slab, r0, r1);
}

/// # Safety
/// Must only be called on CPUs with AVX-512F, AVX2 and FMA
/// ([`Tier::Avx512`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
unsafe fn rows_avx512(p: Product, s: &mut Scratch, c_slab: &mut [f32], r0: usize, r1: usize) {
    gemm_blocked_rows::<true, 6, 32>(p, s, c_slab, r0, r1);
}

/// [`gemm_blocked_rows`] with `tier`'s tile and target features, on this
/// thread's packing scratch. `tier` comes from [`tier`], which never exceeds
/// [`Tier::host`].
fn run_rows(tier: Tier, p: Product, c_slab: &mut [f32], r0: usize, r1: usize) {
    SCRATCH.with(|s| {
        let s = &mut *s.borrow_mut();
        s.apack.resize(MC * KC, 0.0);
        s.bpack.resize(KC * NC, 0.0);
        match tier {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Tier::host` detected this tier's features on this CPU.
            Tier::Avx512 => unsafe { rows_avx512(p, s, c_slab, r0, r1) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above.
            Tier::Avx2 => unsafe { rows_avx2(p, s, c_slab, r0, r1) },
            _ => gemm_blocked_rows::<false, 6, 16>(p, s, c_slab, r0, r1),
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
/// engine — split over the shared compute pool by MC-row output slabs when
/// the caller has helpers, as one slab on the calling thread when it has none
/// (a simulated-device thread; see [`crate::pool`]). Results are bitwise
/// independent of the thread count and of the slab count.
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
    // Read on the calling thread: pool workers run its slabs at its tier.
    let tier = tier();
    let p = Product {
        form,
        a,
        b,
        m,
        n,
        k,
    };
    // Every participant packs op(B) once per slab it runs, so a caller on its
    // own takes all rows as one slab.
    let slab_rows = if pool::helpers() == 0 { m } else { MC };
    let cptr = SendPtr::new(c.as_mut_ptr());
    pool::parallel_row_blocks(m, slab_rows, |r0, r1| {
        // SAFETY: each task owns the disjoint row range [r0, r1) of C.
        let c_slab =
            unsafe { std::slice::from_raw_parts_mut(cptr.get().add(r0 * n), (r1 - r0) * n) };
        run_rows(tier, p, c_slab, r0, r1);
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
        // Exactly on and just off the MR/NR/MC/KC/NC boundaries of the tier
        // that runs.
        let (mr, nr) = tier().tile();
        for form in [Form::NN, Form::NT, Form::TN] {
            for &(m, k, n) in &[
                (mr, KC, nr),
                (mr + 1, KC + 1, nr + 1),
                (MC, 64, nr * 2),
                (MC + mr - 1, KC - 1, 2 * nr + 1),
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
        for t in Tier::ALL {
            let (mr, nr) = t.tile();
            assert_eq!((MC % mr, NC % nr), (0, 0), "{t}: tile must divide MC×NC");
            let name = with_tier(t, kernel_name);
            let (mr, nr) = tier().min(t).tile();
            assert!(name.ends_with(&format!(" {mr}x{nr}")), "got {name}");
        }
        assert_eq!(kernel_name(), Tier::host().to_string());
    }

    #[test]
    fn with_tier_only_lowers_and_restores() {
        let host = Tier::host();
        assert_eq!(tier(), host);
        for t in Tier::ALL {
            with_tier(t, || {
                assert_eq!(tier(), t.min(host));
                // A wider request inside a narrower scope still replaces the
                // ceiling, but never exceeds the host.
                with_tier(Tier::Avx512, || assert_eq!(tier(), host));
                assert_eq!(tier(), t.min(host));
            });
        }
        let r = std::panic::catch_unwind(|| with_tier(Tier::Portable, || panic!("boom")));
        assert!(r.is_err());
        assert_eq!(tier(), host, "ceiling must not leak past a panic");
    }
}
