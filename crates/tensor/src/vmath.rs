//! Vectorized transcendentals: the one `exp` and the one `tanh` of the
//! training step, and the slice kernels built on them (GELU forward and
//! backward, row softmax, the two halves of the vocabulary-parallel
//! cross-entropy).
//!
//! Written the way [`crate::gemm`] writes its microkernel: every kernel is a
//! plain-Rust `#[inline(always)]` body generic over `const FMA: bool`,
//! instantiated once under `#[target_feature(enable = "avx2,fma")]` (where
//! `mul_add` is one instruction and the loops auto-vectorize eight lanes
//! wide) and once portable (separate multiply and add — `mul_add` without
//! hardware FMA is a libm call). The crate's one CPU detection
//! (`gemm::Tier::host`) picks between the two once per process: the FMA
//! instantiation on the `Avx2` tier and above. There is no `avx512f`
//! instantiation — it was measured and is mixed (GELU faster, softmax and
//! cross-entropy slower; DESIGN.md §Compute engine). No intrinsics, no libm.
//!
//! # Determinism
//!
//! A lane function is branch-free straight-line IEEE arithmetic (compares
//! feed selects), so the vector loop, its scalar tail and a one-element call
//! compile from the same body under the same target features and round
//! identically: an element's result is a pure function of its value,
//! independent of slice offset, length, chunking and thread count. Row sums
//! are accumulated left to right; only the `exp` is vectorized, not the
//! reduction. Results differ between an FMA host and a non-FMA host (by at
//! most one ulp of `exp`), exactly as GEMM's do.
//!
//! # `exp`
//!
//! Cephes `expf`: clamp to `[-104, 89]`, `n = round(x·log₂e)` by the
//! add-and-subtract-`1.5·2²³` trick (which also leaves `n` in the low
//! mantissa bits for the scaling below), Cody–Waite reduction
//! `r = x − n·ln2_hi − n·ln2_lo` with `ln2_hi = 355/512` (nine significant
//! bits, so `n·ln2_hi` is exact for `|n| ≤ 151` with or without
//! FMA), the Cephes degree-5 minimax polynomial for `(eʳ − 1 − r)/r²` on
//! `|r| ≤ ln2/2`, and `2ⁿ` applied as two exponent-field factors
//! `2^⌊n/2⌋ · 2^(n−⌊n/2⌋)` so that results run through the denormals down to
//! exactly `0.0` (`x ≤ −104`, `−∞`) and up to `+∞` (`x > 88.72`). NaN
//! propagates: both clamps keep it and every later step carries it.
//! Measured: ≤ 1 ulp from the f64-rounded value on `[−87, 88]`.
//!
//! # `tanh`
//!
//! `tanh(x) = sign(x) · (1 − 2/(e^{2|x|} + 1))` on that `exp`: odd by
//! construction, `tanh(±0) = ±0`, exactly `±1` for `|x| ≥ 9.02` (the
//! quotient falls below half an ulp of one; `exp` overflowing to `+∞` makes
//! it zero), absolute error ≤ 1.2e-7. The relative error near zero is that
//! of the cancellation — GELU needs the absolute bound only.

#[cfg(target_arch = "x86_64")]
use crate::gemm::Tier;

#[inline(always)]
fn fmadd<const FMA: bool>(a: f32, b: f32, c: f32) -> f32 {
    if FMA {
        a.mul_add(b, c)
    } else {
        a * b + c
    }
}

const EXP_LO: f32 = -104.0;
const EXP_HI: f32 = 89.0;
/// `1.5·2²³`: adding it rounds to the nearest integer (ties to even) and
/// leaves that integer in the low mantissa bits.
const ROUND_MAGIC: f32 = 12_582_912.0;
const LN2_HI: f32 = 355.0 / 512.0;
const LN2_LO: f32 = -2.121_944_4e-4;

#[inline(always)]
fn exp_lane<const FMA: bool>(x: f32) -> f32 {
    // Written as compare+select (not `f32::max`/`min`) so NaN passes through.
    let x = if x < EXP_LO { EXP_LO } else { x };
    let x = if x > EXP_HI { EXP_HI } else { x };
    let t = fmadd::<FMA>(x, std::f32::consts::LOG2_E, ROUND_MAGIC);
    let n = t - ROUND_MAGIC;
    let r = fmadd::<FMA>(n, -LN2_HI, x);
    let r = fmadd::<FMA>(n, -LN2_LO, r);
    let mut p = 1.987_569_1e-4;
    p = fmadd::<FMA>(p, r, 1.398_2e-3);
    p = fmadd::<FMA>(p, r, 8.333_452e-3);
    p = fmadd::<FMA>(p, r, 4.166_579_6e-2);
    p = fmadd::<FMA>(p, r, 1.666_666_5e-1);
    p = fmadd::<FMA>(p, r, 0.5);
    let p = fmadd::<FMA>(p, r * r, r) + 1.0;
    // n ∈ [−151, 128] does not fit one exponent field; halves do. Wrapping
    // ops: a NaN input leaves garbage here, and `p` (NaN) wins the product.
    let n = (t.to_bits() as i32).wrapping_sub(ROUND_MAGIC.to_bits() as i32);
    let half = n >> 1;
    let pow2 = |e: i32| f32::from_bits((e.wrapping_add(127) as u32) << 23);
    p * pow2(half) * pow2(n.wrapping_sub(half))
}

#[inline(always)]
fn tanh_lane<const FMA: bool>(x: f32) -> f32 {
    let e = exp_lane::<FMA>(2.0 * x.abs());
    (1.0 - 2.0 / (e + 1.0)).copysign(x)
}

/// √(2/π) and the cubic coefficient of the tanh-approximate GELU.
const GELU_C: f32 = 0.797_884_6;
const GELU_A: f32 = 0.044715;

/// The `tanh` of GELU's inner polynomial `√(2/π)·(x + 0.044715·x³)`; shared
/// so that forward and backward see the same bits.
#[inline(always)]
fn gelu_tanh<const FMA: bool>(x: f32) -> f32 {
    tanh_lane::<FMA>(GELU_C * fmadd::<FMA>(GELU_A * x * x, x, x))
}

#[inline(always)]
fn gelu_lane<const FMA: bool>(x: f32) -> f32 {
    0.5 * x * (1.0 + gelu_tanh::<FMA>(x))
}

#[inline(always)]
fn gelu_grad_lane<const FMA: bool>(x: f32) -> f32 {
    let t = gelu_tanh::<FMA>(x);
    let sech2 = fmadd::<FMA>(-t, t, 1.0);
    let du = GELU_C * fmadd::<FMA>(3.0 * GELU_A, x * x, 1.0);
    fmadd::<FMA>(0.5 * x * sech2, du, 0.5 * (1.0 + t))
}

// ---------------------------------------------------------------------------
// Slice kernels
// ---------------------------------------------------------------------------

#[inline(always)]
fn gelu_body<const FMA: bool>(x: &[f32], y: &mut [f32]) {
    for (y, &x) in y.iter_mut().zip(x) {
        *y = gelu_lane::<FMA>(x);
    }
}

#[inline(always)]
fn gelu_grad_mul_body<const FMA: bool>(x: &[f32], g: &mut [f32]) {
    for (g, &x) in g.iter_mut().zip(x) {
        *g *= gelu_grad_lane::<FMA>(x);
    }
}

#[inline(always)]
fn softmax_rows_body<const FMA: bool>(x: &[f32], cols: usize, y: &mut [f32]) {
    for (x, y) in x.chunks_exact(cols).zip(y.chunks_exact_mut(cols)) {
        let max = x.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        for (y, &x) in y.iter_mut().zip(x) {
            *y = exp_lane::<FMA>(x - max);
        }
        let mut sum = 0.0f32;
        for &e in y.iter() {
            sum += e;
        }
        let inv = 1.0 / sum;
        for y in y.iter_mut() {
            *y *= inv;
        }
    }
}

/// Elements whose `exp` is taken in one vector sweep before they join a row
/// sum in order.
const SUM_BLOCK: usize = 64;

#[inline(always)]
fn sumexp_rows_body<const FMA: bool>(x: &[f32], cols: usize, max: &[f32], out: &mut [f32]) {
    let mut e = [0.0f32; SUM_BLOCK];
    for ((x, &m), out) in x.chunks_exact(cols).zip(max).zip(out) {
        let mut sum = 0.0f32;
        for x in x.chunks(SUM_BLOCK) {
            let e = &mut e[..x.len()];
            for (e, &x) in e.iter_mut().zip(x) {
                *e = exp_lane::<FMA>(x - m);
            }
            for &e in e.iter() {
                sum += e;
            }
        }
        *out = sum;
    }
}

#[inline(always)]
fn softmax_from_parts_body<const FMA: bool>(
    x: &[f32],
    cols: usize,
    max: &[f32],
    sumexp: &[f32],
    scale: f32,
    y: &mut [f32],
) {
    let rows = x.chunks_exact(cols).zip(y.chunks_exact_mut(cols));
    for ((x, y), (&m, &s)) in rows.zip(max.iter().zip(sumexp)) {
        let inv = 1.0 / s;
        for (y, &x) in y.iter_mut().zip(x) {
            *y = exp_lane::<FMA>(x - m) * inv * scale;
        }
    }
}

/// Stamps out the two instantiations of `$body` and the entry point that
/// picks one by the host's [`Tier`].
macro_rules! instantiate {
    ($(#[$doc:meta])* $name:ident, $portable:ident, $avx2:ident =
        $body:ident($($arg:ident: $ty:ty),*)) => {
        fn $portable($($arg: $ty),*) {
            $body::<false>($($arg),*)
        }

        /// # Safety
        /// Must only be called on CPUs with AVX2 and FMA (`Tier::Avx2`).
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2,fma")]
        unsafe fn $avx2($($arg: $ty),*) {
            $body::<true>($($arg),*)
        }

        $(#[$doc])*
        pub(crate) fn $name($($arg: $ty),*) {
            #[cfg(target_arch = "x86_64")]
            if Tier::host() >= Tier::Avx2 {
                // SAFETY: `Tier::host` detected AVX2 and FMA on this CPU.
                return unsafe { $avx2($($arg),*) };
            }
            $portable($($arg),*)
        }
    };
}

instantiate! {
    /// `y[i] = gelu(x[i])` (tanh approximation).
    gelu, gelu_portable, gelu_avx2 = gelu_body(x: &[f32], y: &mut [f32])
}
instantiate! {
    /// `g[i] *= gelu'(x[i])`.
    gelu_grad_mul, gelu_grad_mul_portable, gelu_grad_mul_avx2 =
        gelu_grad_mul_body(x: &[f32], g: &mut [f32])
}
instantiate! {
    /// Stable softmax of every `cols`-long row of `x` into `y`.
    softmax_rows, softmax_rows_portable, softmax_rows_avx2 =
        softmax_rows_body(x: &[f32], cols: usize, y: &mut [f32])
}
instantiate! {
    /// `out[r] = Σ_j exp(x[r][j] − max[r])`, summed left to right.
    sumexp_rows, sumexp_rows_portable, sumexp_rows_avx2 =
        sumexp_rows_body(x: &[f32], cols: usize, max: &[f32], out: &mut [f32])
}
instantiate! {
    /// `y[r][j] = exp(x[r][j] − max[r]) · (1/sumexp[r]) · scale`: the softmax
    /// whose row maximum and denominator were reduced elsewhere.
    softmax_from_parts, softmax_from_parts_portable, softmax_from_parts_avx2 =
        softmax_from_parts_body(
            x: &[f32], cols: usize, max: &[f32], sumexp: &[f32], scale: f32, y: &mut [f32]
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    type Kernel = fn(&[f32], &mut [f32]);

    /// `f(x)` through a slice kernel's one-element case.
    fn one(kernel: Kernel, x: f32) -> f32 {
        let mut y = [0.0];
        kernel(&[x], &mut y);
        y[0]
    }

    fn exp_kernel<const FMA: bool>(x: &[f32], y: &mut [f32]) {
        for (y, &x) in y.iter_mut().zip(x) {
            *y = exp_lane::<FMA>(x);
        }
    }

    fn tanh_kernel<const FMA: bool>(x: &[f32], y: &mut [f32]) {
        for (y, &x) in y.iter_mut().zip(x) {
            *y = tanh_lane::<FMA>(x);
        }
    }

    /// Both instantiations of the scalar functions. `mul_add` rounds the
    /// same with or without the hardware instruction, so the FMA lane called
    /// from a test gives the AVX2 kernels' bits on any host.
    const EXPS: [(&str, Kernel); 2] = [
        ("fma", exp_kernel::<true>),
        ("portable", exp_kernel::<false>),
    ];
    const TANHS: [(&str, Kernel); 2] = [
        ("fma", tanh_kernel::<true>),
        ("portable", tanh_kernel::<false>),
    ];

    fn ulps(a: f32, b: f32) -> u32 {
        assert!(a.is_finite() && b.is_finite() && a.signum() == b.signum());
        a.to_bits().abs_diff(b.to_bits())
    }

    /// A dense sweep of `[lo, hi]`: relative step 3e-6, absolute at least 1e-6.
    fn sweep(lo: f32, hi: f32) -> Vec<f32> {
        let mut xs = Vec::new();
        let mut x = lo;
        while x <= hi {
            xs.push(x);
            x += (x.abs() * 3e-6).max(1e-6);
        }
        xs.push(hi);
        xs
    }

    #[test]
    fn exp_within_two_ulp_of_f64() {
        let xs = sweep(-87.0, 88.0);
        for (name, kernel) in EXPS {
            let mut ys = vec![0.0; xs.len()];
            kernel(&xs, &mut ys);
            for (&x, &y) in xs.iter().zip(&ys) {
                let want = (x as f64).exp() as f32;
                assert!(ulps(y, want) <= 2, "{name}: exp({x}) = {y}, want {want}");
            }
        }
    }

    #[test]
    fn exp_special_values() {
        for (name, kernel) in EXPS {
            let exp = |x| one(kernel, x);
            for x in [-104.0, -104.5, -200.0, -1e30, f32::MIN, f32::NEG_INFINITY] {
                assert_eq!(exp(x).to_bits(), 0, "{name}: exp({x}) must be +0.0");
            }
            for x in [88.73, 89.0, 100.0, 1e30, f32::MAX, f32::INFINITY] {
                assert_eq!(exp(x), f32::INFINITY, "{name}: exp({x})");
            }
            assert!(exp(f32::NAN).is_nan(), "{name}");
            assert!(exp(-f32::NAN).is_nan(), "{name}");
            for x in [0.0, -0.0, 1e-40, -1e-40, f32::MIN_POSITIVE] {
                assert_eq!(exp(x), 1.0, "{name}: exp({x})");
            }
            assert!(ulps(exp(88.0), 88f64.exp() as f32) <= 2, "{name}");
            assert!(ulps(exp(-88.0), (-88f64).exp() as f32) <= 2, "{name}");
            // The denormal tail is monotone down to zero.
            let tail: Vec<f32> = (0..=170).map(|i| exp(-87.0 - 0.1 * i as f32)).collect();
            assert!(tail.windows(2).all(|w| w[0] >= w[1]), "{name}");
            assert!(exp(-103.0) > 0.0, "{name}");
        }
    }

    #[test]
    fn tanh_contract() {
        let mut xs = sweep(-12.0, 12.0);
        xs.extend([1e-40, f32::MIN_POSITIVE, 1e-30, 20.0, 44.0, 45.0, 1e30]);
        for (name, kernel) in TANHS {
            let mut ys = vec![0.0; xs.len()];
            kernel(&xs, &mut ys);
            for (&x, &y) in xs.iter().zip(&ys) {
                let want = (x as f64).tanh();
                assert!(
                    (y as f64 - want).abs() <= 2e-7,
                    "{name}: tanh({x}) = {y}, want {want}"
                );
                assert_eq!(
                    one(kernel, -x).to_bits(),
                    (-y).to_bits(),
                    "{name}: odd at {x}"
                );
                if x.abs() >= 9.02 {
                    assert_eq!(y, 1f32.copysign(x), "{name}: saturation at {x}");
                }
            }
            let tanh = |x| one(kernel, x);
            assert_eq!(tanh(0.0).to_bits(), 0f32.to_bits(), "{name}");
            assert_eq!(tanh(-0.0).to_bits(), (-0f32).to_bits(), "{name}");
            assert_eq!(tanh(f32::INFINITY), 1.0, "{name}");
            assert_eq!(tanh(f32::NEG_INFINITY), -1.0, "{name}");
            assert!(tanh(f32::NAN).is_nan(), "{name}");
        }
    }

    /// The portable-versus-AVX2 clause, on the instantiations themselves: no
    /// switch stands between a test and the portable one. `exp` agrees to one
    /// ulp of its result; what is built on it by subtraction (`tanh` near
    /// zero, `gelu'` near its root) to two ulps of `max(1, |x|)`.
    #[test]
    fn portable_and_fma_instantiations_agree() {
        let xs = sweep(-87.0, 88.0);
        let n = xs.len();
        let (mut a, mut b) = (vec![0.0; n], vec![0.0; n]);
        exp_kernel::<false>(&xs, &mut a);
        exp_kernel::<true>(&xs, &mut b);
        for ((&x, &a), &b) in xs.iter().zip(&a).zip(&b) {
            assert!(ulps(a, b) <= 1, "exp({x}): portable {a} vs fma {b}");
        }

        let xs = sweep(-12.0, 12.0);
        let n = xs.len();
        let check = |what: &str, a: &[f32], b: &[f32]| {
            for ((&x, &a), &b) in xs.iter().zip(a).zip(b) {
                assert!(
                    (a - b).abs() <= 2.0 * f32::EPSILON * x.abs().max(1.0),
                    "{what} at {x}: portable {a} vs fma {b}"
                );
            }
        };
        gelu_portable(&xs, &mut a[..n]);
        gelu_body::<true>(&xs, &mut b[..n]);
        check("gelu", &a, &b);
        a.fill(1.0);
        b.fill(1.0);
        gelu_grad_mul_portable(&xs, &mut a[..n]);
        gelu_grad_mul_body::<true>(&xs, &mut b[..n]);
        check("gelu_grad", &a, &b);
        // Rows that span the sweep; probabilities are at most one.
        let cols = 40;
        let len = n / cols * cols;
        let xs: Vec<f32> = (0..len).map(|i| xs[i * 7919 % n]).collect();
        softmax_rows_portable(&xs, cols, &mut a[..len]);
        softmax_rows_body::<true>(&xs, cols, &mut b[..len]);
        for (&a, &b) in a[..len].iter().zip(&b[..len]) {
            assert!(
                (a - b).abs() <= 4.0 * f32::EPSILON * a,
                "softmax: {a} vs {b}"
            );
        }

        // `mul_add` rounds the same with or without the instruction, so the
        // compiled AVX2 kernel gives the FMA body's bits exactly.
        #[cfg(target_arch = "x86_64")]
        if Tier::host() >= Tier::Avx2 {
            let mut c = vec![0.0; len];
            // SAFETY: guarded by the host's tier.
            unsafe { softmax_rows_avx2(&xs, cols, &mut c) };
            assert!(b[..len]
                .iter()
                .zip(&c)
                .all(|(b, c)| b.to_bits() == c.to_bits()));
        }
    }

    #[test]
    fn sumexp_is_the_left_to_right_sum_of_the_softmax_numerators() {
        // Longer than one SUM_BLOCK, and not a multiple of it.
        let cols = 2 * SUM_BLOCK + 7;
        let x: Vec<f32> = (0..3 * cols)
            .map(|i| ((i * 37) % 101) as f32 * 0.07 - 3.0)
            .collect();
        let max: Vec<f32> = x
            .chunks(cols)
            .map(|r| r.iter().copied().fold(f32::NEG_INFINITY, f32::max))
            .collect();
        let mut sums = vec![0.0; 3];
        sumexp_rows(&x, cols, &max, &mut sums);
        let mut probs = vec![0.0; x.len()];
        softmax_from_parts(&x, cols, &max, &sums, 1.0, &mut probs);
        let mut direct = vec![0.0; x.len()];
        softmax_rows(&x, cols, &mut direct);
        // Same exp, same order of summation, `· 1.0` exact: forward Σexp and
        // the backward softmax built from it never disagree by an ulp.
        assert!(probs
            .iter()
            .zip(&direct)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }
}
