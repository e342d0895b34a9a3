//! Wire-precision layer for the collectives: payloads can travel as
//! half-width bf16 with pack-on-send / unpack-on-recv at the fabric
//! boundary.
//!
//! The β term of the paper's Eqs. 4–5 is paid per byte on the wire, and
//! every payload here is f32 — so compressing the wire format to 16 bits
//! halves the bandwidth term of every collective at the cost of a rounding
//! error per hop (and a pack/unpack γ term the cost model prices; see
//! `perf::CostModel::meta_time`). Two wire dtypes:
//!
//! * [`WireDtype::F32`] — the default: no conversion, bitwise-identical to
//!   the legacy path. Every existing test and golden trace holds unchanged.
//! * [`WireDtype::Bf16`] — f32 truncated to its top 16 bits with
//!   round-to-nearest-even: full f32 exponent range, 7 mantissa bits,
//!   relative error ≤ 2⁻⁸ per quantization.
//!
//! On the in-process fabric β is a memcpy, and no collective measures
//! faster compressed (EXPERIMENTS.md, "Wire compression, decided by
//! measurement"), so the bf16 path here is the reference semantics the
//! cost model and the dry run price, not a speed-up.
//!
//! # Wire format
//!
//! The fabric moves `Vec<f32>` buffers, so the bf16 wire packs **two**
//! values per f32 slot: element `2i` in the low 16 bits, element `2i+1` in
//! the high 16 bits ([`packed_len`] = `⌈n/2⌉`; an odd tail leaves the high
//! half zero). The packed buffer is physically half-length, so link records,
//! wire counters, and live transfer time all genuinely halve — nothing is
//! simulated.
//!
//! # Selection
//!
//! One wire dtype per run: [`crate::CollTables::wire`] (default f32) applies
//! to every selectable collective of a group of two or more, see
//! [`crate::Communicator::plan`]. A caller that passes its own
//! [`crate::CollPlan`] to [`crate::Communicator::collective`] picks its own
//! dtype, which is what the error-feedback gradient sync does.
//!
//! # Error feedback
//!
//! Quantizing a gradient loses the rounding residual every step. The
//! standard fix (EF-SGD) carries the residual forward: with compressed
//! gradient sync, step `t` sends `c_t = Q(g_t + e_{t-1})` and keeps
//! `e_t = (g_t + e_{t-1}) − c_t` locally, so quantization error is delayed,
//! never dropped. [`ErrorFeedback`] implements exactly that transform;
//! `optimus-core` and `hybrid` apply it caller-side before their dp
//! gradient all-reduce.

/// A wire precision for collective payloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum WireDtype {
    /// Full-width f32 — the bitwise-identical legacy path.
    #[default]
    F32,
    /// bfloat16: f32's exponent, 7 mantissa bits, rel. error ≤ 2⁻⁸.
    Bf16,
}

impl WireDtype {
    /// Every wire dtype with its canonical lower-case name.
    pub const ALL: [(WireDtype, &'static str); 2] =
        [(WireDtype::F32, "f32"), (WireDtype::Bf16, "bf16")];

    /// Canonical name (`"f32"`, `"bf16"`).
    pub fn name(self) -> &'static str {
        Self::ALL[self as usize].1
    }

    /// Inverse of [`WireDtype::name`].
    pub fn from_name(name: &str) -> Option<WireDtype> {
        Self::ALL.iter().find(|(_, n)| *n == name).map(|(w, _)| *w)
    }

    /// Bytes per element on the wire.
    pub fn bytes_per_elem(self) -> usize {
        match self {
            WireDtype::F32 => 4,
            WireDtype::Bf16 => 2,
        }
    }

    /// True for the no-conversion full-width path.
    pub fn is_f32(self) -> bool {
        self == WireDtype::F32
    }

    /// Quantizes one value to this wire precision (and back to f32).
    /// Identity for [`WireDtype::F32`]; idempotent for both dtypes, so
    /// re-packing an already-quantized value at an intermediate hop is
    /// lossless.
    pub fn quantize(self, x: f32) -> f32 {
        match self {
            WireDtype::F32 => x,
            WireDtype::Bf16 => bf16_bits_to_f32(f32_to_bf16_bits(x)),
        }
    }
}

/// f32 → bf16 bits with round-to-nearest-even (ties to even). NaN maps to a
/// quiet NaN with the top mantissa bit set so it never rounds to infinity.
pub fn f32_to_bf16_bits(x: f32) -> u16 {
    let b = x.to_bits();
    if x.is_nan() {
        return ((b >> 16) as u16) | 0x0040;
    }
    let round = 0x7FFF + ((b >> 16) & 1);
    ((b.wrapping_add(round)) >> 16) as u16
}

/// bf16 bits → the exact f32 they denote (widening is lossless).
pub fn bf16_bits_to_f32(h: u16) -> f32 {
    f32::from_bits((h as u32) << 16)
}

/// Number of f32 slots a payload of `n` logical elements occupies on the
/// wire under `w`: `n` at full width, `⌈n/2⌉` at bf16.
pub fn packed_len(n: usize, w: WireDtype) -> usize {
    if w.is_f32() {
        n
    } else {
        n.div_ceil(2)
    }
}

/// Packs `data` into `out` (which must hold [`packed_len`] slots): element
/// `2i` in the low 16 bits of slot `i`, element `2i+1` in the high 16 bits,
/// an odd tail's high half zero. Values are quantized to bf16 on the way in.
pub fn pack_into(data: &[f32], out: &mut Vec<f32>) {
    for pair in data.chunks(2) {
        let lo = f32_to_bf16_bits(pair[0]) as u32;
        let hi = if pair.len() == 2 {
            f32_to_bf16_bits(pair[1]) as u32
        } else {
            0
        };
        out.push(f32::from_bits((hi << 16) | lo));
    }
}

/// Unpacks a wire buffer produced by [`pack_into`] into `n` f32 values,
/// applying `f(slot, value)` per element in order — the single walk that
/// serves both plain delivery (`|d, v| *d = v`) and reduce accumulation
/// (`|d, v| *d += v`).
pub fn unpack_with(packed: &[f32], n: usize, mut f: impl FnMut(usize, f32)) {
    debug_assert_eq!(packed.len(), packed_len(n, WireDtype::Bf16));
    for (i, slot) in packed.iter().enumerate() {
        let bits = slot.to_bits();
        f(2 * i, bf16_bits_to_f32(bits as u16));
        if 2 * i + 1 < n {
            f(2 * i + 1, bf16_bits_to_f32((bits >> 16) as u16));
        }
    }
}

// ---------------------------------------------------------------------------
// Error feedback
// ---------------------------------------------------------------------------

/// Error-feedback residual state for one sequence of compressed gradient
/// exchanges (EF-SGD / 1-bit-Adam style): [`ErrorFeedback::apply`] replaces
/// `g` with `Q(g + e)` and keeps `e ← (g + e) − Q(g + e)`, so quantization
/// error is carried into the next step instead of lost.
///
/// One instance serves a whole gradient *set*: buffers are matched to calls
/// by position ([`ErrorFeedback::begin_step`] rewinds the cursor), which is
/// deterministic because gradient visitation order is fixed. Buffers are
/// created lazily on first use.
#[derive(Debug, Default)]
pub struct ErrorFeedback {
    bufs: Vec<Vec<f32>>,
    cursor: usize,
}

impl ErrorFeedback {
    pub fn new() -> Self {
        ErrorFeedback::default()
    }

    /// Rewinds the buffer cursor; call once at the top of every step.
    pub fn begin_step(&mut self) {
        self.cursor = 0;
    }

    /// Applies the EF transform to the next gradient tensor in visitation
    /// order. A no-op at full width, which rounds nothing and so keeps no
    /// residual, so the same call sequence serves compressed and
    /// uncompressed runs.
    pub fn apply(&mut self, data: &mut [f32], w: WireDtype) {
        if w.is_f32() {
            return;
        }
        if self.cursor == self.bufs.len() {
            self.bufs.push(vec![0.0; data.len()]);
        }
        let residual = &mut self.bufs[self.cursor];
        assert_eq!(
            residual.len(),
            data.len(),
            "error-feedback buffer {} does not match its gradient (visitation order changed?)",
            self.cursor
        );
        self.cursor += 1;
        for (x, e) in data.iter_mut().zip(residual.iter_mut()) {
            let v = *x + *e;
            let q = w.quantize(v);
            *e = v - q;
            *x = q;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip() {
        for (w, name) in WireDtype::ALL {
            assert_eq!(w.name(), name);
            assert_eq!(WireDtype::from_name(name), Some(w));
        }
        assert_eq!(WireDtype::from_name("fp8"), None);
    }

    #[test]
    fn packed_len_halves_and_rounds_up() {
        assert_eq!(packed_len(0, WireDtype::Bf16), 0);
        assert_eq!(packed_len(1, WireDtype::Bf16), 1);
        assert_eq!(packed_len(7, WireDtype::Bf16), 4);
        assert_eq!(packed_len(8, WireDtype::Bf16), 4);
        assert_eq!(packed_len(7, WireDtype::F32), 7);
    }

    #[test]
    fn bf16_rounds_to_nearest_even() {
        // 1.0 + 2^-8 is exactly halfway between bf16(1.0) and the next
        // representable value; RNE keeps the even mantissa (1.0).
        assert_eq!(WireDtype::Bf16.quantize(1.0 + 1.0 / 256.0), 1.0);
        // 1.0 + 3·2^-9 rounds up to 1.0 + 2^-7.
        let up = WireDtype::Bf16.quantize(1.0 + 3.0 / 512.0);
        assert_eq!(up, 1.0 + 1.0 / 128.0);
        // Exactly representable values survive bitwise, so quantization is
        // idempotent.
        for x in [0.0f32, -1.5, 3.0e20, 1.0e-30, f32::INFINITY] {
            let q = WireDtype::Bf16.quantize(x);
            assert_eq!(WireDtype::Bf16.quantize(q).to_bits(), q.to_bits());
        }
        assert!(WireDtype::Bf16.quantize(f32::NAN).is_nan());
    }

    #[test]
    fn bf16_relative_error_is_bounded() {
        let mut rng = tensor::Rng::new(0xBF16);
        for _ in 0..10_000 {
            let x = rng.normal() * 10f32.powi((rng.below(60) as i32) - 30);
            let q = WireDtype::Bf16.quantize(x);
            assert!((q - x).abs() <= x.abs() / 256.0 + 1e-40, "x={x:e} q={q:e}");
        }
    }

    #[test]
    fn pack_unpack_roundtrips_quantized_values() {
        let w = WireDtype::Bf16;
        for n in [0usize, 1, 2, 7, 1023] {
            let mut rng = tensor::Rng::new(n as u64 + 9);
            let data: Vec<f32> = (0..n).map(|_| w.quantize(rng.normal())).collect();
            let mut packed = Vec::with_capacity(packed_len(n, w));
            pack_into(&data, &mut packed);
            assert_eq!(packed.len(), packed_len(n, w));
            let mut out = vec![0.0f32; n];
            unpack_with(&packed, n, |i, v| out[i] = v);
            // Already-quantized values roundtrip bitwise.
            for (a, b) in data.iter().zip(&out) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn packing_survives_nan_shaped_slot_patterns() {
        // A bf16 infinity in the high half plus a nonzero low half forms an
        // f32-NaN bit pattern in the packed slot; moving it through Vec
        // storage must preserve the bits exactly.
        let data = [1.0f32, f32::INFINITY, f32::NAN, -0.0];
        let mut packed = Vec::new();
        pack_into(&data, &mut packed);
        let mut out = [0.0f32; 4];
        unpack_with(&packed, 4, |i, v| out[i] = v);
        assert_eq!(out[0], 1.0);
        assert_eq!(out[1], f32::INFINITY);
        assert!(out[2].is_nan());
        assert_eq!(out[3].to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn error_feedback_carries_the_residual_forward() {
        let mut ef = ErrorFeedback::new();
        let w = WireDtype::Bf16;
        // A gradient too small to survive quantization next to 1.0 on its
        // own: without EF it is lost every step; with EF the residual
        // accumulates until it crosses a representable boundary.
        let mut total_sent = 0.0f64;
        let g = 1.0f32 + 1.0 / 1024.0; // q(g) = 1.0, residual 1/1024
        for _ in 0..8 {
            ef.begin_step();
            let mut data = [g];
            ef.apply(&mut data, w);
            total_sent += data[0] as f64;
        }
        // Eight EF steps transmit (up to one trailing residual) the full
        // mass 8·g, far closer than plain quantization's 8·Q(g) = 8.0.
        assert!(
            (total_sent - 8.0 * g as f64).abs() <= 1.0 / 128.0,
            "sent {total_sent}"
        );
        assert!((total_sent - 8.0).abs() > 1.0 / 256.0, "EF had no effect");
    }

    #[test]
    fn error_feedback_is_identity_at_full_width() {
        let mut ef = ErrorFeedback::new();
        ef.begin_step();
        let mut a = [0.1f32, 0.2];
        ef.apply(&mut a, WireDtype::F32);
        assert_eq!(a, [0.1, 0.2]);
        let mut b = [0.3f32];
        ef.apply(&mut b, WireDtype::F32);
        assert_eq!(b, [0.3]);
        // Next step revisits the same shapes in the same order.
        ef.begin_step();
        ef.apply(&mut a, WireDtype::F32);
        ef.apply(&mut b, WireDtype::F32);
    }

    #[test]
    fn error_feedback_keeps_no_residual_at_full_width() {
        let mut ef = ErrorFeedback::new();
        for _ in 0..3 {
            ef.begin_step();
            ef.apply(&mut [0.1f32; 64], WireDtype::F32);
            ef.apply(&mut [0.2f32; 8], WireDtype::F32);
        }
        assert!(ef.bufs.is_empty(), "an f32 run allocated residuals");
        ef.apply(&mut [0.3f32; 8], WireDtype::Bf16);
        assert_eq!(ef.bufs.iter().map(Vec::len).collect::<Vec<_>>(), [8]);
    }
}
