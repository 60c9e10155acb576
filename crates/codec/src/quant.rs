//! Scalar quantization of transform coefficients.
//!
//! Quantization is the lossy stage of the codec: coefficients are divided by
//! a step size derived from the quantization parameter (QP) with the HEVC
//! convention that the step doubles every 6 QP (`qstep = 2^((qp-4)/6)`).
//! Lower QP means finer steps, higher quality, and larger bitstreams.

/// Maximum supported quantization parameter.
pub const MAX_QP: u8 = 51;

/// `round(2^((qp-4)/6))`, at least 1, for every QP (checked against the
/// formula by `qstep_table_matches_formula`).
const QSTEP: [i32; MAX_QP as usize + 1] = [
    1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 4, 4, 4, 5, 6, 6, 7, 8, 9, 10, 11, 13, 14, 16, 18,
    20, 23, 25, 29, 32, 36, 40, 45, 51, 57, 64, 72, 81, 91, 102, 114, 128, 144, 161, 181, 203, 228,
];

/// Quantization step size for a QP, following the HEVC doubling rule,
/// clamped to at least 1 (QP ≤ 4 is effectively near-lossless).
pub fn qstep(qp: u8) -> i32 {
    assert!(qp <= MAX_QP, "qp {qp} out of range");
    QSTEP[qp as usize]
}

/// Quantizes one coefficient: symmetric round-to-nearest with step `qstep`.
#[inline]
pub fn quantize(coef: i32, qstep: i32) -> i32 {
    let sign = if coef < 0 { -1 } else { 1 };
    let mag = coef.unsigned_abs() as i64;
    let q = (2 * mag + qstep as i64) / (2 * qstep as i64);
    sign * q as i32
}

/// Whether [`quantize`] gives `coef` a nonzero level, without the division:
/// `2·|coef| ≥ qstep`. Most coefficients of a residual fall inside this dead
/// zone, `(-⌈qstep/2⌉, ⌈qstep/2⌉)`; outside it is outside it shifted to
/// start at zero, as unsigned numbers — an add and a comparison.
#[inline]
pub(crate) fn outside_dead_zone(coef: i32, qstep: i32) -> bool {
    let half = (qstep + 1) / 2;
    coef.wrapping_add(half - 1) as u32 > (2 * half - 2) as u32
}

/// Reconstructs a coefficient from its quantized level.
#[inline]
pub fn dequantize(level: i32, qstep: i32) -> i32 {
    level.saturating_mul(qstep)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qstep_doubles_every_six() {
        assert_eq!(qstep(4), 1);
        assert_eq!(qstep(10), 2);
        assert_eq!(qstep(16), 4);
        assert_eq!(qstep(22), 8);
        assert_eq!(qstep(28), 16);
        assert_eq!(qstep(34), 32);
        assert_eq!(qstep(40), 64);
    }

    #[test]
    fn qstep_table_matches_formula() {
        for qp in 0..=MAX_QP {
            let step = 2f64.powf((qp as f64 - 4.0) / 6.0);
            assert_eq!(qstep(qp), (step.round() as i32).max(1), "qp {qp}");
        }
    }

    #[test]
    fn qstep_clamped_to_one_at_low_qp() {
        for qp in 0..=4 {
            assert_eq!(qstep(qp), 1);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn qstep_rejects_out_of_range() {
        let _ = qstep(52);
    }

    #[test]
    fn quantize_step_one_is_identity() {
        for v in [-300, -1, 0, 1, 2, 255, 12345] {
            assert_eq!(dequantize(quantize(v, 1), 1), v);
        }
    }

    #[test]
    fn quantize_rounds_to_nearest() {
        // step 16: 7 -> 0, 8 -> 1 (ties round up in magnitude), 23 -> 1, 24 -> 2
        assert_eq!(quantize(7, 16), 0);
        assert_eq!(quantize(8, 16), 1);
        assert_eq!(quantize(23, 16), 1);
        assert_eq!(quantize(24, 16), 2);
        assert_eq!(quantize(-8, 16), -1);
        assert_eq!(quantize(-7, 16), 0);
    }

    /// The dead-zone test agrees with the division, for every step a QP
    /// gives, every coefficient a transform of 8-bit samples can produce,
    /// and the ends of the `i32` range.
    #[test]
    fn dead_zone_is_where_quantize_gives_zero() {
        for qp in 0..=MAX_QP {
            let step = qstep(qp);
            let wide = [i32::MAX, i32::MIN + 1, i32::MIN, 1 << 30, -(1 << 30)];
            for v in (-(1 << 12)..=1 << 12).chain(wide) {
                let zero = 2 * (v as i64).abs() < step as i64;
                assert_eq!(outside_dead_zone(v, step), !zero, "{v} / {step}");
                if v != i32::MIN {
                    assert_eq!(quantize(v, step) == 0, zero, "{v} / {step}");
                }
            }
        }
    }

    #[test]
    fn reconstruction_error_bounded_by_half_step() {
        for qp in [10u8, 22, 28, 34] {
            let s = qstep(qp);
            for v in -1000..=1000 {
                let r = dequantize(quantize(v, s), s);
                assert!(
                    (v - r).abs() <= s / 2 + 1,
                    "qp {qp}: value {v} reconstructed as {r}"
                );
            }
        }
    }
}
