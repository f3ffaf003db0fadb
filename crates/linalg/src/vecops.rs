//! Vector kernels on `&[f64]` slices.
//!
//! These are the innermost loops of every decomposition in the crate, so
//! they are written as simple index loops the compiler can vectorise.

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Debug-asserts that the slices have equal length; in release builds the
/// shorter length governs (standard `zip` semantics).
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0.0;
    for (x, y) in a.iter().zip(b.iter()) {
        acc += x * y;
    }
    acc
}

/// Euclidean norm of a slice, computed with scaling to avoid overflow for
/// very large entries.
#[inline]
pub fn norm2(a: &[f64]) -> f64 {
    norm2_iter(a.iter().copied())
}

/// [`norm2`] over the values an iterator yields, so a norm of derived
/// values (such as a difference `a - b`) needs no buffer. The iterator is
/// walked twice: once for the largest magnitude, once for the scaled sum.
#[inline]
pub fn norm2_iter(values: impl Iterator<Item = f64> + Clone) -> f64 {
    let mut max = 0.0f64;
    for x in values.clone() {
        let ax = x.abs();
        if ax > max {
            max = ax;
        }
    }
    if max == 0.0 || !max.is_finite() {
        return if max.is_nan() { f64::NAN } else { max };
    }
    let mut acc = 0.0;
    for x in values {
        let s = x / max;
        acc += s * s;
    }
    max * acc.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn dot_empty_is_zero() {
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn norm2_is_pythagorean() {
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
    }

    #[test]
    fn norm2_handles_huge_entries_without_overflow() {
        let big = 1e200;
        let n = norm2(&[big, big]);
        assert!(n.is_finite());
        assert!((n - big * std::f64::consts::SQRT_2).abs() / n < 1e-14);
    }

    #[test]
    fn norm2_zero_vector() {
        assert_eq!(norm2(&[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn norm2_propagates_nan() {
        assert!(norm2(&[1.0, f64::NAN]).is_nan());
    }
}
