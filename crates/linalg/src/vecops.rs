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

/// `y += alpha * x` for equal-length slices.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x.iter()) {
        *yi += alpha * xi;
    }
}

/// Scales a slice in place by `alpha`.
#[inline]
pub fn scale_in_place(alpha: f64, x: &mut [f64]) {
    for xi in x.iter_mut() {
        *xi *= alpha;
    }
}

/// Normalizes `x` to unit Euclidean norm in place and returns the original
/// norm. A zero vector is left unchanged and `0.0` is returned.
#[inline]
pub fn normalize(x: &mut [f64]) -> f64 {
    let n = norm2(x);
    if n > 0.0 {
        scale_in_place(1.0 / n, x);
    }
    n
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

    #[test]
    fn axpy_accumulates() {
        let x = [1.0, 2.0];
        let mut y = [10.0, 20.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0]);
    }

    #[test]
    fn normalize_unit_norm() {
        let mut v = vec![3.0, 0.0, 4.0];
        let n = normalize(&mut v);
        assert!((n - 5.0).abs() < 1e-15);
        assert!((norm2(&v) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn normalize_zero_vector_is_noop() {
        let mut v = vec![0.0; 4];
        assert_eq!(normalize(&mut v), 0.0);
        assert!(v.iter().all(|&x| x == 0.0));
    }
}
