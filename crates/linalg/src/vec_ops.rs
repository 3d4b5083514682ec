//! Free-standing helpers on `&[f64]` vectors.
//!
//! These cover the handful of vector operations the solvers and measurement
//! code need, with explicit NaN behaviour documented per function.

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
///
/// # Examples
///
/// ```
/// assert_eq!(xtalk_linalg::vec_ops::dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
/// ```
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Maximum absolute entry; `0.0` for an empty slice. NaN entries are
/// ignored (they compare as not-greater).
pub fn max_abs(v: &[f64]) -> f64 {
    v.iter().fold(0.0_f64, |m, x| m.max(x.abs()))
}

/// Index and value of the maximum entry; `None` for an empty slice or when
/// every entry is NaN.
///
/// # Examples
///
/// ```
/// let (i, v) = xtalk_linalg::vec_ops::argmax(&[1.0, 5.0, 3.0]).unwrap();
/// assert_eq!((i, v), (1, 5.0));
/// ```
pub fn argmax(v: &[f64]) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &x) in v.iter().enumerate() {
        if x.is_nan() {
            continue;
        }
        match best {
            Some((_, bv)) if bv >= x => {}
            _ => best = Some((i, x)),
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_of_orthogonal_vectors_is_zero() {
        assert_eq!(dot(&[1.0, 0.0], &[0.0, 5.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn max_abs_handles_negatives_and_empty() {
        assert_eq!(max_abs(&[-3.0, 2.0]), 3.0);
        assert_eq!(max_abs(&[]), 0.0);
    }

    #[test]
    fn argmax_skips_nan() {
        let (i, v) = argmax(&[f64::NAN, 2.0, 1.0]).unwrap();
        assert_eq!((i, v), (1, 2.0));
        assert!(argmax(&[]).is_none());
        assert!(argmax(&[f64::NAN]).is_none());
    }

    #[test]
    fn argmax_returns_first_of_ties() {
        let (i, _) = argmax(&[2.0, 2.0]).unwrap();
        assert_eq!(i, 0);
    }
}
