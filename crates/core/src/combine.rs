//! Pivot-mode factor combination strategies (the heart of M2TD).

use crate::error::CoreError;
use crate::Result;
use m2td_linalg::Matrix;

/// How the pivot-mode factor matrices of the two sub-tensor decompositions
/// are merged into one factor for the join tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PivotCombine {
    /// M2TD-AVG: entry-wise average of the two factor matrices
    /// (Algorithm 2, Figure 10(a)).
    Average,
    /// M2TD-CONCAT: left singular vectors of the column-concatenated
    /// matricization `[X₁₍ₙ₎ | X₂₍ₙ₎]` (Algorithm 3). Since the left
    /// singular vectors of a concatenation are the eigenvectors of the sum
    /// of the Gram matrices, this variant combines at the Gram level and
    /// its result *is* a genuine singular basis — fixing AVG's weakness
    /// that averages of singular vectors need not be singular vectors.
    Concat,
    /// M2TD-SELECT: per-row energy selection between the two factors
    /// (Algorithms 4–5, Figure 10(b)). The row with the larger 2-norm
    /// better represents the corresponding entity, and keeping it intact
    /// prevents the lower-energy row from acting as noise.
    Select,
}

impl PivotCombine {
    /// Name used in reports, matching the paper's table headers.
    pub fn name(&self) -> &'static str {
        match self {
            PivotCombine::Average => "M2TD-AVG",
            PivotCombine::Concat => "M2TD-CONCAT",
            PivotCombine::Select => "M2TD-SELECT",
        }
    }

    /// All three variants, in the paper's table order.
    pub fn all() -> [PivotCombine; 3] {
        [
            PivotCombine::Average,
            PivotCombine::Concat,
            PivotCombine::Select,
        ]
    }
}

/// Comparison key for row-energy selection: a NaN norm (a row poisoned by
/// degraded-mode missing cells) is treated as −∞, i.e. "no energy", so it
/// can never win the selection.
fn energy_key(norm: f64) -> f64 {
    if norm.is_nan() {
        f64::NEG_INFINITY
    } else {
        norm
    }
}

/// `ROW_SELECT` (Algorithm 5): builds the output factor row-by-row, taking
/// each row from whichever input matrix gives it the most energy (2-norm).
///
/// Tie-breaking is explicit and deterministic: row norms are compared
/// with NaN mapped to −∞, and on exact ties (including all-NaN) the row
/// comes from the earliest input. A `>=` comparison would silently let a
/// poisoned row displace a finite one, and a `max_by` would hand ties to
/// the last input.
///
/// # Errors
///
/// [`CoreError::InvalidInput`] if no matrix is given or their shapes
/// differ.
pub fn row_select(factors: &[&Matrix]) -> Result<Matrix> {
    let Some(&first) = factors.first() else {
        return Err(CoreError::InvalidInput {
            reason: "row_select needs at least one matrix".to_string(),
        });
    };
    if let Some(u) = factors.iter().find(|u| u.shape() != first.shape()) {
        return Err(CoreError::InvalidInput {
            reason: format!(
                "row_select requires equal shapes, got {:?} and {:?}",
                first.shape(),
                u.shape()
            ),
        });
    }
    let mut out = Matrix::zeros(first.rows(), first.cols());
    for i in 0..first.rows() {
        let mut best = (first, energy_key(first.row_norm(i)));
        for &u in &factors[1..] {
            let key = energy_key(u.row_norm(i));
            // Strictly greater only: the earlier input wins ties, and
            // total_cmp orders every case (incl. ±∞).
            if key.total_cmp(&best.1) == std::cmp::Ordering::Greater {
                best = (u, key);
            }
        }
        out.row_mut(i).copy_from_slice(best.0.row(i));
    }
    Ok(out)
}

/// Flips the sign of each column of `u2` whose inner product with the
/// corresponding column of `u1` is negative.
///
/// Eigenvectors are only defined up to sign, so the two sub-tensor factors
/// can disagree on orientation even when they describe the same pattern.
/// Row-wise combination (AVG's averaging, SELECT's row mixing) is only
/// meaningful after the bases are consistently oriented.
///
/// The sign convention is pinned for determinism: a column of `u2` is
/// flipped iff its inner product with the matching `u1` column is
/// *strictly negative*. A zero dot (orthogonal columns) and a NaN dot
/// carry no orientation evidence, so `u2`'s original orientation is kept
/// in both cases.
pub fn align_signs(u1: &Matrix, u2: &Matrix) -> Result<Matrix> {
    if u1.shape() != u2.shape() {
        return Err(CoreError::InvalidInput {
            reason: format!(
                "align_signs requires equal shapes, got {:?} and {:?}",
                u1.shape(),
                u2.shape()
            ),
        });
    }
    let mut out = u2.clone();
    for j in 0..u1.cols() {
        let mut dot = 0.0;
        for i in 0..u1.rows() {
            dot += u1.get(i, j) * u2.get(i, j);
        }
        // Strictly-negative test: `Less` is false for dot == 0.0 and for
        // NaN, keeping the documented "no evidence → no flip" behavior.
        if dot.partial_cmp(&0.0) == Some(std::cmp::Ordering::Less) {
            for i in 0..u1.rows() {
                out.set(i, j, -out.get(i, j));
            }
        }
    }
    Ok(out)
}

/// Combines one pivot mode's information from `S ≥ 2` sub-tensors into a
/// single `I_n × r` factor matrix.
///
/// `grams` are the mode's Gram matrices `X₍ₙ₎X₍ₙ₎ᵀ` from the sub-tensors;
/// `bases` are the corresponding `r`-leading eigenvector factors. AVG and
/// SELECT first orient every basis against the first one
/// ([`align_signs`]); AVG then takes their mean, SELECT runs
/// [`row_select`], and CONCAT diagonalizes the summed Grams.
///
/// # Errors
///
/// [`CoreError::InvalidInput`] for fewer than two inputs or mismatched
/// shapes; propagated linalg and guard errors.
pub fn combine_pivot_factor(
    kind: PivotCombine,
    grams: &[&Matrix],
    bases: &[Matrix],
    r: usize,
) -> Result<Matrix> {
    if bases.len() < 2 || grams.len() != bases.len() {
        return Err(CoreError::InvalidInput {
            reason: format!(
                "pivot combination needs at least 2 matching Grams and bases, got {} and {}",
                grams.len(),
                bases.len()
            ),
        });
    }
    let first = &bases[0];
    match kind {
        PivotCombine::Average => {
            let mut sum = first.clone();
            for u in &bases[1..] {
                sum = sum.add(&align_signs(first, u)?)?;
            }
            Ok(sum.scaled(1.0 / bases.len() as f64))
        }
        PivotCombine::Concat => {
            let mut sum = grams[0].clone();
            for g in &grams[1..] {
                sum = sum.add(g)?;
            }
            Ok(m2td_guard::gram_factor("phase1.combine", None, &sum, r)?)
        }
        PivotCombine::Select => {
            let aligned = bases[1..]
                .iter()
                .map(|u| align_signs(first, u))
                .collect::<Result<Vec<_>>>()?;
            let rows: Vec<&Matrix> = std::iter::once(first).chain(&aligned).collect();
            row_select(&rows)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_select_picks_higher_energy_rows() {
        let u1 = Matrix::from_rows(&[&[3.0, 4.0], &[0.1, 0.0]]).unwrap(); // norms 5, 0.1
        let u2 = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 2.0]]).unwrap(); // norms 1, 2
        let u = row_select(&[&u1, &u2]).unwrap();
        assert_eq!(u.row(0), &[3.0, 4.0]);
        assert_eq!(u.row(1), &[0.0, 2.0]);
    }

    #[test]
    fn row_select_tie_prefers_first() {
        let u1 = Matrix::from_rows(&[&[1.0, 0.0]]).unwrap();
        let u2 = Matrix::from_rows(&[&[0.0, 1.0]]).unwrap();
        let u = row_select(&[&u1, &u2]).unwrap();
        assert_eq!(u.row(0), &[1.0, 0.0]);
    }

    #[test]
    fn row_select_nan_norm_loses_to_finite_row() {
        // Regression: `u1.row_norm >= u2.row_norm` is false when u1's norm
        // is NaN, which *kept* working here — but the symmetric case (NaN
        // in u2) also evaluated false, handing NaN rows of u1 a win only
        // by accident of operand order. Pin both directions: NaN = −∞.
        let u1 = Matrix::from_rows(&[&[f64::NAN, 1.0]]).unwrap();
        let u2 = Matrix::from_rows(&[&[0.5, 0.0]]).unwrap();
        let u = row_select(&[&u1, &u2]).unwrap();
        assert_eq!(u.row(0), &[0.5, 0.0], "NaN row in u1 must lose");

        let u = row_select(&[&u2, &u1]).unwrap();
        assert_eq!(u.row(0), &[0.5, 0.0], "NaN row in u2 must lose");
    }

    #[test]
    fn row_select_both_nan_prefers_first() {
        let u1 = Matrix::from_rows(&[&[f64::NAN, 2.0]]).unwrap();
        let u2 = Matrix::from_rows(&[&[3.0, f64::NAN]]).unwrap();
        let u = row_select(&[&u1, &u2]).unwrap();
        // Both norms are NaN → both keys are −∞ → tie → u1 wins.
        assert!(u.get(0, 0).is_nan());
        assert_eq!(u.get(0, 1), 2.0);
    }

    #[test]
    fn align_signs_zero_dot_keeps_orientation() {
        // Orthogonal columns: dot == 0.0 carries no orientation evidence,
        // so u2 must come back unchanged (documented tie behavior).
        let u1 = Matrix::from_rows(&[&[1.0], &[0.0]]).unwrap();
        let u2 = Matrix::from_rows(&[&[0.0], &[-2.0]]).unwrap();
        let out = align_signs(&u1, &u2).unwrap();
        assert_eq!(out.row(0), &[0.0]);
        assert_eq!(out.row(1), &[-2.0]);
    }

    #[test]
    fn align_signs_nan_dot_keeps_orientation() {
        let u1 = Matrix::from_rows(&[&[f64::NAN], &[1.0]]).unwrap();
        let u2 = Matrix::from_rows(&[&[1.0], &[-3.0]]).unwrap();
        let out = align_signs(&u1, &u2).unwrap();
        // dot = NaN → no flip; u2 returned with original signs.
        assert_eq!(out.row(0), &[1.0]);
        assert_eq!(out.row(1), &[-3.0]);
    }

    #[test]
    fn align_signs_negative_dot_still_flips() {
        let u1 = Matrix::from_rows(&[&[1.0], &[1.0]]).unwrap();
        let u2 = Matrix::from_rows(&[&[-1.0], &[-1.0]]).unwrap();
        let out = align_signs(&u1, &u2).unwrap();
        assert_eq!(out.row(0), &[1.0]);
        assert_eq!(out.row(1), &[1.0]);
    }

    #[test]
    fn row_select_shape_mismatch() {
        let u1 = Matrix::zeros(2, 2);
        let u2 = Matrix::zeros(3, 2);
        assert!(row_select(&[&u1, &u2]).is_err());
    }

    #[test]
    fn row_select_output_rows_come_from_inputs() {
        let u1 = Matrix::from_fn(5, 3, |i, j| ((i * 3 + j) as f64).sin());
        let u2 = Matrix::from_fn(5, 3, |i, j| ((i + j) as f64).cos());
        let u = row_select(&[&u1, &u2]).unwrap();
        for i in 0..5 {
            let is_u1 = u.row(i) == u1.row(i);
            let is_u2 = u.row(i) == u2.row(i);
            assert!(is_u1 || is_u2, "row {i} is neither input row");
            // And it must be the one with the larger norm.
            let expected = u1.row_norm(i).max(u2.row_norm(i));
            assert!((u.row_norm(i) - expected).abs() < 1e-15);
        }
    }

    #[test]
    fn average_combination_is_midpoint() {
        let u1 = Matrix::from_rows(&[&[2.0, 0.0]]).unwrap();
        let u2 = Matrix::from_rows(&[&[0.0, 2.0]]).unwrap();
        let g = Matrix::identity(1);
        let u = combine_pivot_factor(PivotCombine::Average, &[&g, &g], &[u1, u2], 2).unwrap();
        assert_eq!(u.row(0), &[1.0, 1.0]);
    }

    #[test]
    fn concat_combination_diagonalizes_summed_gram() {
        // Two rank-1 grams along different axes: the summed gram's leading
        // eigenvectors are the coordinate axes, strongest first.
        let g1 = Matrix::from_rows(&[&[4.0, 0.0], &[0.0, 0.0]]).unwrap();
        let g2 = Matrix::from_rows(&[&[0.0, 0.0], &[0.0, 1.0]]).unwrap();
        let dummy = [Matrix::zeros(2, 2), Matrix::zeros(2, 2)];
        let u = combine_pivot_factor(PivotCombine::Concat, &[&g1, &g2], &dummy, 2).unwrap();
        assert!((u.get(0, 0).abs() - 1.0).abs() < 1e-12);
        assert!((u.get(1, 1).abs() - 1.0).abs() < 1e-12);
        assert!(u.get(1, 0).abs() < 1e-12);
    }

    #[test]
    fn concat_result_is_orthonormal() {
        let a = Matrix::from_fn(4, 9, |i, j| ((i * 2 + j) as f64).sin());
        let b = Matrix::from_fn(4, 7, |i, j| ((i + 3 * j) as f64).cos());
        let g1 = a.gram_rows();
        let g2 = b.gram_rows();
        let dummy = [Matrix::zeros(4, 3), Matrix::zeros(4, 3)];
        let u = combine_pivot_factor(PivotCombine::Concat, &[&g1, &g2], &dummy, 3).unwrap();
        assert!(u.orthonormality_defect() < 1e-9);
    }

    #[test]
    fn three_way_select_keeps_the_first_tied_row_and_never_a_nan_row() {
        // Row 0: u1 and u3 tie for the most energy, so u1 (the first) must
        // win. Row 1: u3's row is NaN and must lose to u2's finite one.
        // Every column dot with u1 is positive, so alignment flips nothing.
        let u1 = Matrix::from_rows(&[&[3.0, 4.0], &[0.1, 0.1]]).unwrap();
        let u2 = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 1.0]]).unwrap();
        let u3 = Matrix::from_rows(&[&[4.0, 3.0], &[f64::NAN, 5.0]]).unwrap();
        let g = Matrix::identity(2);
        let u =
            combine_pivot_factor(PivotCombine::Select, &[&g, &g, &g], &[u1, u2, u3], 2).unwrap();
        assert_eq!(u.row(0), &[3.0, 4.0], "tie must go to the first factor");
        assert_eq!(u.row(1), &[2.0, 1.0], "a NaN row must never win");
    }

    #[test]
    fn three_way_average_is_the_mean_of_aligned_bases() {
        let u1 = Matrix::from_rows(&[&[3.0], &[0.0]]).unwrap();
        let u2 = Matrix::from_rows(&[&[-3.0], &[0.0]]).unwrap(); // flipped
        let u3 = Matrix::from_rows(&[&[0.0], &[3.0]]).unwrap(); // orthogonal: kept
        let g = Matrix::identity(2);
        let u =
            combine_pivot_factor(PivotCombine::Average, &[&g, &g, &g], &[u1, u2, u3], 1).unwrap();
        assert!((u.get(0, 0) - 2.0).abs() < 1e-15 && (u.get(1, 0) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn combination_needs_two_matching_inputs() {
        let g = Matrix::identity(2);
        let u = Matrix::identity(2);
        for kind in PivotCombine::all() {
            assert!(combine_pivot_factor(kind, &[&g], std::slice::from_ref(&u), 2).is_err());
            assert!(combine_pivot_factor(kind, &[&g], &[u.clone(), u.clone()], 2).is_err());
        }
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(PivotCombine::Average.name(), "M2TD-AVG");
        assert_eq!(PivotCombine::Concat.name(), "M2TD-CONCAT");
        assert_eq!(PivotCombine::Select.name(), "M2TD-SELECT");
        assert_eq!(PivotCombine::all().len(), 3);
    }
}
