//! Multi-way PF-partitioning — an extension beyond the paper's two-way
//! split.
//!
//! A [`MultiPartition`] divides the non-pivot modes into `S ≥ 2` equal
//! free groups. Each sub-system varies the pivots plus its own group and
//! fixes everything else, so a finer partition (more, smaller groups)
//! makes each sub-space exponentially smaller — the ensemble can reach
//! full sub-space density with far fewer simulations, at the price of
//! fixing more parameters per run. `m2td_core` stitches the resulting
//! sub-ensembles with `m2td_stitch::stitch_multi`.

use crate::error::SamplingError;
use crate::Result;
use m2td_tensor::{Shape, SparseTensor};
use rand::seq::SliceRandom;
use std::collections::HashSet;

/// A pivot + `S` free-group partition of the full tensor's modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiPartition {
    pivot: Vec<usize>,
    groups: Vec<Vec<usize>>,
    n_modes: usize,
}

impl MultiPartition {
    /// Creates a partition after validating that the pivot and groups are
    /// a disjoint cover of `0..n_modes`, with at least two non-empty,
    /// equally sized groups.
    pub fn new(pivot: Vec<usize>, groups: Vec<Vec<usize>>, n_modes: usize) -> Result<Self> {
        if pivot.is_empty() {
            return Err(SamplingError::InvalidPartition {
                reason: "at least one pivot mode is required".into(),
            });
        }
        if groups.len() < 2 {
            return Err(SamplingError::InvalidPartition {
                reason: format!("need at least 2 free groups, got {}", groups.len()),
            });
        }
        let size = groups[0].len();
        if size == 0 || groups.iter().any(|g| g.len() != size) {
            return Err(SamplingError::InvalidPartition {
                reason: "free groups must be non-empty and equally sized".into(),
            });
        }
        let mut seen = HashSet::new();
        for &m in pivot.iter().chain(groups.iter().flatten()) {
            if m >= n_modes {
                return Err(SamplingError::InvalidPartition {
                    reason: format!("mode {m} out of range for {n_modes} modes"),
                });
            }
            if !seen.insert(m) {
                return Err(SamplingError::InvalidPartition {
                    reason: format!("mode {m} appears twice"),
                });
            }
        }
        if seen.len() != n_modes {
            return Err(SamplingError::InvalidPartition {
                reason: format!("partition covers {} of {n_modes} modes", seen.len()),
            });
        }
        Ok(Self {
            pivot,
            groups,
            n_modes,
        })
    }

    /// The finest balanced partition with a single pivot: every other mode
    /// becomes its own free group (`S = n_modes − 1` sub-systems).
    pub fn finest(n_modes: usize, pivot_mode: usize) -> Result<Self> {
        if pivot_mode >= n_modes || n_modes < 3 {
            return Err(SamplingError::InvalidPartition {
                reason: format!("cannot build finest partition of {n_modes} modes"),
            });
        }
        let groups: Vec<Vec<usize>> = (0..n_modes)
            .filter(|&m| m != pivot_mode)
            .map(|m| vec![m])
            .collect();
        Self::new(vec![pivot_mode], groups, n_modes)
    }

    /// Pivot modes.
    pub fn pivot_modes(&self) -> &[usize] {
        &self.pivot
    }

    /// Number of pivot modes `k`.
    pub fn k(&self) -> usize {
        self.pivot.len()
    }

    /// The free modes of sub-system `s`.
    pub fn free_modes(&self, s: usize) -> &[usize] {
        &self.groups[s]
    }

    /// Full-tensor mode ids of sub-system `s`'s tensor, in sub-tensor
    /// order `[pivot…, free…]`.
    pub fn sub_modes(&self, s: usize) -> Vec<usize> {
        let mut v = self.pivot.clone();
        v.extend_from_slice(&self.groups[s]);
        v
    }

    /// Full-tensor mode ids of the multi-way join tensor:
    /// `[pivot…, group₀…, …, group_{S−1}…]`.
    pub fn join_modes(&self) -> Vec<usize> {
        let mut v = self.pivot.clone();
        for g in &self.groups {
            v.extend_from_slice(g);
        }
        v
    }

    /// The permutation mapping a join-order tensor back to natural order
    /// (argument for `DenseTensor::permute_modes`).
    pub fn perm_join_to_natural(&self) -> Vec<usize> {
        let join = self.join_modes();
        let mut perm = vec![0usize; self.n_modes];
        for (pos, &full_mode) in join.iter().enumerate() {
            perm[full_mode] = pos;
        }
        perm
    }

    /// Builds the sampling plan for sub-system `s`: the same evenly spaced
    /// pivot configurations for every sub-system, crossed with `e_frac` of
    /// its free lattice (random), all other modes fixed at `defaults`.
    pub fn plan_subsystem(
        &self,
        full_dims: &[usize],
        defaults: &[usize],
        s: usize,
        p_frac: f64,
        e_frac: f64,
        rng: &mut dyn rand::RngCore,
    ) -> Result<Vec<Vec<usize>>> {
        if full_dims.len() != self.n_modes || defaults.len() != self.n_modes {
            return Err(SamplingError::InvalidPartition {
                reason: "dims/defaults length mismatch".into(),
            });
        }
        for &f in &[p_frac, e_frac] {
            if !(f > 0.0 && f <= 1.0) {
                return Err(SamplingError::InvalidFraction { value: f });
            }
        }
        let pivot_dims: Vec<usize> = self.pivot.iter().map(|&m| full_dims[m]).collect();
        let pivot_shape = Shape::new(&pivot_dims);
        let total_p = pivot_shape.num_elements();
        let p = ((p_frac * total_p as f64).ceil() as usize).clamp(1, total_p);
        let pivot_configs: Vec<Vec<usize>> = spaced(total_p, p)
            .into_iter()
            .map(|l| pivot_shape.multi_index(l))
            .collect();

        let free_dims: Vec<usize> = self.groups[s].iter().map(|&m| full_dims[m]).collect();
        let free_shape = Shape::new(&free_dims);
        let total_e = free_shape.num_elements();
        let e = ((e_frac * total_e as f64).ceil() as usize).clamp(1, total_e);
        let free_configs: Vec<Vec<usize>> = if e == total_e {
            (0..total_e).map(|l| free_shape.multi_index(l)).collect()
        } else {
            let mut all: Vec<usize> = (0..total_e).collect();
            all.shuffle(rng);
            all.truncate(e);
            all.sort_unstable();
            all.into_iter().map(|l| free_shape.multi_index(l)).collect()
        };

        let mut plan = Vec::with_capacity(p * e);
        for pc in &pivot_configs {
            for fc in &free_configs {
                let mut cell = defaults.to_vec();
                for (&m, &v) in self.pivot.iter().zip(pc.iter()) {
                    cell[m] = v;
                }
                for (&m, &v) in self.groups[s].iter().zip(fc.iter()) {
                    cell[m] = v;
                }
                plan.push(cell);
            }
        }
        Ok(plan)
    }

    /// Projects the full sparse ensemble onto sub-system `s`'s tensor
    /// (modes `[pivot…, free…]`), keeping only entries whose fixed modes
    /// sit at the defaults.
    pub fn extract_sub_tensor(
        &self,
        full: &SparseTensor,
        defaults: &[usize],
        s: usize,
    ) -> Result<SparseTensor> {
        if full.order() != self.n_modes || defaults.len() != self.n_modes {
            return Err(SamplingError::InvalidPartition {
                reason: "tensor order / defaults mismatch".into(),
            });
        }
        let sub_modes = self.sub_modes(s);
        let own: HashSet<usize> = sub_modes.iter().copied().collect();
        let fixed: Vec<usize> = (0..self.n_modes).filter(|m| !own.contains(m)).collect();
        let sub_dims: Vec<usize> = sub_modes.iter().map(|&m| full.dims()[m]).collect();
        let mut entries: Vec<(Vec<usize>, f64)> = Vec::new();
        for (idx, v) in full.iter() {
            if fixed.iter().any(|&m| idx[m] != defaults[m]) {
                continue;
            }
            entries.push((sub_modes.iter().map(|&m| idx[m]).collect(), v));
        }
        SparseTensor::from_entries(&sub_dims, &entries).map_err(|e| {
            SamplingError::InvalidPartition {
                reason: format!("sub-tensor construction failed: {e}"),
            }
        })
    }
}

/// `count` evenly spaced values from `0..total`.
fn spaced(total: usize, count: usize) -> Vec<usize> {
    if count == 0 || total == 0 {
        return Vec::new();
    }
    if count >= total {
        return (0..total).collect();
    }
    if count == 1 {
        return vec![total / 2];
    }
    (0..count)
        .map(|i| (i * (total - 1)) / (count - 1))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    #[test]
    fn finest_partition_of_five_modes() {
        let p = MultiPartition::finest(5, 4).unwrap();
        assert_eq!(p.groups.len(), 4);
        assert_eq!(p.pivot_modes(), &[4]);
        assert_eq!(p.free_modes(0), &[0]);
        assert_eq!(p.free_modes(3), &[3]);
        assert_eq!(p.join_modes(), vec![4, 0, 1, 2, 3]);
        assert_eq!(p.sub_modes(2), vec![4, 2]);
    }

    #[test]
    fn validation() {
        // One group.
        assert!(MultiPartition::new(vec![0], vec![vec![1, 2]], 3).is_err());
        // Unequal groups.
        assert!(MultiPartition::new(vec![0], vec![vec![1], vec![2, 3]], 4).is_err());
        // Duplicate / non-cover / out-of-range.
        assert!(MultiPartition::new(vec![0], vec![vec![0], vec![1]], 2).is_err());
        assert!(MultiPartition::new(vec![0], vec![vec![1], vec![2]], 5).is_err());
        assert!(MultiPartition::new(vec![9], vec![vec![0], vec![1]], 3).is_err());
        // No pivot.
        assert!(MultiPartition::new(vec![], vec![vec![0], vec![1]], 2).is_err());
        // Finest needs >= 3 modes and a valid pivot.
        assert!(MultiPartition::finest(2, 0).is_err());
        assert!(MultiPartition::finest(5, 7).is_err());
    }

    #[test]
    fn plans_pin_other_groups_to_defaults() {
        let p = MultiPartition::finest(5, 4).unwrap();
        let dims = [3, 3, 3, 3, 4];
        let defaults = [1, 1, 1, 1, 2];
        for s in 0..4 {
            let plan = p
                .plan_subsystem(&dims, &defaults, s, 1.0, 1.0, &mut rng())
                .unwrap();
            // P = 4 pivots x E = 3 free values.
            assert_eq!(plan.len(), 12);
            for cell in &plan {
                for (other, &v) in cell.iter().enumerate().take(4) {
                    if other != s {
                        assert_eq!(v, 1, "group {other} should be fixed");
                    }
                }
            }
        }
    }

    #[test]
    fn all_subsystems_share_pivot_configs() {
        let p = MultiPartition::finest(5, 0).unwrap();
        let dims = [6, 3, 3, 3, 3];
        let defaults = [3, 1, 1, 1, 1];
        let pivots: Vec<HashSet<usize>> = (0..4)
            .map(|s| {
                p.plan_subsystem(&dims, &defaults, s, 0.5, 1.0, &mut rng())
                    .unwrap()
                    .iter()
                    .map(|c| c[0])
                    .collect()
            })
            .collect();
        for w in pivots.windows(2) {
            assert_eq!(w[0], w[1]);
        }
    }

    #[test]
    fn extract_round_trip() {
        let p = MultiPartition::finest(4, 0).unwrap();
        let dims = [3, 2, 2, 2];
        let defaults = vec![1, 1, 1, 1];
        let plan = p
            .plan_subsystem(&dims, &defaults, 1, 1.0, 1.0, &mut rng())
            .unwrap();
        let entries: Vec<(Vec<usize>, f64)> = plan
            .iter()
            .enumerate()
            .map(|(i, c)| (c.clone(), i as f64 + 1.0))
            .collect();
        let full = SparseTensor::from_entries(&dims, &entries).unwrap();
        let sub = p.extract_sub_tensor(&full, &defaults, 1).unwrap();
        assert_eq!(sub.dims(), &[3, 2]);
        assert_eq!(sub.nnz(), plan.len());
    }

    #[test]
    fn perm_join_to_natural_inverts_join_order() {
        let p = MultiPartition::new(vec![2], vec![vec![0], vec![3], vec![1]], 4).unwrap();
        let join = p.join_modes();
        assert_eq!(join, vec![2, 0, 3, 1]);
        let perm = p.perm_join_to_natural();
        // perm[full_mode] = position in join order.
        assert_eq!(perm, vec![1, 3, 0, 2]);
    }

    #[test]
    fn coarse_partition_matches_pf_layout() {
        // Two groups of two = the paper's layout.
        let p = MultiPartition::new(vec![4], vec![vec![0, 1], vec![2, 3]], 5).unwrap();
        assert_eq!(p.groups.len(), 2);
        assert_eq!(p.sub_modes(0), vec![4, 0, 1]);
        assert_eq!(p.sub_modes(1), vec![4, 2, 3]);
    }
}
