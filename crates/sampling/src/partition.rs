//! PF-partitioning of a parameter space (Section V-B of the paper).
//!
//! A [`PfPartition`] splits the `N` modes of the full ensemble tensor into
//!
//! * `k` **pivot** modes shared by both sub-systems,
//! * `(N − k)/2` modes **free** in sub-system 1 (fixed in 2), and
//! * `(N − k)/2` modes **free** in sub-system 2 (fixed in 1).
//!
//! Fixed modes are pinned to *fixing constants* — the default (middle)
//! index of the mode. Sub-tensors use the mode order
//! `[pivot…, free…]`, and the join tensor produced by JE-stitching uses
//! `[pivot…, free₁…, free₂…]`.

use crate::error::SamplingError;
use crate::Result;
use m2td_tensor::{Shape, SparseTensor};
use rand::seq::SliceRandom;
use std::collections::HashSet;

/// Which of the two PF sub-systems.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubSystem {
    /// Sub-system `S₁` (free modes = `free1`).
    First,
    /// Sub-system `S₂` (free modes = `free2`).
    Second,
}

/// A Pivoted/Fixed partition of the full tensor's modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PfPartition {
    pivot: Vec<usize>,
    free1: Vec<usize>,
    free2: Vec<usize>,
    n_modes: usize,
}

impl PfPartition {
    /// Creates a partition after validating that `pivot ∪ free1 ∪ free2`
    /// is a disjoint cover of `0..n_modes` and `|free1| == |free2|`.
    pub fn new(
        pivot: Vec<usize>,
        free1: Vec<usize>,
        free2: Vec<usize>,
        n_modes: usize,
    ) -> Result<Self> {
        if free1.len() != free2.len() {
            return Err(SamplingError::InvalidPartition {
                reason: format!(
                    "free sets must have equal size, got {} and {}",
                    free1.len(),
                    free2.len()
                ),
            });
        }
        if pivot.is_empty() {
            return Err(SamplingError::InvalidPartition {
                reason: "at least one pivot mode is required".to_string(),
            });
        }
        let mut seen = HashSet::new();
        for &m in pivot.iter().chain(free1.iter()).chain(free2.iter()) {
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
                reason: format!("partition covers {} of {} modes", seen.len(), n_modes),
            });
        }
        Ok(Self {
            pivot,
            free1,
            free2,
            n_modes,
        })
    }

    /// The canonical single-pivot partition: `pivot_mode` is shared and the
    /// remaining modes are split in half in ascending order (first half →
    /// sub-system 1). Requires `n_modes − 1` to be even.
    ///
    /// ```
    /// use m2td_sampling::{PfPartition, SubSystem};
    ///
    /// // The paper's 5-mode layout with the time mode (4) as pivot.
    /// let p = PfPartition::balanced(5, 4).unwrap();
    /// assert_eq!(p.free_modes(SubSystem::First), &[0, 1]);
    /// assert_eq!(p.free_modes(SubSystem::Second), &[2, 3]);
    /// assert_eq!(p.join_modes(), vec![4, 0, 1, 2, 3]);
    /// ```
    pub fn balanced(n_modes: usize, pivot_mode: usize) -> Result<Self> {
        if pivot_mode >= n_modes {
            return Err(SamplingError::InvalidPartition {
                reason: format!("pivot mode {pivot_mode} out of range"),
            });
        }
        let rest: Vec<usize> = (0..n_modes).filter(|&m| m != pivot_mode).collect();
        if !rest.len().is_multiple_of(2) {
            return Err(SamplingError::InvalidPartition {
                reason: format!(
                    "cannot split {} non-pivot modes into equal halves",
                    rest.len()
                ),
            });
        }
        let half = rest.len() / 2;
        Self::new(
            vec![pivot_mode],
            rest[..half].to_vec(),
            rest[half..].to_vec(),
            n_modes,
        )
    }

    /// The pivot modes (full-tensor ids).
    pub fn pivot_modes(&self) -> &[usize] {
        &self.pivot
    }

    /// Number of pivot modes `k`.
    pub fn k(&self) -> usize {
        self.pivot.len()
    }

    /// Free modes of a sub-system (full-tensor ids).
    pub fn free_modes(&self, which: SubSystem) -> &[usize] {
        match which {
            SubSystem::First => &self.free1,
            SubSystem::Second => &self.free2,
        }
    }

    /// Modes *fixed* in a sub-system (i.e. the other one's free modes).
    pub fn fixed_modes(&self, which: SubSystem) -> &[usize] {
        match which {
            SubSystem::First => &self.free2,
            SubSystem::Second => &self.free1,
        }
    }

    /// Full-tensor mode ids of a sub-tensor, in sub-tensor order
    /// `[pivot…, free…]`.
    pub fn sub_modes(&self, which: SubSystem) -> Vec<usize> {
        let mut v = self.pivot.clone();
        v.extend_from_slice(self.free_modes(which));
        v
    }

    /// Full-tensor mode ids of the join tensor, in join order
    /// `[pivot…, free₁…, free₂…]`.
    pub fn join_modes(&self) -> Vec<usize> {
        let mut v = self.pivot.clone();
        v.extend_from_slice(&self.free1);
        v.extend_from_slice(&self.free2);
        v
    }

    /// The permutation to pass to `DenseTensor::permute_modes` on a tensor
    /// in **join** mode order to obtain **natural** order.
    pub fn perm_join_to_natural(&self) -> Vec<usize> {
        let join = self.join_modes();
        let mut perm = vec![0usize; self.n_modes];
        for (pos, &full_mode) in join.iter().enumerate() {
            perm[full_mode] = pos;
        }
        perm
    }

    /// Sub-tensor mode extents `[pivot dims…, free dims…]`.
    pub fn sub_dims(&self, full_dims: &[usize], which: SubSystem) -> Vec<usize> {
        self.sub_modes(which)
            .iter()
            .map(|&m| full_dims[m])
            .collect()
    }

    /// The `(P, E)` cell counts for given pivot/free density fractions:
    /// `P = ⌈p_frac · Π pivot dims⌉`, `E = ⌈e_frac · Π free dims⌉`.
    pub fn cell_counts(
        &self,
        full_dims: &[usize],
        which: SubSystem,
        p_frac: f64,
        e_frac: f64,
    ) -> Result<(usize, usize)> {
        for &f in &[p_frac, e_frac] {
            if !(f > 0.0 && f <= 1.0) {
                return Err(SamplingError::InvalidFraction { value: f });
            }
        }
        let total_p: usize = self.pivot.iter().map(|&m| full_dims[m]).product();
        let total_e: usize = self
            .free_modes(which)
            .iter()
            .map(|&m| full_dims[m])
            .product();
        if total_p == 0 || total_e == 0 {
            return Err(SamplingError::EmptySpace);
        }
        let p = ((p_frac * total_p as f64).ceil() as usize).clamp(1, total_p);
        let e = ((e_frac * total_e as f64).ceil() as usize).clamp(1, total_e);
        Ok((p, e))
    }

    /// Builds the sampling plan for one sub-system: `P` pivot
    /// configurations (evenly spaced over the pivot lattice — both
    /// sub-systems select the *same* pivot configurations, which is what
    /// makes stitching possible) crossed with `E` free configurations
    /// (sampled uniformly at random, the paper's worst-case choice), with
    /// fixed modes pinned to `defaults`.
    pub fn plan_subsystem(
        &self,
        full_dims: &[usize],
        defaults: &[usize],
        which: SubSystem,
        p_frac: f64,
        e_frac: f64,
        rng: &mut dyn rand::RngCore,
    ) -> Result<Vec<Vec<usize>>> {
        if full_dims.len() != self.n_modes || defaults.len() != self.n_modes {
            return Err(SamplingError::InvalidPartition {
                reason: format!(
                    "dims/defaults length {}/{} does not match {} modes",
                    full_dims.len(),
                    defaults.len(),
                    self.n_modes
                ),
            });
        }
        let (p, e) = self.cell_counts(full_dims, which, p_frac, e_frac)?;

        let pivot_dims: Vec<usize> = self.pivot.iter().map(|&m| full_dims[m]).collect();
        let pivot_shape = Shape::new(&pivot_dims);
        let total_p = pivot_shape.num_elements();
        let pivot_configs: Vec<Vec<usize>> = evenly_spaced(total_p, p)
            .into_iter()
            .map(|l| pivot_shape.multi_index(l))
            .collect();

        let free_modes = self.free_modes(which);
        let free_dims: Vec<usize> = free_modes.iter().map(|&m| full_dims[m]).collect();
        let free_shape = Shape::new(&free_dims);
        let total_e = free_shape.num_elements();
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
                for (&m, &v) in free_modes.iter().zip(fc.iter()) {
                    cell[m] = v;
                }
                plan.push(cell);
            }
        }
        Ok(plan)
    }

    /// Projects a full-tensor sparse ensemble onto a sub-tensor with mode
    /// order `[pivot…, free…]`, keeping only entries whose fixed modes sit
    /// at the default indices.
    pub fn extract_sub_tensor(
        &self,
        full: &SparseTensor,
        defaults: &[usize],
        which: SubSystem,
    ) -> Result<SparseTensor> {
        if full.order() != self.n_modes || defaults.len() != self.n_modes {
            return Err(SamplingError::InvalidPartition {
                reason: format!(
                    "tensor order {} / defaults {} do not match {} modes",
                    full.order(),
                    defaults.len(),
                    self.n_modes
                ),
            });
        }
        let sub_modes = self.sub_modes(which);
        let fixed = self.fixed_modes(which);
        let sub_dims = self.sub_dims(full.dims(), which);
        let mut entries: Vec<(Vec<usize>, f64)> = Vec::new();
        for (idx, v) in full.iter() {
            if fixed.iter().any(|&m| idx[m] != defaults[m]) {
                continue;
            }
            let sub_idx: Vec<usize> = sub_modes.iter().map(|&m| idx[m]).collect();
            entries.push((sub_idx, v));
        }
        SparseTensor::from_entries(&sub_dims, &entries).map_err(|e| {
            SamplingError::InvalidPartition {
                reason: format!("sub-tensor construction failed: {e}"),
            }
        })
    }
}

/// `count` evenly spaced values from `0..total`.
fn evenly_spaced(total: usize, count: usize) -> Vec<usize> {
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
        StdRng::seed_from_u64(7)
    }

    // 5-mode layout mirroring the paper: [phi1, m1, phi2, m2, t],
    // pivot = time (mode 4).
    fn paper_partition() -> PfPartition {
        PfPartition::new(vec![4], vec![0, 1], vec![2, 3], 5).unwrap()
    }

    #[test]
    fn validation_catches_structural_errors() {
        // Unequal free halves.
        assert!(PfPartition::new(vec![0], vec![1], vec![2, 3], 4).is_err());
        // Missing pivot.
        assert!(PfPartition::new(vec![], vec![0], vec![1], 2).is_err());
        // Duplicate mode.
        assert!(PfPartition::new(vec![0], vec![0], vec![1], 2).is_err());
        // Not covering.
        assert!(PfPartition::new(vec![0], vec![1], vec![2], 5).is_err());
        // Out of range.
        assert!(PfPartition::new(vec![9], vec![0], vec![1], 3).is_err());
    }

    #[test]
    fn balanced_partition_matches_paper_layout() {
        let p = PfPartition::balanced(5, 4).unwrap();
        assert_eq!(p.pivot_modes(), &[4]);
        assert_eq!(p.free_modes(SubSystem::First), &[0, 1]);
        assert_eq!(p.free_modes(SubSystem::Second), &[2, 3]);
        assert_eq!(p.fixed_modes(SubSystem::First), &[2, 3]);
        assert_eq!(p.k(), 1);
    }

    #[test]
    fn balanced_rejects_odd_rest() {
        assert!(PfPartition::balanced(4, 0).is_err());
        assert!(PfPartition::balanced(5, 9).is_err());
    }

    #[test]
    fn sub_modes_and_dims() {
        let p = paper_partition();
        let dims = [6, 7, 8, 9, 5];
        assert_eq!(p.sub_modes(SubSystem::First), vec![4, 0, 1]);
        assert_eq!(p.sub_dims(&dims, SubSystem::First), vec![5, 6, 7]);
        assert_eq!(p.sub_modes(SubSystem::Second), vec![4, 2, 3]);
        assert_eq!(p.sub_dims(&dims, SubSystem::Second), vec![5, 8, 9]);
        assert_eq!(p.join_modes(), vec![4, 0, 1, 2, 3]);
    }

    #[test]
    fn permutations_are_inverse() {
        let p = paper_partition();
        // join_modes() is the natural → join permutation.
        let to_join = p.join_modes();
        let to_nat = p.perm_join_to_natural();
        // Applying to_join then to_nat must be the identity.
        let mut composed = vec![0usize; 5];
        for i in 0..5 {
            composed[i] = to_join[to_nat[i]];
        }
        assert_eq!(composed, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn full_density_plan_covers_subspace() {
        let p = paper_partition();
        let dims = [3, 3, 3, 3, 4];
        let defaults = [1, 1, 1, 1, 2];
        let plan = p
            .plan_subsystem(&dims, &defaults, SubSystem::First, 1.0, 1.0, &mut rng())
            .unwrap();
        // P = 4 (time), E = 9 (phi1 x m1) => 36 cells.
        assert_eq!(plan.len(), 36);
        for cell in &plan {
            assert_eq!(cell[2], 1, "fixed phi2 must sit at default");
            assert_eq!(cell[3], 1, "fixed m2 must sit at default");
        }
    }

    #[test]
    fn reduced_densities_scale_cell_counts() {
        let p = paper_partition();
        let dims = [4, 4, 4, 4, 8];
        let (p100, e100) = p.cell_counts(&dims, SubSystem::First, 1.0, 1.0).unwrap();
        assert_eq!((p100, e100), (8, 16));
        let (p50, e25) = p.cell_counts(&dims, SubSystem::First, 0.5, 0.25).unwrap();
        assert_eq!(p50, 4);
        assert_eq!(e25, 4);
        assert!(p.cell_counts(&dims, SubSystem::First, 0.0, 1.0).is_err());
        assert!(p.cell_counts(&dims, SubSystem::First, 1.0, 1.5).is_err());
    }

    #[test]
    fn both_subsystems_share_pivot_configs() {
        let p = paper_partition();
        let dims = [3, 3, 3, 3, 6];
        let defaults = [1, 1, 1, 1, 3];
        let plan1 = p
            .plan_subsystem(&dims, &defaults, SubSystem::First, 0.5, 1.0, &mut rng())
            .unwrap();
        let plan2 = p
            .plan_subsystem(&dims, &defaults, SubSystem::Second, 0.5, 1.0, &mut rng())
            .unwrap();
        let pivots1: HashSet<usize> = plan1.iter().map(|c| c[4]).collect();
        let pivots2: HashSet<usize> = plan2.iter().map(|c| c[4]).collect();
        assert_eq!(pivots1, pivots2, "pivot configurations must coincide");
        assert_eq!(pivots1.len(), 3); // 50% of 6
    }

    #[test]
    fn extract_sub_tensor_reorders_and_filters() {
        let p = paper_partition();
        let dims = [3, 3, 3, 3, 4];
        let defaults = vec![1, 1, 1, 1, 2];
        let full = SparseTensor::from_entries(
            &dims,
            &[
                (vec![0, 2, 1, 1, 3], 5.0), // S1-compatible (modes 2,3 at default)
                (vec![0, 2, 0, 1, 3], 7.0), // not (mode 2 != 1)
            ],
        )
        .unwrap();
        let sub = p
            .extract_sub_tensor(&full, &defaults, SubSystem::First)
            .unwrap();
        assert_eq!(sub.dims(), &[4, 3, 3]);
        assert_eq!(sub.nnz(), 1);
        // Sub order [t, phi1, m1] = [3, 0, 2].
        assert_eq!(sub.get(&[3, 0, 2]), Some(5.0));
    }

    #[test]
    fn plan_and_extract_round_trip() {
        let p = paper_partition();
        let dims = [3, 3, 3, 3, 4];
        let defaults = vec![1, 1, 1, 1, 2];
        let plan = p
            .plan_subsystem(&dims, &defaults, SubSystem::Second, 1.0, 0.5, &mut rng())
            .unwrap();
        // Build a fake full tensor from the plan.
        let entries: Vec<(Vec<usize>, f64)> = plan
            .iter()
            .enumerate()
            .map(|(i, c)| (c.clone(), i as f64 + 1.0))
            .collect();
        let full = SparseTensor::from_entries(&dims, &entries).unwrap();
        let sub = p
            .extract_sub_tensor(&full, &defaults, SubSystem::Second)
            .unwrap();
        assert_eq!(sub.nnz(), plan.len());
    }

    #[test]
    fn evenly_spaced_properties() {
        assert_eq!(evenly_spaced(10, 10), (0..10).collect::<Vec<_>>());
        assert_eq!(evenly_spaced(10, 1), vec![5]);
        let s = evenly_spaced(100, 5);
        assert_eq!(s.len(), 5);
        assert_eq!(s[0], 0);
        assert_eq!(s[4], 99);
        assert!(evenly_spaced(0, 3).is_empty());
    }

    #[test]
    fn multi_pivot_partition_works() {
        // k = 2 pivots (extension beyond the paper's k = 1 experiments).
        let p = PfPartition::new(vec![0, 1], vec![2], vec![3], 4).unwrap();
        let dims = [2, 3, 4, 5];
        let (pp, ee) = p.cell_counts(&dims, SubSystem::First, 1.0, 1.0).unwrap();
        assert_eq!((pp, ee), (6, 4));
        assert_eq!(p.join_modes(), vec![0, 1, 2, 3]);
    }
}
