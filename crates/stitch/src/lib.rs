//! JE-stitching (Section V-C of the paper): combining the two
//! PF-partitioned sub-ensembles along their shared pivot modes into a
//! high-order *join tensor* with boosted effective density.
//!
//! Both sub-tensors must use the sub-tensor mode convention of
//! `m2td_sampling::PfPartition`: the first `k` modes are the shared pivot
//! modes, the remaining modes are the sub-system's free modes. The join
//! tensor's modes are `[pivot…, free₁…, free₂…]`.
//!
//! * **Join** ([`StitchKind::Join`]): for every pair of simulations that
//!   agree on the pivot values, store the average `(x₁ + x₂)/2`. With `P`
//!   pivot configurations and `E` free configurations per sub-system this
//!   yields up to `P·E²` join entries from `2·P·E` simulations —
//!   effectively squaring the ensemble density (Figure 6 of the paper).
//! * **Zero-join** ([`StitchKind::ZeroJoin`]): additionally, when one side
//!   of a pair is missing, it is treated as an existing simulation with
//!   value 0 and the entry `x/2` is still produced — boosting density
//!   further when sub-ensemble densities are too low for plain join
//!   stitching to be effective (evaluated in Table V).

mod error;
mod join;

pub use error::StitchError;
pub use join::{stitch, stitch_multi, JoinLattice, PivotGroup, StitchKind, StitchReport};

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, StitchError>;
