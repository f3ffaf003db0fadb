//! The multi-way run is guarded exactly like the two-way run, because
//! both are the same kernels: a poisoned input cell is caught at the
//! phase-1 boundary under its own sub-tensor's site, `ClampRank`
//! harmonizes clamped pivot bases, and the acceptance verdict is
//! reported for every S.
//!
//! The guard registry is process-global, so the test installs it under a
//! lock and uninstalls it on drop.

use m2td::core::{m2td_decompose_multi, CoreError, M2tdOptions, PivotCombine};
use m2td::guard::{GuardConfig, GuardError, GuardPolicy, NonFiniteKind};
use m2td::tensor::{Shape, SparseTensor};
use std::sync::Mutex;

static LOCK: Mutex<()> = Mutex::new(());

/// Uninstalls the guard on drop, so a panicking test cannot leak it.
struct Installed;

impl Installed {
    fn guard(cfg: GuardConfig) -> Self {
        m2td::guard::install(cfg);
        Installed
    }
}

impl Drop for Installed {
    fn drop(&mut self) {
        m2td::guard::uninstall();
    }
}

fn full(dims: &[usize], f: impl Fn(&[usize]) -> f64) -> SparseTensor {
    let shape = Shape::new(dims);
    let entries: Vec<(Vec<usize>, f64)> = (0..shape.num_elements())
        .map(|l| {
            let idx = shape.multi_index(l);
            let v = f(&idx);
            (idx, v)
        })
        .collect();
    SparseTensor::from_entries(dims, &entries).unwrap()
}

#[test]
fn three_way_run_is_guarded_like_the_two_way_run() {
    let _l = LOCK.lock().unwrap_or_else(|e| e.into_inner());

    // A NaN in the third sub-tensor is caught before any phase runs.
    let _g = Installed::guard(GuardConfig::DEFAULT);
    let healthy = |c: f64| full(&[7, 6], move |i| ((i[0] * i[1]) as f64 * c + 0.2).sin());
    let (x1, x2) = (healthy(0.37), healthy(0.23));
    let mut entries: Vec<(Vec<usize>, f64)> = healthy(0.29).iter().collect();
    let poisoned = entries[9].0.clone();
    entries[9].1 = f64::NAN;
    let x3 = SparseTensor::from_entries(&[7, 6], &entries).unwrap();
    let err = m2td_decompose_multi(&[&x1, &x2, &x3], 1, &[3, 3, 3, 3], M2tdOptions::default())
        .unwrap_err();
    match err {
        CoreError::Guard(GuardError::NonFinite {
            site, index, kind, ..
        }) => {
            assert_eq!(site, "phase1.x3", "wrong detection site");
            assert_eq!(index, poisoned, "wrong offending cell");
            assert_eq!(kind, NonFiniteKind::NaN);
        }
        other => panic!("expected a NonFinite guard error, got {other}"),
    }
    drop(_g);

    // Sub-tensors that depend only on the pivot make a rank-one join:
    // ClampRank narrows every factor to one column, and the budgeted
    // acceptance check passes on the exact reconstruction.
    let _g =
        Installed::guard(GuardConfig::with_policy(GuardPolicy::ClampRank).with_error_budget(1e-9));
    let pivot_only = full(&[6, 5], |i| ((i[0] as f64) * 0.5).cos() + 1.5);
    let subs = [&pivot_only, &pivot_only, &pivot_only];
    for combine in PivotCombine::all() {
        let opts = M2tdOptions {
            combine,
            ..M2tdOptions::default()
        };
        let d = m2td_decompose_multi(&subs, 1, &[2, 2, 2, 2], opts).unwrap();
        assert_eq!(d.tucker.ranks(), &[1, 1, 1, 1], "{}", combine.name());
        let verdict = d.guard.expect("an error budget yields a verdict");
        assert!(verdict.healthy, "{}: {verdict:?}", combine.name());
    }
}
