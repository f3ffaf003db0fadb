//! The observability layer's cross-crate contracts:
//!
//! * a metrics snapshot taken after a real decomposition round-trips
//!   through `m2td-json` losslessly;
//! * span counts and counter values are independent of the physical
//!   thread count (times of course are not);
//! * the `mr.*` counters mirrored into the registry by `MapReduce::run`
//!   during a faulty `DistJob` agree with the [`TaskCounters`] the caller
//!   receives;
//! * with no subscriber installed, nothing is recorded and
//!   [`RunReport::metrics`] stays `None`.
//!
//! The registry is process-global, so every test serializes on one lock
//! and resets the registry while holding it.

use m2td::core::{m2td_decompose, M2tdOptions};
use m2td::dist::{DistJob, FaultConfig, MapReduce};
use m2td::fault::{FaultPlan, RetryPolicy};
use m2td::json::{FromJson, ToJson};
use m2td::obs::MetricsSnapshot;
use m2td::tensor::{Shape, SparseTensor};
use std::sync::Mutex;

static OBS_LOCK: Mutex<()> = Mutex::new(());

const K: usize = 1;
const RANKS: [usize; 3] = [2, 2, 2];

/// Two small dense analytic sub-tensors sharing a pivot mode.
fn sub_tensors() -> (SparseTensor, SparseTensor) {
    let f = |p: usize, a: usize, b: usize| {
        ((p as f64) * 0.7).sin() * ((a as f64) * 0.3 + 1.0) * ((b as f64) * 0.2 + 1.0) + 0.1
    };
    let full = |g: &dyn Fn(&[usize]) -> f64| {
        let dims = [5, 4];
        let shape = Shape::new(&dims);
        let entries: Vec<(Vec<usize>, f64)> = (0..shape.num_elements())
            .map(|l| {
                let idx = shape.multi_index(l);
                let v = g(&idx);
                (idx, v)
            })
            .collect();
        SparseTensor::from_entries(&dims, &entries).unwrap()
    };
    let x1 = full(&|i: &[usize]| f(i[0], i[1], 2));
    let x2 = full(&|i: &[usize]| f(i[0], 2, i[1]));
    (x1, x2)
}

fn serial_run_snapshot() -> MetricsSnapshot {
    let (x1, x2) = sub_tensors();
    m2td_decompose(&x1, &x2, K, &RANKS, M2tdOptions::default()).unwrap();
    m2td::obs::snapshot()
}

#[test]
fn snapshot_from_real_run_round_trips_through_json() {
    let _guard = OBS_LOCK.lock().unwrap();
    m2td::obs::install();
    m2td::obs::reset();
    m2td::obs::counter_add("test.marker", 3);
    m2td::obs::gauge_set("test.gauge", 0.125);
    let snap = serial_run_snapshot();
    m2td::obs::uninstall();

    assert!(snap.span("phase1.decompose").is_some());
    assert!(snap.span("phase2.stitch").is_some());
    assert!(snap.span("phase3.core").is_some());
    assert!(snap.span("linalg.eig").is_some());

    let text = snap.to_json().to_pretty();
    let parsed = m2td::json::Json::parse(&text).expect("snapshot JSON must parse");
    let back = MetricsSnapshot::from_json(&parsed).expect("snapshot JSON must deserialize");
    // Rust's f64 Display is shortest-round-trip, so equality is exact.
    assert_eq!(snap, back, "snapshot changed across a JSON round trip");
}

#[test]
fn span_counts_and_counters_are_thread_count_invariant() {
    let _guard = OBS_LOCK.lock().unwrap();
    m2td::obs::install();

    m2td::par::set_max_threads(1);
    m2td::obs::reset();
    let serial = serial_run_snapshot();

    m2td::par::set_max_threads(4);
    m2td::obs::reset();
    let wide = serial_run_snapshot();

    m2td::par::set_max_threads(0);
    m2td::obs::uninstall();

    // Times and nesting depth legitimately differ across thread counts
    // (a closure run on a fresh worker thread starts a new span stack);
    // the *structure* — which spans fired how often, and every counter —
    // must not.
    assert_eq!(
        serial.span_counts(),
        wide.span_counts(),
        "span counts changed with the thread count"
    );
    assert_eq!(
        serial.counters, wide.counters,
        "counter values changed with the thread count"
    );
    assert!(!serial.spans.is_empty());
}

#[test]
fn mapreduce_counters_match_returned_task_counters() {
    let _guard = OBS_LOCK.lock().unwrap();
    m2td::obs::install();
    m2td::obs::reset();

    let (x1, x2) = sub_tensors();
    let faults = FaultConfig {
        plan: FaultPlan::new(11, 0.5, 0.3, 20.0),
        policy: RetryPolicy::default(),
    };
    let run = DistJob {
        faults,
        ..DistJob::new(&x1, &x2, K, &RANKS)
    }
    .run(&MapReduce::new(3))
    .unwrap();
    let snap = m2td::obs::snapshot();
    m2td::obs::uninstall();

    let totals = run.total_tasks();
    assert!(
        totals.kills() > 0,
        "seed injected no kills — test is vacuous"
    );
    let counter = |name: &str| snap.counter(name).unwrap_or(0);
    assert_eq!(counter("mr.map_attempts"), totals.map_attempts as u64);
    assert_eq!(counter("mr.map_kills"), totals.map_kills as u64);
    assert_eq!(counter("mr.reduce_attempts"), totals.reduce_attempts as u64);
    assert_eq!(counter("mr.reduce_kills"), totals.reduce_kills as u64);
    assert_eq!(counter("mr.retries"), totals.kills() as u64);
    assert_eq!(counter("mr.stragglers"), totals.stragglers as u64);
    assert_eq!(
        counter("mr.speculative_launches"),
        totals.speculative_launches as u64
    );
    let lost = snap.gauge("mr.virtual_lost_secs").unwrap_or(0.0);
    assert!(
        (lost - totals.virtual_lost_secs).abs() < 1e-9,
        "virtual lost time drifted: {lost} vs {}",
        totals.virtual_lost_secs
    );
    // The fault plan's own injection counters agree with what the engine
    // observed (every injected kill is a killed attempt and vice versa).
    assert_eq!(counter("fault.kills_injected"), totals.kills() as u64);
    // One mapreduce.job span per phase job (3 for ChunkPartition).
    assert_eq!(
        snap.spans
            .iter()
            .filter(|s| s.label.starts_with("mapreduce.job"))
            .map(|s| s.count)
            .sum::<u64>(),
        3
    );
}

/// Both sparse TTM directions carry a span (the forward kernel was
/// historically uninstrumented), and the TTM-chain planner records its
/// span and op-count/size gauges.
#[test]
fn ttm_kernels_and_plan_are_instrumented() {
    use m2td::linalg::Matrix;
    use m2td::tensor::{ttm_sparse, ttm_sparse_transposed, TtmPlan, Workspace};

    let _guard = OBS_LOCK.lock().unwrap();
    m2td::obs::install();
    m2td::obs::reset();

    let dims = [5usize, 4, 3];
    let shape = Shape::new(&dims);
    let entries: Vec<(Vec<usize>, f64)> = (0..shape.num_elements())
        .filter(|l| l % 2 == 0)
        .map(|l| (shape.multi_index(l), (l as f64 * 0.37).sin() + 0.2))
        .collect();
    let x = SparseTensor::from_entries(&dims, &entries).unwrap();
    let u = Matrix::from_fn(5, 2, |i, j| ((i * 2 + j) as f64 * 0.3).cos());
    ttm_sparse(&x, 0, &u.transpose()).unwrap();
    ttm_sparse_transposed(&x, 0, &u).unwrap();

    let ranks = [2usize, 2, 2];
    let factors: Vec<Matrix> = dims
        .iter()
        .zip(ranks.iter())
        .map(|(&d, &r)| Matrix::from_fn(d, r, |i, j| ((i + 3 * j) as f64 * 0.21).sin()))
        .collect();
    let plan = TtmPlan::new(&dims, &ranks).unwrap();
    plan.execute_sparse(&x, &factors, &mut Workspace::new())
        .unwrap();

    let snap = m2td::obs::snapshot();
    m2td::obs::uninstall();

    assert!(
        snap.span("tensor.ttm_sparse_fwd{mode=0}").is_some(),
        "forward sparse TTM span missing"
    );
    assert!(
        snap.span("tensor.ttm_sparse{mode=0}").is_some(),
        "transposed sparse TTM span missing"
    );
    assert!(snap.span("ttm.plan").is_some(), "planner span missing");
    let madds = snap.gauge("ttm.plan_madds").unwrap_or(-1.0);
    assert_eq!(
        madds,
        plan.predicted_madds() as f64,
        "ttm.plan_madds gauge disagrees with the plan's op-count model"
    );
    assert!(
        snap.gauge("ttm.intermediate_elems").unwrap_or(0.0) > 0.0,
        "intermediate-size gauge missing"
    );
}

/// Acceptance criterion: on the bench shapes, the planner's chain does no
/// more FP multiply-adds than the fixed natural order — asserted through
/// the `ttm.plan_madds` gauge each execution records.
#[test]
fn planner_chain_madds_never_exceed_fixed_order() {
    use m2td::linalg::Matrix;
    use m2td::tensor::{CoreOrdering, TtmPlan, Workspace};

    let _guard = OBS_LOCK.lock().unwrap();
    m2td::obs::install();

    for (dims, ranks) in [
        (vec![12usize, 12, 12, 12], vec![4usize, 4, 4, 4]),
        (vec![32, 16, 8], vec![4, 2, 2]),
    ] {
        let shape = Shape::new(&dims);
        let entries: Vec<(Vec<usize>, f64)> = (0..shape.num_elements())
            .filter(|l| l % 3 == 0)
            .map(|l| (shape.multi_index(l), (l as f64 * 0.11).sin()))
            .collect();
        let x = SparseTensor::from_entries(&dims, &entries).unwrap();
        let factors: Vec<Matrix> = dims
            .iter()
            .zip(ranks.iter())
            .map(|(&d, &r)| Matrix::from_fn(d, r, |i, j| ((i * 7 + j) as f64 * 0.17).cos()))
            .collect();

        let gauge_for = |ordering: CoreOrdering| {
            m2td::obs::reset();
            let plan = TtmPlan::with_ordering(&dims, &ranks, ordering).unwrap();
            plan.execute_sparse(&x, &factors, &mut Workspace::new())
                .unwrap();
            m2td::obs::snapshot()
                .gauge("ttm.plan_madds")
                .expect("plan execution must record its op count")
        };
        let planned = gauge_for(CoreOrdering::BestShrinkFirst);
        let natural = gauge_for(CoreOrdering::Natural);
        assert!(
            planned <= natural,
            "planner does {planned} madds vs {natural} natural for {dims:?}/{ranks:?}"
        );
    }
    m2td::obs::uninstall();
}

#[test]
fn without_subscriber_nothing_is_recorded_and_reports_carry_no_metrics() {
    let _guard = OBS_LOCK.lock().unwrap();
    m2td::obs::uninstall();
    m2td::obs::reset();

    let (x1, x2) = sub_tensors();
    let d = m2td_decompose(&x1, &x2, K, &RANKS, M2tdOptions::default()).unwrap();
    assert!(!d.tucker.core.as_slice().is_empty());

    let snap = m2td::obs::snapshot();
    assert!(snap.spans.is_empty(), "spans recorded while uninstalled");
    assert!(
        snap.counters.is_empty(),
        "counters recorded while uninstalled"
    );
    assert!(snap.gauges.is_empty(), "gauges recorded while uninstalled");
    assert!(m2td::obs::snapshot_if_installed().is_none());
}

/// The randomized routes are instrumented: the per-mode sketched Gram
/// carries a `sketch.*` span, and the sketch width plus the measured
/// relative error land as gauges.
#[test]
fn sketch_routes_are_instrumented() {
    use m2td::sketch::SketchConfig;

    let _guard = OBS_LOCK.lock().unwrap();
    m2td::obs::install();
    m2td::obs::reset();

    let cfg = SketchConfig::with_size(6).with_seed(9);

    // A tall mode-0 with full fibers: the shape where the sketched Gram's
    // op-count plan says "sketch", so `phase_gram` actually takes the
    // randomized route while the config is installed.
    let dims = [32usize, 50];
    let shape = Shape::new(&dims);
    let entries: Vec<(Vec<usize>, f64)> = (0..shape.num_elements())
        .map(|l| (shape.multi_index(l), (l as f64 * 0.13).sin() + 0.3))
        .collect();
    let x = SparseTensor::from_entries(&dims, &entries).unwrap();
    m2td::sketch::install(cfg);
    m2td::tensor::phase_gram(&x, 0).unwrap();
    m2td::sketch::uninstall();

    let snap = m2td::obs::snapshot();
    m2td::obs::uninstall();

    assert!(
        snap.span("sketch.gram{mode=0}").is_some(),
        "sketched Gram span missing: {:?}",
        snap.spans.iter().map(|s| &s.label).collect::<Vec<_>>()
    );
    assert!(
        snap.gauge("sketch.size").unwrap_or(0.0) >= 1.0,
        "sketch.size gauge missing"
    );
    let rel_err = snap.gauge("sketch.rel_err").unwrap_or(-1.0);
    assert!(
        rel_err.is_finite() && rel_err >= 0.0,
        "sketch.rel_err gauge missing or non-finite: {rel_err}"
    );
}
