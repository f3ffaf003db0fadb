//! m2td-obs — observability runtime for the M2TD pipeline.
//!
//! Dependency-free (only `m2td-json` for export), thread-safe, and
//! zero-cost when disabled. Three primitives:
//!
//! * **Spans** — scoped wall-time measurements aggregated per label
//!   ([`span!`], [`Span`]). Each label accumulates call count, total wall
//!   time, *self* time (total minus time spent in nested spans on the same
//!   thread), and the maximum nesting depth observed.
//! * **Counters** — monotonically increasing `u64` totals
//!   ([`counter_add`]): retries, speculative launches, resumed tasks,
//!   injected faults.
//! * **Gauges** — last-value / accumulated `f64` levels ([`gauge_set`],
//!   [`gauge_add`]): effective thread count, missing-cell coverage,
//!   virtual time lost to stragglers.
//!
//! ## Overhead guarantee
//!
//! Nothing is recorded until [`install`] flips the global subscriber flag.
//! While disabled, every entry point is a single relaxed atomic load:
//! [`Span::enter_label`] takes its label generically and never converts it
//! (no allocation), never calls `Instant::now()`, and its guard's `Drop`
//! is a no-op. The parallel-vs-serial bitwise determinism tests run with
//! the subscriber off and are unaffected by instrumentation.
//!
//! Instrumentation must never perturb numerics: recording only reads
//! clocks and bumps aggregates, so enabling the subscriber changes no
//! computed value — only the exported [`MetricsSnapshot`].
//!
//! ## Nesting and threads
//!
//! The span stack is thread-local: a span entered inside
//! `m2td_par::join`'s spawned closure starts at depth 1 on the worker
//! thread. Span *counts* and counter values are therefore identical
//! across `M2TD_THREADS` settings (the work done is identical), while
//! depths and self-times legitimately differ; tests must compare counts,
//! not times.
//!
//! ## Export
//!
//! [`snapshot`] drains nothing — it copies the registry into a
//! [`MetricsSnapshot`] that implements `ToJson`/`FromJson` over
//! `m2td-json`, so the CLI's `--metrics-out`, `RunReport::metrics`, and
//! the bench harness all share one schema.

use m2td_json::{FromJson, Json, JsonError, ToJson};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// Global subscriber flag. Relaxed is enough: recording threads only need
/// to *eventually* observe installation, and tests that require a
/// happens-before edge get one from the registry mutex.
static INSTALLED: AtomicBool = AtomicBool::new(false);

#[derive(Debug, Default)]
struct SpanAgg {
    count: u64,
    total_ns: u64,
    self_ns: u64,
    max_depth: u32,
}

#[derive(Debug)]
struct Registry {
    spans: BTreeMap<String, SpanAgg>,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
    spans: BTreeMap::new(),
    counters: BTreeMap::new(),
    gauges: BTreeMap::new(),
});

/// A panicking recorder must not disable observability for the rest of
/// the process (tests use `catch_unwind`-style harnesses).
fn registry() -> MutexGuard<'static, Registry> {
    REGISTRY.lock().unwrap_or_else(|e| e.into_inner())
}

thread_local! {
    /// Per-thread stack of active spans: each frame accumulates the wall
    /// time of its *direct and indirect children* so `Drop` can compute
    /// self time.
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Enables recording globally. Idempotent.
pub fn install() {
    INSTALLED.store(true, Ordering::SeqCst);
}

/// Disables recording globally. Spans already open keep recording on
/// drop; new entries become no-ops.
pub fn uninstall() {
    INSTALLED.store(false, Ordering::SeqCst);
}

/// Whether a subscriber is installed. One relaxed load.
#[inline]
pub fn installed() -> bool {
    INSTALLED.load(Ordering::Relaxed)
}

/// Clears every span aggregate, counter and gauge.
pub fn reset() {
    let mut reg = registry();
    reg.spans.clear();
    reg.counters.clear();
    reg.gauges.clear();
}

/// RAII guard for one scoped wall-time measurement. Construct with
/// [`span!`] or [`Span::enter_label`]; the measurement is recorded when
/// the guard drops.
#[must_use = "a span records its duration when dropped; binding it to `_` drops it immediately"]
pub struct Span {
    inner: Option<SpanInner>,
}

struct SpanInner {
    label: String,
    start: Instant,
    depth: u32,
}

impl Span {
    /// Enters a span under `label`, or returns a disabled no-op guard if
    /// no subscriber is installed (the label is never even converted).
    pub fn enter_label<L: Into<String>>(label: L) -> Span {
        if !installed() {
            return Span { inner: None };
        }
        let depth = STACK.with(|s| {
            let mut st = s.borrow_mut();
            st.push(0);
            st.len() as u32
        });
        Span {
            inner: Some(SpanInner {
                label: label.into(),
                start: Instant::now(),
                depth,
            }),
        }
    }

    /// A guard that records nothing. Used by [`span!`] for its disabled
    /// fast path.
    pub fn disabled() -> Span {
        Span { inner: None }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        let total_ns = inner.start.elapsed().as_nanos() as u64;
        let child_ns = STACK.with(|s| {
            let mut st = s.borrow_mut();
            let child = st.pop().unwrap_or(0);
            if let Some(parent) = st.last_mut() {
                *parent += total_ns;
            }
            child
        });
        let mut reg = registry();
        let agg = reg.spans.entry(inner.label).or_default();
        agg.count += 1;
        agg.total_ns += total_ns;
        agg.self_ns += total_ns.saturating_sub(child_ns);
        agg.max_depth = agg.max_depth.max(inner.depth);
    }
}

/// Enters a scoped span: `span!("ttm")` or `span!("ttm", mode = n)`.
///
/// Key/value fields are folded into the aggregation label as
/// `label{key=value}`, so distinct field values aggregate separately.
/// When no subscriber is installed the field values are never formatted.
#[macro_export]
macro_rules! span {
    ($label:expr) => {
        $crate::Span::enter_label($label)
    };
    ($label:expr, $($key:ident = $value:expr),+ $(,)?) => {
        if $crate::installed() {
            let mut __label = ::std::string::String::from($label);
            $(
                __label.push('{');
                __label.push_str(stringify!($key));
                __label.push('=');
                __label.push_str(&::std::string::ToString::to_string(&$value));
                __label.push('}');
            )+
            $crate::Span::enter_label(__label)
        } else {
            $crate::Span::disabled()
        }
    };
}

/// Adds `delta` to the named counter, creating it at zero first. A delta
/// of 0 still materializes the key, so "this event class was observed
/// zero times" is distinguishable from "never wired". No-op when
/// disabled.
pub fn counter_add<N: Into<String>>(name: N, delta: u64) {
    if !installed() {
        return;
    }
    let mut reg = registry();
    *reg.counters.entry(name.into()).or_insert(0) += delta;
}

/// Sets the named gauge to `value` (last write wins). No-op when
/// disabled.
pub fn gauge_set<N: Into<String>>(name: N, value: f64) {
    if !installed() {
        return;
    }
    let mut reg = registry();
    reg.gauges.insert(name.into(), value);
}

/// Adds `delta` to the named gauge, creating it at zero first. Used for
/// accumulated quantities that are not integer counts (e.g. virtual
/// seconds lost to stragglers). No-op when disabled.
pub fn gauge_add<N: Into<String>>(name: N, delta: f64) {
    if !installed() {
        return;
    }
    let mut reg = registry();
    *reg.gauges.entry(name.into()).or_insert(0.0) += delta;
}

/// Aggregate of every completed span under one label.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanStat {
    /// Aggregation label, including any `{key=value}` fields.
    pub label: String,
    /// Number of completed spans.
    pub count: u64,
    /// Summed wall time, seconds.
    pub total_secs: f64,
    /// Summed wall time minus time spent in same-thread nested spans.
    pub self_secs: f64,
    /// Deepest nesting level observed (1 = no enclosing span on that
    /// thread).
    pub max_depth: u32,
}

/// Point-in-time copy of the registry. Sorted by label/name (the
/// registry is a `BTreeMap`), so snapshots of identical runs compare
/// equal structurally.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    pub spans: Vec<SpanStat>,
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, f64)>,
}

impl MetricsSnapshot {
    /// Looks up one span aggregate by label.
    pub fn span(&self, label: &str) -> Option<&SpanStat> {
        self.spans.iter().find(|s| s.label == label)
    }

    /// Looks up one counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Looks up one gauge value by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// All counters whose name starts with `prefix`, e.g.
    /// `counters_with_prefix("guard.")` for every guard detection. The
    /// returned slice of pairs keeps the registry's sorted name order.
    pub fn counters_with_prefix(&self, prefix: &str) -> Vec<(&str, u64)> {
        self.counters
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|(n, v)| (n.as_str(), *v))
            .collect()
    }

    /// The thread-count-invariant projection: `(label, count)` per span.
    /// Times and depths legitimately vary across thread counts; counts
    /// must not.
    pub fn span_counts(&self) -> Vec<(String, u64)> {
        self.spans
            .iter()
            .map(|s| (s.label.clone(), s.count))
            .collect()
    }
}

const NS_PER_SEC: f64 = 1e9;

impl ToJson for SpanStat {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("label".to_string(), self.label.to_json()),
            ("count".to_string(), self.count.to_json()),
            ("total_secs".to_string(), self.total_secs.to_json()),
            ("self_secs".to_string(), self.self_secs.to_json()),
            ("max_depth".to_string(), (self.max_depth as u64).to_json()),
        ])
    }
}

impl FromJson for SpanStat {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            label: json.require("label")?.as_str()?.to_string(),
            count: json.require("count")?.as_u64()?,
            total_secs: json.require("total_secs")?.as_f64()?,
            self_secs: json.require("self_secs")?.as_f64()?,
            max_depth: json.require("max_depth")?.as_u64()? as u32,
        })
    }
}

impl ToJson for MetricsSnapshot {
    fn to_json(&self) -> Json {
        let spans = Json::Arr(self.spans.iter().map(ToJson::to_json).collect());
        let counters = Json::Obj(
            self.counters
                .iter()
                .map(|(n, v)| (n.clone(), v.to_json()))
                .collect(),
        );
        let gauges = Json::Obj(
            self.gauges
                .iter()
                .map(|(n, v)| (n.clone(), v.to_json()))
                .collect(),
        );
        Json::Obj(vec![
            ("spans".to_string(), spans),
            ("counters".to_string(), counters),
            ("gauges".to_string(), gauges),
        ])
    }
}

impl FromJson for MetricsSnapshot {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        let spans = match json.require("spans")? {
            Json::Arr(items) => items
                .iter()
                .map(SpanStat::from_json)
                .collect::<Result<Vec<_>, _>>()?,
            other => {
                return Err(JsonError::Type {
                    expected: "array of span stats",
                    found: other.type_name(),
                })
            }
        };
        let counters = match json.require("counters")? {
            Json::Obj(pairs) => pairs
                .iter()
                .map(|(n, v)| Ok((n.clone(), v.as_u64()?)))
                .collect::<Result<Vec<_>, JsonError>>()?,
            other => {
                return Err(JsonError::Type {
                    expected: "object of counters",
                    found: other.type_name(),
                })
            }
        };
        let gauges = match json.require("gauges")? {
            Json::Obj(pairs) => pairs
                .iter()
                .map(|(n, v)| Ok((n.clone(), v.as_f64()?)))
                .collect::<Result<Vec<_>, JsonError>>()?,
            other => {
                return Err(JsonError::Type {
                    expected: "object of gauges",
                    found: other.type_name(),
                })
            }
        };
        Ok(Self {
            spans,
            counters,
            gauges,
        })
    }
}

/// Copies the current registry contents into a snapshot.
pub fn snapshot() -> MetricsSnapshot {
    let reg = registry();
    MetricsSnapshot {
        spans: reg
            .spans
            .iter()
            .map(|(label, a)| SpanStat {
                label: label.clone(),
                count: a.count,
                total_secs: a.total_ns as f64 / NS_PER_SEC,
                self_secs: a.self_ns as f64 / NS_PER_SEC,
                max_depth: a.max_depth,
            })
            .collect(),
        counters: reg.counters.iter().map(|(n, &v)| (n.clone(), v)).collect(),
        gauges: reg.gauges.iter().map(|(n, &v)| (n.clone(), v)).collect(),
    }
}

/// `Some(snapshot())` when a subscriber is installed, `None` otherwise.
/// The shape used by `RunReport::metrics`.
pub fn snapshot_if_installed() -> Option<MetricsSnapshot> {
    installed().then(snapshot)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry and subscriber flag are process-global; every test
    /// that installs must hold this lock.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_subscriber_records_nothing() {
        let _g = locked();
        uninstall();
        reset();
        {
            let _s = span!("noop");
            let _t = span!("noop", mode = 3);
        }
        counter_add("noop.counter", 5);
        gauge_set("noop.gauge", 1.0);
        let snap = snapshot();
        assert!(snap.spans.is_empty());
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
    }

    #[test]
    fn spans_aggregate_counts_nesting_and_self_time() {
        let _g = locked();
        install();
        reset();
        {
            let _outer = span!("outer");
            for _ in 0..3 {
                let _inner = span!("inner");
            }
        }
        let snap = snapshot();
        uninstall();
        let outer = snap.span("outer").expect("outer recorded");
        let inner = snap.span("inner").expect("inner recorded");
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 3);
        assert_eq!(outer.max_depth, 1);
        assert_eq!(inner.max_depth, 2);
        // Self time excludes the nested spans' wall time.
        assert!(outer.self_secs <= outer.total_secs);
        assert!(outer.total_secs >= inner.total_secs);
    }

    #[test]
    fn span_fields_fold_into_label() {
        let _g = locked();
        install();
        reset();
        {
            let _a = span!("ttm", mode = 0);
            let _b = span!("ttm", mode = 1);
            let _c = span!("ttm", mode = 1);
        }
        let snap = snapshot();
        uninstall();
        assert_eq!(snap.span("ttm{mode=0}").unwrap().count, 1);
        assert_eq!(snap.span("ttm{mode=1}").unwrap().count, 2);
    }

    #[test]
    fn counters_and_gauges_accumulate() {
        let _g = locked();
        install();
        reset();
        counter_add("retries", 2);
        counter_add("retries", 3);
        counter_add("zero_but_present", 0);
        gauge_set("threads", 4.0);
        gauge_set("threads", 8.0);
        gauge_add("lost_secs", 0.5);
        gauge_add("lost_secs", 0.25);
        let snap = snapshot();
        uninstall();
        assert_eq!(snap.counter("retries"), Some(5));
        assert_eq!(snap.counter("zero_but_present"), Some(0));
        assert_eq!(snap.counter("never_wired"), None);
        assert_eq!(snap.gauge("threads"), Some(8.0));
        assert_eq!(snap.gauge("lost_secs"), Some(0.75));
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        let _g = locked();
        install();
        reset();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..50 {
                        let _s = span!("worker");
                        counter_add("events", 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = snapshot();
        uninstall();
        assert_eq!(snap.span("worker").unwrap().count, 200);
        assert_eq!(snap.counter("events"), Some(200));
        // Each thread's stack starts empty: no cross-thread nesting.
        assert_eq!(snap.span("worker").unwrap().max_depth, 1);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let snap = MetricsSnapshot {
            spans: vec![SpanStat {
                label: "phase1.decompose".to_string(),
                count: 2,
                total_secs: 0.125,
                self_secs: 0.0625,
                max_depth: 3,
            }],
            counters: vec![("mr.retries".to_string(), 7)],
            gauges: vec![("threads.effective".to_string(), 4.0)],
        };
        let text = snap.to_json().to_pretty();
        let back = MetricsSnapshot::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn snapshot_is_label_sorted() {
        let _g = locked();
        install();
        reset();
        {
            let _b = span!("b.second");
        }
        {
            let _a = span!("a.first");
        }
        counter_add("z", 1);
        counter_add("a", 1);
        let snap = snapshot();
        uninstall();
        let labels: Vec<&str> = snap.spans.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels, ["a.first", "b.second"]);
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["a", "z"]);
    }
}
