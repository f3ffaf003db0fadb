//! The benchmark's own span recorder for traced passes.
//!
//! Spans wrap the benchmark's calls into each layer's public functions and
//! stay in memory until the pass ends. A span may also be recorded after
//! the fact from a duration the library measured itself (the M2TD and
//! D-M2TD phase timings), as a child of the span that enclosed the call.

use m2td::json::Json;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    /// The request (pipeline run, job) the span belongs to.
    pub request: u32,
    pub start_ns: u64,
    pub dur_ns: u64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u32,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Spans recorded from here on belong to request `request`.
    pub fn set_request(&mut self, request: u32) {
        self.request = request;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span. Returns `f`'s result and the new span's id.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, usize) {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            request: self.request,
            start_ns: self.now_ns(),
            dur_ns: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].dur_ns = self.now_ns() - self.spans[id].start_ns;
        (out, id)
    }

    /// Records a span of `dur_ns` under `parent`, starting `offset_ns`
    /// after the parent started.
    pub fn record(&mut self, name: &'static str, parent: usize, offset_ns: u64, dur_ns: u64) {
        let start_ns = self.spans[parent].start_ns + offset_ns;
        self.spans.push(Span {
            name,
            parent: Some(parent),
            request: self.spans[parent].request,
            start_ns,
            dur_ns,
        });
    }

    pub fn to_json(&self) -> Json {
        spans_json(&self.spans)
    }
}

/// Spans as JSON, each with its id (its position) and self time.
fn spans_json(spans: &[Span]) -> Json {
    let self_ns = self_times(spans);
    let us = |ns: u64| Json::Float(ns as f64 / 1e3);
    Json::Arr(
        spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::Obj(vec![
                    ("id".into(), Json::Int(id as i64)),
                    (
                        "parent".into(),
                        s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                    ),
                    ("request".into(), Json::Int(i64::from(s.request))),
                    ("name".into(), Json::Str(s.name.into())),
                    ("start_us".into(), us(s.start_ns)),
                    ("dur_us".into(), us(s.dur_ns)),
                    ("self_us".into(), us(self_ns[id])),
                ])
            })
            .collect(),
    )
}

/// Self time of every span: its duration minus the durations of its
/// direct children. Children run inside their parent on the same thread,
/// so what remains is time the parent spent outside every child.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut self_ns: Vec<u64> = spans.iter().map(|s| s.dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            self_ns[p] = self_ns[p].saturating_sub(s.dur_ns);
        }
    }
    self_ns
}

/// Sums the self times of the spans of `request` by span name.
pub fn self_time_by_name(spans: &[Span], request: u32) -> Vec<(&'static str, u64)> {
    let self_ns = self_times(spans);
    let mut out: Vec<(&'static str, u64)> = Vec::new();
    for (s, &t) in spans.iter().zip(&self_ns) {
        if s.request != request {
            continue;
        }
        match out.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, acc)) => *acc += t,
            None => out.push((s.name, t)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, dur: u64) -> Span {
        Span {
            name,
            parent,
            request: 0,
            start_ns: start,
            dur_ns: dur,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("run", None, 0, 100),
            span("a", Some(0), 5, 40),
            span("a.inner", Some(1), 10, 30),
            span("b", Some(0), 50, 45),
        ];
        assert_eq!(self_times(&spans), vec![15, 10, 30, 45]);
        // Self times of a tree add up to the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn self_time_by_name_groups_one_request() {
        let mut spans = vec![
            span("run", None, 0, 100),
            span("sim", Some(0), 0, 30),
            span("sim", Some(0), 40, 20),
            span("run", None, 200, 10),
        ];
        spans[3].request = 1;
        assert_eq!(self_time_by_name(&spans, 0), vec![("run", 50), ("sim", 50)]);
        assert_eq!(self_time_by_name(&spans, 1), vec![("run", 10)]);
    }

    #[test]
    fn tracer_nests_and_records_library_timings() {
        let mut t = Tracer::new();
        t.set_request(3);
        let ((), root) = t.span("run", |t| {
            let ((), child) = t.span("decompose", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2));
            });
            t.record("phase", child, 0, 1_000_000);
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[root].parent, None);
        assert_eq!(spans[1].parent, Some(root));
        assert_eq!(spans[2].parent, Some(1));
        assert!(spans.iter().all(|s| s.request == 3));
        assert!(spans[1].dur_ns >= 2_000_000);
        assert!(spans[root].dur_ns >= spans[1].dur_ns);
        let self_ns = self_times(spans);
        assert_eq!(self_ns[1], spans[1].dur_ns - 1_000_000);
        assert!(matches!(t.to_json(), Json::Arr(items) if items.len() == 3));
    }
}
