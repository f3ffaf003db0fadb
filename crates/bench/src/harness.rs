//! Minimal Criterion-compatible benchmark harness.
//!
//! The offline build environment has no crates.io access, so the
//! `criterion` dev-dependency is replaced by this small in-tree harness
//! exposing the same call surface the benches use (`benchmark_group`,
//! `sample_size`, `bench_function`, `iter`, `iter_batched`, plus the
//! `criterion_group!`/`criterion_main!` macros at the crate root).
//!
//! Every completed benchmark is recorded as a [`KernelRecord`] tagged
//! with the `m2td_par::max_threads()` in effect while it ran, so
//! serial-vs-parallel numbers land in the same report.

use crate::report::KernelRecord;
use std::time::Instant;

/// Default number of timed samples per benchmark.
const DEFAULT_SAMPLE_SIZE: usize = 10;
/// Warm-up iterations before sampling starts.
const WARMUP_ITERS: usize = 2;

/// Top-level harness state: collects one [`KernelRecord`] per benchmark.
#[derive(Default)]
pub struct Criterion {
    records: Vec<KernelRecord>,
}

impl Criterion {
    /// Starts a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: DEFAULT_SAMPLE_SIZE,
            records: &mut self.records,
        }
    }

    /// All records collected so far.
    pub fn records(&self) -> &[KernelRecord] {
        &self.records
    }

    /// Writes the collected records as a JSON array at `path`.
    ///
    /// If an `m2td-obs` subscriber is installed, the span aggregates
    /// recorded while the benchmarks ran are appended as extra records
    /// (group `"obs.span"`, one per span label, `mean_ns` = mean span wall
    /// time, `samples` = span count) so kernel timings and in-pipeline
    /// telemetry land in the same file under the same schema.
    pub fn write_records(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut records = self.records.clone();
        if let Some(snap) = m2td_obs::snapshot_if_installed() {
            for s in &snap.spans {
                records.push(KernelRecord {
                    group: "obs.span".to_string(),
                    name: s.label.clone(),
                    threads: m2td_par::max_threads(),
                    mean_ns: if s.count > 0 {
                        s.total_secs * 1e9 / s.count as f64
                    } else {
                        0.0
                    },
                    samples: s.count as usize,
                    rel_err: None,
                });
            }
        }
        crate::report::write_kernel_records(&records, path)
    }
}

/// A group of related benchmarks sharing a sample size.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    records: &'a mut Vec<KernelRecord>,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples for subsequent benchmarks.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Runs one benchmark and records its mean iteration time.
    pub fn bench_function(&mut self, id: impl Into<String>, mut f: impl FnMut(&mut Bencher)) {
        let id = id.into();
        let mut b = Bencher {
            samples: self.sample_size,
            total_ns: 0.0,
            iters: 0,
        };
        f(&mut b);
        let mean_ns = if b.iters > 0 {
            b.total_ns / b.iters as f64
        } else {
            0.0
        };
        let record = KernelRecord {
            group: self.name.clone(),
            name: id,
            threads: m2td_par::max_threads(),
            mean_ns,
            samples: b.iters,
            rel_err: None,
        };
        println!(
            "{}/{}: {} ({} samples, threads={})",
            record.group,
            record.name,
            format_ns(record.mean_ns),
            record.samples,
            record.threads
        );
        self.records.push(record);
    }

    /// Attaches a measured relative error (computed OUTSIDE any timed
    /// region) to the most recently recorded benchmark in this group.
    /// Used by randomized-kernel benches so `BENCH_kernels.json` carries
    /// accuracy next to speed.
    pub fn attach_rel_err(&mut self, rel_err: f64) {
        if let Some(last) = self.records.last_mut() {
            last.rel_err = Some(rel_err);
        }
    }

    /// Ends the group (for API parity; records are already stored).
    pub fn finish(self) {}
}

/// Passed to benchmark closures; times the measured routine.
pub struct Bencher {
    samples: usize,
    total_ns: f64,
    iters: usize,
}

impl Bencher {
    /// Times `f` over the configured number of samples.
    pub fn iter<O>(&mut self, mut f: impl FnMut() -> O) {
        for _ in 0..WARMUP_ITERS {
            std::hint::black_box(f());
        }
        for _ in 0..self.samples {
            let t = Instant::now();
            std::hint::black_box(f());
            self.total_ns += t.elapsed().as_nanos() as f64;
            self.iters += 1;
        }
    }

    /// Times `routine` on fresh inputs from `setup`; setup time is
    /// excluded from the measurement.
    pub fn iter_batched<I, O>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> O,
        _size: BatchSize,
    ) {
        for _ in 0..WARMUP_ITERS {
            let input = setup();
            std::hint::black_box(routine(input));
        }
        for _ in 0..self.samples {
            let input = setup();
            let t = Instant::now();
            std::hint::black_box(routine(input));
            self.total_ns += t.elapsed().as_nanos() as f64;
            self.iters += 1;
        }
    }
}

/// Batch sizing hint (accepted for Criterion API parity; the harness
/// always runs one routine call per sample).
#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    /// Inputs are cheap to hold; one per sample.
    SmallInput,
    /// Inputs are large; one per sample.
    LargeInput,
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// Defines a function running a list of benchmark functions, mirroring
/// Criterion's macro of the same name.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name(c: &mut $crate::harness::Criterion) {
            $( $target(c); )+
        }
    };
}

/// Defines `main` running the given groups, mirroring Criterion's macro.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::harness::Criterion::default();
            $( $group(&mut c); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_records_threads_and_samples() {
        let mut c = Criterion::default();
        {
            let mut g = c.benchmark_group("unit");
            g.sample_size(3);
            g.bench_function("noop", |b| b.iter(|| 1 + 1));
            g.bench_function("batched", |b| {
                b.iter_batched(|| vec![1u8; 16], |v| v.len(), BatchSize::SmallInput)
            });
            g.finish();
        }
        assert_eq!(c.records().len(), 2);
        assert_eq!(c.records()[0].samples, 3);
        assert_eq!(c.records()[0].threads, m2td_par::max_threads());
        assert!(c.records()[1].mean_ns >= 0.0);
    }
}
