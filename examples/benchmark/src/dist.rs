//! `dist_channel`: whole D-M2TD jobs over the checksummed envelope
//! transport, where every map and reduce task is serialized, sealed,
//! shipped and verified. The only workload that `m2td-dist` and its
//! transport dominate; both pipelines bypass them.

use crate::measure::{
    closed_loop, cores, fatal, observed, push_obs_layers, timed_setup, LayerSamples, Outcome,
    MIN_REQUESTS, MIN_TRACED,
};
use crate::stats::percentile_of;
use crate::trace::{self_time_by_name, Tracer};
use m2td::core::{M2tdOptions, Workbench, WorkbenchConfig};
use m2td::dist::{d_m2td, DistDecomposition, DistError, MapReduce, TransportKind};
use m2td::json::{Json, ToJson};
use m2td::sampling::PfPartition;
use m2td::sim::systems::DoublePendulum;
use m2td::tensor::SparseTensor;
use std::time::Instant;

const RESOLUTION: usize = 10;
const TIME_MODE: usize = 4;
const RANK: usize = 4;
const WORKERS: usize = 2;
const WARMUPS: usize = 2;

/// Resident inputs: two 10×10×10 double-pendulum sub-tensors (a
/// 100,000-cell join) and the reference job over the direct transport.
struct Setup<'a> {
    w: Workbench<'a>,
    x1: SparseTensor,
    x2: SparseTensor,
    partition: PfPartition,
    ranks: Vec<usize>,
    reference: DistDecomposition,
}

impl<'a> Setup<'a> {
    fn build(system: &'a DoublePendulum, seed: u64) -> Self {
        let cfg = WorkbenchConfig {
            resolution: RESOLUTION,
            time_steps: RESOLUTION,
            t_end: 2.0,
            substeps: 16,
            rank: RANK,
            seed,
            noise_sigma: 1e-3,
        };
        let w = Workbench::new(system, cfg)
            .unwrap_or_else(|e| fatal(format!("workbench set-up failed: {e}")));
        let (x1, x2, partition) = w
            .subsystems(TIME_MODE, 1.0, 1.0, 1.0)
            .unwrap_or_else(|e| fatal(format!("sub-ensemble set-up failed: {e}")));
        let ranks: Vec<usize> = partition
            .join_modes()
            .iter()
            .map(|&m| RANK.min(w.full_dims()[m]))
            .collect();
        let direct = engine(TransportKind::Direct);
        let reference = d_m2td(
            &x1,
            &x2,
            partition.k(),
            &ranks,
            M2tdOptions::default(),
            &direct,
        )
        .unwrap_or_else(|e| fatal(format!("direct D-M2TD job failed: {e}")));
        Self {
            w,
            x1,
            x2,
            partition,
            ranks,
            reference,
        }
    }

    fn job(&self, engine: &MapReduce) -> Result<DistDecomposition, DistError> {
        let k = self.partition.k();
        d_m2td(
            &self.x1,
            &self.x2,
            k,
            &self.ranks,
            M2tdOptions::default(),
            engine,
        )
    }

    /// Whether a job's core is bit-identical to the direct reference's,
    /// which the transport contract promises.
    fn matches_reference(&self, job: &Result<DistDecomposition, DistError>) -> bool {
        let bits = |d: &DistDecomposition| -> Vec<u64> {
            d.tucker
                .core
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect()
        };
        job.as_ref().is_ok_and(|d| bits(d) == bits(&self.reference))
    }

    fn input_cells(&self) -> usize {
        self.x1.nnz() + self.x2.nnz()
    }
}

fn engine(transport: TransportKind) -> MapReduce {
    MapReduce::new(WORKERS).with_transport(transport)
}

pub fn timed(seed: u64, seconds: f64) -> Outcome {
    m2td::par::set_max_threads(cores());
    let system = DoublePendulum::default();
    let mut out = Outcome::new();
    let (s, setup_s) = timed_setup(|| Setup::build(&system, seed));
    let accuracy =
        s.w.accuracy_join_order(&s.reference.tucker, &s.partition)
            .unwrap_or_else(|e| fatal(format!("scoring failed: {e}")));
    let channel = engine(TransportKind::Channel);
    for _ in 0..WARMUPS {
        out.check(s.matches_reference(&s.job(&channel)));
    }

    let timed = closed_loop(seconds, MIN_REQUESTS, || {
        s.matches_reference(&s.job(&channel))
    });
    timed.report(&mut out, setup_s, s.input_cells());
    out.metric("accuracy", accuracy);
    out
}

pub fn traced(seed: u64, seconds: f64) -> Outcome {
    m2td::par::set_max_threads(cores());
    let system = DoublePendulum::default();
    let mut out = Outcome::new();
    let s = Setup::build(&system, seed);
    let channel = engine(TransportKind::Channel);
    let direct = engine(TransportKind::Direct);

    // Untraced channel and direct jobs alternate with traced channel jobs,
    // so the transport cost and the tracing overhead are both differences
    // between neighbouring measurements.
    let mut tracer = Tracer::new();
    let mut layers = LayerSamples::default();
    let mut snapshots = Vec::new();
    let (mut channel_ms, mut direct_ms, mut traced_ms) = (Vec::new(), Vec::new(), Vec::new());
    let timed_job = |engine: &MapReduce, out: &mut Outcome| -> f64 {
        let t = Instant::now();
        let job = s.job(engine);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        out.check(s.matches_reference(&job));
        ms
    };
    let start = Instant::now();
    for request in 0u32.. {
        if start.elapsed().as_secs_f64() >= seconds && traced_ms.len() >= MIN_TRACED {
            break;
        }
        channel_ms.push(timed_job(&channel, &mut out));
        direct_ms.push(timed_job(&direct, &mut out));

        tracer.set_request(request);
        let ((job, root), snap) = observed(|| tracer.span("run", |_| s.job(&channel)));
        let wall_ns = tracer.spans()[root].dur_ns;
        traced_ms.push(wall_ns as f64 / 1e6);
        out.check(s.matches_reference(&job));
        let Ok(job) = job else { continue };
        let ns = |secs: f64| (secs * 1e9) as u64;
        let mut offset = 0;
        for (name, phase) in [
            ("dist.phase1", &job.phase1),
            ("dist.phase2", &job.phase2),
            ("dist.phase3", &job.phase3),
        ] {
            tracer.record(name, root, offset, ns(phase.serial_secs));
            offset += ns(phase.serial_secs);
        }

        for (name, ns) in self_time_by_name(tracer.spans(), request) {
            let share = ns as f64 / wall_ns as f64;
            match name {
                "dist.phase1" => layers.push("dist.phase1_share", share),
                "dist.phase2" => layers.push("dist.phase2_share", share),
                "dist.phase3" => layers.push("dist.phase3_share", share),
                "run" => layers.push("trace.self_sum_frac", 1.0 - share),
                other => unreachable!("a job has no span named {other}"),
            }
        }
        layers.push("trace.request_ms", wall_ns as f64 / 1e6);
        let counter = |name: &str| snap.counter(name).unwrap_or(0) as f64;
        layers.push("dist.xport_envelopes", counter("xport.envelopes"));
        layers.push("dist.xport_bytes", counter("xport.bytes"));
        layers.push("dist.steals", counter("steal.steals"));
        let shuffled: usize = [&job.phase1, &job.phase2, &job.phase3]
            .iter()
            .map(|p| p.shuffle.shuffled_pairs)
            .sum();
        layers.push("dist.shuffled_pairs", shuffled as f64);
        layers.push("dist.attempts", job.total_tasks().attempts() as f64);
        push_obs_layers(&mut layers, &snap, 1.0, wall_ns as f64 / 1e6);
        snapshots.push(snap.to_json());
    }
    let (channel_p50, direct_p50) = (
        percentile_of(&channel_ms, 50.0),
        percentile_of(&direct_ms, 50.0),
    );
    layers.push("dist.transport_share", 1.0 - direct_p50 / channel_p50);
    layers.push(
        "trace.overhead_frac",
        percentile_of(&traced_ms, 50.0) / channel_p50 - 1.0,
    );
    layers.into_metrics(&mut out);
    out.latency_detail("channel_job_ms", &channel_ms);
    out.latency_detail("direct_job_ms", &direct_ms);
    out.latency_detail("traced_job_ms", &traced_ms);
    out.trace = Some(Json::Obj(vec![
        ("spans".into(), tracer.to_json()),
        ("obs".into(), Json::Arr(snapshots)),
    ]));
    out
}
