//! Analytic cluster cost model.
//!
//! The paper's Table III measures D-M2TD's three phases on a Hadoop
//! cluster while varying the server count. Re-running that measurement
//! needs a cluster; what the table *demonstrates* is a shape — compute
//! parallelizes, communication does not:
//!
//! `t_phase(W) = serial_compute / W + bytes_shuffled · net_cost · f(W) + overhead`
//!
//! with `f(W) = (W − 1)/W` (the fraction of shuffled data that crosses
//! server boundaries under uniform hash partitioning). The model yields
//! phase-3 dominance and diminishing returns in `W` for exactly the reason
//! the paper gives: "allocating more servers indeed helps bring the cost
//! of this phase down; however, there are diminishing returns due to data
//! communication overheads."
//!
//! [`FailureModel`] extends the phase cost to expected time under task
//! failure: retries inflate compute by `1/(1 − f)` and stragglers add a
//! speculation-capped delay term, preserving the diminishing-returns
//! shape in `W`.

use crate::mapreduce::ShuffleStats;

/// Expected-time-under-failure extension of [`ClusterModel`].
///
/// With per-attempt failure probability `f`, a task's expected attempt
/// count is the geometric series `1/(1 − f)`, inflating the parallelizable
/// compute share. Stragglers (probability `s` per task) each cost at most
/// the speculation threshold `d`, because a backup copy is launched then;
/// tasks run in `W`-wide waves, so the straggler term decays as more
/// servers absorb the delayed tasks. Both terms leave the communication
/// term untouched, so the diminishing-returns shape in `W` is preserved.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureModel {
    /// Per-attempt task failure probability, in `[0, 1)`.
    pub failure_rate: f64,
    /// Per-task straggle probability, in `[0, 1]`.
    pub straggle_rate: f64,
    /// Seconds after which a speculative backup copy is launched — the
    /// cap on what any one straggler can cost.
    pub speculate_after_secs: f64,
}

impl FailureModel {
    /// A failure-free model: no retry inflation, no straggler delay.
    pub fn none() -> Self {
        Self {
            failure_rate: 0.0,
            straggle_rate: 0.0,
            speculate_after_secs: 5.0,
        }
    }

    /// Expected attempts per task: the geometric series `1/(1 − f)`.
    pub fn retry_inflation(&self) -> f64 {
        let f = self.failure_rate.clamp(0.0, 0.999_999);
        1.0 / (1.0 - f)
    }
}

/// Cost of one phase under the model, in (virtual) seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseCost {
    /// Parallelizable compute share.
    pub compute: f64,
    /// Non-parallelizable communication share.
    pub communication: f64,
    /// Fixed coordination overhead.
    pub overhead: f64,
}

impl PhaseCost {
    /// Total phase time.
    pub fn total(&self) -> f64 {
        self.compute + self.communication + self.overhead
    }
}

/// An analytic model of a `W`-server cluster.
#[derive(Debug, Clone, Copy)]
pub struct ClusterModel {
    /// Number of servers `W`.
    pub servers: usize,
    /// Seconds of network cost per shuffled key/value pair.
    pub net_secs_per_pair: f64,
    /// Fixed per-job coordination overhead in seconds (job setup,
    /// scheduling, stragglers).
    pub overhead_secs: f64,
}

impl ClusterModel {
    /// A model with defaults calibrated to make a Hadoop-like deployment:
    /// visible communication costs and per-job overheads.
    pub fn new(servers: usize) -> Self {
        Self {
            servers: servers.max(1),
            net_secs_per_pair: 5e-8,
            overhead_secs: 0.02,
        }
    }

    /// Cost of a phase given its measured serial compute time and the
    /// shuffle statistics of the corresponding MapReduce job.
    pub fn phase_cost(&self, serial_compute_secs: f64, stats: &ShuffleStats) -> PhaseCost {
        let w = self.servers as f64;
        let cross_fraction = (w - 1.0) / w;
        PhaseCost {
            compute: serial_compute_secs / w,
            communication: stats.shuffled_pairs as f64 * self.net_secs_per_pair * cross_fraction,
            overhead: self.overhead_secs,
        }
    }

    /// Expected cost of a phase under a [`FailureModel`].
    ///
    /// The compute share is inflated by the expected attempt count
    /// `1/(1 − f)` (failed attempts redo their work), and the overhead
    /// share gains a straggler term: with `g` reduce groups run in
    /// `W`-wide waves, the expected number of straggling *waves* is
    /// `s · ⌈g / W⌉`, each delaying the phase by at most the speculation
    /// threshold. Expected time is monotone increasing in `failure_rate`
    /// and still shows diminishing returns in `W`:
    ///
    /// ```
    /// use m2td_dist::{ClusterModel, FailureModel, ShuffleStats};
    /// let stats = ShuffleStats { shuffled_pairs: 100_000, reduce_groups: 64 };
    /// let fm = |f| FailureModel { failure_rate: f, straggle_rate: 0.05, speculate_after_secs: 5.0 };
    /// let t = |w: usize, f: f64| ClusterModel::new(w).phase_cost_under_failure(40.0, &stats, &fm(f)).total();
    /// // Monotone in the failure rate at fixed W…
    /// assert!(t(8, 0.0) < t(8, 0.1) && t(8, 0.1) < t(8, 0.3) && t(8, 0.3) < t(8, 0.6));
    /// // …and diminishing returns in W at a fixed failure rate.
    /// let (t2, t4, t8, t16) = (t(2, 0.3), t(4, 0.3), t(8, 0.3), t(16, 0.3));
    /// assert!(t2 > t4 && t4 > t8 && t8 > t16);
    /// assert!(t2 - t4 > t4 - t8 && t4 - t8 > t8 - t16);
    /// ```
    pub fn phase_cost_under_failure(
        &self,
        serial_compute_secs: f64,
        stats: &ShuffleStats,
        failures: &FailureModel,
    ) -> PhaseCost {
        let base = self.phase_cost(serial_compute_secs, stats);
        let w = self.servers as f64;
        let waves = (stats.reduce_groups.max(1) as f64 / w).ceil();
        let straggle_secs =
            failures.straggle_rate.clamp(0.0, 1.0) * waves * failures.speculate_after_secs.max(0.0);
        PhaseCost {
            compute: base.compute * failures.retry_inflation(),
            communication: base.communication,
            overhead: base.overhead + straggle_secs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(pairs: usize) -> ShuffleStats {
        ShuffleStats {
            shuffled_pairs: pairs,
            reduce_groups: pairs / 10 + 1,
        }
    }

    #[test]
    fn single_server_has_no_communication() {
        let m = ClusterModel::new(1);
        let c = m.phase_cost(10.0, &stats(1_000_000));
        assert_eq!(c.communication, 0.0);
        assert_eq!(c.compute, 10.0);
    }

    #[test]
    fn compute_scales_inversely_with_servers() {
        let c4 = ClusterModel::new(4).phase_cost(8.0, &stats(0));
        let c8 = ClusterModel::new(8).phase_cost(8.0, &stats(0));
        assert_eq!(c4.compute, 2.0);
        assert_eq!(c8.compute, 1.0);
    }

    #[test]
    fn diminishing_returns_with_communication() {
        // With real shuffle volume, doubling servers less than halves the
        // total time, and the marginal gain shrinks.
        let s = stats(10_000_000);
        let t = |w| ClusterModel::new(w).phase_cost(100.0, &s).total();
        let (t2, t4, t8, t16) = (t(2), t(4), t(8), t(16));
        assert!(t4 < t2 && t8 < t4 && t16 < t8, "more servers must help");
        let gain1 = t2 - t4;
        let gain2 = t4 - t8;
        let gain3 = t8 - t16;
        assert!(
            gain1 > gain2 && gain2 > gain3,
            "gains must diminish: {gain1} {gain2} {gain3}"
        );
    }

    #[test]
    fn communication_grows_with_shuffle_volume() {
        let m = ClusterModel::new(8);
        let small = m.phase_cost(1.0, &stats(1_000));
        let big = m.phase_cost(1.0, &stats(1_000_000));
        assert!(big.communication > small.communication);
        assert!(big.total() > small.total());
    }

    #[test]
    fn zero_servers_clamped() {
        assert_eq!(ClusterModel::new(0).servers, 1);
    }

    #[test]
    fn expected_time_monotone_in_failure_rate() {
        let s = stats(500_000);
        let m = ClusterModel::new(6);
        let t = |f: f64| {
            let fm = FailureModel {
                failure_rate: f,
                straggle_rate: 0.1,
                speculate_after_secs: 5.0,
            };
            m.phase_cost_under_failure(60.0, &s, &fm).total()
        };
        let mut prev = t(0.0);
        for f in [0.05, 0.1, 0.2, 0.4, 0.6, 0.8] {
            let cur = t(f);
            assert!(cur > prev, "t({f}) = {cur} not > {prev}");
            prev = cur;
        }
    }

    #[test]
    fn failure_free_model_matches_base_cost() {
        let s = stats(100_000);
        let m = ClusterModel::new(4);
        let base = m.phase_cost(10.0, &s);
        let under = m.phase_cost_under_failure(10.0, &s, &FailureModel::none());
        assert_eq!(base.compute, under.compute);
        assert_eq!(base.communication, under.communication);
        assert_eq!(base.overhead, under.overhead);
    }

    #[test]
    fn diminishing_returns_survive_failures() {
        let s = stats(10_000_000);
        let fm = FailureModel {
            failure_rate: 0.3,
            straggle_rate: 0.1,
            speculate_after_secs: 5.0,
        };
        let t = |w| {
            ClusterModel::new(w)
                .phase_cost_under_failure(100.0, &s, &fm)
                .total()
        };
        let (t2, t4, t8, t16) = (t(2), t(4), t(8), t(16));
        assert!(t4 < t2 && t8 < t4 && t16 < t8, "more servers must help");
        assert!(
            t2 - t4 > t4 - t8 && t4 - t8 > t8 - t16,
            "gains must diminish under failures too"
        );
    }

    #[test]
    fn retry_inflation_is_geometric() {
        let fm = |f| FailureModel {
            failure_rate: f,
            straggle_rate: 0.0,
            speculate_after_secs: 5.0,
        };
        assert_eq!(fm(0.0).retry_inflation(), 1.0);
        assert!((fm(0.5).retry_inflation() - 2.0).abs() < 1e-12);
        assert!((fm(0.75).retry_inflation() - 4.0).abs() < 1e-12);
    }
}
