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

use crate::mapreduce::ShuffleStats;

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
}
