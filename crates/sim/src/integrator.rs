//! Fixed-step fourth-order Runge–Kutta integration.
//!
//! [`integrate`] and its RK4 step are generic over the system, so each
//! system's `derivative` is statically dispatched and inlined into the
//! step; `&dyn DynamicalSystem` callers still work (`S = dyn
//! DynamicalSystem`). The stage buffers are allocated once per trajectory.

/// A continuous-time dynamical system `ẋ = f(t, x)`.
pub trait DynamicalSystem {
    /// State dimension.
    fn dim(&self) -> usize;

    /// Writes `f(t, state)` into `out` (`out.len() == dim()`).
    fn derivative(&self, t: f64, state: &[f64], out: &mut [f64]);
}

/// A trajectory sampled at uniform time stamps; states are stored flat.
#[derive(Debug, Clone, PartialEq)]
pub struct Trajectory {
    dim: usize,
    times: Vec<f64>,
    states: Vec<f64>,
}

impl Trajectory {
    /// Number of stored time stamps.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// `true` when no samples are stored.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// State dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Time of sample `k`.
    pub fn time(&self, k: usize) -> f64 {
        self.times[k]
    }

    /// State at sample `k`.
    pub fn state(&self, k: usize) -> &[f64] {
        &self.states[k * self.dim..(k + 1) * self.dim]
    }

    /// Euclidean distance between this trajectory's state and another's at
    /// the same sample index. This is the paper's ensemble cell value
    /// (Section VII-B): the distance between a simulated state and the
    /// observed configuration at a time stamp.
    pub fn state_distance(&self, other: &Trajectory, k: usize) -> f64 {
        debug_assert_eq!(self.dim, other.dim);
        let a = self.state(k);
        let b = other.state(k);
        let mut acc = 0.0;
        for (x, y) in a.iter().zip(b.iter()) {
            let d = x - y;
            acc += d * d;
        }
        acc.sqrt()
    }
}

/// Integrates `sys` from `initial` over `[t0, t0 + n_samples * sample_dt]`,
/// recording a sample every `sample_dt` with `substeps` RK4 steps between
/// consecutive samples. The initial state is recorded as sample 0, so the
/// returned trajectory holds `n_samples + 1` states.
pub fn integrate<S: DynamicalSystem + ?Sized>(
    sys: &S,
    initial: &[f64],
    t0: f64,
    sample_dt: f64,
    n_samples: usize,
    substeps: usize,
) -> Trajectory {
    let dim = sys.dim();
    debug_assert_eq!(initial.len(), dim);
    let substeps = substeps.max(1);
    let h = sample_dt / substeps as f64;

    let mut state = initial.to_vec();
    let mut t = t0;
    let mut times = Vec::with_capacity(n_samples + 1);
    let mut states = Vec::with_capacity((n_samples + 1) * dim);
    times.push(t);
    states.extend_from_slice(&state);

    // Scratch buffers reused across all steps.
    let mut k1 = vec![0.0; dim];
    let mut k2 = vec![0.0; dim];
    let mut k3 = vec![0.0; dim];
    let mut k4 = vec![0.0; dim];
    let mut tmp = vec![0.0; dim];

    for _ in 0..n_samples {
        for _ in 0..substeps {
            rk4_step(
                sys, t, &mut state, h, &mut k1, &mut k2, &mut k3, &mut k4, &mut tmp,
            );
            t += h;
        }
        times.push(t);
        states.extend_from_slice(&state);
    }
    Trajectory { dim, times, states }
}

/// One classic RK4 step in place.
#[allow(clippy::too_many_arguments)]
fn rk4_step<S: DynamicalSystem + ?Sized>(
    sys: &S,
    t: f64,
    state: &mut [f64],
    h: f64,
    k1: &mut [f64],
    k2: &mut [f64],
    k3: &mut [f64],
    k4: &mut [f64],
    tmp: &mut [f64],
) {
    let dim = state.len();
    sys.derivative(t, state, k1);
    for i in 0..dim {
        tmp[i] = state[i] + 0.5 * h * k1[i];
    }
    sys.derivative(t + 0.5 * h, tmp, k2);
    for i in 0..dim {
        tmp[i] = state[i] + 0.5 * h * k2[i];
    }
    sys.derivative(t + 0.5 * h, tmp, k3);
    for i in 0..dim {
        tmp[i] = state[i] + h * k3[i];
    }
    sys.derivative(t + h, tmp, k4);
    for i in 0..dim {
        state[i] += h / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// ẋ = -x, solution x(t) = x0 e^{-t}.
    struct Decay;
    impl DynamicalSystem for Decay {
        fn dim(&self) -> usize {
            1
        }
        fn derivative(&self, _t: f64, state: &[f64], out: &mut [f64]) {
            out[0] = -state[0];
        }
    }

    /// Harmonic oscillator: ẍ = -x.
    struct Oscillator;
    impl DynamicalSystem for Oscillator {
        fn dim(&self) -> usize {
            2
        }
        fn derivative(&self, _t: f64, s: &[f64], out: &mut [f64]) {
            out[0] = s[1];
            out[1] = -s[0];
        }
    }

    #[test]
    fn exponential_decay_matches_analytic() {
        let traj = integrate(&Decay, &[1.0], 0.0, 0.1, 10, 10);
        assert_eq!(traj.len(), 11);
        for k in 0..=10 {
            let t = 0.1 * k as f64;
            let exact = (-t).exp();
            assert!(
                (traj.state(k)[0] - exact).abs() < 1e-9,
                "at t={t}: {} vs {exact}",
                traj.state(k)[0]
            );
        }
    }

    #[test]
    fn oscillator_conserves_energy() {
        let traj = integrate(&Oscillator, &[1.0, 0.0], 0.0, 0.1, 100, 20);
        for k in 0..traj.len() {
            let s = traj.state(k);
            let energy = s[0] * s[0] + s[1] * s[1];
            assert!((energy - 1.0).abs() < 1e-8, "energy drift at {k}: {energy}");
        }
    }

    #[test]
    fn rk4_is_fourth_order() {
        // Halving the step should reduce error by ~16x.
        let err = |substeps: usize| {
            let traj = integrate(&Decay, &[1.0], 0.0, 1.0, 1, substeps);
            (traj.state(1)[0] - (-1.0f64).exp()).abs()
        };
        let e1 = err(4);
        let e2 = err(8);
        let ratio = e1 / e2;
        assert!(ratio > 12.0 && ratio < 20.0, "order ratio {ratio}");
    }

    #[test]
    fn trajectory_accessors() {
        let traj = integrate(&Oscillator, &[0.5, -0.5], 1.0, 0.25, 4, 5);
        assert_eq!(traj.dim(), 2);
        assert_eq!(traj.len(), 5);
        assert!((traj.time(0) - 1.0).abs() < 1e-12);
        assert!((traj.time(4) - 2.0).abs() < 1e-9);
        assert_eq!(traj.state(0), &[0.5, -0.5]);
        assert!(!traj.is_empty());
    }

    #[test]
    fn state_distance_is_euclidean() {
        let a = integrate(&Oscillator, &[1.0, 0.0], 0.0, 0.1, 2, 5);
        let b = integrate(&Oscillator, &[1.0, 0.0], 0.0, 0.1, 2, 5);
        assert_eq!(a.state_distance(&b, 2), 0.0);
        let c = integrate(&Oscillator, &[2.0, 0.0], 0.0, 0.1, 0, 5);
        assert!((a.state_distance(&c, 0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn static_and_dynamic_dispatch_agree() {
        let sys: &dyn DynamicalSystem = &Oscillator;
        let dynamic = integrate(sys, &[0.3, -0.7], 0.0, 0.1, 20, 7);
        let stat = integrate(&Oscillator, &[0.3, -0.7], 0.0, 0.1, 20, 7);
        assert_eq!(dynamic, stat);
    }

    #[test]
    fn substeps_zero_is_clamped() {
        let traj = integrate(&Decay, &[1.0], 0.0, 0.5, 2, 0);
        assert_eq!(traj.len(), 3); // behaves as substeps = 1
    }
}
