//! The triple pendulum with variable friction (Section VII-A).
//!
//! Ensemble parameters: the three initial angles `φ₁, φ₂, φ₃` and the
//! system friction `f`. The equations of motion come from the standard
//! `n`-link point-mass chain Lagrangian: `M(θ) θ̈ = b(θ, ω) − f ω`, where
//! the (symmetric positive-definite) mass matrix is
//! `M_ij = (Σ_{k ≥ max(i,j)} m_k) l_i l_j cos(θ_i − θ_j)` and
//! `b_i = −Σ_j (Σ_{k ≥ max(i,j)} m_k) l_i l_j sin(θ_i − θ_j) ω_j²
//!        − (Σ_{k ≥ i} m_k) g l_i sin θ_i`.
//!
//! The state-independent products `(Σ_{k ≥ max(i,j)} m_k) l_i l_j` and
//! `(Σ_{k ≥ i} m_k) g l_i` are computed once per trajectory. Each
//! derivative evaluation then fills `M` and `b` on the stack and solves the
//! 3×3 system in place with `m2td_linalg`'s Cholesky kernel, so the RK4
//! inner loop performs no heap allocation.

use crate::ensemble::EnsembleSystem;
use crate::integrator::{integrate, DynamicalSystem, Trajectory};
use crate::space::{ParamAxis, ParameterSpace, TimeGrid};
use m2td_linalg::solve_spd_in_place;

/// Ensemble-level description of the damped triple pendulum.
#[derive(Debug, Clone, Copy)]
pub struct TriplePendulum {
    /// Rod lengths.
    pub lengths: [f64; 3],
    /// Bob masses (fixed; the ensemble varies angles and friction).
    pub masses: [f64; 3],
    /// Gravitational acceleration.
    pub g: f64,
}

impl Default for TriplePendulum {
    fn default() -> Self {
        Self {
            lengths: [1.0, 1.0, 1.0],
            masses: [1.0, 1.0, 1.0],
            g: 9.81,
        }
    }
}

/// Right-hand side of one trajectory, with its constant products hoisted.
struct Dynamics {
    /// `coef[i][j] = (Σ_{k ≥ max(i,j)} m_k) · l_i · l_j`.
    coef: [[f64; 3]; 3],
    /// `grav[i] = (Σ_{k ≥ i} m_k) · g · l_i`.
    grav: [f64; 3],
    friction: f64,
}

impl Dynamics {
    fn new(p: &TriplePendulum, friction: f64) -> Self {
        let l = &p.lengths;
        // `Σ_{k ≥ i} m_k`.
        let tail_mass = |i: usize| -> f64 { p.masses[i..].iter().sum() };
        let mut coef = [[0.0; 3]; 3];
        let mut grav = [0.0; 3];
        for i in 0..3 {
            for j in 0..3 {
                coef[i][j] = tail_mass(i.max(j)) * l[i] * l[j];
            }
            grav[i] = tail_mass(i) * p.g * l[i];
        }
        Self {
            coef,
            grav,
            friction,
        }
    }
}

impl DynamicalSystem for Dynamics {
    fn dim(&self) -> usize {
        6
    }

    fn derivative(&self, _t: f64, s: &[f64], out: &mut [f64]) {
        let theta = &s[0..3];
        let omega = &s[3..6];

        let mut m = [0.0f64; 9];
        let mut b = [0.0f64; 3];
        for i in 0..3 {
            for j in 0..3 {
                let mij = self.coef[i][j];
                m[i * 3 + j] = mij * (theta[i] - theta[j]).cos();
                b[i] -= mij * (theta[i] - theta[j]).sin() * omega[j] * omega[j];
            }
            b[i] -= self.grav[i] * theta[i].sin();
            b[i] -= self.friction * omega[i];
        }

        // Solved in place: `b` becomes the angular accelerations `θ̈`.
        let mut l = [0.0f64; 9];
        if solve_spd_in_place(&m, 3, &mut l, &mut b).is_err() {
            // The mass matrix is SPD for physical masses/lengths; a failed
            // solve can only come from non-finite state. Freeze the system
            // rather than poison the ensemble with NaNs.
            b = [0.0; 3];
        }
        out[0] = omega[0];
        out[1] = omega[1];
        out[2] = omega[2];
        out[3] = b[0];
        out[4] = b[1];
        out[5] = b[2];
    }
}

impl EnsembleSystem for TriplePendulum {
    fn name(&self) -> &'static str {
        "triple_pendulum"
    }

    fn param_names(&self) -> Vec<&'static str> {
        vec!["phi1", "phi2", "phi3", "friction"]
    }

    fn default_space(&self, resolution: usize) -> ParameterSpace {
        ParameterSpace::new(vec![
            ParamAxis::linspace("phi1", 0.2, 1.2, resolution),
            ParamAxis::linspace("phi2", 0.2, 1.2, resolution),
            ParamAxis::linspace("phi3", 0.2, 1.2, resolution),
            ParamAxis::linspace("friction", 0.0, 0.8, resolution),
        ])
    }

    fn simulate(&self, params: &[f64], grid: &TimeGrid) -> Trajectory {
        debug_assert_eq!(params.len(), 4);
        let dyn_sys = Dynamics::new(self, params[3]);
        let initial = [params[0], params[1], params[2], 0.0, 0.0, 0.0];
        integrate(
            &dyn_sys,
            &initial,
            0.0,
            grid.sample_dt(),
            grid.steps,
            grid.substeps,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m2td_linalg::{solve_spd, Matrix};

    /// The original right-hand side: `M` in a `Matrix::zeros(3, 3)`, the
    /// tail masses re-summed per element, and the allocating `solve_spd`.
    fn reference_derivative(p: &TriplePendulum, friction: f64, s: &[f64], out: &mut [f64]) {
        let tail_mass = |i: usize| -> f64 { p.masses[i..].iter().sum() };
        let theta = &s[0..3];
        let omega = &s[3..6];
        let l = &p.lengths;
        let mut m = Matrix::zeros(3, 3);
        let mut b = [0.0f64; 3];
        for i in 0..3 {
            for j in 0..3 {
                let mij = tail_mass(i.max(j)) * l[i] * l[j];
                m.set(i, j, mij * (theta[i] - theta[j]).cos());
                b[i] -= mij * (theta[i] - theta[j]).sin() * omega[j] * omega[j];
            }
            b[i] -= tail_mass(i) * p.g * l[i] * theta[i].sin();
            b[i] -= friction * omega[i];
        }
        let acc = solve_spd(&m, &b).unwrap_or_else(|_| vec![0.0; 3]);
        out[..3].copy_from_slice(omega);
        out[3..].copy_from_slice(&acc);
    }

    /// splitmix64 mapped to `[lo, hi)`.
    fn uniform(state: &mut u64, lo: f64, hi: f64) -> f64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        lo + (hi - lo) * ((z >> 11) as f64 / (1u64 << 53) as f64)
    }

    #[test]
    fn derivative_matches_the_allocating_reference_bitwise() {
        let pendulums = [
            TriplePendulum::default(),
            TriplePendulum {
                lengths: [0.9, 1.3, 0.7],
                masses: [1.7, 0.6, 2.3],
                g: 9.80665,
            },
        ];
        let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        let mut rng = 2026u64;
        let mut fallbacks = 0;
        for p in &pendulums {
            for case in 0..400 {
                let friction = uniform(&mut rng, 0.0, 2.0);
                let mut s: Vec<f64> = (0..6).map(|_| uniform(&mut rng, -4.0, 4.0)).collect();
                // Every fifth state carries a non-finite angle or velocity.
                if case % 5 == 0 {
                    let slot = (case / 5) % 6;
                    s[slot] = specials[(case / 30) % 3];
                }
                let mut got = [0.0; 6];
                let mut want = [0.0; 6];
                Dynamics::new(p, friction).derivative(0.0, &s, &mut got);
                reference_derivative(p, friction, &s, &mut want);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "state {s:?}, friction {friction}");
                if !s[..3].iter().all(|t| t.is_finite()) {
                    // A non-finite angle breaks the SPD solve: both sides
                    // freeze the accelerations at zero.
                    assert_eq!(&got[3..], &[0.0; 3]);
                    fallbacks += 1;
                }
            }
        }
        assert!(
            fallbacks >= 30,
            "only {fallbacks} states took the zero fallback"
        );
    }

    fn grid() -> TimeGrid {
        TimeGrid::new(2.0, 10, 100)
    }

    #[test]
    fn friction_damps_the_motion() {
        let sys = TriplePendulum::default();
        let free = sys.simulate(&[0.8, 0.6, 0.4, 0.0], &TimeGrid::new(8.0, 20, 100));
        let damped = sys.simulate(&[0.8, 0.6, 0.4, 2.0], &TimeGrid::new(8.0, 20, 100));
        let speed = |traj: &Trajectory, k: usize| {
            let s = traj.state(k);
            (s[3] * s[3] + s[4] * s[4] + s[5] * s[5]).sqrt()
        };
        let last = free.len() - 1;
        assert!(
            speed(&damped, last) < 0.5 * speed(&free, last).max(0.2),
            "friction did not damp: free {} vs damped {}",
            speed(&free, last),
            speed(&damped, last)
        );
    }

    #[test]
    fn undamped_energy_is_conserved() {
        let sys = TriplePendulum::default();
        let l = sys.lengths;
        let m = sys.masses;
        let g = sys.g;
        let energy = |s: &[f64]| {
            // Cartesian velocities of the three bobs.
            let mut kin = 0.0;
            let mut pot = 0.0;
            let mut vx = 0.0;
            let mut vy = 0.0;
            let mut y = 0.0;
            for i in 0..3 {
                vx += l[i] * s[3 + i] * s[i].cos();
                vy += l[i] * s[3 + i] * s[i].sin();
                y -= l[i] * s[i].cos();
                kin += 0.5 * m[i] * (vx * vx + vy * vy);
                pot += m[i] * g * y;
            }
            kin + pot
        };
        let traj = sys.simulate(&[0.6, 0.4, 0.2, 0.0], &TimeGrid::new(2.0, 20, 400));
        let e0 = energy(traj.state(0));
        let e_end = energy(traj.state(traj.len() - 1));
        assert!(
            (e_end - e0).abs() < 1e-3 * e0.abs().max(1.0),
            "energy drifted {e0} -> {e_end}"
        );
    }

    #[test]
    fn every_parameter_matters() {
        let sys = TriplePendulum::default();
        let base = sys.simulate(&[0.6, 0.5, 0.4, 0.2], &grid());
        for p in 0..4 {
            let mut params = [0.6, 0.5, 0.4, 0.2];
            params[p] += 0.3;
            let other = sys.simulate(&params, &grid());
            assert!(
                base.state_distance(&other, base.len() - 1) > 1e-4,
                "parameter {p} had no effect"
            );
        }
    }

    #[test]
    fn hangs_still_at_zero_angles() {
        let sys = TriplePendulum::default();
        let traj = sys.simulate(&[0.0, 0.0, 0.0, 0.0], &grid());
        for k in 0..traj.len() {
            for v in traj.state(k) {
                assert!(v.abs() < 1e-12);
            }
        }
    }

    #[test]
    fn metadata() {
        let sys = TriplePendulum::default();
        assert_eq!(sys.param_names(), vec!["phi1", "phi2", "phi3", "friction"]);
        assert_eq!(sys.default_space(5).num_configs(), 625);
        assert_eq!(sys.name(), "triple_pendulum");
    }
}
