//! Reusable buffer pool for TTM chains and HOOI sweeps.
//!
//! Every step of a core-recovery chain needs an output buffer sized by
//! its intermediate tensor; HOOI repeats the chain every sweep. Without
//! reuse that is one allocation per mode per sweep. [`Workspace`] keeps
//! retired buffers and hands the largest one back on the next request, so
//! a chain settles into steady state with zero allocator traffic after
//! the first step.
//!
//! Buffers are plain `Vec<f64>`; [`Workspace::take`] returns them zeroed
//! (zeroing is cheap next to the products they feed), so reuse can never
//! change a numerical result — the kernels see exactly the freshly
//! allocated state they would otherwise have.

/// Retired buffers kept beyond this count are dropped (largest-first
/// retention), bounding the pool's memory to the few live intermediates a
/// chain actually cycles through.
const MAX_POOLED: usize = 8;

/// A pool of reusable `f64` buffers for tensor/matrix intermediates.
#[derive(Debug, Default)]
pub struct Workspace {
    pool: Vec<Vec<f64>>,
    takes: usize,
    hits: usize,
}

impl Workspace {
    /// Creates an empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a zeroed buffer of length `len`, reusing the pooled buffer
    /// with the largest capacity when one is available.
    pub fn take(&mut self, len: usize) -> Vec<f64> {
        self.takes += 1;
        let best = (0..self.pool.len()).max_by_key(|&i| self.pool[i].capacity());
        match best {
            Some(i) => {
                self.hits += 1;
                let mut buf = self.pool.swap_remove(i);
                buf.clear();
                buf.resize(len, 0.0);
                buf
            }
            None => vec![0.0; len],
        }
    }

    /// Returns a buffer to the pool for later reuse.
    pub fn recycle(&mut self, buf: Vec<f64>) {
        if buf.capacity() == 0 {
            return;
        }
        self.pool.push(buf);
        if self.pool.len() > MAX_POOLED {
            // Drop the smallest buffer: big intermediates are the ones
            // worth keeping.
            if let Some(i) = (0..self.pool.len()).min_by_key(|&i| self.pool[i].capacity()) {
                self.pool.swap_remove(i);
            }
        }
    }

    /// Recycles a dense tensor's backing buffer.
    pub fn recycle_tensor(&mut self, t: crate::DenseTensor) {
        self.recycle(t.into_vec());
    }

    /// Number of [`Self::take`] requests served from the pool.
    pub fn reuse_hits(&self) -> usize {
        self.hits
    }

    /// Total number of [`Self::take`] requests.
    pub fn takes(&self) -> usize {
        self.takes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_after_recycle_reuses_and_zeroes() {
        let mut ws = Workspace::new();
        let mut buf = ws.take(16);
        buf.iter_mut().for_each(|x| *x = 3.0);
        ws.recycle(buf);
        let again = ws.take(8);
        assert_eq!(again, vec![0.0; 8]);
        assert_eq!(ws.reuse_hits(), 1);
        assert_eq!(ws.takes(), 2);
    }

    #[test]
    fn pool_is_bounded() {
        let mut ws = Workspace::new();
        for i in 1..=2 * MAX_POOLED {
            ws.recycle(vec![0.0; i]);
        }
        assert!(ws.pool.len() <= MAX_POOLED);
        // Largest buffers are retained.
        assert!(ws.pool.iter().any(|b| b.capacity() >= 2 * MAX_POOLED - 1));
    }
}
