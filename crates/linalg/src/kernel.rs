//! Cache-blocked, panel-packed GEMM backend (DESIGN.md §16).
//!
//! All four dense mult entry points on [`crate::Matrix`] route through
//! the crate-private `gemm` once they clear [`BLOCKED_MIN_FLOPS`]. The
//! driver follows the classic GotoBLAS/BLIS decomposition: the output is
//! cut into `NC × MC` macro-tiles, each tile walks the shared dimension
//! in `KC` blocks, packing an `MC × KC` A-block into row micro-panels of
//! height [`MR`] and a `KC × NC` B-block into column micro-panels of
//! width [`NR`], and an unrolled `MR × NR` register micro-kernel
//! accumulates each `KC` block before flushing it into the output. Packing buffers come from a
//! process-wide pool (the `m2td-tensor` `Workspace` idea pushed down into
//! linalg) so steady-state GEMMs allocate nothing.
//!
//! # Determinism
//!
//! The accumulation order of every output element is a pure function of
//! the problem shape: `KC` blocks ascend, `k` ascends within a block, and
//! each block's contribution is added exactly once. Macro-tiles own
//! disjoint output ranges and are scheduled over `m2td_par::par_tiles`,
//! so which worker runs a tile can never change its arithmetic — results
//! are bitwise identical at every thread count by construction. Note the
//! blocked result is *not* required to be bitwise equal to the
//! row-streaming kernel's (the summation order differs); equality across
//! thread counts is the contract.

use m2td_par::UnsafeSlice;
use std::sync::Mutex;

/// Micro-kernel register tile height (rows of C per inner kernel).
pub const MR: usize = 4;
/// Micro-kernel register tile width (cols of C per inner kernel).
pub const NR: usize = 8;
/// Rows of A packed per macro-tile (L2-sized: `MC·KC` doubles ≈ 128 KiB).
pub const MC: usize = 64;
/// Shared-dimension depth per packed block (keeps an `MR·KC` A micro-panel
/// plus an `NR·KC` B micro-panel resident in L1).
pub const KC: usize = 256;
/// Columns of B packed per macro-tile.
pub const NC: usize = 512;

/// Minimum multiply-add count before the blocked path takes over; below
/// this the packing traffic costs more than it saves and the simple
/// row-streaming kernels in `matrix.rs` win.
pub const BLOCKED_MIN_FLOPS: usize = 128 * 1024;

/// Process-wide pool of packing buffers. A thread-local would not survive
/// `m2td-par`'s scoped per-call workers, so a mutexed free list is used
/// instead; each worker takes its two panels once per GEMM call, so the
/// lock is touched O(threads) times per product, not per tile.
static PANEL_POOL: Mutex<Vec<Vec<f64>>> = Mutex::new(Vec::new());

/// Bound on pooled buffers so pathological shapes cannot pin memory.
const MAX_POOLED: usize = 16;

fn pool_take() -> Vec<f64> {
    PANEL_POOL.lock().unwrap().pop().unwrap_or_default()
}

fn pool_put(mut v: Vec<f64>) {
    v.clear();
    let mut pool = PANEL_POOL.lock().unwrap();
    if pool.len() < MAX_POOLED {
        pool.push(v);
    } else if let Some(smallest) = pool
        .iter_mut()
        .min_by_key(|b| b.capacity())
        .filter(|b| b.capacity() < v.capacity())
    {
        *smallest = v;
    }
}

/// Per-worker packing scratch; panels return to the pool on drop.
struct Panels {
    a: Vec<f64>,
    b: Vec<f64>,
}

impl Panels {
    fn take() -> Self {
        Panels {
            a: pool_take(),
            b: pool_take(),
        }
    }
}

impl Drop for Panels {
    fn drop(&mut self) {
        pool_put(std::mem::take(&mut self.a));
        pool_put(std::mem::take(&mut self.b));
    }
}

/// Number of pooled panel buffers currently idle (test/bench hook).
#[doc(hidden)]
pub fn pooled_panels() -> usize {
    PANEL_POOL.lock().unwrap().len()
}

/// Packs the `mt × kc` block of logical A starting at `(i0, pc)` into row
/// micro-panels of height `MR`: panel `p` holds rows `i0 + p·MR ..` laid
/// out `k`-major (`panel[p·kc·MR + l·MR + r]`), zero-padded in the row
/// direction (never in `k`) so edge tiles accumulate exactly the valid
/// products.
///
/// `a` is `m × k` row-major when `trans` is false, `k × m` row-major when
/// true (the logical operand is then the stored transpose).
#[allow(clippy::too_many_arguments)]
fn pack_a(
    panel: &mut Vec<f64>,
    a: &[f64],
    trans: bool,
    m: usize,
    k: usize,
    i0: usize,
    mt: usize,
    pc: usize,
    kc: usize,
) {
    let mp = mt.div_ceil(MR);
    panel.clear();
    panel.reserve(mp * kc * MR);
    for p in 0..mp {
        let rbase = i0 + p * MR;
        if trans {
            // A(i, l) = a[l·m + i]: each l reads a contiguous row run.
            for l in pc..pc + kc {
                let row = &a[l * m..l * m + m];
                for r in 0..MR {
                    let i = rbase + r;
                    panel.push(if i < i0 + mt { row[i] } else { 0.0 });
                }
            }
        } else {
            // A(i, l) = a[i·k + l]: MR parallel streams, each contiguous.
            for l in pc..pc + kc {
                for r in 0..MR {
                    let i = rbase + r;
                    panel.push(if i < i0 + mt { a[i * k + l] } else { 0.0 });
                }
            }
        }
    }
}

/// Packs the `kc × nt` block of logical B starting at `(pc, j0)` into
/// column micro-panels of width `NR` (`panel[q·kc·NR + l·NR + c]`),
/// zero-padded in the column direction only.
///
/// `b` is `k × n` row-major when `trans` is false, `n × k` row-major when
/// true.
#[allow(clippy::too_many_arguments)]
fn pack_b(
    panel: &mut Vec<f64>,
    b: &[f64],
    trans: bool,
    k: usize,
    n: usize,
    j0: usize,
    nt: usize,
    pc: usize,
    kc: usize,
) {
    let np = nt.div_ceil(NR);
    panel.clear();
    panel.reserve(np * kc * NR);
    for q in 0..np {
        let cbase = j0 + q * NR;
        if trans {
            // B(l, j) = b[j·k + l]: NR strided streams.
            for l in pc..pc + kc {
                for c in 0..NR {
                    let j = cbase + c;
                    panel.push(if j < j0 + nt { b[j * k + l] } else { 0.0 });
                }
            }
        } else {
            // B(l, j) = b[l·n + j]: each l reads a contiguous run.
            for l in pc..pc + kc {
                let row = &b[l * n..l * n + n];
                for c in 0..NR {
                    let j = cbase + c;
                    panel.push(if j < j0 + nt { row[j] } else { 0.0 });
                }
            }
        }
    }
}

/// Accumulator tile of the micro-kernel.
type Acc = [[f64; NR]; MR];

/// Selected micro-kernel implementation. `unsafe` only because the
/// target-feature variants require their ISA to be present; the dispatch
/// in [`micro_kernel_fn`] guarantees that.
type MicroFn = unsafe fn(usize, &[f64], &[f64], &mut Acc);

/// The `MR × NR` register micro-kernel body: a rank-`kc` update of the
/// accumulator from one A row-panel and one B column-panel. Fixed-size
/// arrays and the `k`-major panel layout let rustc keep `acc` in
/// registers and auto-vectorize the `NR`-wide inner loop; `inline(always)`
/// lets the target-feature wrappers below re-instantiate the same body
/// under wider ISAs (plain mul+add, never fused, so every wrapper computes
/// bit-identical results).
#[inline(always)]
fn micro_body(kc: usize, ap: &[f64], bp: &[f64], acc: &mut Acc) {
    debug_assert!(ap.len() >= kc * MR && bp.len() >= kc * NR);
    for (av, bv) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)).take(kc) {
        let av: &[f64; MR] = av.try_into().unwrap();
        let bv: &[f64; NR] = bv.try_into().unwrap();
        for (&ar, row) in av.iter().zip(acc.iter_mut()) {
            for (cell, &bc) in row.iter_mut().zip(bv.iter()) {
                *cell += ar * bc;
            }
        }
    }
}

unsafe fn micro_portable(kc: usize, ap: &[f64], bp: &[f64], acc: &mut Acc) {
    micro_body(kc, ap, bp, acc)
}

/// # Safety
/// Requires AVX2 (checked at dispatch).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn micro_avx2(kc: usize, ap: &[f64], bp: &[f64], acc: &mut Acc) {
    micro_body(kc, ap, bp, acc)
}

/// # Safety
/// Requires AVX-512F (checked at dispatch).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn micro_avx512(kc: usize, ap: &[f64], bp: &[f64], acc: &mut Acc) {
    micro_body(kc, ap, bp, acc)
}

/// Picks the widest micro-kernel the running CPU supports. The builds in
/// this workspace target baseline x86-64 (SSE2), so without this the
/// 4×8 accumulator spills out of the 16 xmm registers; the AVX2/AVX-512
/// re-instantiations keep it resident in ymm/zmm. All variants execute
/// the same unfused mul+add sequence, so the choice affects speed only —
/// never a bit of the result.
fn micro_kernel_fn() -> MicroFn {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return micro_avx512;
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return micro_avx2;
        }
    }
    micro_portable
}

/// One `MC × NC` macro-tile of `C += A·B`: walks the shared dimension in
/// `KC` blocks, packing both operand blocks and flushing the micro-kernel
/// accumulator into `c` after each block.
#[allow(clippy::too_many_arguments)]
fn run_tile(
    micro: MicroFn,
    panels: &mut Panels,
    a: &[f64],
    a_trans: bool,
    b: &[f64],
    b_trans: bool,
    c: &UnsafeSlice<'_, f64>,
    (m, k, n): (usize, usize, usize),
    (i0, mt): (usize, usize),
    (j0, nt): (usize, usize),
) {
    let mp = mt.div_ceil(MR);
    let np = nt.div_ceil(NR);
    let mut pc = 0;
    while pc < k {
        let kc = (k - pc).min(KC);
        pack_b(&mut panels.b, b, b_trans, k, n, j0, nt, pc, kc);
        pack_a(&mut panels.a, a, a_trans, m, k, i0, mt, pc, kc);
        for q in 0..np {
            let bp = &panels.b[q * kc * NR..(q + 1) * kc * NR];
            let nr = (nt - q * NR).min(NR);
            for p in 0..mp {
                let ap = &panels.a[p * kc * MR..(p + 1) * kc * MR];
                let mr = (mt - p * MR).min(MR);
                let mut acc = [[0.0f64; NR]; MR];
                // SAFETY: `micro` came from `micro_kernel_fn`, which only
                // selects a variant whose ISA the CPU was detected to have.
                unsafe { micro(kc, ap, bp, &mut acc) };
                for (r, row) in acc.iter().enumerate().take(mr) {
                    let base = (i0 + p * MR + r) * n + j0 + q * NR;
                    for (cc, &v) in row[..nr].iter().enumerate() {
                        // SAFETY: this macro-tile exclusively owns rows
                        // `i0..i0+mt` × cols `j0..j0+nt` of `c`.
                        unsafe { c.add_assign(base + cc, v) };
                    }
                }
            }
        }
        pc += kc;
    }
}

/// Blocked product `C += op(A)·op(B)` into a pre-zeroed `m × n` row-major
/// `c`, where `op` is the identity or the transpose of the stored buffer
/// (`a` is `m × k` or, transposed, `k × m`; `b` is `k × n` or `n × k`).
///
/// With `upper_only` set (the Gram path), macro-tiles strictly below the
/// diagonal are skipped; tiles crossing the diagonal are computed in
/// full, so the caller mirrors the strict upper triangle afterwards.
/// Macro-tiles are scheduled over `m2td_par::par_tiles` with per-worker
/// pooled packing panels; see the module docs for the determinism
/// argument.
pub(crate) fn gemm(
    (m, k, n): (usize, usize, usize),
    a: &[f64],
    a_trans: bool,
    b: &[f64],
    b_trans: bool,
    c: &mut [f64],
    upper_only: bool,
) {
    debug_assert_eq!(c.len(), m * n);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let n_ic = m.div_ceil(MC);
    let n_jc = n.div_ceil(NC);
    let micro = micro_kernel_fn();
    let cview = UnsafeSlice::new(c);
    m2td_par::par_tiles(n_ic * n_jc, Panels::take, |panels, tile| {
        let (ic, jc) = (tile / n_jc, tile % n_jc);
        let i0 = ic * MC;
        let j0 = jc * NC;
        let (mt, nt) = ((m - i0).min(MC), (n - j0).min(NC));
        if upper_only && j0 + nt <= i0 {
            return;
        }
        run_tile(
            micro,
            panels,
            a,
            a_trans,
            b,
            b_trans,
            &cview,
            (m, k, n),
            (i0, mt),
            (j0, nt),
        );
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(
        (m, k, n): (usize, usize, usize),
        at: impl Fn(usize, usize) -> f64,
        bt: impl Fn(usize, usize) -> f64,
    ) -> Vec<f64> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                for l in 0..k {
                    c[i * n + j] += at(i, l) * bt(l, j);
                }
            }
        }
        c
    }

    #[test]
    fn blocked_matches_naive_on_edge_shapes() {
        // Shapes straddling every blocking boundary: micro-tile edges,
        // exact multiples, and a k crossing KC.
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (3, 5, 7),
            (4, 8, 8),
            (5, 300, 9),
            (70, 17, 530),
            (65, 257, 33),
        ] {
            let a: Vec<f64> = (0..m * k).map(|i| ((i * 37 % 23) as f64) - 11.0).collect();
            let b: Vec<f64> = (0..k * n).map(|i| ((i * 13 % 19) as f64) * 0.5).collect();
            let expect = naive((m, k, n), |i, l| a[i * k + l], |l, j| b[l * n + j]);
            let mut c = vec![0.0; m * n];
            gemm((m, k, n), &a, false, &b, false, &mut c, false);
            for (got, want) in c.iter().zip(expect.iter()) {
                assert!(
                    (got - want).abs() <= 1e-9 * want.abs().max(1.0),
                    "{m}x{k}x{n}"
                );
            }
        }
    }

    #[test]
    fn transposed_operands_match_naive() {
        let (m, k, n) = (21usize, 34usize, 29usize);
        // a stored k×m, b stored n×k.
        let a: Vec<f64> = (0..k * m).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();
        let b: Vec<f64> = (0..n * k).map(|i| ((i * 5 % 11) as f64) * 0.25).collect();
        let expect = naive((m, k, n), |i, l| a[l * m + i], |l, j| b[j * k + l]);
        let mut c = vec![0.0; m * n];
        gemm((m, k, n), &a, true, &b, true, &mut c, false);
        for (got, want) in c.iter().zip(expect.iter()) {
            assert!((got - want).abs() <= 1e-9 * want.abs().max(1.0));
        }
    }

    #[test]
    fn upper_only_fills_tiles_reaching_the_diagonal() {
        // m = n = NC + MC so the (row band NC.., col band 0..NC) macro-tile
        // sits strictly below the diagonal and must be skipped.
        let m = NC + MC;
        let a: Vec<f64> = (0..m * 5).map(|i| (i % 7) as f64 - 3.0).collect();
        let mut c = vec![0.0; m * m];
        gemm((m, 5, m), &a, false, &a, true, &mut c, true);
        assert!(c[NC * m..NC * m + NC].iter().all(|&v| v == 0.0));
        // Upper triangle is the Gram product.
        for i in 0..m {
            for j in i..m {
                let want: f64 = (0..5).map(|l| a[i * 5 + l] * a[j * 5 + l]).sum();
                assert!((c[i * m + j] - want).abs() <= 1e-9 * want.abs().max(1.0));
            }
        }
    }

    #[test]
    fn panel_pool_recycles() {
        let before = pooled_panels();
        let a = vec![1.0; 64 * 64];
        let mut c = vec![0.0; 64 * 64];
        gemm((64, 64, 64), &a, false, &a, false, &mut c, false);
        assert!(pooled_panels() >= before.min(MAX_POOLED - 2));
        assert!(pooled_panels() <= MAX_POOLED);
    }
}
