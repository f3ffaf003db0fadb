//! # m2td-par — the workspace-wide parallel compute runtime
//!
//! Every parallel code path in the workspace goes through this crate so a
//! single knob governs all intra-process parallelism:
//!
//! 1. [`set_max_threads`] (programmatic override, used by `m2td-cli
//!    --threads` and by tests),
//! 2. the `M2TD_THREADS` environment variable,
//! 3. [`std::thread::available_parallelism`] as the default.
//!
//! At `threads = 1` every primitive degrades to a plain in-order serial
//! loop on the calling thread — no threads are spawned, no synchronisation
//! happens, and the exact serial iteration order is preserved.
//!
//! ## Determinism contract
//!
//! The primitives here only make *scheduling* concurrent, never
//! *accumulation order*. Work is partitioned so that each output location
//! is written by exactly one task, and each task computes its outputs in
//! the same order the serial loop would. Kernels built on these primitives
//! (see `m2td-linalg` and `m2td-tensor`) therefore produce bitwise
//! identical results at every thread count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Programmatic override; 0 means "unset, fall back to env/default".
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Resolved `M2TD_THREADS` / available-parallelism default, read once.
static ENV_DEFAULT: OnceLock<usize> = OnceLock::new();

fn env_default() -> usize {
    *ENV_DEFAULT.get_or_init(|| {
        match std::env::var("M2TD_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
        {
            Some(n) if n >= 1 => n,
            _ => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    })
}

/// The maximum number of worker threads parallel primitives may use.
///
/// Resolution order: [`set_max_threads`] override, then `M2TD_THREADS`,
/// then available parallelism (1 if that cannot be determined).
pub fn max_threads() -> usize {
    match OVERRIDE.load(Ordering::Relaxed) {
        0 => env_default(),
        n => n,
    }
}

/// Overrides the global thread count for this process.
///
/// `n = 0` clears the override, restoring the `M2TD_THREADS`/default
/// resolution. Because every kernel in the workspace is deterministic
/// across thread counts, changing this concurrently with running work is
/// safe (it only affects scheduling of subsequently started primitives).
pub fn set_max_threads(n: usize) {
    OVERRIDE.store(n, Ordering::Relaxed);
}

/// Runs two closures, possibly in parallel, and returns both results.
///
/// With `max_threads() <= 1`, runs `a` then `b` on the calling thread.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if max_threads() <= 1 {
        let ra = a();
        let rb = b();
        return (ra, rb);
    }
    std::thread::scope(|s| {
        let hb = s.spawn(b);
        let ra = a();
        let rb = hb.join().expect("m2td-par: joined task panicked");
        (ra, rb)
    })
}

/// Raw-pointer wrapper that lets scoped worker threads share one output
/// buffer. Soundness relies on the caller's partitioning discipline.
struct SyncPtr<T>(*mut T);
unsafe impl<T: Send> Sync for SyncPtr<T> {}
impl<T> SyncPtr<T> {
    /// Accessed via a method so closures capture the whole `Sync` wrapper
    /// rather than the raw pointer field (2021 disjoint capture).
    fn get(&self) -> *mut T {
        self.0
    }
}

/// Maps `f` over `items`, preserving order of results.
///
/// Scheduling is dynamic (atomic index counter) but each slot is written
/// by exactly one worker, so the output is deterministic.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let n = items.len();
    let threads = max_threads().min(n);
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    let mut out: Vec<Option<U>> = (0..n).map(|_| None).collect();
    let out_ptr = SyncPtr(out.as_mut_ptr());
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let v = f(&items[i]);
                // SAFETY: the atomic counter hands index `i` to exactly one
                // worker; slots are disjoint and `out` outlives the scope.
                unsafe { *out_ptr.get().add(i) = Some(v) };
            });
        }
    });
    out.into_iter()
        .map(|o| o.expect("m2td-par: par_map slot not filled"))
        .collect()
}

/// Runs `f(i)` for every `i in 0..n`, possibly in parallel.
///
/// With `max_threads() <= 1` the indices run in ascending order on the
/// calling thread. `f` must make writes for distinct indices disjoint.
pub fn par_for_each_index<F>(n: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    let threads = max_threads().min(n);
    if threads <= 1 {
        for i in 0..n {
            f(i);
        }
        return;
    }
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                f(i);
            });
        }
    });
}

/// Splits `data` into consecutive rows of `row_len` elements and calls
/// `f(row_index, row)` for each, scheduling rows dynamically over the
/// worker pool. Each row is visited exactly once; with one thread the
/// rows run in ascending order on the calling thread.
///
/// Panics if `data.len()` is not a multiple of `row_len`.
pub fn par_rows_mut<T, F>(data: &mut [T], row_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if data.is_empty() {
        return;
    }
    assert!(row_len > 0, "m2td-par: row_len must be positive");
    assert_eq!(
        data.len() % row_len,
        0,
        "m2td-par: buffer not a whole number of rows"
    );
    let rows = data.len() / row_len;
    let threads = max_threads().min(rows);
    if threads <= 1 {
        for (i, row) in data.chunks_mut(row_len).enumerate() {
            f(i, row);
        }
        return;
    }
    // Small grains keep the pool balanced when per-row cost is skewed
    // (e.g. the triangular row lengths of a Gram matrix).
    let grain = (rows / (threads * 8)).max(1);
    let base = SyncPtr(data.as_mut_ptr());
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let start = next.fetch_add(grain, Ordering::Relaxed);
                if start >= rows {
                    break;
                }
                let end = (start + grain).min(rows);
                for i in start..end {
                    // SAFETY: row `i` spans `[i*row_len, (i+1)*row_len)`;
                    // the counter hands each row range to exactly one
                    // worker, so the slices never alias.
                    let row = unsafe {
                        std::slice::from_raw_parts_mut(base.get().add(i * row_len), row_len)
                    };
                    f(i, row);
                }
            });
        }
    });
}

/// Runs `f(&mut state, tile)` for every `tile in 0..tiles`, giving each
/// worker its own scratch state built by `init` (packing buffers, pooled
/// panels, …). Tiles are scheduled dynamically off an atomic counter, so
/// the mapping of tiles to workers is *not* deterministic — callers must
/// make each tile's writes disjoint and its arithmetic independent of
/// which worker runs it. With one thread the tiles run in ascending order
/// on the calling thread with a single state.
///
/// This is the primitive the blocked GEMM backend in `m2td-linalg`
/// schedules its NC×MC macro-tiles with.
pub fn par_tiles<S, I, F>(tiles: usize, init: I, f: F)
where
    S: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) + Sync,
{
    if tiles == 0 {
        return;
    }
    let threads = max_threads().min(tiles);
    if threads <= 1 {
        let mut state = init();
        for t in 0..tiles {
            f(&mut state, t);
        }
        return;
    }
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                let mut state = init();
                loop {
                    let t = next.fetch_add(1, Ordering::Relaxed);
                    if t >= tiles {
                        break;
                    }
                    f(&mut state, t);
                }
            });
        }
    });
}

/// Shared mutable view of a slice for scatter-style kernels where the
/// *caller* guarantees that concurrent writers touch disjoint indices.
pub struct UnsafeSlice<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: std::marker::PhantomData<&'a mut [T]>,
}

unsafe impl<T: Send> Sync for UnsafeSlice<'_, T> {}
unsafe impl<T: Send> Send for UnsafeSlice<'_, T> {}

impl<'a, T> UnsafeSlice<'a, T> {
    /// Wraps a mutable slice. The borrow keeps the underlying buffer
    /// exclusively reserved for this view's lifetime.
    pub fn new(slice: &'a mut [T]) -> Self {
        UnsafeSlice {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Number of elements in the underlying buffer.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the underlying buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Adds `v` into element `i`.
    ///
    /// # Safety
    /// No other thread may access index `i` concurrently. Callers uphold
    /// this by partitioning output indices across tasks.
    pub unsafe fn add_assign(&self, i: usize, v: T)
    where
        T: std::ops::AddAssign,
    {
        debug_assert!(i < self.len, "m2td-par: UnsafeSlice index out of range");
        *self.ptr.add(i) += v;
    }

    /// Writes `v` to element `i`.
    ///
    /// # Safety
    /// Same disjointness contract as [`UnsafeSlice::add_assign`].
    pub unsafe fn write(&self, i: usize, v: T) {
        debug_assert!(i < self.len, "m2td-par: UnsafeSlice index out of range");
        *self.ptr.add(i) = v;
    }
}

/// Runs `f` on `min(n, max_threads())` workers until each call returns:
/// the calling thread is one of them and the rest are spawned, then
/// joined. `f` typically pulls work items off a shared queue; with one
/// worker it simply runs inline.
///
/// This is the primitive `m2td-dist`'s MapReduce engine drains its task
/// queues with. The caller works rather than waits: a D-M2TD job runs
/// six such waves in about 20 ms, and each spawned worker costs the wave
/// a thread start and a wake-up of an idle core, which a busy host
/// delays.
pub fn run_workers<F>(n: usize, f: F)
where
    F: Fn() + Sync,
{
    let workers = n.clamp(1, max_threads().max(1));
    if workers <= 1 {
        f();
        return;
    }
    std::thread::scope(|s| {
        for _ in 1..workers {
            s.spawn(&f);
        }
        f();
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serialises tests that flip the global override.
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn thread_resolution_and_override() {
        let _g = LOCK.lock().unwrap();
        set_max_threads(3);
        assert_eq!(max_threads(), 3);
        set_max_threads(0);
        assert!(max_threads() >= 1);
    }

    #[test]
    fn join_returns_both_results() {
        let _g = LOCK.lock().unwrap();
        for t in [1usize, 4] {
            set_max_threads(t);
            let (a, b) = join(|| 2 + 2, || "ok");
            assert_eq!(a, 4);
            assert_eq!(b, "ok");
        }
        set_max_threads(0);
    }

    #[test]
    fn par_map_preserves_order() {
        let _g = LOCK.lock().unwrap();
        let items: Vec<usize> = (0..257).collect();
        let serial: Vec<usize> = items.iter().map(|x| x * x).collect();
        for t in [1usize, 2, 8] {
            set_max_threads(t);
            assert_eq!(par_map(&items, |&x| x * x), serial);
        }
        set_max_threads(0);
    }

    #[test]
    fn par_rows_mut_visits_every_row_once() {
        let _g = LOCK.lock().unwrap();
        for t in [1usize, 2, 8] {
            set_max_threads(t);
            let mut buf = vec![0u32; 64 * 5];
            par_rows_mut(&mut buf, 5, |i, row| {
                for v in row.iter_mut() {
                    *v += i as u32 + 1;
                }
            });
            for (i, chunk) in buf.chunks(5).enumerate() {
                assert!(chunk.iter().all(|&v| v == i as u32 + 1));
            }
        }
        set_max_threads(0);
    }

    #[test]
    fn par_for_each_index_covers_range() {
        let _g = LOCK.lock().unwrap();
        for t in [1usize, 2, 8] {
            set_max_threads(t);
            let mut flags = vec![0u8; 100];
            let view = UnsafeSlice::new(&mut flags);
            par_for_each_index(100, |i| unsafe { view.add_assign(i, 1) });
            assert!(flags.iter().all(|&f| f == 1));
        }
        set_max_threads(0);
    }

    #[test]
    fn par_tiles_visits_every_tile_once_with_worker_state() {
        let _g = LOCK.lock().unwrap();
        for t in [1usize, 2, 8] {
            set_max_threads(t);
            let mut hits = vec![0u8; 300];
            let states = Mutex::new(Vec::new());
            {
                let view = UnsafeSlice::new(&mut hits);
                par_tiles(
                    300,
                    || 0usize,
                    |state, tile| {
                        *state += 1;
                        unsafe { view.add_assign(tile, 1) };
                        if *state == 1 {
                            states.lock().unwrap().push(tile);
                        }
                    },
                );
            }
            assert!(hits.iter().all(|&h| h == 1));
            // One fresh state per worker: the number of "first tile seen"
            // records is bounded by the worker count.
            assert!(states.lock().unwrap().len() <= t.min(300));
            states.lock().unwrap().clear();
        }
        set_max_threads(4);
        par_tiles(0, || (), |_, _| panic!("no tiles"));
        set_max_threads(0);
    }

    #[test]
    fn run_workers_drains_queue() {
        let _g = LOCK.lock().unwrap();
        for t in [1usize, 4] {
            set_max_threads(t);
            let queue = Mutex::new((0..1000usize).collect::<Vec<_>>());
            let sum = Mutex::new(0usize);
            run_workers(4, || loop {
                let item = queue.lock().unwrap().pop();
                match item {
                    Some(v) => *sum.lock().unwrap() += v,
                    None => break,
                }
            });
            assert_eq!(*sum.lock().unwrap(), 999 * 1000 / 2);
        }
        set_max_threads(0);
    }

    #[test]
    fn empty_inputs_are_fine() {
        let _g = LOCK.lock().unwrap();
        set_max_threads(4);
        let empty: Vec<u8> = Vec::new();
        assert!(par_map(&empty, |x| *x).is_empty());
        par_rows_mut::<u8, _>(&mut [], 3, |_, _| panic!("no rows"));
        par_for_each_index(0, |_| panic!("no indices"));
        set_max_threads(0);
    }
}
