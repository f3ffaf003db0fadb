//! The resident serve engine: named ensembles, staleness-gated refresh,
//! the lock-light query path, and the durability plane (WAL + snapshots,
//! crash recovery, admission control, degraded read-only mode).

use crate::lru::LruCache;
use crate::store::{
    bits_from_json, bits_to_json, dense_from_json, dense_to_json, matrix_from_json, matrix_to_json,
    SnapshotStore,
};
use crate::wal::{Wal, WalOp};
use crate::Result;
use m2td_fault::{CrashOp, FaultPlan};
use m2td_guard::GuardError;
use m2td_json::{FromJson, Json, ToJson};
use m2td_linalg::Matrix;
use m2td_tensor::{
    sparse_core_with, ttm_dense_ws, CellEvaluator, CoreOrdering, DenseTensor, IncrementalEnsemble,
    Shape, SparseTensor, TensorError, TuckerDecomp, Workspace,
};
use std::collections::BTreeMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

/// Engine-level configuration shared by every registered ensemble.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Number of absorbed cells after which a refresh is triggered
    /// automatically. `0` disables auto-refresh (explicit
    /// [`ServeEngine::refresh`] only).
    pub staleness_threshold: usize,
    /// Maximum number of cached cell predictions per published model.
    /// The cache evicts least-recently-used entries once full (see
    /// `serve.cache_evictions`), so a shifting query working set keeps
    /// its hot cells resident; a refresh publishes a fresh empty cache.
    /// `0` disables caching.
    pub cache_capacity: usize,
    /// Admission control: maximum absorbed-but-not-yet-refreshed cells
    /// per ensemble. An absorb that would push `pending` past this bound
    /// is refused with [`ServeError::Overloaded`] — explicit backpressure
    /// instead of an unbounded staleness backlog. `0` disables the bound.
    pub absorb_queue_cap: usize,
}

impl ServeConfig {
    /// Defaults: refresh every 64 absorbs, 4096 cached cells per model,
    /// no absorb bound.
    pub const DEFAULT: ServeConfig = ServeConfig {
        staleness_threshold: 64,
        cache_capacity: 4096,
        absorb_queue_cap: 0,
    };

    /// Replaces the staleness threshold.
    pub fn with_staleness(mut self, threshold: usize) -> Self {
        self.staleness_threshold = threshold;
        self
    }

    /// Replaces the cache capacity.
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Bounds the per-ensemble absorb backlog (`0` = unbounded).
    pub fn with_absorb_queue_cap(mut self, cap: usize) -> Self {
        self.absorb_queue_cap = cap;
        self
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self::DEFAULT
    }
}

/// Errors surfaced by the serve engine.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// No ensemble is registered under the requested name.
    UnknownEnsemble {
        /// The requested name.
        name: String,
    },
    /// An ensemble with this name already exists.
    AlreadyRegistered {
        /// The duplicate name.
        name: String,
    },
    /// The ensemble has never been refreshed, so there is no model to
    /// query yet.
    NoModel {
        /// The ensemble name.
        name: String,
    },
    /// An underlying tensor kernel failed (this also carries guard policy
    /// rejections, which arrive as [`TensorError::Guard`]).
    Tensor(TensorError),
    /// Admission control refused the absorb: the ensemble's backlog of
    /// absorbed-but-not-refreshed cells is at the configured bound. The
    /// caller should retry after a refresh catches up.
    Overloaded {
        /// The ensemble name.
        name: String,
        /// Current backlog.
        pending: usize,
        /// The configured bound.
        cap: usize,
    },
    /// The engine recovered into read-only degraded mode (unrecoverable
    /// store corruption: operations were durably acknowledged but can no
    /// longer be replayed). Queries keep serving the recovered state;
    /// writes are refused.
    Degraded,
    /// The seeded crash injector fired at this kill point. The engine's
    /// in-memory state may be ahead of or behind its durable state —
    /// discard it and [`ServeEngine::recover`].
    CrashInjected {
        /// The kill point.
        op: CrashOp,
        /// The operation's sequence number within that kill point's
        /// stream.
        sequence: u64,
    },
    /// The durability layer failed (I/O error on the WAL or snapshot
    /// store).
    Store {
        /// Explanation of the failure.
        message: String,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownEnsemble { name } => {
                write!(f, "no ensemble registered under '{name}'")
            }
            ServeError::AlreadyRegistered { name } => {
                write!(f, "ensemble '{name}' is already registered")
            }
            ServeError::NoModel { name } => write!(
                f,
                "ensemble '{name}' has no published model yet (refresh it first)"
            ),
            ServeError::Tensor(e) => write!(f, "tensor error: {e}"),
            ServeError::Overloaded { name, pending, cap } => write!(
                f,
                "ensemble '{name}' is overloaded: {pending} pending absorbs at cap {cap}"
            ),
            ServeError::Degraded => write!(
                f,
                "engine is in read-only degraded mode (unrecoverable store corruption)"
            ),
            ServeError::CrashInjected { op, sequence } => {
                write!(f, "crash injected at kill point {op}#{sequence}")
            }
            ServeError::Store { message } => write!(f, "store error: {message}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for ServeError {
    fn from(e: TensorError) -> Self {
        ServeError::Tensor(e)
    }
}

impl From<GuardError> for ServeError {
    fn from(e: GuardError) -> Self {
        ServeError::Tensor(TensorError::from(e))
    }
}

/// Configuration of the durability plane: where state lives on disk, how
/// often it is fsynced and snapshotted, and (for the chaos harness) which
/// seeded kill points are armed.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding `wal.log` and the `snapshot.<seq>.json` files.
    pub dir: PathBuf,
    /// fsync the WAL every this many appends (`0` disables fsync; every
    /// append is still flushed to the OS and survives a process crash).
    pub wal_sync_every: usize,
    /// Write a snapshot every this many WAL appends (`0` = only explicit
    /// [`ServeEngine::snapshot`] calls).
    pub snapshot_every: usize,
    /// Snapshots kept by the retention sweep (min 1). The WAL is
    /// truncated only past the *oldest* retained snapshot, so any of
    /// them can anchor recovery.
    pub snapshot_keep: usize,
    /// Seeded crash plan; kill points fire per its `crash_rate` stream.
    pub crash_plan: Option<FaultPlan>,
    /// Pin one exact kill point `(op, sequence)` — the CLI's
    /// `--crash-at`.
    pub crash_point: Option<(CrashOp, u64)>,
}

impl DurabilityConfig {
    /// Durability under `dir` with the defaults: fsync every 8 appends,
    /// snapshot every 64, keep 3 snapshots, no crash injection.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            wal_sync_every: 8,
            snapshot_every: 64,
            snapshot_keep: 3,
            crash_plan: None,
            crash_point: None,
        }
    }

    /// Replaces the WAL fsync batch size.
    pub fn with_wal_sync_every(mut self, n: usize) -> Self {
        self.wal_sync_every = n;
        self
    }

    /// Replaces the auto-snapshot cadence.
    pub fn with_snapshot_every(mut self, n: usize) -> Self {
        self.snapshot_every = n;
        self
    }

    /// Replaces the snapshot retention count.
    pub fn with_snapshot_keep(mut self, n: usize) -> Self {
        self.snapshot_keep = n;
        self
    }

    /// Arms the seeded crash stream.
    pub fn with_crash_plan(mut self, plan: FaultPlan) -> Self {
        self.crash_plan = Some(plan);
        self
    }

    /// Pins one exact kill point.
    pub fn with_crash_point(mut self, op: CrashOp, sequence: u64) -> Self {
        self.crash_point = Some((op, sequence));
        self
    }
}

/// What [`ServeEngine::recover`] found and did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Covered WAL sequence of the snapshot recovery anchored on
    /// (`None` = cold start from an empty or snapshot-less directory).
    pub snapshot_seq: Option<u64>,
    /// WAL records replayed on top of the snapshot.
    pub replayed: u64,
    /// Snapshots quarantined while scanning for a valid anchor.
    pub quarantined_snapshots: usize,
    /// WAL lines dropped as a torn tail (normal after a crash
    /// mid-append).
    pub torn_wal_records: usize,
    /// Whether the engine entered read-only degraded mode: durable
    /// history exists that can no longer be replayed (mid-log WAL
    /// corruption, or every snapshot covering it quarantined).
    pub degraded: bool,
}

/// The per-engine durable state, serialized by one mutex: every mutating
/// operation locks it first (then the ensemble lock), so WAL order is
/// exactly apply order. Queries never touch it.
struct Durable {
    wal: Wal,
    store: SnapshotStore,
    snapshot_every: usize,
    /// Covered sequence of the most recent snapshot this process wrote
    /// (or recovered from).
    last_snapshot_seq: u64,
}

/// Seeded kill points. `Absorb`/`Refresh` draw from per-engine operation
/// counters; `WalAppend`/`SnapshotWrite` draw from the durable sequence
/// itself, so a kill point names a specific durable event.
struct CrashInjector {
    plan: FaultPlan,
    pinned: Option<(CrashOp, u64)>,
    absorbs: AtomicU64,
    refreshes: AtomicU64,
}

impl CrashInjector {
    fn fires(&self, op: CrashOp, sequence: u64) -> bool {
        if self.pinned == Some((op, sequence)) {
            m2td_obs::counter_add("fault.crashes_injected", 1);
            return true;
        }
        self.plan.crash_at(op, sequence)
    }
}

/// Outcome of one [`ServeEngine::absorb`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbsorbReport {
    /// Stored cells after this absorb.
    pub nnz: usize,
    /// Absorbs since the last published model (reset to 0 when this
    /// absorb triggered a refresh).
    pub pending: usize,
    /// Whether this absorb crossed the staleness threshold and triggered
    /// an automatic refresh.
    pub refreshed: bool,
}

/// Outcome of one model refresh.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefreshReport {
    /// Version of the newly published model (1 for the first refresh).
    pub version: u64,
    /// Stored cells the model was decomposed from.
    pub basis_cells: usize,
    /// Per-mode factor widths actually served. Narrower than the
    /// registered ranks when the guard's clamp policy truncated a
    /// degenerate spectrum.
    pub served_ranks: Vec<usize>,
}

impl RefreshReport {
    /// The served per-mode factor widths.
    pub fn ranks(&self) -> &[usize] {
        &self.served_ranks
    }
}

/// Point-in-time statistics for one registered ensemble.
#[derive(Debug, Clone, PartialEq)]
pub struct EnsembleStats {
    /// Ensemble name.
    pub name: String,
    /// Mode extents.
    pub dims: Vec<usize>,
    /// Registered target ranks.
    pub ranks: Vec<usize>,
    /// Stored cells.
    pub nnz: usize,
    /// Absorbs since the last refresh.
    pub pending: usize,
    /// Published model version (0 = never refreshed).
    pub model_version: u64,
}

/// An immutable published decomposition snapshot.
///
/// Queries evaluate against the snapshot that was current when they
/// fetched it; a concurrent refresh publishes a *new* snapshot and never
/// mutates one already handed out, so a query's result depends only on
/// the snapshot version it saw — never on thread interleaving.
#[derive(Debug)]
pub struct Model {
    evaluator: CellEvaluator,
    /// Output-space shape used to key the cell cache; `None` when the
    /// reconstruction space is too large to linearize (cache disabled —
    /// see [`Shape::checked_num_elements`]).
    cache_shape: Option<Shape>,
    cache: Mutex<LruCache>,
    version: u64,
    basis_cells: usize,
}

impl Model {
    fn new(decomp: TuckerDecomp, cache_capacity: usize, version: u64, basis_cells: usize) -> Self {
        let evaluator = CellEvaluator::new(decomp);
        let shape = Shape::new(evaluator.output_dims());
        let cache_shape =
            (cache_capacity > 0 && shape.checked_num_elements().is_some()).then_some(shape);
        Self {
            evaluator,
            cache_shape,
            cache: Mutex::new(LruCache::new(cache_capacity)),
            version,
            basis_cells,
        }
    }

    /// The wrapped decomposition.
    pub fn decomp(&self) -> &TuckerDecomp {
        self.evaluator.decomp()
    }

    /// Refresh generation of this snapshot (1 = first refresh).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Stored cells the decomposition was computed from.
    pub fn basis_cells(&self) -> usize {
        self.basis_cells
    }

    /// Predicts one cell of the reconstruction, consulting the bounded
    /// per-model LRU cache (least-recently-used entries are evicted once
    /// it fills — `serve.cache_evictions`). Cached and uncached paths
    /// return bitwise-identical values (the cache stores exactly what the
    /// evaluator computed, and a post-eviction re-miss recomputes the
    /// identical value), so caching never changes a prediction — only its
    /// latency.
    pub fn cell(&self, index: &[usize]) -> Result<f64> {
        let Some(shape) = &self.cache_shape else {
            m2td_obs::counter_add("serve.cache_misses", 1);
            return Ok(self.evaluator.cell(index)?);
        };
        // Mirror the evaluator's validation so the cached path reports the
        // same error variants as the uncached one.
        let dims = shape.dims();
        if index.len() != dims.len() {
            return Err(ServeError::Tensor(TensorError::WrongNumberOfRanks {
                supplied: index.len(),
                order: dims.len(),
            }));
        }
        if index.iter().zip(dims.iter()).any(|(&i, &d)| i >= d) {
            return Err(ServeError::Tensor(TensorError::IndexOutOfBounds {
                index: index.to_vec(),
                shape: dims.to_vec(),
            }));
        }
        let key = shape.linear_index(index) as u64;
        if let Some(hit) = self
            .cache
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(key)
        {
            m2td_obs::counter_add("serve.cache_hits", 1);
            return Ok(hit);
        }
        m2td_obs::counter_add("serve.cache_misses", 1);
        let value = self.evaluator.cell(index)?;
        let evicted = self
            .cache
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(key, value);
        if evicted {
            m2td_obs::counter_add("serve.cache_evictions", 1);
        }
        Ok(value)
    }

    /// Predicts a whole mode-`mode` slice (`index` fixed in that mode) as
    /// a dense tensor with extent 1 in `mode`, via a batched TTM chain:
    /// the core is first contracted with the single factor row, then
    /// expanded along the remaining modes — the chain never materializes
    /// anything larger than the slice itself.
    pub fn slice(&self, mode: usize, index: usize, ws: &mut Workspace) -> Result<DenseTensor> {
        let decomp = self.decomp();
        let dims = self.evaluator.output_dims();
        if mode >= dims.len() {
            return Err(ServeError::Tensor(TensorError::InvalidMode {
                mode,
                order: dims.len(),
            }));
        }
        if index >= dims[mode] {
            let mut idx = vec![0; dims.len()];
            idx[mode] = index;
            return Err(ServeError::Tensor(TensorError::IndexOutOfBounds {
                index: idx,
                shape: dims.to_vec(),
            }));
        }
        let row = {
            let f = &decomp.factors[mode];
            Matrix::from_fn(1, f.cols(), |_, j| f.get(index, j))
        };
        let mut acc = ttm_dense_ws(&decomp.core, mode, &row, ws)?;
        for (n, f) in decomp.factors.iter().enumerate() {
            if n == mode {
                continue;
            }
            let next = ttm_dense_ws(&acc, n, f, ws)?;
            ws.recycle_tensor(acc);
            acc = next;
        }
        Ok(acc)
    }
}

/// Per-ensemble mutable state, guarded by one `RwLock`.
struct EnsembleState {
    inc: IncrementalEnsemble,
    ranks: Vec<usize>,
    pending: usize,
    version: u64,
    model: Option<Arc<Model>>,
    /// Buffer pool reused across this ensemble's refreshes (the TTM chain
    /// recovering the core cycles through the same intermediates).
    ws: Workspace,
}

/// A resident engine holding decomposed ensembles keyed by name.
///
/// All methods take `&self`; the engine is `Sync` and intended to be
/// shared across query threads (e.g. behind an `Arc`).
pub struct ServeEngine {
    config: ServeConfig,
    ensembles: RwLock<BTreeMap<String, Arc<RwLock<EnsembleState>>>>,
    /// Buffer pool for slice queries; separate from the per-ensemble pool
    /// so a slice query never contends with absorbs for the write lock.
    slice_ws: Mutex<Workspace>,
    /// The durability plane; `None` for a purely in-memory engine. Lock
    /// order for mutators: this mutex first, then the ensemble map/state
    /// locks — never the reverse.
    durability: Option<Mutex<Durable>>,
    /// Read-only degraded mode flag (see [`ServeError::Degraded`]).
    degraded: AtomicBool,
    crash: Option<CrashInjector>,
}

impl Default for ServeEngine {
    fn default() -> Self {
        Self::new(ServeConfig::default())
    }
}

impl ServeEngine {
    /// Creates an empty, purely in-memory engine (no durability).
    pub fn new(config: ServeConfig) -> Self {
        Self {
            config,
            ensembles: RwLock::new(BTreeMap::new()),
            slice_ws: Mutex::new(Workspace::new()),
            durability: None,
            degraded: AtomicBool::new(false),
            crash: None,
        }
    }

    /// The engine configuration.
    pub fn config(&self) -> ServeConfig {
        self.config
    }

    /// Whether the engine is serving in read-only degraded mode.
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    fn ensure_writable(&self) -> Result<()> {
        if self.is_degraded() {
            return Err(ServeError::Degraded);
        }
        Ok(())
    }

    fn durable_guard(&self) -> Option<MutexGuard<'_, Durable>> {
        self.durability
            .as_ref()
            .map(|m| m.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Counter-keyed kill points (absorb entry, refresh entry).
    fn crash_counted(&self, op: CrashOp) -> Result<()> {
        let Some(inj) = &self.crash else {
            return Ok(());
        };
        let counter = match op {
            CrashOp::Absorb => &inj.absorbs,
            CrashOp::Refresh => &inj.refreshes,
            _ => unreachable!("sequence-keyed op {op} routed to counter draw"),
        };
        let sequence = counter.fetch_add(1, Ordering::Relaxed);
        if inj.fires(op, sequence) {
            return Err(ServeError::CrashInjected { op, sequence });
        }
        Ok(())
    }

    /// Sequence-keyed kill points (post-WAL-append, mid-snapshot).
    fn crash_at_seq(&self, op: CrashOp, sequence: u64) -> Result<()> {
        let Some(inj) = &self.crash else {
            return Ok(());
        };
        if inj.fires(op, sequence) {
            return Err(ServeError::CrashInjected { op, sequence });
        }
        Ok(())
    }

    /// Registers an empty ensemble under `name` with the given mode
    /// extents and per-mode target ranks.
    pub fn register(&self, name: &str, dims: &[usize], ranks: &[usize]) -> Result<()> {
        if ranks.len() != dims.len() {
            return Err(ServeError::Tensor(TensorError::WrongNumberOfRanks {
                supplied: ranks.len(),
                order: dims.len(),
            }));
        }
        for (mode, (&r, &d)) in ranks.iter().zip(dims.iter()).enumerate() {
            if r == 0 || r > d {
                return Err(ServeError::Tensor(TensorError::RankTooLarge {
                    mode,
                    requested: r,
                    available: d,
                }));
            }
        }
        self.ensure_writable()?;
        let mut dur = self.durable_guard();
        {
            let mut map = self.ensembles.write().unwrap_or_else(|e| e.into_inner());
            if map.contains_key(name) {
                return Err(ServeError::AlreadyRegistered {
                    name: name.to_string(),
                });
            }
            if let Some(d) = dur.as_deref_mut() {
                let seq = d.wal.append(WalOp::Register {
                    name: name.to_string(),
                    dims: dims.to_vec(),
                    ranks: ranks.to_vec(),
                })?;
                self.crash_at_seq(CrashOp::WalAppend, seq)?;
            }
            map.insert(
                name.to_string(),
                Arc::new(RwLock::new(EnsembleState {
                    inc: IncrementalEnsemble::new(dims),
                    ranks: ranks.to_vec(),
                    pending: 0,
                    version: 0,
                    model: None,
                    ws: Workspace::new(),
                })),
            );
            m2td_obs::gauge_set("serve.ensembles", map.len() as f64);
        }
        self.maybe_snapshot(dur)
    }

    /// Removes an ensemble. In-flight queries holding its model snapshot
    /// finish against that snapshot.
    pub fn deregister(&self, name: &str) -> Result<()> {
        self.ensure_writable()?;
        let mut dur = self.durable_guard();
        {
            let mut map = self.ensembles.write().unwrap_or_else(|e| e.into_inner());
            if !map.contains_key(name) {
                return Err(ServeError::UnknownEnsemble {
                    name: name.to_string(),
                });
            }
            if let Some(d) = dur.as_deref_mut() {
                let seq = d.wal.append(WalOp::Remove {
                    name: name.to_string(),
                })?;
                self.crash_at_seq(CrashOp::WalAppend, seq)?;
            }
            map.remove(name);
            m2td_obs::gauge_set("serve.ensembles", map.len() as f64);
        }
        self.maybe_snapshot(dur)
    }

    /// Names of all registered ensembles, sorted.
    pub fn names(&self) -> Vec<String> {
        self.ensembles
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .keys()
            .cloned()
            .collect()
    }

    fn state(&self, name: &str) -> Result<Arc<RwLock<EnsembleState>>> {
        self.ensembles
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
            .cloned()
            .ok_or_else(|| ServeError::UnknownEnsemble {
                name: name.to_string(),
            })
    }

    /// Absorbs one simulation result into the named ensemble, updating
    /// its running Grams in `O(column occupancy)`. With the guard layer
    /// installed, a non-finite value is rejected *before* it can poison
    /// the Grams (counted in `serve.rejected_cells`). Crossing the
    /// staleness threshold triggers an automatic refresh; if the guard
    /// rejects that refresh (e.g. the spectrum is still rank-deficient),
    /// the write still succeeds — the cell is durably absorbed, the
    /// previous model keeps serving, and the refresh is retried on the
    /// next absorb (counted in `serve.deferred_refreshes`). Only a
    /// manual [`ServeEngine::refresh`] surfaces the rejection.
    pub fn absorb(&self, name: &str, index: &[usize], value: f64) -> Result<AbsorbReport> {
        let _span = m2td_obs::span!("serve.absorb");
        m2td_guard::check_cells("serve.absorb", std::iter::once((index.to_vec(), value))).map_err(
            |e| {
                m2td_obs::counter_add("serve.rejected_cells", 1);
                ServeError::from(e)
            },
        )?;
        self.ensure_writable()?;
        let mut dur = self.durable_guard();
        self.crash_counted(CrashOp::Absorb)?;
        let state = self.state(name)?;
        let report = {
            let mut st = state.write().unwrap_or_else(|e| e.into_inner());
            // Admission control: refuse (before logging anything) rather
            // than let the unrefreshed backlog grow without bound.
            let cap = self.config.absorb_queue_cap;
            if cap > 0 && st.pending >= cap {
                m2td_obs::counter_add("serve.overloaded_absorbs", 1);
                return Err(ServeError::Overloaded {
                    name: name.to_string(),
                    pending: st.pending,
                    cap,
                });
            }
            // Validate-then-log: only operations that will apply cleanly
            // reach the WAL, so replay never has to guess whether a logged
            // absorb "really happened".
            st.inc.validate_new(index)?;
            if let Some(d) = dur.as_deref_mut() {
                let seq = d.wal.append(WalOp::Absorb {
                    name: name.to_string(),
                    index: index.to_vec(),
                    value_bits: value.to_bits(),
                })?;
                self.crash_at_seq(CrashOp::WalAppend, seq)?;
            }
            st.inc.add(index, value)?;
            st.pending += 1;
            m2td_obs::counter_add("serve.absorbed_cells", 1);
            let threshold = self.config.staleness_threshold;
            let mut refreshed = false;
            if threshold > 0 && st.pending >= threshold {
                self.crash_counted(CrashOp::Refresh)?;
                match self.refresh_locked(&mut st) {
                    Ok(_) => refreshed = true,
                    Err(ServeError::Tensor(TensorError::Guard(_))) => {
                        m2td_obs::counter_add("serve.deferred_refreshes", 1);
                    }
                    Err(e) => return Err(e),
                }
            }
            AbsorbReport {
                nnz: st.inc.nnz(),
                pending: st.pending,
                refreshed,
            }
        };
        self.maybe_snapshot(dur)?;
        Ok(report)
    }

    /// Recomputes factors from the running Grams and the core from the
    /// stored cells, publishing a fresh [`Model`] snapshot. A guard
    /// rejection (e.g. `Fail` policy on a rank-deficient spectrum) leaves
    /// the previously published model serving.
    pub fn refresh(&self, name: &str) -> Result<RefreshReport> {
        self.ensure_writable()?;
        let mut dur = self.durable_guard();
        self.crash_counted(CrashOp::Refresh)?;
        let state = self.state(name)?;
        let report = {
            let mut st = state.write().unwrap_or_else(|e| e.into_inner());
            // A manual refresh is logged (unlike automatic ones, which
            // replay re-derives from the absorb stream) because it resets
            // the staleness counter and thereby shifts every later
            // auto-refresh point.
            if let Some(d) = dur.as_deref_mut() {
                let seq = d.wal.append(WalOp::Refresh {
                    name: name.to_string(),
                })?;
                self.crash_at_seq(CrashOp::WalAppend, seq)?;
            }
            self.refresh_locked(&mut st)?
        };
        self.maybe_snapshot(dur)?;
        Ok(report)
    }

    fn refresh_locked(&self, st: &mut EnsembleState) -> Result<RefreshReport> {
        let _span = m2td_obs::span!("serve.refresh");
        // Factors come from the *running* Grams — no unfold/Gram
        // recomputation — through the guard layer: a degenerate spectrum
        // is clamped (narrower factors) or rejected per the installed
        // policy, and a rejection propagates before the served model is
        // touched.
        let order = st.inc.dims().len();
        let mut factors = Vec::with_capacity(order);
        for mode in 0..order {
            let gram = st.inc.gram(mode)?;
            let r = st.ranks[mode];
            factors.push(m2td_guard::gram_factor(
                "serve.refresh",
                Some(mode),
                gram,
                r,
            )?);
        }
        let sparse = st.inc.to_sparse();
        let core = sparse_core_with(&sparse, &factors, CoreOrdering::BestShrinkFirst, &mut st.ws)?;
        m2td_guard::check_dense("serve.core", core.dims(), core.as_slice())?;
        let decomp = TuckerDecomp::new(core, factors)?;
        let served_ranks: Vec<usize> = decomp.factors.iter().map(|f| f.cols()).collect();
        st.version += 1;
        let report = RefreshReport {
            version: st.version,
            basis_cells: sparse.nnz(),
            served_ranks,
        };
        st.model = Some(Arc::new(Model::new(
            decomp,
            self.config.cache_capacity,
            st.version,
            sparse.nnz(),
        )));
        st.pending = 0;
        m2td_obs::counter_add("serve.refreshes", 1);
        m2td_obs::gauge_set("serve.model_version", st.version as f64);
        Ok(report)
    }

    /// The currently published model snapshot for `name`.
    pub fn model(&self, name: &str) -> Result<Arc<Model>> {
        let state = self.state(name)?;
        let st = state.read().unwrap_or_else(|e| e.into_inner());
        st.model.clone().ok_or_else(|| ServeError::NoModel {
            name: name.to_string(),
        })
    }

    /// Predicts one cell ("how would this unsimulated configuration
    /// behave?") against the published snapshot.
    pub fn query_cell(&self, name: &str, index: &[usize]) -> Result<f64> {
        let _span = m2td_obs::span!("serve.query");
        m2td_obs::counter_add("serve.cell_queries", 1);
        self.model(name)?.cell(index)
    }

    /// Predicts a batch of cells against one snapshot fetch. All values
    /// come from the same model version even if a refresh lands mid-batch.
    pub fn query_cells(&self, name: &str, indices: &[Vec<usize>]) -> Result<Vec<f64>> {
        let _span = m2td_obs::span!("serve.query");
        m2td_obs::counter_add("serve.cell_queries", indices.len() as u64);
        let model = self.model(name)?;
        indices.iter().map(|idx| model.cell(idx)).collect()
    }

    /// Predicts a whole mode-`mode` slice of the reconstruction (extent 1
    /// in `mode`) through the batched TTM path.
    pub fn query_slice(&self, name: &str, mode: usize, index: usize) -> Result<DenseTensor> {
        let _span = m2td_obs::span!("serve.query");
        m2td_obs::counter_add("serve.slice_queries", 1);
        let model = self.model(name)?;
        let mut ws = self.slice_ws.lock().unwrap_or_else(|e| e.into_inner());
        model.slice(mode, index, &mut ws)
    }

    /// Statistics for one ensemble.
    pub fn stats(&self, name: &str) -> Result<EnsembleStats> {
        let state = self.state(name)?;
        let st = state.read().unwrap_or_else(|e| e.into_inner());
        Ok(EnsembleStats {
            name: name.to_string(),
            dims: st.inc.dims().to_vec(),
            ranks: st.ranks.clone(),
            nnz: st.inc.nnz(),
            pending: st.pending,
            model_version: st.version,
        })
    }

    // -----------------------------------------------------------------
    // Durability: recovery, snapshots, WAL replay.

    /// Opens (or cold-starts) a durable engine from `durability.dir`:
    /// loads the newest snapshot that verifies — quarantining damaged
    /// ones and falling back to older snapshots — then replays the WAL
    /// tail on top. The recovered engine serves, for every cell, exactly
    /// what an uninterrupted engine would have served: absorbs replay
    /// bit-exactly (bit-cast values, Grams restored bitwise, same
    /// insertion order) and auto-refreshes re-derive at the same points
    /// from the same staleness arithmetic.
    ///
    /// If durable history provably exists that can no longer be replayed
    /// (a WAL record damaged *mid*-log, or every snapshot covering some
    /// acknowledged operations quarantined), the engine comes up in
    /// read-only **degraded** mode: the best recoverable state keeps
    /// serving queries, every mutation returns [`ServeError::Degraded`],
    /// and `serve.degraded_mode` is raised. An empty directory is a
    /// normal cold start.
    pub fn recover(
        config: ServeConfig,
        durability: DurabilityConfig,
    ) -> Result<(Self, RecoveryReport)> {
        let _span = m2td_obs::span!("serve.recover");
        m2td_obs::counter_add("serve.recoveries", 1);
        let store = SnapshotStore::new(durability.dir.clone(), durability.snapshot_keep)?;
        let wal_path = durability.dir.join("wal.log");

        // Replay runs against a plain in-memory engine: no WAL handle yet
        // (replay must not re-log), no crash injector (recovery itself is
        // never a kill point), no admission control surprises.
        let mut engine = ServeEngine::new(config);
        let mut base: Option<u64> = None;
        let mut quarantined = 0usize;
        let mut max_seen: Option<u64> = None;
        loop {
            let scan = store.scan();
            quarantined += scan.quarantined;
            max_seen = max_seen.max(scan.max_seen_seq);
            match scan.loaded {
                None => break,
                Some((seq, payload)) => match engine.restore_payload(&payload) {
                    Ok(()) => {
                        base = Some(seq);
                        break;
                    }
                    Err(_) => {
                        // Checksum-valid but structurally unrestorable:
                        // quarantine it like any other damage and fall
                        // back to the next older snapshot.
                        store.quarantine(seq, "payload");
                        quarantined += 1;
                    }
                },
            }
        }

        let wal_report = Wal::read(&wal_path);
        let mut last_applied = base.unwrap_or(0);
        let mut replayed = 0u64;
        let mut gap = false;
        for rec in &wal_report.records {
            if rec.seq <= last_applied {
                continue; // covered by the snapshot we anchored on
            }
            if rec.seq != last_applied + 1 {
                // The record needed next is gone (e.g. the WAL was
                // truncated against a snapshot that later quarantined).
                gap = true;
                break;
            }
            engine.apply_replay(&rec.op);
            m2td_obs::counter_add("serve.wal_replays", 1);
            last_applied = rec.seq;
            replayed += 1;
        }

        let degraded =
            gap || wal_report.corrupt || max_seen.is_some_and(|seen| seen > last_applied);
        m2td_obs::gauge_set("serve.degraded_mode", if degraded { 1.0 } else { 0.0 });

        let mut wal = Wal::open(&wal_path, last_applied + 1, durability.wal_sync_every)?;
        if !degraded && wal_report.torn > 0 {
            // Drop the torn tail now so new appends don't land after
            // garbage (which a later recovery would read as mid-log
            // corruption). In degraded mode the file is left untouched as
            // post-mortem evidence — no appends will happen anyway.
            wal.truncate_covered(0)?;
        }

        engine.durability = Some(Mutex::new(Durable {
            wal,
            store,
            snapshot_every: durability.snapshot_every,
            last_snapshot_seq: base.unwrap_or(0),
        }));
        engine.degraded = AtomicBool::new(degraded);
        engine.crash =
            (durability.crash_plan.is_some() || durability.crash_point.is_some()).then(|| {
                CrashInjector {
                    plan: durability.crash_plan.unwrap_or_else(FaultPlan::none),
                    pinned: durability.crash_point,
                    absorbs: AtomicU64::new(0),
                    refreshes: AtomicU64::new(0),
                }
            });
        let report = RecoveryReport {
            snapshot_seq: base,
            replayed,
            quarantined_snapshots: quarantined,
            torn_wal_records: wal_report.torn,
            degraded,
        };
        Ok((engine, report))
    }

    /// Forces a snapshot now, returning the covered WAL sequence (`None`
    /// on a purely in-memory engine).
    pub fn snapshot(&self) -> Result<Option<u64>> {
        self.ensure_writable()?;
        match self.durable_guard().as_deref_mut() {
            Some(d) => self.snapshot_locked(d).map(Some),
            None => Ok(None),
        }
    }

    /// Snapshots if enough WAL records accumulated since the last one.
    /// Consumes the durability guard, so callers must have released every
    /// per-ensemble lock first (the payload builder takes read locks).
    fn maybe_snapshot(&self, mut dur: Option<MutexGuard<'_, Durable>>) -> Result<()> {
        if let Some(d) = dur.as_deref_mut() {
            if d.snapshot_every > 0
                && d.wal.last_seq().saturating_sub(d.last_snapshot_seq) >= d.snapshot_every as u64
            {
                self.snapshot_locked(d)?;
            }
        }
        Ok(())
    }

    fn snapshot_locked(&self, dur: &mut Durable) -> Result<u64> {
        let _span = m2td_obs::span!("serve.snapshot");
        let seq = dur.wal.last_seq();
        let payload = self.snapshot_payload();
        let pending = dur.store.begin_write(seq, payload)?;
        // The kill point sits between temp-write and rename: a crash here
        // leaves the previous snapshot as the recovery base.
        self.crash_at_seq(CrashOp::SnapshotWrite, seq)?;
        pending.commit()?;
        m2td_obs::counter_add("serve.snapshot_writes", 1);
        dur.last_snapshot_seq = seq;
        if let Some(floor) = dur.store.sweep() {
            // Truncate only what the *oldest retained* snapshot covers:
            // if this snapshot quarantines later, recovery can still
            // anchor on an older one and replay forward.
            dur.wal.truncate_covered(floor)?;
        }
        Ok(seq)
    }

    /// Serializes the engine's entire durable state. Float data is
    /// bit-cast so restore is bitwise.
    fn snapshot_payload(&self) -> Json {
        let map = self.ensembles.read().unwrap_or_else(|e| e.into_inner());
        let mut items = Vec::with_capacity(map.len());
        for (name, state) in map.iter() {
            let st = state.read().unwrap_or_else(|e| e.into_inner());
            let sparse = st.inc.to_sparse();
            let mut indices = Vec::with_capacity(sparse.nnz());
            let mut values = Vec::with_capacity(sparse.nnz());
            for (lin, v) in sparse.iter_linear() {
                indices.push(Json::Int(lin as i64));
                values.push(v);
            }
            let order = st.inc.dims().len();
            let grams: Vec<Json> = (0..order)
                .map(|m| matrix_to_json(st.inc.gram(m).expect("mode in range")))
                .collect();
            let model = match &st.model {
                None => Json::Null,
                Some(m) => {
                    let d = m.decomp();
                    Json::Obj(vec![
                        ("basis_cells".to_string(), Json::Int(m.basis_cells() as i64)),
                        ("core".to_string(), dense_to_json(&d.core)),
                        (
                            "factors".to_string(),
                            Json::Arr(d.factors.iter().map(matrix_to_json).collect()),
                        ),
                    ])
                }
            };
            items.push(Json::Obj(vec![
                ("name".to_string(), Json::Str(name.clone())),
                ("dims".to_string(), st.inc.dims().to_vec().to_json()),
                ("ranks".to_string(), st.ranks.to_json()),
                ("pending".to_string(), Json::Int(st.pending as i64)),
                ("version".to_string(), Json::Int(st.version as i64)),
                ("indices".to_string(), Json::Arr(indices)),
                ("bits".to_string(), bits_to_json(&values)),
                ("grams".to_string(), Json::Arr(grams)),
                ("model".to_string(), model),
            ]));
        }
        Json::Obj(vec![("ensembles".to_string(), Json::Arr(items))])
    }

    /// Rebuilds the full engine state from a snapshot payload, replacing
    /// whatever the map held. Entries and Grams restore bit-exactly via
    /// [`IncrementalEnsemble::from_sparse_with_grams`]; the published
    /// model (if any) is reconstructed from its stored core and factors
    /// with a fresh (empty) cell cache — caching never changes values.
    fn restore_payload(&self, payload: &Json) -> Result<()> {
        fn bad(what: &str) -> ServeError {
            ServeError::Store {
                message: format!("malformed snapshot payload: {what}"),
            }
        }
        let Some(Json::Arr(list)) = payload.get("ensembles") else {
            return Err(bad("missing ensembles"));
        };
        let mut map = BTreeMap::new();
        for item in list {
            let name = match item.get("name") {
                Some(Json::Str(s)) => s.clone(),
                _ => return Err(bad("ensemble name")),
            };
            let dims = item
                .get("dims")
                .and_then(|j| Vec::<usize>::from_json(j).ok())
                .ok_or_else(|| bad("dims"))?;
            let ranks = item
                .get("ranks")
                .and_then(|j| Vec::<usize>::from_json(j).ok())
                .ok_or_else(|| bad("ranks"))?;
            let pending = match item.get("pending") {
                Some(Json::Int(p)) if *p >= 0 => *p as usize,
                _ => return Err(bad("pending")),
            };
            let version = match item.get("version") {
                Some(Json::Int(v)) if *v >= 0 => *v as u64,
                _ => return Err(bad("version")),
            };
            let indices = match item.get("indices") {
                Some(Json::Arr(items)) => items
                    .iter()
                    .map(|it| match it {
                        Json::Int(i) if *i >= 0 => Ok(*i as u64),
                        _ => Err(bad("entry index")),
                    })
                    .collect::<Result<Vec<u64>>>()?,
                _ => return Err(bad("indices")),
            };
            let values = bits_from_json(item.get("bits").ok_or_else(|| bad("bits"))?)?;
            let grams = match item.get("grams") {
                Some(Json::Arr(items)) => items
                    .iter()
                    .map(matrix_from_json)
                    .collect::<Result<Vec<Matrix>>>()?,
                _ => return Err(bad("grams")),
            };
            let sparse = SparseTensor::from_sorted_linear(&dims, indices, values)?;
            let inc = IncrementalEnsemble::from_sparse_with_grams(&sparse, grams)?;
            let model = match item.get("model") {
                None | Some(Json::Null) => None,
                Some(mj) => {
                    let basis_cells = match mj.get("basis_cells") {
                        Some(Json::Int(b)) if *b >= 0 => *b as usize,
                        _ => return Err(bad("model basis_cells")),
                    };
                    let core = dense_from_json(mj.get("core").ok_or_else(|| bad("model core"))?)?;
                    let factors = match mj.get("factors") {
                        Some(Json::Arr(items)) => items
                            .iter()
                            .map(matrix_from_json)
                            .collect::<Result<Vec<Matrix>>>()?,
                        _ => return Err(bad("model factors")),
                    };
                    let decomp = TuckerDecomp::new(core, factors)?;
                    Some(Arc::new(Model::new(
                        decomp,
                        self.config.cache_capacity,
                        version,
                        basis_cells,
                    )))
                }
            };
            map.insert(
                name,
                Arc::new(RwLock::new(EnsembleState {
                    inc,
                    ranks,
                    pending,
                    version,
                    model,
                    ws: Workspace::new(),
                })),
            );
        }
        let count = map.len();
        *self.ensembles.write().unwrap_or_else(|e| e.into_inner()) = map;
        m2td_obs::gauge_set("serve.ensembles", count as f64);
        Ok(())
    }

    /// Applies one WAL record during replay. Errors are swallowed: a
    /// logged operation that fails here failed identically in the live
    /// run *after* being logged (e.g. a guard-rejected manual refresh),
    /// so re-failing is the faithful replay of it.
    fn apply_replay(&self, op: &WalOp) {
        let _ = self.apply_op(op);
    }

    fn apply_op(&self, op: &WalOp) -> Result<()> {
        match op {
            WalOp::Register { name, dims, ranks } => {
                let mut map = self.ensembles.write().unwrap_or_else(|e| e.into_inner());
                if map.contains_key(name) {
                    return Err(ServeError::AlreadyRegistered { name: name.clone() });
                }
                map.insert(
                    name.clone(),
                    Arc::new(RwLock::new(EnsembleState {
                        inc: IncrementalEnsemble::new(dims),
                        ranks: ranks.clone(),
                        pending: 0,
                        version: 0,
                        model: None,
                        ws: Workspace::new(),
                    })),
                );
                m2td_obs::gauge_set("serve.ensembles", map.len() as f64);
                Ok(())
            }
            WalOp::Remove { name } => {
                let mut map = self.ensembles.write().unwrap_or_else(|e| e.into_inner());
                if map.remove(name).is_none() {
                    return Err(ServeError::UnknownEnsemble { name: name.clone() });
                }
                m2td_obs::gauge_set("serve.ensembles", map.len() as f64);
                Ok(())
            }
            WalOp::Absorb {
                name,
                index,
                value_bits,
            } => {
                let state = self.state(name)?;
                let mut st = state.write().unwrap_or_else(|e| e.into_inner());
                st.inc.add(index, f64::from_bits(*value_bits))?;
                st.pending += 1;
                // Auto-refreshes are not logged; the same staleness
                // arithmetic re-derives them at the same points. A guard
                // rejection defers exactly as it does live.
                let threshold = self.config.staleness_threshold;
                if threshold > 0 && st.pending >= threshold {
                    match self.refresh_locked(&mut st) {
                        Ok(_) | Err(ServeError::Tensor(TensorError::Guard(_))) => {}
                        Err(e) => return Err(e),
                    }
                }
                Ok(())
            }
            WalOp::Refresh { name } => {
                let state = self.state(name)?;
                let mut st = state.write().unwrap_or_else(|e| e.into_inner());
                self.refresh_locked(&mut st).map(|_| ())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m2td_tensor::hosvd_sparse_exact;
    use std::sync::Mutex as TestMutex;

    /// Guard state is process-global; tests that install serialize here.
    static GUARD_LOCK: TestMutex<()> = TestMutex::new(());

    /// Deterministic synthetic cell values.
    fn cell_value(l: usize) -> f64 {
        (l as f64 * 0.37).sin() + 1.0
    }

    /// Fills every other cell of a `dims` ensemble.
    fn fill(engine: &ServeEngine, name: &str, dims: &[usize]) -> usize {
        let shape = Shape::new(dims);
        let mut n = 0;
        for l in 0..shape.num_elements() {
            if l % 2 == 0 {
                engine
                    .absorb(name, &shape.multi_index(l), cell_value(l))
                    .unwrap();
                n += 1;
            }
        }
        n
    }

    #[test]
    fn register_absorb_refresh_query_happy_path() {
        let engine = ServeEngine::new(ServeConfig::default().with_staleness(0));
        engine.register("e", &[4, 4, 3], &[2, 2, 2]).unwrap();
        let n = fill(&engine, "e", &[4, 4, 3]);
        let stats = engine.stats("e").unwrap();
        assert_eq!(stats.nnz, n);
        assert_eq!(stats.pending, n);
        assert_eq!(stats.model_version, 0);
        assert!(matches!(
            engine.query_cell("e", &[0, 0, 0]),
            Err(ServeError::NoModel { .. })
        ));
        let r = engine.refresh("e").unwrap();
        assert_eq!(r.version, 1);
        assert_eq!(r.basis_cells, n);
        assert_eq!(r.ranks(), &[2, 2, 2]);
        let y = engine.query_cell("e", &[1, 2, 1]).unwrap();
        assert!(y.is_finite());
        assert_eq!(engine.stats("e").unwrap().pending, 0);
        assert_eq!(engine.names(), vec!["e".to_string()]);
    }

    #[test]
    fn refreshed_model_matches_batch_decomposition() {
        let dims = [4usize, 4, 3];
        let engine = ServeEngine::new(ServeConfig::default().with_staleness(0));
        engine.register("e", &dims, &[2, 2, 2]).unwrap();
        fill(&engine, "e", &dims);
        engine.refresh("e").unwrap();

        // Batch route over the same cells.
        let shape = Shape::new(&dims);
        let entries: Vec<(Vec<usize>, f64)> = (0..shape.num_elements())
            .filter(|l| l % 2 == 0)
            .map(|l| (shape.multi_index(l), cell_value(l)))
            .collect();
        let sparse = m2td_tensor::SparseTensor::from_entries(&dims, &entries).unwrap();
        let batch = hosvd_sparse_exact(&sparse, &[2, 2, 2]).unwrap();

        for idx in shape.iter_indices() {
            let served = engine.query_cell("e", &idx).unwrap();
            let direct = batch.cell(&idx).unwrap();
            assert!(
                (served - direct).abs() <= 1e-9 * (1.0 + direct.abs()),
                "cell {idx:?}: served {served} vs batch {direct}"
            );
        }
    }

    #[test]
    fn staleness_threshold_triggers_auto_refresh() {
        let engine = ServeEngine::new(ServeConfig::default().with_staleness(5));
        engine.register("e", &[4, 4], &[2, 2]).unwrap();
        let shape = Shape::new(&[4, 4]);
        let mut refreshes = 0;
        for l in 0..12usize {
            let rep = engine
                .absorb("e", &shape.multi_index(l), cell_value(l))
                .unwrap();
            if rep.refreshed {
                refreshes += 1;
                assert_eq!(rep.pending, 0, "refresh resets the staleness counter");
            }
        }
        assert_eq!(refreshes, 2, "12 absorbs at threshold 5 → 2 refreshes");
        assert_eq!(engine.stats("e").unwrap().model_version, 2);
        // The auto-published model serves queries immediately.
        assert!(engine.query_cell("e", &[3, 3]).unwrap().is_finite());
    }

    #[test]
    fn slice_query_matches_cellwise_evaluation() {
        let dims = [4usize, 5, 3];
        let engine = ServeEngine::new(ServeConfig::default().with_staleness(0));
        engine.register("e", &dims, &[2, 2, 2]).unwrap();
        fill(&engine, "e", &dims);
        engine.refresh("e").unwrap();
        for mode in 0..3 {
            let slice = engine.query_slice("e", mode, 1).unwrap();
            assert_eq!(slice.dims()[mode], 1);
            for idx in Shape::new(slice.dims()).iter_indices() {
                let mut full = idx.clone();
                full[mode] = 1;
                let direct = engine.query_cell("e", &full).unwrap();
                let from_slice = slice.get(&idx);
                assert!(
                    (direct - from_slice).abs() < 1e-10,
                    "mode {mode} idx {idx:?}: {direct} vs {from_slice}"
                );
            }
        }
        assert!(engine.query_slice("e", 7, 0).is_err());
        assert!(engine.query_slice("e", 0, 99).is_err());
    }

    #[test]
    fn batch_queries_match_single_queries() {
        let dims = [4usize, 4];
        let engine = ServeEngine::new(ServeConfig::default().with_staleness(0));
        engine.register("e", &dims, &[2, 2]).unwrap();
        fill(&engine, "e", &dims);
        engine.refresh("e").unwrap();
        let indices: Vec<Vec<usize>> = Shape::new(&dims).iter_indices().collect();
        let batch = engine.query_cells("e", &indices).unwrap();
        for (idx, &b) in indices.iter().zip(batch.iter()) {
            let single = engine.query_cell("e", idx).unwrap();
            assert_eq!(single.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn duplicate_absorb_and_unknown_names_error() {
        let engine = ServeEngine::default();
        engine.register("e", &[2, 2], &[1, 1]).unwrap();
        assert!(matches!(
            engine.register("e", &[2, 2], &[1, 1]),
            Err(ServeError::AlreadyRegistered { .. })
        ));
        assert!(matches!(
            engine.register("bad", &[2, 2], &[3, 1]),
            Err(ServeError::Tensor(TensorError::RankTooLarge { .. }))
        ));
        assert!(matches!(
            engine.register("bad", &[2, 2], &[1]),
            Err(ServeError::Tensor(TensorError::WrongNumberOfRanks { .. }))
        ));
        engine.absorb("e", &[0, 1], 1.0).unwrap();
        assert!(matches!(
            engine.absorb("e", &[0, 1], 2.0),
            Err(ServeError::Tensor(TensorError::DuplicateEntry { .. }))
        ));
        assert!(matches!(
            engine.absorb("ghost", &[0, 0], 1.0),
            Err(ServeError::UnknownEnsemble { .. })
        ));
        assert!(engine.deregister("e").is_ok());
        assert!(matches!(
            engine.deregister("e"),
            Err(ServeError::UnknownEnsemble { .. })
        ));
    }

    #[test]
    fn cache_serves_repeat_queries_identically() {
        let engine = ServeEngine::new(ServeConfig::default().with_staleness(0));
        engine.register("e", &[4, 4], &[2, 2]).unwrap();
        fill(&engine, "e", &[4, 4]);
        engine.refresh("e").unwrap();
        let cold = engine.query_cell("e", &[1, 3]).unwrap();
        let warm = engine.query_cell("e", &[1, 3]).unwrap();
        assert_eq!(cold.to_bits(), warm.to_bits());
        // Capacity 0 disables the cache without changing results.
        let uncached = ServeEngine::new(
            ServeConfig::default()
                .with_staleness(0)
                .with_cache_capacity(0),
        );
        uncached.register("e", &[4, 4], &[2, 2]).unwrap();
        fill(&uncached, "e", &[4, 4]);
        uncached.refresh("e").unwrap();
        let plain = uncached.query_cell("e", &[1, 3]).unwrap();
        assert_eq!(plain.to_bits(), cold.to_bits());
        // Both paths reject malformed indices identically.
        for eng in [&engine, &uncached] {
            assert!(matches!(
                eng.query_cell("e", &[1]),
                Err(ServeError::Tensor(TensorError::WrongNumberOfRanks { .. }))
            ));
            assert!(matches!(
                eng.query_cell("e", &[9, 0]),
                Err(ServeError::Tensor(TensorError::IndexOutOfBounds { .. }))
            ));
        }
    }

    #[test]
    fn full_cache_evicts_lru_and_keeps_serving_identical_values() {
        let _lock = GUARD_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let dims = [4usize, 4];
        let engine = ServeEngine::new(
            ServeConfig::default()
                .with_staleness(0)
                .with_cache_capacity(3),
        );
        engine.register("e", &dims, &[2, 2]).unwrap();
        fill(&engine, "e", &dims);
        engine.refresh("e").unwrap();

        // Baseline predictions, pre-cache-pressure.
        let indices: Vec<Vec<usize>> = Shape::new(&dims).iter_indices().collect();
        let baseline: Vec<f64> = indices
            .iter()
            .map(|i| engine.query_cell("e", i).unwrap())
            .collect();

        // Sweep all 16 cells through a 3-entry cache, twice: the cache
        // churns constantly and must evict.
        m2td_obs::install();
        m2td_obs::reset();
        for _ in 0..2 {
            for (i, idx) in indices.iter().enumerate() {
                let y = engine.query_cell("e", idx).unwrap();
                assert_eq!(
                    y.to_bits(),
                    baseline[i].to_bits(),
                    "eviction churn must never change a prediction"
                );
            }
        }
        let snap = m2td_obs::snapshot();
        m2td_obs::uninstall();
        let evictions = snap.counter("serve.cache_evictions").unwrap_or(0);
        assert!(
            evictions >= 16,
            "two 16-cell sweeps through a 3-entry cache must evict (got {evictions})"
        );
    }

    #[test]
    fn guard_fail_policy_keeps_previous_model_serving() {
        use m2td_guard::{GuardConfig, GuardPolicy};
        let _lock = GUARD_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let engine = ServeEngine::new(ServeConfig::default().with_staleness(0));
        engine.register("e", &[3, 3], &[3, 3]).unwrap();
        // A rank-1 fill: mode Grams support only one direction, far short
        // of the requested rank 3.
        for j in 0..3usize {
            engine.absorb("e", &[0, j], (j + 1) as f64).unwrap();
        }
        // Unguarded: the deficient refresh goes through (plain eig).
        engine.refresh("e").unwrap();
        let v1 = engine.query_cell("e", &[0, 1]).unwrap();
        engine.absorb("e", &[1, 0], 2.0).unwrap();

        m2td_guard::install(GuardConfig::with_policy(GuardPolicy::Fail));
        // Still rank-deficient at rank 3 → refresh rejected...
        let err = engine.refresh("e");
        m2td_guard::uninstall();
        assert!(matches!(
            err,
            Err(ServeError::Tensor(TensorError::Guard(
                GuardError::RankDeficient { .. }
            )))
        ));
        // ...and the version-1 model keeps serving, bit for bit.
        assert_eq!(engine.stats("e").unwrap().model_version, 1);
        let still = engine.query_cell("e", &[0, 1]).unwrap();
        assert_eq!(still.to_bits(), v1.to_bits());
    }

    #[test]
    fn guarded_auto_refresh_defers_instead_of_failing_the_write() {
        use m2td_guard::{GuardConfig, GuardPolicy};
        let _lock = GUARD_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let engine = ServeEngine::new(ServeConfig::default().with_staleness(1));
        engine.register("e", &[3, 3], &[2, 2]).unwrap();
        m2td_guard::install(GuardConfig::with_policy(GuardPolicy::Fail));
        // One cell supports only rank 1, so the automatic refresh the
        // absorb triggers is guard-rejected — but the write itself must
        // succeed and the cell must stay durable.
        let a1 = engine.absorb("e", &[0, 0], 1.0).unwrap();
        assert!(!a1.refreshed);
        assert_eq!((a1.nnz, a1.pending), (1, 1));
        assert_eq!(engine.stats("e").unwrap().model_version, 0);
        // The deferred refresh retries on the next absorb and succeeds
        // once the spectrum reaches the requested rank.
        let a2 = engine.absorb("e", &[1, 1], 2.0).unwrap();
        m2td_guard::uninstall();
        assert!(a2.refreshed);
        assert_eq!((a2.nnz, a2.pending), (2, 0));
        assert_eq!(engine.stats("e").unwrap().model_version, 1);
    }

    #[test]
    fn guard_clamp_policy_serves_narrower_factors() {
        use m2td_guard::{GuardConfig, GuardPolicy};
        let _lock = GUARD_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let engine = ServeEngine::new(ServeConfig::default().with_staleness(0));
        engine.register("e", &[3, 3], &[2, 2]).unwrap();
        for j in 0..3usize {
            engine.absorb("e", &[0, j], (j + 1) as f64).unwrap();
        }
        m2td_guard::install(GuardConfig::with_policy(GuardPolicy::ClampRank));
        let report = engine.refresh("e");
        m2td_guard::uninstall();
        let report = report.unwrap();
        assert_eq!(report.ranks(), &[1, 1], "deficient spectrum clamps to 1");
        assert!(engine.query_cell("e", &[1, 1]).unwrap().is_finite());
    }

    #[test]
    fn guarded_absorb_rejects_nonfinite_cells() {
        use m2td_guard::{GuardConfig, GuardPolicy};
        let _lock = GUARD_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let engine = ServeEngine::new(ServeConfig::default().with_staleness(0));
        engine.register("e", &[2, 2], &[1, 1]).unwrap();
        m2td_guard::install(GuardConfig::with_policy(GuardPolicy::Fail));
        let res = engine.absorb("e", &[0, 0], f64::NAN);
        m2td_guard::uninstall();
        assert!(matches!(
            res,
            Err(ServeError::Tensor(TensorError::Guard(
                GuardError::NonFinite { .. }
            )))
        ));
        // The poisoned cell never reached the Grams.
        assert_eq!(engine.stats("e").unwrap().nnz, 0);
    }

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("m2td_engine_tests").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn durable_engine_recovers_bitwise_and_keeps_sequencing() {
        let dir = tmp_dir("durable_roundtrip");
        let cfg = ServeConfig::default().with_staleness(5);
        let dur = DurabilityConfig::new(&dir)
            .with_snapshot_every(7)
            .with_wal_sync_every(2);
        let (engine, rep) = ServeEngine::recover(cfg, dur.clone()).unwrap();
        assert_eq!(
            rep,
            RecoveryReport {
                snapshot_seq: None,
                replayed: 0,
                quarantined_snapshots: 0,
                torn_wal_records: 0,
                degraded: false,
            },
            "empty dir is a cold start"
        );
        engine.register("e", &[4, 4, 3], &[2, 2, 2]).unwrap();
        fill(&engine, "e", &[4, 4, 3]);
        engine.refresh("e").unwrap();
        let shape = Shape::new(&[4, 4, 3]);
        let expect: Vec<u64> = shape
            .iter_indices()
            .map(|i| engine.query_cell("e", &i).unwrap().to_bits())
            .collect();
        let stats = engine.stats("e").unwrap();
        drop(engine);

        let (back, rep) = ServeEngine::recover(cfg, dur).unwrap();
        assert!(!rep.degraded);
        assert!(rep.snapshot_seq.is_some(), "auto-snapshots were written");
        assert_eq!(back.stats("e").unwrap(), stats);
        for (idx, &bits) in shape.iter_indices().zip(expect.iter()) {
            assert_eq!(
                back.query_cell("e", &idx).unwrap().to_bits(),
                bits,
                "recovered cell {idx:?} must match bitwise"
            );
        }
    }

    #[test]
    fn overloaded_absorbs_are_refused_while_queries_keep_serving() {
        let engine = ServeEngine::new(
            ServeConfig::default()
                .with_staleness(0)
                .with_absorb_queue_cap(2),
        );
        engine.register("e", &[4, 4], &[2, 2]).unwrap();
        // Backlog up to the cap is admitted...
        engine.absorb("e", &[0, 0], 1.0).unwrap();
        engine.absorb("e", &[1, 1], 2.0).unwrap();
        // ...the next absorb is refused with context...
        let err = engine.absorb("e", &[2, 2], 3.0);
        assert!(
            matches!(
                err,
                Err(ServeError::Overloaded {
                    pending: 2,
                    cap: 2,
                    ..
                })
            ),
            "expected Overloaded, got {err:?}"
        );
        assert_eq!(engine.stats("e").unwrap().nnz, 2, "refused cell not stored");
        // ...a refresh drains the backlog, re-admitting writes...
        engine.refresh("e").unwrap();
        engine.absorb("e", &[2, 2], 3.0).unwrap();
        engine.absorb("e", &[3, 3], 4.0).unwrap();
        // ...and during the next overload, queries keep serving the
        // published model.
        assert!(matches!(
            engine.absorb("e", &[0, 1], 5.0),
            Err(ServeError::Overloaded { .. })
        ));
        assert!(engine.query_cell("e", &[1, 1]).unwrap().is_finite());
    }

    #[test]
    fn reregistering_a_name_resets_the_model_and_serves_no_stale_cells() {
        let engine = ServeEngine::new(ServeConfig::default().with_staleness(0));
        engine.register("e", &[4, 4], &[2, 2]).unwrap();
        fill(&engine, "e", &[4, 4]);
        engine.refresh("e").unwrap();
        // Warm the LRU cell cache against generation one (a simulated
        // cell, so both generations predict it well).
        let old = engine.query_cell("e", &[1, 2]).unwrap();
        assert_eq!(engine.stats("e").unwrap().model_version, 1);

        engine.deregister("e").unwrap();
        engine.register("e", &[4, 4], &[2, 2]).unwrap();
        let stats = engine.stats("e").unwrap();
        assert_eq!(
            (stats.model_version, stats.nnz, stats.pending),
            (0, 0, 0),
            "re-registration must start from scratch"
        );
        // No model yet — the warm cache of the old generation must be
        // unreachable, not served.
        assert!(matches!(
            engine.query_cell("e", &[1, 2]),
            Err(ServeError::NoModel { .. })
        ));
        // A fresh fill with shifted values publishes version 1 of the new
        // generation and serves *its* values, not the cached old ones.
        let shape = Shape::new(&[4, 4]);
        for l in 0..shape.num_elements() {
            if l % 2 == 0 {
                engine
                    .absorb("e", &shape.multi_index(l), cell_value(l) + 10.0)
                    .unwrap();
            }
        }
        engine.refresh("e").unwrap();
        assert_eq!(engine.stats("e").unwrap().model_version, 1);
        let fresh = engine.query_cell("e", &[1, 2]).unwrap();
        assert_ne!(fresh.to_bits(), old.to_bits(), "stale cell served");
        assert!((fresh - old - 10.0).abs() < 1.0, "value from new data");
    }

    #[test]
    fn errors_display_their_context() {
        let e = ServeError::UnknownEnsemble {
            name: "lorenz".into(),
        };
        assert!(e.to_string().contains("lorenz"));
        let e = ServeError::NoModel { name: "sir".into() };
        assert!(e.to_string().contains("refresh"));
        use std::error::Error;
        let e = ServeError::Tensor(TensorError::EmptyTensor);
        assert!(e.source().is_some());
    }
}
