//! The application registry and request handlers.

use std::fmt;
use std::sync::{Arc, OnceLock, RwLock};

use cache_sim::{BlockAddr, CacheConfig};
use gf2::PackedBasis;
use xorindex::search::{NeighborPool, Searcher};
use xorindex::{
    BoundedCost, ConflictProfile, FrozenKernel, FunctionClass, HashFunction, MemoStats,
    ScaffoldCache, ScaffoldStats, SearchAlgorithm, SearchOutcome, ShardedMemo, XorIndexError,
};
use xorindex_verify::{
    verified_pick, ReplayStats, SimStats, TraceReplayer, VerifiedOutcome, VerifyError,
};

/// Default cap on a retained trace: 2^22 block addresses (32 MiB at 8 bytes
/// per block). Registrations that retain more must raise the cap explicitly.
pub const DEFAULT_TRACE_CAP_BLOCKS: usize = 1 << 22;

/// Opaque handle identifying a registered application.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AppId(usize);

impl AppId {
    /// The raw registration index, as carried on the wire and in snapshots.
    /// Only meaningful to the service that issued it.
    #[must_use]
    pub fn raw(self) -> u64 {
        self.0 as u64
    }

    /// Rebuilds a handle from its wire representation. No validation happens
    /// here: an id that names no registered application fails any request
    /// with [`ServeError::UnknownApp`].
    #[must_use]
    pub fn from_raw(raw: u64) -> AppId {
        AppId(raw as usize)
    }
}

impl fmt::Display for AppId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "app#{}", self.0)
    }
}

/// Errors returned by the serving layer. Requests never panic the service:
/// malformed inputs come back as errors (or [`Response::Error`] through the
/// worker pool).
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The [`AppId`] does not name a registered application.
    UnknownApp(AppId),
    /// The registration's cache geometry cannot be searched against the
    /// profile (zero set bits, or at least as many as the hashed width).
    InvalidGeometry {
        /// Hashed address bits of the profile.
        hashed_bits: usize,
        /// Set-index bits of the cache.
        set_bits: usize,
    },
    /// A candidate's ambient width does not match the application's profile.
    WidthMismatch {
        /// The application's hashed width.
        expected: usize,
        /// The candidate's ambient width.
        actual: usize,
    },
    /// A search failed.
    Search(XorIndexError),
    /// The worker pool's bounded queue was full (only from `try_submit`).
    QueueFull,
    /// The worker pool shut down before answering.
    Disconnected,
    /// A frame on the binary wire protocol could not be decoded (see
    /// [`WireError`](crate::WireError)). Carried as a response variant so TCP
    /// clients get a typed answer instead of a dropped connection.
    Wire(crate::WireError),
    /// Simulation was requested for an application registered without a
    /// retained trace.
    NoRetainedTrace(AppId),
    /// A registration's retained trace exceeds its memory cap.
    TraceTooLarge {
        /// Block accesses in the offered trace.
        blocks: u64,
        /// The registration's cap, in block accesses.
        cap_blocks: u64,
    },
    /// A simulation-backed verification failed.
    Verify(VerifyError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownApp(app) => write!(f, "{app} is not registered"),
            ServeError::InvalidGeometry {
                hashed_bits,
                set_bits,
            } => write!(
                f,
                "cannot serve {set_bits} set-index bits against a {hashed_bits}-bit profile"
            ),
            ServeError::WidthMismatch { expected, actual } => {
                write!(f, "candidate width {actual} != profile width {expected}")
            }
            ServeError::Search(e) => write!(f, "search failed: {e}"),
            ServeError::QueueFull => write!(f, "request queue is full"),
            ServeError::Disconnected => write!(f, "worker pool shut down"),
            ServeError::Wire(e) => write!(f, "wire protocol error: {e}"),
            ServeError::NoRetainedTrace(app) => {
                write!(f, "{app} was registered without a retained trace")
            }
            ServeError::TraceTooLarge { blocks, cap_blocks } => {
                write!(
                    f,
                    "trace of {blocks} blocks exceeds the cap of {cap_blocks}"
                )
            }
            ServeError::Verify(e) => write!(f, "verification failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Search(e) => Some(e),
            ServeError::Wire(e) => Some(e),
            ServeError::Verify(e) => Some(e),
            _ => None,
        }
    }
}

impl From<XorIndexError> for ServeError {
    fn from(e: XorIndexError) -> Self {
        ServeError::Search(e)
    }
}

impl From<crate::WireError> for ServeError {
    fn from(e: crate::WireError) -> Self {
        ServeError::Wire(e)
    }
}

impl From<VerifyError> for ServeError {
    fn from(e: VerifyError) -> Self {
        ServeError::Verify(e)
    }
}

/// Everything the service needs to take ownership of one application.
#[derive(Debug, Clone)]
pub struct Registration {
    /// The application's conflict profile, frozen into its kernel on
    /// registration.
    pub profile: ConflictProfile,
    /// The cache geometry its index function is derived for.
    pub cache: CacheConfig,
    /// Function class searched by [`Request::RunSearch`] (default: 2-input
    /// permutation-based, the class the paper recommends for hardware).
    pub class: FunctionClass,
    /// Neighbour pool used by hill-climbing searches.
    pub pool: NeighborPool,
    /// Optional total entry cap for the application's memo (see
    /// [`ShardedMemo::with_capacity`]); `None` = unbounded.
    pub memo_capacity: Option<usize>,
    /// Optional retained block trace, enabling [`Request::SimulateFunction`]
    /// and [`Request::OptimizeVerified`] for this application. Off by
    /// default: retention costs 8 bytes per block access.
    pub trace: Option<Arc<Vec<BlockAddr>>>,
    /// Memory cap on the retained trace, in block accesses (default
    /// [`DEFAULT_TRACE_CAP_BLOCKS`]). Registration fails with
    /// [`ServeError::TraceTooLarge`] when the trace exceeds it.
    pub trace_cap_blocks: usize,
}

impl Registration {
    /// A registration with the paper's defaults for everything but the
    /// profile and cache.
    #[must_use]
    pub fn new(profile: ConflictProfile, cache: CacheConfig) -> Self {
        Registration {
            profile,
            cache,
            class: FunctionClass::permutation_based(2),
            pool: NeighborPool::UnitsAndPairs,
            memo_capacity: None,
            trace: None,
            trace_cap_blocks: DEFAULT_TRACE_CAP_BLOCKS,
        }
    }

    /// Selects the function class searched for this application.
    #[must_use]
    pub fn with_class(mut self, class: FunctionClass) -> Self {
        self.class = class;
        self
    }

    /// Selects the neighbour pool used by searches.
    #[must_use]
    pub fn with_pool(mut self, pool: NeighborPool) -> Self {
        self.pool = pool;
        self
    }

    /// Caps the application's memo at roughly `total_entries` cached costs.
    #[must_use]
    pub fn with_memo_capacity(mut self, total_entries: usize) -> Self {
        self.memo_capacity = Some(total_entries);
        self
    }

    /// Retains a block trace so the service can answer simulation-backed
    /// requests for this application.
    #[must_use]
    pub fn with_trace(mut self, trace: impl IntoIterator<Item = BlockAddr>) -> Self {
        self.trace = Some(Arc::new(trace.into_iter().collect()));
        self
    }

    /// Retains an already-shared block trace without copying it.
    #[must_use]
    pub fn with_shared_trace(mut self, trace: Arc<Vec<BlockAddr>>) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Raises (or lowers) the retained-trace memory cap, in block accesses.
    #[must_use]
    pub fn with_trace_cap_blocks(mut self, blocks: usize) -> Self {
        self.trace_cap_blocks = blocks;
        self
    }
}

/// One registered application: the shared pricing state every request
/// routes through, its conflict histogram held once, by the kernel.
/// `pub(crate)` so the snapshot module can serialize and rebuild it without
/// widening the public API.
#[derive(Debug)]
pub(crate) struct Application {
    pub(crate) cache: CacheConfig,
    pub(crate) class: FunctionClass,
    pub(crate) pool: NeighborPool,
    pub(crate) kernel: Arc<FrozenKernel>,
    pub(crate) memo: ShardedMemo,
    pub(crate) scaffold: ScaffoldCache,
    pub(crate) trace: Option<Arc<Vec<BlockAddr>>>,
    /// Persistent replayer over the retained trace. Holding it on the
    /// application (rather than building one per request) keeps the shared
    /// 3C pre-classification and the replay counters alive across requests.
    pub(crate) replayer: Option<TraceReplayer>,
    /// Simulated stats of the conventional function over the retained trace,
    /// filled by the first verified optimization. The trace and geometry are
    /// immutable per application, so the baseline replay is a pure function
    /// of the registration — later requests reuse it instead of replaying.
    pub(crate) baseline: Arc<OnceLock<SimStats>>,
}

impl Application {
    /// Builds the persistent replayer for a retained trace. Its clones share
    /// one pre-classification, so a trace is classified once per
    /// application; each single-candidate replay is one pass on the worker
    /// thread that asked for it.
    pub(crate) fn build_replayer(
        cache: CacheConfig,
        trace: Option<&Arc<Vec<BlockAddr>>>,
    ) -> Option<TraceReplayer> {
        trace.map(|t| TraceReplayer::new(cache, Arc::clone(t)))
    }
}

/// A request to the serving layer. Pricing requests carry [`PackedBasis`]
/// candidates, so handling them touches no `Subspace` at all.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Price one candidate null space (Eq. 4, memoized).
    PriceCandidate {
        /// The application whose profile prices the candidate.
        app: AppId,
        /// The candidate's packed null-space basis.
        basis: PackedBasis,
    },
    /// Price a batch of candidates in one request.
    PriceBatch {
        /// The application whose profile prices the candidates.
        app: AppId,
        /// The candidates' packed null-space bases.
        bases: Vec<PackedBasis>,
    },
    /// Price a batch under an incumbent bound: candidates whose running Eq. 4
    /// sum saturates the bound are abandoned and reported as
    /// [`BoundedCost::AtLeast`] instead of being summed to completion.
    PriceBatchBounded {
        /// The application whose profile prices the candidates.
        app: AppId,
        /// The candidates' packed null-space bases.
        bases: Vec<PackedBasis>,
        /// The incumbent: candidates costing at least this are abandoned.
        bound: u64,
    },
    /// Run a full design-space search for the application's function class,
    /// pricing through the application's kernel. The memo is not consulted:
    /// the outcome depends only on the registration and the request.
    RunSearch {
        /// The application to optimize.
        app: AppId,
        /// The search algorithm to run.
        algorithm: SearchAlgorithm,
    },
    /// Report the application's serving statistics.
    Stats {
        /// The application to inspect.
        app: AppId,
    },
    /// Drop every memoized cost for the application (e.g. after re-profiling
    /// is scheduled), forcing recomputation.
    Evict {
        /// The application whose memo to clear.
        app: AppId,
    },
    /// Replay the application's retained trace under one candidate function,
    /// returning ground-truth hit/miss counts with a per-set conflict
    /// breakdown. Requires a registration with a retained trace.
    SimulateFunction {
        /// The application whose trace to replay.
        app: AppId,
        /// The candidate index function to simulate.
        function: HashFunction,
    },
    /// Run a search, then simulate its top-k candidates and return the
    /// true-miss winner with the estimator audit — the full
    /// optimize→verify loop in one request.
    OptimizeVerified {
        /// The application to optimize.
        app: AppId,
        /// The search algorithm to run.
        algorithm: SearchAlgorithm,
        /// How many candidates to simulate: the search winner plus the best
        /// `top_k - 1` of its neighbourhood by estimate (0 behaves as 1).
        top_k: usize,
    },
}

/// A response from the serving layer, one variant per [`Request`] plus
/// [`Response::Error`].
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The estimated conflict misses of one candidate.
    Price(u64),
    /// The estimated conflict misses of a batch, aligned with the request.
    Prices(Vec<u64>),
    /// Incumbent-bounded batch prices, aligned with the request: exact for
    /// candidates below the bound, `AtLeast(bound)` for abandoned ones.
    BoundedPrices(Vec<BoundedCost>),
    /// The outcome of a search.
    Search(SearchOutcome),
    /// Serving statistics.
    Stats(AppStats),
    /// The entry counts dropped by an eviction.
    Evicted(EvictCounts),
    /// Ground-truth statistics from one trace replay.
    Simulated(SimStats),
    /// The outcome of a verified optimization.
    Verified(VerifiedOutcome),
    /// The request failed.
    Error(ServeError),
}

/// What one [`Request::Evict`] dropped: eviction clears *both* caches an
/// application prices through, so a re-profiled application recomputes
/// everything instead of mixing stale scaffolding with fresh costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EvictCounts {
    /// Memoized candidate costs dropped from the sharded memo.
    pub memo: usize,
    /// Remainder-grouped histograms dropped from the scaffold cache.
    pub scaffold: usize,
}

impl EvictCounts {
    /// Total entries dropped across both caches.
    #[must_use]
    pub fn total(self) -> usize {
        self.memo + self.scaffold
    }
}

impl fmt::Display for EvictCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} memo entries + {} scaffolds",
            self.memo, self.scaffold
        )
    }
}

/// A snapshot of one application's serving state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppStats {
    /// The application.
    pub app: AppId,
    /// Hashed address bits of its profile.
    pub hashed_bits: usize,
    /// Set-index bits of its cache.
    pub set_bits: usize,
    /// Distinct conflict vectors in its frozen histogram.
    pub distinct_vectors: usize,
    /// Aggregate memo counters (see [`ShardedMemo::stats`]). Only the pricing
    /// requests ([`Request::PriceCandidate`], [`Request::PriceBatch`],
    /// [`Request::PriceBatchBounded`]) probe and fill the memo, so these
    /// count pricing requests alone; searches never move them.
    pub memo: MemoStats,
    /// Per-shard hit/miss/entry counters, in shard order.
    pub shards: Vec<xorindex::MemoShardStats>,
    /// Scaffold-cache counters (see [`ScaffoldCache::stats`]): how often
    /// this application's searches reused a cached remainder-grouped
    /// histogram instead of regrouping it.
    pub scaffold: ScaffoldStats,
    /// Replay-engine counters (see [`TraceReplayer::replay_stats`]): replays
    /// run and how often the shared 3C pre-classification was built vs
    /// reused. All zero when the registration kept no trace.
    pub replay: ReplayStats,
}

/// The multi-tenant registry: one frozen kernel + sharded memo per
/// application, priced through shared references from any thread.
///
/// All methods take `&self`; wrap the service in an `Arc` to share it with a
/// [`WorkerPool`](crate::WorkerPool) or any other threads.
#[derive(Debug, Default)]
pub struct IndexService {
    apps: RwLock<Vec<Arc<Application>>>,
}

impl IndexService {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        IndexService {
            apps: RwLock::new(Vec::new()),
        }
    }

    /// Registers an application: validates the geometry, freezes the
    /// profile's histogram into the application's kernel, and allocates its
    /// memo. Returns the handle every subsequent request uses.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidGeometry`] when the cache's set bits are zero or
    /// at least the profile's hashed width.
    pub fn register(&self, registration: Registration) -> Result<AppId, ServeError> {
        let hashed_bits = registration.profile.hashed_bits();
        let set_bits = registration.cache.set_bits();
        if set_bits == 0 || set_bits >= hashed_bits {
            return Err(ServeError::InvalidGeometry {
                hashed_bits,
                set_bits,
            });
        }
        if let Some(trace) = &registration.trace {
            if trace.len() > registration.trace_cap_blocks {
                return Err(ServeError::TraceTooLarge {
                    blocks: trace.len() as u64,
                    cap_blocks: registration.trace_cap_blocks as u64,
                });
            }
        }
        let kernel = Arc::new(FrozenKernel::new(&registration.profile));
        let memo = match registration.memo_capacity {
            Some(cap) => ShardedMemo::with_capacity(cap),
            None => ShardedMemo::new(),
        };
        let replayer = Application::build_replayer(registration.cache, registration.trace.as_ref());
        let app = Application {
            cache: registration.cache,
            class: registration.class,
            pool: registration.pool,
            kernel,
            memo,
            scaffold: ScaffoldCache::new(),
            trace: registration.trace,
            replayer,
            baseline: Arc::new(OnceLock::new()),
        };
        let mut apps = self.apps.write().expect("app registry lock poisoned");
        apps.push(Arc::new(app));
        Ok(AppId(apps.len() - 1))
    }

    /// Number of registered applications.
    #[must_use]
    pub fn len(&self) -> usize {
        self.apps.read().expect("app registry lock poisoned").len()
    }

    /// `true` when no application is registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The shared pricing kernel of an application — for callers that want
    /// to price candidates without going through the request protocol.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownApp`] for an unregistered id.
    pub fn kernel(&self, app: AppId) -> Result<Arc<FrozenKernel>, ServeError> {
        Ok(Arc::clone(&self.app(app)?.kernel))
    }

    fn app(&self, id: AppId) -> Result<Arc<Application>, ServeError> {
        self.apps
            .read()
            .expect("app registry lock poisoned")
            .get(id.0)
            .cloned()
            .ok_or(ServeError::UnknownApp(id))
    }

    /// Width validation routed through the kernel's typed check
    /// ([`FrozenKernel::ensure_width`]), so the serving layer and the pricing
    /// core agree on what a malformed candidate is.
    fn check_width(app: &Application, basis: &PackedBasis) -> Result<(), ServeError> {
        app.kernel.ensure_width(basis).map_err(|e| match e {
            XorIndexError::ProfileMismatch {
                profile_bits,
                candidate_bits,
            } => ServeError::WidthMismatch {
                expected: profile_bits,
                actual: candidate_bits,
            },
            other => ServeError::Search(other),
        })
    }

    /// Prices one candidate null space for an application: a typed width
    /// check ([`FrozenKernel::ensure_width`]), a sharded memo probe,
    /// then (on a miss) one fresh kernel evaluation. No `Subspace` is ever
    /// materialized.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownApp`] / [`ServeError::WidthMismatch`].
    pub fn price_candidate(&self, app: AppId, basis: &PackedBasis) -> Result<u64, ServeError> {
        let app = self.app(app)?;
        Self::check_width(&app, basis)?;
        Ok(app.memo.price(&app.kernel, basis))
    }

    /// Prices a batch of candidates, returning costs aligned with `bases`.
    /// The whole batch is width-checked before any pricing happens, so a
    /// malformed batch is rejected atomically. Each candidate is then priced
    /// as [`IndexService::price_candidate`] prices it: from the memo, or on a
    /// miss by [`FrozenKernel::cost`] and backfilled.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownApp`] / [`ServeError::WidthMismatch`].
    pub fn price_batch(&self, app: AppId, bases: &[PackedBasis]) -> Result<Vec<u64>, ServeError> {
        let app = self.app(app)?;
        for basis in bases {
            Self::check_width(&app, basis)?;
        }
        Ok(bases
            .iter()
            .map(|basis| app.memo.price(&app.kernel, basis))
            .collect())
    }

    /// Prices a batch under an incumbent bound. Memoized candidates always
    /// answer exactly (the memo already holds their full cost); the rest go
    /// through [`FrozenKernel::cost_bounded`], which abandons a candidate the
    /// moment its running sum saturates the bound. Only exact prices are
    /// backfilled into the memo — an abandoned candidate's lower bound is
    /// never cached, so a later unbounded request still prices it fully.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownApp`] / [`ServeError::WidthMismatch`].
    pub fn price_batch_bounded(
        &self,
        app: AppId,
        bases: &[PackedBasis],
        bound: u64,
    ) -> Result<Vec<BoundedCost>, ServeError> {
        let app = self.app(app)?;
        for basis in bases {
            Self::check_width(&app, basis)?;
        }
        let mut out = Vec::with_capacity(bases.len());
        for basis in bases {
            let cost = match app.memo.probe(basis) {
                Some(cost) => BoundedCost::Exact(cost),
                None => {
                    let cost = app.kernel.cost_bounded(basis, bound);
                    if let BoundedCost::Exact(exact) = cost {
                        app.memo.insert(basis, exact);
                    }
                    cost
                }
            };
            out.push(cost);
        }
        Ok(out)
    }

    /// Runs a full search for the application's configured class, pricing
    /// through the application's kernel and scaffold cache. The memo is
    /// neither probed nor filled — a search's candidates almost never recur —
    /// so the outcome, its `evaluations` included, depends only on the
    /// registration and the request, never on earlier requests.
    ///
    /// The search itself runs single-threaded: the worker pool is the
    /// parallelism layer, and one request should not oversubscribe it.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownApp`] or [`ServeError::Search`].
    pub fn run_search(
        &self,
        app: AppId,
        algorithm: SearchAlgorithm,
    ) -> Result<SearchOutcome, ServeError> {
        let app = self.app(app)?;
        let searcher = Searcher::new(app.kernel.profile(), app.class, app.cache.set_bits())?
            .with_pool(app.pool.clone())
            .with_kernel(Arc::clone(&app.kernel))
            .with_scaffold_cache(app.scaffold.clone())
            .with_threads(1);
        Ok(searcher.run(algorithm)?)
    }

    /// The replayer for an application's retained trace. Clones the
    /// application's persistent replayer, so every request shares the cached
    /// 3C pre-classification and the replay counters.
    fn replayer(app_id: AppId, app: &Application) -> Result<TraceReplayer, ServeError> {
        app.replayer
            .clone()
            .ok_or(ServeError::NoRetainedTrace(app_id))
    }

    /// Replays the application's retained trace under a candidate function,
    /// returning ground truth: hit/miss counts, 3C classification, and the
    /// per-set conflict breakdown.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownApp`], [`ServeError::NoRetainedTrace`] when the
    /// registration kept no trace, or [`ServeError::Verify`] when the
    /// candidate does not fit the cache geometry.
    pub fn simulate_function(
        &self,
        app_id: AppId,
        function: &HashFunction,
    ) -> Result<SimStats, ServeError> {
        let app = self.app(app_id)?;
        let replayer = Self::replayer(app_id, &app)?;
        Ok(replayer.replay(function)?)
    }

    /// Runs the full optimize→verify loop: search with the application's
    /// configured class, take the winner plus the best `top_k - 1` of its
    /// neighbourhood by Eq. 4 estimate, and judge that slate with
    /// [`verified_pick`]: simulate it (and the conventional baseline) against
    /// the retained trace, and return the candidate with the fewest
    /// *simulated* misses together with an
    /// [`EstimateAudit`](xorindex_verify::EstimateAudit) of how well the
    /// estimates tracked truth.
    ///
    /// The whole request runs on the calling thread, search, ranking and
    /// replays alike: the worker pool is the parallelism layer, and one
    /// request should not oversubscribe it. The outcome is bit-identical at
    /// any worker count.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownApp`], [`ServeError::NoRetainedTrace`],
    /// [`ServeError::Search`] or [`ServeError::Verify`].
    pub fn optimize_verified(
        &self,
        app_id: AppId,
        algorithm: SearchAlgorithm,
        top_k: usize,
    ) -> Result<VerifiedOutcome, ServeError> {
        let app = self.app(app_id)?;
        let replayer = Self::replayer(app_id, &app)?;
        let searcher = Searcher::new(app.kernel.profile(), app.class, app.cache.set_bits())?
            .with_pool(app.pool.clone())
            .with_kernel(Arc::clone(&app.kernel))
            .with_scaffold_cache(app.scaffold.clone())
            .with_threads(1);
        // The slate: the search winner first, then the best `top_k - 1` of
        // its neighbourhood by (estimate, generation order), ranked on the
        // climb's own lanes. Generation yields each candidate null space
        // once and never the winner itself, so no further dedup is needed.
        // Like the search, the ranking leaves the memo alone.
        let (search, runners_up) =
            searcher.run_with_runners_up(algorithm, top_k.saturating_sub(1))?;
        let (functions, estimates) =
            std::iter::once((search.function.clone(), search.estimated_misses))
                .chain(runners_up)
                .unzip();

        // The baseline replay is a pure function of the (immutable) trace
        // and geometry: the first request fills the application's cache,
        // later ones reuse it.
        Ok(verified_pick(
            &replayer,
            search,
            functions,
            estimates,
            &app.baseline,
        )?)
    }

    /// A snapshot of the application's serving statistics.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownApp`] for an unregistered id.
    pub fn stats(&self, app_id: AppId) -> Result<AppStats, ServeError> {
        let app = self.app(app_id)?;
        Ok(AppStats {
            app: app_id,
            hashed_bits: app.kernel.hashed_bits(),
            set_bits: app.cache.set_bits(),
            distinct_vectors: app.kernel.profile().distinct_vectors(),
            memo: app.memo.stats(),
            shards: app.memo.shard_stats(),
            scaffold: app.scaffold.stats(),
            replay: app
                .replayer
                .as_ref()
                .map(TraceReplayer::replay_stats)
                .unwrap_or_default(),
        })
    }

    /// Clears the application's memo *and* its scaffold cache, returning how
    /// many entries each dropped. This is what [`Request::Evict`] runs:
    /// after a re-profile both derived caches are stale, so both go.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownApp`] for an unregistered id.
    pub fn evict(&self, app: AppId) -> Result<EvictCounts, ServeError> {
        let app = self.app(app)?;
        Ok(EvictCounts {
            memo: app.memo.clear(),
            scaffold: app.scaffold.clear(),
        })
    }

    /// A point-in-time copy of the registry, in registration order — what
    /// the snapshot writer iterates.
    pub(crate) fn applications(&self) -> Vec<Arc<Application>> {
        self.apps
            .read()
            .expect("app registry lock poisoned")
            .clone()
    }

    /// Installs a fully rebuilt application (snapshot restore), returning
    /// its handle. Restores happen in snapshot order, so handles match the
    /// service that wrote the snapshot.
    pub(crate) fn install(&self, app: Application) -> AppId {
        let mut apps = self.apps.write().expect("app registry lock poisoned");
        apps.push(Arc::new(app));
        AppId(apps.len() - 1)
    }

    /// Dispatches one typed request — the entry point the worker pool
    /// drains the queue through. Never panics on malformed requests; errors
    /// come back as [`Response::Error`].
    #[must_use]
    pub fn handle(&self, request: Request) -> Response {
        let result = match request {
            Request::PriceCandidate { app, basis } => {
                self.price_candidate(app, &basis).map(Response::Price)
            }
            Request::PriceBatch { app, bases } => {
                self.price_batch(app, &bases).map(Response::Prices)
            }
            Request::PriceBatchBounded { app, bases, bound } => self
                .price_batch_bounded(app, &bases, bound)
                .map(Response::BoundedPrices),
            Request::RunSearch { app, algorithm } => {
                self.run_search(app, algorithm).map(Response::Search)
            }
            Request::Stats { app } => self.stats(app).map(Response::Stats),
            Request::Evict { app } => self.evict(app).map(Response::Evicted),
            Request::SimulateFunction { app, function } => self
                .simulate_function(app, &function)
                .map(Response::Simulated),
            Request::OptimizeVerified {
                app,
                algorithm,
                top_k,
            } => self
                .optimize_verified(app, algorithm, top_k)
                .map(Response::Verified),
        };
        result.unwrap_or_else(Response::Error)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::BlockAddr;
    use xorindex::EvalEngine;

    fn trace() -> Vec<BlockAddr> {
        (0..400u64)
            .flat_map(|i| [BlockAddr((i % 3) * 256), BlockAddr(0x800 + (i % 2) * 0x100)])
            .collect()
    }

    fn profile(hashed_bits: usize) -> ConflictProfile {
        ConflictProfile::from_blocks(trace(), hashed_bits, 256)
    }

    #[test]
    fn service_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<IndexService>();
        assert_send_sync::<Request>();
        assert_send_sync::<Response>();
    }

    #[test]
    fn register_validates_geometry() {
        let service = IndexService::new();
        // 8 set bits vs 12 hashed bits: fine.
        assert!(service
            .register(Registration::new(profile(12), CacheConfig::paper_cache(1)))
            .is_ok());
        // 10 set bits vs 10 hashed bits: not searchable.
        assert_eq!(
            service.register(Registration::new(profile(10), CacheConfig::paper_cache(4))),
            Err(ServeError::InvalidGeometry {
                hashed_bits: 10,
                set_bits: 10,
            })
        );
        assert_eq!(service.len(), 1);
        assert!(!service.is_empty());
    }

    #[test]
    fn pricing_matches_a_fresh_engine_and_memoizes() {
        let p = profile(12);
        let service = IndexService::new();
        let app = service
            .register(Registration::new(p.clone(), CacheConfig::paper_cache(1)))
            .unwrap();
        let mut reference = EvalEngine::new(&p).with_threads(1);
        let candidates: Vec<PackedBasis> = (1..=8)
            .map(|m| PackedBasis::standard_span(12, m..12))
            .collect();
        for c in &candidates {
            assert_eq!(
                service.price_candidate(app, c).unwrap(),
                reference.estimate_packed(c)
            );
        }
        // The same batch is now answered entirely from the memo.
        let batch = service.price_batch(app, &candidates).unwrap();
        assert_eq!(batch, reference.estimate_batch(&candidates));
        let stats = service.stats(app).unwrap();
        assert_eq!(stats.memo.hits, candidates.len() as u64);
        assert_eq!(stats.memo.misses, candidates.len() as u64);
        assert_eq!(stats.hashed_bits, 12);
        assert_eq!(stats.set_bits, 8);
        assert!(stats.distinct_vectors > 0);
        // Eviction forces recomputation but not different answers.
        let dropped = service.evict(app).unwrap();
        assert_eq!(dropped.memo, candidates.len());
        assert_eq!(service.price_batch(app, &candidates).unwrap(), batch);
    }

    #[test]
    fn width_mismatch_is_an_error_not_a_panic() {
        let service = IndexService::new();
        let app = service
            .register(Registration::new(profile(12), CacheConfig::paper_cache(1)))
            .unwrap();
        let wide = PackedBasis::standard_span(16, 8..16);
        assert_eq!(
            service.price_candidate(app, &wide),
            Err(ServeError::WidthMismatch {
                expected: 12,
                actual: 16,
            })
        );
        // A batch with one bad width is rejected before pricing anything.
        let good = PackedBasis::standard_span(12, 8..12);
        let hits_before = service.stats(app).unwrap().memo;
        assert!(service.price_batch(app, &[good, wide.clone()]).is_err());
        assert_eq!(service.stats(app).unwrap().memo, hits_before);
    }

    #[test]
    fn unknown_app_is_reported() {
        let service = IndexService::new();
        let ghost = AppId(7);
        assert_eq!(service.evict(ghost), Err(ServeError::UnknownApp(ghost)));
        assert_eq!(format!("{ghost}"), "app#7");
        let response = service.handle(Request::Stats { app: ghost });
        assert_eq!(response, Response::Error(ServeError::UnknownApp(ghost)));
    }

    #[test]
    fn run_search_matches_a_standalone_searcher_and_leaves_the_memo_untouched() {
        let p = profile(12);
        let service = IndexService::new();
        let app = service
            .register(
                Registration::new(p.clone(), CacheConfig::paper_cache(1))
                    .with_class(FunctionClass::xor_unlimited()),
            )
            .unwrap();
        let before = service.stats(app).unwrap();
        let served = service.run_search(app, SearchAlgorithm::HillClimb).unwrap();
        let standalone = Searcher::new(&p, FunctionClass::xor_unlimited(), 8)
            .unwrap()
            .run(SearchAlgorithm::HillClimb)
            .unwrap();
        // The whole outcome, `evaluations` included, is the standalone one.
        assert_eq!(served, standalone);
        // The search neither probed nor filled the app's memo.
        let after = service.stats(app).unwrap();
        assert_eq!(after.memo, before.memo);
        assert_eq!(after.shards, before.shards);
        // So a repeat answers identically.
        assert_eq!(
            service.run_search(app, SearchAlgorithm::HillClimb).unwrap(),
            served
        );
    }

    #[test]
    fn optimize_verified_leaves_the_memo_as_run_search_does() {
        // Neither the search nor the rank step touches the memo, so both
        // requests leave it as registration left it: empty and unprobed.
        let service = IndexService::new();
        let registration = Registration::new(profile(12), CacheConfig::paper_cache(1))
            .with_class(FunctionClass::xor_unlimited())
            .with_trace(trace());
        let app = service.register(registration).unwrap();
        let before = service.stats(app).unwrap();
        assert_eq!(
            (before.memo.entries, before.memo.hits, before.memo.misses),
            (0, 0, 0)
        );
        let outcome = service
            .optimize_verified(app, SearchAlgorithm::HillClimb, 3)
            .unwrap();
        let search = service.run_search(app, SearchAlgorithm::HillClimb).unwrap();
        assert_eq!(outcome.search, search);
        let after = service.stats(app).unwrap();
        assert_eq!(after.memo, before.memo);
        assert_eq!(after.shards, before.shards);
    }

    #[test]
    fn bounded_batches_are_exact_below_the_bound_and_memoize_only_exacts() {
        let p = profile(12);
        let service = IndexService::new();
        let app = service
            .register(Registration::new(p.clone(), CacheConfig::paper_cache(1)))
            .unwrap();
        let candidates: Vec<PackedBasis> = (1..=8)
            .map(|m| PackedBasis::standard_span(12, m..12))
            .collect();
        let exact = service.price_batch(app, &candidates).unwrap();
        service.evict(app).unwrap();
        let bound = exact.iter().copied().max().unwrap() / 2 + 1;
        let bounded = service
            .price_batch_bounded(app, &candidates, bound)
            .unwrap();
        let mut abandoned = 0usize;
        for (cost, &truth) in bounded.iter().zip(&exact) {
            match *cost {
                BoundedCost::Exact(c) => assert_eq!(c, truth),
                BoundedCost::AtLeast(b) => {
                    assert_eq!(b, bound);
                    assert!(truth >= bound);
                    abandoned += 1;
                }
            }
        }
        assert!(abandoned > 0, "bound {bound} should abandon something");
        // Only the exact prices were cached.
        assert_eq!(
            service.stats(app).unwrap().memo.entries,
            candidates.len() - abandoned
        );
        // The abandoned candidates still price fully (and correctly) later.
        assert_eq!(service.price_batch(app, &candidates).unwrap(), exact);
    }

    #[test]
    fn bound_zero_abandons_every_unseen_candidate_on_both_routes() {
        // `Exact` exactly when the cost is below the bound, so bound 0
        // answers `AtLeast(0)` for every candidate the memo has not seen —
        // zero-cost ones too, however large their null space — whether the
        // kernel prices from its weight table (the 12-bit profile) or scans
        // its entries (24 bits whose vectors span 21 dimensions).
        let units: Vec<(u64, u64)> = (0..21).map(|b| (1u64 << b, 3)).collect();
        let scanned = ConflictProfile::from_parts(24, 64, units).unwrap();
        let service = IndexService::new();
        for (profile, width) in [(profile(12), 12usize), (scanned, 24)] {
            let app = service
                .register(Registration::new(profile, CacheConfig::paper_cache(1)))
                .unwrap();
            assert_eq!(service.kernel(app).unwrap().has_weight_table(), width == 12);
            let bases = vec![
                PackedBasis::standard_span(width, [width - 3, width - 2, width - 1]),
                PackedBasis::standard_span(width, 0..8),
                PackedBasis::standard_span(width, 0..width),
            ];
            let costs: Vec<u64> = bases
                .iter()
                .map(|b| service.kernel(app).unwrap().cost(b))
                .collect();
            assert!(costs.contains(&0) && costs.iter().any(|&c| c > 0));
            let response = service.handle(Request::PriceBatchBounded {
                app,
                bases: bases.clone(),
                bound: 0,
            });
            assert_eq!(
                response,
                Response::BoundedPrices(vec![BoundedCost::AtLeast(0); bases.len()]),
                "{width} bits"
            );
            // Nothing was priced exactly, so nothing was memoized.
            assert_eq!(service.stats(app).unwrap().memo.entries, 0);
        }
    }

    #[test]
    fn searches_reuse_the_applications_scaffold_cache() {
        // A tiny cache leaves a 10-dimensional null space; every
        // neighbourhood prices from its parent's grouped histogram, which the
        // scaffold cache keeps.
        let tiny = CacheConfig::builder()
            .size_bytes(16)
            .block_bytes(4)
            .associativity(1)
            .build()
            .unwrap();
        let service = IndexService::new();
        let app = service
            .register(
                Registration::new(profile(12), tiny).with_class(FunctionClass::xor_unlimited()),
            )
            .unwrap();
        let before = service.stats(app).unwrap().scaffold;
        assert_eq!((before.hits, before.misses, before.entries), (0, 0, 0));
        let first = service.run_search(app, SearchAlgorithm::HillClimb).unwrap();
        let after_first = service.stats(app).unwrap().scaffold;
        assert!(after_first.misses > 0, "search should build scaffolds");
        // The second (identical) search re-prices every neighbourhood, but
        // every scaffold it needs is already cached, so misses stay flat
        // while hits climb.
        let second = service.run_search(app, SearchAlgorithm::HillClimb).unwrap();
        let after_second = service.stats(app).unwrap().scaffold;
        assert_eq!(first.function, second.function);
        assert_eq!(after_second.misses, after_first.misses);
        assert!(after_second.hits > after_first.hits);
    }

    #[test]
    fn evict_clears_both_the_memo_and_the_scaffold_cache() {
        // Same tiny geometry as the scaffold-reuse test: a search is the
        // only way to populate the scaffold cache.
        let tiny = CacheConfig::builder()
            .size_bytes(16)
            .block_bytes(4)
            .associativity(1)
            .build()
            .unwrap();
        let service = IndexService::new();
        let app = service
            .register(
                Registration::new(profile(12), tiny).with_class(FunctionClass::xor_unlimited()),
            )
            .unwrap();
        service.run_search(app, SearchAlgorithm::HillClimb).unwrap();
        // Searches leave the memo alone; a pricing request fills it.
        let candidates: Vec<PackedBasis> = (1..=3)
            .map(|m| PackedBasis::standard_span(12, m..12))
            .collect();
        service.price_batch(app, &candidates).unwrap();
        let stats = service.stats(app).unwrap();
        assert_eq!(stats.memo.entries, candidates.len());
        assert!(stats.scaffold.entries > 0);
        // Evict through the request protocol: both caches empty, counts
        // reported per cache.
        let response = service.handle(Request::Evict { app });
        let Response::Evicted(counts) = response else {
            panic!("expected Evicted, got {response:?}");
        };
        assert_eq!(counts.memo, stats.memo.entries);
        assert_eq!(counts.scaffold, stats.scaffold.entries);
        assert_eq!(counts.total(), counts.memo + counts.scaffold);
        let after = service.stats(app).unwrap();
        assert_eq!(after.memo.entries, 0);
        // Regression: eviction resets the scaffold stats, not just the memo.
        assert_eq!(
            (
                after.scaffold.entries,
                after.scaffold.hits,
                after.scaffold.misses,
                after.scaffold.evictions
            ),
            (0, 0, 0, 0)
        );
    }

    #[test]
    fn capped_registration_bounds_the_memo_without_changing_prices() {
        let p = profile(12);
        let service = IndexService::new();
        let unbounded = service
            .register(Registration::new(p.clone(), CacheConfig::paper_cache(1)))
            .unwrap();
        let capped = service
            .register(Registration::new(p, CacheConfig::paper_cache(1)).with_memo_capacity(4))
            .unwrap();
        let candidates: Vec<PackedBasis> = (0..40)
            .map(|i| PackedBasis::standard_span(12, [i % 12, (i + 5) % 12, (i + 7) % 12]))
            .collect();
        let a = service.price_batch(unbounded, &candidates).unwrap();
        let b = service.price_batch(capped, &candidates).unwrap();
        assert_eq!(a, b);
        let stats = service.stats(capped).unwrap();
        assert_eq!(stats.memo.capacity, Some(4));
        assert!(stats.memo.entries <= stats.memo.shards);
        assert!(stats.memo.rejected_inserts > 0);
    }
}
