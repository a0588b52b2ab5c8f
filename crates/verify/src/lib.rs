//! Simulation-backed verification of optimized index functions.
//!
//! The paper's search never simulates: candidate quality is judged by the
//! Eq. 4 estimate over the conflict profile, which is what makes the
//! optimization tractable. But before *deploying* a function, a service
//! should close the loop and confirm the pick against ground truth — the
//! simulate-to-decide step this crate owns. Every pipeline that judges a
//! search by simulation goes through one function, [`verified_pick`]:
//!
//! * [`TraceReplayer`] — replays a retained block trace through the
//!   `cache_sim` simulator under any candidate
//!   [`HashFunction`], producing true
//!   hit/miss/conflict-miss counts ([`SimStats`]) with a per-set conflict
//!   breakdown that localizes where a candidate still collides.
//! * [`EstimateAudit`] — compares Eq. 4 predictions against simulated truth
//!   across a candidate set: absolute error plus pairwise rank agreement,
//!   the figure that tells you whether the estimator *orders* candidates
//!   correctly (which is all the search needs from it).
//! * [`VerifiedOutcome`] — a search outcome paired with the simulated
//!   verdicts of the top-k candidates and the audit; the winner is the
//!   candidate with the fewest *simulated* misses, not the best estimate.
//! * [`verify_trace`] — one profile, kernel, replayer and baseline replay
//!   per trace, then one [`verified_pick`] per (class, algorithm) search:
//!   what [`Optimizer`], [`EvaluationReport`] and the table reproductions
//!   run.
//!
//! Everything here is deterministic: replays depend only on the trace, the
//! geometry and the candidate, and [`TraceReplayer::replay_many`] returns
//! results indexed by candidate position, so outcomes are bit-identical at
//! any thread count. [`verified_pick`] replays its slate on the calling
//! thread, so a serving worker never starts threads of its own.
//!
//! Replays of [`HashFunction`] candidates ride the fast engine in [`replay`]
//! when the geometry allows (LRU, associativity ≤ 8): a shared, cached 3C
//! pre-classification of the trace, one simulation per distinct partition
//! of the trace's blocks (candidates that put the same blocks in a common
//! set share it, relabelled), and fused passes that look each access's set
//! up in per-candidate byte tables and simulate compact tag arrays —
//! bit-identical to the legacy [`Cache`]-based path (exposed as
//! [`TraceReplayer::replay_legacy`]) and over an order of magnitude faster.
//! A single replay runs on the calling thread;
//! [`TraceReplayer::replay_many`] can spread a batch across threads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod optimizer;
pub mod replay;
mod report;

use std::fmt;
use std::sync::{Arc, OnceLock};

use cache_sim::{BlockAddr, Cache, CacheConfig, CacheError, CacheStats, ReuseStream};
use xorindex::{HashFunction, SearchOutcome};

pub use optimizer::{
    verify_trace, OptimizationOutcome, Optimizer, OptimizerBuilder, TraceVerdicts,
};
pub use replay::ReplayStats;
pub use report::{EvaluationReport, ReportRow};

use replay::ReplayCounters;

/// Errors from the verification layer. Malformed candidates produce typed
/// errors, never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// The candidate's set-index width does not match the replayer's cache
    /// geometry.
    SetBitsMismatch {
        /// Set-index bits of the cache being simulated.
        expected: usize,
        /// Set-index bits of the candidate function.
        actual: usize,
    },
    /// The cache simulator rejected the candidate as an index function.
    Cache(CacheError),
    /// A verified pick needs at least one candidate.
    EmptyCandidates,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::SetBitsMismatch { expected, actual } => {
                write!(f, "candidate has {actual} set bits, cache needs {expected}")
            }
            VerifyError::Cache(e) => write!(f, "cache simulation failed: {e}"),
            VerifyError::EmptyCandidates => write!(f, "no candidates to verify"),
        }
    }
}

impl std::error::Error for VerifyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            VerifyError::Cache(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CacheError> for VerifyError {
    fn from(e: CacheError) -> Self {
        VerifyError::Cache(e)
    }
}

/// Ground-truth statistics from replaying one trace under one index function.
///
/// The aggregate counters come straight from the simulator's
/// [`CacheStats`]; `set_conflicts` is the per-set conflict breakdown
/// (ascending set order, zero entries skipped) that localizes *where* the
/// function still collides.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SimStats {
    /// Aggregate hit/miss counters with 3C classification.
    pub stats: CacheStats,
    /// `(set index, conflict misses)` for every set that still conflicts,
    /// ascending, zeros omitted.
    pub set_conflicts: Vec<(u32, u64)>,
}

impl SimStats {
    /// Total simulated misses — the quantity a verified pick minimizes.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.stats.misses
    }

    /// Simulated conflict misses — the quantity Eq. 4 estimates.
    #[must_use]
    pub fn conflict_misses(&self) -> u64 {
        self.stats.conflict_misses
    }

    /// The set with the most conflict misses, if any set conflicted.
    #[must_use]
    pub fn hottest_set(&self) -> Option<(u32, u64)> {
        self.set_conflicts
            .iter()
            .copied()
            .max_by_key(|&(set, count)| (count, std::cmp::Reverse(set)))
    }
}

impl fmt::Display for SimStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} conflicting sets)",
            self.stats,
            self.set_conflicts.len()
        )
    }
}

/// Replays one application's retained block trace under candidate index
/// functions.
///
/// The trace is shared (`Arc`), so cloning a replayer — or simulating many
/// candidates in parallel — never copies it.
#[derive(Debug, Clone)]
pub struct TraceReplayer {
    config: CacheConfig,
    trace: Arc<Vec<BlockAddr>>,
    /// Function-independent 3C pre-classification, built lazily once per
    /// (trace, geometry) and shared across clones.
    preclass: Arc<OnceLock<Arc<ReuseStream>>>,
    /// Replay/pre-classification counters, shared across clones.
    counters: Arc<ReplayCounters>,
}

impl TraceReplayer {
    /// Creates a replayer for a cache geometry and a retained block trace.
    #[must_use]
    pub fn new(config: CacheConfig, trace: Arc<Vec<BlockAddr>>) -> Self {
        TraceReplayer {
            config,
            trace,
            preclass: Arc::new(OnceLock::new()),
            counters: Arc::new(ReplayCounters::default()),
        }
    }

    /// A no-op, kept so existing callers still compile. A single replay is
    /// one pass on the calling thread whatever `_partitions` says, and its
    /// result never depends on it.
    #[must_use]
    pub fn with_set_partitions(self, _partitions: usize) -> Self {
        self
    }

    /// Counters describing how this replayer (and its clones) have been
    /// exercised: replays run, pre-classification builds and cache hits.
    #[must_use]
    pub fn replay_stats(&self) -> ReplayStats {
        self.counters.snapshot()
    }

    /// The retained trace itself (shared, not copied).
    #[must_use]
    pub fn trace(&self) -> &Arc<Vec<BlockAddr>> {
        &self.trace
    }

    fn check(&self, function: &HashFunction) -> Result<(), VerifyError> {
        let expected = self.config.set_bits();
        if function.set_bits() != expected {
            return Err(VerifyError::SetBitsMismatch {
                expected,
                actual: function.set_bits(),
            });
        }
        Ok(())
    }

    /// `true` when [`HashFunction`] replays ride the fast engine for this
    /// geometry (LRU, associativity ≤ 8).
    #[must_use]
    pub fn fast_path(&self) -> bool {
        replay::fast_eligible(&self.config)
    }

    /// The paper's Table 3 `FA` reference on the retained trace, read from
    /// the cached reuse stream ([`ReuseStream::fully_associative_stats`]).
    #[must_use]
    pub fn fully_associative(&self) -> CacheStats {
        self.reuse_stream().fully_associative_stats()
    }

    /// Returns (building it on first use) the shared function-independent
    /// reuse-class stream for this (trace, geometry).
    fn reuse_stream(&self) -> Arc<ReuseStream> {
        if let Some(stream) = self.preclass.get() {
            self.counters.note_preclass_hit();
            return Arc::clone(stream);
        }
        Arc::clone(self.preclass.get_or_init(|| {
            self.counters.note_preclass_build();
            Arc::new(ReuseStream::build(
                &self.trace,
                self.config.num_blocks() as usize,
            ))
        }))
    }

    /// Replays the trace under a candidate hash function, returning true
    /// hit/miss counts with the per-set conflict breakdown. Rides the fast
    /// engine when [`TraceReplayer::fast_path`] holds, falling back to the
    /// legacy simulator otherwise; both produce identical results. It is the
    /// one-candidate case of [`TraceReplayer::replay_many`].
    ///
    /// # Errors
    ///
    /// [`VerifyError::SetBitsMismatch`] when the candidate does not target
    /// this cache's set count.
    pub fn replay(&self, function: &HashFunction) -> Result<SimStats, VerifyError> {
        let mut sims = self.replay_many(std::slice::from_ref(function), 1)?;
        Ok(sims.pop().expect("one result per candidate"))
    }

    /// Replays the trace under a candidate through the legacy [`Cache`]-based
    /// simulator, bypassing the fast engine. Exists so benches and the
    /// equivalence proptests can pin the two paths bit-identical.
    ///
    /// # Errors
    ///
    /// [`VerifyError::SetBitsMismatch`] when the candidate does not target
    /// this cache's set count.
    pub fn replay_legacy(&self, function: &HashFunction) -> Result<SimStats, VerifyError> {
        self.check(function)?;
        self.counters.note_replays(1);
        self.simulate_legacy(function)
    }

    fn simulate_legacy(&self, function: &HashFunction) -> Result<SimStats, VerifyError> {
        let mut cache =
            Cache::try_new(self.config, function.to_index_function())?.with_set_conflict_tracking();
        let stats = cache.simulate_blocks(self.trace.iter().copied());
        Ok(SimStats {
            stats,
            set_conflicts: cache.nonzero_set_conflicts(),
        })
    }

    /// Replays every candidate, simulating each distinct cache once.
    /// Candidates that put the same trace blocks in a common set simulate
    /// alike up to the names of their sets, so the batch is grouped by that
    /// partition: one member per group is simulated, and every other member
    /// gets its [`SimStats`] with the per-set conflicts renamed. On the fast
    /// path the simulated members share one pre-classification pass and run
    /// as the lanes of fused passes over the trace, two per pass.
    ///
    /// The simulations spread across up to `threads` OS threads (`0` = one
    /// per host CPU; `1`, what [`verified_pick`] passes, replays on the
    /// calling thread and starts none). Results are indexed by candidate
    /// position and bit-identical at any thread count.
    ///
    /// # Errors
    ///
    /// [`VerifyError::SetBitsMismatch`] if any candidate mismatches the
    /// geometry; the whole batch is validated before anything is simulated.
    pub fn replay_many(
        &self,
        functions: &[HashFunction],
        threads: usize,
    ) -> Result<Vec<SimStats>, VerifyError> {
        self.replay_sharing(functions, None, threads)
    }

    /// [`TraceReplayer::replay_many`] with one more group member whose
    /// simulation is already known: a candidate that partitions the blocks
    /// like `known`'s function takes its stats, relabelled, and is not
    /// simulated.
    fn replay_sharing(
        &self,
        functions: &[HashFunction],
        known: Option<(&HashFunction, &SimStats)>,
        threads: usize,
    ) -> Result<Vec<SimStats>, VerifyError> {
        let (known_function, known_sim) = known.unzip();
        for function in known_function.into_iter().chain(functions) {
            self.check(function)?;
        }
        if functions.is_empty() {
            return Ok(Vec::new());
        }
        // The known member, if any, comes first: `functions[i]` is member
        // `first + i`.
        let first = usize::from(known.is_some());
        let members: Vec<&HashFunction> = known_function.into_iter().chain(functions).collect();
        let reuse = self.reuse_stream();
        let tables: Vec<_> = members.iter().map(|f| replay::byte_tables(f)).collect();
        let num_sets = self.config.num_sets() as usize;
        let shares = replay::share(reuse.distinct_blocks(), num_sets, &tables);
        let simulated: Vec<usize> = (first..members.len())
            .filter(|&i| shares[i].leader == i)
            .collect();
        self.counters.note_replays(simulated.len() as u64);
        let threads = match threads {
            0 => xorindex::host_threads(),
            n => n,
        };
        let sims = in_chunks(simulated.len(), threads, |chunk| {
            let chunk = &simulated[chunk];
            if self.fast_path() {
                let leaders: Vec<_> = chunk.iter().map(|&i| &tables[i]).collect();
                replay::replay_fused(&self.config, &self.trace, &reuse, &leaders)
            } else {
                chunk
                    .iter()
                    .map(|&i| {
                        self.simulate_legacy(members[i])
                            .expect("batch was validated before simulation")
                    })
                    .collect()
            }
        });
        let sim_of = |i: usize| match known_sim {
            Some(sim) if i < first => sim,
            _ => &sims[simulated.binary_search(&i).expect("a leader is simulated")],
        };
        Ok(shares[first..]
            .iter()
            .map(|share| match &share.sets {
                Some(sets) => replay::relabel(sim_of(share.leader), sets),
                None => sim_of(share.leader).clone(),
            })
            .collect())
    }
}

/// Runs `job` over `0..n` cut into at most `threads` contiguous chunks, one
/// scoped thread per chunk (none for a single chunk), and concatenates the
/// results in order.
fn in_chunks<T: Send>(
    n: usize,
    threads: usize,
    job: impl Fn(std::ops::Range<usize>) -> Vec<T> + Sync,
) -> Vec<T> {
    let chunks = threads.clamp(1, n.max(1));
    if chunks == 1 {
        return job(0..n);
    }
    let size = n.div_ceil(chunks);
    let job = &job;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .step_by(size)
            .map(|start| scope.spawn(move || job(start..n.min(start + size))))
            .collect();
        handles
            .into_iter()
            .flat_map(|handle| handle.join().expect("replay thread panicked"))
            .collect()
    })
}

/// How well the Eq. 4 estimator tracked simulated truth over a candidate
/// set: absolute error plus pairwise rank agreement.
///
/// All fields are integers so audits compare bit-identically across runs;
/// the derived ratios ([`EstimateAudit::mean_abs_error`],
/// [`EstimateAudit::rank_agreement`]) are computed on demand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EstimateAudit {
    /// Number of (estimate, simulated) pairs audited.
    pub candidates: u64,
    /// Sum over candidates of `|estimate - simulated conflict misses|`.
    pub total_abs_error: u64,
    /// Largest single-candidate absolute error.
    pub max_abs_error: u64,
    /// Candidate pairs the estimator ordered the same way as simulation.
    pub concordant: u64,
    /// Candidate pairs the estimator ordered the opposite way.
    pub discordant: u64,
    /// Candidate pairs tied on either side (not counted for or against).
    pub tied: u64,
}

impl EstimateAudit {
    /// Audits `(estimated, simulated)` pairs, one per candidate, in
    /// candidate order. Rank agreement is computed over all unordered pairs:
    /// concordant when estimate and simulation order the two candidates the
    /// same way, discordant when they disagree, tied when either side ties.
    #[must_use]
    pub fn new(pairs: &[(u64, u64)]) -> Self {
        let mut audit = EstimateAudit {
            candidates: pairs.len() as u64,
            ..EstimateAudit::default()
        };
        for &(estimated, simulated) in pairs {
            let err = estimated.abs_diff(simulated);
            audit.total_abs_error += err;
            audit.max_abs_error = audit.max_abs_error.max(err);
        }
        for (i, &(est_a, sim_a)) in pairs.iter().enumerate() {
            for &(est_b, sim_b) in &pairs[i + 1..] {
                if est_a == est_b || sim_a == sim_b {
                    audit.tied += 1;
                } else if (est_a < est_b) == (sim_a < sim_b) {
                    audit.concordant += 1;
                } else {
                    audit.discordant += 1;
                }
            }
        }
        audit
    }

    /// Mean absolute error per candidate; 0 when no candidate was audited.
    #[must_use]
    pub fn mean_abs_error(&self) -> f64 {
        if self.candidates == 0 {
            0.0
        } else {
            self.total_abs_error as f64 / self.candidates as f64
        }
    }

    /// Fraction of decisive pairs the estimator ordered correctly, in
    /// `[0, 1]`; 1 when every pair was tied (the estimator never misled).
    #[must_use]
    pub fn rank_agreement(&self) -> f64 {
        let decisive = self.concordant + self.discordant;
        if decisive == 0 {
            1.0
        } else {
            self.concordant as f64 / decisive as f64
        }
    }
}

impl fmt::Display for EstimateAudit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} candidates, mean |err| {:.1}, max |err| {}, rank agreement {:.0}% ({}/{} pairs, {} tied)",
            self.candidates,
            self.mean_abs_error(),
            self.max_abs_error,
            self.rank_agreement() * 100.0,
            self.concordant,
            self.concordant + self.discordant,
            self.tied
        )
    }
}

/// One candidate's estimated cost next to its simulated truth.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateVerdict {
    /// The candidate function.
    pub function: HashFunction,
    /// Its Eq. 4 estimated conflict misses.
    pub estimated_misses: u64,
    /// Its simulated ground truth.
    pub sim: SimStats,
}

/// A search outcome verified by simulation: the top-k candidates' simulated
/// verdicts, the true-miss winner among them, the simulated conventional
/// baseline, and the estimator audit.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifiedOutcome {
    /// The estimate-driven search that produced the candidate set.
    pub search: SearchOutcome,
    /// The simulated top-k candidates, best estimate first; index 0 is the
    /// search winner.
    pub candidates: Vec<CandidateVerdict>,
    /// Index into `candidates` of the function with the fewest *simulated*
    /// misses (first wins ties).
    pub winner: usize,
    /// Simulated truth for the conventional bit-selection function, the
    /// deployment baseline.
    pub baseline: SimStats,
    /// How well the estimates tracked the simulations over the top-k.
    pub audit: EstimateAudit,
}

impl VerifiedOutcome {
    /// The winning candidate.
    ///
    /// # Panics
    ///
    /// Panics if the outcome was constructed with an out-of-range winner
    /// index; outcomes built by this crate always index a real candidate.
    #[must_use]
    pub fn winner(&self) -> &CandidateVerdict {
        &self.candidates[self.winner]
    }

    /// Percentage of *simulated* misses the winner removes relative to the
    /// conventional baseline — the deployment figure of merit, as opposed to
    /// [`SearchOutcome::estimated_percent_removed`].
    #[must_use]
    pub fn simulated_percent_removed(&self) -> f64 {
        CacheStats::percent_misses_removed(&self.baseline.stats, &self.winner().sim.stats)
    }

    /// `true` when simulation overturned the estimator: the true-miss winner
    /// is not the candidate the search ranked best.
    #[must_use]
    pub fn estimate_overruled(&self) -> bool {
        self.winner != 0
    }

    /// `true` when the winner simulates more misses than the conventional
    /// baseline: the one "worse than conventional indexing" test.
    #[must_use]
    pub fn loses_to_baseline(&self) -> bool {
        self.winner().sim.misses() > self.baseline.misses()
    }
}

/// Picks the index of the candidate with the fewest simulated misses; the
/// earliest candidate wins ties, so the pick is deterministic for any fixed
/// candidate order.
///
/// # Errors
///
/// [`VerifyError::EmptyCandidates`] when `sims` is empty.
pub fn pick_winner(sims: &[SimStats]) -> Result<usize, VerifyError> {
    sims.iter()
        .enumerate()
        .min_by_key(|(i, sim)| (sim.misses(), *i))
        .map(|(i, _)| i)
        .ok_or(VerifyError::EmptyCandidates)
}

/// Judges a slate (`functions`, the search winner first, with their Eq. 4
/// `estimates`) by simulation: replays it on the calling thread, audits the
/// estimates, and picks the fewest simulated misses with [`pick_winner`].
/// `baseline` caches the conventional function's replay for this (trace,
/// geometry): the first pick fills it.
///
/// The slate is replayed like [`TraceReplayer::replay_many`] batches, one
/// simulation per distinct block partition, with the conventional function
/// as one more member: a slate member that partitions the trace's blocks
/// like it takes the cached baseline, relabelled, and when no baseline is
/// cached yet the conventional function joins the same pass.
///
/// A slate holds a few candidates, and starting threads for them costs a
/// serving worker more CPU than it saves: the worker pool is the serving
/// layer's parallelism. A caller that wants a batch spread across threads
/// calls [`TraceReplayer::replay_many`] itself.
///
/// # Errors
///
/// [`VerifyError::SetBitsMismatch`] for a slate or search function of
/// another geometry, [`VerifyError::EmptyCandidates`] for an empty slate.
///
/// # Panics
///
/// Panics if `functions` and `estimates` differ in length.
pub fn verified_pick(
    replayer: &TraceReplayer,
    search: SearchOutcome,
    mut functions: Vec<HashFunction>,
    estimates: Vec<u64>,
    baseline: &OnceLock<SimStats>,
) -> Result<VerifiedOutcome, VerifyError> {
    assert_eq!(functions.len(), estimates.len(), "one estimate each");
    let (n, m) = (search.function.hashed_bits(), search.function.set_bits());
    let conventional = HashFunction::conventional(n, m).expect("1 <= m <= n");
    let (sims, baseline) = match baseline.get() {
        Some(known) => (
            replayer.replay_sharing(&functions, Some((&conventional, known)), 1)?,
            known.clone(),
        ),
        None => {
            functions.push(conventional);
            let mut sims = replayer.replay_many(&functions, 1)?;
            functions.pop();
            let sim = sims.pop().expect("one result per candidate");
            (sims, baseline.get_or_init(|| sim).clone())
        }
    };
    let pairs: Vec<(u64, u64)> = estimates
        .iter()
        .zip(&sims)
        .map(|(&estimate, sim)| (estimate, sim.conflict_misses()))
        .collect();
    let audit = EstimateAudit::new(&pairs);
    let winner = pick_winner(&sims)?;
    let candidates = functions
        .into_iter()
        .zip(estimates)
        .zip(sims)
        .map(|((function, estimated_misses), sim)| CandidateVerdict {
            function,
            estimated_misses,
            sim,
        })
        .collect();
    Ok(VerifiedOutcome {
        search,
        candidates,
        winner,
        baseline,
        audit,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::ModuloIndex;
    use xorindex::FunctionClass;

    fn ping_pong_trace() -> Arc<Vec<BlockAddr>> {
        // Two blocks one cache-size apart: every access conflicts under the
        // conventional function, none under s ^= high-bit XOR folding.
        Arc::new((0..400u64).map(|i| BlockAddr((i % 2) * 256)).collect())
    }

    #[test]
    fn replay_matches_a_hand_driven_cache() {
        let config = CacheConfig::paper_cache(1);
        let replayer = TraceReplayer::new(config, ping_pong_trace());
        let conventional = HashFunction::conventional(16, config.set_bits()).unwrap();
        let sim = replayer.replay(&conventional).unwrap();
        let mut cache =
            Cache::new(config, ModuloIndex::for_config(&config)).with_set_conflict_tracking();
        let expected = cache.simulate_blocks(replayer.trace().iter().copied());
        assert_eq!(sim.stats, expected);
        assert_eq!(sim.set_conflicts, cache.nonzero_set_conflicts());
        assert!(sim.conflict_misses() > 0, "the ping-pong must conflict");
        // Both blocks collapse onto set 0: the breakdown localizes it.
        assert_eq!(sim.hottest_set().unwrap().0, 0);
    }

    #[test]
    fn xor_folding_eliminates_the_simulated_conflicts() {
        let config = CacheConfig::paper_cache(1);
        let replayer = TraceReplayer::new(config, ping_pong_trace());
        let ns = gf2::PackedBasis::standard_span(16, [9usize, 10, 11, 12, 13, 14, 15])
            .extended(1 << 8 | 1);
        let folded = HashFunction::from_null_space(&ns, FunctionClass::xor_unlimited()).unwrap();
        let sim = replayer.replay(&folded).unwrap();
        assert_eq!(sim.conflict_misses(), 0);
        assert!(sim.set_conflicts.is_empty());
        assert!(sim.misses() < 400);
    }

    #[test]
    fn geometry_mismatch_is_typed() {
        let config = CacheConfig::paper_cache(1); // 8 set bits
        let replayer = TraceReplayer::new(config, ping_pong_trace());
        let narrow = HashFunction::conventional(16, 4).unwrap();
        assert_eq!(
            replayer.replay(&narrow),
            Err(VerifyError::SetBitsMismatch {
                expected: 8,
                actual: 4
            })
        );
    }

    #[test]
    fn replay_many_is_thread_count_invariant() {
        let config = CacheConfig::paper_cache(1);
        let replayer = TraceReplayer::new(config, ping_pong_trace());
        let candidates: Vec<HashFunction> = (1..=4)
            .map(|swap| {
                let bits: Vec<usize> = (0..8).map(|b| if b < swap { b + 8 } else { b }).collect();
                HashFunction::bit_selecting(16, &bits).unwrap()
            })
            .collect();
        let sequential = replayer.replay_many(&candidates, 1).unwrap();
        for threads in [2, 4, 0] {
            assert_eq!(
                replayer.replay_many(&candidates, threads).unwrap(),
                sequential
            );
        }
        assert_eq!(sequential.len(), candidates.len());
    }

    #[test]
    fn audit_counts_errors_and_rank_pairs() {
        // est:  10, 20, 30, 30
        // sim:  12, 18, 30, 25
        let audit = EstimateAudit::new(&[(10, 12), (20, 18), (30, 30), (30, 25)]);
        assert_eq!(audit.candidates, 4);
        // Per-candidate |errors| are 2, 2, 0, 5.
        assert_eq!(audit.total_abs_error, 9);
        assert_eq!(audit.max_abs_error, 5);
        // Pairs: (0,1) concordant, (0,2) concordant, (0,3) concordant,
        // (1,2) concordant, (1,3) concordant, (2,3) tied on estimate.
        assert_eq!(audit.concordant, 5);
        assert_eq!(audit.discordant, 0);
        assert_eq!(audit.tied, 1);
        assert!((audit.rank_agreement() - 1.0).abs() < 1e-12);
        assert!((audit.mean_abs_error() - 2.25).abs() < 1e-12);
        let text = audit.to_string();
        assert!(text.contains("rank agreement"));
    }

    #[test]
    fn audit_flags_disagreement() {
        let audit = EstimateAudit::new(&[(10, 30), (20, 10)]);
        assert_eq!(audit.discordant, 1);
        assert_eq!(audit.rank_agreement(), 0.0);
        // Degenerate audits never divide by zero.
        assert_eq!(EstimateAudit::new(&[]).rank_agreement(), 1.0);
        assert_eq!(EstimateAudit::new(&[]).mean_abs_error(), 0.0);
    }

    #[test]
    fn winner_is_fewest_simulated_misses_first_on_ties() {
        let mut a = SimStats::default();
        a.stats.misses = 10;
        let mut b = SimStats::default();
        b.stats.misses = 7;
        let mut c = SimStats::default();
        c.stats.misses = 7;
        assert_eq!(pick_winner(&[a.clone(), b.clone(), c]).unwrap(), 1);
        assert_eq!(pick_winner(&[a, b]).unwrap(), 1);
        assert_eq!(pick_winner(&[]), Err(VerifyError::EmptyCandidates));
    }
}
