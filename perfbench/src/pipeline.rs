//! `IndexService::optimize_verified` rebuilt from its public parts, with a
//! span around each, for the traced runs of `design` and `optimize`.

use std::sync::Arc;

use cache_sim::CacheConfig;
use xorindex::search::{NeighborPool, Searcher};
use xorindex::{
    ConflictProfile, FrozenKernel, FunctionClass, HashFunction, ScaffoldCache, SearchAlgorithm,
    ShardedMemo,
};
use xorindex_verify::{
    pick_winner, CandidateVerdict, EstimateAudit, SimStats, TraceReplayer, VerifiedOutcome,
};

use crate::err;
use crate::roster::HASHED_BITS;
use crate::spans::Tracer;

/// Candidates simulated per verified optimization.
pub const TOP_K: usize = 3;

pub struct Rebuilt {
    pub outcome: VerifiedOutcome,
    /// Candidates in the winner's final neighbourhood.
    pub neighborhood: usize,
}

/// Search → rank → functions → replay → audit, as the service runs them for
/// an application with a cold memo and scaffold cache. `baseline` is the
/// application's cached conventional replay; without one it is replayed
/// here, first, so that the replayer's 3C pre-classification is built
/// inside that replay.
pub fn optimize_verified(
    tracer: &mut Tracer,
    profile: &ConflictProfile,
    class: FunctionClass,
    cache: CacheConfig,
    kernel: Arc<FrozenKernel>,
    replayer: &TraceReplayer,
    baseline: Option<&SimStats>,
) -> Result<Rebuilt, String> {
    let searcher = Searcher::new(profile, class, cache.set_bits())
        .map_err(err)?
        .with_pool(NeighborPool::UnitsAndPairs)
        .with_kernel(kernel)
        .with_memo(ShardedMemo::new())
        .with_scaffold_cache(ScaffoldCache::new())
        .with_threads(1);
    let (search, hood) = tracer
        .span("core.search", || {
            searcher.run_with_neighborhood(SearchAlgorithm::HillClimb)
        })
        .map_err(err)?;
    let hood = hood.ok_or("hill climbing returned no neighbourhood")?;
    let costs = tracer.span("core.rank", || {
        searcher.engine().estimate_neighborhood(&hood)
    });
    let (functions, estimates) = tracer.span("core.hashfn", || {
        let mut functions = vec![search.function.clone()];
        let mut estimates = vec![search.estimated_misses];
        let mut scored: Vec<(u64, usize)> =
            costs.iter().enumerate().map(|(i, &c)| (c, i)).collect();
        scored.sort_unstable();
        for &(estimate, i) in &scored {
            if functions.len() == TOP_K {
                break;
            }
            let subspace = hood.candidates[i].basis.to_subspace();
            if let Ok(function) = HashFunction::from_null_space(&subspace, class) {
                functions.push(function);
                estimates.push(estimate);
            }
        }
        (functions, estimates)
    });
    let (sims, baseline) = tracer.span("verify.replay", || -> Result<_, String> {
        let baseline = match baseline {
            Some(b) => b.clone(),
            None => {
                let conventional =
                    HashFunction::conventional(HASHED_BITS, cache.set_bits()).map_err(err)?;
                replayer.replay(&conventional).map_err(err)?
            }
        };
        let sims = replayer.replay_many(&functions, 0).map_err(err)?;
        Ok((sims, baseline))
    })?;
    let outcome = tracer.span("verify.audit", || -> Result<_, String> {
        let pairs: Vec<(u64, u64)> = estimates
            .iter()
            .zip(&sims)
            .map(|(&estimate, sim)| (estimate, sim.conflict_misses()))
            .collect();
        let audit = EstimateAudit::new(&pairs);
        let winner = pick_winner(&sims).map_err(err)?;
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
    })?;
    Ok(Rebuilt {
        outcome,
        neighborhood: hood.len(),
    })
}
