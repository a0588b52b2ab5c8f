//! Oracle checks, run outside every timed region: the legacy `Cache`
//! simulator for simulations and the scalar `MissEstimator` for prices.

use std::sync::Arc;

use cache_sim::{BlockAddr, CacheConfig};
use gf2::PackedBasis;
use xorindex::{ConflictProfile, HashFunction, MissEstimator};
use xorindex_verify::{SimStats, TraceReplayer, VerifiedOutcome};

use crate::err;
use crate::roster::HASHED_BITS;

/// Re-simulates the verified winner and the baseline on the legacy
/// simulator and re-prices the winner's and the search's estimates.
pub fn check_verified(
    cache: CacheConfig,
    blocks: &Arc<Vec<BlockAddr>>,
    profile: &ConflictProfile,
    outcome: &VerifiedOutcome,
) -> Result<(), String> {
    let replayer = TraceReplayer::new(cache, Arc::clone(blocks));
    let winner = outcome.winner();
    check_sim(&replayer, &winner.function, &winner.sim)?;
    let conventional = HashFunction::conventional(HASHED_BITS, cache.set_bits()).map_err(err)?;
    check_sim(&replayer, &conventional, &outcome.baseline)?;
    let estimator = MissEstimator::new(profile);
    for (function, estimate) in [
        (&winner.function, winner.estimated_misses),
        (&outcome.search.function, outcome.search.estimated_misses),
    ] {
        let scalar = estimator.estimate(function).map_err(err)?;
        if scalar != estimate {
            return Err(format!("estimate {estimate} != scalar {scalar}"));
        }
    }
    Ok(())
}

/// Compares one simulation with the legacy simulator's.
fn check_sim(
    replayer: &TraceReplayer,
    function: &HashFunction,
    sim: &SimStats,
) -> Result<(), String> {
    let legacy = replayer.replay_legacy(function).map_err(err)?;
    if &legacy == sim {
        Ok(())
    } else {
        Err(format!("simulated {sim} != legacy {legacy}"))
    }
}

/// The scalar estimator's price of one candidate.
pub fn scalar_price(profile: &ConflictProfile, basis: &PackedBasis) -> u64 {
    MissEstimator::new(profile).estimate_packed(basis)
}
