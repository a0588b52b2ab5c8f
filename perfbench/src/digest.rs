//! Output digests: one FNV-1a hash over every verified outcome, simulation
//! and price a run produced, plus the check that a seed's digest repeats.

use std::path::PathBuf;

use xorindex::{HashFunction, SearchOutcome};
use xorindex_verify::{SimStats, VerifiedOutcome};

#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn u64(&mut self, value: u64) -> &mut Self {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn u64s(&mut self, values: &[u64]) -> &mut Self {
        self.u64(values.len() as u64);
        for &v in values {
            self.u64(v);
        }
        self
    }

    pub fn function(&mut self, function: &HashFunction) -> &mut Self {
        self.u64(function.hashed_bits() as u64);
        for c in 0..function.set_bits() {
            self.u64(function.matrix().column(c).as_u64());
        }
        self
    }

    pub fn sim(&mut self, sim: &SimStats) -> &mut Self {
        let s = &sim.stats;
        self.u64s(&[
            s.accesses,
            s.hits,
            s.misses,
            s.compulsory_misses,
            s.capacity_misses,
            s.conflict_misses,
            s.evictions,
        ]);
        self.u64(sim.set_conflicts.len() as u64);
        for &(set, count) in &sim.set_conflicts {
            self.u64(u64::from(set)).u64(count);
        }
        self
    }

    pub fn search(&mut self, search: &SearchOutcome) -> &mut Self {
        self.function(&search.function).u64s(&[
            search.estimated_misses,
            search.baseline_estimate,
            search.evaluations,
            search.steps,
        ])
    }

    pub fn verified(&mut self, outcome: &VerifiedOutcome) -> &mut Self {
        self.search(&outcome.search);
        self.u64(outcome.candidates.len() as u64);
        for candidate in &outcome.candidates {
            self.function(&candidate.function)
                .u64(candidate.estimated_misses)
                .sim(&candidate.sim);
        }
        let a = &outcome.audit;
        self.u64(outcome.winner as u64)
            .sim(&outcome.baseline)
            .u64s(&[
                a.candidates,
                a.total_abs_error,
                a.max_abs_error,
                a.concordant,
                a.discordant,
                a.tied,
            ])
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// Hash of this executable, so a stored digest is only ever compared with
/// one written by the same build.
fn build_id() -> u64 {
    let bytes = std::env::current_exe()
        .and_then(std::fs::read)
        .unwrap_or_default();
    let mut d = Digest::default();
    for chunk in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        d.u64(u64::from_le_bytes(word));
    }
    d.value()
}

/// Where digests of earlier runs are kept: beside the executable, inside the
/// build directory.
fn store_dir() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    Some(exe.parent()?.join("perfbench-digests"))
}

/// Records `line` (the digest and exact counts of one workload, seed and
/// length) and compares it with what an earlier run of the same build wrote
/// for the same key. Returns the earlier line when they differ.
pub fn check_repeat(key: &str, line: &str) -> Result<(), String> {
    let Some(dir) = store_dir() else {
        return Ok(());
    };
    let path = dir.join(format!("{:016x}-{key}.txt", build_id()));
    match std::fs::read_to_string(&path) {
        Ok(previous) if previous.trim() != line.trim() => Err(previous),
        Ok(_) => Ok(()),
        Err(_) => {
            let _ = std::fs::create_dir_all(&dir);
            let _ = std::fs::write(&path, line);
            Ok(())
        }
    }
}
