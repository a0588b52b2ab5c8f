//! The cells the workloads draw from, their traces, and the seeded generator
//! every input is made from.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cache_sim::{BlockAddr, CacheConfig};
use experiments::sweep::SweepConfig;
use gf2::BitMatrix;
use workloads::{Scale, WorkloadSuite};
use xorindex::{FunctionClass, HashFunction};

/// Hashed address bits `n` of every profile (the full sweep's width).
pub const HASHED_BITS: usize = 16;

/// Workload input scale of every trace.
pub const SCALE: Scale = Scale::Tiny;

/// The one roster workload left out of `design`: its 4 KB and 16 KB cells
/// alone profile for ~13 s cold, more than half of the whole roster's time,
/// which no run of the benchmark's length can hold.
const DESIGN_EXCLUDED: &str = "lame";

/// One (workload × cache geometry × function class) cell of the sweep grid.
#[derive(Debug, Clone)]
pub struct Cell {
    pub workload: String,
    pub kb: u64,
    pub label: String,
    pub class: FunctionClass,
}

impl Cell {
    pub fn cache(&self) -> CacheConfig {
        CacheConfig::paper_cache(self.kb)
    }

    pub fn name(&self) -> String {
        format!("{}@{}KB/{}", self.workload, self.kb, self.label)
    }
}

fn cells(config: &SweepConfig) -> Vec<Cell> {
    let mut out = Vec::new();
    for workload in &config.workloads {
        for &kb in &config.cache_sizes_kb {
            for (label, class) in &config.classes {
                out.push(Cell {
                    workload: workload.clone(),
                    kb,
                    label: label.clone(),
                    class: *class,
                });
            }
        }
    }
    out
}

/// `design`'s roster: a fixed sixth of `SweepConfig::full` (24 workloads ×
/// 1/4/16 KB × bit-selecting/unlimited XOR). Every workload but `lame`
/// appears once, in roster order, at cache sizes rotating 1, 4, 16 KB and
/// classes alternating, so each of the six (size, class) pairs holds about
/// a sixth of the 23 cells. A sixth of the grid is small enough for a run
/// to repeat every cell six times, spread over the run.
pub fn design_roster() -> Vec<Cell> {
    let config = SweepConfig::full();
    let workloads = config.workloads.iter().filter(|w| *w != DESIGN_EXCLUDED);
    workloads
        .enumerate()
        .map(|(i, workload)| {
            let (label, class) = &config.classes[i % config.classes.len()];
            Cell {
                workload: workload.clone(),
                kb: config.cache_sizes_kb[i % config.cache_sizes_kb.len()],
                label: label.clone(),
                class: *class,
            }
        })
        .collect()
}

/// The served applications of `optimize` and `explore`: the dozen cells of
/// `SweepConfig::default_grid` (crc/fir/susan × 1/4 KB × both classes), plus
/// des@1KB/xor, the roster cell whose verified winner simulates more misses
/// than conventional indexing. Thirteen apps of very different cost also
/// put each workload's median inside one app's latencies rather than on
/// the boundary between two.
pub fn served_apps() -> Vec<Cell> {
    let mut apps = cells(&SweepConfig::default_grid());
    apps.push(Cell {
        workload: "des".into(),
        kb: 1,
        label: "xor".into(),
        class: FunctionClass::xor_unlimited(),
    });
    apps
}

/// A cell's block trace, shared (`Arc`) by every cell of the same workload
/// and geometry, as in `experiments::sweep`.
#[derive(Debug, Clone)]
pub struct CellTrace {
    pub cell: Cell,
    pub cache: CacheConfig,
    pub blocks: Arc<Vec<BlockAddr>>,
}

/// Generates the block traces of `cells`: one data trace per workload, one
/// block-address stream per (workload, geometry). Returns the traces and
/// the time spent per (workload, geometry) stream, for the traced run.
pub fn generate_traces(cells: &[Cell]) -> (Vec<CellTrace>, Vec<Duration>) {
    let mut out: Vec<CellTrace> = Vec::with_capacity(cells.len());
    let mut spans = Vec::new();
    let mut current: Option<(String, memtrace::Trace)> = None;
    for cell in cells {
        let cache = cell.cache();
        let shared = out
            .iter()
            .find(|t| t.cell.workload == cell.workload && t.cell.kb == cell.kb)
            .map(|t| Arc::clone(&t.blocks));
        let blocks = match shared {
            Some(blocks) => blocks,
            None => {
                let start = Instant::now();
                if current.as_ref().map(|(w, _)| w.as_str()) != Some(cell.workload.as_str()) {
                    let workload = WorkloadSuite::by_name(&cell.workload).unwrap_or_else(|| {
                        panic!("roster names unknown workload {}", cell.workload)
                    });
                    current = Some((cell.workload.clone(), workload.data_trace(SCALE)));
                }
                let trace = &current.as_ref().expect("trace generated above").1;
                let blocks = Arc::new(trace.data_block_addresses(cache.block_bits()).collect());
                spans.push(start.elapsed());
                blocks
            }
        };
        out.push(CellTrace {
            cell: cell.clone(),
            cache,
            blocks,
        });
    }
    (out, spans)
}

/// SplitMix64: the benchmark's only source of randomness, so one seed fixes
/// every input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// `count` distinct indices of `0..n`, in draw order.
    pub fn sample(&mut self, n: usize, count: usize) -> Vec<usize> {
        let mut all: Vec<usize> = (0..n).collect();
        for i in 0..count.min(n) {
            let j = i + self.below(n - i);
            all.swap(i, j);
        }
        all.truncate(count.min(n));
        all
    }
}

/// A seeded 2-input permutation-based function: identity low-order rows, and
/// each set-index column XORs in at most one high-order address bit.
pub fn permutation_function(rng: &mut Rng, hashed_bits: usize, set_bits: usize) -> HashFunction {
    let high = hashed_bits - set_bits;
    let partner: Vec<Option<usize>> = (0..set_bits)
        .map(|_| match rng.below(high + 1) {
            0 => None,
            k => Some(set_bits + k - 1),
        })
        .collect();
    let matrix = BitMatrix::from_fn(hashed_bits, set_bits, |r, c| {
        r == c || partner[c] == Some(r)
    });
    let function = HashFunction::new(matrix).expect("identity low rows give full rank");
    FunctionClass::permutation_based(2)
        .check(&function)
        .expect("constructed inside the class");
    function
}
