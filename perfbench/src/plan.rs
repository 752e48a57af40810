//! The seeded inputs of each workload part.
//!
//! A plan is a pure function of the part and the seed: the seed picks
//! kernel sizes within a band, the order points run in, which programs
//! share a co-simulation, and the machine configurations of the cache
//! part. Nothing here touches the simulator; the program under test
//! only ever sees the generated inputs.

use carf_core::{CarfParams, PortReducedParams};
use carf_sim::SimConfig;
use carf_workloads::{all_workloads, SizeClass};

/// The four register-file backends, in reporting order.
pub const BACKENDS: [&str; 4] = ["base", "carf", "compressed", "ports"];

/// The paper-default machine of backend `b` (an index into [`BACKENDS`]).
pub fn backend_config(b: usize) -> SimConfig {
    let params = CarfParams::paper_default();
    match b {
        0 => SimConfig::paper_baseline(),
        1 => SimConfig::paper_carf(params),
        2 => SimConfig::paper_compressed(params),
        _ => SimConfig::paper_port_reduced(PortReducedParams::default()),
    }
}

/// SplitMix64: small, seedable, and identical on every host.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: &str) -> Self {
        let mut s = seed ^ 0x9e37_79b9_7f4a_7c15;
        for b in stream.bytes() {
            s = (s ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Self(s)
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

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// A paper kernel at a seeded size: `full_size` scaled by a factor drawn
/// from `band` (in percent).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelSize {
    pub kernel: usize,
    pub size: u32,
}

/// Sizes for all 14 paper kernels, each within `lo..=hi` percent of its
/// full size.
pub fn kernel_sizes(rng: &mut Rng, lo: u32, hi: u32) -> Vec<KernelSize> {
    all_workloads()
        .iter()
        .enumerate()
        .map(|(kernel, w)| {
            let pct = lo + rng.below((hi - lo + 1) as usize) as u32;
            KernelSize {
                kernel,
                size: (w.size(SizeClass::Full) * pct / 100).max(1),
            }
        })
        .collect()
}

/// `detailed_zoo`: every program (14 kernels, then the corpus) under
/// every backend, in a seeded order. A point is `(program, backend)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetailedPlan {
    pub kernels: Vec<KernelSize>,
    pub points: Vec<(usize, usize)>,
}

pub fn detailed(seed: u64, corpus_len: usize) -> DetailedPlan {
    let mut rng = Rng::new(seed, "detailed_zoo");
    let kernels = kernel_sizes(&mut rng, 80, 100);
    let programs = kernels.len() + corpus_len;
    let mut points: Vec<(usize, usize)> = (0..programs)
        .flat_map(|p| (0..BACKENDS.len()).map(move |b| (p, b)))
        .collect();
    rng.shuffle(&mut points);
    DetailedPlan { kernels, points }
}

/// `sampled_ff`: every paper kernel, run to halt, under every backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampledPlan {
    pub kernels: Vec<KernelSize>,
    pub points: Vec<(usize, usize)>,
}

pub fn sampled(seed: u64) -> SampledPlan {
    let mut rng = Rng::new(seed, "sampled_ff");
    // A narrow band: the longest sampled runs set `point_tail_ms` on
    // `shortcuts`, and a wide one would move it with the seed.
    let kernels = kernel_sizes(&mut rng, 48, 52);
    let mut points: Vec<(usize, usize)> = (0..kernels.len())
        .flat_map(|p| (0..BACKENDS.len()).map(move |b| (p, b)))
        .collect();
    rng.shuffle(&mut points);
    SampledPlan { kernels, points }
}

/// Contexts per co-simulation.
pub const CONTEXTS: usize = 4;

/// How many times `multi_ctx` places every program per backend, each
/// time in a fresh seeded grouping (more, shorter co-simulations give the
/// latency metrics more points).
pub const MULTI_PLACEMENTS: usize = 2;

/// `multi_ctx`: for each backend, [`MULTI_PLACEMENTS`] times, every
/// program placed in one of the 4-context co-simulations (the last group
/// wraps around to the first programs), with seeded context assignment
/// and point order. A point is `(backend, [program; 4])`; context order
/// is fetch priority.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiPlan {
    pub kernels: Vec<KernelSize>,
    pub points: Vec<(usize, [usize; CONTEXTS])>,
}

pub fn multi(seed: u64, corpus_len: usize) -> MultiPlan {
    let mut rng = Rng::new(seed, "multi_ctx");
    let kernels = kernel_sizes(&mut rng, 80, 100);
    let programs = kernels.len() + corpus_len;
    let groups = programs.div_ceil(CONTEXTS);
    let mut points = Vec::new();
    for b in 0..BACKENDS.len() {
        for _ in 0..MULTI_PLACEMENTS {
            let mut order: Vec<usize> = (0..programs).collect();
            rng.shuffle(&mut order);
            for g in 0..groups {
                let ctx = std::array::from_fn(|c| order[(g * CONTEXTS + c) % programs]);
                points.push((b, ctx));
            }
        }
    }
    rng.shuffle(&mut points);
    MultiPlan { kernels, points }
}

/// Machine variants `cache_replay` draws its configurations from: the
/// baseline's register count, the content-aware and compressed files'
/// `d+n`, and the port-reduced file's ports and capture entries.
fn variant(backend: usize, k: usize) -> SimConfig {
    const PREGS: [usize; 5] = [96, 104, 112, 120, 128];
    const DN: [u32; 7] = [8, 12, 16, 20, 24, 28, 32];
    const PORTS: [(u32, usize); 6] = [(2, 8), (3, 8), (4, 8), (4, 0), (5, 8), (6, 4)];
    match backend {
        0 => SimConfig {
            int_pregs: PREGS[k],
            ..SimConfig::paper_baseline()
        },
        1 => SimConfig::paper_carf(CarfParams::with_dn(DN[k])),
        2 => SimConfig::paper_compressed(CarfParams::with_dn(DN[k])),
        _ => {
            let (read_ports, capture_entries) = PORTS[k];
            SimConfig::paper_port_reduced(PortReducedParams {
                read_ports,
                capture_entries,
            })
        }
    }
}

fn variant_count(backend: usize) -> usize {
    [5, 7, 7, 6][backend]
}

/// Configurations drawn per backend in `cache_replay`.
pub const CACHE_CONFIGS_PER_BACKEND: usize = 3;
/// Warm passes after the cold pass in each `cache_replay` round.
pub const WARM_PASSES: usize = 3;

/// `cache_replay`: seeded configurations (three distinct variants per
/// backend) × every program at test size, a cold pass order and one
/// order per warm pass. A point is `(config, program)`.
#[derive(Debug, Clone)]
pub struct CachePlan {
    pub configs: Vec<(usize, SimConfig)>,
    pub points: Vec<(usize, usize)>,
    pub passes: Vec<Vec<usize>>,
}

pub fn cache(seed: u64, programs: usize) -> CachePlan {
    let mut rng = Rng::new(seed, "cache_replay");
    let mut configs = Vec::new();
    for b in 0..BACKENDS.len() {
        let mut ks: Vec<usize> = (0..variant_count(b)).collect();
        rng.shuffle(&mut ks);
        for &k in &ks[..CACHE_CONFIGS_PER_BACKEND] {
            configs.push((b, variant(b, k)));
        }
    }
    let points: Vec<(usize, usize)> = (0..configs.len())
        .flat_map(|c| (0..programs).map(move |p| (c, p)))
        .collect();
    let passes = (0..=WARM_PASSES)
        .map(|_| {
            let mut order: Vec<usize> = (0..points.len()).collect();
            rng.shuffle(&mut order);
            order
        })
        .collect();
    CachePlan {
        configs,
        points,
        passes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn describe(p: &CachePlan) -> Vec<String> {
        p.configs
            .iter()
            .map(|(b, c)| format!("{b}:{}", c.describe()))
            .collect()
    }

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(detailed(7, 8), detailed(7, 8));
        assert_eq!(sampled(7), sampled(7));
        assert_eq!(multi(7, 8), multi(7, 8));
        let (a, b) = (cache(7, 22), cache(7, 22));
        assert_eq!(describe(&a), describe(&b));
        assert_eq!((a.points, a.passes), (b.points, b.passes));
    }

    #[test]
    fn different_seed_different_inputs() {
        assert_ne!(detailed(7, 8), detailed(8, 8));
        assert_ne!(sampled(7), sampled(8));
        assert_ne!(multi(7, 8), multi(8, 8));
        let (a, b) = (cache(7, 22), cache(8, 22));
        assert!(describe(&a) != describe(&b) || a.passes != b.passes);
    }

    #[test]
    fn every_seed_covers_the_same_work() {
        for seed in [1, 2, 3] {
            let d = detailed(seed, 8);
            assert_eq!(d.points.len(), 22 * 4);
            let mut sorted = d.points.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 22 * 4, "each (program, backend) once");
            for k in &d.kernels {
                let full = all_workloads()[k.kernel].size(SizeClass::Full);
                assert!(k.size * 100 >= full * 80 - 100 && k.size <= full);
            }
            let m = multi(seed, 8);
            for b in 0..4 {
                let mut seen: Vec<usize> = m
                    .points
                    .iter()
                    .filter(|p| p.0 == b)
                    .flat_map(|p| p.1)
                    .collect();
                seen.sort_unstable();
                seen.dedup();
                assert_eq!(seen.len(), 22, "backend {b} runs every program");
            }
            let c = cache(seed, 22);
            assert_eq!(c.configs.len(), 12);
            assert!(c.configs.iter().all(|(_, cfg)| cfg.validate().is_ok()));
            assert_eq!(c.passes.len(), WARM_PASSES + 1);
        }
    }
}
