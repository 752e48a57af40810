//! `detailed_zoo`, the first part of the `detailed` workload: cycle-level
//! runs of the 14 paper kernels at full size and the 8 corpus programs,
//! under all four register-file backends.
//!
//! Every simulation starts with empty caches, as the repository's
//! experiments do, and runs to halt or [`DETAIL_CAP`] committed
//! instructions. Its final architectural state is checked against the
//! functional executor at the same retired count.

use std::path::Path;
use std::time::Instant;

use carf_isa::{DecodedProgram, Program};
use carf_sim::{AnySimulator, SimConfig};

use crate::bench::{
    functional_check, run_points, secs_since, stats_digest, Point, Round, Tally, WORKERS,
};
use crate::plan::{self, backend_config, DetailedPlan, BACKENDS};
use crate::span::{traced, SpanLog};

/// Committed-instruction cap per point. Corpus programs halt before it;
/// the paper kernels at full size run millions of instructions, so the
/// cap keeps a round of all 88 points near 2.5 seconds on two workers.
pub const DETAIL_CAP: u64 = 150_000;

/// A program ready to simulate: its name, image and decoded form (for the
/// functional reference).
pub struct Prepared {
    pub name: String,
    pub program: Program,
    pub decoded: DecodedProgram,
}

/// Assembles and links every corpus program.
pub fn assemble_corpus(
    corpus_dir: &Path,
    log: &mut Option<SpanLog>,
) -> Result<Vec<carf_bench::corpus::CorpusProgram>, String> {
    traced(log, "isa.assemble", || {
        carf_bench::corpus::discover(corpus_dir, None)
    })
    .map_err(|e| format!("corpus: {e}"))
}

/// Builds the paper kernels at the plan's sizes, appends the corpus, and
/// decodes every program — the set-up shared by `detailed_zoo` and
/// `multi_ctx`.
pub fn prepare_programs(
    kernels: &[plan::KernelSize],
    corpus: Vec<carf_bench::corpus::CorpusProgram>,
    log: &mut Option<SpanLog>,
) -> Vec<Prepared> {
    let registry = carf_workloads::all_workloads();
    let mut programs: Vec<(String, Program)> = Vec::new();
    for k in kernels {
        let w = &registry[k.kernel];
        let program = traced(log, "workloads.build", || w.build(k.size));
        programs.push((format!("{}@{}", w.name, k.size), program));
    }
    programs.extend(corpus.into_iter().map(|c| (c.name, c.program)));
    programs
        .into_iter()
        .map(|(name, program)| {
            let decoded = traced(log, "isa.decode", || DecodedProgram::decode(&program));
            Prepared {
                name,
                program,
                decoded,
            }
        })
        .collect()
}

pub struct Zoo {
    plan: DetailedPlan,
    programs: Vec<Prepared>,
    configs: Vec<SimConfig>,
}

impl Zoo {
    pub fn setup(seed: u64, corpus_dir: &Path, log: &mut Option<SpanLog>) -> Result<Self, String> {
        let corpus = assemble_corpus(corpus_dir, log)?;
        let plan = plan::detailed(seed, corpus.len());
        let programs = prepare_programs(&plan.kernels, corpus, log);
        let configs = (0..BACKENDS.len()).map(backend_config).collect();
        Ok(Self {
            plan,
            programs,
            configs,
        })
    }

    pub fn inputs(&self) -> String {
        format!(
            "{} programs x {} backends, cap {DETAIL_CAP} insts; kernel sizes {}",
            self.programs.len(),
            BACKENDS.len(),
            self.plan
                .kernels
                .iter()
                .map(|k| k.size.to_string())
                .collect::<Vec<_>>()
                .join(",")
        )
    }

    /// Keeps the first `n` points of the plan (tests).
    #[cfg(test)]
    pub fn truncate(&mut self, n: usize) {
        self.plan.points.truncate(n);
    }

    pub fn round(&self, traced_at: Option<Instant>) -> Round {
        let start = Instant::now();
        let points = run_points(&self.plan.points, WORKERS, traced_at, |&(p, b), log| {
            let prog = &self.programs[p];
            let t = Instant::now();
            let mut sim = traced(log, "sim.new", || {
                AnySimulator::new(self.configs[b].clone(), &prog.program)
            });
            let tr = Instant::now();
            let res = traced(log, "sim.run", || sim.run(DETAIL_CAP));
            let run_secs = secs_since(tr);
            let secs = secs_since(t);
            if let Err(e) = res {
                return Point::failed(b, format!("{} on {}: {e}", prog.name, BACKENDS[b]));
            }
            let (fingerprint, check) = traced(log, "isa.check", || {
                let fingerprint = sim.arch_checkpoint().fingerprint();
                (
                    fingerprint,
                    functional_check(&prog.program, &prog.decoded, sim.retired(), fingerprint),
                )
            });
            let error = check
                .err()
                .map(|e| format!("{} on {}: {e}", prog.name, BACKENDS[b]));
            let stats = sim.stats();
            let mut tally = Tally::default();
            tally.add_stats(stats);
            let digest = crate::report::fnv(stats_digest(stats), &fingerprint.to_le_bytes());
            Point {
                backend: b,
                secs,
                run_secs,
                committed: stats.committed,
                covered: stats.committed,
                computed: true,
                multi: false,
                error,
                digest,
                replica: digest,
                tally,
                spans: Vec::new(),
            }
        });
        Round::new(points, secs_since(start), WORKERS)
    }
}
