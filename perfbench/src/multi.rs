//! `multi_ctx`, the second part of the `detailed` workload: 4-context
//! co-simulations with a shared Long file, a shared L2 and ICOUNT fetch,
//! over the `detailed_zoo` programs and backends.
//!
//! Every context starts with empty caches. Each context's final
//! architectural state is checked against the functional executor at
//! its retired count.

use std::path::Path;
use std::time::Instant;

use carf_sim::{AnySimulator, FetchArbitration, MultiSim, SharingPolicy, SimConfig};

use crate::bench::{
    functional_check, run_points, secs_since, stats_digest, Point, Round, Tally, WORKERS,
};
use crate::plan::{self, backend_config, MultiPlan, BACKENDS};
use crate::report::fnv;
use crate::span::{traced, SpanLog};
use crate::zoo::{assemble_corpus, prepare_programs, Prepared};

/// Instructions each context commits before it is done.
pub const PER_CONTEXT: u64 = 40_000;
/// Shared-clock bound; no plan comes near it (a context that hits it
/// fails its check).
const MAX_CYCLES: u64 = 50_000_000;

/// The sharing policy of every co-simulation: a 44-entry Long array (below
/// the 48 private entries, so co-runners contend), one L2, and two ICOUNT
/// fetch slots.
pub fn policy() -> SharingPolicy {
    SharingPolicy {
        shared_long_capacity: Some(44),
        shared_l2: true,
        fetch: FetchArbitration::ICount { slots: 2 },
    }
}

pub struct Multi {
    plan: MultiPlan,
    programs: Vec<Prepared>,
    configs: Vec<SimConfig>,
}

impl Multi {
    pub fn setup(seed: u64, corpus_dir: &Path, log: &mut Option<SpanLog>) -> Result<Self, String> {
        let corpus = assemble_corpus(corpus_dir, log)?;
        let plan = plan::multi(seed, corpus.len());
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
            "{} co-simulations of {} contexts, {PER_CONTEXT} insts per context, policy {}",
            self.plan.points.len(),
            plan::CONTEXTS,
            policy().canonical()
        )
    }

    /// Keeps the first `n` points of the plan (tests).
    #[cfg(test)]
    pub fn truncate(&mut self, n: usize) {
        self.plan.points.truncate(n);
    }

    pub fn round(&self, traced_at: Option<Instant>) -> Round {
        let start = Instant::now();
        let points = run_points(&self.plan.points, WORKERS, traced_at, |(b, ctx), log| {
            let b = *b;
            let t = Instant::now();
            let contexts = ctx
                .iter()
                .map(|&p| (self.configs[b].clone(), &self.programs[p].program))
                .collect();
            let mut multi = match traced(log, "multi.new", || MultiSim::new(contexts, policy())) {
                Ok(m) => m,
                Err(e) => {
                    return Point::failed(b, format!("co-simulation on {}: {e}", BACKENDS[b]))
                }
            };
            let tr = Instant::now();
            let res = traced(log, "multi.run", || multi.run(MAX_CYCLES, PER_CONTEXT));
            let run_secs = secs_since(tr);
            let secs = secs_since(t);
            if let Err(e) = res {
                return Point::failed(b, format!("co-simulation on {}: {e}", BACKENDS[b]));
            }
            let mut error = (!multi.all_done())
                .then(|| format!("co-simulation on {} hit {MAX_CYCLES} cycles", BACKENDS[b]));
            let mut tally = Tally::default();
            let mut digest = crate::report::FNV_OFFSET;
            let mut committed = 0;
            for (i, &p) in ctx.iter().enumerate() {
                let sim = multi.ctx(i);
                let prog = &self.programs[p];
                let (fingerprint, check) = traced(log, "isa.check", || {
                    let fingerprint = sim.arch_checkpoint().fingerprint();
                    (
                        fingerprint,
                        functional_check(&prog.program, &prog.decoded, sim.retired(), fingerprint),
                    )
                });
                if let Err(e) = check {
                    error.get_or_insert(format!(
                        "context {i} ({}) on {}: {e}",
                        prog.name, BACKENDS[b]
                    ));
                }
                tally.add_stats(sim.stats());
                committed += sim.stats().committed;
                digest = fnv(digest, &stats_digest(sim.stats()).to_le_bytes());
                digest = fnv(digest, &fingerprint.to_le_bytes());
            }
            let c = multi.contention();
            tally.fetch_denied = c.fetch_denied.iter().sum();
            tally.long_window_shrunk = c.long_window_shrunk.iter().sum();
            tally.peak_long_total = c.peak_long_total as u64;
            for v in [
                c.cycles,
                tally.fetch_denied,
                tally.long_window_shrunk,
                tally.peak_long_total,
            ] {
                digest = fnv(digest, &v.to_le_bytes());
            }
            Point {
                backend: b,
                secs,
                run_secs,
                committed,
                covered: committed,
                computed: true,
                multi: true,
                error,
                digest,
                replica: digest,
                tally,
                spans: Vec::new(),
            }
        });
        Round::new(points, secs_since(start), WORKERS)
    }

    /// The isolated control: every context of one round run alone, on the
    /// same worker pool, as host nanoseconds per instruction
    /// (`multi.isolated_ns_per_inst`).
    pub fn isolated(&self) -> f64 {
        let singles: Vec<(usize, usize)> = self
            .plan
            .points
            .iter()
            .flat_map(|(b, ctx)| ctx.iter().map(move |&p| (*b, p)))
            .collect();
        let points = run_points(&singles, WORKERS, None, |&(b, p), _| {
            let mut sim = AnySimulator::new(self.configs[b].clone(), &self.programs[p].program);
            let tr = Instant::now();
            let res = sim.run(PER_CONTEXT);
            let run_secs = secs_since(tr);
            match res {
                Ok(_) => Point {
                    backend: b,
                    run_secs,
                    committed: sim.stats().committed,
                    ..Point::default()
                },
                Err(e) => Point::failed(b, e.to_string()),
            }
        });
        let insts: u64 = points.iter().map(|p| p.committed).sum();
        crate::report::ratio(
            points.iter().map(|p| p.run_secs).sum::<f64>() * 1e9,
            insts as f64,
        )
    }
}
