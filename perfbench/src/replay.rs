//! `cache_replay`, the second part of the `shortcuts` workload: one cold
//! pass of many tiny points through `run_custom_with_cache` into an empty
//! cache directory, then warm passes that serve every point.
//!
//! A point is one `run_custom_with_cache` call for one (configuration,
//! program) pair: a lookup, and on a miss a 500-instruction simulation,
//! an entry write and an `index.json` merge. The check is that every warm
//! load returns statistics bit-identical (by the exact codec) to the cold
//! pass's.
//!
//! Points run on one worker: `run_custom_with_cache` looks up and stores
//! on its caller's thread, so its callers never contend for the index
//! lock; two workers here would, and would time each other's waits.
//!
//! A traced round replays the call's public steps — key, lookup, build,
//! construct, run, store — and times the codec and the atomic write on
//! the same payloads; its statistics must equal the untraced rounds'.

use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use carf_bench::cache::{point_key, run_custom_with_cache, workload_identity, ResultCache};
use carf_bench::statsio::{stats_from_json, stats_to_json};
use carf_bench::Budget;
use carf_sim::{AnySimulator, SimConfig, SimStats};
use carf_workloads::{SizeClass, Suite, Workload};

use crate::bench::{run_points, secs_since, stats_digest, Point, Round, Tally};
use crate::plan::{self, CachePlan};
use crate::span::{traced, SpanLog};
use crate::zoo::assemble_corpus;

/// Instructions simulated per point.
pub const POINT_INSTS: u64 = 500;

/// Test-size programs, 500 instructions, one worker inside each call.
pub fn budget() -> Budget {
    Budget {
        size: SizeClass::Test,
        max_insts: POINT_INSTS,
        oracle_period: 16,
        jobs: 1,
        sample: None,
    }
}

pub struct Replay {
    plan: CachePlan,
    /// One single-point matrix per plan point, as `run_custom_with_cache`
    /// takes it.
    inputs: Vec<(SimConfig, Suite, Vec<Workload>)>,
    budget: Budget,
    root: PathBuf,
}

impl Replay {
    /// Assembles the corpus, draws the plan, and creates an empty working
    /// directory under `work`.
    pub fn setup(
        seed: u64,
        corpus_dir: &Path,
        work: &Path,
        log: &mut Option<SpanLog>,
    ) -> Result<Self, String> {
        let corpus = assemble_corpus(corpus_dir, log)?;
        let mut workloads = carf_workloads::all_workloads();
        workloads.extend(corpus.iter().map(|c| c.to_workload(Suite::Int)));
        let plan = plan::cache(seed, workloads.len());
        let inputs = plan
            .points
            .iter()
            .map(|&(c, p)| {
                (
                    plan.configs[c].1.clone(),
                    workloads[p].suite,
                    vec![workloads[p].clone()],
                )
            })
            .collect();
        let root = unique_dir(work, "cache_replay");
        std::fs::create_dir_all(&root).map_err(|e| format!("{}: {e}", root.display()))?;
        Ok(Self {
            plan,
            inputs,
            budget: budget(),
            root,
        })
    }

    pub fn inputs(&self) -> String {
        format!(
            "{} configs x {} programs = {} points, {POINT_INSTS} insts each, 1 cold + {} warm passes; configs {}",
            self.plan.configs.len(),
            self.inputs.len() / self.plan.configs.len().max(1),
            self.inputs.len(),
            plan::WARM_PASSES,
            self.plan.configs.iter().map(|(_, c)| c.describe()).collect::<Vec<_>>().join(" ")
        )
    }

    /// Keeps the first `n` points of the plan (tests).
    #[cfg(test)]
    pub fn truncate(&mut self, n: usize) {
        self.inputs.truncate(n);
        for pass in &mut self.plan.passes {
            pass.retain(|&i| i < n);
        }
    }

    pub fn round(&self, index: usize, traced_at: Option<Instant>) -> Round {
        let start = Instant::now();
        let dir = self.root.join(format!("round-{index}"));
        let cache = ResultCache::at(dir.clone());
        let cold_stats: Vec<Mutex<Option<SimStats>>> =
            self.inputs.iter().map(|_| Mutex::new(None)).collect();
        let mut points = run_points(&self.plan.passes[0], 1, traced_at, |&i, log| {
            let (stats, point) = self.cold(i, &cache, log);
            if let Some(stats) = stats {
                *cold_stats[i].lock().expect("cold slot poisoned") = Some(stats);
            }
            point
        });
        let index_bytes = std::fs::metadata(cache.index_path()).map_or(0, |m| m.len());
        for pass in &self.plan.passes[1..] {
            points.extend(run_points(pass, 1, traced_at, |&i, log| {
                let cold = cold_stats[i].lock().expect("cold slot poisoned").clone();
                self.warm(i, &cache, cold.as_ref(), log)
            }));
        }
        let wall = secs_since(start);
        let _ = std::fs::remove_dir_all(&dir);
        let mut round = Round::new(points, wall, 1);
        round.extras.push(("cache.index_bytes", index_bytes as f64));
        round
    }

    fn backend(&self, i: usize) -> usize {
        self.plan.configs[self.plan.points[i].0].0
    }

    fn label(&self, i: usize) -> String {
        let (config, _, w) = &self.inputs[i];
        format!("{} on {}", w[0].name, config.describe())
    }

    /// One cold point; returns the statistics it computed.
    fn cold(
        &self,
        i: usize,
        cache: &ResultCache,
        log: &mut Option<SpanLog>,
    ) -> (Option<SimStats>, Point) {
        let b = self.backend(i);
        let t = Instant::now();
        let result = if log.is_some() {
            self.cold_replay(i, cache, log)
        } else {
            let outcome = run_custom_with_cache(
                std::slice::from_ref(&self.inputs[i]),
                &self.budget,
                Some(cache),
            );
            if outcome.simulated == 1 {
                Ok((outcome.results[0].runs[0].1.clone(), 0.0))
            } else {
                Err(format!(
                    "cold lookup was served ({} simulated)",
                    outcome.simulated
                ))
            }
        };
        let secs = secs_since(t);
        match result {
            Ok((stats, run_secs)) => {
                let mut tally = Tally::default();
                tally.add_stats(&stats);
                let digest = stats_digest(&stats);
                let point = Point {
                    backend: b,
                    secs,
                    run_secs,
                    committed: stats.committed,
                    covered: stats.committed,
                    computed: true,
                    digest,
                    replica: digest,
                    tally,
                    ..Point::default()
                };
                (Some(stats), point)
            }
            Err(e) => (None, Point::failed(b, format!("{}: {e}", self.label(i)))),
        }
    }

    /// The public steps of one cold `run_custom_with_cache` point, each in
    /// a span, plus the codec and the write timed on the same payloads.
    fn cold_replay(
        &self,
        i: usize,
        cache: &ResultCache,
        log: &mut Option<SpanLog>,
    ) -> Result<(SimStats, f64), String> {
        let (config, suite, w) = &self.inputs[i];
        let w = &w[0];
        let key = traced(log, "cache.key", || {
            point_key(config, *suite, &workload_identity(w), &self.budget)
        });
        if traced(log, "cache.load", || cache.load_point(key)).is_some() {
            return Err("cold lookup was served".to_string());
        }
        let program = traced(log, "workloads.build", || w.build(w.size(self.budget.size)));
        let mut sim = traced(log, "sim.new", || {
            AnySimulator::new(config.clone(), &program)
        });
        let t = Instant::now();
        traced(log, "sim.run", || sim.run(self.budget.max_insts)).map_err(|e| e.to_string())?;
        let run_secs = secs_since(t);
        let stats = sim.stats().clone();
        let key = traced(log, "cache.key", || {
            point_key(config, *suite, &workload_identity(w), &self.budget)
        });
        let label = format!("{suite:?}/{}", workload_identity(w));
        traced(log, "cache.store", || {
            cache.store_point(key, &label, config, &self.budget, &stats)
        });
        let _ = traced(log, "statsio.encode", || stats_to_json(&stats));
        let path = cache.entry_path(key);
        let entry = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        traced(log, "fsio.write", || {
            carf_bench::fsio::atomic_write(&path, &entry)
        })
        .map_err(|e| format!("{}: {e}", path.display()))?;
        Ok((stats, run_secs))
    }

    /// One warm point: must be served, bit-identical to the cold result.
    fn warm(
        &self,
        i: usize,
        cache: &ResultCache,
        cold: Option<&SimStats>,
        log: &mut Option<SpanLog>,
    ) -> Point {
        let b = self.backend(i);
        let t = Instant::now();
        let result = if log.is_some() {
            let (config, suite, w) = &self.inputs[i];
            let key = traced(log, "cache.key", || {
                point_key(config, *suite, &workload_identity(&w[0]), &self.budget)
            });
            let served = traced(log, "cache.load", || cache.load_point(key));
            if let Ok(text) = std::fs::read_to_string(cache.entry_path(key)) {
                if let Some(stats_text) = carf_bench::parallel::json_field(&text, "stats") {
                    let _ = traced(log, "statsio.decode", || stats_from_json(&stats_text));
                }
            }
            served.ok_or_else(|| "warm lookup missed".to_string())
        } else {
            let outcome = run_custom_with_cache(
                std::slice::from_ref(&self.inputs[i]),
                &self.budget,
                Some(cache),
            );
            if outcome.served == 1 {
                Ok(outcome.results[0].runs[0].1.clone())
            } else {
                Err(format!(
                    "warm lookup missed ({} simulated)",
                    outcome.simulated
                ))
            }
        };
        let secs = secs_since(t);
        let stats = match result {
            Ok(stats) => stats,
            Err(e) => return Point::failed(b, format!("{}: {e}", self.label(i))),
        };
        let error = match cold {
            Some(cold) if stats_to_json(cold) == stats_to_json(&stats) => None,
            Some(_) => Some(format!(
                "{}: warm statistics differ from the cold pass",
                self.label(i)
            )),
            None => Some(format!("{}: no cold result to compare", self.label(i))),
        };
        let digest = stats_digest(&stats);
        Point {
            backend: b,
            secs,
            committed: 0,
            covered: stats.committed,
            computed: false,
            error,
            digest,
            replica: digest,
            ..Point::default()
        }
    }
}

impl Drop for Replay {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// A directory under `work` no other set-up in this process uses.
fn unique_dir(work: &Path, stem: &str) -> PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    work.join(format!("{stem}-{}-{n}", std::process::id()))
}
