//! What every workload shares: the point record, the counter tally, the
//! worker pool, and the round loop.

use std::time::Instant;

use carf_sim::SimStats;

use crate::span::{Span, SpanLog};

/// Worker threads a round's points are spread over (the host has two
/// CPUs; more workers would only queue). The cache part runs on one.
pub const WORKERS: usize = 2;

/// The outcome of one point: one simulation, one sampled run, one
/// co-simulation, or one cache lookup.
#[derive(Debug, Clone, Default)]
pub struct Point {
    /// Backend index ([`crate::plan::BACKENDS`]).
    pub backend: usize,
    /// Host seconds spent in the program under test for this point
    /// (the benchmark's own output checks are not included).
    pub secs: f64,
    /// Host seconds inside the cycle-level `run` calls.
    pub run_secs: f64,
    /// Instructions committed by cycle-level simulation.
    pub committed: u64,
    /// Instructions the point's result covers: simulated, fast-forwarded,
    /// or served from the cache.
    pub covered: u64,
    /// `false` when the result was served from the cache.
    pub computed: bool,
    /// `true` for a `MultiSim` co-simulation.
    pub multi: bool,
    /// Why the point failed its output check or errored, if it did.
    pub error: Option<String>,
    /// Hash of every deterministic simulated counter of the result.
    pub digest: u64,
    /// Hash of the part of the result a traced round reproduces through
    /// its own sequence of public calls (equal to `digest` wherever that
    /// sequence yields the full statistics).
    pub replica: u64,
    /// Counters for the traced report.
    pub tally: Tally,
    /// Spans of this point (traced rounds only).
    pub spans: Vec<Span>,
}

impl Point {
    pub fn failed(backend: usize, error: String) -> Self {
        Self {
            backend,
            error: Some(error),
            computed: true,
            ..Self::default()
        }
    }
}

/// Host-independent simulated counters, summed over points.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    pub committed: u64,
    pub cycles: u64,
    pub fetched: u64,
    pub squashed: u64,
    pub load_replays: u64,
    pub long_guard_stall_cycles: u64,
    pub reads_simple: u64,
    pub reads_short: u64,
    pub reads_long: u64,
    pub long_allocs: u64,
    pub short_alloc_rejects: u64,
    pub short_reclaims: u64,
    pub wb_long_retries: u64,
    pub port_denials: u64,
    pub capture_hits: u64,
    pub il1: (u64, u64),
    pub dl1: (u64, u64),
    pub l2: (u64, u64),
    pub memory_accesses: u64,
    pub fetch_denied: u64,
    pub long_window_shrunk: u64,
    pub peak_long_total: u64,
    pub windows: u64,
    pub detailed_insts: u64,
    pub sampled_insts: u64,
    pub ci95_sum: f64,
    pub sampled_runs: u64,
    pub ff_insts: u64,
}

impl Tally {
    pub fn add_stats(&mut self, s: &SimStats) {
        self.committed += s.committed;
        self.cycles += s.cycles;
        self.fetched += s.fetched;
        self.squashed += s.squashed;
        self.load_replays += s.load_replays;
        self.long_guard_stall_cycles += s.long_guard_stall_cycles;
        self.reads_simple += s.int_rf.reads.simple;
        self.reads_short += s.int_rf.reads.short;
        self.reads_long += s.int_rf.reads.long;
        self.long_allocs += s.int_rf.long_allocs;
        self.short_alloc_rejects += s.int_rf.short_alloc_rejects;
        self.short_reclaims += s.int_rf.short_reclaims;
        self.wb_long_retries += s.wb_long_retries;
        self.port_denials += s.rf_read_port_denials;
        self.capture_hits += s.int_rf.capture_reuse_hits;
        self.il1.0 += s.mem.il1.hits;
        self.il1.1 += s.mem.il1.misses;
        self.dl1.0 += s.mem.dl1.hits;
        self.dl1.1 += s.mem.dl1.misses;
        self.l2.0 += s.mem.l2.hits;
        self.l2.1 += s.mem.l2.misses;
        self.memory_accesses += s.mem.memory_accesses;
    }

    pub fn merge(&mut self, o: &Tally) {
        self.committed += o.committed;
        self.cycles += o.cycles;
        self.fetched += o.fetched;
        self.squashed += o.squashed;
        self.load_replays += o.load_replays;
        self.long_guard_stall_cycles += o.long_guard_stall_cycles;
        self.reads_simple += o.reads_simple;
        self.reads_short += o.reads_short;
        self.reads_long += o.reads_long;
        self.long_allocs += o.long_allocs;
        self.short_alloc_rejects += o.short_alloc_rejects;
        self.short_reclaims += o.short_reclaims;
        self.wb_long_retries += o.wb_long_retries;
        self.port_denials += o.port_denials;
        self.capture_hits += o.capture_hits;
        self.il1 = (self.il1.0 + o.il1.0, self.il1.1 + o.il1.1);
        self.dl1 = (self.dl1.0 + o.dl1.0, self.dl1.1 + o.dl1.1);
        self.l2 = (self.l2.0 + o.l2.0, self.l2.1 + o.l2.1);
        self.memory_accesses += o.memory_accesses;
        self.fetch_denied += o.fetch_denied;
        self.long_window_shrunk += o.long_window_shrunk;
        self.peak_long_total = self.peak_long_total.max(o.peak_long_total);
        self.windows += o.windows;
        self.detailed_insts += o.detailed_insts;
        self.sampled_insts += o.sampled_insts;
        self.ci95_sum += o.ci95_sum;
        self.sampled_runs += o.sampled_runs;
        self.ff_insts += o.ff_insts;
    }
}

/// One pass over a round's points, spread over `workers` threads with
/// the repository's order-preserving pool. `f` gets the point's input
/// and, in traced rounds, a span log of its own.
pub fn run_points<T: Sync>(
    items: &[T],
    workers: usize,
    traced: Option<Instant>,
    f: impl Fn(&T, &mut Option<SpanLog>) -> Point + Sync,
) -> Vec<Point> {
    carf_bench::parallel::run_ordered(items, workers, |item| {
        let mut log = traced.map(SpanLog::new);
        let root = log.as_mut().map(|l| l.open("point"));
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(item, &mut log)));
        let mut point = caught.unwrap_or_else(|panic| {
            let msg = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "panic".to_string());
            Point::failed(0, msg)
        });
        if let (Some(mut l), Some(root)) = (log, root) {
            l.close(root);
            point.spans = l.into_spans();
        }
        point
    })
}

/// The outcome of one round: its points in plan order, its wall time,
/// the worker-thread time it occupied, and any per-round measurement a
/// workload adds.
#[derive(Debug, Default)]
pub struct Round {
    pub points: Vec<Point>,
    pub wall: f64,
    pub thread_secs: f64,
    pub extras: Vec<(&'static str, f64)>,
}

impl Round {
    /// A round of `points` that took `wall` seconds on `workers` threads.
    pub fn new(points: Vec<Point>, wall: f64, workers: usize) -> Self {
        Self {
            points,
            wall,
            thread_secs: wall * workers as f64,
            extras: Vec::new(),
        }
    }

    /// Appends the round of the workload's next part, run after this one.
    pub fn append(&mut self, next: Round) {
        self.points.extend(next.points);
        self.wall += next.wall;
        self.thread_secs += next.thread_secs;
        self.extras.extend(next.extras);
    }
}

/// Digest of a round: one field of every point, folded in plan order.
pub fn fold_digest(points: &[Point], field: impl Fn(&Point) -> u64) -> u64 {
    points.iter().fold(crate::report::FNV_OFFSET, |h, p| {
        crate::report::fnv(h, &field(p).to_le_bytes())
    })
}

/// Digest of a `SimStats`: the repository's exact codec, hashed.
pub fn stats_digest(stats: &SimStats) -> u64 {
    crate::report::fnv(
        crate::report::FNV_OFFSET,
        carf_bench::statsio::stats_to_json(stats).as_bytes(),
    )
}

/// Seconds since `t`.
pub fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Checks a timing run's architectural state against the functional
/// executor: run `program` functionally to `retired` instructions and
/// compare checkpoint fingerprints.
pub fn functional_check(
    program: &carf_isa::Program,
    decoded: &carf_isa::DecodedProgram,
    retired: u64,
    fingerprint: u64,
) -> Result<(), String> {
    let mut m = carf_isa::Machine::load(program);
    match m.run_decoded(decoded, retired) {
        Ok(_) | Err(carf_isa::ExecError::InstLimit(_)) => {}
        Err(e) => return Err(format!("functional run failed: {e}")),
    }
    if m.retired() != retired {
        return Err(format!(
            "functional run retired {} of {retired}",
            m.retired()
        ));
    }
    if m.checkpoint(program).fingerprint() != fingerprint {
        return Err(format!(
            "architectural state differs from the functional run at {retired}"
        ));
    }
    Ok(())
}
