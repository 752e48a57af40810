//! The simulator's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload detailed --seed 1 --seconds 50 --trace 0
//! ```
//!
//! Run from the repository root (the corpus is read from `corpus/`). Each
//! workload is a fixed, seeded batch of points (a *round*, made of two
//! parts run one after the other) run back to back on at most two worker
//! threads until `--seconds` have passed. Set-up is repeated and timed on
//! its own. With `--trace 0` the last line is the
//! end-to-end metrics; with `--trace 1` untraced and traced rounds
//! alternate and the last line is the per-layer metrics. See
//! `perfbench/README.md`.

mod bench;
mod multi;
mod plan;
mod provenance;
mod replay;
mod report;
mod sampled;
mod span;
mod zoo;

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use bench::{fold_digest, secs_since, Point, Round, Tally, WORKERS};
use plan::BACKENDS;
use report::{median, ratio, Metric};
use span::{self_times, Span, SpanLog};

/// The workloads, in the order `BENCHMARK.json` lists them. `detailed`
/// runs the zoo and the co-simulations; `shortcuts` runs the sampled runs
/// and the result cache, the two ways around full detailed simulation.
pub const WORKLOADS: [&str; 2] = ["detailed", "shortcuts"];

/// Set-ups timed after the warm-up round and after every round;
/// `setup_s` is the median of all of them. One set-up takes a few
/// milliseconds, so timings taken in one burst would sample the host's
/// speed at a single moment; spread over the run, they see its average.
const SETUPS_PER_ROUND: usize = 12;

const CORPUS_DIR: &str = "corpus";
/// Scratch space for cache directories and span files, relative to the
/// directory the benchmark runs in.
const WORK_DIR: &str = ".bench_work";

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// One part of a workload's round, after set-up.
enum Part {
    Zoo(zoo::Zoo),
    Sampled(sampled::Sampled),
    Multi(multi::Multi),
    Replay(replay::Replay),
}

impl Part {
    /// Untimed reference results the checks compare against.
    fn prepare(&mut self) -> Result<(), String> {
        match self {
            Part::Sampled(s) => s.prepare(),
            _ => Ok(()),
        }
    }

    fn inputs(&self) -> String {
        match self {
            Part::Zoo(w) => w.inputs(),
            Part::Sampled(w) => w.inputs(),
            Part::Multi(w) => w.inputs(),
            Part::Replay(w) => w.inputs(),
        }
    }

    /// A control measured next to each traced round, so a drift in host
    /// speed moves both sides of the comparison alike.
    fn calibrate(&self) -> Option<(&'static str, f64)> {
        match self {
            Part::Sampled(w) => Some(("isa.warm_share", w.warm_share())),
            Part::Multi(w) => Some(("multi.isolated_ns_per_inst", w.isolated())),
            _ => None,
        }
    }

    fn round(&self, index: usize, traced: Option<Instant>) -> Round {
        match self {
            Part::Zoo(w) => w.round(traced),
            Part::Sampled(w) => w.round(traced),
            Part::Multi(w) => w.round(traced),
            Part::Replay(w) => w.round(index, traced),
        }
    }
}

/// One workload's state after set-up: its parts, which a round runs one
/// after the other.
struct Work(Vec<Part>);

impl Work {
    fn setup(name: &str, seed: u64, log: &mut Option<SpanLog>) -> Result<Self, String> {
        let corpus = Path::new(CORPUS_DIR);
        Ok(Work(match name {
            "detailed" => vec![
                Part::Zoo(zoo::Zoo::setup(seed, corpus, log)?),
                Part::Multi(multi::Multi::setup(seed, corpus, log)?),
            ],
            _ => vec![
                Part::Sampled(sampled::Sampled::setup(seed, log)),
                Part::Replay(replay::Replay::setup(
                    seed,
                    corpus,
                    Path::new(WORK_DIR),
                    log,
                )?),
            ],
        }))
    }

    fn prepare(&mut self) -> Result<(), String> {
        self.0.iter_mut().try_for_each(Part::prepare)
    }

    fn inputs(&self) -> String {
        self.0.iter().map(Part::inputs).collect::<Vec<_>>().join("; ")
    }

    fn calibrate(&self) -> Vec<(&'static str, f64)> {
        self.0.iter().filter_map(Part::calibrate).collect()
    }

    fn round(&self, index: usize, traced: Option<Instant>) -> Round {
        let mut round = Round::default();
        for part in &self.0 {
            round.append(part.round(index, traced));
        }
        round
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

fn run(args: &Args) -> Result<(), String> {
    if !Path::new(CORPUS_DIR).is_dir() {
        return Err(format!(
            "no `{CORPUS_DIR}/` here: run from the repository root"
        ));
    }
    std::fs::create_dir_all(WORK_DIR).map_err(|e| format!("{WORK_DIR}: {e}"))?;
    let epoch = Instant::now();

    // Set-up; a traced run adds one traced set-up.
    let mut setup_spans = Vec::new();
    if args.trace {
        let mut log = Some(SpanLog::new(epoch));
        drop(Work::setup(&args.workload, args.seed, &mut log)?);
        setup_spans = log.map(SpanLog::into_spans).unwrap_or_default();
    }
    let t = Instant::now();
    let mut work = Work::setup(&args.workload, args.seed, &mut None)?;
    let mut setup_secs = vec![secs_since(t)];
    work.prepare()?;
    let time_setups = |setup_secs: &mut Vec<f64>| -> Result<(), String> {
        for _ in 0..SETUPS_PER_ROUND {
            let t = Instant::now();
            let timed = Work::setup(&args.workload, args.seed, &mut None)?;
            setup_secs.push(secs_since(t));
            drop(timed);
        }
        Ok(())
    };

    // One warm-up round (lazy initialisation, page faults, a cold host
    // cache), checked but not measured. Then rounds until the time is up;
    // a traced run alternates untraced and traced rounds so the two wall
    // times compare like for like.
    let warmup = work.round(0, None);
    carf_bench::parallel::take_points();
    // Peak memory of set-up plus one round, before the rounds' records
    // (which grow with the number of rounds a host fits in) add to it.
    let peak_rss_mb = report::peak_rss_mb().unwrap_or(0.0);
    time_setups(&mut setup_secs)?;
    // A round starts only if it is expected to end no later than half a
    // round past `--seconds`, so runs last `--seconds` give or take half
    // a round instead of overrunning by up to a whole one.
    let mut walls = vec![warmup.wall];
    let mut rounds: Vec<(bool, Round)> = Vec::new();
    let mut controls: Vec<(&'static str, f64)> = Vec::new();
    let start = Instant::now();
    while rounds.len() < if args.trace { 2 } else { 1 }
        || secs_since(start) + median(&walls) / 2.0 < args.seconds
    {
        let traced = args.trace && rounds.len() % 2 == 1;
        let round = work.round(rounds.len() + 1, traced.then_some(epoch));
        carf_bench::parallel::take_points();
        walls.push(round.wall);
        rounds.push((traced, round));
        if traced {
            controls.extend(work.calibrate());
        }
        time_setups(&mut setup_secs)?;
    }

    let all: Vec<&Point> = warmup
        .points
        .iter()
        .chain(rounds.iter().flat_map(|(_, r)| &r.points))
        .collect();
    let attempted = all.len() as u64;
    let mut failed = all.iter().filter(|p| p.error.is_some()).count() as u64;
    for p in all.iter().filter_map(|p| p.error.as_ref()).take(5) {
        eprintln!("perfbench: failed point: {p}");
    }

    // Every round must reproduce the first: full digests among untraced
    // rounds, replica digests between traced and untraced ones.
    let untraced: Vec<&Round> = rounds.iter().filter(|(t, _)| !t).map(|(_, r)| r).collect();
    let digest = fold_digest(&untraced[0].points, |p| p.digest);
    let replica = fold_digest(&untraced[0].points, |p| p.replica);
    let mut rounds_agree = true;
    for (traced, r) in std::iter::once(&(false, warmup)).chain(&rounds) {
        let same = if *traced {
            fold_digest(&r.points, |p| p.replica) == replica
        } else {
            fold_digest(&r.points, |p| p.digest) == digest
        };
        if !same {
            eprintln!("perfbench: a round's simulated counters differ from the first round's");
            rounds_agree = false;
            failed += 1;
        }
    }

    let (rev, dirty) = match provenance::git_revision(Path::new(".")) {
        Some((rev, Some(d))) => (rev, d.to_string()),
        Some((rev, None)) => (rev, "\"unknown\"".to_string()),
        None => ("none".to_string(), "\"unknown\"".to_string()),
    };
    println!(
        "provenance: {{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"cpu\":\"{}\",\"nproc\":{},\
         \"workers\":{},\"rustc\":\"{}\",\"git_rev\":\"{rev}\",\"git_dirty\":{dirty},\"inputs\":\"{}\"}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        provenance::cpu_model().replace('"', "'"),
        provenance::nproc(),
        WORKERS,
        provenance::rustc_version(),
        work.inputs().replace('"', "'"),
    );
    println!(
        "digest: {} seed {} counters {digest:016x} ({} rounds of {} points; identical in every round: {rounds_agree})",
        args.workload,
        args.seed,
        rounds.len(),
        untraced[0].points.len(),
    );

    let metrics = if args.trace {
        let traced_rounds: Vec<&Round> =
            rounds.iter().filter(|(t, _)| *t).map(|(_, r)| r).collect();
        let spans_path =
            Path::new(WORK_DIR).join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        write_spans(&spans_path, &setup_spans, &traced_rounds[..1]);
        println!("spans: {}", spans_path.display());
        per_layer(&setup_spans, &untraced, &traced_rounds, &controls)
    } else {
        end_to_end(&setup_secs, &untraced, peak_rss_mb)
    };
    for m in &metrics {
        if !m.value.is_finite() || !report::valid_metric_name(m.name) || !report::valid_unit(m.unit)
        {
            eprintln!(
                "perfbench: metric {} = {} {} is malformed",
                m.name, m.value, m.unit
            );
            failed += 1;
        }
    }
    println!(
        "{}",
        report::result_line(failed == 0, attempted, failed, &metrics)
    );
    Ok(())
}

/// The end-to-end metrics. Every round runs the same points in the same
/// order, so point `i` of each round is one input; its host time is its
/// median over the rounds, which a burst on the host (a slow `fsync`, a
/// busy neighbour) moves less than a sum would. Rates divide the points'
/// work by those times, summed over the points (so over the workers).
fn end_to_end(setup_secs: &[f64], rounds: &[&Round], peak_rss_mb: f64) -> Vec<Metric> {
    let points = &rounds[0].points;
    let secs: Vec<f64> = (0..points.len())
        .map(|i| median(&rounds.iter().map(|r| r.points[i].secs).collect::<Vec<_>>()))
        .collect();
    let rate = |keep: &dyn Fn(&Point) -> bool, work: &dyn Fn(&Point) -> f64| {
        let (done, time) = points
            .iter()
            .zip(&secs)
            .filter(|(p, _)| keep(p))
            .fold((0.0, 0.0), |(d, t), (p, s)| (d + work(p), t + s));
        ratio(done, time)
    };
    let kips = |b: Option<usize>| {
        rate(&|p| p.computed && b.is_none_or(|b| p.backend == b), &|p| {
            p.committed as f64
        }) / 1e3
    };
    let latencies: Vec<f64> = secs.iter().map(|s| s * 1e3).collect();
    let tail = report::tail(&latencies);
    println!(
        "tail: point_tail_ms is the p{} of {} points' latencies (each the median over {} rounds; \
         the highest percentile with ten points beyond it)",
        tail.percentile,
        tail.samples,
        rounds.len()
    );
    let m = |name, unit, value| Metric { name, unit, value };
    vec![
        m("setup_s", "s", median(setup_secs)),
        m(
            "wall_s",
            "s",
            median(&rounds.iter().map(|r| r.wall).collect::<Vec<_>>()),
        ),
        m("kips", "kinst/s", kips(None)),
        m("kips.base", "kinst/s", kips(Some(0))),
        m("kips.carf", "kinst/s", kips(Some(1))),
        m("kips.compressed", "kinst/s", kips(Some(2))),
        m("kips.ports", "kinst/s", kips(Some(3))),
        m(
            "covered_mips",
            "Minst/s",
            rate(&|_| true, &|p| p.covered as f64) / 1e6,
        ),
        m("cold_points_per_s", "1/s", rate(&|p| p.computed, &|_| 1.0)),
        m("points_per_s", "1/s", rate(&|_| true, &|_| 1.0)),
        m("point_p50_ms", "ms", median(&latencies)),
        m("point_tail_ms", "ms", tail.value),
        m("peak_rss_mb", "MB", peak_rss_mb),
    ]
}

/// Self time per span name over `spans`, in seconds.
fn self_by_name(spans: &[Span], into: &mut BTreeMap<&'static str, f64>) {
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        *into.entry(s.name).or_default() += self_ns as f64 / 1e9;
    }
}

/// Every layer call the benchmark brackets: span name and the metric
/// that reports its self time.
const LAYER_SPANS: [(&str, &str); 20] = [
    ("workloads.build", "workloads.build_s"),
    ("isa.assemble", "isa.assemble_s"),
    ("isa.decode", "isa.decode_s"),
    ("isa.load", "isa.load_s"),
    ("isa.ff", "isa.ff_s"),
    ("isa.checkpoint", "isa.checkpoint_s"),
    ("isa.check", "isa.check_s"),
    ("sim.new", "sim.new_s"),
    ("sim.restore", "sim.restore_s"),
    ("sim.warm_new", "sim.warm_new_s"),
    ("sim.warm_install", "sim.warm_install_s"),
    ("sim.run", "sim.run_s"),
    ("multi.new", "multi.new_s"),
    ("multi.run", "multi.run_s"),
    ("cache.key", "cache.key_s"),
    ("cache.load", "cache.load_s"),
    ("cache.store", "cache.store_s"),
    ("statsio.encode", "statsio.encode_s"),
    ("statsio.decode", "statsio.decode_s"),
    ("fsio.write", "fsio.write_s"),
];

fn per_layer(
    setup_spans: &[Span],
    untraced: &[&Round],
    traced: &[&Round],
    controls: &[(&'static str, f64)],
) -> Vec<Metric> {
    let n = traced.len().max(1) as f64;
    let mut setup = BTreeMap::new();
    self_by_name(setup_spans, &mut setup);
    let mut rounds = BTreeMap::new();
    for r in traced {
        for p in &r.points {
            self_by_name(&p.spans, &mut rounds);
        }
    }
    let layer_s = |name: &str| {
        setup.get(name).copied().unwrap_or(0.0) + rounds.get(name).copied().unwrap_or(0.0) / n
    };

    // Thread time in traced rounds not inside any layer span.
    let thread_secs: f64 = traced.iter().map(|r| r.thread_secs).sum();
    let layer_round_secs: f64 = LAYER_SPANS
        .iter()
        .map(|(s, _)| rounds.get(s).copied().unwrap_or(0.0))
        .sum();
    let unattributed = if thread_secs > 0.0 {
        1.0 - layer_round_secs / thread_secs
    } else {
        0.0
    };
    let overhead = median(&traced.iter().map(|r| r.wall).collect::<Vec<_>>())
        / median(&untraced.iter().map(|r| r.wall).collect::<Vec<_>>())
        - 1.0;

    // Counters: one untraced round (they repeat exactly); host time per
    // instruction from the traced rounds.
    let mut t = Tally::default();
    for p in &untraced[0].points {
        t.merge(&p.tally);
    }
    let traced_points: Vec<&Point> = traced.iter().flat_map(|r| &r.points).collect();
    let ff_insts: u64 = traced
        .first()
        .map_or(0, |r| r.points.iter().map(|p| p.tally.ff_insts).sum());
    let ns_per_inst = |pts: &[&Point]| {
        let insts: u64 = pts.iter().map(|p| p.committed).sum();
        ratio(
            pts.iter().map(|p| p.run_secs).sum::<f64>() * 1e9,
            insts as f64,
        )
    };
    // Single-context simulation and co-simulation, apart.
    let (multi_points, single): (Vec<&Point>, Vec<&Point>) = traced_points
        .iter()
        .copied()
        .filter(|p| p.computed)
        .partition(|p| p.multi);
    let of_backend = |b: usize| {
        single
            .iter()
            .copied()
            .filter(|p| p.backend == b)
            .collect::<Vec<_>>()
    };
    // A control measured next to the traced rounds, if the workload has it.
    let control = |name: &str| {
        let v: Vec<f64> = controls
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .collect();
        (!v.is_empty()).then(|| median(&v))
    };
    let extra = |name: &str| {
        let v: Vec<f64> = traced
            .iter()
            .chain(untraced)
            .flat_map(|r| &r.extras)
            .filter(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .collect();
        median(&v)
    };
    let multi_ns = ns_per_inst(&multi_points);
    let isolated_ns = control("multi.isolated_ns_per_inst").unwrap_or(0.0);
    let sim_ns_all = ns_per_inst(&single);
    let sim_ns: Vec<f64> = (0..BACKENDS.len())
        .map(|b| ns_per_inst(&of_backend(b)))
        .collect();
    let frac = |num: u64, den: u64| ratio(num as f64, den as f64);
    let served = traced_points.iter().filter(|p| !p.computed).count() as u64;

    let mut out: Vec<Metric> = Vec::new();
    let mut m =
        |name: &'static str, unit: &'static str, value: f64| out.push(Metric { name, unit, value });
    for (span, metric) in LAYER_SPANS {
        m(metric, "s", layer_s(span));
    }
    m("sim.ns_per_inst", "ns/inst", sim_ns_all);
    for (b, name) in SIM_NS_PER_INST.into_iter().enumerate() {
        m(name, "ns/inst", sim_ns[b]);
    }
    m("multi.ns_per_inst", "ns/inst", multi_ns);
    m("multi.isolated_ns_per_inst", "ns/inst", isolated_ns);
    m(
        "multi.overhead_frac",
        "fraction",
        if isolated_ns > 0.0 {
            multi_ns / isolated_ns - 1.0
        } else {
            0.0
        },
    );
    m("isa.ff_insts", "count", ff_insts as f64);
    m(
        "isa.warm_share",
        "fraction",
        control("isa.warm_share").unwrap_or(0.0),
    );
    m("cache.index_bytes", "bytes", extra("cache.index_bytes"));
    m(
        "cache.hit_frac",
        "fraction",
        frac(served, traced_points.len() as u64),
    );
    m("sim.committed", "count", t.committed as f64);
    m("sim.cycles", "count", t.cycles as f64);
    m("sim.useful_frac", "fraction", frac(t.committed, t.fetched));
    m("sim.squashed", "count", t.squashed as f64);
    m("sim.load_replays", "count", t.load_replays as f64);
    m(
        "sim.long_guard_stall_cycles",
        "count",
        t.long_guard_stall_cycles as f64,
    );
    m("core.reads.simple", "count", t.reads_simple as f64);
    m("core.reads.short", "count", t.reads_short as f64);
    m("core.reads.long", "count", t.reads_long as f64);
    m("core.long_allocs", "count", t.long_allocs as f64);
    m(
        "core.short_alloc_rejects",
        "count",
        t.short_alloc_rejects as f64,
    );
    m("core.short_reclaims", "count", t.short_reclaims as f64);
    m("core.wb_long_retries", "count", t.wb_long_retries as f64);
    m("core.port_denials", "count", t.port_denials as f64);
    m("core.capture_hits", "count", t.capture_hits as f64);
    m(
        "mem.il1_miss_rate",
        "fraction",
        frac(t.il1.1, t.il1.0 + t.il1.1),
    );
    m(
        "mem.dl1_miss_rate",
        "fraction",
        frac(t.dl1.1, t.dl1.0 + t.dl1.1),
    );
    m(
        "mem.l2_miss_rate",
        "fraction",
        frac(t.l2.1, t.l2.0 + t.l2.1),
    );
    m("mem.memory_accesses", "count", t.memory_accesses as f64);
    m("multi.fetch_denied", "count", t.fetch_denied as f64);
    m(
        "multi.long_window_shrunk",
        "count",
        t.long_window_shrunk as f64,
    );
    m("multi.peak_long_total", "count", t.peak_long_total as f64);
    m("sample.windows", "count", t.windows as f64);
    m(
        "sample.detail_frac",
        "fraction",
        frac(t.detailed_insts, t.sampled_insts),
    );
    m(
        "sample.ci95",
        "IPC",
        ratio(t.ci95_sum, t.sampled_runs as f64),
    );
    m("trace.overhead_frac", "fraction", overhead);
    m("trace.unattributed_frac", "fraction", unattributed);

    println!("layer self time per round (traced set-up + mean traced round), share of traced thread time:");
    for (name, _) in LAYER_SPANS {
        let r = rounds.get(name).copied().unwrap_or(0.0);
        let s = setup.get(name).copied().unwrap_or(0.0);
        if r + s > 0.0 {
            println!(
                "  {name:18} setup {s:10.6} s  round {:10.6} s  {:5.1}%",
                r / n,
                100.0 * ratio(r, thread_secs)
            );
        }
    }
    println!(
        "  {:18} {:5.1}% of traced thread time",
        "unattributed",
        100.0 * unattributed
    );
    out
}

/// Host time per cycle-level instruction, by backend.
const SIM_NS_PER_INST: [&str; 4] = [
    "sim.ns_per_inst.base",
    "sim.ns_per_inst.carf",
    "sim.ns_per_inst.compressed",
    "sim.ns_per_inst.ports",
];

/// Writes every traced span as JSON lines: the traced set-up's (log 0),
/// then each traced point's (logs 1..).
fn write_spans(path: &Path, setup: &[Span], rounds: &[&Round]) {
    let mut all: Vec<(usize, Span)> = setup.iter().cloned().map(|s| (0, s)).collect();
    let mut log = 1;
    for r in rounds {
        for p in &r.points {
            all.extend(p.spans.iter().cloned().map(|s| (log, s)));
            log += 1;
        }
    }
    if let Err(e) = std::fs::write(path, span::to_json_lines(&all)) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args(&[
            "--workload",
            "shortcuts",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: "shortcuts".into(),
                seed: 3,
                seconds: 10.0,
                trace: true
            }
        );
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "shortcuts", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "shortcuts", "--seconds"]).is_err());
        assert!(args(&["--workload", "shortcuts", "--bogus", "1"]).is_err());
    }

    /// Every name the benchmark reports is valid and is declared in
    /// `BENCHMARK.json`, in the section its mode prints.
    #[test]
    fn metric_names_match_the_benchmark_file() {
        let json = std::fs::read_to_string(
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        )
        .expect("BENCHMARK.json at the repository root");
        let section = |key: &str| -> String {
            let start = json.find(&format!("\"{key}\"")).expect(key);
            let end = json[start..].find(']').expect("section end") + start;
            json[start..end].to_string()
        };
        let (e2e, layers) = (section("end_to_end"), section("per_layer"));
        let e2e_names = [
            "setup_s",
            "wall_s",
            "kips",
            "kips.base",
            "kips.carf",
            "kips.compressed",
            "kips.ports",
            "covered_mips",
            "cold_points_per_s",
            "points_per_s",
            "point_p50_ms",
            "point_tail_ms",
            "peak_rss_mb",
        ];
        for name in e2e_names {
            assert!(report::valid_metric_name(name), "{name}");
            assert!(
                e2e.contains(&format!("\"name\": \"{name}\"")),
                "{name} missing from end_to_end"
            );
        }
        assert_eq!(e2e.matches("\"name\"").count(), e2e_names.len());
        let sampled = per_layer_names();
        for name in &sampled {
            assert!(report::valid_metric_name(name), "{name}");
            assert!(
                layers.contains(&format!("\"name\": \"{name}\"")),
                "{name} missing from per_layer"
            );
        }
        assert_eq!(layers.matches("\"name\"").count(), sampled.len());
        for w in WORKLOADS {
            assert!(
                json.contains(&format!("\"name\": \"{w}\"")),
                "{w} missing from workloads"
            );
        }
    }

    /// One short round of `workload` at `seed`: its inputs and digest.
    fn short_round(workload: &str, seed: u64) -> (String, u64) {
        let mut work = Work::setup(workload, seed, &mut None).expect("set-up");
        for part in &mut work.0 {
            match part {
                Part::Zoo(w) => w.truncate(6),
                Part::Sampled(w) => w.truncate(2),
                Part::Multi(w) => w.truncate(1),
                Part::Replay(w) => w.truncate(12),
            }
        }
        work.prepare().expect("references");
        let round = work.round(1, None);
        assert!(
            round.points.iter().all(|p| p.error.is_none()),
            "{workload}: a point failed"
        );
        (work.inputs(), fold_digest(&round.points, |p| p.digest))
    }

    /// The same seed gives the same inputs and the same digest; another
    /// seed gives other inputs. Runs from the repository root, where the
    /// benchmark runs.
    #[test]
    fn seed_fixes_inputs_and_digest() {
        std::env::set_current_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join(".."))
            .expect("repository root");
        for workload in WORKLOADS {
            let (inputs, digest) = short_round(workload, 5);
            assert_eq!(
                short_round(workload, 5),
                (inputs.clone(), digest),
                "{workload}: same seed"
            );
            let (other_inputs, other_digest) = short_round(workload, 6);
            assert_ne!(
                digest, other_digest,
                "{workload}: another seed, other points"
            );
            assert_ne!(
                inputs, other_inputs,
                "{workload}: another seed, other inputs"
            );
        }
    }

    /// Metric names do not depend on the rounds' contents: an empty
    /// round yields every name.
    fn per_layer_names() -> Vec<&'static str> {
        let empty = Round::default();
        per_layer(&[], &[&empty], &[&empty], &[])
            .iter()
            .map(|m| m.name)
            .collect()
    }
}
