//! `sampled_ff`, the first part of the `shortcuts` workload:
//! `sample::run_program_sampled` over the paper kernels run to halt, with
//! a sparse sample spec (about 1.5% of instructions in detail), under
//! every backend.
//!
//! Each measured window starts from functionally warmed state. The check
//! is that a sampled run's instruction total equals the functional
//! run-to-halt count.
//!
//! A traced round cannot time the inside of `run_program_sampled`, so it
//! replays the function's sequence of public calls — decode, fast-forward
//! with the warming observer, checkpoint, restore, warm-state install,
//! warm-up and measured windows — with a span around each. Its windows and
//! totals must equal the untraced rounds' (the `replica` digest).

use std::time::Instant;

use carf_bench::sample::{run_program_sampled, SampleSpec};
use carf_isa::{DecodedProgram, ExecError, ExecObserver, Machine, NullObserver, Program};
use carf_sim::{AnySimulator, SimConfig, WarmEvent, WarmState};

use crate::bench::{run_points, secs_since, stats_digest, Point, Round, Tally, WORKERS};
use crate::plan::{self, backend_config, SampledPlan, BACKENDS};
use crate::report::{fnv, FNV_OFFSET};
use crate::span::{traced, SpanLog};

/// 2000-instruction intervals, every 100th measured after a
/// 1000-instruction detailed warm-up: at most 1.5% of instructions run
/// cycle-level.
pub const SPEC: SampleSpec = SampleSpec {
    interval: 2_000,
    period: 100,
    warmup: 1_000,
};

pub struct Sampled {
    plan: SampledPlan,
    programs: Vec<(String, Program, DecodedProgram)>,
    configs: Vec<SimConfig>,
    /// Functional run-to-halt instruction count of each program.
    expected: Vec<u64>,
}

/// The windows and totals of one sampled run.
#[derive(Debug, Default, PartialEq, Eq)]
struct Summary {
    windows: Vec<(u64, u64)>,
    total_insts: u64,
    detailed_insts: u64,
    ff_insts: u64,
}

impl Summary {
    fn digest(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for (committed, cycles) in &self.windows {
            h = fnv(h, &committed.to_le_bytes());
            h = fnv(h, &cycles.to_le_bytes());
        }
        h = fnv(h, &self.total_insts.to_le_bytes());
        fnv(h, &self.detailed_insts.to_le_bytes())
    }
}

impl Sampled {
    pub fn setup(seed: u64, log: &mut Option<SpanLog>) -> Self {
        let plan = plan::sampled(seed);
        let registry = carf_workloads::all_workloads();
        let programs = plan
            .kernels
            .iter()
            .map(|k| {
                let w = &registry[k.kernel];
                let program = traced(log, "workloads.build", || w.build(k.size));
                let decoded = traced(log, "isa.decode", || DecodedProgram::decode(&program));
                (format!("{}@{}", w.name, k.size), program, decoded)
            })
            .collect();
        let configs = (0..BACKENDS.len()).map(backend_config).collect();
        Self {
            plan,
            programs,
            configs,
            expected: Vec::new(),
        }
    }

    /// Runs every program functionally to halt for the reference counts.
    pub fn prepare(&mut self) -> Result<(), String> {
        self.expected = self
            .programs
            .iter()
            .map(|(name, program, decoded)| {
                let mut m = Machine::load(program);
                m.run_decoded(decoded, u64::MAX)
                    .map_err(|e| format!("{name}: {e}"))
            })
            .collect::<Result<_, _>>()?;
        Ok(())
    }

    pub fn inputs(&self) -> String {
        format!(
            "{} programs x {} backends, spec {}, {} insts per backend",
            self.programs.len(),
            BACKENDS.len(),
            SPEC.label(),
            self.expected.iter().sum::<u64>()
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
            let (name, program, _) = &self.programs[p];
            let config = &self.configs[b];
            let t = Instant::now();
            let (summary, mut point) = if log.is_some() {
                match replay(config, program, log) {
                    Ok((summary, run_secs)) => {
                        let point = Point {
                            run_secs,
                            ..Point::default()
                        };
                        (summary, point)
                    }
                    Err(e) => return Point::failed(b, format!("{name} on {}: {e}", BACKENDS[b])),
                }
            } else {
                match run_program_sampled(config, program, &SPEC, u64::MAX) {
                    Ok(run) => {
                        let summary = Summary {
                            windows: run
                                .intervals
                                .iter()
                                .map(|w| (w.committed, w.cycles))
                                .collect(),
                            total_insts: run.total_insts,
                            detailed_insts: run.detailed_insts,
                            ff_insts: 0,
                        };
                        let mut tally = Tally::default();
                        tally.add_stats(&run.stats);
                        tally.ci95_sum = run.ci95();
                        let digest = fnv(stats_digest(&run.stats), &summary.digest().to_le_bytes());
                        (
                            summary,
                            Point {
                                digest,
                                tally,
                                ..Point::default()
                            },
                        )
                    }
                    Err(e) => return Point::failed(b, format!("{name} on {}: {e}", BACKENDS[b])),
                }
            };
            point.secs = secs_since(t);
            point.backend = b;
            point.computed = true;
            point.committed = summary.detailed_insts;
            point.covered = summary.total_insts;
            point.replica = summary.digest();
            point.tally.windows = summary.windows.len() as u64;
            point.tally.detailed_insts = summary.detailed_insts;
            point.tally.sampled_insts = summary.total_insts;
            point.tally.sampled_runs = 1;
            point.tally.ff_insts = summary.ff_insts;
            if summary.total_insts != self.expected[p] {
                point.error = Some(format!(
                    "{name} on {}: sampled run covered {} insts, the functional run {}",
                    BACKENDS[b], summary.total_insts, self.expected[p]
                ));
            }
            point
        });
        Round::new(points, secs_since(start), WORKERS)
    }

    /// Share of fast-forward time spent feeding `WarmState`: every program
    /// fast-forwarded to halt with and without the warming observer.
    pub fn warm_share(&self) -> f64 {
        let (mut plain, mut warmed) = (0.0, 0.0);
        for (_, program, decoded) in &self.programs {
            let mut m = Machine::load(program);
            let t = Instant::now();
            let _ = m.run_decoded_with(decoded, u64::MAX, &mut NullObserver);
            plain += secs_since(t);
            let mut m = Machine::load(program);
            let mut warm = WarmState::new(&self.configs[0]);
            let t = Instant::now();
            let _ = m.run_decoded_with(decoded, u64::MAX, &mut WarmSink(&mut warm));
            warmed += secs_since(t);
        }
        if warmed > 0.0 {
            1.0 - plain / warmed
        } else {
            0.0
        }
    }
}

/// Feeds the executor's events into a [`WarmState`], as functional
/// warming does inside `run_program_sampled`.
struct WarmSink<'a>(&'a mut WarmState);

impl ExecObserver for WarmSink<'_> {
    fn retire(&mut self, pc: u64) {
        self.0.apply(WarmEvent::Fetch { pc });
    }

    fn load(&mut self, addr: u64) {
        self.0.apply(WarmEvent::Data {
            addr,
            is_write: false,
        });
    }

    fn store(&mut self, addr: u64) {
        self.0.apply(WarmEvent::Data {
            addr,
            is_write: true,
        });
    }

    fn cond_branch(&mut self, pc: u64, taken: bool) {
        self.0.apply(WarmEvent::CondBranch { pc, taken });
    }

    fn indirect_jump(&mut self, pc: u64, target: u64, is_return: bool) {
        self.0.apply(WarmEvent::IndirectJump {
            pc,
            target,
            is_return,
        });
    }

    fn call(&mut self, return_addr: u64) {
        self.0.apply(WarmEvent::Call { return_addr });
    }
}

/// Fast-forwards `m` to `target` retired instructions (or halt).
fn fast_forward(
    m: &mut Machine,
    decoded: &DecodedProgram,
    target: u64,
    obs: &mut impl ExecObserver,
) -> Result<(), String> {
    let needed = target.saturating_sub(m.retired());
    if needed == 0 || m.is_halted() {
        return Ok(());
    }
    match m.run_decoded_with(decoded, needed, obs) {
        Ok(_) | Err(ExecError::InstLimit(_)) => Ok(()),
        Err(e) => Err(format!("fast-forward failed: {e}")),
    }
}

/// The traced replay of `run_program_sampled` over a whole program:
/// returns the run's summary and the seconds spent in cycle-level `run`
/// calls.
fn replay(
    config: &SimConfig,
    program: &Program,
    log: &mut Option<SpanLog>,
) -> Result<(Summary, f64), String> {
    let decoded = traced(log, "isa.decode", || DecodedProgram::decode(program));
    let mut m = traced(log, "isa.load", || Machine::load(program));
    let mut warm = traced(log, "sim.warm_new", || WarmState::new(config));
    let mut summary = Summary::default();
    let mut run_secs = 0.0;
    let mut index = 0u64;
    loop {
        let start = index * SPEC.interval;
        if m.is_halted() {
            break;
        }
        if index.is_multiple_of(SPEC.period) {
            let end = start + SPEC.interval;
            let warm_start = start.saturating_sub(SPEC.warmup);
            let before_ff = m.retired();
            traced(log, "isa.ff", || {
                fast_forward(&mut m, &decoded, warm_start, &mut WarmSink(&mut warm))
            })?;
            summary.ff_insts += m.retired() - before_ff;
            if m.retired() < warm_start {
                break;
            }
            let ckpt = traced(log, "isa.checkpoint", || m.checkpoint(program));
            let mut sim = traced(log, "sim.restore", || {
                AnySimulator::from_checkpoint(config.clone(), program, &ckpt)
            })
            .map_err(|e| format!("checkpoint restore failed: {e}"))?;
            traced(log, "sim.warm_install", || sim.install_warm_state(&warm));
            let t = Instant::now();
            traced(log, "sim.run", || sim.run_exact(start))
                .map_err(|e| format!("warm-up window failed: {e}"))?;
            let before = sim.stats().clone();
            traced(log, "sim.run", || sim.run_exact(end))
                .map_err(|e| format!("measured window failed: {e}"))?;
            run_secs += secs_since(t);
            let after = sim.stats();
            let committed = after.committed - before.committed;
            if committed > 0 {
                summary
                    .windows
                    .push((committed, after.cycles - before.cycles));
            }
            summary.detailed_insts += sim.retired() - warm_start;
        }
        index += 1;
    }
    let before_ff = m.retired();
    traced(log, "isa.ff", || {
        fast_forward(&mut m, &decoded, u64::MAX, &mut NullObserver)
    })?;
    summary.ff_insts += m.retired() - before_ff;
    summary.total_insts = m.retired();
    Ok((summary, run_secs))
}
