//! One check, as the CLI runs it, with a span around every call into a
//! layer.
//!
//! Every pipeline uses the CLI defaults: `ef-opt`, the worklist strategy,
//! one job, no slicing, plus a per-check deadline.

use crate::inputs::{Pipeline, Program};
use crate::spans::Spans;
use getafix_boolprog::{parse_concurrent, parse_program, replay, Cfg, Pc};
use getafix_conc::{
    build_conc_solver_with, check_conc_solver, conc_refine_schedule, conc_replay_guided, merge,
    ConcLimits,
};
use getafix_core::{build_solver_with, build_trace_solver_with, Algorithm};
use getafix_mucalc::{ResourceLimits, SolveOptions, SolveStats, Solver};
use getafix_witness::{concurrent_witness_from, sequential_witness_from, Trace, WitnessLimits};
use std::any::Any;
use std::time::Duration;

/// Work counts of one check, read from the layers' own results.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// Verdict returned.
    pub reachable: bool,
    /// Whether a sequential witness was extracted.
    pub seq_witness: bool,
    /// Whether a concurrent witness was extracted, refined and replayed.
    pub conc_witness: bool,
    /// Bytes of source parsed.
    pub source_bytes: usize,
    /// BDD variables after encoding.
    pub bdd_vars: usize,
    /// Solver re-evaluations.
    pub reevaluations: usize,
    /// Garbage collections during the solve.
    pub gcs: usize,
    /// Time spent in those collections, in milliseconds.
    pub gc_pause_ms: f64,
    /// BDD nodes pinned by provenance snapshots.
    pub provenance_nodes: usize,
    /// Computed-cache hits.
    pub cache_hits: u64,
    /// Computed-cache hits plus misses.
    pub cache_lookups: u64,
    /// Peak bytes of the BDD arena, unique table and caches.
    pub peak_arena_bytes: usize,
    /// Arena nodes at the end of the solve.
    pub arena_nodes: usize,
    /// Steps of the sequential witness.
    pub trace_steps: usize,
    /// Configurations the schedule refinement searched.
    pub search_states: usize,
    /// Steps of the refined concurrent trace.
    pub guided_steps: usize,
}

impl Counts {
    fn absorb_solve(&mut self, stats: &SolveStats) {
        self.reevaluations = stats.total_reevaluations();
        self.gcs = stats.gcs;
        self.gc_pause_ms = stats.gc_pause_ms;
        self.provenance_nodes = stats.provenance_nodes;
        self.cache_hits = stats.cache_hits;
        self.cache_lookups = stats.cache_hits + stats.cache_misses;
        self.peak_arena_bytes = stats.peak_arena_bytes;
        self.arena_nodes = stats.arena_nodes;
    }
}

/// What a sequential witness must be checked against once the clock has
/// stopped.
#[derive(Debug)]
pub struct Evidence {
    cfg: Cfg,
    target: Pc,
    trace: Trace,
}

impl Evidence {
    /// Replays the witness in the concrete interpreter, independently of
    /// the validation the extractor already ran.
    pub fn verify(&self) -> Result<(), String> {
        if self.trace.target != self.target {
            return Err(format!("witness ends at pc {}, not the target", self.trace.target));
        }
        replay(&self.cfg, &self.trace.to_replay(), &[self.target])
            .map_err(|e| format!("witness fails replay: {e}"))
    }
}

/// A finished check: its counts, for a reachable sequential verdict the
/// witness to verify, and the check's data structures, so that freeing
/// them happens after the clock stops — a check ends at its verdict, as
/// a `getafix check` process ends without freeing its solver.
pub struct Checked {
    /// The counts.
    pub counts: Counts,
    /// The sequential witness, if any.
    pub evidence: Option<Evidence>,
    /// Program, CFG and solver of the check, to drop untimed.
    pub teardown: Vec<Box<dyn Any>>,
}

/// Runs one check of `program` under a `deadline`. Errors are the
/// failing layer's message; the verdict is returned, not compared.
pub fn run_check(
    program: &Program,
    deadline: Duration,
    spans: &mut Spans,
) -> Result<Checked, String> {
    spans.span("bench.check", |spans| {
        let limits = ResourceLimits::new().with_timeout(deadline);
        match program.pipeline {
            Pipeline::SeqTrace => seq_check(program, limits, true, spans),
            Pipeline::SeqVerdict => seq_check(program, limits, false, spans),
            Pipeline::ConcTrace { switches } => conc_check(program, switches, limits, spans),
        }
    })
}

fn options(limits: &ResourceLimits) -> SolveOptions {
    SolveOptions { limits: limits.clone(), ..SolveOptions::default() }
}

fn seq_check(
    program: &Program,
    limits: ResourceLimits,
    trace: bool,
    spans: &mut Spans,
) -> Result<Checked, String> {
    let mut counts = Counts { source_bytes: program.source.len(), ..Counts::default() };
    let ast = spans
        .span("boolprog.parse", |_| parse_program(&program.source))
        .map_err(|e| format!("parse: {e}"))?;
    let cfg = spans.span("boolprog.cfg", |_| Cfg::build(&ast)).map_err(|e| format!("cfg: {e}"))?;
    let pc = cfg.label(&program.label).ok_or_else(|| format!("no label `{}`", program.label))?;
    let algorithm = Algorithm::EntryForwardOpt;
    let mut solver: Solver = spans
        .span("core.encode", |_| {
            if trace {
                build_trace_solver_with(&cfg, &[pc], algorithm, options(&limits))
                    .map(|s| s.ok_or_else(|| "ef-opt has no trace-capable system".to_string()))
            } else {
                build_solver_with(&cfg, &[pc], algorithm, options(&limits)).map(Ok)
            }
        })
        .map_err(|e| format!("encode: {e}"))??;
    counts.bdd_vars = solver.manager_ref().var_count();
    let reachable = spans
        .span("mucalc.solve", |_| solver.eval_query("reach"))
        .map_err(|e| format!("solve: {e}"))?;
    counts.reachable = reachable;
    counts.absorb_solve(solver.stats());
    let mut teardown: Vec<Box<dyn Any>> = vec![Box::new(ast)];
    let evidence = if trace && reachable {
        let wl = WitnessLimits { resources: limits, ..WitnessLimits::default() };
        let t = spans
            .span("witness.extract", |_| sequential_witness_from(&mut solver, &cfg, &[pc], wl))
            .map_err(|e| format!("witness: {e}"))?
            .ok_or("witness extraction disagreed with the verdict")?;
        counts.seq_witness = true;
        counts.trace_steps = t.steps.len();
        Some(Evidence { cfg, target: pc, trace: t })
    } else {
        teardown.push(Box::new(cfg));
        None
    };
    teardown.push(Box::new(solver));
    Ok(Checked { counts, evidence, teardown })
}

fn conc_check(
    program: &Program,
    switches: usize,
    limits: ResourceLimits,
    spans: &mut Spans,
) -> Result<Checked, String> {
    let mut counts = Counts { source_bytes: program.source.len(), ..Counts::default() };
    let conc = spans
        .span("boolprog.parse", |_| parse_concurrent(&program.source))
        .map_err(|e| format!("parse: {e}"))?;
    let merged = spans.span("conc.merge", |_| merge(&conc)).map_err(|e| format!("merge: {e}"))?;
    let pc =
        merged.cfg.label(&program.label).ok_or_else(|| format!("no label `{}`", program.label))?;
    let mut solver = spans
        .span("conc.encode", |_| build_conc_solver_with(&merged, &[pc], switches, options(&limits)))
        .map_err(|e| format!("encode: {e}"))?;
    counts.bdd_vars = solver.manager_ref().var_count();
    let result = spans
        .span("mucalc.solve", |_| check_conc_solver(&mut solver, switches))
        .map_err(|e| format!("solve: {e}"))?;
    counts.reachable = result.reachable;
    counts.absorb_solve(&result.stats);
    if result.reachable {
        let schedule = spans
            .span("witness.extract", |_| {
                concurrent_witness_from(&mut solver, &merged, &[pc], switches)
            })
            .map_err(|e| format!("witness: {e}"))?
            .ok_or("witness extraction disagreed with the verdict")?;
        let rounds = schedule.to_replay();
        let cl = ConcLimits { resources: limits, ..ConcLimits::default() };
        let refined = spans
            .span("conc.refine", |_| conc_refine_schedule(&merged, &[pc], &rounds, cl.clone()))
            .map_err(|e| format!("refine: {e}"))?
            .ok_or("the extracted schedule does not refine into statement steps")?;
        spans
            .span("conc.replay", |_| {
                conc_replay_guided(&merged, &[pc], &rounds, &refined.steps, cl)
            })
            .map_err(|e| format!("guided replay: {e}"))?;
        counts.conc_witness = true;
        counts.search_states = refined.search_states;
        counts.guided_steps = refined.steps.len();
    }
    let teardown: Vec<Box<dyn Any>> = vec![Box::new(conc), Box::new(merged), Box::new(solver)];
    Ok(Checked { counts, evidence: None, teardown })
}
