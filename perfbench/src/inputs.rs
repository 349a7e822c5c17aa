//! Seeded request sequences for the two workloads.
//!
//! A run consumes one deterministic sequence of requests, cut into
//! *rounds*: each round names every program of the workload once, in a
//! fresh seeded order. The timed loop only stops at a round boundary, so
//! every program has the same share of every run, whatever its length.
//! Walking permutations instead of drawing with replacement matters: with
//! plain draws, how often the few costly programs come up varies enough
//! between seeds to move the tail percentile by a quarter. Every request
//! carries its program as source text, so a check starts where a user's
//! `getafix check` starts.

use getafix_workloads::{
    adder_err_label, bluetooth, dead_baggage_suite, driver, regression_suite, terminator_suite,
    DriverSpec, FIGURE3_CONFIGS,
};
use std::collections::HashSet;
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

/// The concurrent example shipped with the repository: thread 1 raises a
/// flag that thread 0 waits for, so `t0__HIT` is reachable from one
/// context switch on.
const HANDSHAKE: &str = include_str!("../../examples/handshake.cbp");

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Small checks through the `check --trace` and `check-conc --trace`
    /// paths, two closed-loop clients, the pool walked in seeded
    /// permutations.
    CegarStream,
    /// SLAM-style drivers at scales 1–2 through the verdict-only `check`
    /// path, one client.
    DriverDeep,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 2] = [Workload::CegarStream, Workload::DriverDeep];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CegarStream => "cegar-stream",
            Workload::DriverDeep => "driver-deep",
        }
    }

    /// Closed-loop clients issuing requests concurrently.
    pub fn clients(self) -> usize {
        match self {
            Workload::CegarStream => 2,
            Workload::DriverDeep => 1,
        }
    }

    /// Per-check deadline, far above the slowest check of the workload,
    /// so a check that blows up fails instead of hanging the run.
    pub fn deadline(self) -> Duration {
        Duration::from_secs(match self {
            Workload::CegarStream => 20,
            Workload::DriverDeep => 60,
        })
    }

    /// Rounds in the request sequence. `cegar-stream` has far more than a
    /// run consumes, so the clock ends a run; from the second round on,
    /// every request names a program an earlier request named.
    /// `driver-deep` has one: no program repeats, and every run checks
    /// the same programs whatever the solver's speed, so its metrics keep
    /// their meaning when the solver gets faster. Its deck is sized to
    /// take about a run's seconds.
    pub fn rounds(self) -> usize {
        match self {
            Workload::CegarStream => 300,
            Workload::DriverDeep => 1,
        }
    }

    /// The percentile `check_tail_ms` reports: fixed per workload, so the
    /// metric means the same at any solver speed. `cegar-stream` has
    /// 5000–6300 checks in a 45 s run, so p99 has 50–63 beyond it. Of the
    /// 252 `driver-deep` checks, p95 would have exactly the twelve
    /// scale-2 drivers beyond it and read the single slowest scale-1
    /// driver; p90 has 25 beyond it and sits among scale-1 drivers of
    /// similar cost.
    pub fn tail_percentile(self) -> f64 {
        match self {
            Workload::CegarStream => 99.0,
            Workload::DriverDeep => 90.0,
        }
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Workload {
    type Err = String;

    fn from_str(s: &str) -> Result<Workload, String> {
        Workload::ALL.into_iter().find(|w| w.name() == s).ok_or_else(|| {
            let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            format!("unknown workload `{s}` (expected one of: {})", names.join(", "))
        })
    }
}

/// Which user-facing pipeline a request runs through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pipeline {
    /// `getafix check --trace`: single-solve verdict with provenance, then
    /// witness extraction for reachable targets.
    SeqTrace,
    /// `getafix check`: verdict only, no provenance.
    SeqVerdict,
    /// `getafix check-conc --trace --switches k`: merge, bounded-context-
    /// switch solve, schedule extraction, refinement and guided replay.
    ConcTrace {
        /// The context-switch bound.
        switches: usize,
    },
}

/// One program to check, with the verdict its generator guarantees.
#[derive(Debug, Clone)]
pub struct Program {
    /// Name unique within the workload.
    pub name: String,
    /// The program text handed to the parser.
    pub source: Arc<str>,
    /// The target label.
    pub label: String,
    /// The pipeline.
    pub pipeline: Pipeline,
    /// The verdict the generator guarantees.
    pub expect_reachable: bool,
}

/// A workload's request sequence: the distinct programs plus the order in
/// which requests name them.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The workload.
    pub workload: Workload,
    /// The distinct programs.
    pub programs: Vec<Program>,
    /// Request sequence as indices into `programs`.
    pub order: Vec<usize>,
    /// Requests per round.
    pub round_len: usize,
}

impl Inputs {
    /// Generates the inputs of `workload` for `seed`.
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        let programs = match workload {
            Workload::CegarStream => cegar_pool(),
            Workload::DriverDeep => driver_deck(),
        };
        let mut rng = Rng::new(seed ^ workload_salt(workload));
        let m = programs.len();
        let order = (0..workload.rounds()).flat_map(|_| shuffled(m, &mut rng)).collect();
        Inputs { workload, programs, order, round_len: m }
    }

    /// FNV-1a digest of the whole request sequence: every request's name,
    /// label, pipeline, expected verdict and source text, in order. Two
    /// runs print the same digest exactly when they issue byte-identical
    /// requests.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        let per_program: Vec<u64> = self
            .programs
            .iter()
            .map(|p| {
                let mut h = Fnv::new();
                h.write(p.name.as_bytes());
                h.write(&[0]);
                h.write(p.label.as_bytes());
                h.write(&[0]);
                let (tag, k) = match p.pipeline {
                    Pipeline::SeqTrace => (1u8, 0),
                    Pipeline::SeqVerdict => (2, 0),
                    Pipeline::ConcTrace { switches } => (3, switches),
                };
                h.write(&[tag, u8::from(p.expect_reachable)]);
                h.write(&(k as u64).to_le_bytes());
                h.write(p.source.as_bytes());
                h.finish()
            })
            .collect();
        h.write(&(self.round_len as u64).to_le_bytes());
        for &i in &self.order {
            h.write(&per_program[i].to_le_bytes());
        }
        h.finish()
    }

    /// Share of requests in the first `n` that name a program an earlier
    /// request already named.
    pub fn repeat_share(&self, n: usize) -> f64 {
        let n = n.min(self.order.len());
        let mut seen = HashSet::new();
        let repeats = self.order[..n].iter().filter(|&&i| !seen.insert(i)).count();
        repeats as f64 / n.max(1) as f64
    }
}

/// Keeps the workloads' streams apart for the same seed.
fn workload_salt(w: Workload) -> u64 {
    match w {
        Workload::CegarStream => 0x6365_6761_7200_0001,
        Workload::DriverDeep => 0x6472_6976_6572_0002,
    }
}

/// Seed of the fixed driver corpus. Generated-driver cost varies up to
/// tenfold between generator seeds at scale 2, so drawing drivers from
/// the run seed would make every timing spread more between runs than
/// any bound allows; the run seed orders and draws from the corpus
/// instead.
const DRIVER_CORPUS_SEED: u64 = 0x5EED_D41F_E125_0001;

/// The four Figure 2 driver shapes at scale 1: `(name, handlers, globals,
/// locals, positive)`, as in `slam_suites`.
const DRIVER_SHAPES: [(&str, usize, usize, usize, bool); 4] = [
    ("iscsiprt", 6, 3, 8, true),
    ("floppy", 8, 5, 10, true),
    ("driver-neg", 6, 8, 8, false),
    ("iscsi", 7, 12, 12, true),
];

/// `per_shape` drivers of every shape at `scale`, from the corpus seed.
/// Every other driver of a bug-planting shape is generated without the
/// bug, so reachable and unreachable targets mix.
fn driver_corpus(scale: usize, per_shape: usize, pipeline: Pipeline) -> Vec<Program> {
    let mut rng = Rng::new(DRIVER_CORPUS_SEED ^ scale as u64);
    let mut out = Vec::new();
    for (shape, handlers, globals, locals, plants_bug) in DRIVER_SHAPES {
        for i in 0..per_shape {
            let seed = rng.next_u64();
            let positive = plants_bug && i % 2 == 0;
            let spec = DriverSpec {
                handlers: handlers * scale,
                globals,
                locals,
                filler: 4 * scale,
                positive,
                seed,
            };
            let name = format!("{shape}-s{scale}-{}-{i}", if positive { "pos" } else { "neg" });
            let case = driver(&name, spec);
            out.push(Program {
                name,
                source: case.program.to_string().into(),
                label: case.label,
                pipeline,
                expect_reachable: case.expect_reachable,
            });
        }
    }
    out
}

/// The CEGAR stream's pool: the regression suite, dead-baggage,
/// Terminator at 3–5 bits, four scale-1 drivers per shape, and the
/// concurrent programs of [`concurrent_programs`].
fn cegar_pool() -> Vec<Program> {
    let mut pool = Vec::new();
    let seq = |name: String, program: &getafix_boolprog::Program, label: &str, expect| Program {
        name,
        source: program.to_string().into(),
        label: label.to_string(),
        pipeline: Pipeline::SeqTrace,
        expect_reachable: expect,
    };
    let (pos, neg) = regression_suite();
    for c in pos.iter().chain(&neg).chain(&dead_baggage_suite()) {
        pool.push(seq(c.name.clone(), &c.program, &c.label, c.expect_reachable));
    }
    for bits in 3..=5 {
        for c in terminator_suite(bits) {
            pool.push(seq(format!("{}-b{bits}", c.name), &c.program, &c.label, c.expect_reachable));
        }
    }
    pool.extend(driver_corpus(1, 4, Pipeline::SeqTrace));
    pool.extend(concurrent_programs());
    pool
}

/// The concurrent requests: `examples/handshake.cbp` at switch bounds
/// 1–3, reachable from one switch on, and the four Figure 3 Bluetooth
/// configurations at bound 1 plus one adder and one stopper at bound 2,
/// all below their documented bug thresholds (1 adder + 1 stopper never,
/// 1 + 2 and 2 + 2 from three switches, 2 + 1 from four). Checks at bound
/// 3 take up to seconds, and their few samples per run spread by more
/// than a quarter between runs on a machine whose speed drifts, so the
/// stream keeps to the cheap bounds.
fn concurrent_programs() -> Vec<Program> {
    let conc =
        |name: String, source: Arc<str>, label: String, switches, expect_reachable| Program {
            name,
            source,
            label,
            pipeline: Pipeline::ConcTrace { switches },
            expect_reachable,
        };
    let mut out: Vec<Program> = (1..=3)
        .map(|k| conc(format!("handshake-k{k}"), HANDSHAKE.into(), "t0__HIT".into(), k, true))
        .collect();
    for (_, adders, stoppers) in FIGURE3_CONFIGS {
        let source: Arc<str> = bluetooth(adders, stoppers).to_string().into();
        let bounds = if (adders, stoppers) == (1, 1) { 1..=2 } else { 1..=1 };
        for k in bounds {
            let name = format!("bluetooth-{adders}a{stoppers}s-k{k}");
            out.push(conc(name, source.clone(), adder_err_label(0), k, false));
        }
    }
    out
}

/// `0..m` in a seeded order (Fisher–Yates).
fn shuffled(m: usize, rng: &mut Rng) -> Vec<usize> {
    let mut v: Vec<usize> = (0..m).collect();
    for i in (1..m).rev() {
        v.swap(i, rng.below(i as u64 + 1) as usize);
    }
    v
}

/// The driver deck: sixty scale-1 and three scale-2 drivers of every
/// shape, which take about 40 s to check once at the seed commit on a
/// 2-vCPU Xeon at 2.0 GHz. The scale-2 drivers take about 40% of the
/// time; the many scale-1 drivers put the median and the tail percentile
/// among programs of similar cost, where they do not jump between
/// programs, and spread those samples over the whole run.
fn driver_deck() -> Vec<Program> {
    let mut deck = driver_corpus(1, 60, Pipeline::SeqVerdict);
    deck.extend(driver_corpus(2, 3, Pipeline::SeqVerdict));
    deck
}

/// SplitMix64: small, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}
