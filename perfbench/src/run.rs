//! Set-up and the closed-loop timed phase.

use crate::check::{run_check, Counts};
use crate::inputs::{Inputs, Workload};
use crate::spans::{SpanRecord, Spans};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Set-up repetitions; `setup_s` is their median, which leaves out the
/// first, cold repetition's page faults and cache misses.
pub const SETUP_REPS: usize = 9;

/// Pause between set-up repetitions. Machine speed drifts in bursts of a
/// fraction of a second, and back-to-back repetitions of a set-up lasting
/// milliseconds all land in the same burst; spacing them out samples the
/// machine at independent moments. The pauses are not part of `setup_s`.
const SETUP_SPACING: Duration = Duration::from_millis(50);

/// Programs checked once, untimed, at the end of every set-up: the
/// shortest ones by source length, so warm-up stays cheap on every
/// workload.
const WARMUP_PROGRAMS: usize = 2;

/// One finished check.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Position in the request sequence (also the check id in spans).
    pub seq: usize,
    /// Index of the program checked.
    pub program: usize,
    /// Wall time from source text to verdict (and validated witness).
    pub ns: u64,
    /// Whether the check was traced.
    pub traced: bool,
    /// `None` when the check succeeded with the expected verdict.
    pub failure: Option<String>,
    /// Counts of a check that ran to a verdict.
    pub counts: Option<Counts>,
}

/// What the timed phase produced.
#[derive(Debug)]
pub struct Timed {
    /// Every finished check, in sequence order.
    pub samples: Vec<Sample>,
    /// Wall time of the timed phase.
    pub elapsed: Duration,
    /// Each client's spans.
    pub spans: Vec<Vec<SpanRecord>>,
}

/// Generates the inputs and warms up, `SETUP_REPS` times. Returns the
/// inputs of the last repetition and every repetition's duration.
pub fn setup(workload: Workload, seed: u64) -> Result<(Inputs, Vec<Duration>), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut inputs = None;
    for rep in 0..SETUP_REPS {
        if rep > 0 {
            std::thread::sleep(SETUP_SPACING);
        }
        let t0 = Instant::now();
        let generated = Inputs::generate(workload, seed);
        warm_up(&generated)?;
        times.push(t0.elapsed());
        inputs = Some(generated);
    }
    Ok((inputs.expect("SETUP_REPS > 0"), times))
}

fn warm_up(inputs: &Inputs) -> Result<(), String> {
    let mut by_size: Vec<usize> = (0..inputs.programs.len()).collect();
    by_size.sort_by_key(|&i| (inputs.programs[i].source.len(), i));
    let mut spans = Spans::new(Instant::now(), 0);
    let deadline = inputs.workload.deadline();
    for &i in by_size.iter().take(WARMUP_PROGRAMS) {
        let p = &inputs.programs[i];
        let checked =
            run_check(p, deadline, &mut spans).map_err(|e| format!("warm-up {}: {e}", p.name))?;
        if checked.counts.reachable != p.expect_reachable {
            return Err(format!("warm-up {}: wrong verdict", p.name));
        }
    }
    Ok(())
}

/// Hands out sequence positions and decides, at round boundaries only,
/// when the run stops.
struct Cursor {
    next: usize,
    stopped: bool,
}

/// Runs the closed loop: each client checks the next request as soon as
/// its previous one finished. The run stops at the round boundary
/// closest to `seconds`, after at least one round, or when the request
/// sequence ends. A traced run checks every request twice, untraced and
/// then traced, so the two check times pair up program by program.
pub fn timed_loop(inputs: &Inputs, seconds: u64, trace: bool) -> Timed {
    let budget = Duration::from_secs(seconds);
    let deadline = inputs.workload.deadline();
    let cursor = Mutex::new(Cursor { next: 0, stopped: false });
    let start = Instant::now();
    let take = || -> Option<usize> {
        let mut c = cursor.lock().expect("cursor lock: no client panics while holding it");
        if c.stopped || c.next == inputs.order.len() {
            c.stopped = true;
            return None;
        }
        let rounds_done = c.next / inputs.round_len;
        let elapsed = start.elapsed();
        // Whole rounds only, as many as bring the run closest to the
        // budget: stop once half a (mean) round more would overshoot.
        if c.next.is_multiple_of(inputs.round_len)
            && rounds_done > 0
            && elapsed + elapsed / (2 * rounds_done as u32) >= budget
        {
            c.stopped = true;
            return None;
        }
        c.next += 1;
        Some(c.next - 1)
    };
    let per_client: Vec<(Vec<Sample>, Vec<SpanRecord>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..inputs.workload.clients())
            .map(|client| {
                let take = &take;
                scope.spawn(move || {
                    let mut spans = Spans::new(start, client);
                    let mut samples = Vec::new();
                    while let Some(seq) = take() {
                        for traced in [false, true].into_iter().take(1 + usize::from(trace)) {
                            spans.set_recording(traced, seq as u64);
                            samples.push(one_check(inputs, seq, traced, deadline, &mut spans));
                        }
                    }
                    (samples, spans.into_records())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let elapsed = start.elapsed();
    let mut samples = Vec::new();
    let mut spans = Vec::new();
    for (s, r) in per_client {
        samples.extend(s);
        spans.push(r);
    }
    samples.sort_by_key(|s| (s.seq, s.traced));
    Timed { samples, elapsed, spans }
}

/// Times one check, then — with the clock stopped — compares its verdict
/// with the expected one and replays any sequential witness.
fn one_check(
    inputs: &Inputs,
    seq: usize,
    traced: bool,
    deadline: Duration,
    spans: &mut Spans,
) -> Sample {
    let program = inputs.order[seq];
    let p = &inputs.programs[program];
    let t0 = Instant::now();
    let result = run_check(p, deadline, spans);
    let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let result = result.map(|mut checked| {
        let teardown = std::mem::take(&mut checked.teardown);
        spans.span("bench.teardown", |_| drop(teardown));
        checked
    });
    let (failure, counts) = match result {
        Err(e) => (Some(e), None),
        Ok(checked) => {
            let failure = if checked.counts.reachable != p.expect_reachable {
                Some(format!(
                    "wrong verdict: {} (expected {})",
                    verdict(checked.counts.reachable),
                    verdict(p.expect_reachable)
                ))
            } else {
                checked.evidence.as_ref().and_then(|e| e.verify().err())
            };
            (failure, Some(checked.counts))
        }
    };
    let failure = failure.map(|e| format!("{}: {e}", p.name));
    Sample { seq, program, ns, traced, failure, counts }
}

fn verdict(reachable: bool) -> &'static str {
    if reachable {
        "reachable"
    } else {
        "unreachable"
    }
}
