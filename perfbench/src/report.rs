//! Metrics from the samples and spans of one run, and their output: a
//! human table and the one-line JSON result.

use crate::check::Counts;
use crate::inputs::Inputs;
use crate::run::{Sample, Timed};
use crate::spans::self_time_ns;
use getafix_telemetry::json::{escape, number};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// A note printed beside the value in the human table.
    pub note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit, note: String::new() }
}

/// Median of `xs` (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank `p`th percentile of `xs` (0 for no samples).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v.get(rank.clamp(1, v.len().max(1)) - 1).copied().unwrap_or(0.0)
}

/// Check time in milliseconds. A failed check counts as taking at least
/// the whole per-check deadline: it misses every latency limit, and the
/// value stays finite, so the JSON result carries it as it is.
fn latency_ms(s: &Sample, deadline: Duration) -> f64 {
    let ms = s.ns as f64 / 1e6;
    if s.failure.is_some() {
        ms.max(deadline.as_secs_f64() * 1e3)
    } else {
        ms
    }
}

/// Peak resident set size of this process, in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak_rss_mb: /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("peak_rss_mb: no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(
    inputs: &Inputs,
    setup: &[Duration],
    timed: &Timed,
) -> Result<Vec<Metric>, String> {
    let setups: Vec<f64> = setup.iter().map(Duration::as_secs_f64).collect();
    let deadline = inputs.workload.deadline();
    let lat: Vec<f64> = timed.samples.iter().map(|s| latency_ms(s, deadline)).collect();
    let n = lat.len();
    let ok = timed.samples.iter().filter(|s| s.failure.is_none()).count();
    let p = inputs.workload.tail_percentile();
    let tail_ms = percentile(&lat, p);
    let beyond = lat.iter().filter(|&&x| x > tail_ms).count();
    let mut out = vec![
        metric("setup_s", median(&setups), "s"),
        metric("checks_per_s", ok as f64 / timed.elapsed.as_secs_f64(), "1/s"),
        metric("check_p50_ms", median(&lat), "ms"),
        Metric {
            note: format!("p{p} of {n} checks, {beyond} beyond"),
            ..metric("check_tail_ms", tail_ms, "ms")
        },
        Metric {
            note: format!("{} of {n} failed", n - ok),
            ..metric("correct_share", ok as f64 / n.max(1) as f64, "share")
        },
        metric("peak_rss_mb", peak_rss_mb()?, "MiB"),
    ];
    out[0].note = format!("median of {} set-ups", setups.len());
    Ok(out)
}

/// Span names and the per-layer metric each one's self time feeds.
const SELF_TIME_METRICS: [(&str, &str); 10] = [
    ("boolprog.parse", "boolprog.parse_ms"),
    ("boolprog.cfg", "boolprog.cfg_ms"),
    ("core.encode", "core.encode_ms"),
    ("mucalc.solve", "mucalc.solve_ms"),
    ("witness.extract", "witness.extract_ms"),
    ("conc.merge", "conc.merge_ms"),
    ("conc.encode", "conc.encode_ms"),
    ("conc.refine", "conc.refine_ms"),
    ("conc.replay", "conc.replay_ms"),
    ("bench.check", "bench.glue_ms"),
];

/// Exact counts of the first round, which checks every program of the
/// workload once: the same checks in every run, whatever the seed, so
/// these repeat exactly when the program is deterministic.
#[derive(Debug, Clone, Default)]
pub struct RoundCounts {
    /// Checks in the round.
    pub checks: usize,
    /// Sum of each count over the round's checks.
    pub sum: Counts,
    /// Checks that produced a sequential witness.
    pub seq_witnesses: usize,
    /// Checks that produced a concurrent witness.
    pub conc_witnesses: usize,
    /// Largest peak arena of the round.
    pub max_peak_arena_bytes: usize,
    /// Reachable verdicts.
    pub reachable: usize,
}

impl RoundCounts {
    /// Sums the counts of the untraced checks of round 0.
    pub fn of_first_round(inputs: &Inputs, samples: &[Sample]) -> RoundCounts {
        let mut r = RoundCounts::default();
        for s in samples.iter().filter(|s| s.seq < inputs.round_len && !s.traced) {
            let Some(c) = s.counts else { continue };
            r.checks += 1;
            r.reachable += usize::from(c.reachable);
            r.seq_witnesses += usize::from(c.seq_witness);
            r.conc_witnesses += usize::from(c.conc_witness);
            r.max_peak_arena_bytes = r.max_peak_arena_bytes.max(c.peak_arena_bytes);
            let t = &mut r.sum;
            t.source_bytes += c.source_bytes;
            t.bdd_vars += c.bdd_vars;
            t.reevaluations += c.reevaluations;
            t.gcs += c.gcs;
            t.gc_pause_ms += c.gc_pause_ms;
            t.provenance_nodes += c.provenance_nodes;
            t.cache_hits += c.cache_hits;
            t.cache_lookups += c.cache_lookups;
            t.arena_nodes += c.arena_nodes;
            t.trace_steps += c.trace_steps;
            t.search_states += c.search_states;
            t.guided_steps += c.guided_steps;
        }
        r
    }

    /// The exact per-layer counts, by metric name.
    pub fn metrics(&self) -> Vec<Metric> {
        let per = |x: f64, n: usize| if n == 0 { 0.0 } else { x / n as f64 };
        let c = &self.sum;
        let n = self.checks;
        vec![
            metric("core.bdd_vars", per(c.bdd_vars as f64, n), "count"),
            metric("mucalc.reevaluations", per(c.reevaluations as f64, n), "count"),
            metric("mucalc.gcs", per(c.gcs as f64, n), "count"),
            metric("mucalc.provenance_nodes", per(c.provenance_nodes as f64, n), "count"),
            metric("bdd.cache_lookups", per(c.cache_lookups as f64, n), "count"),
            metric(
                "bdd.cache_hit_ratio",
                per(c.cache_hits as f64, c.cache_lookups as usize),
                "ratio",
            ),
            metric("bdd.peak_arena_mb", self.max_peak_arena_bytes as f64 / (1 << 20) as f64, "MiB"),
            metric("bdd.arena_nodes", per(c.arena_nodes as f64, n), "count"),
            metric("witness.trace_steps", per(c.trace_steps as f64, self.seq_witnesses), "count"),
            metric("conc.search_states", per(c.search_states as f64, self.conc_witnesses), "count"),
            metric("conc.guided_steps", per(c.guided_steps as f64, self.conc_witnesses), "count"),
            metric("bench.reachable_share", per(self.reachable as f64, n), "share"),
        ]
    }
}

/// The per-layer metrics of a traced run: self times over the traced
/// checks, exact counts over the first round, and the harness's own
/// figures.
pub fn per_layer(inputs: &Inputs, timed: &Timed) -> Vec<Metric> {
    let self_ns = self_time_ns(&timed.spans);
    let traced: Vec<&Sample> = timed.samples.iter().filter(|s| s.traced).collect();
    let untraced: Vec<&Sample> = timed.samples.iter().filter(|s| !s.traced).collect();
    let n_traced = traced.len().max(1) as f64;
    let ms_of = |span: &str| self_ns.get(span).copied().unwrap_or(0) as f64 / 1e6;
    let mut out: Vec<Metric> = SELF_TIME_METRICS
        .iter()
        .map(|&(span, name)| Metric {
            note: "self time per traced check".into(),
            ..metric(name, ms_of(span) / n_traced, "ms")
        })
        .collect();

    let check_ms: f64 = timed
        .spans
        .iter()
        .flatten()
        .filter(|r| r.name == "bench.check")
        .map(|r| r.dur_ns() as f64 / 1e6)
        .sum();
    let sum_counts =
        |f: fn(&Counts) -> f64| traced.iter().filter_map(|s| s.counts.as_ref()).map(f).sum::<f64>();
    let parsed_bytes = sum_counts(|c| c.source_bytes as f64);
    let reevals = sum_counts(|c| c.reevaluations as f64);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    out.push(metric(
        "boolprog.parse_mb_per_s",
        ratio(parsed_bytes / 1e6, ms_of("boolprog.parse") / 1e3),
        "MB/s",
    ));
    out.push(metric("mucalc.solve_share", ratio(ms_of("mucalc.solve"), check_ms), "share"));
    out.push(metric("mucalc.reeval_us", ratio(ms_of("mucalc.solve") * 1e3, reevals), "us"));
    out.push(metric("mucalc.gc_pause_ms", sum_counts(|c| c.gc_pause_ms) / n_traced, "ms"));
    out.extend(RoundCounts::of_first_round(inputs, &timed.samples).metrics());

    let deadline = inputs.workload.deadline();
    let p50 =
        |xs: &[&Sample]| median(&xs.iter().map(|s| latency_ms(s, deadline)).collect::<Vec<_>>());
    let (t, u) = (p50(&traced), p50(&untraced));
    out.push(Metric {
        note: format!("traced p50 {t:.3} ms vs untraced {u:.3} ms"),
        ..metric("bench.trace_overhead_share", ratio(t - u, u), "share")
    });
    let issued = untraced.len();
    out.push(Metric {
        note: format!("over {issued} requests"),
        ..metric("bench.repeat_share", inputs.repeat_share(issued), "share")
    });
    out
}

/// The human table of `metrics`.
pub fn table(title: &str, metrics: &[Metric]) -> String {
    let mut s = format!("{title}\n");
    for m in metrics {
        let _ = writeln!(s, "  {:<26} {:>14.4} {:<6} {}", m.name, m.value, m.unit, m.note);
    }
    s
}

/// Self time and call count per span name, slowest first.
pub fn self_time_table(timed: &Timed) -> String {
    let self_ns = self_time_ns(&timed.spans);
    let mut calls: BTreeMap<&str, usize> = BTreeMap::new();
    for r in timed.spans.iter().flatten() {
        *calls.entry(r.name).or_insert(0) += 1;
    }
    let total: u64 = self_ns.values().sum();
    let mut rows: Vec<_> = self_ns.into_iter().collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    let mut s = String::from("self time by layer (traced checks)\n");
    for (name, ns) in rows {
        let _ = writeln!(
            s,
            "  {:<18} {:>12.3} ms {:>6.1}% {:>8} calls",
            name,
            ns as f64 / 1e6,
            100.0 * ns as f64 / total.max(1) as f64,
            calls[name]
        );
    }
    s
}

/// The slowest programs by median check time.
pub fn slowest_programs(inputs: &Inputs, samples: &[Sample], n: usize) -> String {
    let deadline = inputs.workload.deadline();
    let mut by: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for s in samples {
        by.entry(s.program).or_default().push(latency_ms(s, deadline));
    }
    let mut rows: Vec<(f64, usize, usize)> =
        by.iter().map(|(&p, v)| (median(v), v.len(), p)).collect();
    rows.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.2.cmp(&b.2)));
    let mut s = format!("slowest programs (median of untraced and traced checks, top {n})\n");
    for (ms, count, p) in rows.into_iter().take(n) {
        let _ = writeln!(s, "  {:<44} {:>10.3} ms  x{count}", inputs.programs[p].name, ms);
    }
    s
}

/// The one-line JSON result.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            escape(m.name),
            number(m.value),
            escape(m.unit)
        );
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::Workload;

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=45).map(f64::from).collect();
        assert_eq!(percentile(&xs, 75.0), 34.0);
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 99.0), 990.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    fn value(line: &str, name: &str) -> f64 {
        let v = getafix_telemetry::json::parse(line).expect("valid JSON");
        v.get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(|x| x.as_f64())
            .unwrap_or_else(|| panic!("no metric {name} in {line}"))
    }

    #[test]
    fn a_failed_check_counts_as_the_whole_deadline() {
        let workload = Workload::DriverDeep;
        let inputs = Inputs { workload, programs: Vec::new(), order: Vec::new(), round_len: 1 };
        let sample = |seq, ms: u64, failure: Option<&str>| Sample {
            seq,
            program: 0,
            ns: ms * 1_000_000,
            traced: false,
            failure: failure.map(String::from),
            counts: None,
        };
        let timed = Timed {
            samples: vec![
                sample(0, 5, None),
                sample(1, 7, Some("wrong verdict")),
                sample(2, 70_000, Some("deadline")),
            ],
            elapsed: Duration::from_secs(1),
            spans: Vec::new(),
        };
        let metrics = end_to_end(&inputs, &[Duration::from_millis(10)], &timed).expect("metrics");
        let line = result_line(false, 3, 2, &metrics);
        let deadline_ms = workload.deadline().as_secs_f64() * 1e3;
        assert_eq!(value(&line, "check_p50_ms"), deadline_ms, "{line}");
        assert_eq!(value(&line, "check_tail_ms"), 70_000.0, "{line}");
        assert_eq!(value(&line, "checks_per_s"), 1.0, "{line}");
        assert_eq!(value(&line, "correct_share"), 1.0 / 3.0, "{line}");
        for m in &metrics {
            assert!(m.value.is_finite(), "{} is not finite", m.name);
            assert_eq!(value(&line, m.name), m.value, "{} changed on its way into JSON", m.name);
        }
    }

    #[test]
    fn result_line_parses() {
        let line = result_line(true, 3, 0, &[metric("a_ms", 1.25, "ms")]);
        assert_eq!(value(&line, "a_ms"), 1.25);
    }
}
