//! The benchmark's own span recorder: one span around each call the
//! benchmark makes into a layer, kept in memory and written out once at
//! the end of the run.
//!
//! Recording is decided per check. With recording off, [`Spans::span`]
//! only calls its closure, so the untraced run executes the same program
//! code as the traced one. The program's own `telemetry` collector is
//! never installed.

use getafix_telemetry::json::JsonWriter;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Layer-qualified name, e.g. `mucalc.solve`.
    pub name: &'static str,
    /// Start, in nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the run's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder, if any.
    pub parent: Option<usize>,
    /// The check this span belongs to.
    pub check: u64,
    /// The client that ran the check.
    pub client: usize,
}

impl SpanRecord {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-client span recorder.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    client: usize,
    recording: bool,
    check: u64,
    open: Vec<usize>,
    records: Vec<SpanRecord>,
}

impl Spans {
    /// A recorder for `client`, timing from `epoch`.
    pub fn new(epoch: Instant, client: usize) -> Spans {
        Spans { epoch, client, recording: false, check: 0, open: Vec::new(), records: Vec::new() }
    }

    /// Starts recording the spans of check `check` (`true`) or stops
    /// recording (`false`).
    pub fn set_recording(&mut self, recording: bool, check: u64) {
        self.recording = recording;
        self.check = check;
    }

    /// Runs `f` inside a span named `name` when recording.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        if !self.recording {
            return f(self);
        }
        let idx = self.records.len();
        self.records.push(SpanRecord {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            check: self.check,
            client: self.client,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.records[idx].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// The recorded spans, consuming the recorder.
    pub fn into_records(self) -> Vec<SpanRecord> {
        self.records
    }
}

/// Self time per span name, in nanoseconds, summed over clients: each
/// span's duration minus the part its direct children cover (children
/// never overlap: a client makes one call at a time).
pub fn self_time_ns(clients: &[Vec<SpanRecord>]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for records in clients {
        let mut child_ns = vec![0u64; records.len()];
        for r in records {
            if let Some(p) = r.parent {
                child_ns[p] += r.dur_ns();
            }
        }
        for (r, c) in records.iter().zip(child_ns) {
            *out.entry(r.name).or_insert(0) += r.dur_ns().saturating_sub(c);
        }
    }
    out
}

/// The spans of every client as a Chrome trace-event document (one track
/// per client, the check id in each span's `args`).
pub fn chrome_trace(clients: &[Vec<SpanRecord>]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("traceEvents");
    w.begin_array();
    for records in clients {
        for r in records {
            w.begin_object();
            w.field_str("name", r.name);
            w.field_str("cat", r.name.split('.').next().unwrap_or(r.name));
            w.field_str("ph", "X");
            w.field_f64("ts", r.start_ns as f64 / 1e3);
            w.field_f64("dur", r.dur_ns() as f64 / 1e3);
            w.field_u64("pid", 1);
            w.field_u64("tid", r.client as u64 + 1);
            w.key("args");
            w.begin_object();
            w.field_u64("check", r.check);
            w.end_object();
            w.end_object();
        }
    }
    w.end_array();
    w.field_str("displayTimeUnit", "ms");
    w.end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let rec = |name, start_ns, end_ns, parent| SpanRecord {
            name,
            start_ns,
            end_ns,
            parent,
            check: 0,
            client: 0,
        };
        let records = vec![
            rec("bench.check", 0, 100, None),
            rec("mucalc.solve", 10, 70, Some(0)),
            rec("inner", 20, 30, Some(1)),
            rec("witness.extract", 70, 90, Some(0)),
        ];
        // A second client's parent indices point into its own records.
        let other = vec![rec("bench.check", 0, 50, None), rec("mucalc.solve", 5, 45, Some(0))];
        let t = self_time_ns(&[records, other]);
        assert_eq!(t["bench.check"], 30);
        assert_eq!(t["mucalc.solve"], 90);
        assert_eq!(t["inner"], 10);
        assert_eq!(t["witness.extract"], 20);
        assert_eq!(t.values().sum::<u64>(), 150, "self times partition the roots");
    }

    #[test]
    fn chrome_trace_parses() {
        let mut s = Spans::new(Instant::now(), 0);
        s.set_recording(true, 7);
        s.span("bench.check", |s| s.span("mucalc.solve", |_| ()));
        s.set_recording(false, 0);
        s.span("ignored", |_| ());
        let records = s.into_records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].parent, Some(0));
        let doc = chrome_trace(&[records]);
        let v = getafix_telemetry::json::parse(&doc).expect("valid JSON");
        let events = v.get("traceEvents").and_then(|e| e.as_array()).expect("events");
        assert_eq!(events.len(), 2);
    }
}
