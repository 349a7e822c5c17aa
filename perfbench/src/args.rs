//! Strict command-line parsing: every flag is required exactly once, and
//! a malformed value is an error, never a silent default.

use crate::inputs::Workload;
use std::path::PathBuf;

/// Usage text printed with every argument error.
pub const USAGE: &str = "usage: perfbench --workload <cegar-stream|driver-deep> \
                         --seed <u64> --seconds <1..=3600> --trace <0|1> [--trace-out <dir>]";

/// Parsed arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: u64,
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
    /// Where the traced run writes its span and table files.
    pub trace_out: PathBuf,
}

/// Digits only: no sign, no base prefix, no whitespace.
fn parse_u64(flag: &str, v: &str) -> Result<u64, String> {
    if v.is_empty() || !v.bytes().all(|b| b.is_ascii_digit()) {
        return Err(format!("{flag}: `{v}` is not a non-negative decimal integer"));
    }
    v.parse().map_err(|e| format!("{flag}: `{v}`: {e}"))
}

impl Args {
    /// Parses the arguments after the program name.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut trace_out = None;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag}: missing value"))?;
            let dup = |set: bool| {
                if set {
                    Err(format!("{flag}: given more than once"))
                } else {
                    Ok(())
                }
            };
            match flag.as_str() {
                "--workload" => {
                    dup(workload.is_some())?;
                    workload = Some(value.parse::<Workload>()?);
                }
                "--seed" => {
                    dup(seed.is_some())?;
                    seed = Some(parse_u64(flag, value)?);
                }
                "--seconds" => {
                    dup(seconds.is_some())?;
                    let s = parse_u64(flag, value)?;
                    if !(1..=3600).contains(&s) {
                        return Err(format!("--seconds: {s} is outside 1..=3600"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    dup(trace.is_some())?;
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace: `{other}` is neither 0 nor 1")),
                    });
                }
                "--trace-out" => {
                    dup(trace_out.is_some())?;
                    if value.is_empty() {
                        return Err("--trace-out: empty path".into());
                    }
                    trace_out = Some(PathBuf::from(value));
                }
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
            trace_out: trace_out.unwrap_or_else(|| PathBuf::from("perfbench/out")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn accepts_the_documented_form() {
        let a = parse("--workload driver-deep --seed 42 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::DriverDeep);
        assert_eq!((a.seed, a.seconds, a.trace), (42, 10, true));
    }

    #[test]
    fn rejects_malformed_input() {
        let base = "--workload cegar-stream --seed 1 --seconds 5 --trace 0";
        assert!(parse(base).is_ok());
        for bad in [
            "--workload cegar --seed 1 --seconds 5 --trace 0",
            "--workload cegar-stream --seed -1 --seconds 5 --trace 0",
            "--workload cegar-stream --seed +1 --seconds 5 --trace 0",
            "--workload cegar-stream --seed 0x10 --seconds 5 --trace 0",
            "--workload cegar-stream --seed 18446744073709551616 --seconds 5 --trace 0",
            "--workload cegar-stream --seed 1 --seconds 0 --trace 0",
            "--workload cegar-stream --seed 1 --seconds 5 --trace 2",
            "--workload cegar-stream --seed 1 --seconds 5",
            "--workload cegar-stream --seed 1 --seed 2 --seconds 5 --trace 0",
            "--workload cegar-stream --seed 1 --seconds 5 --trace 0 --extra 1",
            "--workload cegar-stream --seed 1 --seconds 5 --trace",
        ] {
            assert!(parse(bad).is_err(), "accepted `{bad}`");
        }
    }
}
