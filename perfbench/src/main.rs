//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`:
//! runs one workload and prints its metrics, the last line of standard
//! output being the JSON result. Exit codes: 0 when every answer was
//! right, 1 when any check failed, 2 on a usage or set-up error.

use getafix_perfbench::args::{Args, USAGE};
use getafix_perfbench::report::{self, Metric};
use getafix_perfbench::run::{setup, timed_loop};
use getafix_perfbench::spans::chrome_trace;
use std::process::ExitCode;

fn main() -> ExitCode {
    if let Err(e) = return_large_allocations() {
        eprintln!("perfbench: {e}");
        return ExitCode::from(2);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Serves every allocation of 8 MiB or more with its own mapping, so the
/// BDD arenas and caches of a finished check go back to the system as
/// they would when each check runs in its own process. The allocator's
/// adaptive default keeps freed arenas resident in an order-dependent
/// way, which made `peak_rss_mb` depend on the seeded request order
/// (60–85 MiB on one driver corpus). Smaller blocks keep the default
/// heap behaviour, with the trim threshold at the adaptive default's
/// ceiling, so small checks do not pay for fresh pages.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn return_large_allocations() -> Result<(), String> {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    for (param, value, name) in [
        (M_MMAP_THRESHOLD, 8 << 20, "M_MMAP_THRESHOLD"),
        (M_TRIM_THRESHOLD, 64 << 20, "M_TRIM_THRESHOLD"),
    ] {
        // SAFETY: `mallopt` only sets a glibc allocator parameter; it is
        // called before the benchmark starts any thread, with byte counts
        // within the documented range of both parameters.
        if unsafe { mallopt(param, value) } != 1 {
            return Err(format!("mallopt({name}) failed"));
        }
    }
    Ok(())
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn return_large_allocations() -> Result<(), String> {
    Ok(())
}

/// Runs the workload and prints the report; `Ok(false)` when any check
/// failed.
fn run(args: &Args) -> Result<bool, String> {
    let (inputs, setup_times) = setup(args.workload, args.seed)?;
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "perfbench {} seed {}: {} programs, {} requests/round, {} client(s) on {cpus} CPU(s), \
         {:?} per-check deadline, input digest {:016x}",
        args.workload,
        args.seed,
        inputs.programs.len(),
        inputs.round_len,
        args.workload.clients(),
        args.workload.deadline(),
        inputs.digest()
    );
    let timed = timed_loop(&inputs, args.seconds, args.trace);
    let attempted = timed.samples.len();
    let failures: Vec<&str> = timed.samples.iter().filter_map(|s| s.failure.as_deref()).collect();
    for f in failures.iter().take(10) {
        println!("FAILED {f}");
    }
    let requests = timed.samples.iter().filter(|s| !s.traced).count();
    println!(
        "{attempted} checks of {requests} requests in {} rounds, {:.3} s",
        requests.div_ceil(inputs.round_len),
        timed.elapsed.as_secs_f64()
    );
    let metrics: Vec<Metric> = if args.trace {
        let layers = report::per_layer(&inputs, &timed);
        let tables = format!(
            "{}\n{}",
            report::self_time_table(&timed),
            report::table("per-layer metrics", &layers)
        );
        print!("{tables}");
        write_trace_files(args, &timed, &tables)?;
        layers
    } else {
        let e2e = report::end_to_end(&inputs, &setup_times, &timed)?;
        print!("{}", report::table("end-to-end metrics", &e2e));
        e2e
    };
    print!("{}", report::slowest_programs(&inputs, &timed.samples, 8));
    let correct = failures.is_empty();
    println!("{}", report::result_line(correct, attempted, failures.len(), &metrics));
    Ok(correct)
}

/// Writes the spans as Chrome-trace JSON and the tables as text.
fn write_trace_files(
    args: &Args,
    timed: &getafix_perfbench::run::Timed,
    tables: &str,
) -> Result<(), String> {
    let dir = &args.trace_out;
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let stem = format!("{}-seed{}", args.workload, args.seed);
    let files = [
        (format!("{stem}.trace.json"), chrome_trace(&timed.spans)),
        (format!("{stem}.layers.txt"), tables.to_string()),
    ];
    for (name, body) in files {
        let path = dir.join(name);
        std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    Ok(())
}
