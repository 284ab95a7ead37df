//! The planner benchmark: one process runs one workload and prints its
//! metrics, the last line being the JSON result.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload plan_cold|replan_exact|serve_mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones. Any correctness failure makes `correct` false and the exit code
//! nonzero. See README.md in this directory for the workloads and the
//! layer → end-to-end map.

mod gen;
mod plan_cold;
mod replan_exact;
mod report;
mod serve_mixed;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

const WORKLOADS: [&str; 3] = ["plan_cold", "replan_exact", "serve_mixed"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|_| "--seed takes a whole number".to_string())?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|_| "--seconds takes a number".to_string())?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace takes 0 or 1, not `{t}`")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Plan caches live under the working directory for the run only.
    let state =
        PathBuf::from(".perfbench-state").join(format!("{}-{}", args.workload, std::process::id()));
    let mut run = match args.workload.as_str() {
        "plan_cold" => plan_cold::run(args.seed, args.seconds, args.trace),
        "replan_exact" => replan_exact::run(args.seed, args.seconds, args.trace, &state),
        _ => serve_mixed::run(args.seed, args.seconds, args.trace, &state),
    };
    let _ = std::fs::remove_dir_all(&state);
    let _ = std::fs::remove_dir(".perfbench-state");
    if run.attempted == 0 {
        run.fail("no operation completed".into());
    }

    for line in &run.notes {
        println!("{line}");
    }
    for p in &run.problems {
        println!("FAILED: {p}");
    }
    println!(
        "{}: seed {} trace {} | {} ops in {:.3} s, {} attempted, {} failed",
        args.workload,
        args.seed,
        args.trace as u8,
        run.ops,
        run.window_s,
        run.attempted,
        run.failed
    );
    if !args.trace {
        for ((name, v), (_, unit)) in run.end_to_end().iter().zip(report::END_TO_END) {
            println!("  {name:<18} {v:>16.6} {unit}");
        }
        let single = |q| report::quantile(&run.latency_s, q) * 1e3;
        println!(
            "  (latencies over {} ops in {} classes; of single ops p50 {:.3} p90 {:.3} p99 {:.3} ms; error_frac {})",
            run.latency_s.len(),
            run.latency_class.iter().collect::<std::collections::BTreeSet<_>>().len(),
            single(0.5),
            single(0.9),
            single(0.99),
            report::frac(run.failed as f64, run.attempted as f64)
        );
    }
    println!("{}", report::result_line(&run, args.trace));
    if run.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
