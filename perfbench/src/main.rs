//! `refdist-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one benchmark workload and prints its metrics as one JSON object on
//! the last line of standard output. Exits 2 on a usage error and 1 when a
//! check of the simulated output fails.

use refdist_perfbench::{parse_args, result_json, run, USAGE};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for l in &out.lines {
        println!("{l}");
    }
    for f in &out.failures {
        eprintln!("check failed: {f}");
    }
    println!(
        "{}",
        result_json(out.correct, out.attempted, out.failures.len(), &out.metrics)
    );
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
