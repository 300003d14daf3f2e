//! Benchmark entry point:
//! `egi-perfbench --workload NAME --seed N --seconds S --trace 0|1`.
//!
//! Prints the result object as the last line of standard output and
//! exits 0, or — if any operation failed or any output check did not
//! hold — describes the failures on standard error and exits 1 without
//! a result.

use std::process::ExitCode;

use egi_perfbench::{run, Scale, WORKLOADS};

fn usage() -> String {
    format!(
        "usage: egi-perfbench --workload <{}> --seed <u64> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse() -> Result<(String, u64, f64, bool), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}\n{}", usage()))?;
        args.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
    };
    let workload = value("--workload")?.to_string();
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok((workload, seed, seconds, trace))
}

fn main() -> ExitCode {
    let (workload, seed, seconds, trace) = match parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match run(&workload, seed, seconds, trace, Scale::Full) {
        Ok(outcome) if outcome.failed == 0 => {
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Ok(outcome) => {
            eprintln!(
                "{workload}: {} of {} operations failed:",
                outcome.failed, outcome.attempted
            );
            for why in &outcome.failures {
                eprintln!("  {why}");
            }
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            ExitCode::from(2)
        }
    }
}
