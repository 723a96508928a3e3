//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Prints a run-header JSON line, then the result line
//! `{"correct", "attempted", "failed", "metrics"}` as the last line of
//! standard output. Exits 1 on a bad invocation, a failed set-up, or a
//! failed output check.

use std::process::ExitCode;
use taxrec_perfbench::{run, Opts, Size, WORKLOADS};

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        work_dir: std::path::PathBuf::new(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = value()?.clone(),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(opts.seconds > 0.0 && opts.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Files a workload writes live under the working directory, one
    // directory per process, removed on exit.
    opts.work_dir =
        std::path::PathBuf::from(".perfbench-work").join(std::process::id().to_string());
    if let Err(e) = std::fs::create_dir_all(&opts.work_dir) {
        eprintln!("perfbench: creating {}: {e}", opts.work_dir.display());
        return ExitCode::FAILURE;
    }
    let result = run(&opts);
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    let _ = std::fs::remove_dir(".perfbench-work");
    match result {
        Ok(report) => {
            println!("{}", report.header_json());
            println!("{}", report.result_json(opts.trace));
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
