//! `perfbench run` measures the workloads; `perfbench compare` sets two
//! sets of results against the bounds in `BENCHMARK.json`.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::compare::compare;
use perfbench::run::{render, result_line, run, write_outputs, RunConfig};
use perfbench::workload::WorkloadId;
use perfbench::Scale;

const USAGE: &str = "usage:
  perfbench run [--workload NAME]... [--seed N] [--seconds N] [--trace [0|1]] [--out DIR]
  perfbench compare A B [--benchmark BENCHMARK.json]";

/// Default measurement budget per workload, seconds: `run_seconds` in
/// `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 25.0;

fn parse_run(args: &[String]) -> Result<RunConfig, String> {
    let mut cfg = RunConfig {
        workloads: Vec::new(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: PathBuf::from("perfbench/out"),
        scale: Scale::Full,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--workload" => cfg.workloads.push(WorkloadId::parse(&value(arg)?)?),
            "--seed" => cfg.seed = value(arg)?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value(arg)?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {s}"));
                }
                cfg.seconds = s;
            }
            "--out" => cfg.out = PathBuf::from(value(arg)?),
            "--trace" => {
                cfg.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if cfg.workloads.is_empty() {
        cfg.workloads = WorkloadId::ALL.to_vec();
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    brick_obs::init();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => {
            let cfg = match parse_run(&args[1..]) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("perfbench: {e}\n{USAGE}");
                    return ExitCode::from(2);
                }
            };
            let (host, results) = match run(&cfg) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if let Err(e) = write_outputs(&cfg, &host, &results) {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
            println!(
                "host: {} | nproc {} | {} -> {} | git {} | seed {}",
                host.cpu_model,
                host.nproc,
                host.features,
                host.backend,
                host.git_sha.as_deref().unwrap_or("unknown"),
                cfg.seed
            );
            print!("{}", render(&results, cfg.trace));
            println!("{}", result_line(&results, cfg.trace));
            if results.iter().all(|r| r.correct) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Some("compare") => {
            let mut paths = Vec::new();
            let mut benchmark = PathBuf::from("BENCHMARK.json");
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                match (a.as_str(), it.as_slice().first()) {
                    ("--benchmark", Some(p)) => {
                        benchmark = PathBuf::from(p);
                        it.next();
                    }
                    _ => paths.push(PathBuf::from(a)),
                }
            }
            let [a, b] = paths.as_slice() else {
                eprintln!("perfbench: compare takes two result sets\n{USAGE}");
                return ExitCode::from(2);
            };
            match compare(a, b, &benchmark) {
                Ok((table, regressed)) => {
                    print!("{table}");
                    if regressed {
                        ExitCode::FAILURE
                    } else {
                        ExitCode::SUCCESS
                    }
                }
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
