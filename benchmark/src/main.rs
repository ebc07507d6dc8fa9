//! The repo benchmark. `../BENCHMARK.json` declares what it measures and
//! `../README.md` explains why; `run.sh` builds and starts it.
//!
//! ```text
//! sqm-benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//!     one run; the last line of stdout is the result as one JSON object
//! sqm-benchmark [--seed <u64>] [--seconds <n>] [--repeat]
//!     every workload, untraced then traced, each in its own process;
//!     --repeat does it twice and compares the two against the bounds
//! ```

mod data;
mod probes;
mod run;
mod spans;
mod spec;
mod stats;
mod suite;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use spec::Spec;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    repeat: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        traced: false,
        repeat: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed needs a u64".to_string())?;
            }
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
                args.seconds = Some(seconds);
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".to_string()),
                };
            }
            "--out" => args.out_dir = PathBuf::from(value()?),
            "--repeat" => args.repeat = true,
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| {
        let spec = Spec::load();
        let seconds = args.seconds.unwrap_or(spec.run_seconds as f64);
        match &args.workload {
            Some(workload) => {
                let report = run::run(
                    &spec,
                    workload,
                    args.seed,
                    seconds,
                    args.traced,
                    &args.out_dir,
                )?;
                println!(
                    "# {workload} seed {} trace {}: {} release samples, {} of {} ops failed",
                    args.seed,
                    u8::from(args.traced),
                    report.samples,
                    report.failed,
                    report.attempted
                );
                for m in &report.metrics {
                    println!("{workload} {} {} {}", m.name, m.value, m.unit);
                }
                // A run that printed its result exits 0; `correct` carries
                // the verdict. The suite below is what fails on it.
                println!("{}", report.to_json());
                Ok(true)
            }
            None if args.repeat => suite::repeat(&spec, args.seed, seconds, &args.out_dir),
            None => suite::run(&spec, args.seed, seconds, &args.out_dir).map(|s| s.correct()),
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("sqm-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
