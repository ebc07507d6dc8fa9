//! Every workload in one command: each run is a child process of its own,
//! so that peak memory is per workload. `--repeat` runs the set twice and
//! holds the second against the first by the declared bounds.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};

use sqm::obs::json::{self, JsonValue};

use crate::spec::{MetricDecl, Spec};

/// The metrics of one set of runs, by `(workload, metric)`.
pub struct SuiteResult {
    values: BTreeMap<(String, String), f64>,
    failed_ops: u64,
}

impl SuiteResult {
    pub fn correct(&self) -> bool {
        self.failed_ops == 0
    }
}

/// Run one child and parse the result object on its last stdout line.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: &Path,
) -> Result<JsonValue, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(out)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting the {workload} run: {e}"))?;
    if !output.status.success() {
        return Err(format!("the {workload} run exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().ok_or("a run printed nothing")?;
    json::parse(last).map_err(|e| format!("the {workload} result line is not JSON: {e:?}"))
}

/// Every workload, untraced then traced; prints each metric by name with
/// its unit as it arrives.
pub fn run(spec: &Spec, seed: u64, seconds: f64, out: &Path) -> Result<SuiteResult, String> {
    let mut result = SuiteResult {
        values: BTreeMap::new(),
        failed_ops: 0,
    };
    for workload in &spec.workloads {
        for traced in [false, true] {
            let report = child(workload, seed, seconds, traced, out)?;
            let field = |key: &str| report.get(key).ok_or(format!("result without {key:?}"));
            let failed = field("failed")?.as_u64().ok_or("failed is not a count")?;
            let attempted = field("attempted")?
                .as_u64()
                .ok_or("attempted is not a count")?;
            println!(
                "# {workload} seed {seed} trace {}: {failed} of {attempted} ops failed",
                u8::from(traced)
            );
            result.failed_ops += failed;
            let metrics = field("metrics")?
                .as_obj()
                .ok_or("metrics is not an object")?;
            // The run itself refuses to report a name that is not declared.
            for decl in spec.metrics(traced) {
                let value = metrics
                    .get(&decl.name)
                    .and_then(|m| m.get("value"))
                    .and_then(JsonValue::as_f64)
                    .ok_or_else(|| format!("{workload} did not report {}", decl.name))?;
                println!("{workload} {} {value} {}", decl.name, decl.unit);
                result
                    .values
                    .insert((workload.clone(), decl.name.clone()), value);
            }
        }
    }
    Ok(result)
}

/// Counters that must repeat exactly, whatever their declared bound.
fn exact(decl: &MetricDecl) -> bool {
    decl.unit == "count" || decl.unit == "bytes"
}

/// How much worse `second` is than `first`, as a share of `first`;
/// negative when it is better.
pub fn worse_by(decl: &MetricDecl, first: f64, second: f64) -> f64 {
    let change = (second - first) / first.abs();
    if decl.better == "higher" {
        -change
    } else {
        change
    }
}

/// Two sets of runs of the same code, as a Markdown report. `Ok(false)`
/// when an end-to-end metric left its bound or an op failed.
pub fn repeat(spec: &Spec, seed: u64, seconds: f64, out: &Path) -> Result<bool, String> {
    let first = run(spec, seed, seconds, out)?;
    let second = run(spec, seed, seconds, out)?;
    let mut ok = first.correct() && second.correct();

    println!("\n# Repeatability: two sets of runs of the same code");
    println!("\nseed {seed}, {seconds} s per run, {} cores.", cores());
    println!("\n## End-to-end metrics (gated)\n");
    println!("| workload | metric | first | second | worse by | bound | verdict |");
    println!("|---|---|---|---|---|---|---|");
    for workload in &spec.workloads {
        for decl in &spec.end_to_end {
            let key = (workload.clone(), decl.name.clone());
            let (a, b) = (first.values[&key], second.values[&key]);
            let worse = worse_by(decl, a, b);
            let (bound, held) = if exact(decl) {
                ("exact".to_string(), a == b)
            } else {
                let bound = decl.bound.expect("end-to-end metrics carry a bound");
                (format!("{:.1} %", bound * 100.0), worse <= bound)
            };
            ok &= held;
            println!(
                "| {workload} | {} ({}) | {a} | {b} | {:+.2} % | {bound} | {} |",
                decl.name,
                decl.unit,
                worse * 100.0,
                if held { "ok" } else { "OUTSIDE" }
            );
        }
    }
    println!("\n## Per-layer metrics (not gated)\n");
    println!("| workload | metric | first | second | change |");
    println!("|---|---|---|---|---|");
    for workload in &spec.workloads {
        for decl in &spec.per_layer {
            let key = (workload.clone(), decl.name.clone());
            let (a, b) = (first.values[&key], second.values[&key]);
            let change = if a == b {
                0.0
            } else {
                (b - a) / a.abs() * 100.0
            };
            println!(
                "| {workload} | {} ({}) | {a} | {b} | {change:+.1} % |",
                decl.name, decl.unit
            );
        }
    }
    println!(
        "\nverdict: {}",
        if ok {
            "within bounds"
        } else {
            "OUTSIDE BOUNDS"
        }
    );
    Ok(ok)
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decl(better: &str, unit: &str) -> MetricDecl {
        MetricDecl {
            name: "m".to_string(),
            unit: unit.to_string(),
            better: better.to_string(),
            bound: Some(0.1),
        }
    }

    #[test]
    fn worse_follows_the_metrics_direction() {
        assert!((worse_by(&decl("lower", "s"), 2.0, 2.2) - 0.1).abs() < 1e-12);
        assert!((worse_by(&decl("higher", "1/s"), 100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!(worse_by(&decl("higher", "1/s"), 100.0, 110.0) < 0.0);
        assert!(exact(&decl("lower", "count")) && exact(&decl("lower", "bytes")));
        assert!(!exact(&decl("lower", "s")));
    }
}
