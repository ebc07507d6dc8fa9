//! One run: set up `--workload` from `--seed`, measure for `--seconds`,
//! check the outputs, and report either the end-to-end metrics (untraced)
//! or the per-layer metrics (traced).

use std::path::Path;
use std::time::{Duration, Instant};

use sqm::obs::metrics::peak_rss_bytes;

use crate::probes;
use crate::spans::Tracer;
use crate::spec::{MetricDecl, Spec};
use crate::stats;
use crate::workloads::{self, Counts, Limit, RunLog, Sample, PHASES};

/// `setup_s` is the median of several set-ups: at least
/// `SETUP_REPEATS_MIN`, and more of a cheap one, until they add up to
/// `SETUP_BUDGET` or there are `SETUP_REPEATS_MAX`.
const SETUP_REPEATS_MIN: usize = 3;
const SETUP_REPEATS_MAX: usize = 10;
const SETUP_BUDGET: f64 = 0.5;

/// A traced run alternates untraced and traced slices of this length.
const TRACE_SLICE: Duration = Duration::from_millis(250);

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

pub struct RunReport {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Release samples behind the medians, for the human-readable lines.
    pub samples: usize,
}

impl RunReport {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line the driver reads: one JSON object.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn walls(samples: &[Sample], of: impl Fn(&Sample) -> Duration) -> Vec<f64> {
    samples.iter().map(|s| of(s).as_secs_f64()).collect()
}

/// Pair measured values with the declared names and units. A value
/// without a declaration, or a declaration without a value, is a bug in
/// the benchmark and ends the run.
fn declared(decls: &[MetricDecl], values: Vec<(String, f64)>) -> Result<Vec<Metric>, String> {
    if let Some((name, _)) = values
        .iter()
        .find(|(n, _)| decls.iter().all(|d| d.name != *n))
    {
        return Err(format!("metric {name:?} is not declared in BENCHMARK.json"));
    }
    decls
        .iter()
        .map(|d| {
            let (_, value) = values
                .iter()
                .find(|(n, _)| *n == d.name)
                .ok_or_else(|| format!("declared metric {:?} was not measured", d.name))?;
            if !value.is_finite() {
                return Err(format!("metric {:?} is not finite", d.name));
            }
            Ok(Metric {
                name: d.name.clone(),
                value: *value,
                unit: d.unit.clone(),
            })
        })
        .collect()
}

/// Everything end-to-end except `ok_share`, which waits for the
/// post-window checks.
fn end_to_end(
    log: &RunLog,
    counts: &Counts,
    clients: usize,
    setup_secs: f64,
    peak_rss_mib: f64,
) -> Vec<(String, f64)> {
    let simulated = walls(&log.samples, |s| s.simulated(counts.rounds));
    // A cycle holds one release, so each client completes one release per
    // median cycle. Releases ÷ window would read the same on a quiet box;
    // on this one a single stall of the VM moves it and not the median.
    let cycles: Vec<f64> = log.cycle_walls.iter().map(Duration::as_secs_f64).collect();
    [
        (
            "release_wall_s",
            stats::median(&walls(&log.samples, |s| s.wall)),
        ),
        ("release_simulated_s", stats::median(&simulated)),
        ("releases_per_s", clients as f64 / stats::median(&cycles)),
        ("release_rounds", counts.rounds as f64),
        ("release_messages", counts.messages as f64),
        ("release_bytes", counts.bytes as f64),
        ("setup_s", setup_secs),
        ("peak_rss_mib", peak_rss_mib),
    ]
    .into_iter()
    .map(|(n, v)| (n.to_string(), v))
    .collect()
}

/// The workload's own per-layer numbers, from the traced slices of the
/// window; `untraced_wall` is the median release wall of the other slices.
fn per_layer(log: &RunLog, counts: &Counts, untraced_wall: f64) -> Vec<(String, f64)> {
    let wall = stats::sorted(&walls(&log.samples, |s| s.wall));
    let release_wall = stats::quantile(&wall, 0.5);
    let mut out: Vec<(String, f64)> = Vec::new();
    for (i, phase) in PHASES.iter().enumerate() {
        let phase_walls = walls(&log.samples, |s| s.phases[i]);
        out.push((format!("vfl.phase.{phase}_s"), stats::median(&phase_walls)));
        if *phase != "quantize" {
            out.push((format!("vfl.bytes.{phase}"), counts.phase_bytes[i] as f64));
        }
    }
    // A release span's self time: what the caller waited for beyond the
    // phases the program accounts for.
    let tracer = log
        .tracer
        .as_ref()
        .expect("per-layer metrics come from a traced log");
    let unattributed: Vec<f64> = tracer
        .spans()
        .iter()
        .zip(tracer.self_times_ns())
        .filter(|(span, _)| span.parent.is_none())
        .map(|(_, self_ns)| self_ns as f64 / 1e9)
        .collect();
    let coverage: Vec<f64> = unattributed
        .iter()
        .zip(&log.samples)
        .map(|(own, s)| 1.0 - own / s.wall.as_secs_f64())
        .collect();
    let (tail_percentile, tail_wall) = stats::tail(&wall);
    out.extend(
        [
            ("vfl.unattributed_s", stats::median(&unattributed)),
            ("vfl.phase_coverage", stats::median(&coverage)),
            ("vfl.elems", counts.elems as f64),
            ("harness.release_wall_tail_s", tail_wall),
            ("harness.tail_percentile", tail_percentile),
            ("harness.release_wall_iqr_share", stats::iqr_share(&wall)),
            ("harness.samples", wall.len() as f64),
            (
                "harness.tracing_overhead_share",
                release_wall / untraced_wall - 1.0,
            ),
        ]
        .map(|(n, v)| (n.to_string(), v)),
    );
    out
}

pub fn run(
    spec: &Spec,
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    out_dir: &Path,
) -> Result<RunReport, String> {
    // Set-up, several times over; the last one is measured.
    let mut setups: Vec<f64> = Vec::new();
    let mut built = None;
    while setups.len() < SETUP_REPEATS_MIN
        || (setups.len() < SETUP_REPEATS_MAX && setups.iter().sum::<f64>() < SETUP_BUDGET)
    {
        drop(built.take());
        let start = Instant::now();
        let fresh = workloads::setup(workload, seed)
            .ok_or_else(|| format!("unknown workload {workload:?}"))?;
        setups.push(start.elapsed().as_secs_f64());
        built = Some(fresh);
    }
    let (mut workload_state, warmup) = built.expect("at least one set-up ran");
    let setup_secs = stats::median(&setups);

    let window = Duration::from_secs_f64(seconds);
    let (mut log, mut values) = if traced {
        // Untraced and traced slices alternate, so that drift over the
        // window hits both alike; the ratio of their medians is what the
        // harness's own span recording costs.
        let mut plain = RunLog::new(None);
        let mut log = RunLog::new(Some(Tracer::new()));
        let deadline = Instant::now() + window;
        while Instant::now() < deadline {
            for slice in [&mut plain, &mut log] {
                let until = (Instant::now() + TRACE_SLICE).min(deadline);
                workload_state.drive(Limit::Until(until), slice);
            }
        }
        let counts = log
            .counts
            .clone()
            .ok_or("no release completed in the traced slices")?;
        if plain.samples.is_empty() {
            return Err("no release completed in the untraced slices".to_string());
        }
        let untraced_wall = stats::median(&walls(&plain.samples, |s| s.wall));
        let values = per_layer(&log, &counts, untraced_wall);
        log.attempted += plain.attempted;
        log.failed += plain.failed;
        (log, values)
    } else {
        let mut log = RunLog::new(None);
        workload_state.drive(Limit::Until(Instant::now() + window), &mut log);
        // Memory is read here, before the post-window oracle replay: that
        // holds every ingested batch at once and would set the peak.
        let rss = peak_rss_bytes().ok_or("no VmHWM in /proc/self/status")? as f64;
        let counts = log
            .counts
            .clone()
            .ok_or("no release completed in the window")?;
        let values = end_to_end(
            &log,
            &counts,
            workload_state.clients(),
            setup_secs,
            rss / (1024.0 * 1024.0),
        );
        (log, values)
    };
    log.attempted += warmup.attempted;
    log.failed += warmup.failed;
    workload_state.verify(&mut log);
    drop(workload_state);

    if let Some(mut tracer) = log.tracer.take() {
        let probed = probes::run_all(seed, &mut tracer);
        values.extend(probed.into_iter().map(|(n, v)| (n.to_string(), v)));
        tracer
            .write(out_dir, workload)
            .map_err(|e| format!("writing the trace under {}: {e}", out_dir.display()))?;
    } else {
        let ok_share = 1.0 - log.failed as f64 / log.attempted as f64;
        values.push(("ok_share".to_string(), ok_share));
    }

    Ok(RunReport {
        attempted: log.attempted,
        failed: log.failed,
        metrics: declared(spec.metrics(traced), values)?,
        samples: log.samples.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decl(name: &str) -> MetricDecl {
        MetricDecl {
            name: name.to_string(),
            unit: "s".to_string(),
            better: "lower".to_string(),
            bound: None,
        }
    }

    #[test]
    fn undeclared_unmeasured_and_non_finite_metrics_end_the_run() {
        let decls = [decl("a"), decl("b")];
        let value = |n: &str, v: f64| (n.to_string(), v);
        let ok = declared(&decls, vec![value("b", 2.0), value("a", 1.0)]).expect("both declared");
        let names: Vec<&str> = ok.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["a", "b"], "reported in declaration order");
        assert!(declared(
            &decls,
            vec![value("a", 1.0), value("b", 2.0), value("c", 3.0)]
        )
        .is_err_and(|e| e.contains("\"c\" is not declared")));
        assert!(declared(&decls, vec![value("a", 1.0)]).is_err_and(|e| e.contains("\"b\" was not")));
        assert!(declared(&decls, vec![value("a", 1.0), value("b", f64::NAN)]).is_err());
    }

    /// A real, short run of each kind: what it prints is exactly what
    /// `BENCHMARK.json` declares, the traced one writes its spans, and an
    /// unknown workload is refused.
    #[test]
    fn a_run_reports_exactly_the_declared_metrics() {
        let spec = Spec::load();
        let out = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/out/test"));
        for traced in [false, true] {
            let report = run(&spec, "lr_train", 3, 0.6, traced, out).expect("the run completes");
            assert!(
                report.correct(),
                "{} of {} ops failed",
                report.failed,
                report.attempted
            );
            let printed: Vec<&String> = report.metrics.iter().map(|m| &m.name).collect();
            let declared: Vec<&String> = spec.metrics(traced).iter().map(|m| &m.name).collect();
            assert_eq!(printed, declared);
            let line = sqm::obs::json::parse(&report.to_json()).expect("the result line is JSON");
            let metrics = line
                .get("metrics")
                .and_then(|m| m.as_obj())
                .expect("metrics");
            assert_eq!(metrics.len(), declared.len());
            assert_eq!(line.get("correct").and_then(|c| c.as_bool()), Some(true));
        }
        let trace = std::fs::read_to_string(out.join("trace-lr_train.json")).expect("trace file");
        let trace = sqm::obs::json::parse(&trace).expect("the trace is JSON");
        let spans = trace.get("spans").and_then(|s| s.as_arr()).expect("spans");
        assert!(spans
            .iter()
            .any(|s| s.get("name").and_then(|n| n.as_str()) == Some("probes")));
        assert!(run(&spec, "no_such_workload", 3, 0.6, false, out).is_err());
    }
}
