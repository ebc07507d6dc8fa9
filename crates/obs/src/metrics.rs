//! A process-wide metrics registry: counters, gauges, histograms.
//!
//! Producers (`sqm-mpc`, `sqm-vfl`, `sqm-tasks`, experiment binaries) call
//! the free functions unconditionally; when the registry is disabled —
//! the default — each call is a single relaxed atomic load and an immediate
//! return, cheap enough to leave in the engine's per-round path without
//! perturbing benchmarks. Enabling is explicit ([`set_enabled`]), done by
//! the experiment harness when `--trace` / `SQM_TRACE=1` is set.
//!
//! Names are dotted strings (`"mpc.rounds"`, `"eigen.sweeps"`); the
//! registry is flat and allocation happens only on first use of a name.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

use serde::Serialize;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Histograms keep at most this many raw samples per name; count/sum/min/
/// max keep exact track beyond it (quantiles then come from the prefix).
const HISTOGRAM_CAP: usize = 1 << 16;

#[derive(Default)]
struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

#[derive(Default)]
struct Histogram {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    samples: Vec<f64>,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Registry::default()))
}

/// Lock the registry, recovering from poisoning instead of propagating the
/// panic: a producer thread that died mid-record leaves data that is at
/// worst missing one observation, which is strictly better for an
/// observability registry than taking every later recorder down with it.
/// Each recovery is counted under `obs.metrics.poisoned` (incremented
/// directly on the recovered guard — re-entering the lock here would
/// recurse).
fn lock_registry() -> MutexGuard<'static, Registry> {
    match registry().lock() {
        Ok(guard) => guard,
        Err(poisoned) => {
            let mut guard = poisoned.into_inner();
            *guard
                .counters
                .entry("obs.metrics.poisoned".to_string())
                .or_insert(0) += 1;
            guard
        }
    }
}

/// Turn recording on or off (off by default).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Is the registry currently recording?
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Add `delta` to the counter `name`.
pub fn counter_add(name: &str, delta: u64) {
    if !is_enabled() {
        return;
    }
    let mut reg = lock_registry();
    match reg.counters.get_mut(name) {
        Some(v) => *v += delta,
        None => {
            reg.counters.insert(name.to_string(), delta);
        }
    }
}

/// Set the gauge `name` to `value` (last write wins).
pub fn gauge_set(name: &str, value: f64) {
    if !is_enabled() {
        return;
    }
    lock_registry().gauges.insert(name.to_string(), value);
}

/// Record one observation into the histogram `name`. Non-finite values
/// (NaN, ±∞) cannot be ranked into quantiles; they are discarded and
/// counted under `obs.metrics.non_finite_dropped` instead of poisoning the
/// summary.
pub fn histogram_record(name: &str, value: f64) {
    if !is_enabled() {
        return;
    }
    if !value.is_finite() {
        counter_add("obs.metrics.non_finite_dropped", 1);
        return;
    }
    let mut reg = lock_registry();
    let h = reg.histograms.entry(name.to_string()).or_default();
    if h.count == 0 {
        h.min = value;
        h.max = value;
    } else {
        h.min = h.min.min(value);
        h.max = h.max.max(value);
    }
    h.count += 1;
    h.sum += value;
    if h.samples.len() < HISTOGRAM_CAP {
        h.samples.push(value);
    }
}

/// Drop every recorded value (the enabled flag is left unchanged).
pub fn reset() {
    let mut reg = lock_registry();
    *reg = Registry::default();
}

/// Aggregated view of one histogram.
///
/// `count`/`sum`/`min`/`max`/`mean` are exact over every recorded
/// observation. Quantiles are computed from the first [`HISTOGRAM_CAP`]
/// raw samples; when observations beyond the cap were discarded,
/// `samples_dropped` reports how many, so a consumer can see that the
/// quantiles cover a prefix rather than silently trusting a biased p95.
#[derive(Clone, Debug, Default, Serialize)]
pub struct HistogramSummary {
    pub count: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
    pub mean: f64,
    pub p50: f64,
    pub p90: f64,
    pub p95: f64,
    pub p99: f64,
    /// Observations not retained as raw samples (quantiles are estimated
    /// from the retained prefix when this is non-zero).
    pub samples_dropped: u64,
}

/// The canonical nearest-rank quantile index used repo-wide
/// (`serve::loadgen` p99, the live aggregator, and this registry's
/// summaries all agree): `round((len - 1) * p)` into an ascending-sorted
/// sample slice. Returns 0 for an empty slice so callers can guard on
/// emptiness themselves.
pub fn nearest_rank_index(len: usize, p: f64) -> usize {
    if len == 0 {
        return 0;
    }
    (((len - 1) as f64) * p).round() as usize
}

/// Summarize one histogram. An empty histogram (possible when a consumer
/// pre-registers a name, or when every observation was non-finite) yields
/// an all-zero summary — never NaN, which would serialize as `null` and
/// break downstream arithmetic.
fn summarize(h: &Histogram) -> HistogramSummary {
    if h.count == 0 {
        return HistogramSummary::default();
    }
    let mut sorted = h.samples.clone();
    sorted.sort_by(f64::total_cmp);
    let q = |p: f64| -> f64 {
        if sorted.is_empty() {
            return 0.0;
        }
        sorted[nearest_rank_index(sorted.len(), p)]
    };
    HistogramSummary {
        count: h.count,
        sum: h.sum,
        min: h.min,
        max: h.max,
        mean: h.sum / h.count as f64,
        p50: q(0.50),
        p90: q(0.90),
        p95: q(0.95),
        p99: q(0.99),
        samples_dropped: h.count - h.samples.len() as u64,
    }
}

/// A point-in-time copy of the whole registry, ready for JSON export.
#[derive(Clone, Debug, Default, Serialize)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, f64>,
    pub histograms: BTreeMap<String, HistogramSummary>,
}

/// Snapshot the registry (whether or not it is enabled).
pub fn snapshot() -> MetricsSnapshot {
    let reg = lock_registry();
    let histograms = reg
        .histograms
        .iter()
        .map(|(name, h)| (name.clone(), summarize(h)))
        .collect();
    MetricsSnapshot {
        counters: reg.counters.clone(),
        gauges: reg.gauges.clone(),
        histograms,
    }
}

/// Peak resident-set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`). `None` on platforms without procfs — callers
/// should treat that as "unknown", not zero.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    // One sequential test: the registry is process-global, so exercising it
    // from several parallel #[test]s would interleave.
    #[test]
    fn disabled_is_noop_enabled_records() {
        reset();
        assert!(!is_enabled());
        counter_add("t.c", 5);
        gauge_set("t.g", 1.0);
        histogram_record("t.h", 1.0);
        let snap = snapshot();
        assert!(snap.counters.is_empty() && snap.gauges.is_empty());

        set_enabled(true);
        counter_add("t.c", 5);
        counter_add("t.c", 2);
        gauge_set("t.g", 1.5);
        gauge_set("t.g", 2.5);
        for v in 0..100 {
            histogram_record("t.h", v as f64);
        }
        set_enabled(false);
        counter_add("t.c", 100); // ignored again

        let snap = snapshot();
        assert_eq!(snap.counters["t.c"], 7);
        assert_eq!(snap.gauges["t.g"], 2.5);
        let h = &snap.histograms["t.h"];
        assert_eq!(h.count, 100);
        assert_eq!(h.min, 0.0);
        assert_eq!(h.max, 99.0);
        assert!((h.mean - 49.5).abs() < 1e-9);
        assert!((h.p50 - 50.0).abs() <= 1.0);
        assert!(h.p99 >= 97.0);

        // JSON export round-trips through the serializer without panicking.
        let json = snap.to_json();
        assert!(json.contains("\"t.c\":7"));

        reset();
        assert!(snapshot().counters.is_empty());

        // --- histogram edge cases (same test fn: registry is global) ---

        // Empty histogram: all-zero summary, no NaN, no panic.
        let empty = summarize(&Histogram::default());
        assert_eq!(empty.count, 0);
        assert_eq!(empty.p95, 0.0);
        assert!(!empty.mean.is_nan() && !empty.p50.is_nan());
        assert_eq!(empty.samples_dropped, 0);

        // Non-finite observations are dropped and counted, not stored.
        set_enabled(true);
        histogram_record("t.nan", f64::NAN);
        histogram_record("t.nan", f64::INFINITY);
        histogram_record("t.nan", 1.0);
        let snap = snapshot();
        assert_eq!(snap.counters["obs.metrics.non_finite_dropped"], 2);
        assert_eq!(snap.histograms["t.nan"].count, 1);
        assert_eq!(snap.histograms["t.nan"].p99, 1.0);

        // Over-cap: count/sum/min/max stay exact, samples_dropped reports
        // how many observations the quantiles do not cover.
        reset();
        let n = HISTOGRAM_CAP as u64 + 100;
        for v in 0..n {
            histogram_record("t.big", v as f64);
        }
        let snap = snapshot();
        let h = &snap.histograms["t.big"];
        assert_eq!(h.count, n);
        assert_eq!(h.max, (n - 1) as f64);
        assert_eq!(h.samples_dropped, 100);
        // p95 is computed over the retained prefix only; the summary says so.
        assert!(h.p95 <= HISTOGRAM_CAP as f64);

        set_enabled(false);
        reset();

        // --- poisoning recovery (keep last: the mutex stays poisoned) ---
        set_enabled(true);
        // A thread dies holding the guard. `resume_unwind` runs no panic
        // hook, so the process-wide hook is left alone and a genuine
        // failure in a test running beside this one still prints.
        let poisoner = std::thread::spawn(|| {
            let _guard = registry().lock().unwrap();
            std::panic::resume_unwind(Box::new(()));
        });
        assert!(poisoner.join().is_err());
        // Every later lock recovers the inner state instead of panicking,
        // and each recovery is visible in the poison counter.
        counter_add("t.after_poison", 1);
        let snap = snapshot();
        assert_eq!(snap.counters["t.after_poison"], 1);
        assert!(snap.counters["obs.metrics.poisoned"] >= 1);
        set_enabled(false);
    }

    #[test]
    fn peak_rss_is_plausible_on_linux() {
        if let Some(rss) = peak_rss_bytes() {
            // A running test binary occupies at least a page and (sanity)
            // less than a terabyte.
            assert!(rss > 4096, "peak RSS {rss} implausibly small");
            assert!(rss < (1u64 << 40), "peak RSS {rss} implausibly large");
        }
    }
}
