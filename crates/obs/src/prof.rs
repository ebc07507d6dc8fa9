//! Deterministic hierarchical cost profiler.
//!
//! `RunStats` says *how much* a run cost per phase; this module says
//! *where* inside a phase the cost lives: which circuit layers, gate
//! kinds, degree reductions, field-op bulks, and sampler draws. Paths are
//! `;`-separated frames (`engine;compute;reduce_degree;field_mul`), the
//! same collapsed-stack convention flamegraph tooling consumes, and every
//! aggregate is keyed in a `BTreeMap` so rendering is byte-deterministic.
//!
//! A [`Profiler`] is a value: the embedder creates one, hands the `Arc` to
//! every run it wants attributed (`MpcConfig::with_prof`) and reads it back
//! with [`Profiler::snapshot`] / [`Profiler::dump`]. A run whose config
//! carries no profiler records nothing, into nothing. Aggregates accumulate
//! across the runs that share a handle, so multi-run workloads profile
//! cumulatively; two profilers never see each other's runs.
//!
//! Two disciplines are load-bearing:
//!
//! * **Passive**: hooks only *observe* — they never touch an engine RNG,
//!   mutate stats, or change message contents, so protocol bits and
//!   `RunStats` are identical with a profiler attached or not, and an
//!   unprofiled run evaluates no path string at all.
//! * **Deterministic artifacts**: wall time is collected (for interactive
//!   attribution summaries) but never written to the folded, JSON, or
//!   flamegraph artifacts — those carry structure and deterministic
//!   counters only, so two same-seed runs dump byte-identical files
//!   (flight-recorder discipline).

use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::export::atomic_write_str;

/// Where a [`Profiler`] dumps its artifacts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProfConfig {
    /// Directory the deterministic artifacts (`prof_<seed>.json`,
    /// `prof_<seed>.folded`, `prof_<seed>.html`) are dumped into.
    pub dir: PathBuf,
}

impl Default for ProfConfig {
    fn default() -> Self {
        ProfConfig {
            dir: PathBuf::from("results"),
        }
    }
}

impl ProfConfig {
    pub fn with_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.dir = dir.into();
        self
    }
}

/// One profile tree node's aggregate counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NodeAgg {
    /// Times this path was recorded.
    pub calls: u64,
    /// Deterministic work units (elements, op counts, bytes — whatever the
    /// recording site attributes). This is the folded/flamegraph weight;
    /// nodes recorded with zero work weigh their call count instead.
    pub work: u64,
    /// Messages sent (exchange-round nodes only).
    pub messages: u64,
    /// Payload bytes sent (exchange-round nodes only).
    pub bytes: u64,
    /// Measured wall time. Kept in memory for attribution summaries,
    /// **never** written to the deterministic artifacts.
    pub wall_ns: u64,
}

impl NodeAgg {
    /// The deterministic weight used by the folded and flamegraph
    /// renderers.
    pub fn weight(&self) -> u64 {
        if self.work > 0 {
            self.work
        } else {
            self.calls
        }
    }
}

/// A point-in-time copy of the profile tree.
#[derive(Clone, Debug, Default)]
pub struct ProfSnapshot {
    /// Seed of the most recent run profiled (names the artifact files).
    pub seed: u64,
    /// Artifact directory.
    pub dir: PathBuf,
    /// All recorded paths, key-sorted.
    pub nodes: BTreeMap<String, NodeAgg>,
}

/// The profile tree the runs sharing this handle record into.
#[derive(Debug)]
pub struct Profiler {
    state: Mutex<ProfSnapshot>,
}

impl Profiler {
    pub fn new(config: ProfConfig) -> Arc<Profiler> {
        Arc::new(Profiler {
            state: Mutex::new(ProfSnapshot {
                dir: config.dir,
                ..ProfSnapshot::default()
            }),
        })
    }

    fn lock(&self) -> MutexGuard<'_, ProfSnapshot> {
        // A party thread panicking mid-record must not lose the profile
        // (same recovery as the metrics registry): every update leaves the
        // tree valid.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A run under `seed` starts recording here: the most recent run's seed
    /// names the dump artifacts.
    pub fn begin_run(&self, seed: u64) {
        self.lock().seed = seed;
    }

    /// Record `calls` invocations carrying `work` deterministic work units
    /// against `path`.
    pub fn record(&self, path: &str, calls: u64, work: u64) {
        let mut state = self.lock();
        let node = state.nodes.entry(path.to_string()).or_default();
        node.calls += calls;
        node.work += work;
    }

    /// Record one exchange round against `path`: traffic counters are
    /// deterministic (and double as the node's weight); `wall_ns` is kept
    /// for in-memory summaries only.
    pub fn record_round(&self, path: &str, messages: u64, bytes: u64, wall_ns: u64) {
        let mut state = self.lock();
        let node = state.nodes.entry(path.to_string()).or_default();
        node.calls += 1;
        node.work += bytes;
        node.messages += messages;
        node.bytes += bytes;
        node.wall_ns += wall_ns;
    }

    /// Copy out the current profile tree.
    pub fn snapshot(&self) -> ProfSnapshot {
        self.lock().clone()
    }

    /// Write the three deterministic artifacts (`prof_<seed>.folded`,
    /// `prof_<seed>.json`, `prof_<seed>.html`) into the configured dir and
    /// return their paths. No-op (empty vec) while the profile holds no
    /// data.
    pub fn dump(&self) -> io::Result<Vec<PathBuf>> {
        let snap = self.snapshot();
        if snap.nodes.is_empty() {
            return Ok(Vec::new());
        }
        std::fs::create_dir_all(&snap.dir)?;
        let stem = format!("prof_{}", snap.seed);
        let folded = snap.dir.join(format!("{stem}.folded"));
        let json = snap.dir.join(format!("{stem}.json"));
        let html = snap.dir.join(format!("{stem}.html"));
        atomic_write_str(&folded, &render_folded(&snap))?;
        atomic_write_str(&json, &render_json(&snap))?;
        atomic_write_str(
            &html,
            &crate::export::flamegraph_html("SQM cost profile", &snap),
        )?;
        Ok(vec![folded, json, html])
    }
}

/// Render the collapsed-stack folded format (`path weight` per line,
/// key-sorted — byte-deterministic for a given counter state; wall time
/// never appears).
pub fn render_folded(snap: &ProfSnapshot) -> String {
    let mut out = String::with_capacity(64 * snap.nodes.len());
    for (path, node) in &snap.nodes {
        out.push_str(path);
        out.push(' ');
        out.push_str(&node.weight().to_string());
        out.push('\n');
    }
    out
}

/// Render the deterministic JSON artifact: schema version, seed, the full
/// node table (calls/work/messages/bytes — **no wall time**). Key-sorted,
/// byte-deterministic.
pub fn render_json(snap: &ProfSnapshot) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\"schema_version\":1,\"seed\":");
    out.push_str(&snap.seed.to_string());
    out.push_str(",\"nodes\":[");
    for (i, (path, node)) in snap.nodes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"path\":");
        serde::json::write_str(&mut out, path);
        out.push_str(&format!(
            ",\"calls\":{},\"work\":{},\"messages\":{},\"bytes\":{}}}",
            node.calls, node.work, node.messages, node.bytes
        ));
    }
    out.push_str("]}\n");
    out
}

// ---------------------------------------------------------------------------
// Flamegraph SVG
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Frame {
    self_weight: u64,
    children: BTreeMap<String, Frame>,
}

impl Frame {
    fn subtotal(&self) -> u64 {
        self.self_weight + self.children.values().map(Frame::subtotal).sum::<u64>()
    }

    fn depth(&self) -> usize {
        1 + self.children.values().map(Frame::depth).max().unwrap_or(0)
    }
}

fn build_tree(snap: &ProfSnapshot) -> Frame {
    let mut root = Frame::default();
    for (path, node) in &snap.nodes {
        let mut cur = &mut root;
        for frame in path.split(';') {
            cur = cur.children.entry(frame.to_string()).or_default();
        }
        cur.self_weight += node.weight();
    }
    root
}

fn xml_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&#39;"),
            _ => out.push(c),
        }
    }
    out
}

/// Render the profile tree as a self-contained inline SVG flamegraph
/// (no scripts, no external references; deterministic layout and colors).
pub fn render_flamegraph_svg(snap: &ProfSnapshot) -> String {
    const W: f64 = 960.0;
    const ROW: f64 = 18.0;
    let root = build_tree(snap);
    let total = root.subtotal();
    let depth = root.depth().saturating_sub(1).max(1);
    let height = depth as f64 * ROW + 4.0;
    let mut out = String::with_capacity(16 * 1024);
    out.push_str(&format!(
        "<svg width=\"{W}\" height=\"{height}\" viewBox=\"0 0 {W} {height}\" \
         font-family=\"monospace\" font-size=\"11\">\n"
    ));
    if total == 0 {
        out.push_str("<text x=\"4\" y=\"14\">(empty profile)</text>\n</svg>\n");
        return out;
    }
    let scale = W / total as f64;
    // Deterministic DFS in key order; x advances by subtree weight.
    fn emit(
        name: &str,
        path: &str,
        frame: &Frame,
        x: f64,
        level: usize,
        scale: f64,
        out: &mut String,
    ) {
        let sub = frame.subtotal();
        let w = sub as f64 * scale;
        if w >= 0.5 {
            let y = level as f64 * 18.0 + 2.0;
            let color = crate::export::phase_color(name);
            out.push_str(&format!(
                "<g><title>{} ({sub})</title>\
                 <rect x=\"{x:.2}\" y=\"{y:.1}\" width=\"{w:.2}\" height=\"16\" \
                 fill=\"{color}\" stroke=\"#fff\" stroke-width=\"0.5\"/>",
                xml_escape(path)
            ));
            let max_chars = (w / 7.0) as usize;
            if max_chars >= 3 {
                let label: String = name.chars().take(max_chars).collect();
                out.push_str(&format!(
                    "<text x=\"{:.2}\" y=\"{:.1}\" fill=\"#fff\">{}</text>",
                    x + 2.0,
                    y + 12.0,
                    xml_escape(&label)
                ));
            }
            out.push_str("</g>\n");
        }
        let mut cx = x;
        for (child_name, child) in &frame.children {
            let child_path = format!("{path};{child_name}");
            emit(child_name, &child_path, child, cx, level + 1, scale, out);
            cx += child.subtotal() as f64 * scale;
        }
    }
    let mut x = 0.0;
    for (name, frame) in &root.children {
        emit(name, name, frame, x, 0, scale, &mut out);
        x += frame.subtotal() as f64 * scale;
    }
    out.push_str("</svg>\n");
    out
}

/// Render a human-readable attribution summary (top `limit` nodes by
/// weight) for stdout. Includes wall time, so this is for interactive use
/// only — never an artifact.
pub fn render_summary(snap: &ProfSnapshot, limit: usize) -> String {
    let mut rows: Vec<(&String, &NodeAgg)> = snap.nodes.iter().collect();
    rows.sort_by(|a, b| b.1.weight().cmp(&a.1.weight()).then(a.0.cmp(b.0)));
    let mut out = String::new();
    for (path, node) in rows.into_iter().take(limit) {
        out.push_str(&format!(
            "  {:>12} work  {:>8} calls  {:>10} msgs  {:>12} B  {:>9.3} ms  {path}\n",
            node.work,
            node.calls,
            node.messages,
            node.bytes,
            node.wall_ns as f64 / 1e6,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profiler(seed: u64) -> Arc<Profiler> {
        let prof = Profiler::new(ProfConfig::default());
        prof.begin_run(seed);
        prof
    }

    #[test]
    fn records_only_when_active_and_renders_deterministically() {
        // "Active" is holding the handle: a profiler nobody recorded into
        // stays empty whatever another one sees.
        let idle = profiler(7);
        let run = |prof: &Profiler, wall: u64| {
            prof.record("engine;compute;reduce_degree;field_mul", 1, 4000);
            prof.record("engine;compute;reduce_degree", 1, 50);
            prof.record_round("engine;input;exchange", 12, 960, wall);
            prof.record_round("engine;input;exchange", 12, 960, 9999);
        };
        let (first, second) = (profiler(7), profiler(7));
        run(&first, 1234);
        run(&second, 4321);
        assert!(idle.snapshot().nodes.is_empty(), "unattached must no-op");
        let (first, second) = (first.snapshot(), second.snapshot());
        let (folded1, json1) = (render_folded(&first), render_json(&first));
        // Byte-identical across two identical runs even though wall time
        // differed (1234 vs 4321 on the first round).
        assert_eq!(folded1, render_folded(&second));
        assert_eq!(json1, render_json(&second));
        // Wall never leaks into the deterministic artifacts.
        assert!(!json1.contains("wall"));
        assert!(!folded1.contains("1234") && !folded1.contains("9999"));
        // Folded lines are key-sorted `path weight`.
        assert_eq!(
            folded1,
            "engine;compute;reduce_degree 50\n\
             engine;compute;reduce_degree;field_mul 4000\n\
             engine;input;exchange 1920\n"
        );
        assert!(json1.contains("\"messages\":24"));
        assert!(json1.ends_with("\"bytes\":1920}]}\n"), "{json1}");
    }

    #[test]
    fn flamegraph_is_self_contained_and_weighted() {
        let prof = profiler(9);
        prof.record("engine;compute;reduce_degree;field_mul", 1, 900);
        prof.record("engine;open;exchange", 1, 100);
        let svg = render_flamegraph_svg(&prof.snapshot());
        for banned in ["<script", "<link", "http://", "https://"] {
            assert!(
                !svg.contains(banned),
                "flamegraph must not contain {banned}"
            );
        }
        assert!(svg.contains("<svg"));
        // The heavier subtree gets the (proportionally) wider rect: the
        // engine root frame spans the full width, compute 90% of it.
        assert!(svg.contains("reduce_degree;field_mul (900)"));
        assert!(svg.contains("width=\"864.00\""), "{svg}");
        // Hostile frame names are escaped.
        prof.record("engine;<b>evil</b>;x", 1, 5);
        let svg = render_flamegraph_svg(&prof.snapshot());
        assert!(!svg.contains("<b>evil</b>"));
        assert!(svg.contains("&lt;b&gt;evil&lt;/b&gt;"));
    }

    #[test]
    fn dump_writes_three_deterministic_artifacts() {
        let dir = std::env::temp_dir().join(format!("sqm_prof_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let collect = |wall: u64| {
            let prof = Profiler::new(ProfConfig::default().with_dir(&dir));
            assert!(prof.dump().unwrap().is_empty(), "nothing recorded yet");
            prof.begin_run(21);
            prof.record("vfl;dp_noise;skellam_draw", 1, 1830);
            prof.record_round("engine;open;exchange", 6, 480, wall);
            prof.dump().unwrap()
        };
        assert_eq!(collect(555).len(), 3);
        let folded = std::fs::read_to_string(dir.join("prof_21.folded")).unwrap();
        assert!(folded.contains("vfl;dp_noise;skellam_draw 1830"));
        let json = std::fs::read_to_string(dir.join("prof_21.json")).unwrap();
        assert!(json.contains("\"seed\":21"));
        let html = std::fs::read_to_string(dir.join("prof_21.html")).unwrap();
        assert!(html.contains("<svg") && !html.contains("<script"));
        // Re-dump after identical re-collection is byte-identical.
        collect(777);
        assert_eq!(
            folded,
            std::fs::read_to_string(dir.join("prof_21.folded")).unwrap()
        );
        assert_eq!(
            json,
            std::fs::read_to_string(dir.join("prof_21.json")).unwrap()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
