//! Bench-median history: an append-only JSONL trend log next to the
//! `BENCH_*.json` artifacts.
//!
//! `sqm-perf --append-history` appends one line per run to
//! `results/perf/history.jsonl`; each line is a self-describing,
//! schema-versioned record of every entry's median. The file is rewritten
//! atomically on append (read + rewrite via temp-file rename), so a
//! crashed run never truncates the trend. With two or more points on
//! record, [`trends_html`] renders a per-entry sparkline section the
//! `sqm-perf --report` HTML embeds — the "did this drift over the last N
//! runs" view the single-baseline gate cannot give.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use crate::perf::BenchArtifact;
use sqm::obs::json::{self, JsonValue};

/// Version of the history-line schema; bump on any field change so old
/// readers can skip lines they do not understand.
pub const HISTORY_SCHEMA_VERSION: u64 = 1;

/// One appended run: every suite entry's median, keyed `suite/entry`.
#[derive(Clone, Debug, PartialEq)]
pub struct HistoryPoint {
    pub created_unix_s: u64,
    pub commit: String,
    /// `"<suite>/<entry>" -> median_ns`, key-sorted for determinism.
    pub medians: BTreeMap<String, u64>,
}

impl HistoryPoint {
    /// Collapse one run's artifacts into a history point.
    pub fn from_artifacts(artifacts: &[BenchArtifact]) -> HistoryPoint {
        let mut medians = BTreeMap::new();
        for artifact in artifacts {
            for entry in &artifact.entries {
                medians.insert(
                    format!("{}/{}", artifact.suite, entry.name),
                    entry.median_ns,
                );
            }
        }
        HistoryPoint {
            created_unix_s: artifacts.first().map_or(0, |a| a.created_unix_s),
            commit: artifacts
                .first()
                .map_or_else(|| "unknown".to_string(), |a| a.commit.clone()),
            medians,
        }
    }

    /// Render as one JSONL line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut out = format!(
            "{{\"schema_version\":{HISTORY_SCHEMA_VERSION},\"created_unix_s\":{},\"commit\":{},\"medians\":{{",
            self.created_unix_s,
            json_string(&self.commit),
        );
        for (i, (name, median)) in self.medians.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json_string(name));
            out.push(':');
            out.push_str(&median.to_string());
        }
        out.push_str("}}");
        out
    }

    fn from_json(doc: &JsonValue) -> Option<HistoryPoint> {
        if doc.get("schema_version")?.as_u64()? != HISTORY_SCHEMA_VERSION {
            return None;
        }
        let mut medians = BTreeMap::new();
        for (key, value) in doc.get("medians")?.as_obj()? {
            medians.insert(key.clone(), value.as_u64()?);
        }
        Some(HistoryPoint {
            created_unix_s: doc.get("created_unix_s")?.as_u64()?,
            commit: doc.get("commit")?.as_str()?.to_string(),
            medians,
        })
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Load every parseable history point, oldest first. A missing file is an
/// empty history; malformed or wrong-schema lines are skipped (the log
/// outlives schema bumps).
pub fn load(path: &Path) -> Vec<HistoryPoint> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .filter_map(|l| json::parse(l).ok())
        .filter_map(|doc| HistoryPoint::from_json(&doc))
        .collect()
}

/// Append one run to the history at `path` (atomic rewrite); returns the
/// number of points now on record.
pub fn append(path: &Path, artifacts: &[BenchArtifact]) -> io::Result<usize> {
    let mut points = load(path);
    points.push(HistoryPoint::from_artifacts(artifacts));
    let mut body = String::new();
    for p in &points {
        body.push_str(&p.to_json_line());
        body.push('\n');
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    sqm::obs::atomic_write_str(path, &body)?;
    Ok(points.len())
}

/// A tiny inline-SVG sparkline of the series (oldest left). Deterministic:
/// geometry only depends on the values.
pub fn sparkline_svg(values: &[u64]) -> String {
    let (w, h, pad) = (120.0f64, 24.0f64, 2.0f64);
    let lo = values.iter().copied().min().unwrap_or(0) as f64;
    let hi = values.iter().copied().max().unwrap_or(0) as f64;
    let span = if hi > lo { hi - lo } else { 1.0 };
    let step = if values.len() > 1 {
        (w - 2.0 * pad) / (values.len() - 1) as f64
    } else {
        0.0
    };
    let points: Vec<String> = values
        .iter()
        .enumerate()
        .map(|(i, &v)| {
            let x = pad + i as f64 * step;
            let y = h - pad - (v as f64 - lo) / span * (h - 2.0 * pad);
            format!("{x:.1},{y:.1}")
        })
        .collect();
    format!(
        "<svg class=\"spark\" width=\"120\" height=\"24\" viewBox=\"0 0 120 24\" \
         role=\"img\" aria-label=\"median trend\">\
         <polyline fill=\"none\" stroke=\"#4a7db8\" stroke-width=\"1.5\" points=\"{}\"/>\
         </svg>",
        points.join(" ")
    )
}

/// The per-entry trend section for the HTML report: one row per entry with
/// its median history as a sparkline. Empty unless at least two points are
/// on record (one point has no trend).
pub fn trends_html(points: &[HistoryPoint]) -> String {
    if points.len() < 2 {
        return String::new();
    }
    // Union of entry names across history, so renamed workloads keep their
    // old rows visible.
    let mut names: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    for p in points {
        for name in p.medians.keys() {
            names.entry(name).or_default();
        }
    }
    for (name, series) in names.iter_mut() {
        for p in points {
            if let Some(&v) = p.medians.get(*name) {
                series.push(v);
            }
        }
    }
    let mut out = String::from(
        "<section id=\"bench-trends\"><h2>Bench median trends</h2>\
         <table><thead><tr><th>entry</th><th>latest median</th>\
         <th>runs</th><th>trend</th></tr></thead><tbody>",
    );
    for (name, series) in &names {
        if series.is_empty() {
            continue;
        }
        let latest = *series.last().unwrap();
        out.push_str(&format!(
            "<tr><td>{name}</td><td>{:.3} ms</td><td>{}</td><td>{}</td></tr>",
            latest as f64 / 1e6,
            series.len(),
            sparkline_svg(series),
        ));
    }
    out.push_str("</tbody></table></section>");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::{measure, RunCost, Tier};

    fn toy_artifacts(median_hint: u64) -> Vec<BenchArtifact> {
        // measure() gives real (machine-dependent) medians; for schema
        // tests we only need structure, so build via the public measure
        // path and ignore the actual numbers except through the hint name.
        let entry = measure(&format!("toy_{median_hint}"), Tier::Small, || {
            RunCost::default()
        });
        vec![BenchArtifact {
            schema_version: crate::perf::SCHEMA_VERSION,
            suite: "unit".to_string(),
            tier: "small".to_string(),
            commit: "deadbeef".to_string(),
            created_unix_s: 1000 + median_hint,
            peak_rss_bytes: 0,
            entries: vec![entry],
        }]
    }

    #[test]
    fn append_accumulates_and_roundtrips() {
        let dir = std::env::temp_dir().join(format!("sqm-hist-{}", std::process::id()));
        let path = dir.join("history.jsonl");
        let _ = std::fs::remove_file(&path);
        assert_eq!(append(&path, &toy_artifacts(1)).unwrap(), 1);
        assert_eq!(append(&path, &toy_artifacts(2)).unwrap(), 2);
        let points = load(&path);
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].commit, "deadbeef");
        assert_eq!(points[0].created_unix_s, 1001);
        assert!(points[0].medians.contains_key("unit/toy_1"));
        assert!(points[1].medians.contains_key("unit/toy_2"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn wrong_schema_lines_are_skipped_not_fatal() {
        let dir = std::env::temp_dir().join(format!("sqm-hist-skip-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("history.jsonl");
        let good = HistoryPoint {
            created_unix_s: 5,
            commit: "c".to_string(),
            medians: BTreeMap::from([("s/e".to_string(), 42u64)]),
        };
        std::fs::write(
            &path,
            format!(
                "{{\"schema_version\":99}}\nnot json\n{}\n",
                good.to_json_line()
            ),
        )
        .unwrap();
        let points = load(&path);
        assert_eq!(points.len(), 1);
        assert_eq!(points[0], good);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn trends_need_two_points_and_render_sparklines() {
        let one = vec![HistoryPoint {
            created_unix_s: 1,
            commit: "a".to_string(),
            medians: BTreeMap::from([("s/e".to_string(), 10u64)]),
        }];
        assert_eq!(trends_html(&one), "");
        let mut two = one.clone();
        two.push(HistoryPoint {
            created_unix_s: 2,
            commit: "b".to_string(),
            medians: BTreeMap::from([("s/e".to_string(), 20u64)]),
        });
        let html = trends_html(&two);
        assert!(html.contains("bench-trends"));
        assert!(html.contains("s/e"));
        assert!(html.contains("<svg"));
        assert!(html.contains("polyline"));
        // Deterministic: same inputs, same bytes.
        assert_eq!(html, trends_html(&two));
        // Self-contained: no external references.
        assert!(!html.contains("http://"));
        assert!(!html.contains("https://"));
    }

    #[test]
    fn history_line_is_valid_json_with_sorted_keys() {
        let p = HistoryPoint {
            created_unix_s: 9,
            commit: "x\"y".to_string(),
            medians: BTreeMap::from([("b/later".to_string(), 2u64), ("a/first".to_string(), 1u64)]),
        };
        let line = p.to_json_line();
        let doc = json::parse(&line).unwrap();
        assert_eq!(doc.get("schema_version").unwrap().as_u64(), Some(1));
        assert_eq!(doc.get("commit").unwrap().as_str(), Some("x\"y"));
        assert!(line.find("a/first").unwrap() < line.find("b/later").unwrap());
        assert_eq!(HistoryPoint::from_json(&doc), Some(p));
    }
}
