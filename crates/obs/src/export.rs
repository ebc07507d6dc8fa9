//! Trace exporters: JSONL event logs and Chrome trace-event JSON.
//!
//! Both exports put events on the **simulated** timeline (wall time plus
//! `latency` per round), matching what `RunStats` reports — so a Perfetto
//! view of a Table II run shows 0.1 s network gaps even though the run
//! finished in milliseconds of real time.
//!
//! * JSONL: one self-describing JSON object per line (`"type"` is
//!   `"meta"`, `"span"`, `"round"` or `"net"`; a `"round"` line carries
//!   the exchange's send and receive times and its `dests`), easy to
//!   `jq`/stream.
//! * Chrome trace: the [trace-event format] with complete (`"X"`) events,
//!   one track per party (`pid` 0, `tid` = party id), loadable in
//!   Perfetto or `chrome://tracing`. Every flow of the message DAG (read
//!   off the senders' `dests`, see [`crate::causal`]) becomes a
//!   flow-event pair (`"ph":"s"` on the sender track, `"ph":"f"` with
//!   `"bp":"e"` on the receiver track, shared `"id"`), rendered as arrows
//!   between party tracks.
//!
//! [trace-event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use serde::json;

use crate::causal::{critical_path, flows};
use crate::ledger::LedgerReport;
use crate::metrics::MetricsSnapshot;
use crate::trace::Trace;

/// Write `contents` to `path` atomically: the bytes land in a sibling
/// temporary file first and are renamed into place only once fully written,
/// so a reader (or a later run) never observes a truncated artifact — an
/// interrupted writer leaves at worst a stale previous version plus an
/// orphaned `*.tmp.*` sibling, never a half-written file under the real
/// name. Parent directories are created as needed. The temporary name
/// carries the pid and a process-wide counter so concurrent writers (test
/// processes, parallel threads) cannot collide on it.
pub fn atomic_write(path: impl AsRef<Path>, contents: &[u8]) -> io::Result<()> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let path = path.as_ref();
    if let Some(dir) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    let mut tmp_name = path.as_os_str().to_owned();
    tmp_name.push(format!(
        ".tmp.{}.{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = PathBuf::from(tmp_name);
    let result = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(contents)?;
        f.flush()?;
        drop(f);
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// [`atomic_write`] for string artifacts (JSON, JSONL, HTML, CSV).
pub fn atomic_write_str(path: impl AsRef<Path>, contents: &str) -> io::Result<()> {
    atomic_write(path, contents.as_bytes())
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Write a trace as JSONL: a `meta` line, then every span and round record.
pub fn write_jsonl<W: Write>(trace: &Trace, w: &mut W) -> io::Result<()> {
    let mut line = String::new();
    line.push_str("{\"type\":\"meta\",\"latency_s\":");
    json::write_f64(&mut line, secs(trace.latency));
    line.push_str(&format!(
        ",\"parties\":{},\"dropped_events\":{}}}",
        trace.parties.len(),
        trace.dropped_events()
    ));
    writeln!(w, "{line}")?;

    for pt in &trace.parties {
        for s in &pt.spans {
            let mut line = String::new();
            line.push_str(&format!(
                "{{\"type\":\"span\",\"party\":{},\"phase\":",
                s.party
            ));
            json::write_str(&mut line, &s.phase);
            line.push_str(&format!(",\"seq\":{},\"start_s\":", s.seq));
            json::write_f64(&mut line, secs(s.start));
            line.push_str(",\"duration_s\":");
            json::write_f64(&mut line, secs(s.duration));
            line.push_str(",\"wall_s\":");
            json::write_f64(&mut line, secs(s.wall));
            line.push_str(&format!(
                ",\"rounds\":{},\"messages\":{},\"bytes\":{}}}",
                s.rounds, s.messages, s.bytes
            ));
            writeln!(w, "{line}")?;
        }
        for r in &pt.rounds {
            let mut line = String::new();
            line.push_str(&format!(
                "{{\"type\":\"round\",\"party\":{},\"phase\":",
                r.party
            ));
            json::write_str(&mut line, &r.phase);
            line.push_str(&format!(
                ",\"index\":{},\"messages\":{},\"bytes\":{},\"t_send_s\":",
                r.index, r.messages, r.bytes
            ));
            json::write_f64(&mut line, secs(r.t_send));
            line.push_str(",\"t_recv_s\":");
            json::write_f64(&mut line, secs(r.t_recv));
            line.push_str(&format!(",\"dests\":{:?}}}", r.dests));
            writeln!(w, "{line}")?;
        }
        for e in &pt.net_events {
            let mut line = String::new();
            line.push_str(&format!(
                "{{\"type\":\"net\",\"party\":{},\"round\":{},\"peer\":{},\"kind\":",
                e.party, e.round, e.peer
            ));
            json::write_str(&mut line, &e.kind);
            line.push_str(",\"value\":");
            json::write_f64(&mut line, e.value);
            line.push('}');
            writeln!(w, "{line}")?;
        }
    }
    Ok(())
}

/// Write a privacy-ledger report as JSONL: one self-describing object per
/// line — a `"ledger_meta"` header carrying the deployment parameters and
/// composed totals, then one `"release"` line per recorded entry, in
/// release order.
///
/// This is the machine-readable export of the privacy account (the HTML
/// report renders the same data for humans); its schema is pinned by a
/// golden-file test, so field additions are deliberate, reviewed events.
pub fn write_ledger_jsonl<W: Write>(report: &LedgerReport, w: &mut W) -> io::Result<()> {
    use serde::Serialize as _;
    let mut line = String::from("{\"type\":\"ledger_meta\",\"n_clients\":");
    line.push_str(&report.n_clients.to_string());
    line.push_str(",\"delta\":");
    json::write_f64(&mut line, report.delta);
    line.push_str(&format!(",\"releases\":{}", report.releases));
    line.push_str(",\"server_epsilon_total\":");
    json::write_f64(&mut line, report.server_epsilon_total);
    line.push_str(",\"client_epsilon_total\":");
    json::write_f64(&mut line, report.client_epsilon_total);
    line.push('}');
    writeln!(w, "{line}")?;
    for entry in &report.entries {
        // The derived serializer emits fields in declaration order; splice
        // the discriminator in front so each line is self-describing.
        let body = entry.to_json();
        writeln!(w, "{{\"type\":\"release\",{}", &body[1..])?;
    }
    Ok(())
}

/// Render a trace in the Chrome trace-event JSON format (simulated-clock
/// microsecond timestamps; one thread track per party).
pub fn chrome_trace_json(trace: &Trace) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let mut push_event = |out: &mut String, event: String| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&event);
    };

    push_event(
        &mut out,
        "{\"ph\":\"M\",\"pid\":0,\"name\":\"process_name\",\
         \"args\":{\"name\":\"sqm simulated run\"}}"
            .to_string(),
    );
    for pt in &trace.parties {
        push_event(
            &mut out,
            format!(
                "{{\"ph\":\"M\",\"pid\":0,\"tid\":{},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"party {}\"}}}}",
                pt.party, pt.party
            ),
        );
    }
    for pt in &trace.parties {
        for s in &pt.spans {
            let mut ev = String::from("{\"ph\":\"X\",\"pid\":0,\"tid\":");
            ev.push_str(&s.party.to_string());
            ev.push_str(",\"name\":");
            json::write_str(&mut ev, &s.phase);
            ev.push_str(",\"cat\":\"mpc\",\"ts\":");
            json::write_f64(&mut ev, micros(s.start));
            ev.push_str(",\"dur\":");
            json::write_f64(&mut ev, micros(s.duration));
            ev.push_str(&format!(
                ",\"args\":{{\"rounds\":{},\"messages\":{},\"bytes\":{},\"wall_us\":",
                s.rounds, s.messages, s.bytes
            ));
            json::write_f64(&mut ev, micros(s.wall));
            ev.push_str("}}");
            push_event(&mut out, ev);
        }
    }
    // Flow arrows: one `s`/`f` pair per send→recv edge. The shared `id` is
    // the edge's index in the deterministic (from, to, round) ordering, so
    // identical runs produce identical flow ids.
    for (id, e) in flows(trace).iter().enumerate() {
        let mut ev = format!(
            "{{\"ph\":\"s\",\"pid\":0,\"tid\":{},\"name\":\"msg\",\
             \"cat\":\"flow\",\"id\":{id},\"ts\":",
            e.from
        );
        json::write_f64(&mut ev, micros(e.send_time));
        ev.push('}');
        push_event(&mut out, ev);
        let mut ev = format!(
            "{{\"ph\":\"f\",\"bp\":\"e\",\"pid\":0,\"tid\":{},\"name\":\"msg\",\
             \"cat\":\"flow\",\"id\":{id},\"ts\":",
            e.to
        );
        json::write_f64(&mut ev, micros(e.recv_time));
        ev.push('}');
        push_event(&mut out, ev);
    }
    out.push_str("]}");
    out
}

/// Write [`chrome_trace_json`] to a writer.
pub fn write_chrome_trace<W: Write>(trace: &Trace, w: &mut W) -> io::Result<()> {
    w.write_all(chrome_trace_json(trace).as_bytes())
}

// ---------------------------------------------------------------------------
// Self-contained HTML report
// ---------------------------------------------------------------------------

fn html_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            c => out.push(c),
        }
    }
    out
}

/// Stable phase → color assignment (FNV-1a hash into a hue), so the same
/// phase gets the same color across reports and report regenerations.
pub(crate) fn phase_color(phase: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in phase.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    format!("hsl({},62%,52%)", h % 360)
}

fn fmt_duration(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.2} s")
    } else if s >= 1e-3 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{:.1} µs", s * 1e6)
    }
}

fn fmt_bytes(b: u64) -> String {
    if b >= 1024 * 1024 {
        format!("{:.2} MiB", b as f64 / (1024.0 * 1024.0))
    } else if b >= 1024 {
        format!("{:.1} KiB", b as f64 / 1024.0)
    } else {
        format!("{b} B")
    }
}

/// Render a run as a single self-contained HTML page: a per-party phase
/// waterfall on the simulated clock (inline SVG), the per-phase summary
/// table, a per-party message/byte table, and — for each optional input
/// that is given — the privacy-ledger and metrics-registry summaries, a
/// "Serving SLO" section (the serving layer's time-bucketed request
/// history ring and slow-request recorder totals, from
/// `crate::span::SpanCollector::snapshot`) and a "Cost profile" section
/// (the deterministic flamegraph of a [`crate::prof::ProfSnapshot`]). No
/// external scripts, stylesheets, fonts, or network access of any kind:
/// the file renders offline in any browser.
pub fn html_report(
    title: &str,
    trace: &Trace,
    ledger: Option<&LedgerReport>,
    metrics: Option<&MetricsSnapshot>,
    slo: Option<&crate::span::SloSnapshot>,
    prof: Option<&crate::prof::ProfSnapshot>,
) -> String {
    let stats = trace.stats();
    let mut out = String::with_capacity(16 * 1024);
    out.push_str("<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n<title>");
    out.push_str(&html_escape(title));
    out.push_str("</title>\n<style>\n");
    out.push_str(
        "body{font-family:system-ui,sans-serif;margin:2em auto;max-width:64em;color:#1a1a2e}\n\
         h1{font-size:1.4em}h2{font-size:1.1em;margin-top:2em;border-bottom:1px solid #ccd}\n\
         table{border-collapse:collapse;margin:0.8em 0}\n\
         th,td{border:1px solid #ccd;padding:0.25em 0.7em;text-align:right;font-variant-numeric:tabular-nums}\n\
         th{background:#eef;font-weight:600}td.l,th.l{text-align:left}\n\
         .chip{display:inline-block;width:0.8em;height:0.8em;border-radius:2px;margin-right:0.4em;vertical-align:-0.05em}\n\
         .warn{background:#fff3cd;border:1px solid #e0c96a;padding:0.5em 0.8em;border-radius:4px}\n\
         .meta{color:#556}\n",
    );
    out.push_str("</style></head><body>\n<h1>");
    out.push_str(&html_escape(title));
    out.push_str("</h1>\n<p class=\"meta\">");
    out.push_str(&format!(
        "{} parties · {} per hop · total simulated {} · {} messages · {}",
        trace.parties.len(),
        fmt_duration(trace.latency),
        fmt_duration(stats.simulated_time()),
        stats.total.messages,
        fmt_bytes(stats.total.bytes),
    ));
    out.push_str("</p>\n");
    if trace.dropped_events() > 0 {
        out.push_str(&format!(
            "<p class=\"warn\">{} detail event(s) were dropped under the trace event cap; \
             the waterfall below is truncated, but every table is computed from exact \
             per-phase totals.</p>\n",
            trace.dropped_events()
        ));
    }

    // --- phase waterfall (SVG) ---------------------------------------
    out.push_str("<h2>Phase waterfall (simulated clock)</h2>\n");
    let horizon = trace
        .parties
        .iter()
        .flat_map(|p| p.spans.iter().map(|s| s.start + s.duration))
        .max()
        .unwrap_or_default()
        .as_secs_f64()
        .max(1e-9);
    const W: f64 = 880.0;
    const ROW: f64 = 26.0;
    const LEFT: f64 = 70.0;
    let height = ROW * trace.parties.len() as f64 + 24.0;
    out.push_str(&format!(
        "<svg width=\"{}\" height=\"{height}\" role=\"img\">\n",
        W + LEFT + 10.0
    ));
    for (row, pt) in trace.parties.iter().enumerate() {
        let y = row as f64 * ROW + 4.0;
        out.push_str(&format!(
            "<text x=\"0\" y=\"{:.1}\" font-size=\"12\">party {}</text>\n",
            y + 14.0,
            pt.party
        ));
        for s in &pt.spans {
            let x = LEFT + W * s.start.as_secs_f64() / horizon;
            let w = (W * s.duration.as_secs_f64() / horizon).max(0.5);
            out.push_str(&format!(
                "<rect x=\"{x:.2}\" y=\"{y:.1}\" width=\"{w:.2}\" height=\"{:.1}\" fill=\"{}\">\
                 <title>{}: {} (wall {}, {} rounds, {} msgs, {})</title></rect>\n",
                ROW - 6.0,
                phase_color(&s.phase),
                html_escape(&s.phase),
                fmt_duration(s.duration),
                fmt_duration(s.wall),
                s.rounds,
                s.messages,
                fmt_bytes(s.bytes),
            ));
        }
    }
    // Time axis.
    let axis_y = ROW * trace.parties.len() as f64 + 8.0;
    out.push_str(&format!(
        "<line x1=\"{LEFT}\" y1=\"{axis_y:.1}\" x2=\"{:.1}\" y2=\"{axis_y:.1}\" stroke=\"#889\"/>\n\
         <text x=\"{LEFT}\" y=\"{:.1}\" font-size=\"11\">0</text>\n\
         <text x=\"{:.1}\" y=\"{:.1}\" font-size=\"11\" text-anchor=\"end\">{}</text>\n",
        LEFT + W,
        axis_y + 12.0,
        LEFT + W,
        axis_y + 12.0,
        fmt_duration(Duration::from_secs_f64(horizon)),
    ));
    out.push_str("</svg>\n<p>");
    for name in stats.phases.keys() {
        out.push_str(&format!(
            "<span class=\"chip\" style=\"background:{}\"></span>{}&nbsp;&nbsp;",
            phase_color(name),
            html_escape(name)
        ));
    }
    out.push_str("</p>\n");

    // --- per-phase summary table -------------------------------------
    out.push_str(
        "<h2>Per-phase summary</h2>\n<table>\n<tr><th class=\"l\">phase</th><th>rounds</th>\
         <th>messages</th><th>bytes</th><th>wall</th><th>simulated</th></tr>\n",
    );
    let rows = stats.phases.iter().map(|(n, p)| (n.as_str(), p));
    for (name, row) in rows.chain([("total", &stats.total)]) {
        out.push_str(&format!(
            "<tr><td class=\"l\">{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>\n",
            html_escape(name),
            row.rounds,
            row.messages,
            fmt_bytes(row.bytes),
            fmt_duration(row.wall),
            fmt_duration(row.simulated_time(stats.latency)),
        ));
    }
    out.push_str("</table>\n");

    // --- per-party table ----------------------------------------------
    out.push_str(
        "<h2>Per-party traffic</h2>\n<table>\n<tr><th class=\"l\">party</th><th>rounds</th>\
         <th>messages</th><th>bytes</th><th>wall</th><th>net events</th><th>dropped</th></tr>\n",
    );
    for pt in &trace.parties {
        let t = &pt.stats.total;
        out.push_str(&format!(
            "<tr><td class=\"l\">party {}</td><td>{}</td><td>{}</td>\
             <td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>\n",
            pt.party,
            t.rounds,
            t.messages,
            fmt_bytes(t.bytes),
            fmt_duration(t.wall),
            pt.net_events.len(),
            pt.dropped_events,
        ));
    }
    out.push_str("</table>\n");

    // --- critical path (round records required) -----------------------
    if trace.parties.iter().any(|p| !p.rounds.is_empty()) {
        let cp = critical_path(trace);
        out.push_str("<h2>Critical path</h2>\n<p class=\"meta\">");
        out.push_str(&format!(
            "total {} · ends at party {} · {} cross-party hop(s) · {} flow edge(s)",
            fmt_duration(cp.total),
            cp.end_party,
            cp.cross_hops,
            flows(trace).len(),
        ));
        out.push_str("</p>\n");
        out.push_str(
            "<table>\n<tr><th class=\"l\">party</th><th>total</th><th>compute</th>\
             <th>idle (waiting)</th><th>rounds</th><th>messages sent</th></tr>\n",
        );
        for p in &cp.parties {
            out.push_str(&format!(
                "<tr><td class=\"l\">party {}</td><td>{}</td><td>{}</td><td>{}</td>\
                 <td>{}</td><td>{}</td></tr>\n",
                p.party,
                fmt_duration(p.total),
                fmt_duration(p.compute),
                fmt_duration(p.idle),
                p.rounds,
                p.messages,
            ));
        }
        out.push_str("</table>\n");
        const MAX_SEGMENTS: usize = 32;
        out.push_str(
            "<table>\n<tr><th class=\"l\">segment</th><th class=\"l\">kind</th>\
             <th class=\"l\">phase</th><th>party</th><th>start</th><th>end</th>\
             <th>duration</th><th>from</th></tr>\n",
        );
        for (i, seg) in cp.segments.iter().take(MAX_SEGMENTS).enumerate() {
            out.push_str(&format!(
                "<tr><td class=\"l\">{i}</td><td class=\"l\">{}</td><td class=\"l\">{}</td>\
                 <td>{}</td><td>{}</td><td>{}</td><td>{}</td><td class=\"l\">{}</td></tr>\n",
                html_escape(&seg.kind),
                html_escape(&seg.phase),
                seg.party,
                fmt_duration(seg.start),
                fmt_duration(seg.end),
                fmt_duration(seg.end.saturating_sub(seg.start)),
                seg.from_party
                    .map_or_else(|| "—".to_string(), |p| format!("party {p}")),
            ));
        }
        out.push_str("</table>\n");
        if cp.segments.len() > MAX_SEGMENTS {
            out.push_str(&format!(
                "<p class=\"meta\">… {} further segment(s) omitted; the full walk is in \
                 the Chrome trace's flow arrows.</p>\n",
                cp.segments.len() - MAX_SEGMENTS
            ));
        }
    }

    // --- privacy ledger -----------------------------------------------
    if let Some(report) = ledger {
        out.push_str(&format!(
            "<h2>Privacy ledger</h2>\n<p class=\"meta\">{} release(s), P = {}, δ = {:.1e} — \
             composed ε: server {:.4}, client {:.4}</p>\n",
            report.releases,
            report.n_clients,
            report.delta,
            report.server_epsilon_total,
            report.client_epsilon_total,
        ));
        out.push_str(
            "<table>\n<tr><th class=\"l\">kind</th><th>dims</th><th>γ</th><th>μ</th>\
             <th>Δ₂</th><th>ε (server)</th><th>ε (client)</th></tr>\n",
        );
        for e in &report.entries {
            out.push_str(&format!(
                "<tr><td class=\"l\">{}</td><td>{}</td><td>{:.1}</td><td>{:.3e}</td>\
                 <td>{:.3e}</td><td>{:.4}</td><td>{:.4}</td></tr>\n",
                html_escape(&e.kind),
                e.dims,
                e.gamma,
                e.mu,
                e.sensitivity_l2,
                e.server_epsilon,
                e.client_epsilon,
            ));
        }
        out.push_str("</table>\n");
    }

    // --- metrics snapshot ----------------------------------------------
    if let Some(snap) = metrics {
        if !snap.counters.is_empty() {
            out.push_str(
                "<h2>Counters</h2>\n<table>\n<tr><th class=\"l\">counter</th><th>value</th></tr>\n",
            );
            for (name, v) in &snap.counters {
                out.push_str(&format!(
                    "<tr><td class=\"l\">{}</td><td>{v}</td></tr>\n",
                    html_escape(name)
                ));
            }
            out.push_str("</table>\n");
        }
        if !snap.histograms.is_empty() {
            out.push_str(
                "<h2>Histograms</h2>\n<table>\n<tr><th class=\"l\">histogram</th><th>count</th>\
                 <th>mean</th><th>p50</th><th>p95</th><th>p99</th><th>max</th></tr>\n",
            );
            for (name, h) in &snap.histograms {
                out.push_str(&format!(
                    "<tr><td class=\"l\">{}</td><td>{}</td><td>{:.1}</td><td>{:.1}</td>\
                     <td>{:.1}</td><td>{:.1}</td><td>{:.1}</td></tr>\n",
                    html_escape(name),
                    h.count,
                    h.mean,
                    h.p50,
                    h.p95,
                    h.p99,
                    h.max,
                ));
            }
            out.push_str("</table>\n");
        }
    }

    // --- serving SLO history -------------------------------------------
    if let Some(slo) = slo {
        out.push_str(&format!(
            "<h2>Serving SLO</h2>\n<p class=\"meta\">{} request(s) — {} release(s), \
             {} refusal(s), {} failure(s) · slow threshold {} · {} slow request(s) \
             retained{}</p>\n",
            slo.total_requests,
            slo.total_releases,
            slo.total_refusals,
            slo.total_failures,
            fmt_duration(Duration::from_nanos(slo.threshold_ns)),
            slo.slow_retained,
            if slo.slow_dropped > 0 {
                format!(" ({} dropped past the cap)", slo.slow_dropped)
            } else {
                String::new()
            },
        ));
        if !slo.buckets.is_empty() {
            out.push_str(&format!(
                "<table>\n<tr><th class=\"l\">bucket ({} wide)</th><th>requests</th>\
                 <th>releases</th><th>refusals</th><th>failures</th><th>mean</th>\
                 <th>max</th></tr>\n",
                fmt_duration(slo.bucket_width),
            ));
            let origin = slo.buckets[0].index;
            for b in &slo.buckets {
                let offset = slo.bucket_width * (b.index - origin) as u32;
                let mean = Duration::from_nanos(b.total_ns / b.requests.max(1));
                out.push_str(&format!(
                    "<tr><td class=\"l\">+{}</td><td>{}</td><td>{}</td><td>{}</td>\
                     <td>{}</td><td>{}</td><td>{}</td></tr>\n",
                    fmt_duration(offset),
                    b.requests,
                    b.releases,
                    b.refusals,
                    b.failures,
                    fmt_duration(mean),
                    fmt_duration(Duration::from_nanos(b.max_ns)),
                ));
            }
            out.push_str("</table>\n");
        }
    }

    // --- cost profile (flamegraph) -------------------------------------
    if let Some(prof) = prof {
        out.push_str(&flamegraph_section(prof));
    }

    out.push_str("</body></html>\n");
    out
}

/// The "Cost profile" report section: node count and seed plus the
/// self-contained SVG flamegraph. Deterministic for a given snapshot
/// (key-sorted layout, hash-stable colors, no wall time).
fn flamegraph_section(prof: &crate::prof::ProfSnapshot) -> String {
    let mut out = String::with_capacity(8 * 1024);
    out.push_str("<h2>Cost profile (flamegraph)</h2>\n<p class=\"meta\">");
    out.push_str(&format!(
        "{} attribution node(s), seed {}</p>\n",
        prof.nodes.len(),
        prof.seed
    ));
    out.push_str(&crate::prof::render_flamegraph_svg(prof));
    out
}

/// Render a profile snapshot as a standalone self-contained HTML page
/// (the `prof_<seed>.html` artifact): no scripts, stylesheets, or network
/// references; byte-deterministic for a given snapshot.
pub fn flamegraph_html(title: &str, prof: &crate::prof::ProfSnapshot) -> String {
    let mut out = String::with_capacity(16 * 1024);
    out.push_str("<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n<title>");
    out.push_str(&html_escape(title));
    out.push_str(
        "</title>\n<style>\nbody{font-family:system-ui,sans-serif;margin:2em auto;\
         max-width:64em;color:#1a1a2e}\nh1{font-size:1.4em}\
         h2{font-size:1.1em;margin-top:2em;border-bottom:1px solid #ccd}\n\
         table{border-collapse:collapse;margin:0.8em 0}\n\
         th,td{border:1px solid #ccd;padding:0.25em 0.7em;text-align:right;\
         font-variant-numeric:tabular-nums}\nth{background:#eef;font-weight:600}\n\
         .meta{color:#556}\n</style></head><body>\n<h1>",
    );
    out.push_str(&html_escape(title));
    out.push_str("</h1>\n");
    out.push_str(&flamegraph_section(prof));
    out.push_str("</body></html>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::round::{PartyStats, PhaseStats};
    use crate::trace::PartyRecorder;

    /// Close a visit to `phase` — `rounds` rounds of one message carrying
    /// `bytes` each, lasting `wall_ms` — in the tally and the recorder alike.
    fn close(
        rec: &mut PartyRecorder,
        stats: &mut PartyStats,
        phase: &str,
        rounds: u64,
        bytes: u64,
        wall_ms: u64,
    ) {
        let visit = PhaseStats {
            rounds,
            messages: rounds,
            bytes: rounds * bytes,
            elems: rounds,
            wall: Duration::from_millis(wall_ms),
        };
        rec.close_span(phase, &visit);
        stats.add_visit(phase, &visit);
    }

    fn sample_trace() -> Trace {
        let latency = Duration::from_millis(100);
        let parties = (0..2)
            .map(|id| {
                let (mut r, mut stats) = (PartyRecorder::new(id, latency), PartyStats::default());
                r.record_round(
                    "input",
                    0,
                    0,
                    (Duration::ZERO, Duration::ZERO),
                    (1, 64),
                    vec![],
                );
                close(&mut r, &mut stats, "input", 1, 64, 2);
                r.record_round(
                    "open",
                    1,
                    0,
                    (Duration::ZERO, Duration::ZERO),
                    (1, 16),
                    vec![],
                );
                close(&mut r, &mut stats, "open", 1, 16, 1);
                r.finish(stats)
            })
            .collect();
        Trace::from_parties(latency, parties)
    }

    #[test]
    fn jsonl_lines_are_json_objects() {
        let mut buf = Vec::new();
        write_jsonl(&sample_trace(), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // meta + 2 parties * (2 spans + 2 rounds).
        assert_eq!(lines.len(), 1 + 2 * 4);
        assert!(lines[0].contains("\"type\":\"meta\""));
        assert!(lines[0].contains("\"latency_s\":0.1"));
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        assert!(text.contains("\"phase\":\"input\""));
        assert!(text.contains("\"type\":\"round\""));
    }

    #[test]
    fn jsonl_includes_net_events() {
        let latency = Duration::from_millis(100);
        let (mut r, mut stats) = (PartyRecorder::new(0, latency), PartyStats::default());
        r.record_round(
            "default",
            0,
            0,
            (Duration::ZERO, Duration::ZERO),
            (1, 8),
            vec![1],
        );
        r.record_net_event(crate::trace::NetEvent {
            party: 0,
            round: 0,
            peer: 1,
            kind: "retransmit".to_string(),
            value: 3.0,
        });
        close(&mut r, &mut stats, "default", 1, 8, 1);
        let trace = Trace::from_parties(latency, vec![r.finish(stats)]);
        let mut buf = Vec::new();
        write_jsonl(&trace, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let net_line = text
            .lines()
            .find(|l| l.contains("\"type\":\"net\""))
            .expect("net event line");
        assert!(net_line.contains("\"kind\":\"retransmit\""), "{net_line}");
        assert!(net_line.contains("\"peer\":1"), "{net_line}");
        assert!(net_line.ends_with('}'), "{net_line}");
    }

    #[test]
    fn ledger_jsonl_is_one_object_per_line() {
        use crate::ledger::PrivacyLedger;
        let mut ledger = PrivacyLedger::new(3, 1e-5);
        ledger.record(
            "covariance",
            16,
            18.0,
            1e6,
            sqm_accounting::skellam::Sensitivity::from_l2_for_dim(330.0, 16),
        );
        ledger.record(
            "column_sums",
            4,
            32.0,
            1e4,
            sqm_accounting::skellam::Sensitivity::from_l2_for_dim(40.0, 4),
        );
        let mut buf = Vec::new();
        write_ledger_jsonl(&ledger.report(), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "meta + 2 releases");
        assert!(lines[0].contains("\"type\":\"ledger_meta\""));
        assert!(lines[0].contains("\"n_clients\":3"));
        assert!(lines[1].contains("\"type\":\"release\""));
        assert!(lines[1].contains("\"kind\":\"covariance\""));
        assert!(lines[2].contains("\"index\":1"));
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
    }

    #[test]
    fn chrome_trace_shape() {
        let json = chrome_trace_json(&sample_trace());
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\":["));
        // Two thread-name metadata events + process name + 4 X events.
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 4);
        assert_eq!(json.matches("\"ph\":\"M\"").count(), 3);
        // Span 2 of party 0 starts at simulated 102 ms = 102000 us.
        assert!(json.contains("\"ts\":102000.0"), "{json}");
        // Durations are on the simulated clock (100 ms latency dominates).
        assert!(json.contains("\"dur\":102000.0"));
        // No trailing commas (the classic hand-rolled-JSON bug).
        assert!(!json.contains(",]") && !json.contains(",}"));
    }

    /// Two parties, two rounds each sending one message to the other (the
    /// engine's recording order: each round, then one flush per phase).
    fn causal_sample_trace() -> Trace {
        let latency = Duration::from_millis(100);
        let parties = (0..2usize)
            .map(|me| {
                let (mut rec, mut stats) = (PartyRecorder::new(me, latency), PartyStats::default());
                for k in 0..2u64 {
                    let wall = (Duration::from_millis(k), Duration::from_millis(k));
                    rec.record_round("compute", k, k, wall, (1, 8), vec![1 - me]);
                }
                close(&mut rec, &mut stats, "compute", 2, 8, 2);
                rec.finish(stats)
            })
            .collect();
        Trace::from_parties(latency, parties)
    }

    #[test]
    fn chrome_trace_emits_one_flow_pair_per_message() {
        let json = chrome_trace_json(&causal_sample_trace());
        // 2 parties * 2 rounds = 4 messages → 4 s/f pairs.
        assert_eq!(json.matches("\"ph\":\"s\"").count(), 4);
        assert_eq!(json.matches("\"ph\":\"f\"").count(), 4);
        assert_eq!(json.matches("\"bp\":\"e\"").count(), 4);
        // Each flow id appears exactly twice: once on the sender track,
        // once on the receiver track.
        for id in 0..4 {
            assert_eq!(json.matches(&format!("\"id\":{id},")).count(), 2, "{id}");
        }
        assert!(!json.contains(",]") && !json.contains(",}"));
    }

    #[test]
    fn chrome_trace_has_no_flow_events_without_causal_stamps() {
        let json = chrome_trace_json(&sample_trace());
        assert_eq!(json.matches("\"ph\":\"s\"").count(), 0);
        assert_eq!(json.matches("\"ph\":\"f\"").count(), 0);
    }

    #[test]
    fn jsonl_includes_causal_lines() {
        let mut buf = Vec::new();
        write_jsonl(&causal_sample_trace(), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        // Each exchange is one round line, carrying its times and dests.
        let round_lines: Vec<&str> = text
            .lines()
            .filter(|l| l.contains("\"type\":\"round\""))
            .collect();
        assert_eq!(round_lines.len(), 4);
        assert!(!text.contains("\"type\":\"causal\""));
        let second = round_lines[1];
        assert!(second.contains("\"t_send_s\":0.101"), "{second}");
        assert!(second.contains("\"t_recv_s\":0.201"), "{second}");
        assert!(second.ends_with("\"dests\":[1]}"), "{second}");
    }

    #[test]
    fn html_report_gains_critical_path_section_with_causal_stamps() {
        let html = html_report("causal run", &causal_sample_trace(), None, None, None, None);
        assert!(html.contains("Critical path"));
        assert!(html.contains("idle (waiting)"));
        // Still self-contained.
        assert!(!html.contains("<script") && !html.contains("<link"));
        // And absent without round records.
        let mut plain = sample_trace();
        plain.parties.iter_mut().for_each(|p| p.rounds.clear());
        let plain = html_report("plain run", &plain, None, None, None, None);
        assert!(!plain.contains("Critical path"));
    }

    #[test]
    fn writer_variant_matches_string_variant() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_chrome_trace(&t, &mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), chrome_trace_json(&t));
    }

    #[test]
    fn html_report_is_self_contained_and_renders_all_sections() {
        let trace = sample_trace();
        let html = html_report("covariance run", &trace, None, None, None, None);
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("<svg") && html.contains("</svg>"));
        // Waterfall: one rect per span (2 parties * 2 spans).
        assert_eq!(html.matches("<rect").count(), 4);
        // Per-phase summary and per-party table are present.
        assert!(html.contains("Per-phase summary"));
        assert!(html.contains("Per-party traffic"));
        assert!(html.contains("party 0") && html.contains("party 1"));
        assert!(html.contains("input") && html.contains("open"));
        // Self-contained: no external fetches of any kind.
        assert!(!html.contains("http://") && !html.contains("https://"));
        assert!(!html.contains("<script") && !html.contains("<link"));
    }

    #[test]
    fn html_report_includes_ledger_and_metrics_when_given() {
        use crate::ledger::PrivacyLedger;
        let mut ledger = PrivacyLedger::new(4, 1e-5);
        ledger.record(
            "covariance",
            16,
            18.0,
            1e6,
            sqm_accounting::skellam::Sensitivity::from_l2_for_dim(330.0, 16),
        );
        let report = ledger.report();
        let mut snap = crate::metrics::MetricsSnapshot::default();
        snap.counters.insert("mpc.rounds".to_string(), 7);
        let html = html_report(
            "with ledger",
            &sample_trace(),
            Some(&report),
            Some(&snap),
            None,
            None,
        );
        assert!(html.contains("Privacy ledger"));
        assert!(html.contains("covariance"));
        assert!(html.contains("Counters"));
        assert!(html.contains("mpc.rounds"));
    }

    #[test]
    fn html_report_renders_serving_slo_section_when_given() {
        use crate::span::{SloBucket, SloSnapshot};
        let slo = SloSnapshot {
            buckets: vec![
                SloBucket {
                    index: 3,
                    requests: 10,
                    releases: 4,
                    refusals: 1,
                    failures: 0,
                    total_ns: 5_000_000,
                    max_ns: 900_000,
                },
                SloBucket {
                    index: 5,
                    requests: 2,
                    releases: 1,
                    refusals: 0,
                    failures: 1,
                    total_ns: 4_000_000,
                    max_ns: 3_000_000,
                },
            ],
            bucket_width: Duration::from_secs(1),
            total_requests: 12,
            total_releases: 5,
            total_refusals: 1,
            total_failures: 1,
            slow_retained: 3,
            slow_dropped: 0,
            threshold_ns: 1_000_000,
        };
        let html = html_report("slo run", &sample_trace(), None, None, Some(&slo), None);
        assert!(html.contains("Serving SLO"));
        assert!(html.contains("12 request(s)"));
        assert!(html.contains("3 slow request(s) retained"));
        // Bucket offsets are relative to the first occupied bucket.
        assert!(html.contains("+0ns") || html.contains("+0.0"));
        // Without a snapshot the report stays SLO-free.
        assert!(
            !html_report("plain", &sample_trace(), None, None, None, None).contains("Serving SLO")
        );
    }

    #[test]
    fn html_report_renders_cost_profile_section_when_given() {
        use crate::prof::{NodeAgg, ProfSnapshot};
        let mut nodes = std::collections::BTreeMap::new();
        nodes.insert(
            "engine;compute;reduce_degree".to_string(),
            NodeAgg {
                calls: 1,
                work: 1830,
                ..NodeAgg::default()
            },
        );
        let snap = ProfSnapshot {
            seed: 5,
            dir: PathBuf::new(),
            nodes,
        };
        let html = html_report("prof run", &sample_trace(), None, None, None, Some(&snap));
        assert!(html.contains("Cost profile (flamegraph)"));
        assert!(html.contains("1 attribution node(s), seed 5"));
        assert!(!html.contains("<script") && !html.contains("http://"));
        let standalone = flamegraph_html("prof", &snap);
        assert!(standalone.starts_with("<!DOCTYPE html>"));
        assert!(standalone.contains("<svg"));
        assert!(!standalone.contains("<script") && !standalone.contains("http://"));
        // Plain reports stay profile-free.
        assert!(
            !html_report("plain", &sample_trace(), None, None, None, None).contains("Cost profile")
        );
    }

    #[test]
    fn atomic_write_creates_dirs_and_replaces_whole_files() {
        let dir = std::env::temp_dir().join(format!("sqm_atomic_write_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested/deep/artifact.jsonl");
        atomic_write_str(&path, "{\"a\":1}\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"a\":1}\n");
        // Overwrite is whole-file: a shorter second write leaves no tail of
        // the first behind.
        atomic_write_str(&path, "{}\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{}\n");
        // No temporary siblings survive a successful write.
        let leftovers: Vec<_> = std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn html_escapes_hostile_phase_names() {
        let latency = Duration::from_millis(1);
        let (mut r, mut stats) = (PartyRecorder::new(0, latency), PartyStats::default());
        let phase = "<script>alert(1)</script>";
        r.record_round(
            phase,
            0,
            0,
            (Duration::ZERO, Duration::ZERO),
            (1, 8),
            vec![],
        );
        close(&mut r, &mut stats, phase, 1, 8, 1);
        let trace = Trace::from_parties(latency, vec![r.finish(stats)]);
        let html = html_report("x & <y>", &trace, None, None, None, None);
        assert!(!html.contains("<script>alert"));
        assert!(html.contains("&lt;script&gt;"));
    }
}
