//! Golden-file test for Chrome-trace flow events.
//!
//! A causally-stamped trace round-trips through `write_chrome_trace` and
//! back through our own JSON parser: every stamped message must surface
//! as exactly one `ph:"s"` / `ph:"f"` pair whose flow ids match, with the
//! start on the sender's track and the finish on the receiver's.
//!
//! The golden file (`tests/golden/chrome_flow_golden.json`) pins the
//! serialized byte stream, so any accidental change to flow-event layout
//! (field order, id assignment, timestamp units) shows up as a diff, not
//! as a silently different Perfetto rendering. Regenerate with
//! `BLESS=1 cargo test -p sqm-obs --test chrome_flow`.

use std::time::Duration;

use sqm_obs::json::{self, JsonValue};
use sqm_obs::trace::{MsgStamp, PartyRecorder, Trace};
use sqm_obs::write_chrome_trace;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/chrome_flow_golden.json"
);

/// Two parties, two causally-stamped rounds each — the engines' recording
/// order (causal context, then the round, then one flush per phase), with
/// every wall-clock duration pinned so the serialization is byte-stable.
fn golden_trace() -> Trace {
    let latency = Duration::from_millis(100);
    let parties = (0..2usize)
        .map(|me| {
            let peer = 1 - me;
            let mut rec = PartyRecorder::new(me, latency);
            rec.set_phase("compute");
            let mut lamport = 0u64;
            for k in 0..2u64 {
                let send = lamport + 1;
                let recv = send + 1;
                let stamp = MsgStamp {
                    peer,
                    link_seq: k,
                    lamport: send,
                    round: k,
                };
                rec.record_causal_round(
                    Duration::from_millis(k),
                    Duration::from_millis(k),
                    send,
                    recv,
                    vec![stamp],
                    vec![stamp],
                );
                rec.record_round(1, 8);
                lamport = recv;
            }
            rec.flush_phase(Duration::from_millis(2));
            rec.finish()
        })
        .collect();
    Trace::from_parties(latency, parties)
}

fn rendered() -> String {
    let mut buf = Vec::new();
    write_chrome_trace(&golden_trace(), &mut buf).unwrap();
    String::from_utf8(buf).unwrap()
}

#[test]
fn flow_events_match_golden_file_byte_for_byte() {
    let json = rendered();
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(GOLDEN_PATH, &json).unwrap();
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH).expect("golden file exists");
    assert_eq!(
        json, golden,
        "chrome trace drifted from tests/golden/chrome_flow_golden.json \
         (re-bless with BLESS=1 if the change is intentional)"
    );
}

#[test]
fn flow_events_parse_back_with_matching_ids() {
    let doc = json::parse(&rendered()).expect("chrome trace is valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_arr)
        .expect("traceEvents array");

    let phase = |e: &JsonValue| e.get("ph").and_then(JsonValue::as_str).map(str::to_owned);
    let field = |e: &JsonValue, k: &str| e.get(k).and_then(JsonValue::as_u64).unwrap();
    let ts = |e: &JsonValue| e.get("ts").and_then(JsonValue::as_f64).unwrap();

    let starts: Vec<&JsonValue> = events
        .iter()
        .filter(|e| phase(e).as_deref() == Some("s"))
        .collect();
    let finishes: Vec<&JsonValue> = events
        .iter()
        .filter(|e| phase(e).as_deref() == Some("f"))
        .collect();

    // 2 parties * 2 rounds = 4 stamped messages → one flow pair each.
    assert_eq!(starts.len(), 4);
    assert_eq!(finishes.len(), 4);

    for s in &starts {
        let id = field(s, "id");
        let matching: Vec<&&JsonValue> = finishes.iter().filter(|f| field(f, "id") == id).collect();
        assert_eq!(
            matching.len(),
            1,
            "flow id {id} must have exactly one finish"
        );
        let f = matching[0];
        // Start sits on the sender's track, finish on the receiver's.
        assert_ne!(field(s, "tid"), field(f, "tid"), "flow id {id}");
        // The arrow spans exactly the 100 ms simulated hop.
        let hop_us = ts(f) - ts(s);
        assert!((hop_us - 100_000.0).abs() < 1e-6, "flow id {id}: {hop_us}");
        // Binding point on the enclosing slice, flow category + name.
        assert_eq!(f.get("bp").and_then(JsonValue::as_str), Some("e"));
        for e in [s, f] {
            assert_eq!(e.get("cat").and_then(JsonValue::as_str), Some("flow"));
            assert_eq!(e.get("name").and_then(JsonValue::as_str), Some("msg"));
        }
    }

    // Flow ids are dense and deterministic: 0..edges.
    let mut ids: Vec<u64> = starts.iter().map(|s| field(s, "id")).collect();
    ids.sort_unstable();
    assert_eq!(ids, vec![0, 1, 2, 3]);
}
