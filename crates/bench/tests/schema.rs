//! Integration tests for the `BENCH_*.json` artifact schema: serde
//! round-trip, schema-version enforcement, and a golden-file gate check.
//!
//! The golden file (`tests/golden/BENCH_golden.json`) is committed
//! pretty-printed and hand-edited — deliberately *not* byte-identical to
//! what our serializer emits — so these tests pin the schema itself, not
//! one serializer's formatting.

use serde::Serialize;
use sqm::obs::json::{self, JsonValue};
use sqm_bench::perf::{measure, BenchArtifact, RunCost, Tier, SCHEMA_VERSION};
use sqm_bench::{compare, GateConfig};

const GOLDEN: &str = include_str!("golden/BENCH_golden.json");

fn golden() -> BenchArtifact {
    BenchArtifact::from_json(&json::parse(GOLDEN).expect("golden file parses"))
        .expect("golden file matches the schema")
}

#[test]
fn golden_file_decodes_with_every_field() {
    let artifact = golden();
    assert_eq!(artifact.schema_version, SCHEMA_VERSION);
    assert_eq!(artifact.suite, "golden");
    assert_eq!(artifact.tier, "small");
    assert_eq!(artifact.commit.len(), 40);
    assert_eq!(artifact.created_unix_s, 1_754_000_000);
    assert_eq!(artifact.peak_rss_bytes, 100 << 20);
    assert_eq!(artifact.entries.len(), 2);
    let mpc = artifact.entry("bgw_grr_mul_p4_len256_r4").unwrap();
    assert_eq!(
        (mpc.rounds, mpc.messages, mpc.bytes),
        (7, 312, 159_744),
        "deterministic counters survive the round-trip exactly"
    );
    assert_eq!(mpc.simulated_s, 0.712);
    let micro = artifact.entry("m61_mul_x16384").unwrap();
    assert_eq!((micro.rounds, micro.messages), (0, 0));
}

#[test]
fn serialize_then_parse_is_identity() {
    // A freshly measured artifact through to_json -> parse -> from_json
    // must reproduce every field.
    let original = {
        let entry = measure("roundtrip", Tier::Small, || RunCost {
            rounds: 4,
            messages: 24,
            bytes: 4096,
            simulated: std::time::Duration::from_millis(400),
            critical_path: std::time::Duration::from_millis(450),
        });
        let mut artifact = golden();
        artifact.suite = "roundtrip".to_string();
        artifact.entries = vec![entry];
        artifact
    };
    let back =
        BenchArtifact::from_json(&json::parse(&original.to_json()).unwrap()).expect("round-trip");
    assert_eq!(back.suite, original.suite);
    assert_eq!(back.commit, original.commit);
    assert_eq!(back.created_unix_s, original.created_unix_s);
    assert_eq!(back.entries.len(), 1);
    let (a, b) = (&original.entries[0], &back.entries[0]);
    assert_eq!(a.name, b.name);
    assert_eq!(a.median_ns, b.median_ns);
    assert_eq!(a.p95_ns, b.p95_ns);
    assert_eq!((a.repeats, a.warmup), (b.repeats, b.warmup));
    assert_eq!(
        (a.rounds, a.messages, a.bytes),
        (b.rounds, b.messages, b.bytes)
    );
    assert_eq!(a.simulated_s, b.simulated_s);
    assert_eq!(a.critical_path_s, b.critical_path_s);
    assert_eq!(a.critical_path_s, 0.45);
}

#[test]
fn golden_file_without_critical_path_defaults_to_zero() {
    // Pre-causal baselines were written before `critical_path_s` existed;
    // they must keep parsing (the gate skips the metric when either side
    // is zero).
    let artifact = golden();
    for entry in &artifact.entries {
        assert_eq!(entry.critical_path_s, 0.0);
    }
}

#[test]
fn wrong_schema_version_is_rejected() {
    let bumped = GOLDEN.replace("\"schema_version\": 1", "\"schema_version\": 2");
    let err = BenchArtifact::from_json(&json::parse(&bumped).unwrap()).unwrap_err();
    assert!(err.contains("schema_version"), "unhelpful error: {err}");
}

#[test]
fn missing_fields_are_rejected_not_defaulted() {
    for field in ["suite", "commit", "median_ns", "rounds", "simulated_s"] {
        let JsonValue::Obj(mut doc) = json::parse(GOLDEN).unwrap() else {
            panic!("golden file is an object");
        };
        // Remove the field wherever it lives (top level or inside entries).
        doc.remove(field);
        if let Some(JsonValue::Arr(entries)) = doc.get_mut("entries") {
            for entry in entries {
                if let JsonValue::Obj(map) = entry {
                    map.remove(field);
                }
            }
        }
        let err = BenchArtifact::from_json(&JsonValue::Obj(doc)).unwrap_err();
        assert!(err.contains(field), "dropping {field:?} gave: {err}");
    }
}

#[test]
fn golden_gate_accepts_identical_and_rejects_slowdown() {
    let baseline = golden();
    let cfg = GateConfig::default();
    assert!(compare(&baseline, &baseline, &cfg).passed());

    // 2x median on the gated entry: fail.
    let mut slow = baseline.clone();
    let entry = slow
        .entries
        .iter_mut()
        .find(|e| e.name == "bgw_grr_mul_p4_len256_r4")
        .unwrap();
    entry.median_ns *= 2;
    let report = compare(&baseline, &slow, &cfg);
    assert!(!report.passed());
    assert!(report
        .failures()
        .any(|f| f.metric == "median_ns" && f.entry == "bgw_grr_mul_p4_len256_r4"));

    // One extra protocol round: fail even with identical wall-clock.
    let mut chattier = baseline.clone();
    chattier.entries[1].rounds += 1;
    let report = compare(&baseline, &chattier, &cfg);
    assert!(report.failures().any(|f| f.metric == "rounds"));
}
