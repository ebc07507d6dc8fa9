//! Causal stamps come from each party's schedule, not from the wire: a
//! receiver stamps every real payload with the sender's slot, its own round
//! index, its own count of payloads on that link and its own send clock.
//! These tests hold those receive stamps to the sender's, field for field —
//! on the release-shaped program (uneven input sharing, then the sparse
//! masked sum) over every backend, and over two releases of a resident
//! `StreamCov` session, whose rounds continue while its per-run link
//! sequences and clocks start again.

use std::collections::BTreeMap;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqm_field::M61;
use sqm_linalg::Matrix;
use sqm_mpc::{FaultSpec, MpcConfig, MpcEngine, NetBackend};
use sqm_obs::trace::{CausalRound, MsgStamp, PartyTrace, Trace};
use sqm_obs::MessageDag;
use sqm_vfl::{ColumnPartition, StreamCov, VflConfig};

#[path = "../../mpc/tests/common/mod.rs"]
mod common;
use common::{assert_released, release_program};

/// What a trace says about causality, with no clock reading in it: per
/// party, each causal round's index, its Lamport clocks on both sides and
/// its send and receive stamps.
type Causal = Vec<Vec<(u64, u64, u64, Vec<MsgStamp>, Vec<MsgStamp>)>>;

fn causal(trace: &Trace) -> Causal {
    let round = |r: &CausalRound| {
        let stamps = (r.sends.clone(), r.recvs.clone());
        (r.index, r.lamport_send, r.lamport_recv, stamps.0, stamps.1)
    };
    let party = |p: &PartyTrace| p.causal.iter().map(round).collect();
    trace.parties.iter().map(party).collect()
}

/// `trace`'s message DAG matches every send to one receive with no Lamport
/// violation, and every receive stamp is its send stamp seen from the
/// other end: same link sequence, clock and round, in the causal round of
/// the same index.
fn assert_stamps_match(trace: &Trace, label: &str) {
    let dag = MessageDag::build(trace);
    assert_eq!(dag.unmatched_sends(), 0, "{label}: unmatched sends");
    assert_eq!(dag.unmatched_recvs(), 0, "{label}: unmatched recvs");
    assert_eq!(dag.lamport_violations(), 0, "{label}: Lamport violations");

    let mut sends = BTreeMap::new();
    for p in &trace.parties {
        for r in &p.causal {
            for s in &r.sends {
                let link = (p.party, s.peer, s.link_seq);
                assert!(
                    sends.insert(link, (r.index, *s)).is_none(),
                    "{label}: {link:?} twice"
                );
            }
        }
    }
    let mut matched = 0;
    for p in &trace.parties {
        for r in &p.causal {
            for recv in &r.recvs {
                let link = (recv.peer, p.party, recv.link_seq);
                let (index, send) = sends.remove(&link).expect("a receive has its send");
                assert_eq!(index, r.index, "{label}: {link:?} crossed rounds");
                assert_eq!(
                    MsgStamp {
                        peer: p.party,
                        ..*recv
                    },
                    send,
                    "{label}: {link:?}"
                );
                matched += 1;
            }
        }
    }
    assert!(
        sends.is_empty(),
        "{label}: sends with no receive: {sends:?}"
    );
    assert_eq!(matched, dag.edges().len(), "{label}: DAG edges");
}

#[test]
fn the_release_program_stamps_alike_on_every_backend() {
    let faults = FaultSpec::seeded(31)
        .with_delay(Duration::ZERO, Duration::from_micros(200))
        .with_drop(0.2)
        .with_retransmit(Duration::from_micros(100), 32);
    let backends = [
        ("in-process", NetBackend::InProcess, None),
        ("tcp", NetBackend::tcp(), None),
        ("tcp + faults", NetBackend::tcp(), Some(faults)),
    ];
    let mut reference: Option<Causal> = None;
    for (label, backend, faults) in backends {
        let cfg = MpcConfig::semi_honest(4)
            .with_seed(17)
            .with_latency(Duration::ZERO)
            .with_trace(true)
            .with_backend(backend)
            .with_faults(faults);
        let run = MpcEngine::new(cfg)
            .try_run::<M61, _, _>(release_program)
            .expect("the release program completes");
        assert_released(&run.outputs);
        let trace = run.trace.as_ref().expect("traced");
        assert_stamps_match(trace, label);
        let seen = causal(trace);
        match &reference {
            None => reference = Some(seen),
            Some(want) => assert_eq!(&seen, want, "{label}: causal rounds differ"),
        }
    }
}

fn batch(rows: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = 6;
    let scale = 1.0 / (n as f64).sqrt();
    let values = (0..rows * n).map(|_| rng.gen_range(-scale..scale));
    Matrix::from_vec(rows, n, values.collect())
}

#[test]
fn a_resident_session_restarts_link_sequences_as_its_rounds_continue() {
    let mut reference: Option<Vec<Causal>> = None;
    for (label, backend) in [
        ("in-process", NetBackend::InProcess),
        ("tcp", NetBackend::tcp()),
    ] {
        let cfg = VflConfig::fast(3)
            .with_seed(23)
            .with_trace(true)
            .with_backend(backend);
        let partition = ColumnPartition::even(6, 3);
        let mut stream = StreamCov::new(partition, 256.0, 30.0, &cfg, 16, 1.0).unwrap();
        let mut releases = Vec::new();
        for release in 0..2 {
            stream.ingest(&batch(4, 40 + release));
            let out = stream.release().expect("the release completes");
            let trace = out.trace.as_ref().expect("traced");
            assert_stamps_match(trace, &format!("{label} release {release}"));
            releases.push(causal(trace));
        }
        // Both releases send alike, so the second is the first two rounds
        // on: the mesh's round counter continues, while link sequences and
        // Lamport clocks start again with the run.
        let shifted: Causal = releases[0]
            .iter()
            .map(|party| {
                let later = |(index, ls, lr, sends, recvs): &(u64, u64, u64, Vec<_>, Vec<_>)| {
                    let on = |s: &MsgStamp| MsgStamp {
                        round: s.round + 2,
                        ..*s
                    };
                    let (sends, recvs) = (sends.iter().map(on), recvs.iter().map(on));
                    (index + 2, *ls, *lr, sends.collect(), recvs.collect())
                };
                party.iter().map(later).collect()
            })
            .collect();
        assert!(releases[0].iter().all(|party| party.len() == 2), "{label}");
        assert_eq!(releases[1], shifted, "{label}: second release");
        match &reference {
            None => reference = Some(releases),
            Some(want) => assert_eq!(&releases, want, "{label}: causal rounds differ"),
        }
    }
}
