//! The message DAG comes from each party's schedule, not from the wire:
//! each exchange is one round record, and its flows are read off the
//! senders' `dests`, received at the receiver's record of the same round.
//! These tests hold those flows to the run's own message count and to each
//! other — on the release-shaped program (uneven input sharing, then the
//! sparse masked sum) over every backend, and over two releases of a
//! resident `StreamCov` session, whose rounds continue while each release's
//! flow ids start again.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqm_field::M61;
use sqm_linalg::Matrix;
use sqm_mpc::{FaultSpec, MpcConfig, MpcEngine, NetBackend, RunStats};
use sqm_obs::trace::Trace;
use sqm_obs::{critical_path, flows};
use sqm_vfl::{ColumnPartition, StreamCov, VflConfig};

#[path = "../../mpc/tests/common/mod.rs"]
mod common;
use common::{assert_released, release_program};

/// What a trace says about causality, with no clock reading in it: its
/// flow edges as `(from, to, round)`, in flow-id order.
type Flows = Vec<(usize, usize, u64)>;

/// `trace`'s flows: one per message the run counted, each between two
/// round records of its round, and the critical path is the virtual clock.
fn checked_flows(trace: &Trace, stats: &RunStats, label: &str) -> Flows {
    let edges = flows(trace);
    assert_eq!(
        edges.len() as u64,
        stats.total.messages,
        "{label}: one flow per message"
    );
    assert_eq!(
        critical_path(trace).total,
        stats.simulated_time(),
        "{label}: critical path"
    );
    let kept = |party: usize, round: u64| {
        let rounds = &trace.parties[party].rounds;
        rounds.iter().find(|r| r.index == round)
    };
    for e in &edges {
        let send = kept(e.from, e.round).expect("a flow has its send");
        assert!(send.dests.contains(&e.to), "{label}: {e:?}");
        assert!(kept(e.to, e.round).is_some(), "{label}: {e:?}");
    }
    edges.iter().map(|e| (e.from, e.to, e.round)).collect()
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
    let mut reference: Option<Flows> = None;
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
        let seen = checked_flows(trace, &run.stats, label);
        match &reference {
            None => reference = Some(seen),
            Some(want) => assert_eq!(&seen, want, "{label}: flows differ"),
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
    let mut reference: Option<Vec<Flows>> = None;
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
            let label = format!("{label} release {release}");
            releases.push(checked_flows(trace, &out.stats, &label));
        }
        // Both releases send alike, so the second's flows are the first's
        // two rounds on: the mesh's round counter continues, while each
        // release's flows on a link (and so its flow ids) start again.
        let rounds = |flows: &Flows| {
            let mut r: Vec<u64> = flows.iter().map(|&(_, _, round)| round).collect();
            r.sort_unstable();
            r.dedup();
            r
        };
        assert_eq!(rounds(&releases[0]), [0, 1], "{label}");
        let shifted: Flows = releases[0]
            .iter()
            .map(|&(from, to, round)| (from, to, round + 2))
            .collect();
        assert_eq!(releases[1], shifted, "{label}: second release");
        match &reference {
            None => reference = Some(releases),
            Some(want) => assert_eq!(&releases, want, "{label}: flows differ"),
        }
    }
}
