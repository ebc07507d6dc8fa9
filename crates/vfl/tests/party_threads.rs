//! A streaming session starts its party threads once: a thousand releases
//! on one `StreamCov` start no thread at all after `StreamCov::new`, on
//! either backend.
//!
//! Threads are counted process-wide, so this file is its own test binary
//! and holds a single test.

use std::thread;

use sqm_linalg::Matrix;
use sqm_vfl::{covariance_streaming_oracle, ColumnPartition, NetBackend, StreamCov, VflConfig};

/// How many threads this process has started: a new thread's `ThreadId`
/// is the next value of a process-wide counter, printed `ThreadId(N)`.
fn threads_started() -> u64 {
    let id = thread::spawn(|| thread::current().id())
        .join()
        .expect("the probe thread ends cleanly");
    let printed = format!("{id:?}");
    let digits = printed
        .trim_start_matches("ThreadId(")
        .trim_end_matches(')');
    digits.parse().expect("a ThreadId prints as ThreadId(N)")
}

#[test]
fn a_thousand_releases_start_no_thread() {
    const RELEASES: usize = 1000;
    let partition = ColumnPartition::even(3, 3);
    let (gamma, mu) = (64.0, 9.0);
    let batch = Matrix::from_rows(&[vec![0.5, -0.2, 0.1]]);
    for backend in [NetBackend::InProcess, NetBackend::tcp()] {
        let cfg = VflConfig::fast(3).with_seed(2).with_backend(backend);
        let mut stream =
            StreamCov::new(partition.clone(), gamma, mu, &cfg, RELEASES, 1.0).expect("mesh");
        let before = threads_started();
        for _ in 0..RELEASES {
            stream.ingest(&batch);
            stream.release().expect("fault-free release");
        }
        // The probe itself is the one thread started since.
        assert_eq!(threads_started(), before + 1);
        let batches = vec![batch.clone(); RELEASES];
        let last = stream.release().expect("fault-free release");
        let oracle = covariance_streaming_oracle(&batches, &partition, gamma, mu, &cfg, RELEASES);
        assert_eq!(last.c_hat, oracle);
    }
}
