//! Virtual-clock and traffic accounting for simulated MPC runs.
//!
//! The paper evaluates BGW timing by simulating all parties on a single
//! machine and charging a fixed latency (0.1 s) per message hop (Section VI,
//! Tables II/IV/V). In a synchronous protocol every party's messages within
//! a round travel in parallel, so the network cost is
//! `rounds * latency`; local computation is measured as wall time of the
//! concurrently-running party threads.

use std::collections::BTreeMap;
use std::time::Duration;

use serde::Serialize;

/// Per-phase traffic and timing breakdown.
#[derive(Clone, Debug, Default, PartialEq, Serialize)]
pub struct PhaseStats {
    /// Synchronous communication rounds spent in this phase.
    pub rounds: u64,
    /// Total point-to-point messages (over all parties): each non-empty
    /// frame is one message.
    pub messages: u64,
    /// Total payload bytes (over all parties).
    pub bytes: u64,
    /// Total field elements sent (over all parties). Identical across
    /// backends — the work measure that `messages` divides into frames.
    pub elems: u64,
    /// Wall time spent in this phase (max over parties).
    pub wall: Duration,
}

impl PhaseStats {
    /// Simulated time for this phase under a per-hop latency.
    pub fn simulated_time(&self, latency: Duration) -> Duration {
        self.wall + latency * self.rounds as u32
    }
}

/// Aggregated statistics of one MPC run.
#[derive(Clone, Debug, Default, Serialize)]
pub struct RunStats {
    /// Totals across the whole protocol.
    pub total: PhaseStats,
    /// Named phases (e.g. `"input"`, `"compute"`, `"dp_noise"`, `"open"`).
    pub phases: BTreeMap<String, PhaseStats>,
    /// The per-hop latency this run was configured with.
    pub latency: Duration,
}

impl RunStats {
    /// Total simulated time (wall + rounds * latency), the paper's
    /// "overall time" column.
    ///
    /// This assumes the paper's *uniform-latency model*: every message hop
    /// costs exactly `latency`, regardless of payload size, congestion, or
    /// which pair of parties it connects. Real networks are not uniform —
    /// the `netcheck_timing` experiment binary runs the same workload over
    /// loopback TCP and reports measured wall-clock next to this prediction
    /// so the model's accuracy can be checked empirically.
    pub fn simulated_time(&self) -> Duration {
        self.total.simulated_time(self.latency)
    }

    /// Simulated time attributed to one phase (the paper's "time for noise
    /// injection" column uses phase `"dp_noise"`). Returns zero if the phase
    /// never ran.
    pub fn phase_time(&self, name: &str) -> Duration {
        self.phases
            .get(name)
            .map(|p| p.simulated_time(self.latency))
            .unwrap_or_default()
    }
}

impl std::fmt::Display for RunStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} rounds, {} messages ({} elems), {:.2} MiB, simulated {:.2?} ({:?}/hop)",
            self.total.rounds,
            self.total.messages,
            self.total.elems,
            self.total.bytes as f64 / (1024.0 * 1024.0),
            self.simulated_time(),
            self.latency,
        )?;
        // Per-phase rows use the same units as the totals line: message
        // and element counts and MiB, not raw bytes.
        for (name, p) in &self.phases {
            writeln!(
                f,
                "  {name:<12} {:>3} rounds  {:>8} messages  {:>8} elems  {:>8.2} MiB  {:.2?}",
                p.rounds,
                p.messages,
                p.elems,
                p.bytes as f64 / (1024.0 * 1024.0),
                p.simulated_time(self.latency),
            )?;
        }
        Ok(())
    }
}

/// Per-party accumulator, merged into [`RunStats`] by the engine.
#[derive(Clone, Debug, Default)]
pub(crate) struct PartyStats {
    pub total: PhaseStats,
    pub phases: BTreeMap<String, PhaseStats>,
}

impl PartyStats {
    /// Record one exchange round: `messages` sent by this party carrying
    /// `bytes` payload (`elems` field elements), attributed to `phase`.
    pub fn record_round(&mut self, phase: &str, messages: u64, bytes: u64, elems: u64) {
        self.total.rounds += 1;
        self.total.messages += messages;
        self.total.bytes += bytes;
        self.total.elems += elems;
        let p = self.phases.entry(phase.to_string()).or_default();
        p.rounds += 1;
        p.messages += messages;
        p.bytes += bytes;
        p.elems += elems;
    }

    /// Attribute wall time to a phase.
    pub fn record_wall(&mut self, phase: &str, wall: Duration) {
        self.total.wall += wall;
        self.phases.entry(phase.to_string()).or_default().wall += wall;
    }
}

/// Merge per-party stats into run totals.
///
/// Rounds and wall time are maxima over parties (parties run concurrently in
/// lock-step); messages and bytes are sums (total network traffic).
pub(crate) fn merge(parties: Vec<PartyStats>, latency: Duration) -> RunStats {
    let mut out = RunStats {
        latency,
        ..Default::default()
    };
    for ps in parties {
        out.total.rounds = out.total.rounds.max(ps.total.rounds);
        out.total.wall = out.total.wall.max(ps.total.wall);
        out.total.messages += ps.total.messages;
        out.total.bytes += ps.total.bytes;
        out.total.elems += ps.total.elems;
        for (name, p) in ps.phases {
            let agg = out.phases.entry(name).or_default();
            agg.rounds = agg.rounds.max(p.rounds);
            agg.wall = agg.wall.max(p.wall);
            agg.messages += p.messages;
            agg.bytes += p.bytes;
            agg.elems += p.elems;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulated_time_combines_wall_and_rounds() {
        let p = PhaseStats {
            rounds: 10,
            messages: 0,
            bytes: 0,
            elems: 0,
            wall: Duration::from_millis(500),
        };
        assert_eq!(
            p.simulated_time(Duration::from_millis(100)),
            Duration::from_millis(1500)
        );
    }

    #[test]
    fn stats_serialize_and_display_consistent_units() {
        let mut a = PartyStats::default();
        a.record_round("open", 3, 3 * 1024 * 1024, 9);
        a.record_wall("open", Duration::from_millis(5));
        let merged = merge(vec![a], Duration::from_millis(100));

        let json = merged.to_json();
        assert!(json.contains("\"rounds\":1"));
        assert!(json.contains("\"open\""));
        assert!(json.contains("\"latency\":0.1"));

        let shown = format!("{merged}");
        // Totals and per-phase rows agree on units: MiB and message counts.
        assert!(shown.contains("3.00 MiB"), "{shown}");
        assert!(shown.lines().count() >= 2);
        let phase_row = shown
            .lines()
            .nth(1)
            .expect("RunStats Display should emit a per-phase row after the totals line");
        assert!(phase_row.contains("messages"), "{phase_row}");
        assert!(phase_row.contains("MiB"), "{phase_row}");
        assert!(!phase_row.contains("bytes"), "{phase_row}");
    }

    #[test]
    fn merge_maxes_rounds_and_sums_traffic() {
        let mut a = PartyStats::default();
        a.record_round("x", 3, 300, 30);
        a.record_round("x", 3, 300, 30);
        let mut b = PartyStats::default();
        b.record_round("x", 3, 300, 30);
        b.record_round("x", 3, 300, 30);
        b.record_wall("x", Duration::from_millis(7));
        let merged = merge(vec![a, b], Duration::from_millis(100));
        assert_eq!(merged.total.rounds, 2);
        assert_eq!(merged.total.messages, 12);
        assert_eq!(merged.total.bytes, 1200);
        assert_eq!(merged.total.elems, 120);
        assert_eq!(merged.total.wall, Duration::from_millis(7));
        assert_eq!(merged.simulated_time(), Duration::from_millis(207));
        assert_eq!(merged.phase_time("x"), Duration::from_millis(207));
        assert_eq!(merged.phase_time("absent"), Duration::ZERO);
    }
}
