//! Deterministic, seed-driven fault injection over any [`Transport`].
//!
//! The fault plan is a *pure function* of `(seed, from, to, round)`: two
//! runs with the same [`FaultSpec`] see byte-identical delay/drop schedules,
//! which makes fault scenarios reproducible in tests and keeps the protocol
//! output bit-identical to a fault-free run whenever the run completes
//! (faults perturb timing, never payloads).
//!
//! Three fault classes, composable over either backend:
//!
//! * **per-link delay** — each real message on link `from -> to` is held
//!   for a uniform draw from the configured range before the round's
//!   payloads move;
//! * **message drop with retransmit-on-timeout** — a dropped transmission
//!   costs the sender one [`FaultSpec::retransmit_timeout`] before the
//!   retransmit; exhausting [`FaultSpec::max_retransmits`] fails the round
//!   with [`TransportError::RetransmitExhausted`] naming the destination
//!   party and round;
//! * **single-party crash** — the configured party stops cold at the
//!   configured round with [`TransportError::Crashed`]; its dropped
//!   endpoint then surfaces at the survivors as
//!   [`TransportError::Disconnected`] on the same link.
//!
//! Because the schedule is symmetric knowledge (both ends could compute
//! it), the sender simulates the drop/retransmit cycle locally as a sleep
//! and then performs one real transmission — the receiver just waits.
//! `RunStats` traffic counts therefore stay those of *successful*
//! payloads; the retry traffic shows up in the metrics registry
//! (`net.fault.retransmits`, `net.fault.dropped_messages`) and in the
//! round's [`NetEvent`]s ([`RoundOutcome::events`]) instead.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqm_field::PrimeField;
use sqm_obs::metrics;
use sqm_obs::trace::NetEvent;

use crate::error::TransportError;
use crate::transport::{RoundOutcome, Transport};

/// Crash `party` at the start of its `round`-th exchange (0-based).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashPoint {
    pub party: usize,
    pub round: u64,
}

/// A deterministic fault plan.
#[derive(Clone, Debug)]
pub struct FaultSpec {
    /// Seed of the fault schedule (independent of the protocol seed).
    pub seed: u64,
    /// Uniform per-message delay range `[min, max)`, if any.
    pub delay: Option<(Duration, Duration)>,
    /// Probability that any single transmission attempt is dropped.
    pub drop_prob: f64,
    /// Retransmits allowed per message before the round fails.
    pub max_retransmits: u32,
    /// Time a sender waits before concluding an attempt was dropped.
    pub retransmit_timeout: Duration,
    /// Optional single-party crash.
    pub crash: Option<CrashPoint>,
}

impl FaultSpec {
    /// A no-op plan with the given schedule seed: no delay, no drops, no
    /// crash, a 5 ms retransmit timeout and a budget of 10 retransmits.
    pub fn seeded(seed: u64) -> Self {
        FaultSpec {
            seed,
            delay: None,
            drop_prob: 0.0,
            max_retransmits: 10,
            retransmit_timeout: Duration::from_millis(5),
            crash: None,
        }
    }

    /// Delay every real message by a uniform draw from `[min, max)`.
    pub fn with_delay(mut self, min: Duration, max: Duration) -> Self {
        assert!(min <= max, "delay range inverted");
        self.delay = Some((min, max));
        self
    }

    /// Drop each transmission attempt independently with probability `p`.
    pub fn with_drop(mut self, p: f64) -> Self {
        assert!((0.0..1.0).contains(&p), "drop probability out of range");
        self.drop_prob = p;
        self
    }

    /// Configure the retransmit budget and per-attempt timeout.
    pub fn with_retransmit(mut self, timeout: Duration, max_retransmits: u32) -> Self {
        self.retransmit_timeout = timeout;
        self.max_retransmits = max_retransmits;
        self
    }

    /// Crash `party` at the start of round `round`.
    pub fn with_crash(mut self, party: usize, round: u64) -> Self {
        self.crash = Some(CrashPoint { party, round });
        self
    }
}

/// The schedule for one message on one link in one round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkFault {
    /// Injected propagation delay.
    pub delay: Duration,
    /// Transmission attempts dropped before the one that succeeds.
    pub dropped_attempts: u32,
    /// Whether the drop sequence exhausted the retransmit budget
    /// (initial attempt plus `max_retransmits` retransmits all dropped).
    pub exhausted: bool,
}

fn mix(seed: u64, from: usize, to: usize, round: u64) -> u64 {
    // Distinct odd multipliers decorrelate the coordinates; StdRng's
    // seed_from_u64 runs SplitMix on top, so simple mixing suffices.
    seed ^ (from as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (to as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
        ^ round.wrapping_mul(0x1656_67B1_9E37_79F9)
}

/// The deterministic fault schedule for link `from -> to` at `round` —
/// a pure function of the spec, so identical seeds give identical
/// schedules (assert-tested).
pub fn schedule(spec: &FaultSpec, from: usize, to: usize, round: u64) -> LinkFault {
    let mut rng = StdRng::seed_from_u64(mix(spec.seed, from, to, round));
    let delay = match spec.delay {
        None => Duration::ZERO,
        Some((min, max)) => {
            let span = max.saturating_sub(min);
            min + span.mul_f64(rng.gen::<f64>())
        }
    };
    let mut dropped_attempts = 0u32;
    let mut exhausted = false;
    if spec.drop_prob > 0.0 {
        // Attempt k is dropped with probability `drop_prob`; the budget is
        // one initial transmission plus `max_retransmits` retransmits.
        while rng.gen_bool(spec.drop_prob) {
            dropped_attempts += 1;
            if dropped_attempts > spec.max_retransmits {
                exhausted = true;
                break;
            }
        }
    }
    LinkFault {
        delay,
        dropped_attempts,
        exhausted,
    }
}

/// A [`Transport`] decorator applying a [`FaultSpec`] to every round.
pub struct FaultTransport<F: PrimeField> {
    inner: Box<dyn Transport<F>>,
    spec: FaultSpec,
}

impl<F: PrimeField> FaultTransport<F> {
    pub fn new(inner: Box<dyn Transport<F>>, spec: FaultSpec) -> Self {
        FaultTransport { inner, spec }
    }
}

impl<F: PrimeField> Transport<F> for FaultTransport<F> {
    fn id(&self) -> usize {
        self.inner.id()
    }

    fn n_parties(&self) -> usize {
        self.inner.n_parties()
    }

    fn round(&self) -> u64 {
        self.inner.round()
    }

    fn exchange(&mut self, outgoing: Vec<Vec<F>>) -> Result<RoundOutcome<F>, TransportError> {
        let me = self.inner.id();
        let round = self.inner.round();

        if let Some(crash) = self.spec.crash {
            if crash.party == me && round >= crash.round {
                metrics::counter_add("net.fault.crashes", 1);
                // Returning drops nothing yet — the party thread unwinds,
                // dropping this endpoint, which the peers observe as a
                // disconnect on their next receive.
                return Err(TransportError::Crashed {
                    party: me,
                    round: crash.round,
                });
            }
        }

        // Faults apply to real messages only (non-empty, non-loopback).
        // The sender experiences its own drops as retransmit timeouts; the
        // round's injected cost is the worst link, since sends to distinct
        // destinations proceed concurrently on a real network.
        let mut injected = Duration::ZERO;
        let mut events = Vec::new();
        for (to, payload) in outgoing.iter().enumerate() {
            if to == me || payload.is_empty() {
                continue;
            }
            let fault = schedule(&self.spec, me, to, round);
            if fault.exhausted {
                metrics::counter_add("net.fault.exhausted", 1);
                return Err(TransportError::RetransmitExhausted {
                    party: to,
                    round,
                    attempts: fault.dropped_attempts,
                });
            }
            if fault.dropped_attempts > 0 {
                metrics::counter_add("net.fault.dropped_messages", 1);
                metrics::counter_add("net.fault.retransmits", fault.dropped_attempts as u64);
                events.push(NetEvent {
                    party: me,
                    round,
                    peer: to,
                    kind: "retransmit".to_string(),
                    value: fault.dropped_attempts as f64,
                });
            }
            if fault.delay > Duration::ZERO {
                events.push(NetEvent {
                    party: me,
                    round,
                    peer: to,
                    kind: "delay".to_string(),
                    value: fault.delay.as_secs_f64(),
                });
            }
            let link_cost = fault.delay + self.spec.retransmit_timeout * fault.dropped_attempts;
            injected = injected.max(link_cost);
        }
        if injected > Duration::ZERO {
            metrics::histogram_record("net.fault.injected_delay_s", injected.as_secs_f64());
            std::thread::sleep(injected);
        }

        let mut outcome = self.inner.exchange(outgoing)?;
        outcome.events.extend(events);
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::mesh;
    use sqm_field::M61;
    use std::thread;

    #[test]
    fn schedule_is_deterministic_and_seed_sensitive() {
        let spec = FaultSpec::seeded(42)
            .with_delay(Duration::from_micros(10), Duration::from_micros(500))
            .with_drop(0.3);
        let mut differs = false;
        for from in 0..4 {
            for to in 0..4 {
                for round in 0..16 {
                    let a = schedule(&spec, from, to, round);
                    let b = schedule(&spec, from, to, round);
                    assert_eq!(a, b, "same spec must give the same schedule");
                    let other = schedule(
                        &FaultSpec {
                            seed: 43,
                            ..spec.clone()
                        },
                        from,
                        to,
                        round,
                    );
                    differs |= other != a;
                }
            }
        }
        assert!(differs, "changing the seed must change the schedule");
    }

    #[test]
    fn schedule_varies_across_links_and_rounds() {
        let spec = FaultSpec::seeded(7).with_delay(Duration::ZERO, Duration::from_millis(10));
        let d0 = schedule(&spec, 0, 1, 0).delay;
        let d1 = schedule(&spec, 1, 0, 0).delay;
        let d2 = schedule(&spec, 0, 1, 1).delay;
        assert!(d0 != d1 || d0 != d2, "schedule should not be constant");
    }

    #[test]
    fn crash_fires_at_the_configured_round_and_party() {
        let spec = FaultSpec::seeded(1).with_crash(1, 2);
        let endpoints = mesh::<M61>(2);
        let errors: Vec<Option<TransportError>> = thread::scope(|s| {
            let handles: Vec<_> = endpoints
                .into_iter()
                .map(|ep| {
                    let spec = spec.clone();
                    s.spawn(move || {
                        let mut t = FaultTransport::new(Box::new(ep), spec);
                        for _ in 0..5 {
                            let payload = vec![M61::from_u64(Transport::<M61>::id(&t) as u64)];
                            match t.exchange(vec![payload; 2]) {
                                Ok(_) => {}
                                Err(e) => return Some(e),
                            }
                        }
                        None
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(
            errors[1],
            Some(TransportError::Crashed { party: 1, round: 2 })
        );
        // The survivor observes the crashed party's dropped endpoint as a
        // disconnect on the same link at the same round.
        match errors[0].as_ref().expect("survivor must also fail") {
            TransportError::Disconnected { party, round } => {
                assert_eq!(*party, 1);
                assert_eq!(*round, 2);
            }
            other => panic!("expected Disconnected, got {other:?}"),
        }
    }

    #[test]
    fn drops_delay_but_do_not_corrupt() {
        let spec = FaultSpec::seeded(5)
            .with_drop(0.4)
            .with_retransmit(Duration::from_micros(200), 50);
        let endpoints = mesh::<M61>(3);
        let results: Vec<Vec<Vec<M61>>> = thread::scope(|s| {
            let handles: Vec<_> = endpoints
                .into_iter()
                .map(|ep| {
                    let spec = spec.clone();
                    s.spawn(move || {
                        let mut t = FaultTransport::new(Box::new(ep), spec);
                        let id = Transport::<M61>::id(&t) as u64;
                        let mut got = Vec::new();
                        for round in 0..8u64 {
                            let out = t
                                .exchange(vec![vec![M61::from_u64(id * 1000 + round)]; 3])
                                .unwrap();
                            got.push(out.incoming.into_iter().flatten().collect::<Vec<_>>());
                        }
                        got
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for result in &results {
            for (round, payloads) in result.iter().enumerate() {
                let expect: Vec<M61> = (0..3)
                    .map(|i| M61::from_u64(i * 1000 + round as u64))
                    .collect();
                assert_eq!(payloads, &expect);
            }
        }
    }

    #[test]
    fn exhausted_retransmit_budget_is_a_typed_error() {
        // With drop probability ~1 every attempt fails, so the first real
        // message must exhaust its budget and name its destination.
        let spec = FaultSpec::seeded(3)
            .with_drop(0.999_999)
            .with_retransmit(Duration::from_micros(1), 2);
        let mut endpoints = mesh::<M61>(2);
        let ep = endpoints.remove(0);
        let mut t = FaultTransport::new(Box::new(ep), spec);
        let err = t.exchange(vec![vec![M61::ONE]; 2]).unwrap_err();
        assert_eq!(
            err,
            TransportError::RetransmitExhausted {
                party: 1,
                round: 0,
                attempts: 3,
            }
        );
    }

    #[test]
    fn retransmits_surface_as_events() {
        let spec = FaultSpec::seeded(11)
            .with_drop(0.5)
            .with_retransmit(Duration::from_micros(50), 64);
        // Find a round where the schedule actually drops something.
        let mut witnessed = false;
        for round in 0..64 {
            if schedule(&spec, 0, 1, round).dropped_attempts > 0 {
                witnessed = true;
                break;
            }
        }
        assert!(witnessed, "expected at least one drop in 64 rounds");

        let endpoints = mesh::<M61>(2);
        let event_counts: Vec<usize> = thread::scope(|s| {
            let handles: Vec<_> = endpoints
                .into_iter()
                .map(|ep| {
                    let spec = spec.clone();
                    s.spawn(move || {
                        let mut t = FaultTransport::new(Box::new(ep), spec);
                        (0..64)
                            .flat_map(|_| t.exchange(vec![vec![M61::ONE]; 2]).unwrap().events)
                            .filter(|e| e.kind == "retransmit")
                            .count()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(event_counts.iter().sum::<usize>() > 0);
    }
}
