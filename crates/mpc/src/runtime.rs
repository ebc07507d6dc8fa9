//! The party runtime the engine stands on: the one party worker every run
//! executes on, the only places a party thread is spawned, and the only
//! place a round is exchanged and reported ([`PartyLink::exchange`]).
//!
//! A worker holds one party's endpoint and runs the jobs it is given on
//! it, one after another: start the party's observer, run the program and
//! catch its unwind, report. A one-shot run ([`run_once`]) starts one
//! worker per endpoint on a scoped thread with a queue of one job; a
//! [`PartyPool`] keeps its workers on threads of their own, each with its
//! endpoint and a per-party state, for as long as a session lives, and a
//! run posts each of them one job.
//!
//! [`crate::engine`] decides *what* goes into a round's payloads and what
//! to do with the ones that come back; the [`PartyLink`] moves them and
//! hands each round to the party's observer (`sqm_obs::round`), which
//! charges it to the party's one tally and reports it to whatever the
//! run's config attached — trace and causal stamps, a live collector, a
//! cost profiler. This module names none of them and keeps no tally.
//! Payloads cross the transport bare: the observer stamps sends and
//! receives from the party's own schedule (which peers it sent to, which
//! peers' payloads arrived non-empty), so nothing but the payloads
//! travels.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

use sqm_field::PrimeField;
use sqm_net::transport::Transport;
use sqm_net::TransportError;
use sqm_obs::round::{PartyObserver, PartyStats, RunObserver};
use sqm_obs::trace::PartyTrace;

use crate::engine::{MpcConfig, MpcRun, RunOnMesh};

/// Unwind payload a party program aborts with when its transport fails.
/// The worker catches it and converts it back into the typed
/// [`TransportError`]; any other panic fails the run as a panic.
struct PartyAbort(TransportError);

/// Rank errors for reporting when several parties fail at once: the root
/// cause (a crash, an exhausted retransmit budget) outranks the secondary
/// disconnects the survivors observe.
fn error_priority(e: &TransportError) -> u8 {
    match e {
        TransportError::Crashed { .. } => 6,
        TransportError::RetransmitExhausted { .. } => 5,
        TransportError::Wire { .. } => 4,
        TransportError::ConnectFailed { .. } => 3,
        TransportError::Timeout { .. } => 2,
        TransportError::Io { .. } => 1,
        TransportError::Disconnected { .. } => 0,
    }
}

/// One party's connection to the run: its mesh endpoint and its observer,
/// which owns the phase its rounds and wall time are charged to.
pub(crate) struct PartyLink<F: PrimeField> {
    endpoint: Box<dyn Transport<F>>,
    observer: PartyObserver,
}

impl<F: PrimeField> PartyLink<F> {
    /// This party's index in the mesh.
    pub(crate) fn id(&self) -> usize {
        self.endpoint.id()
    }

    /// Index of this party's next round; continues across runs on a reused
    /// mesh.
    pub(crate) fn round(&self) -> u64 {
        self.endpoint.round()
    }

    /// This party's observer (the protocol layers' cost hooks ask it for
    /// the run's profiler and the current phase).
    pub(crate) fn observer(&self) -> &PartyObserver {
        &self.observer
    }

    /// Switch accounting to a named phase (e.g. `"dp_noise"`). Wall time and
    /// rounds accrued so far are attributed to the previous phase.
    pub(crate) fn set_phase(&mut self, name: &str) {
        self.observer.set_phase(name);
    }

    /// One synchronous round: ship `outgoing[j]` to every party `j`, return
    /// what every party shipped here, and report the round. A transport
    /// failure unwinds out of the SPMD program with the typed error; the
    /// party's worker turns it back into `Err`.
    pub(crate) fn exchange(&mut self, outgoing: Vec<Vec<F>>) -> Vec<Vec<F>> {
        let me = self.endpoint.id();
        // The round index, read before the exchange bumps it.
        let round = self.endpoint.round();
        // A real message is a non-empty payload to another party, on both
        // sides of the round.
        let real = |payloads: &[Vec<F>], peer: usize| peer != me && !payloads[peer].is_empty();
        self.observer
            .send(round, (0..outgoing.len()).filter(|&j| real(&outgoing, j)));
        let outcome = match self.endpoint.exchange(outgoing) {
            Ok(outcome) => outcome,
            // `resume_unwind` does not run the panic hook: this is a
            // controlled error return, not a bug to report on stderr.
            Err(e) => panic::resume_unwind(Box::new(PartyAbort(e))),
        };
        let incoming = &outcome.incoming;
        self.observer.round(
            round,
            (outcome.messages, outcome.bytes, outcome.elems),
            outcome.events,
            outcome.link_walls,
            (0..incoming.len()).filter(|&i| real(incoming, i)),
        );
        outcome.incoming
    }
}

/// The runtime's view of a party program: take the party's link and its
/// state, hand the link back with the output.
pub(crate) type Program<'a, F, S, T> =
    Arc<dyn Fn(PartyLink<F>, &mut S) -> (T, PartyLink<F>) + Send + Sync + 'a>;

/// One party's part of one run: the run's observers and its program.
struct Job<'a, F: PrimeField, S, T> {
    run: Arc<RunObserver>,
    program: Program<'a, F, S, T>,
}

/// Why a party's job ended without an output.
enum Failure {
    Transport(TransportError),
    /// The program panicked with this message.
    Panic(String),
}

/// What a worker reports for each job: the program's output with the
/// party's finished tally and trace, or why there is none.
type Report<T> = Result<(T, (PartyStats, Option<PartyTrace>)), Failure>;

/// The one party worker, whatever its lifetime: for each job it starts the
/// party's observer, runs the program on the party's link and state and
/// reports the outcome. It hands the endpoint back when the jobs run out.
/// A failed job ends the worker: the unwind dropped the link and with it
/// the endpoint, which unblocks any peer waiting on it.
fn work<'a, F, S, T>(
    mut endpoint: Box<dyn Transport<F>>,
    state: &mut S,
    jobs: impl IntoIterator<Item = Job<'a, F, S, T>>,
    mut report: impl FnMut(Report<T>),
) -> Option<Box<dyn Transport<F>>>
where
    F: PrimeField,
{
    for Job { run, program } in jobs {
        // The party's phase clock starts on its own thread, as its job
        // starts. The caller finishes the run once every party let go of it.
        let observer = run.party(endpoint.id());
        drop(run);
        let link = PartyLink { endpoint, observer };
        // A transport failure aborts the program mid-round via a PartyAbort
        // unwind; catch it here and surface the typed error.
        match panic::catch_unwind(AssertUnwindSafe(|| program(link, state))) {
            Ok((out, link)) => {
                endpoint = link.endpoint;
                report(Ok((out, link.observer.finish())));
            }
            Err(payload) => {
                report(Err(match payload.downcast::<PartyAbort>() {
                    Ok(abort) => Failure::Transport(abort.0),
                    Err(other) => Failure::Panic(panic_message(&*other)),
                }));
                return None;
            }
        }
    }
    Some(endpoint)
}

/// What a panic payload says, when it is a message.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    match payload.downcast_ref::<&str>() {
        Some(message) => message.to_string(),
        None => payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default(),
    }
}

/// The observers of a run about to start, shared with its workers.
fn begin(config: &MpcConfig) -> Arc<RunObserver> {
    Arc::new(RunObserver::begin(
        config.n_parties,
        config.seed,
        config.latency,
        config.trace,
        config.live.clone(),
        config.prof.clone(),
    ))
}

/// Merge the parties' reports, in party order, into the run. A panicked
/// program panics here as `"party thread panicked"`; otherwise the most
/// diagnostic of the parties' transport errors fails the run.
fn conclude<T>(
    run: Arc<RunObserver>,
    reports: Vec<Report<T>>,
) -> Result<MpcRun<T>, TransportError> {
    // Dropped unfinished — the panic below — the observer records the run
    // as failed.
    let run = Arc::into_inner(run).expect("every worker lets go of the run before it reports");
    let mut outputs = Vec::with_capacity(reports.len());
    let mut parties = Vec::with_capacity(reports.len());
    let mut errors = Vec::new();
    for report in reports {
        match report {
            Ok((out, finished)) => {
                outputs.push(out);
                parties.push(finished);
            }
            Err(Failure::Transport(e)) => errors.push(e),
            Err(Failure::Panic(message)) => panic!("party thread panicked: {message}"),
        }
    }
    if let Some(err) = errors.into_iter().max_by_key(error_priority) {
        run.fail(err.kind(), err.party(), err.round());
        return Err(err);
    }
    let (stats, trace) = run.finish(parties);
    Ok(MpcRun {
        outputs,
        stats,
        trace,
    })
}

/// Run `program` once at every endpoint: one worker per endpoint on a
/// scoped thread, its queue the one job. On success the endpoints are
/// returned for the next run to reuse; on a transport error they are
/// consumed (the mesh is in an undefined round state) and the most
/// diagnostic of the parties' errors is the `Err`.
pub(crate) fn run_once<F, T>(
    config: &MpcConfig,
    endpoints: Vec<Box<dyn Transport<F>>>,
    program: Program<'_, F, (), T>,
) -> Result<RunOnMesh<F, T>, TransportError>
where
    F: PrimeField,
    T: Send,
{
    assert_eq!(
        endpoints.len(),
        config.n_parties,
        "endpoint mesh size must match config.n_parties"
    );
    let run = begin(config);
    let (reports, mesh): (Vec<_>, Vec<_>) = thread::scope(|s| {
        let workers: Vec<_> = endpoints
            .into_iter()
            .map(|endpoint| {
                let job = Job {
                    run: Arc::clone(&run),
                    program: Arc::clone(&program),
                };
                s.spawn(move || {
                    let mut reported = None;
                    let endpoint = work(endpoint, &mut (), [job], |r| reported = Some(r));
                    (reported.expect("a worker reports its job"), endpoint)
                })
            })
            .collect();
        let joined = workers
            .into_iter()
            .map(|w| w.join().expect("a worker catches panics"));
        joined.unzip()
    });
    let run = conclude(run, reports)?;
    let mesh = mesh
        .into_iter()
        .map(|e| e.expect("a party that finished keeps its endpoint"));
    Ok((run, mesh.collect()))
}

/// Resident party workers: one per endpoint, each on a thread of its own
/// from [`PartyPool::new`] until the pool drops, holding its party's
/// endpoint and a per-party state `S` across runs. A run
/// ([`crate::MpcEngine::try_run_pool`]) posts one job to every worker and
/// collects one report from each, so it spawns and joins no thread.
///
/// A failed run — a transport error or a panicking party program — shuts
/// the pool down: every worker ends and drops its endpoint and state, so no
/// peer is left blocked on it. A run on a pool that has shut down panics.
pub struct PartyPool<F: PrimeField, S, T> {
    workers: Vec<Worker<F, S, T>>,
}

/// A resident worker's queue, its report channel and its thread.
struct Worker<F: PrimeField, S, T> {
    jobs: Sender<Job<'static, F, S, T>>,
    reports: Receiver<Report<T>>,
    thread: JoinHandle<()>,
}

impl<F, S, T> PartyPool<F, S, T>
where
    F: PrimeField,
    S: Send + 'static,
    T: Send + 'static,
{
    /// Start one worker per endpoint: party `i` holds `endpoints[i]` and
    /// `states[i]`.
    pub fn new(endpoints: Vec<Box<dyn Transport<F>>>, states: Vec<S>) -> Self {
        assert_eq!(endpoints.len(), states.len(), "one state per endpoint");
        let workers = endpoints
            .into_iter()
            .zip(states)
            .map(|(endpoint, mut state)| {
                let (jobs, queue) = channel();
                let (reply, reports) = channel();
                let thread = thread::Builder::new()
                    .name(format!("sqm-party-{}", endpoint.id()))
                    .spawn(move || {
                        // The pool stops listening only as it shuts down.
                        work(endpoint, &mut state, queue, |r| drop(reply.send(r)));
                    })
                    .expect("spawn a party worker");
                Worker {
                    jobs,
                    reports,
                    thread,
                }
            })
            .collect();
        PartyPool { workers }
    }

    /// Run `program` once at every worker and merge their reports, as
    /// [`run_once`] does.
    pub(crate) fn run(
        &mut self,
        config: &MpcConfig,
        program: Program<'static, F, S, T>,
    ) -> Result<MpcRun<T>, TransportError> {
        assert_eq!(
            self.workers.len(),
            config.n_parties,
            "pool size must match config.n_parties (a failed run shuts a pool down)"
        );
        let run = begin(config);
        for worker in &self.workers {
            let job = Job {
                run: Arc::clone(&run),
                program: Arc::clone(&program),
            };
            worker
                .jobs
                .send(job)
                .expect("a live pool's workers take jobs");
        }
        let reports: Vec<Report<T>> = self
            .workers
            .iter()
            .map(|w| w.reports.recv().expect("a worker reports every job"))
            .collect();
        if reports.iter().any(Result::is_err) {
            self.shut_down();
        }
        conclude(run, reports)
    }
}

impl<F: PrimeField, S, T> PartyPool<F, S, T> {
    /// Close every worker's queue and join it: each ends, dropping its
    /// endpoint and state.
    fn shut_down(&mut self) {
        for Worker { jobs, thread, .. } in self.workers.drain(..) {
            drop(jobs);
            // A worker catches its programs' panics; there is nothing to
            // report from a drop.
            let _ = thread.join();
        }
    }
}

impl<F: PrimeField, S, T> Drop for PartyPool<F, S, T> {
    fn drop(&mut self) {
        self.shut_down();
    }
}
