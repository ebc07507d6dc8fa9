//! Session scheduler: bounded admission, per-tenant FIFO, worker pool.
//!
//! The server multiplexes many tenant sessions over a small pool of worker
//! threads. Three invariants drive the design:
//!
//! 1. **Bounded admission.** The total number of queued requests never
//!    exceeds `queue_bound`; a submit over the bound is refused with the
//!    typed [`ServeError::Overloaded`] *without* being enqueued, so memory
//!    use is bounded regardless of offered load.
//! 2. **Per-tenant serialization.** A tenant's requests run strictly in
//!    submission order and never concurrently with each other: the worker
//!    takes the [`Tenant`] out of its slot for the duration of one request.
//!    Because every MPC seed stream lives inside the tenant, N interleaved
//!    sessions produce bit-identical releases to the same sessions run
//!    serially (the scheduler adds no nondeterminism to results).
//! 3. **Failure isolation.** A party crash poisons only that tenant's
//!    session ([`ServeError::SessionFailed`]); the worker survives and the
//!    server keeps serving every other tenant.
//!
//! Shutdown is a drain: already-queued requests complete, new submits get
//! [`ServeError::ShuttingDown`], then workers exit.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Instant;

use sqm_obs::metrics;
use sqm_obs::span::{RequestContext, RequestOutcome, SpanCollector, SpanConfig, EXEC, QUEUE, ROOT};

use crate::error::ServeError;
use crate::tenant::{ReleaseReply, Tenant, TenantConfig, TenantReport};

/// A request against one tenant's session.
#[derive(Clone, Debug)]
pub enum Request {
    /// Queue records for the next release (no MPC, cheap).
    Ingest { records: Vec<Vec<f64>> },
    /// One DP release over everything ingested so far.
    Release,
}

/// The successful half of a response.
#[derive(Clone, Debug)]
pub enum Reply {
    Ingested { pending_rows: usize },
    Released(ReleaseReply),
}

/// What a ticket resolves to.
pub type Response = Result<Reply, ServeError>;

/// A oneshot handle for an admitted request; `wait()` blocks until a
/// worker has executed it.
#[derive(Debug)]
pub struct Ticket {
    cell: Arc<(Mutex<Option<Response>>, Condvar)>,
}

impl Ticket {
    fn new() -> (Ticket, Ticket) {
        let cell = Arc::new((Mutex::new(None), Condvar::new()));
        (
            Ticket {
                cell: Arc::clone(&cell),
            },
            Ticket { cell },
        )
    }

    fn fulfill(&self, response: Response) {
        let (lock, cvar) = &*self.cell;
        *lock.lock().unwrap() = Some(response);
        cvar.notify_all();
    }

    /// Block until the request has been executed.
    pub fn wait(self) -> Response {
        let (lock, cvar) = &*self.cell;
        let mut slot = lock.lock().unwrap();
        loop {
            if let Some(response) = slot.take() {
                return response;
            }
            slot = cvar.wait(slot).unwrap();
        }
    }
}

/// Scheduler knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Hard cap on requests queued across all tenants.
    pub queue_bound: usize,
    /// Worker threads executing tenant requests.
    pub workers: usize,
    /// Request-scoped tracing: `Some` gives the server its own
    /// [`SpanCollector`] and every admitted request a span tree. `None`
    /// (the default) records nothing and costs nothing per request.
    pub tracing: Option<SpanConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            queue_bound: 64,
            workers: 4,
            tracing: None,
        }
    }
}

struct Job {
    request: Request,
    ticket: Ticket,
    /// Span tree for this request; `Some` iff the server traces.
    ctx: Option<RequestContext>,
    /// When `submit` admitted the job (the queue-wait span's start).
    enqueued: Instant,
}

#[derive(Clone, Copy, PartialEq)]
enum SlotState {
    /// No queued work; tenant is in the slot.
    Idle,
    /// Queued work; tenant name is in the ready queue.
    Ready,
    /// A worker holds the tenant and is executing one request.
    Busy,
}

struct TenantSlot {
    /// `None` exactly while a worker is executing (state == Busy).
    tenant: Option<Tenant>,
    queue: VecDeque<Job>,
    state: SlotState,
    /// Report as of the last time the tenant was in the slot, so
    /// `/status` never blocks on a busy tenant.
    last_report: TenantReport,
    /// Next request sequence number for this tenant. Per-tenant (not
    /// global) so ids are deterministic under per-tenant FIFO no matter
    /// how workers interleave tenants.
    next_seq: u64,
}

struct State {
    tenants: BTreeMap<String, TenantSlot>,
    /// Tenant names with queued work and no worker on them, FIFO.
    ready: VecDeque<String>,
    /// Jobs queued across all tenants (excludes the one a worker holds).
    queued_total: usize,
    /// High-water mark of `queued_total` (scheduler-invariant tests).
    max_queued_observed: usize,
    shutting_down: bool,
}

/// The multi-tenant serving scheduler.
pub struct Server {
    config: ServerConfig,
    state: Mutex<State>,
    /// Signals workers when the ready queue or the shutdown flag changes.
    work: Condvar,
    workers: Mutex<Vec<thread::JoinHandle<()>>>,
    started: Instant,
    /// Per-server span collector; `Some` iff `config.tracing` is set.
    spans: Option<Arc<SpanCollector>>,
}

impl Server {
    /// Start the worker pool. The returned server is shared behind `Arc`
    /// so the HTTP layer and tests can submit from many threads.
    pub fn start(config: ServerConfig) -> Arc<Server> {
        assert!(config.queue_bound > 0, "queue_bound must be positive");
        assert!(config.workers > 0, "workers must be positive");
        let server = Arc::new(Server {
            config: config.clone(),
            state: Mutex::new(State {
                tenants: BTreeMap::new(),
                ready: VecDeque::new(),
                queued_total: 0,
                max_queued_observed: 0,
                shutting_down: false,
            }),
            work: Condvar::new(),
            workers: Mutex::new(Vec::new()),
            started: Instant::now(),
            spans: config
                .tracing
                .clone()
                .map(|cfg| Arc::new(SpanCollector::new(cfg))),
        });
        let mut handles = server.workers.lock().unwrap();
        for i in 0..config.workers {
            let s = Arc::clone(&server);
            handles.push(
                thread::Builder::new()
                    .name(format!("sqm-serve-worker-{i}"))
                    .spawn(move || s.worker_loop())
                    .expect("spawn serve worker"),
            );
        }
        drop(handles);
        server
    }

    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// The span collector, when request tracing is configured.
    pub fn spans(&self) -> Option<Arc<SpanCollector>> {
        self.spans.clone()
    }

    /// Seconds since the server started (for `/status`).
    pub fn uptime_secs(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Create a tenant session (meshes its parties immediately).
    pub fn add_tenant(&self, config: TenantConfig) -> Result<(), ServeError> {
        let name = config.name.clone();
        {
            let state = self.state.lock().unwrap();
            if state.shutting_down {
                return Err(ServeError::ShuttingDown);
            }
            if state.tenants.contains_key(&name) {
                return Err(ServeError::TenantExists { tenant: name });
            }
        }
        // Mesh outside the lock; creation is per-tenant work and must not
        // stall workers. The re-check below closes the create/create race.
        let tenant = Tenant::create(config)?;
        let mut state = self.state.lock().unwrap();
        if state.shutting_down {
            return Err(ServeError::ShuttingDown);
        }
        if state.tenants.contains_key(&name) {
            return Err(ServeError::TenantExists { tenant: name });
        }
        let last_report = tenant.report();
        state.tenants.insert(
            name,
            TenantSlot {
                tenant: Some(tenant),
                queue: VecDeque::new(),
                state: SlotState::Idle,
                last_report,
                next_seq: 0,
            },
        );
        Ok(())
    }

    /// Admit one request, or refuse it with typed backpressure. Never
    /// blocks on MPC work; the returned [`Ticket`] does.
    pub fn submit(&self, tenant: &str, request: Request) -> Result<Ticket, ServeError> {
        let mut state = self.state.lock().unwrap();
        if state.shutting_down {
            return Err(ServeError::ShuttingDown);
        }
        if !state.tenants.contains_key(tenant) {
            return Err(ServeError::UnknownTenant {
                tenant: tenant.to_string(),
            });
        }
        if state.queued_total >= self.config.queue_bound {
            metrics::counter_add("serve.overloaded_rejections", 1);
            metrics::counter_add(&format!("serve.overloaded_rejections.{tenant}"), 1);
            return Err(ServeError::Overloaded {
                queued: state.queued_total,
                bound: self.config.queue_bound,
            });
        }
        let (mine, theirs) = Ticket::new();
        let slot = state.tenants.get_mut(tenant).unwrap();
        let ctx = self.spans.as_ref().map(|_| {
            let seq = slot.next_seq;
            slot.next_seq += 1;
            let kind = match &request {
                Request::Ingest { .. } => "ingest",
                Request::Release => "release",
            };
            RequestContext::new(tenant, seq, kind)
        });
        slot.queue.push_back(Job {
            request,
            ticket: theirs,
            ctx,
            enqueued: Instant::now(),
        });
        metrics::gauge_set(
            &format!("serve.tenant_queue_depth.{tenant}"),
            slot.queue.len() as f64,
        );
        if slot.state == SlotState::Idle {
            slot.state = SlotState::Ready;
            state.ready.push_back(tenant.to_string());
        }
        state.queued_total += 1;
        state.max_queued_observed = state.max_queued_observed.max(state.queued_total);
        metrics::gauge_set("serve.queue_depth", state.queued_total as f64);
        metrics::gauge_set(
            "serve.queue_saturation",
            state.queued_total as f64 / self.config.queue_bound as f64,
        );
        drop(state);
        self.work.notify_one();
        Ok(mine)
    }

    /// Submit and wait: the synchronous request path the protocol uses.
    pub fn call(&self, tenant: &str, request: Request) -> Response {
        self.submit(tenant, request)?.wait()
    }

    /// Reports for every tenant, in name order. Busy tenants report their
    /// state as of their last completed request.
    pub fn status(&self) -> Vec<TenantReport> {
        let state = self.state.lock().unwrap();
        state
            .tenants
            .values()
            .map(|slot| match &slot.tenant {
                Some(t) => t.report(),
                None => slot.last_report.clone(),
            })
            .collect()
    }

    /// Current queued-request count across all tenants.
    pub fn queue_depth(&self) -> usize {
        self.state.lock().unwrap().queued_total
    }

    /// Per-tenant queued-request counts, in name order (for `/status`).
    pub fn tenant_queue_depths(&self) -> BTreeMap<String, usize> {
        let state = self.state.lock().unwrap();
        state
            .tenants
            .iter()
            .map(|(name, slot)| (name.clone(), slot.queue.len()))
            .collect()
    }

    /// High-water mark of the admission queue since start.
    pub fn max_queued_observed(&self) -> usize {
        self.state.lock().unwrap().max_queued_observed
    }

    /// Drain: refuse new work, finish everything queued, join workers.
    /// Idempotent.
    pub fn shutdown(&self) {
        {
            let mut state = self.state.lock().unwrap();
            state.shutting_down = true;
        }
        self.work.notify_all();
        let mut handles = self.workers.lock().unwrap();
        for h in handles.drain(..) {
            let _ = h.join();
        }
    }

    fn worker_loop(&self) {
        loop {
            let (name, tenant, job) = {
                let mut state = self.state.lock().unwrap();
                loop {
                    if let Some(name) = state.ready.pop_front() {
                        let slot = state.tenants.get_mut(&name).unwrap();
                        debug_assert!(slot.state == SlotState::Ready);
                        let job = slot.queue.pop_front().expect("ready tenant has a job");
                        let tenant = slot.tenant.take().expect("ready tenant is in its slot");
                        slot.state = SlotState::Busy;
                        state.queued_total -= 1;
                        metrics::gauge_set("serve.queue_depth", state.queued_total as f64);
                        break (name, tenant, job);
                    }
                    if state.shutting_down {
                        // Ready queue is empty. Any remaining queued jobs
                        // belong to busy tenants; their workers will
                        // re-ready them, so wait unless fully drained.
                        if state.queued_total == 0 {
                            return;
                        }
                    }
                    state = self.work.wait(state).unwrap();
                }
            };
            let mut tenant = tenant;
            // Measure the two top-level phases once and define the span
            // tree from them: root := queue_wait + exec, so the tree's
            // end-to-end duration equals the scheduler's measurement
            // *exactly* (assert_eq'd in tests — no epsilon).
            let queue_wait = job.enqueued.elapsed();
            let mut ctx = job.ctx;
            let started = Instant::now();
            let response = Self::execute(&mut tenant, job.request, ctx.as_mut());
            let exec = started.elapsed();
            if matches!(response, Ok(Reply::Released(_))) {
                metrics::histogram_record("serve.release_wall_ns", exec.as_nanos() as f64);
            }
            metrics::histogram_record(
                &format!("serve.request_duration_ns.{name}"),
                (queue_wait + exec).as_nanos() as f64,
            );
            metrics::histogram_record(
                &format!("serve.request_phase_ns.queue.{name}"),
                queue_wait.as_nanos() as f64,
            );
            {
                let mut state = self.state.lock().unwrap();
                let slot = state.tenants.get_mut(&name).unwrap();
                slot.last_report = tenant.report();
                slot.tenant = Some(tenant);
                let report = &slot.last_report;
                metrics::gauge_set(
                    &format!("serve.tenant_spent_epsilon.{name}"),
                    report.spent_epsilon,
                );
                metrics::gauge_set(
                    &format!("serve.tenant_remaining_epsilon.{name}"),
                    report.remaining_epsilon,
                );
                let uptime = self.started.elapsed().as_secs_f64();
                if uptime > 0.0 {
                    metrics::gauge_set(
                        &format!("serve.tenant_eps_burn_per_s.{name}"),
                        report.spent_epsilon / uptime,
                    );
                }
                metrics::gauge_set(
                    &format!("serve.tenant_queue_depth.{name}"),
                    slot.queue.len() as f64,
                );
                if slot.queue.is_empty() {
                    slot.state = SlotState::Idle;
                } else {
                    slot.state = SlotState::Ready;
                    state.ready.push_back(name);
                }
            }
            if let (Some(collector), Some(mut ctx)) = (self.spans.as_ref(), ctx) {
                ctx.set_duration(QUEUE, queue_wait);
                ctx.set_duration(EXEC, exec);
                ctx.set_duration(ROOT, queue_wait + exec);
                let outcome = match &response {
                    Ok(_) => RequestOutcome::Ok,
                    Err(ServeError::BudgetExhausted { .. }) => RequestOutcome::Refused,
                    Err(ServeError::SessionFailed { .. }) => RequestOutcome::Failed,
                    Err(_) => RequestOutcome::Error,
                };
                collector.finish(ctx, outcome);
            }
            // Wake a peer for the re-readied tenant, and — during a drain —
            // let blocked workers re-check the exit condition.
            self.work.notify_all();
            job.ticket.fulfill(response);
        }
    }

    fn execute(
        tenant: &mut Tenant,
        request: Request,
        ctx: Option<&mut RequestContext>,
    ) -> Response {
        match request {
            Request::Ingest { records } => tenant
                .ingest(&records)
                .map(|pending_rows| Reply::Ingested { pending_rows }),
            Request::Release => tenant.release_spanned(ctx).map(Reply::Released),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqm_mpc::{FaultSpec, TransportError};
    use std::time::Duration;

    fn records(n: usize, cols: usize, salt: u64) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                (0..cols)
                    .map(|j| {
                        ((i * cols + j) as f64 * 0.29 + salt as f64 * 0.11).sin()
                            / (cols as f64).sqrt()
                    })
                    .collect()
            })
            .collect()
    }

    fn tenant_cfg(name: &str, seed: u64) -> TenantConfig {
        let mut cfg = TenantConfig::new(name);
        cfg.seed = seed;
        cfg.mu = 200.0;
        // Scheduler tests exercise scheduling, not budgets.
        cfg.budget_eps = f64::INFINITY;
        cfg
    }

    /// Checksum of one tenant's full run: every release's covariance bits.
    fn run_tenant_plan(server: &Server, name: &str, seed: u64, rounds: usize) -> Vec<Vec<u64>> {
        let mut sums = Vec::new();
        for r in 0..rounds {
            let reply = server
                .call(
                    name,
                    Request::Ingest {
                        records: records(3 + r, 3, seed.wrapping_add(r as u64)),
                    },
                )
                .unwrap();
            assert!(matches!(reply, Reply::Ingested { .. }));
            match server.call(name, Request::Release).unwrap() {
                Reply::Released(rel) => {
                    sums.push(rel.covariance.iter().map(|v| v.to_bits()).collect())
                }
                other => panic!("expected release, got {other:?}"),
            }
        }
        sums
    }

    #[test]
    fn interleaved_sessions_are_bit_identical_to_serial() {
        let tenants = ["alpha", "beta", "gamma"];
        // Serial: one worker, one tenant at a time, sequential calls.
        let serial = {
            let server = Server::start(ServerConfig {
                queue_bound: 64,
                workers: 1,
                tracing: None,
            });
            let mut out = Vec::new();
            for (i, name) in tenants.iter().enumerate() {
                server.add_tenant(tenant_cfg(name, 40 + i as u64)).unwrap();
                out.push(run_tenant_plan(&server, name, 40 + i as u64, 3));
            }
            server.shutdown();
            out
        };
        // Interleaved: four workers, all tenants driven concurrently.
        let interleaved = {
            let server = Server::start(ServerConfig {
                queue_bound: 64,
                workers: 4,
                tracing: None,
            });
            for (i, name) in tenants.iter().enumerate() {
                server.add_tenant(tenant_cfg(name, 40 + i as u64)).unwrap();
            }
            let handles: Vec<_> = tenants
                .iter()
                .enumerate()
                .map(|(i, name)| {
                    let server = Arc::clone(&server);
                    let name = name.to_string();
                    thread::spawn(move || run_tenant_plan(&server, &name, 40 + i as u64, 3))
                })
                .collect();
            let out: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            server.shutdown();
            out
        };
        assert_eq!(serial, interleaved);
    }

    #[test]
    fn queue_never_exceeds_bound_and_overload_is_typed() {
        let server = Server::start(ServerConfig {
            queue_bound: 2,
            workers: 1,
            tracing: None,
        });
        server.add_tenant(tenant_cfg("t", 7)).unwrap();
        // Hold the single worker on a release that outlasts the flood (two
        // rounds, each sleeping a fixed injected 250 ms), so the overload
        // does not depend on out-running a free worker.
        let mut slow = tenant_cfg("slow", 8);
        let hold = Duration::from_millis(250);
        slow.faults = Some(FaultSpec::seeded(1).with_delay(hold, hold));
        server.add_tenant(slow).unwrap();
        let records_in = Request::Ingest {
            records: records(3, 3, 1),
        };
        server.call("slow", records_in).unwrap();
        let held = server.submit("slow", Request::Release).unwrap();
        while server.queue_depth() > 0 {
            thread::yield_now(); // until the worker has taken the release
        }
        // Flood from many threads; some must be refused, none may queue
        // past the bound.
        let handles: Vec<_> = (0..16)
            .map(|i| {
                let server = Arc::clone(&server);
                thread::spawn(move || {
                    server.submit(
                        "t",
                        Request::Ingest {
                            records: records(2, 3, i),
                        },
                    )
                })
            })
            .collect();
        let mut admitted = 0;
        let mut overloaded = 0;
        for h in handles {
            match h.join().unwrap() {
                Ok(ticket) => {
                    admitted += 1;
                    ticket.wait().unwrap();
                }
                Err(ServeError::Overloaded { queued, bound }) => {
                    overloaded += 1;
                    assert_eq!(bound, 2);
                    assert!(queued >= bound);
                }
                Err(other) => panic!("unexpected error {other:?}"),
            }
        }
        assert!(admitted >= 1);
        assert!(overloaded >= 1, "flood of 16 over bound 2 must overload");
        assert!(
            server.max_queued_observed() <= 2,
            "queue exceeded its bound: {}",
            server.max_queued_observed()
        );
        assert!(matches!(held.wait(), Ok(Reply::Released(_))));
        server.shutdown();
    }

    #[test]
    fn party_crash_fails_only_that_tenant() {
        let server = Server::start(ServerConfig::default());
        let mut doomed = tenant_cfg("doomed", 11);
        // Crash party 1 in the first release's second (open) round.
        doomed.faults = Some(FaultSpec::seeded(5).with_crash(1, 1));
        server.add_tenant(doomed).unwrap();
        server.add_tenant(tenant_cfg("healthy", 12)).unwrap();

        server
            .call(
                "doomed",
                Request::Ingest {
                    records: records(3, 3, 1),
                },
            )
            .unwrap();
        let err = server.call("doomed", Request::Release).unwrap_err();
        match &err {
            ServeError::SessionFailed { tenant, error } => {
                assert_eq!(tenant, "doomed");
                assert_eq!(*error, TransportError::Crashed { party: 1, round: 1 });
            }
            other => panic!("expected SessionFailed, got {other:?}"),
        }
        // The poisoned session stays failed...
        assert!(matches!(
            server.call("doomed", Request::Release).unwrap_err(),
            ServeError::SessionFailed { .. }
        ));
        // ...while other tenants (and new ones) keep working.
        let sums = run_tenant_plan(&server, "healthy", 12, 2);
        assert_eq!(sums.len(), 2);
        server.add_tenant(tenant_cfg("late", 13)).unwrap();
        assert_eq!(run_tenant_plan(&server, "late", 13, 1).len(), 1);
        let reports = server.status();
        assert!(reports.iter().any(|r| r.name == "doomed" && r.failed));
        assert!(reports.iter().any(|r| r.name == "healthy" && !r.failed));
        server.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_work_then_refuses() {
        let server = Server::start(ServerConfig {
            queue_bound: 8,
            workers: 2,
            tracing: None,
        });
        server.add_tenant(tenant_cfg("d", 3)).unwrap();
        let tickets: Vec<_> = (0..4)
            .map(|i| {
                server
                    .submit(
                        "d",
                        Request::Ingest {
                            records: records(1, 3, i),
                        },
                    )
                    .unwrap()
            })
            .collect();
        server.shutdown();
        // Everything admitted before shutdown completed.
        for t in tickets {
            t.wait().unwrap();
        }
        assert!(matches!(
            server.submit("d", Request::Release).unwrap_err(),
            ServeError::ShuttingDown
        ));
        assert!(matches!(
            server.add_tenant(tenant_cfg("late", 4)).unwrap_err(),
            ServeError::ShuttingDown
        ));
    }

    #[test]
    fn unknown_and_duplicate_tenants_are_typed() {
        let server = Server::start(ServerConfig::default());
        assert!(matches!(
            server.submit("ghost", Request::Release).unwrap_err(),
            ServeError::UnknownTenant { .. }
        ));
        server.add_tenant(tenant_cfg("a", 1)).unwrap();
        assert!(matches!(
            server.add_tenant(tenant_cfg("a", 2)).unwrap_err(),
            ServeError::TenantExists { .. }
        ));
        server.shutdown();
    }
}
