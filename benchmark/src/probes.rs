//! Layer probes: each times calls into one layer's public functions, at
//! the shape a workload uses them, and reports a median. They run in the
//! traced run only, after the measured window, and do not depend on which
//! workload the run drove.

use std::hint::black_box;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::Rng;
use sqm::accounting::{default_alpha_grid, skellam_rdp, PrivacyOdometer, RdpCurve};
use sqm::core::lr_sensitivity;
use sqm::core::quantize::quantize_vec;
use sqm::field::{PrimeField, M61};
use sqm::linalg::Matrix;
use sqm::mpc::shamir::{lagrange_at_zero, share_secrets_batch};
use sqm::mpc::{MpcConfig, MpcEngine};
use sqm::net::{build_mesh, Frame, NetBackend};
use sqm::obs::PrivacyLedger;
use sqm::sampling::sample_skellam;
use sqm::serve::{ServeHttp, Server, ServerConfig, Tenant};
use sqm::vfl::{gradient_sum_skellam, ColumnPartition, StreamCov, VflConfig, VflSession};

use crate::data;
use crate::spans::Tracer;
use crate::stats;
use crate::workloads::{
    self, Limit, RunLog, ServeMix, StreamLoop, Workload, GAMMA, MU, SERVE_BATCH_ROWS, SERVE_GAMMA,
    SERVE_INGESTS_PER_RELEASE, SERVE_MU, STREAM_CLIENTS, STREAM_COLS, WARMUP_CYCLES,
};

const NS: f64 = 1e9;
const US: f64 = 1e6;

/// Median of `samples` timings, in seconds.
fn median_secs(samples: usize, mut timed: impl FnMut() -> Duration) -> f64 {
    let walls: Vec<f64> = (0..samples).map(|_| timed().as_secs_f64()).collect();
    stats::median(&walls)
}

/// Seconds per call: the median over `samples` timings of `calls`
/// back-to-back calls.
fn secs_per_call(samples: usize, calls: usize, mut call: impl FnMut()) -> f64 {
    median_secs(samples, || {
        let start = Instant::now();
        for _ in 0..calls {
            call();
        }
        start.elapsed()
    }) / calls as f64
}

fn median_wall(walls: &[Duration]) -> f64 {
    stats::median(&walls.iter().map(Duration::as_secs_f64).collect::<Vec<_>>())
}

/// What a probe reports: `(metric, value)` pairs.
type Out = Vec<(&'static str, f64)>;
type Probe = fn(&mut StdRng, &mut Out);

/// Run every probe. Spans go under one `probes` root in `tracer`, one
/// child per probe.
pub fn run_all(seed: u64, tracer: &mut Tracer) -> Out {
    let probes: [(&str, Probe); 13] = [
        ("field", field),
        ("sampling", sampling),
        ("core", core),
        ("shamir", shamir),
        ("wire", wire),
        ("net", net),
        ("engine", engine),
        ("vfl", stream_twin),
        ("obs", trace_overhead),
        ("accounting", accounting),
        ("session", session),
        ("serve", serve),
        ("serve.http", http),
    ];
    let mut rng = data::rng_for(seed, "probes");
    let mut out = Out::new();
    let start = Instant::now();
    let parent = tracer.span(None, "probes", u64::MAX, start, Duration::ZERO);
    for (layer, probe) in probes {
        let start = Instant::now();
        probe(&mut rng, &mut out);
        tracer.span(Some(parent), layer, u64::MAX, start, start.elapsed());
    }
    tracer.close(parent, start.elapsed());
    out
}

fn field_elements(rng: &mut StdRng, len: usize) -> Vec<M61> {
    (0..len).map(|_| M61::random(rng)).collect()
}

/// The `compute` phase's loop: a length-1000 multiply-accumulate.
fn field(rng: &mut StdRng, out: &mut Out) {
    let (a, b) = (field_elements(rng, 1000), field_elements(rng, 1000));
    let per_dot = secs_per_call(31, 2000, || {
        let mut acc = M61::ZERO;
        for (&x, &y) in black_box(&a).iter().zip(black_box(&b)) {
            acc += x * y;
        }
        black_box(acc);
    });
    out.push(("field.m61_mac_ns", per_dot / 1000.0 * NS));
}

/// One party's share of the noise at P = 4: `Sk(mu / P)`.
fn sampling(rng: &mut StdRng, out: &mut Out) {
    let local_mu = MU / 4.0;
    let per_draw = secs_per_call(31, 20_000, || {
        black_box(sample_skellam(rng, local_mu));
    });
    out.push(("sampling.skellam_draw_ns", per_draw * NS));
}

fn core(rng: &mut StdRng, out: &mut Out) {
    let column: Vec<f64> = (0..1000).map(|_| rng.gen_range(-0.1..0.1)).collect();
    let per_vec = secs_per_call(31, 100, || {
        black_box(quantize_vec(rng, black_box(&column), GAMMA));
    });
    out.push(("core.quantize_ns", per_vec / 1000.0 * NS));
}

/// `share_secrets_batch` at the `lr_train` input width (101 columns of
/// 1000 records) and the `cov_clients` reduction width (100-column
/// triangle), single-threaded; and the Lagrange weights an engine run
/// builds once.
fn shamir(rng: &mut StdRng, out: &mut Out) {
    let secrets = field_elements(rng, 101_000);
    let per_batch = secs_per_call(11, 1, || {
        black_box(share_secrets_batch(rng, &secrets, 1, 4, 1, usize::MAX));
    });
    out.push(("shamir.share_ns", per_batch / secrets.len() as f64 * NS));

    let secrets = field_elements(rng, 5_050);
    let per_batch = secs_per_call(21, 10, || {
        black_box(share_secrets_batch(rng, &secrets, 4, 10, 1, usize::MAX));
    });
    out.push(("shamir.share_p10_ns", per_batch / secrets.len() as f64 * NS));

    let parties: Vec<usize> = (0..4).collect();
    let per_call = secs_per_call(31, 1000, || {
        black_box(lagrange_at_zero::<M61>(black_box(&parties)));
    });
    out.push(("shamir.lagrange_us", per_call * US));
}

/// The `stream_tcp` input frame: 100 records of 5 columns per link.
fn wire(rng: &mut StdRng, out: &mut Out) {
    let elements = field_elements(rng, 500);
    let per_frame = secs_per_call(31, 1000, || {
        black_box(Frame::<M61>::encode(black_box(&elements), None));
    });
    out.push(("wire.encode_ns", per_frame / elements.len() as f64 * NS));

    let frame = Frame::<M61>::encode(&elements, None);
    let per_frame = median_secs(31, || {
        // `decode` consumes its buffer; the copies are made off the clock.
        let frames = vec![frame.clone(); 1000];
        let start = Instant::now();
        for f in frames {
            black_box(Frame::<M61>::decode(f).expect("a frame this code encoded"));
        }
        start.elapsed()
    }) / 1000.0;
    out.push(("wire.decode_ns", per_frame / elements.len() as f64 * NS));
}

/// One `Transport::exchange` of 500 elements per link on a prebuilt P = 4
/// mesh driven by four threads: party 0's median over 1000 rounds.
fn round_secs(backend: &NetBackend) -> f64 {
    let mesh = build_mesh::<M61>(4, backend, None).expect("probe mesh");
    let payload = &vec![M61::from_u64(7); 500];
    let walls: Vec<Vec<Duration>> = std::thread::scope(|s| {
        let parties: Vec<_> = mesh
            .into_iter()
            .map(|mut endpoint| {
                s.spawn(move || {
                    (0..1000)
                        .map(|_| {
                            let outgoing = vec![payload.clone(); 4];
                            let start = Instant::now();
                            endpoint.exchange(outgoing).expect("fault-free round");
                            start.elapsed()
                        })
                        .collect()
                })
            })
            .collect();
        parties
            .into_iter()
            .map(|p| p.join().expect("probe party"))
            .collect()
    });
    median_wall(&walls[0])
}

/// 64 builds: few enough to stay clear of `TIME_WAIT` exhaustion.
fn mesh_build_secs(backend: &NetBackend) -> f64 {
    median_secs(64, || {
        let start = Instant::now();
        let mesh = build_mesh::<M61>(4, backend, None).expect("probe mesh");
        let wall = start.elapsed();
        drop(mesh);
        wall
    })
}

fn net(_: &mut StdRng, out: &mut Out) {
    let tcp = NetBackend::tcp();
    out.push((
        "net.round_inproc_us",
        round_secs(&NetBackend::InProcess) * US,
    ));
    out.push(("net.round_tcp_us", round_secs(&tcp) * US));
    out.push((
        "net.mesh_build_inproc_us",
        mesh_build_secs(&NetBackend::InProcess) * US,
    ));
    out.push(("net.mesh_build_tcp_us", mesh_build_secs(&tcp) * US));
}

fn engine_for(parties: usize) -> MpcEngine {
    MpcEngine::new(MpcConfig::semi_honest(parties).with_latency(Duration::ZERO))
}

/// A run with no protocol: mesh, spawn, join and stats merge.
fn empty_run_secs(parties: usize) -> f64 {
    let engine = engine_for(parties);
    median_secs(201, || {
        let start = Instant::now();
        black_box(engine.run::<M61, usize, _>(|ctx| ctx.id));
        start.elapsed()
    })
}

fn engine(_: &mut StdRng, out: &mut Out) {
    out.push(("engine.empty_run_us", empty_run_secs(4) * US));
    out.push(("engine.empty_run_p10_us", empty_run_secs(10) * US));

    // The same empty program over a TCP mesh that is handed back and reused.
    let engine = engine_for(4);
    let mut mesh = Some(build_mesh::<M61>(4, &NetBackend::tcp(), None).expect("probe mesh"));
    let on_tcp = median_secs(201, || {
        let endpoints = mesh.take().expect("mesh handed back");
        let start = Instant::now();
        let (run, back) = engine
            .try_run_on::<M61, usize, _>(endpoints, |ctx| ctx.id)
            .expect("fault-free run");
        let wall = start.elapsed();
        black_box(run);
        mesh = Some(back);
        wall
    });
    out.push(("engine.empty_run_on_tcp_us", on_tcp * US));

    // One round each at the n = 20 triangle width, timed inside party 0.
    const WIDTH: usize = 210;
    let run = engine.run::<M61, Vec<[Duration; 3]>, _>(|ctx| {
        let mine = vec![M61::from_u64(ctx.id as u64 + 1); WIDTH];
        (0..200)
            .map(|_| {
                let start = Instant::now();
                let contributions = ctx.share_all(&mine);
                let share_all = start.elapsed();
                let start = Instant::now();
                let reduced = ctx.reduce_degree(&contributions[0]);
                let reduce_degree = start.elapsed();
                let start = Instant::now();
                black_box(ctx.open(&reduced));
                [share_all, reduce_degree, start.elapsed()]
            })
            .collect()
    });
    let names = [
        "engine.share_all_us",
        "engine.reduce_degree_us",
        "engine.open_us",
    ];
    for (i, name) in names.into_iter().enumerate() {
        let walls: Vec<Duration> = run.outputs[0].iter().map(|w| w[i]).collect();
        out.push((name, median_wall(&walls) * US));
    }
}

/// Median release wall of each of `loops` over `cycles` cycles, taking
/// turns cycle by cycle so that drift hits all alike.
fn stream_release_secs(loops: &mut [StreamLoop], cycles: usize) -> Vec<f64> {
    let mut logs: Vec<RunLog> = loops.iter().map(|_| RunLog::new(None)).collect();
    for stream in loops.iter_mut() {
        stream.drive(Limit::Cycles(WARMUP_CYCLES), &mut RunLog::new(None));
    }
    for _ in 0..cycles {
        for (stream, log) in loops.iter_mut().zip(&mut logs) {
            stream.drive(Limit::Cycles(1), log);
        }
    }
    logs.iter()
        .map(|log| {
            assert_eq!(log.failed, 0, "a stream probe release failed");
            median_wall(&log.samples.iter().map(|s| s.wall).collect::<Vec<_>>())
        })
        .collect()
}

/// The `stream_tcp` cycle on an in-process mesh: the twin that bypasses
/// the frame codec and the sockets.
fn stream_twin(rng: &mut StdRng, out: &mut Out) {
    let mut twin = [StreamLoop::new(rng, NetBackend::InProcess, false)];
    out.push((
        "vfl.stream_inproc_us",
        stream_release_secs(&mut twin, 500)[0] * US,
    ));
}

/// In-program tracing (`VflConfig::with_trace`) on the `stream_tcp` cycle.
fn trace_overhead(rng: &mut StdRng, out: &mut Out) {
    let mut pair = [false, true].map(|trace| StreamLoop::new(rng, NetBackend::tcp(), trace));
    let secs = stream_release_secs(&mut pair, 500);
    out.push(("obs.trace_overhead_share", secs[1] / secs[0] - 1.0));
}

/// What `VflSession` does around each `lr_train` release.
fn accounting(_: &mut StdRng, out: &mut Out) {
    let sens = lr_sensitivity(GAMMA, 100);
    let mut odometer = PrivacyOdometer::new(f64::INFINITY, 1e-5);
    let admit = secs_per_call(31, 20, || {
        let curve = RdpCurve::from_fn(&default_alpha_grid(), |a| skellam_rdp(a, sens, MU));
        black_box(odometer.admit(&curve));
    });
    out.push(("accounting.admit_us", admit * US));

    let mut ledger = PrivacyLedger::new(4, 1e-5);
    let record = secs_per_call(31, 20, || {
        black_box(ledger.record("gradient_sum", 100, GAMMA, MU, sens));
    });
    out.push(("accounting.ledger_record_us", record * US));
}

/// `VflSession::gradient_sum` against the bare protocol call on the
/// `lr_train` inputs. Each call's own protocol wall (`RunStats.total.wall`)
/// is taken off first: run-to-run variation of the 7 ms protocol would
/// otherwise bury the tens of microseconds the session adds.
fn session(rng: &mut StdRng, out: &mut Out) {
    let (m, d, p) = (1000, 100, 4);
    let data = data::labelled_matrix(rng, m, d);
    let partition = ColumnPartition::even(d + 1, p);
    let batch: Vec<usize> = (0..m).collect();
    let w = vec![0.01; d];
    let cfg = VflConfig::new(p).with_seed(rng.gen());
    let mut session = VflSession::new(partition.clone(), cfg.clone());
    let (mut direct, mut through) = (Vec::new(), Vec::new());
    for _ in 0..101 {
        let start = Instant::now();
        let bare = gradient_sum_skellam(&data, &partition, &batch, &w, GAMMA, MU, &cfg);
        direct.push(start.elapsed().saturating_sub(bare.stats.total.wall));
        let start = Instant::now();
        black_box(session.gradient_sum(&data, &batch, &w, GAMMA, MU));
        let wall = start.elapsed();
        let stats = session.stats().last().expect("a release was recorded");
        through.push(wall.saturating_sub(stats.total.wall));
    }
    let overhead = median_wall(&through) - median_wall(&direct);
    out.push(("session.overhead_us", overhead * US));
}

const SERVE_PROBE_CYCLES: usize = 200;

/// The `serve_mix` cycle — four 64-row ingests, one release — at each
/// depth of the serving stack.
fn serve(rng: &mut StdRng, out: &mut Out) {
    // One closed-loop client through the scheduler: the workload itself.
    let mut solo = ServeMix::new(rng, 1);
    solo.drive(Limit::Cycles(WARMUP_CYCLES), &mut RunLog::new(None));
    let mut log = RunLog::new(None);
    solo.drive(Limit::Cycles(SERVE_PROBE_CYCLES), &mut log);
    let releases: Vec<Duration> = log.samples.iter().map(|s| s.wall).collect();
    out.push(("serve.ingest_us", median_wall(&log.ingest_walls) * US));
    out.push(("serve.call_release_us", median_wall(&releases) * US));
    let call_cycle = median_wall(&log.cycle_walls);
    drop(solo);

    // Two clients: releases of different tenants beside each other on the
    // two workers. Too unsteady on two cores to gate, so it is kept here.
    let mut duo = ServeMix::new(rng, 2);
    duo.drive(Limit::Cycles(WARMUP_CYCLES), &mut RunLog::new(None));
    let mut log = RunLog::new(None);
    duo.drive(Limit::Cycles(SERVE_PROBE_CYCLES), &mut log);
    let releases: Vec<Duration> = log.samples.iter().map(|s| s.wall).collect();
    out.push(("serve.call_release_2c_us", median_wall(&releases) * US));
    out.push(("serve.max_queue_depth", duo.max_queue_depth() as f64));
    out.push(("serve.overloaded", log.overloaded as f64));
    drop(duo);

    // A bare tenant: validation, admit, MPC, ledger, reply encoding.
    let batches: Vec<Vec<Vec<f64>>> = (0..SERVE_INGESTS_PER_RELEASE)
        .map(|_| data::records(rng, SERVE_BATCH_ROWS, STREAM_COLS))
        .collect();
    let mut tenant =
        Tenant::create(workloads::serve_tenant_config("probe", rng.gen())).expect("probe tenant");
    let tenant_cycle = median_secs(SERVE_PROBE_CYCLES, || {
        let start = Instant::now();
        for batch in &batches {
            tenant.ingest(batch).expect("inside the envelope");
        }
        black_box(tenant.release().expect("inside the budget"));
        start.elapsed()
    });

    // A bare streaming session: the MPC alone.
    let matrices: Vec<Matrix> = batches.iter().map(|b| Matrix::from_rows(b)).collect();
    let cfg = VflConfig::fast(STREAM_CLIENTS).with_seed(rng.gen());
    let partition = ColumnPartition::even(STREAM_COLS, STREAM_CLIENTS);
    let mut stream =
        StreamCov::new(partition, SERVE_GAMMA, SERVE_MU, &cfg, 4_000_000, 1.0).expect("probe mesh");
    let stream_cycle = median_secs(SERVE_PROBE_CYCLES, || {
        let start = Instant::now();
        for batch in &matrices {
            stream.ingest(batch);
        }
        black_box(stream.release().expect("fault-free release"));
        start.elapsed()
    });

    out.push(("serve.tenant_release_us", tenant_cycle * US));
    out.push(("serve.stream_release_us", stream_cycle * US));
    out.push(("serve.queue_overhead_us", (call_cycle - tenant_cycle) * US));
}

/// 200 sequential `POST /v1/ingest` over the HTTP front end on loopback.
/// Informational: the accept loop polls, so this is quantised by its sleep.
fn http(rng: &mut StdRng, out: &mut Out) {
    let server = Server::start(ServerConfig {
        workers: 2,
        queue_bound: 64,
        tracing: None,
    });
    server
        .add_tenant(workloads::serve_tenant_config("probe", rng.gen()))
        .expect("fresh tenant");
    let front = ServeHttp::bind(server, "127.0.0.1:0").expect("loopback listener");
    let rows: Vec<String> = data::records(rng, SERVE_BATCH_ROWS, STREAM_COLS)
        .iter()
        .map(|row| {
            let cells: Vec<String> = row.iter().map(f64::to_string).collect();
            format!("[{}]", cells.join(","))
        })
        .collect();
    let body = format!(
        "{{\"tenant\": \"probe\", \"records\": [{}]}}",
        rows.join(",")
    );
    let request = format!(
        "POST /v1/ingest HTTP/1.1\r\nHost: probe\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let roundtrip = median_secs(200, || {
        let start = Instant::now();
        let mut stream = TcpStream::connect(front.local_addr()).expect("connect");
        stream.write_all(request.as_bytes()).expect("send");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("receive");
        let wall = start.elapsed();
        assert!(
            response.starts_with("HTTP/1.1 200"),
            "ingest refused: {response}"
        );
        wall
    });
    front.shutdown();
    out.push(("serve.http_roundtrip_us", roundtrip * US));
}
