//! The wire protocol: a small JSON-over-HTTP surface on the shared
//! `sqm_obs::httpd` listener.
//!
//! Routes:
//!
//! | method | path          | body                                   |
//! |--------|---------------|----------------------------------------|
//! | GET    | `/`           | — (index text)                         |
//! | GET    | `/metrics`    | — (Prometheus text)                    |
//! | GET    | `/status`     | — (JSON tenant reports)                |
//! | POST   | `/v1/tenant`  | tenant config JSON                     |
//! | POST   | `/v1/ingest`  | `{"tenant": ..., "records": [[..]]}`   |
//! | POST   | `/v1/release` | `{"tenant": ...}`                      |
//!
//! Errors map to their [`ServeError::http_status`] with a JSON body
//! `{"error": <code>, "detail": <display>}`.

use std::io;
use std::net::SocketAddr;
use std::sync::Arc;

use serde::json::{write_f64, write_str};
use sqm_obs::httpd::{HttpRequest, HttpResponse, HttpServer};
use sqm_obs::json::{self, JsonValue};
use sqm_obs::live::render_prometheus;
use sqm_obs::metrics;

use crate::error::ServeError;
use crate::scheduler::{Reply, Request, Server};
use crate::tenant::{ReleaseReply, TenantConfig, TenantReport};

/// The serving endpoint: the scheduler plus its HTTP listener.
pub struct ServeHttp {
    server: Arc<Server>,
    http: HttpServer,
}

impl ServeHttp {
    /// Bind `addr` (e.g. `"127.0.0.1:0"`) and start answering requests
    /// against `server`.
    pub fn bind(server: Arc<Server>, addr: &str) -> io::Result<ServeHttp> {
        let routed = Arc::clone(&server);
        let http = HttpServer::bind(
            addr,
            "sqm-serve-http",
            Arc::new(move |req: &HttpRequest| route(&routed, req)),
        )?;
        Ok(ServeHttp { server, http })
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.http.local_addr()
    }

    pub fn server(&self) -> &Arc<Server> {
        &self.server
    }

    /// Stop the listener, then drain the scheduler.
    pub fn shutdown(mut self) {
        self.http.shutdown();
        self.server.shutdown();
    }
}

fn error_response(err: &ServeError) -> HttpResponse {
    let mut body = String::from("{\"error\": ");
    write_str(&mut body, err.code());
    body.push_str(", \"detail\": ");
    write_str(&mut body, &err.to_string());
    if let ServeError::BudgetExhausted { spent, budget, .. } = err {
        body.push_str(", \"spent_epsilon\": ");
        write_f64(&mut body, *spent);
        body.push_str(", \"budget_epsilon\": ");
        write_f64(&mut body, *budget);
    }
    body.push_str("}\n");
    HttpResponse::json(err.http_status(), body)
}

fn bad_request(detail: &str) -> HttpResponse {
    error_response(&ServeError::BadRequest {
        detail: detail.to_string(),
    })
}

fn json_body(req: &HttpRequest) -> Result<JsonValue, HttpResponse> {
    let text = req.body_str();
    json::parse(&text).map_err(|e| bad_request(&format!("invalid JSON: {e:?}")))
}

fn require_str(v: &JsonValue, key: &str) -> Result<String, HttpResponse> {
    v.get(key)
        .and_then(JsonValue::as_str)
        .map(str::to_string)
        .ok_or_else(|| bad_request(&format!("missing string field {key:?}")))
}

/// Build a [`TenantConfig`] from a JSON object, starting from the
/// defaults of [`TenantConfig::new`] so requests only name what they
/// override. A field that is present but not readable as its type (a
/// string for a number, a negative or fractional count, an integer past
/// `u64::MAX`) is a bad request naming the field, not a silent default.
fn tenant_config_from_json(v: &JsonValue) -> Result<TenantConfig, HttpResponse> {
    let name = require_str(v, "name")?;
    let mut cfg = TenantConfig::new(&name);
    const UINT: &str = "an integer in [0, 2^64)";
    let as_usize = |x: &JsonValue| x.as_u64().and_then(|n| usize::try_from(n).ok());
    let uint = |key: &str, slot: &mut usize| read_field(v, key, UINT, as_usize, slot);
    let num = |key: &str, slot: &mut f64| read_field(v, key, "a number", JsonValue::as_f64, slot);
    uint("n_cols", &mut cfg.n_cols)?;
    uint("n_clients", &mut cfg.n_clients)?;
    num("gamma", &mut cfg.gamma)?;
    num("mu", &mut cfg.mu)?;
    num("budget_eps", &mut cfg.budget_eps)?;
    num("delta", &mut cfg.delta)?;
    read_field(v, "seed", UINT, JsonValue::as_u64, &mut cfg.seed)?;
    uint("max_rows", &mut cfg.max_rows)?;
    num("max_row_norm", &mut cfg.max_row_norm)?;
    Ok(cfg)
}

/// `*slot = read(v[key])` when `key` is present; absent keeps `*slot`, and
/// a value `read` rejects is a bad request saying the field must be `what`.
fn read_field<T>(
    v: &JsonValue,
    key: &str,
    what: &str,
    read: impl Fn(&JsonValue) -> Option<T>,
    slot: &mut T,
) -> Result<(), HttpResponse> {
    if let Some(x) = v.get(key) {
        *slot = read(x).ok_or_else(|| bad_request(&format!("field {key:?} must be {what}")))?;
    }
    Ok(())
}

fn records_from_json(v: &JsonValue) -> Result<Vec<Vec<f64>>, HttpResponse> {
    let rows = v
        .get("records")
        .and_then(JsonValue::as_arr)
        .ok_or_else(|| bad_request("missing array field \"records\""))?;
    rows.iter()
        .map(|row| {
            row.as_arr()
                .ok_or_else(|| bad_request("records must be arrays of numbers"))?
                .iter()
                .map(|x| {
                    x.as_f64()
                        .ok_or_else(|| bad_request("records must be arrays of numbers"))
                })
                .collect()
        })
        .collect()
}

fn write_release_reply(out: &mut String, rel: &ReleaseReply) {
    out.push_str("{\"n_cols\": ");
    out.push_str(&rel.n_cols.to_string());
    out.push_str(", \"rows_covered\": ");
    out.push_str(&rel.rows_covered.to_string());
    out.push_str(", \"release_index\": ");
    out.push_str(&rel.release_index.to_string());
    out.push_str(", \"release_epsilon\": ");
    write_f64(out, rel.release_epsilon);
    out.push_str(", \"spent_epsilon\": ");
    write_f64(out, rel.spent_epsilon);
    out.push_str(", \"remaining_epsilon\": ");
    write_f64(out, rel.remaining_epsilon);
    out.push_str(", \"covariance\": [");
    for (i, v) in rel.covariance.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_f64(out, *v);
    }
    out.push_str("]}\n");
}

fn write_report(out: &mut String, r: &TenantReport, queue_depth: usize) {
    out.push_str("{\"name\": ");
    write_str(out, &r.name);
    out.push_str(", \"releases\": ");
    out.push_str(&r.releases.to_string());
    out.push_str(", \"refusals\": ");
    out.push_str(&r.refusals.to_string());
    out.push_str(", \"rows_ingested\": ");
    out.push_str(&r.rows_ingested.to_string());
    out.push_str(", \"pending_rows\": ");
    out.push_str(&r.pending_rows.to_string());
    out.push_str(", \"queue_depth\": ");
    out.push_str(&queue_depth.to_string());
    out.push_str(", \"spent_epsilon\": ");
    write_f64(out, r.spent_epsilon);
    out.push_str(", \"remaining_epsilon\": ");
    write_f64(out, r.remaining_epsilon);
    out.push_str(", \"budget_eps\": ");
    write_f64(out, r.budget_eps);
    out.push_str(", \"failed\": ");
    out.push_str(if r.failed { "true" } else { "false" });
    out.push('}');
}

fn status_json(server: &Server) -> String {
    let reports = server.status();
    let depths = server.tenant_queue_depths();
    let mut out = String::from("{\"uptime_secs\": ");
    write_f64(&mut out, server.uptime_secs());
    out.push_str(", \"queue_depth\": ");
    out.push_str(&server.queue_depth().to_string());
    out.push_str(", \"queue_bound\": ");
    out.push_str(&server.config().queue_bound.to_string());
    out.push_str(", \"tenants\": [");
    for (i, r) in reports.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_report(&mut out, r, depths.get(&r.name).copied().unwrap_or(0));
    }
    out.push_str("]}\n");
    out
}

const INDEX: &str = "sqm-serve: multi-tenant VFL serving\n\
    GET  /metrics     Prometheus metrics\n\
    GET  /status      tenant reports (JSON)\n\
    POST /v1/tenant   create a tenant session\n\
    POST /v1/ingest   queue records for a tenant\n\
    POST /v1/release  run one DP covariance release\n";

fn route(server: &Arc<Server>, req: &HttpRequest) -> HttpResponse {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/") => HttpResponse::text(200, INDEX),
        ("GET", "/metrics") => {
            HttpResponse::prometheus(render_prometheus(None, &metrics::snapshot()))
        }
        ("GET", "/status") => HttpResponse::json(200, status_json(server)),
        ("POST", "/v1/tenant") => match handle_tenant(server, req) {
            Ok(resp) | Err(resp) => resp,
        },
        ("POST", "/v1/ingest") => match handle_ingest(server, req) {
            Ok(resp) | Err(resp) => resp,
        },
        ("POST", "/v1/release") => match handle_release(server, req) {
            Ok(resp) | Err(resp) => resp,
        },
        ("GET" | "POST", _) => HttpResponse::not_found(),
        _ => HttpResponse::method_not_allowed(),
    }
}

fn handle_tenant(server: &Server, req: &HttpRequest) -> Result<HttpResponse, HttpResponse> {
    let body = json_body(req)?;
    let cfg = tenant_config_from_json(&body)?;
    let name = cfg.name.clone();
    match server.add_tenant(cfg) {
        Ok(()) => {
            let mut out = String::from("{\"created\": ");
            write_str(&mut out, &name);
            out.push_str("}\n");
            Ok(HttpResponse::json(200, out))
        }
        Err(e) => Ok(error_response(&e)),
    }
}

fn handle_ingest(server: &Server, req: &HttpRequest) -> Result<HttpResponse, HttpResponse> {
    let body = json_body(req)?;
    let tenant = require_str(&body, "tenant")?;
    let records = records_from_json(&body)?;
    match server.call(&tenant, Request::Ingest { records }) {
        Ok(Reply::Ingested { pending_rows }) => {
            let mut out = String::from("{\"pending_rows\": ");
            out.push_str(&pending_rows.to_string());
            out.push_str("}\n");
            Ok(HttpResponse::json(200, out))
        }
        Ok(other) => Err(bad_request(&format!("unexpected reply {other:?}"))),
        Err(e) => Ok(error_response(&e)),
    }
}

fn handle_release(server: &Server, req: &HttpRequest) -> Result<HttpResponse, HttpResponse> {
    let body = json_body(req)?;
    let tenant = require_str(&body, "tenant")?;
    match server.call(&tenant, Request::Release) {
        Ok(Reply::Released(rel)) => {
            let mut out = String::new();
            write_release_reply(&mut out, &rel);
            Ok(HttpResponse::json(200, out))
        }
        Ok(other) => Err(bad_request(&format!("unexpected reply {other:?}"))),
        Err(e) => Ok(error_response(&e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::ServerConfig;
    use std::io::{Read, Write};
    use std::net::TcpStream;

    fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        let req = format!(
            "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(req.as_bytes()).unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        let status: u16 = raw
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap();
        let payload = raw
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, payload)
    }

    #[test]
    fn full_protocol_round_trip_with_budget_refusal() {
        metrics::set_enabled(true);
        let server = Server::start(ServerConfig::default());
        let endpoint = ServeHttp::bind(server, "127.0.0.1:0").unwrap();
        let addr = endpoint.local_addr();

        let (st, _) = http(
            addr,
            "POST",
            "/v1/tenant",
            r#"{"name": "acme", "n_cols": 3, "n_clients": 3,
                "gamma": 32.0, "mu": 1e8, "budget_eps": 1.2,
                "seed": 42, "max_rows": 100}"#,
        );
        assert_eq!(st, 200);
        // Duplicate creation is a typed conflict.
        let (st, body) = http(addr, "POST", "/v1/tenant", r#"{"name": "acme"}"#);
        assert_eq!(st, 409);
        assert!(body.contains("tenant_exists"));

        let (st, body) = http(
            addr,
            "POST",
            "/v1/ingest",
            r#"{"tenant": "acme", "records": [[0.5, 0.1, 0.2], [0.1, 0.4, 0.3]]}"#,
        );
        assert_eq!(st, 200, "{body}");
        assert!(body.contains("\"pending_rows\": 2"));

        let (st, body) = http(addr, "POST", "/v1/release", r#"{"tenant": "acme"}"#);
        assert_eq!(st, 200, "{body}");
        assert!(body.contains("\"covariance\""));
        assert!(body.contains("\"spent_epsilon\""));

        // Budget eps=1.2 covers roughly one release at mu=1e8/gamma=32;
        // keep releasing until the odometer refuses with a 403.
        let mut refused = false;
        for _ in 0..50 {
            let (st, body) = http(addr, "POST", "/v1/release", r#"{"tenant": "acme"}"#);
            if st == 403 {
                assert!(body.contains("budget_exhausted"), "{body}");
                refused = true;
                break;
            }
            assert_eq!(st, 200, "{body}");
        }
        assert!(refused, "odometer never refused");

        let (st, body) = http(addr, "GET", "/status", "");
        assert_eq!(st, 200);
        assert!(body.contains("\"name\": \"acme\""));
        assert!(body.contains("\"refusals\": 1"));

        let (st, body) = http(addr, "GET", "/metrics", "");
        assert_eq!(st, 200);
        assert!(body.contains("sqm_serve_budget_refusals"), "{body}");

        let (st, body) = http(addr, "POST", "/v1/release", r#"{"tenant": "ghost"}"#);
        assert_eq!(st, 404);
        assert!(body.contains("unknown_tenant"));

        let (st, _) = http(addr, "POST", "/v1/ingest", "{not json");
        assert_eq!(st, 400);

        endpoint.shutdown();
    }

    #[test]
    fn an_oversized_tenant_is_a_bad_request_and_the_endpoint_serves_on() {
        let server = Server::start(ServerConfig::default());
        let endpoint = ServeHttp::bind(server, "127.0.0.1:0").unwrap();
        let addr = endpoint.local_addr();
        // Covariance bounds past M127's headroom, and non-positive norms.
        for body in [
            r#"{"name": "big", "gamma": 1e20}"#,
            r#"{"name": "big", "mu": 1e300}"#,
            r#"{"name": "big", "max_row_norm": 1e30}"#,
            r#"{"name": "big", "max_rows": 9000000000000000, "max_row_norm": 1e10}"#,
            r#"{"name": "big", "max_row_norm": 0}"#,
            r#"{"name": "big", "max_row_norm": -1}"#,
        ] {
            let (st, reply) = http(addr, "POST", "/v1/tenant", body);
            assert_eq!(st, 400, "{body}: {reply}");
            assert!(reply.contains("bad_request"), "{body}: {reply}");
        }
        // The same endpoint still creates a tenant and releases for it.
        let (st, reply) = http(
            addr,
            "POST",
            "/v1/tenant",
            r#"{"name": "big", "gamma": 32.0, "mu": 1e8}"#,
        );
        assert_eq!(st, 200, "{reply}");
        let records = r#"{"tenant": "big", "records": [[0.5, 0.1, 0.2]]}"#;
        let (st, reply) = http(addr, "POST", "/v1/ingest", records);
        assert_eq!(st, 200, "{reply}");
        let (st, reply) = http(addr, "POST", "/v1/release", r#"{"tenant": "big"}"#);
        assert_eq!(st, 200, "{reply}");
        assert!(reply.contains("\"covariance\""), "{reply}");
        endpoint.shutdown();
    }

    #[test]
    fn an_unreadable_tenant_field_is_a_bad_request_naming_it() {
        let server = Server::start(ServerConfig::default());
        let endpoint = ServeHttp::bind(server, "127.0.0.1:0").unwrap();
        let addr = endpoint.local_addr();
        for (body, field) in [
            (
                r#"{"name": "t", "max_rows": 100000000000000000000}"#,
                "max_rows",
            ),
            (r#"{"name": "t", "n_cols": -3}"#, "n_cols"),
            (r#"{"name": "t", "gamma": "big"}"#, "gamma"),
            (r#"{"name": "t", "seed": 1.5}"#, "seed"),
            (r#"{"name": "t", "seed": 18446744073709551616}"#, "seed"),
        ] {
            let (st, reply) = http(addr, "POST", "/v1/tenant", body);
            assert_eq!(st, 400, "{body}: {reply}");
            assert!(reply.contains("bad_request"), "{body}: {reply}");
            assert!(
                reply.contains(&format!("field \\\"{field}\\\"")),
                "{body}: {reply}"
            );
        }
        // Nothing was created; a readable body naming some fields is.
        let body = r#"{"name": "t", "n_cols": 4, "gamma": 32.0, "seed": 9}"#;
        let (st, reply) = http(addr, "POST", "/v1/tenant", body);
        assert_eq!(st, 200, "{reply}");
        let status = json::parse(&status_json(endpoint.server())).unwrap();
        let tenants = status.get("tenants").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(tenants.len(), 1);
        endpoint.shutdown();
    }

    #[test]
    fn an_integer_seed_is_read_exactly_over_the_u64_range() {
        let server = Server::start(ServerConfig::default());
        let endpoint = ServeHttp::bind(server, "127.0.0.1:0").unwrap();
        let addr = endpoint.local_addr();
        let seed = (1u64 << 53) + 1;
        let (st, reply) = http(
            addr,
            "POST",
            "/v1/tenant",
            &format!(r#"{{"name": "t", "gamma": 32.0, "mu": 1e8, "seed": {seed}}}"#),
        );
        assert_eq!(st, 200, "{reply}");

        // The HTTP tenant releases what a tenant on the exact seed does,
        // not what one on the seed's nearest f64 does.
        let server = endpoint.server();
        for (name, seed) in [("exact", seed), ("rounded", seed - 1)] {
            let mut cfg = TenantConfig::new(name);
            (cfg.gamma, cfg.mu, cfg.seed) = (32.0, 1e8, seed);
            server.add_tenant(cfg).unwrap();
        }
        let release = |name: &str| {
            let records = vec![vec![0.5, 0.1, 0.2], vec![0.1, 0.4, 0.3]];
            server.call(name, Request::Ingest { records }).unwrap();
            match server.call(name, Request::Release) {
                Ok(Reply::Released(reply)) => reply.covariance,
                _ => panic!("tenant {name} did not release"),
            }
        };
        let released = release("t");
        assert_eq!(released, release("exact"));
        assert_ne!(released, release("rounded"));
        endpoint.shutdown();
    }

    #[test]
    fn status_json_reports_per_tenant_depth_and_budget() {
        use crate::tenant::TenantConfig;

        let server = Server::start(ServerConfig::default());
        let mut cfg = TenantConfig::new("shape");
        cfg.mu = 1e8;
        cfg.gamma = 32.0;
        cfg.seed = 17;
        server.add_tenant(cfg).unwrap();
        server
            .call(
                "shape",
                Request::Ingest {
                    records: vec![vec![0.2, 0.1, 0.3]],
                },
            )
            .unwrap();
        server.call("shape", Request::Release).unwrap();

        let body = status_json(&server);
        let v = json::parse(&body).expect("status must be valid JSON");
        assert!(v.get("uptime_secs").and_then(JsonValue::as_f64).is_some());
        assert!(v.get("queue_depth").and_then(JsonValue::as_u64).is_some());
        assert_eq!(v.get("queue_bound").and_then(JsonValue::as_u64), Some(64));
        let tenants = v.get("tenants").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(tenants.len(), 1);
        let t = &tenants[0];
        assert_eq!(t.get("name").and_then(JsonValue::as_str), Some("shape"));
        // Satellite shape: per-tenant queue depth and budget accounting.
        assert_eq!(t.get("queue_depth").and_then(JsonValue::as_u64), Some(0));
        let spent = t.get("spent_epsilon").and_then(JsonValue::as_f64).unwrap();
        let remaining = t
            .get("remaining_epsilon")
            .and_then(JsonValue::as_f64)
            .unwrap();
        let budget = t.get("budget_eps").and_then(JsonValue::as_f64).unwrap();
        assert!(spent > 0.0, "one admitted release must have spent epsilon");
        assert!(remaining > 0.0 && remaining < budget);
        assert!(
            (spent + remaining - budget).abs() <= 1e-9 * budget,
            "spent {spent} + remaining {remaining} must equal budget {budget}"
        );
        assert_eq!(t.get("failed").and_then(JsonValue::as_bool), Some(false));
        server.shutdown();
    }
}
