//! A minimal std-only HTTP/1.1 server shared by every in-process endpoint.
//!
//! Extracted from `obs::live` so the live-telemetry `/metrics` endpoint and
//! the `sqm-serve` request/response protocol share one listener, one parser
//! and one shutdown path instead of each growing a hand-rolled copy. The
//! scope is deliberately small: HTTP/1.1, `Connection: close`, GET and POST
//! with a `Content-Length` body, one request per connection, requests
//! handled serially on the accept thread. That is exactly what a
//! scrape-or-curl observability endpoint and a loopback serving protocol
//! need — it is not a general web server.
//!
//! The accept is blocking, so a request is served as soon as it connects.
//! Shutdown is graceful: [`HttpServer::shutdown`] raises the stop flag and
//! wakes the accept with a connection of its own, lets the request
//! currently being handled drain, and joins the accept thread, so no
//! response is ever cut off mid-write.

use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Largest accepted request (request line + headers + body).
const MAX_REQUEST_BYTES: usize = 1 << 20;

/// One parsed request.
#[derive(Clone, Debug)]
pub struct HttpRequest {
    /// Upper-case method (`GET`, `POST`, ...).
    pub method: String,
    /// Request target as sent (path + optional query).
    pub path: String,
    /// Body bytes (empty unless a `Content-Length` was supplied).
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// Body decoded as UTF-8 (lossy).
    pub fn body_str(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// The response a handler produces.
#[derive(Clone, Debug)]
pub struct HttpResponse {
    pub status: u16,
    pub content_type: String,
    pub body: String,
}

impl HttpResponse {
    pub fn new(status: u16, content_type: &str, body: String) -> Self {
        HttpResponse {
            status,
            content_type: content_type.to_string(),
            body,
        }
    }

    /// `text/plain` response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Self::new(status, "text/plain", body.into())
    }

    /// `application/json` response (caller provides serialized JSON).
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Self::new(status, "application/json", body.into())
    }

    /// Prometheus text exposition format.
    pub fn prometheus(body: impl Into<String>) -> Self {
        Self::new(200, "text/plain; version=0.0.4; charset=utf-8", body.into())
    }

    pub fn not_found() -> Self {
        Self::text(404, "not found\n")
    }

    pub fn method_not_allowed() -> Self {
        Self::text(405, "method not allowed\n")
    }

    pub fn bad_request(detail: &str) -> Self {
        Self::text(400, format!("bad request: {detail}\n"))
    }
}

fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Status",
    }
}

/// Request handler: pure function from request to response. Handlers run on
/// the accept thread, one at a time, so they may mutate shared state behind
/// ordinary locks without re-entrancy concerns.
pub type Handler = dyn Fn(&HttpRequest) -> HttpResponse + Send + Sync;

/// A running listener. Dropping it shuts it down gracefully.
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl HttpServer {
    /// Bind `addr` (use port 0 for an ephemeral port) and serve `handler`
    /// on a named background thread until [`HttpServer::shutdown`].
    pub fn bind(addr: &str, thread_name: &str, handler: Arc<Handler>) -> io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        let bound = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_thread = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name(thread_name.to_string())
            .spawn(move || {
                for stream in listener.incoming() {
                    // The wake-up `shutdown` sends is not a request.
                    if stop_thread.load(Ordering::SeqCst) {
                        break;
                    }
                    match stream {
                        Ok(stream) => {
                            let _ = handle_connection(stream, handler.as_ref());
                        }
                        Err(_) => std::thread::sleep(Duration::from_millis(10)),
                    }
                }
            })?;
        Ok(HttpServer {
            addr: bound,
            stop,
            thread: Some(thread),
        })
    }

    /// The address the listener is bound to.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, drain the in-flight request (handling is serial on
    /// the accept thread, so joining it *is* the drain) and join. Idempotent.
    pub fn shutdown(&mut self) {
        if let Some(handle) = self.thread.take() {
            self.stop.store(true, Ordering::SeqCst);
            // Wake the blocking accept; a wildcard bind is reached on loopback.
            let mut wake = self.addr;
            if wake.ip().is_unspecified() {
                wake.set_ip(match wake {
                    SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                    SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                });
            }
            let _ = TcpStream::connect(wake);
            let _ = handle.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Read one request (headers, then `Content-Length` body bytes), run the
/// handler, write the response. Any malformed framing gets a 400 rather
/// than a dropped connection so misbehaving clients see why.
fn handle_connection(mut stream: TcpStream, handler: &Handler) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;

    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    // Only the new bytes and the three before them can complete the blank
    // line, so each read rescans just those: a capped head is linear work.
    let mut scanned = 0;
    let header_end = loop {
        if let Some(pos) = find_header_end(&buf, scanned) {
            break Some(pos);
        }
        scanned = buf.len().saturating_sub(3);
        if buf.len() > MAX_REQUEST_BYTES {
            break None;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break None,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => break None,
        }
    };

    let response = match header_end {
        None => HttpResponse::bad_request("unterminated or oversized header"),
        Some(pos) => {
            let head = String::from_utf8_lossy(&buf[..pos]).into_owned();
            match parse_head(&head) {
                Err(detail) => HttpResponse::bad_request(detail),
                Ok((method, path, content_length)) => {
                    let body_start = pos + 4;
                    if content_length > MAX_REQUEST_BYTES {
                        HttpResponse::bad_request("body too large")
                    } else {
                        let mut body: Vec<u8> = buf[body_start.min(buf.len())..].to_vec();
                        while body.len() < content_length {
                            match stream.read(&mut chunk) {
                                Ok(0) => break,
                                Ok(n) => body.extend_from_slice(&chunk[..n]),
                                Err(_) => break,
                            }
                        }
                        if body.len() < content_length {
                            HttpResponse::bad_request("truncated body")
                        } else {
                            body.truncate(content_length);
                            handler(&HttpRequest { method, path, body })
                        }
                    }
                }
            }
        }
    };

    let reply = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        response.status,
        status_reason(response.status),
        response.content_type,
        response.body.len(),
        response.body
    );
    stream.write_all(reply.as_bytes())?;
    stream.flush()
}

/// Offset of the blank line ending the head, looking from `from` on.
fn find_header_end(buf: &[u8], from: usize) -> Option<usize> {
    let found = buf[from..].windows(4).position(|w| w == b"\r\n\r\n");
    found.map(|pos| from + pos)
}

/// Parse the request line and the single header we honor (`Content-Length`).
fn parse_head(head: &str) -> Result<(String, String, usize), &'static str> {
    let mut lines = head.lines();
    let request_line = lines.next().ok_or("empty request")?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next().ok_or("missing method")?.to_string();
    let path = parts.next().ok_or("missing path")?.to_string();
    let mut content_length = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| "unparseable content-length")?;
            }
        }
    }
    Ok((method, path, content_length))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fetch(addr: SocketAddr, request: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(request.as_bytes()).unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    }

    fn echo_server() -> HttpServer {
        HttpServer::bind(
            "127.0.0.1:0",
            "httpd-test",
            Arc::new(
                |req: &HttpRequest| match (req.method.as_str(), req.path.as_str()) {
                    ("GET", "/hello") => HttpResponse::text(200, "hi\n"),
                    ("POST", "/echo") => HttpResponse::json(200, req.body_str()),
                    ("GET", _) => HttpResponse::not_found(),
                    _ => HttpResponse::method_not_allowed(),
                },
            ),
        )
        .unwrap()
    }

    #[test]
    fn routes_get_post_404_and_405() {
        let mut server = echo_server();
        let addr = server.local_addr();
        let got = fetch(addr, "GET /hello HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(got.starts_with("HTTP/1.1 200 OK"), "{got}");
        assert!(got.ends_with("hi\n"), "{got}");

        let body = "{\"k\":1}";
        let got = fetch(
            addr,
            &format!(
                "POST /echo HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            ),
        );
        assert!(got.starts_with("HTTP/1.1 200 OK"), "{got}");
        assert!(got.contains("application/json"), "{got}");
        assert!(got.ends_with(body), "{got}");

        let got = fetch(addr, "GET /nope HTTP/1.1\r\n\r\n");
        assert!(got.starts_with("HTTP/1.1 404"), "{got}");

        let got = fetch(addr, "DELETE /hello HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
        assert!(got.starts_with("HTTP/1.1 405"), "{got}");
        server.shutdown();
    }

    #[test]
    fn body_split_across_reads_is_reassembled() {
        let mut server = echo_server();
        let addr = server.local_addr();
        let mut stream = TcpStream::connect(addr).unwrap();
        let body = "x".repeat(5000);
        stream
            .write_all(
                format!(
                    "POST /echo HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                    body.len()
                )
                .as_bytes(),
            )
            .unwrap();
        stream.flush().unwrap();
        // Body arrives in a separate segment after a pause.
        std::thread::sleep(Duration::from_millis(50));
        stream.write_all(body.as_bytes()).unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 200 OK"), "{out}");
        assert!(out.ends_with(&body));
        server.shutdown();
    }

    #[test]
    fn malformed_length_is_a_400_not_a_hang() {
        let mut server = echo_server();
        let got = fetch(
            server.local_addr(),
            "POST /echo HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
        );
        assert!(got.starts_with("HTTP/1.1 400"), "{got}");
        server.shutdown();
    }

    #[test]
    fn oversized_header_is_rejected_with_400_not_a_hang() {
        let mut server = echo_server();
        let addr = server.local_addr();
        let mut stream = TcpStream::connect(addr).unwrap();
        // A request line that never terminates its headers and exceeds the
        // cap by exactly one byte, so the server consumes every byte before
        // replying (a close with unread bytes would RST the client).
        stream.write_all(b"GET /").unwrap();
        let filler = vec![b'a'; MAX_REQUEST_BYTES + 1 - 5];
        stream.write_all(&filler).unwrap();
        stream.flush().unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        assert!(
            out.starts_with("HTTP/1.1 400"),
            "{}",
            &out[..out.len().min(200)]
        );
        assert!(out.contains("oversized"), "{}", &out[..out.len().min(200)]);
        server.shutdown();
    }

    #[test]
    fn oversized_declared_body_is_rejected_with_400() {
        let mut server = echo_server();
        let got = fetch(
            server.local_addr(),
            &format!(
                "POST /echo HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                MAX_REQUEST_BYTES + 1
            ),
        );
        assert!(got.starts_with("HTTP/1.1 400"), "{got}");
        assert!(got.contains("body too large"), "{got}");
        server.shutdown();
    }

    #[test]
    fn drain_completes_inflight_responses_for_concurrent_clients() {
        use std::sync::atomic::AtomicUsize;

        let entered = Arc::new(AtomicUsize::new(0));
        let entered_h = Arc::clone(&entered);
        let body = "drain-payload ".repeat(4096);
        let body_h = body.clone();
        let mut server = HttpServer::bind(
            "127.0.0.1:0",
            "httpd-drain",
            Arc::new(move |req: &HttpRequest| {
                if req.path == "/slow" {
                    entered_h.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(100));
                    HttpResponse::text(200, body_h.clone())
                } else {
                    HttpResponse::not_found()
                }
            }),
        )
        .unwrap();
        let addr = server.local_addr();
        let clients: Vec<_> = (0..2)
            .map(|_| std::thread::spawn(move || fetch(addr, "GET /slow HTTP/1.1\r\n\r\n")))
            .collect();
        // Wait until the second request is inside its (slow) handler, then
        // initiate shutdown while it is still running: the drain must let
        // the in-flight response finish rather than cutting it off.
        while entered.load(Ordering::SeqCst) < 2 {
            std::thread::sleep(Duration::from_millis(5));
        }
        server.shutdown();
        for client in clients {
            let got = client.join().unwrap();
            assert!(
                got.starts_with("HTTP/1.1 200 OK"),
                "{}",
                &got[..got.len().min(200)]
            );
            assert!(got.ends_with(&body), "response truncated");
        }
    }

    #[test]
    fn sequential_requests_are_answered_without_a_poll_delay() {
        let mut server = echo_server();
        let addr = server.local_addr();
        let start = std::time::Instant::now();
        for _ in 0..50 {
            let got = fetch(addr, "GET /hello HTTP/1.1\r\n\r\n");
            assert!(got.starts_with("HTTP/1.1 200 OK"), "{got}");
        }
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_millis(250),
            "50 requests took {elapsed:?}"
        );
        server.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent_and_port_is_released() {
        let mut server = echo_server();
        let addr = server.local_addr();
        server.shutdown();
        server.shutdown();
        // The port can be rebound after shutdown.
        let _rebound = TcpListener::bind(addr).unwrap();
    }
}
