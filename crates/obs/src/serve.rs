//! A tiny, dependency-free HTTP exposition server for long-running
//! monitors: `/metrics` (Prometheus text format 0.0.4), `/healthz`
//! (liveness), `/readyz` (readiness, from the fleet's per-shard
//! [`FleetHealth`]), `/manifest` (the run's
//! [`RunManifest`](crate::manifest) JSON), and — when the host wires a
//! [`DebugHandler`] — `/debug/...` diagnostic endpoints (the fleet
//! monitor serves `/debug/recorder` ring statistics and
//! `/debug/bundle` on-demand diagnostic bundles through it).
//!
//! This is deliberately not a web framework: one `TcpListener`, one
//! accept-loop thread, one short-lived thread per connection, HTTP/1.0
//! semantics (`Connection: close`, explicit `Content-Length`). That is
//! all a scrape endpoint needs, and it keeps the observability layer's
//! "std only, loadable from every crate" contract intact.
//!
//! # Examples
//!
//! ```
//! use hbmd_obs::{serve, Registry};
//! use std::io::{Read, Write};
//! use std::sync::Arc;
//!
//! let registry = Arc::new(Registry::new());
//! registry.counter("demo.requests").add(3);
//! // Port 0 = ephemeral: the OS picks a free port.
//! let server = serve::serve("127.0.0.1:0", serve::ServeContext {
//!     registry: registry.clone(),
//!     manifest_json: "{}".to_owned(),
//!     fleet: None,
//!     debug: None,
//! })?;
//!
//! let mut stream = std::net::TcpStream::connect(server.local_addr())?;
//! write!(stream, "GET /metrics HTTP/1.0\r\n\r\n")?;
//! let mut response = String::new();
//! stream.read_to_string(&mut response)?;
//! assert!(response.starts_with("HTTP/1.0 200 OK"));
//! assert!(response.contains("hbmd_demo_requests_total 3"));
//! server.shutdown()?;
//! # Ok::<(), std::io::Error>(())
//! ```

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::health::FleetHealth;
use crate::metrics::Registry;
use crate::prom;

/// A reply from a [`DebugHandler`]: an HTTP status code plus a JSON
/// body. Unknown status codes are served as `500`.
#[derive(Debug, Clone)]
pub struct DebugReply {
    /// HTTP status code (200, 404, 500, or 503).
    pub status: u16,
    /// JSON response body.
    pub body: String,
}

/// Host-provided handler for `/debug/...` paths. Returning `None`
/// falls through to the server's 404; this keeps the dependency
/// direction clean — the fleet layer hands its recorder hooks down
/// instead of `hbmd-obs` reaching up.
pub type DebugHandler = Arc<dyn Fn(&str) -> Option<DebugReply> + Send + Sync>;

/// What the server exposes: a live registry and a pre-rendered
/// manifest document.
#[derive(Clone)]
pub struct ServeContext {
    /// Snapshotted afresh on every `/metrics` request.
    pub registry: Arc<Registry>,
    /// Served verbatim at `/manifest` (must be a JSON document).
    pub manifest_json: String,
    /// Sharded fleet health backing `/readyz`: quorum readiness plus
    /// one line per shard. Built over `registry`, it reads the cells
    /// `/metrics` renders. With `None`, `/readyz` mirrors `/healthz`
    /// (an unsupervised exposition is ready as soon as it binds).
    pub fleet: Option<Arc<FleetHealth>>,
    /// Handler for `/debug/...` paths (`/debug/recorder`,
    /// `/debug/bundle`); with `None` they 404 like any other path.
    pub debug: Option<DebugHandler>,
}

impl std::fmt::Debug for ServeContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeContext").finish_non_exhaustive()
    }
}

/// A running exposition server; dropping it (or calling
/// [`shutdown`](Server::shutdown)) stops the accept loop.
#[derive(Debug)]
pub struct Server {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_loop: Option<JoinHandle<()>>,
}

/// Bind `addr` (e.g. `"127.0.0.1:9185"`, port `0` for ephemeral) and
/// serve the context until [`Server::shutdown`] or drop.
///
/// # Errors
///
/// Propagates the bind failure; per-connection I/O errors are absorbed
/// by the accept loop (a broken scrape must not kill the monitor).
pub fn serve(addr: impl ToSocketAddrs, context: ServeContext) -> io::Result<Server> {
    let listener = TcpListener::bind(addr)?;
    let local_addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let loop_stop = Arc::clone(&stop);
    let accept_loop = crate::spawn("hbmd-obs-serve", move || {
        for stream in listener.incoming() {
            if loop_stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let context = context.clone();
            // Short-lived worker per connection so one stuck
            // client cannot block the next scrape.
            let _ = crate::spawn("hbmd-obs-conn", move || {
                let _ = handle_connection(stream, &context);
            });
        }
    })?;
    Ok(Server {
        local_addr,
        stop,
        accept_loop: Some(accept_loop),
    })
}

impl Server {
    /// The bound address — with port `0` this is where the OS put us.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stop accepting connections and join the accept loop.
    ///
    /// # Errors
    ///
    /// Returns an error when the accept-loop thread panicked.
    pub fn shutdown(mut self) -> io::Result<()> {
        self.stop_and_join()
            .map_err(|_| io::Error::other("serve accept loop panicked"))
    }

    fn stop_and_join(&mut self) -> std::thread::Result<()> {
        let Some(handle) = self.accept_loop.take() else {
            return Ok(());
        };
        self.stop.store(true, Ordering::SeqCst);
        // Poke the blocking accept so the loop observes the flag. A
        // failure here means the listener is already dead, which is
        // fine — the loop exits on the accept error path too.
        let _ = TcpStream::connect(self.local_addr);
        handle.join()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.stop_and_join();
    }
}

/// Maximum bytes of request head we are willing to buffer.
const MAX_REQUEST: usize = 16 * 1024;

fn handle_connection(mut stream: TcpStream, context: &ServeContext) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    let request = match read_request_head(&mut stream)? {
        RequestHead::Complete(request) => request,
        RequestHead::TooLarge => {
            // Refuse to buffer an unbounded header block; answer with
            // 431 and drop the connection without reading further.
            return write_response(
                &mut stream,
                "431 Request Header Fields Too Large",
                "text/plain; charset=utf-8",
                "request header too large\n",
                false,
            );
        }
    };
    let (status, content_type, body) = route(&request, context);
    let head_only = request.method == "HEAD";
    write_response(&mut stream, status, content_type, &body, head_only)
}

struct Request {
    method: String,
    path: String,
}

enum RequestHead {
    Complete(Request),
    /// The header block exceeded [`MAX_REQUEST`] before terminating.
    TooLarge,
}

fn read_request_head(stream: &mut TcpStream) -> io::Result<RequestHead> {
    let mut buffer = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        buffer.extend_from_slice(&chunk[..n]);
        if buffer.windows(4).any(|w| w == b"\r\n\r\n") || buffer.windows(2).any(|w| w == b"\n\n") {
            break;
        }
        if buffer.len() > MAX_REQUEST {
            return Ok(RequestHead::TooLarge);
        }
    }
    let text = String::from_utf8_lossy(&buffer);
    let first = text.lines().next().unwrap_or_default();
    let mut parts = first.split_whitespace();
    let method = parts.next().unwrap_or_default().to_owned();
    let target = parts.next().unwrap_or_default();
    // Strip any query string; scrape endpoints take no parameters.
    let path = target.split('?').next().unwrap_or_default().to_owned();
    Ok(RequestHead::Complete(Request { method, path }))
}

fn route(request: &Request, context: &ServeContext) -> (&'static str, &'static str, String) {
    if request.method != "GET" && request.method != "HEAD" {
        return (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "method not allowed\n".to_owned(),
        );
    }
    match request.path.as_str() {
        "/metrics" => (
            "200 OK",
            prom::CONTENT_TYPE,
            prom::render(&context.registry.snapshot()),
        ),
        "/healthz" => ("200 OK", "text/plain; charset=utf-8", "ok\n".to_owned()),
        "/readyz" => {
            match &context.fleet {
                Some(fleet) => {
                    // Quorum readiness plus one line per shard — the
                    // bulkhead view: a restarting shard is visible without
                    // flipping the fleet out of the load balancer.
                    let mut body =
                        format!(
                    "{}\nrestarts {}\ntrips {}\nshards {} ready {}\nquarantined {}\nshed {}\n",
                    if fleet.is_ready() { "ready" } else { "degraded" },
                    fleet.restarts(),
                    fleet.trips(),
                    fleet.shards(),
                    fleet.ready_shards(),
                    fleet.quarantined(),
                    fleet.shed(),
                );
                    for shard in 0..fleet.shards() {
                        let health = fleet.shard(shard);
                        body.push_str(&format!(
                            "shard {} {} restarts {} trips {}\n",
                            shard,
                            health.state(),
                            health.restarts(),
                            health.trips()
                        ));
                    }
                    if fleet.is_ready() {
                        ("200 OK", "text/plain; charset=utf-8", body)
                    } else {
                        ("503 Service Unavailable", "text/plain; charset=utf-8", body)
                    }
                }
                // Unsupervised expositions are ready by construction.
                None => ("200 OK", "text/plain; charset=utf-8", "ready\n".to_owned()),
            }
        }
        "/manifest" => (
            "200 OK",
            "application/json; charset=utf-8",
            context.manifest_json.clone(),
        ),
        path if path.starts_with("/debug/") => {
            if let Some(reply) = context.debug.as_ref().and_then(|handler| handler(path)) {
                let status = match reply.status {
                    200 => "200 OK",
                    404 => "404 Not Found",
                    503 => "503 Service Unavailable",
                    _ => "500 Internal Server Error",
                };
                return (status, "application/json; charset=utf-8", reply.body);
            }
            (
                "404 Not Found",
                "text/plain; charset=utf-8",
                "not found; no debug handler for this path\n".to_owned(),
            )
        }
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "not found; try /metrics, /healthz, /readyz, /manifest, /debug/recorder\n".to_owned(),
        ),
    }
}

fn write_response(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    body: &str,
    head_only: bool,
) -> io::Result<()> {
    write!(
        stream,
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    if !head_only {
        stream.write_all(body.as_bytes())?;
    }
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(addr: SocketAddr, request: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(request.as_bytes()).expect("write");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        response
    }

    #[test]
    fn routes_and_shutdown() {
        let registry = Arc::new(Registry::new());
        registry.counter("serve.test").add(9);
        let server = serve(
            "127.0.0.1:0",
            ServeContext {
                registry,
                manifest_json: "{\"tool\": \"test\"}".to_owned(),
                fleet: None,
                debug: None,
            },
        )
        .expect("bind ephemeral");
        let addr = server.local_addr();

        let metrics = get(addr, "GET /metrics HTTP/1.0\r\n\r\n");
        assert!(metrics.starts_with("HTTP/1.0 200 OK"));
        assert!(metrics.contains("text/plain; version=0.0.4"));
        assert!(metrics.contains("hbmd_serve_test_total 9"));

        let health = get(addr, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(health.ends_with("ok\n"));

        let manifest = get(addr, "GET /manifest HTTP/1.0\r\n\r\n");
        assert!(manifest.contains("application/json"));
        assert!(manifest.contains("{\"tool\": \"test\"}"));

        let missing = get(addr, "GET /nope HTTP/1.0\r\n\r\n");
        assert!(missing.starts_with("HTTP/1.0 404"));

        let put = get(addr, "PUT /metrics HTTP/1.0\r\n\r\n");
        assert!(put.starts_with("HTTP/1.0 405"));

        server.shutdown().expect("clean shutdown");
    }

    #[test]
    fn head_requests_omit_the_body() {
        let server = serve(
            "127.0.0.1:0",
            ServeContext {
                registry: Arc::new(Registry::new()),
                manifest_json: "{}".to_owned(),
                fleet: None,
                debug: None,
            },
        )
        .expect("bind");
        let response = get(server.local_addr(), "HEAD /healthz HTTP/1.0\r\n\r\n");
        assert!(response.starts_with("HTTP/1.0 200 OK"));
        assert!(response.contains("Content-Length: 3"));
        assert!(!response.ends_with("ok\n"));
    }

    #[test]
    fn readyz_reports_per_shard_fleet_state() {
        let registry = Arc::new(Registry::new());
        let fleet = Arc::new(crate::health::FleetHealth::new(&registry, 3));
        let server = serve(
            "127.0.0.1:0",
            ServeContext {
                registry,
                manifest_json: "{}".to_owned(),
                fleet: Some(Arc::clone(&fleet)),
                debug: None,
            },
        )
        .expect("bind");
        let addr = server.local_addr();

        // All shards starting → no quorum → 503.
        let starting = get(addr, "GET /readyz HTTP/1.0\r\n\r\n");
        assert!(starting.starts_with("HTTP/1.0 503"));
        assert!(starting.contains("shards 3 ready 0"));

        // Two of three ready is a strict majority, even with the third
        // shard restarting — the bulkhead keeps the fleet in rotation.
        fleet.shard(0).set_state(crate::health::ServiceState::Ready);
        fleet.shard(1).set_state(crate::health::ServiceState::Ready);
        fleet
            .shard(2)
            .set_state(crate::health::ServiceState::Restarting);
        fleet.shard(2).record_restart();
        fleet.shard(2).set_quarantined(1);
        let ready = get(addr, "GET /readyz HTTP/1.0\r\n\r\n");
        assert!(ready.starts_with("HTTP/1.0 200"), "got: {ready}");
        assert!(ready.contains("shards 3 ready 2"));
        assert!(ready.contains("shard 2 restarting restarts 1"));
        assert!(ready.contains("quarantined 1"));
    }

    #[test]
    fn readyz_without_health_mirrors_healthz() {
        let server = serve(
            "127.0.0.1:0",
            ServeContext {
                registry: Arc::new(Registry::new()),
                manifest_json: "{}".to_owned(),
                fleet: None,
                debug: None,
            },
        )
        .expect("bind");
        let response = get(server.local_addr(), "GET /readyz HTTP/1.0\r\n\r\n");
        assert!(response.starts_with("HTTP/1.0 200"));
    }

    #[test]
    fn oversized_request_heads_get_431() {
        let server = serve(
            "127.0.0.1:0",
            ServeContext {
                registry: Arc::new(Registry::new()),
                manifest_json: "{}".to_owned(),
                fleet: None,
                debug: None,
            },
        )
        .expect("bind");
        // A header block that never terminates and exceeds the cap.
        // The server may answer (and stop reading) mid-write, so write
        // errors are expected and ignored.
        let mut request = String::from("GET /metrics HTTP/1.0\r\n");
        request.push_str(&"X-Filler: aaaaaaaaaaaaaaaaaaaaaaaa\r\n".repeat(1024));
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        let _ = stream.write_all(request.as_bytes());
        let _ = stream.flush();
        let mut response = String::new();
        let _ = stream.read_to_string(&mut response);
        assert!(
            response.starts_with("HTTP/1.0 431"),
            "expected 431, got: {}",
            response.lines().next().unwrap_or_default()
        );
    }

    #[test]
    fn query_strings_are_ignored() {
        let server = serve(
            "127.0.0.1:0",
            ServeContext {
                registry: Arc::new(Registry::new()),
                manifest_json: "{}".to_owned(),
                fleet: None,
                debug: None,
            },
        )
        .expect("bind");
        let response = get(
            server.local_addr(),
            "GET /healthz?verbose=1 HTTP/1.0\r\n\r\n",
        );
        assert!(response.starts_with("HTTP/1.0 200 OK"));
    }
}
