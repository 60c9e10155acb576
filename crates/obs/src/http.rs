//! A hand-rolled minimal HTTP/1.1 responder for the `/metrics` endpoint.
//!
//! Standard scrapers (Prometheus, curl) only ever send a small GET, so
//! this deliberately implements just enough of HTTP/1.1: one accept
//! thread, one request per connection (`Connection: close`), a bounded
//! header read with a timeout, and three outcomes — `200` with the
//! rendered body for `GET /metrics` (or `GET /`), `404` for other paths,
//! `405` for other methods. No keep-alive, no TLS, no request bodies.
//!
//! The body callback runs per scrape, so it can snapshot live state (the
//! service latency histogram) at scrape time.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Longest request head accepted before the connection is dropped.
const MAX_REQUEST_BYTES: usize = 8192;

/// A running metrics endpoint; shuts down when dropped.
pub struct MetricsServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (`host:0` picks an ephemeral port) and serves
    /// `body()` to every `GET /metrics` until shutdown.
    pub fn serve(
        addr: impl ToSocketAddrs,
        body: Arc<dyn Fn() -> String + Send + Sync>,
    ) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("tasm-metrics".to_string())
                .spawn(move || scrape_loop(&listener, &stop, &body))
                .expect("spawn metrics accept loop")
        };
        Ok(MetricsServer {
            local_addr,
            stop,
            accept: Some(accept),
        })
    }

    /// The address the endpoint actually bound.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops the endpoint and joins its thread (also runs on drop).
    pub fn shutdown(mut self) {
        self.stop_thread();
    }

    fn stop_thread(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop_thread();
    }
}

fn scrape_loop(
    listener: &TcpListener,
    stop: &AtomicBool,
    body: &Arc<dyn Fn() -> String + Send + Sync>,
) {
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => handle_connection(stream, body),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Serves one request on an accepted connection; every syscall is bounded
/// by a timeout so a stalled peer cannot wedge the accept thread for long.
fn handle_connection(mut stream: TcpStream, body: &Arc<dyn Fn() -> String + Send + Sync>) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let mut head = Vec::new();
    let mut chunk = [0u8; 1024];
    // Read until the blank line ending the request head (responses ignore
    // any body — GET has none).
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                head.extend_from_slice(&chunk[..n]);
                if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() > MAX_REQUEST_BYTES {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let request_line = match std::str::from_utf8(&head)
        .ok()
        .and_then(|s| s.lines().next())
    {
        Some(line) => line.to_string(),
        None => return,
    };
    let mut parts = request_line.split_whitespace();
    let (method, path) = match (parts.next(), parts.next()) {
        (Some(m), Some(p)) => (m, p),
        _ => return,
    };
    let (status, payload) = if method != "GET" {
        ("405 Method Not Allowed", "method not allowed\n".to_string())
    } else if path == "/metrics" || path == "/" {
        ("200 OK", body())
    } else {
        ("404 Not Found", "not found; try /metrics\n".to_string())
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{payload}",
        payload.len()
    );
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scrape(addr: SocketAddr, request: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect to metrics endpoint");
        stream.write_all(request.as_bytes()).expect("send request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        response
    }

    #[test]
    fn serves_the_body_on_get_metrics() {
        let body: Arc<dyn Fn() -> String + Send + Sync> = Arc::new(|| "tasm_up 1\n".to_string());
        let server = MetricsServer::serve("127.0.0.1:0", body).expect("bind metrics endpoint");
        let addr = server.local_addr();
        let response = scrape(addr, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
        assert!(response.contains("text/plain; version=0.0.4"));
        assert!(response.ends_with("tasm_up 1\n"), "{response}");
        // Content-Length matches the payload exactly.
        let len: usize = response
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .expect("has content length")
            .trim()
            .parse()
            .expect("numeric content length");
        assert_eq!(len, "tasm_up 1\n".len());
        server.shutdown();
    }

    #[test]
    fn rejects_unknown_paths_and_methods() {
        let body: Arc<dyn Fn() -> String + Send + Sync> = Arc::new(String::new);
        let server = MetricsServer::serve("127.0.0.1:0", body).expect("bind metrics endpoint");
        let addr = server.local_addr();
        let response = scrape(addr, "GET /nope HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(response.starts_with("HTTP/1.1 404"), "{response}");
        let response = scrape(addr, "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(response.starts_with("HTTP/1.1 405"), "{response}");
    }

    #[test]
    fn body_callback_sees_live_state_per_scrape() {
        let hits = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let body: Arc<dyn Fn() -> String + Send + Sync> = {
            let hits = Arc::clone(&hits);
            Arc::new(move || format!("scrapes {}\n", hits.fetch_add(1, Ordering::SeqCst) + 1))
        };
        let server = MetricsServer::serve("127.0.0.1:0", body).expect("bind metrics endpoint");
        let addr = server.local_addr();
        assert!(scrape(addr, "GET / HTTP/1.1\r\n\r\n").ends_with("scrapes 1\n"));
        assert!(scrape(addr, "GET / HTTP/1.1\r\n\r\n").ends_with("scrapes 2\n"));
        server.shutdown();
    }
}
