//! Minimal non-blocking Prometheus scrape endpoint.
//!
//! `lvrmd` runs a single-threaded polling loop; a blocking HTTP server would
//! stall the dataplane for the duration of every scrape (or need a thread
//! and a shared-state story). Instead [`MetricsServer`] owns a non-blocking
//! `TcpListener` and is driven from the existing loop: each
//! [`MetricsServer::poll`] accepts any pending connections, reads request
//! bytes that have already arrived, and answers complete requests with the
//! text exposition the caller renders on demand. One poll per loop iteration
//! bounds the time spent on observability regardless of scraper behavior.
//!
//! The protocol support is deliberately tiny: any complete HTTP/1.x request
//! gets a `200` with `text/plain; version=0.0.4` and the connection is
//! closed (`Connection: close`), which every Prometheus-compatible scraper
//! and `curl` handles. Requests bigger than `MAX_REQUEST_BYTES` or older
//! than `CONN_TTL_POLLS` polls are dropped — a scrape endpoint has no
//! business buffering unbounded input from the network.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};

/// Cap on buffered request bytes per connection.
const MAX_REQUEST_BYTES: usize = 8 * 1024;
/// Polls a connection may stay open without completing a request.
const CONN_TTL_POLLS: u32 = 10_000;

struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    age_polls: u32,
}

/// Non-blocking scrape endpoint; see the module docs.
pub struct MetricsServer {
    listener: TcpListener,
    conns: Vec<Conn>,
    local_addr: SocketAddr,
}

impl MetricsServer {
    /// Bind `addr` (e.g. `127.0.0.1:9100`; port 0 picks a free port).
    pub fn bind(addr: &str) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        Ok(MetricsServer { listener, conns: Vec::new(), local_addr })
    }

    /// The bound address (useful when the port was 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Accept pending connections, progress reads, and answer complete
    /// requests with `render()`'s output. Never blocks. Returns how many
    /// scrapes were served this poll; `render` runs once per served scrape,
    /// so an idle endpoint costs one `accept` syscall per loop.
    pub fn poll<F: FnMut() -> String>(&mut self, mut render: F) -> usize {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_ok() {
                        self.conns.push(Conn { stream, buf: Vec::new(), age_polls: 0 });
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }

        let mut served = 0;
        let mut i = 0;
        while i < self.conns.len() {
            match Self::progress(&mut self.conns[i]) {
                ConnState::Pending => i += 1,
                ConnState::Ready => {
                    let mut conn = self.conns.swap_remove(i);
                    let body = render();
                    let header = format!(
                        "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4; \
                         charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
                        body.len()
                    );
                    // Best-effort write; a scraper that vanished mid-scrape
                    // costs nothing but this attempt.
                    let _ = conn.stream.write_all(header.as_bytes());
                    let _ = conn.stream.write_all(body.as_bytes());
                    served += 1;
                }
                ConnState::Dead => {
                    self.conns.swap_remove(i);
                }
            }
        }
        served
    }
}

enum ConnState {
    Pending,
    Ready,
    Dead,
}

impl MetricsServer {
    fn progress(conn: &mut Conn) -> ConnState {
        conn.age_polls += 1;
        if conn.age_polls > CONN_TTL_POLLS {
            return ConnState::Dead;
        }
        let mut chunk = [0u8; 1024];
        loop {
            match conn.stream.read(&mut chunk) {
                Ok(0) => return ConnState::Dead, // peer closed before a full request
                Ok(n) => {
                    conn.buf.extend_from_slice(&chunk[..n]);
                    if conn.buf.len() > MAX_REQUEST_BYTES {
                        return ConnState::Dead;
                    }
                    if conn.buf.windows(4).any(|w| w == b"\r\n\r\n")
                        || conn.buf.windows(2).any(|w| w == b"\n\n")
                    {
                        return ConnState::Ready;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return ConnState::Pending,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return ConnState::Dead,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    fn scrape(addr: SocketAddr) -> std::thread::JoinHandle<String> {
        std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).expect("connect");
            s.write_all(b"GET /metrics HTTP/1.0\r\nHost: x\r\n\r\n").unwrap();
            let mut out = String::new();
            s.read_to_string(&mut out).unwrap();
            out
        })
    }

    fn poll_until<F: FnMut() -> String>(
        srv: &mut MetricsServer,
        mut render: F,
        want: usize,
    ) -> usize {
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut served = 0;
        while served < want && Instant::now() < deadline {
            served += srv.poll(&mut render);
            std::thread::sleep(Duration::from_millis(1));
        }
        served
    }

    #[test]
    fn serves_rendered_text_to_a_blocking_client() {
        let mut srv = MetricsServer::bind("127.0.0.1:0").expect("bind");
        let addr = srv.local_addr();
        let client = scrape(addr);
        let served = poll_until(&mut srv, || "lvrm_frames_in_total 42\n".to_string(), 1);
        assert_eq!(served, 1);
        let response = client.join().unwrap();
        assert!(response.starts_with("HTTP/1.0 200 OK\r\n"), "{response}");
        assert!(response.contains("text/plain; version=0.0.4"), "{response}");
        assert!(response.ends_with("lvrm_frames_in_total 42\n"), "{response}");
    }

    #[test]
    fn handles_multiple_scrapes_and_render_runs_per_scrape() {
        let mut srv = MetricsServer::bind("127.0.0.1:0").expect("bind");
        let addr = srv.local_addr();
        let c1 = scrape(addr);
        let c2 = scrape(addr);
        let mut renders = 0;
        let served = poll_until(
            &mut srv,
            || {
                renders += 1;
                format!("render {renders}\n")
            },
            2,
        );
        assert_eq!(served, 2);
        let mut bodies = vec![c1.join().unwrap(), c2.join().unwrap()];
        bodies.sort();
        assert!(bodies[0].ends_with("render 1\n"), "{bodies:?}");
        assert!(bodies[1].ends_with("render 2\n"), "{bodies:?}");
        assert_eq!(renders, 2, "render must run once per served scrape");
    }

    #[test]
    fn poll_never_blocks_when_idle() {
        let mut srv = MetricsServer::bind("127.0.0.1:0").expect("bind");
        let t0 = Instant::now();
        for _ in 0..100 {
            assert_eq!(srv.poll(String::new), 0);
        }
        assert!(t0.elapsed() < Duration::from_secs(1), "idle polls must be near-free");
    }

    #[test]
    fn oversized_requests_are_dropped_without_reply() {
        let mut srv = MetricsServer::bind("127.0.0.1:0").expect("bind");
        let addr = srv.local_addr();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).expect("connect");
            let junk = vec![b'a'; MAX_REQUEST_BYTES + 1024];
            let _ = s.write_all(&junk); // no terminator, too big
            let mut out = String::new();
            let _ = s.read_to_string(&mut out);
            out
        });
        let served = {
            // Give the client time to push its junk; the server must never
            // serve it.
            let deadline = Instant::now() + Duration::from_millis(500);
            let mut served = 0;
            while Instant::now() < deadline {
                served += srv.poll(|| "nope\n".to_string());
                std::thread::sleep(Duration::from_millis(1));
            }
            served
        };
        assert_eq!(served, 0);
        assert_eq!(client.join().unwrap(), "", "connection dropped with no response");
    }
}
