//! A connection wrapper that enforces whole-request I/O budgets and
//! hosts the socket-level fault-injection sites.
//!
//! The seed server set a 5-second timeout *per `read` call*, which a
//! slow-loris client defeats by trickling one byte at a time — every
//! byte resets the clock, so one connection can hold a worker slot
//! forever. [`GuardedStream`] instead fixes a wall-clock deadline when
//! the connection is picked up and, before every syscall, re-arms the
//! socket timeout with the *remaining* budget. Total time across all
//! reads (and, independently, all writes) is bounded no matter how the
//! client paces its bytes; the write budget starts at the first write,
//! so a client that wastes the entire read budget still gets its `408`.
//! `set_read_timeout` failures are propagated, not discarded.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::faults::{FaultPlan, FaultSite, Injected};

/// A [`TcpStream`] with per-direction wall-clock budgets and fault
/// hooks at [`FaultSite::SocketRead`] / [`FaultSite::SocketWrite`].
pub struct GuardedStream {
    inner: TcpStream,
    read_deadline: Instant,
    write_budget: Duration,
    /// Armed lazily at the first write: the write budget covers the
    /// *response* phase. If it started with the read budget, a client
    /// that burned the whole read budget would leave no time to send
    /// the 408 that tells it so.
    write_deadline: Option<Instant>,
    faults: Arc<FaultPlan>,
}

fn budget_error(direction: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::TimedOut,
        format!("whole-request {direction} budget exhausted"),
    )
}

fn injected_error(site: FaultSite) -> io::Error {
    io::Error::other(format!("injected fault: error at {}", site.name()))
}

impl GuardedStream {
    /// Wraps `stream`, starting the read budget now; the write budget
    /// starts at the first write.
    ///
    /// # Errors
    ///
    /// Propagates `set_read_timeout`/`set_write_timeout` failures (the
    /// seed discarded them; a socket that cannot take timeouts cannot be
    /// served within a budget).
    pub fn new(
        stream: TcpStream,
        read_budget: Duration,
        write_budget: Duration,
        faults: Arc<FaultPlan>,
    ) -> io::Result<GuardedStream> {
        stream.set_read_timeout(Some(read_budget.max(Duration::from_millis(1))))?;
        stream.set_write_timeout(Some(write_budget.max(Duration::from_millis(1))))?;
        Ok(GuardedStream {
            inner: stream,
            read_deadline: Instant::now() + read_budget,
            write_budget,
            write_deadline: None,
            faults,
        })
    }

    /// Remaining time before `deadline`, or a `TimedOut` error.
    fn remaining(deadline: Instant, direction: &str) -> io::Result<Duration> {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            Err(budget_error(direction))
        } else {
            // `set_read_timeout` rejects zero durations; sub-millisecond
            // remainders round up to the minimum representable timeout.
            Ok(left.max(Duration::from_millis(1)))
        }
    }

    /// Unwraps back to the raw stream (for lingering close).
    #[must_use]
    pub fn into_inner(self) -> TcpStream {
        self.inner
    }
}

impl Read for GuardedStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let cap = match self.faults.trip(FaultSite::SocketRead) {
            Some(Injected::Error) => return Err(injected_error(FaultSite::SocketRead)),
            Some(Injected::ShortRead) => 1.min(buf.len()),
            None => buf.len(),
        };
        let left = Self::remaining(self.read_deadline, "read")?;
        self.inner.set_read_timeout(Some(left))?;
        match self.inner.read(&mut buf[..cap]) {
            // A timeout surfaces as WouldBlock on Unix; normalize so
            // callers see one budget-exhausted kind.
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Err(budget_error("read")),
            other => other,
        }
    }
}

impl Write for GuardedStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self.faults.trip(FaultSite::SocketWrite) {
            Some(Injected::Error) => return Err(injected_error(FaultSite::SocketWrite)),
            Some(Injected::ShortRead) | None => {}
        }
        let deadline = match self.write_deadline {
            Some(deadline) => deadline,
            None => {
                let deadline = Instant::now() + self.write_budget;
                self.write_deadline = Some(deadline);
                deadline
            }
        };
        let left = Self::remaining(deadline, "write")?;
        self.inner.set_write_timeout(Some(left))?;
        match self.inner.write(buf) {
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Err(budget_error("write")),
            other => other,
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    #[test]
    fn read_budget_bounds_a_trickling_peer() {
        let (client, server) = pair();
        let mut guarded = GuardedStream::new(
            server,
            Duration::from_millis(150),
            Duration::from_secs(5),
            Arc::new(FaultPlan::inert()),
        )
        .unwrap();
        // Trickle one byte, then go silent: the first read succeeds, the
        // second must fail once the *total* budget is spent — not per-read.
        let trickler = std::thread::spawn(move || {
            let mut client = client;
            client.write_all(b"x").unwrap();
            std::thread::sleep(Duration::from_millis(400));
            client
        });
        let started = Instant::now();
        let mut buf = [0u8; 16];
        assert_eq!(guarded.read(&mut buf).unwrap(), 1);
        let err = loop {
            match guarded.read(&mut buf) {
                Ok(0) => panic!("peer did not close"),
                Ok(_) => continue,
                Err(e) => break e,
            }
        };
        assert_eq!(err.kind(), io::ErrorKind::TimedOut, "{err}");
        assert!(
            started.elapsed() < Duration::from_millis(350),
            "budget did not bound the connection: {:?}",
            started.elapsed()
        );
        drop(trickler.join());
    }

    #[test]
    fn injected_read_error_and_short_read() {
        use crate::faults::FaultSpec;
        let (mut client, server) = pair();
        client.write_all(b"hello").unwrap();
        // Deterministic plan: find a seed offset where the first trip is a
        // short read by arming only short reads.
        let plan = FaultPlan::new(11).arm(
            FaultSite::SocketRead,
            FaultSpec {
                short_read_ppm: 1_000_000,
                ..FaultSpec::default()
            },
        );
        let mut guarded = GuardedStream::new(
            server,
            Duration::from_secs(2),
            Duration::from_secs(2),
            Arc::new(plan),
        )
        .unwrap();
        let mut buf = [0u8; 16];
        assert_eq!(guarded.read(&mut buf).unwrap(), 1, "short read delivers 1");

        let plan = FaultPlan::new(11).arm(
            FaultSite::SocketRead,
            FaultSpec {
                error_ppm: 1_000_000,
                ..FaultSpec::default()
            },
        );
        let (mut client2, server2) = pair();
        client2.write_all(b"hello").unwrap();
        let mut guarded = GuardedStream::new(
            server2,
            Duration::from_secs(2),
            Duration::from_secs(2),
            Arc::new(plan),
        )
        .unwrap();
        let err = guarded.read(&mut buf).unwrap_err();
        assert!(err.to_string().contains("socket_read"), "{err}");
        let _ = client;
    }

    #[test]
    fn injected_write_error_fails_the_write_then_writes_pass() {
        use crate::faults::FaultSpec;
        let (mut client, server) = pair();
        let plan = FaultPlan::new(11)
            .arm(
                FaultSite::SocketWrite,
                FaultSpec {
                    error_ppm: 1_000_000,
                    ..FaultSpec::default()
                },
            )
            .with_fuse(1);
        let mut guarded = GuardedStream::new(
            server,
            Duration::from_secs(2),
            Duration::from_secs(2),
            Arc::new(plan),
        )
        .unwrap();
        let err = guarded.write(b"lost").unwrap_err();
        assert!(err.to_string().contains("socket_write"), "{err}");
        // The fuse is spent: the next write goes through, and the peer
        // sees only its bytes.
        guarded.write_all(b"pong").unwrap();
        drop(guarded);
        let mut got = String::new();
        client.read_to_string(&mut got).unwrap();
        assert_eq!(got, "pong");
    }

    #[test]
    fn response_is_writable_after_the_read_budget_is_spent() {
        // Equal read/write budgets (the CLI's --read-budget-ms sets both):
        // a slow client exhausts the read budget, and the 408 must still
        // go out — the write budget starts at the first write.
        let (mut client, server) = pair();
        let mut guarded = GuardedStream::new(
            server,
            Duration::from_millis(100),
            Duration::from_millis(100),
            Arc::new(FaultPlan::inert()),
        )
        .unwrap();
        let mut buf = [0u8; 16];
        let err = guarded.read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        std::thread::sleep(Duration::from_millis(120)); // well past pickup + budget
        guarded
            .write_all(b"HTTP/1.1 408")
            .expect("write after read timeout");
        drop(guarded);
        let mut got = String::new();
        client.read_to_string(&mut got).unwrap();
        assert_eq!(got, "HTTP/1.1 408");
    }

    #[test]
    fn writes_pass_through_and_are_budgeted() {
        let (mut client, server) = pair();
        let mut guarded = GuardedStream::new(
            server,
            Duration::from_secs(2),
            Duration::from_secs(2),
            Arc::new(FaultPlan::inert()),
        )
        .unwrap();
        guarded.write_all(b"pong").unwrap();
        guarded.flush().unwrap();
        drop(guarded);
        let mut got = String::new();
        client.read_to_string(&mut got).unwrap();
        assert_eq!(got, "pong");
    }
}
