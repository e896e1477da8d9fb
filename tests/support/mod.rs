//! The HTTP/1.1 client the serve suites share: one `Connection: close`
//! exchange per request over a real socket.
//!
//! The exchange tolerates transport hiccups (a fault storm may close a
//! connection early, so a write can fail while a response still
//! arrives) and reports a missing or garbled response as status 0, so a
//! suite asserts on it instead of panicking inside the client.

#![allow(dead_code)]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Sends `raw`, half-closes, and returns the status (0 when the response
/// is missing or garbled) and the body.
pub fn exchange(addr: SocketAddr, raw: &[u8]) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let _ = stream.write_all(raw);
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut response = String::new();
    let _ = stream.read_to_string(&mut response);
    let status = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

pub fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    let raw = format!(
        "POST {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    exchange(addr, raw.as_bytes())
}

pub fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    let raw = format!("GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n");
    exchange(addr, raw.as_bytes())
}

/// The value of the first `/metrics` sample named `name` (labels
/// included) in `metrics`, or `u64::MAX` when there is none.
pub fn scrape(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .find(|l| l.starts_with(name) && !l.starts_with('#'))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(u64::MAX)
}

/// [`scrape`] of a live server's `/metrics`; panics when the sample is
/// missing.
pub fn scrape_at(addr: SocketAddr, name: &str) -> u64 {
    let (status, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200);
    let value = scrape(&metrics, name);
    assert_ne!(value, u64::MAX, "metric {name} missing:\n{metrics}");
    value
}
