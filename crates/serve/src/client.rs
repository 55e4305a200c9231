//! Minimal blocking client for the service protocol, used by the
//! `tricount query` CLI and the integration tests.

use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::{Duration, Instant};

use tc_metrics::json::{self, Value};

use crate::proto::{self, Request};

/// First pause of the connect-retry backoff.
pub const BACKOFF_BASE: Duration = Duration::from_millis(10);
/// Ceiling of the connect-retry backoff.
pub const BACKOFF_CAP: Duration = Duration::from_millis(500);

/// Capped exponential backoff with deterministic jitter for the
/// `attempt`-th (1-based) failed connect.
fn retry_backoff(attempt: u32) -> Duration {
    let base = BACKOFF_BASE.as_millis() as u64;
    let exp =
        base.saturating_mul(1u64 << (attempt - 1).min(16)).min(BACKOFF_CAP.as_millis() as u64);
    // splitmix64 of the attempt number: same schedule every run, but
    // decorrelated across attempts.
    let mut z = (attempt as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    let jitter = (z ^ (z >> 31)) % (base / 2 + 1);
    Duration::from_millis(exp + jitter)
}

/// One connection to a running service.
#[derive(Debug)]
pub struct Client {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Client {
    /// Connects to the service socket at `path`.
    pub fn connect(path: &Path) -> io::Result<Client> {
        let writer = UnixStream::connect(path)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { writer, reader })
    }

    /// Connects, retrying until the socket appears (a service still
    /// cold-starting has not bound it yet) or `timeout` elapses.
    ///
    /// Retries back off exponentially from [`BACKOFF_BASE`] up to
    /// [`BACKOFF_CAP`] with deterministic per-attempt jitter, so a
    /// stampede of clients hammering a respawning service spreads out
    /// instead of synchronizing. Exceeding the overall deadline
    /// returns a typed [`io::ErrorKind::TimedOut`] error naming the
    /// socket, the attempt count, and the last underlying failure.
    pub fn connect_retry(path: &Path, timeout: Duration) -> io::Result<Client> {
        let start = Instant::now();
        let deadline = start + timeout;
        let mut attempts = 0u32;
        loop {
            match Self::connect(path) {
                Ok(c) => return Ok(c),
                Err(e) => {
                    attempts += 1;
                    let pause = retry_backoff(attempts);
                    if Instant::now() + pause >= deadline {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            format!(
                                "no service at {} after {attempts} attempts over {:?} \
                                 (last error: {e})",
                                path.display(),
                                start.elapsed()
                            ),
                        ));
                    }
                    std::thread::sleep(pause);
                }
            }
        }
    }

    /// Sends one raw request line and returns the raw reply line.
    pub fn request_raw(&mut self, line: &str) -> io::Result<String> {
        writeln!(self.writer, "{line}")?;
        self.writer.flush()?;
        let mut reply = String::new();
        let n = self.reader.read_line(&mut reply)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "service closed the connection",
            ));
        }
        Ok(reply.trim_end().to_string())
    }

    /// Sends a typed request and parses the JSON reply. Protocol
    /// failures (`"ok": false`) become `Err` with the typed kind
    /// (for a degraded service, the kind is
    /// [`proto::ERR_DEGRADED`]).
    pub fn request(&mut self, req: &Request) -> Result<Value, String> {
        let line =
            self.request_raw(&proto::request_line(req)).map_err(|e| format!("service i/o: {e}"))?;
        let v = json::parse(&line).map_err(|e| format!("malformed reply {line:?}: {e}"))?;
        match v.get("ok") {
            Some(&Value::Bool(true)) => Ok(v),
            _ => {
                let kind =
                    v.get("error").and_then(Value::as_str).unwrap_or("unknown_error").to_string();
                match v.get("detail").and_then(Value::as_str) {
                    Some(d) => Err(format!("{kind}: {d}")),
                    None => Err(kind),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_capped_exponential_and_deterministic() {
        let b1 = retry_backoff(1).as_millis() as u64;
        let b3 = retry_backoff(3).as_millis() as u64;
        let b9 = retry_backoff(9).as_millis() as u64;
        assert!((10..=15).contains(&b1), "b1 = {b1}");
        assert!((40..=45).contains(&b3), "b3 = {b3}");
        assert!((500..=505).contains(&b9), "cap applies, b9 = {b9}");
        assert_eq!(retry_backoff(4), retry_backoff(4));
    }

    #[test]
    fn connect_retry_times_out_with_a_typed_error() {
        let path = std::env::temp_dir().join("tc-client-no-such-socket.sock");
        let err = Client::connect_retry(&path, Duration::from_millis(40)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        let msg = err.to_string();
        assert!(msg.contains("attempts"), "error must name the attempt count: {msg}");
        assert!(msg.contains("no-such-socket"), "error must name the socket: {msg}");
    }
}
