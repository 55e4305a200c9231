//! The serve line protocol, client side: one JSON object per line over
//! a Unix socket, one reply line per request. Replies are read as text
//! (`"ok":true`, `"support":7`), which is all the benchmark needs and
//! keeps the driver free of the repo's JSON code.

use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::script::{Expect, Request};

/// A reply slower than this is a failed request.
const REPLY_TIMEOUT: Duration = Duration::from_secs(20);

pub struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    reply: String,
}

impl Client {
    /// Connects as soon as the frontend listens: the socket appears
    /// only after the fleet's cold start, so the time this takes is the
    /// cold-start time. Polls every millisecond until `deadline`.
    pub fn connect_retry(path: &Path, deadline: Instant) -> io::Result<Client> {
        loop {
            match UnixStream::connect(path) {
                Ok(writer) => {
                    writer.set_read_timeout(Some(REPLY_TIMEOUT))?;
                    writer.set_write_timeout(Some(REPLY_TIMEOUT))?;
                    let reader = BufReader::new(writer.try_clone()?);
                    return Ok(Client { reader, writer, reply: String::new() });
                }
                Err(e) if Instant::now() >= deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(1)),
            }
        }
    }

    /// Sends one request line (newline included) and returns the reply
    /// line without its newline.
    pub fn request(&mut self, line: &str) -> io::Result<&str> {
        debug_assert!(line.ends_with('\n'));
        self.writer.write_all(line.as_bytes())?;
        self.reply.clear();
        if self.reader.read_line(&mut self.reply)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "service closed the connection",
            ));
        }
        Ok(self.reply.trim_end())
    }
}

/// The number after `"key":` in a reply line.
pub fn field_u64(reply: &str, key: &str) -> Option<u64> {
    let rest = &reply[reply.find(&format!("\"{key}\":"))? + key.len() + 3..];
    let digits = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
    rest[..digits].parse().ok()
}

pub fn is_ok(reply: &str) -> bool {
    reply.starts_with("{\"ok\":true")
}

/// Whether `reply` is the right answer to a scripted request.
pub fn reply_matches(reply: &str, expect: &Expect) -> bool {
    is_ok(reply)
        && match expect {
            Expect::Ok => true,
            Expect::Triangles(t) => field_u64(reply, "triangles") == Some(*t),
            Expect::Support { support, present } => {
                field_u64(reply, "support") == Some(*support)
                    && reply.contains(if *present {
                        "\"present\":true"
                    } else {
                        "\"present\":false"
                    })
            }
        }
}

/// What one connection did in a closed loop.
#[derive(Debug, Default)]
pub struct LoopOutcome {
    /// Requests sent (each waited for its reply, or failed).
    pub sent: usize,
    pub failed: usize,
    /// Per request, in order: (op index, nanoseconds until the reply).
    pub latencies: Vec<(u8, u64)>,
    /// The first few failures, for the artefact.
    pub failures: Vec<String>,
}

/// Closed loop on one connection: send the script's next request when
/// the previous reply has arrived, wrapping at the end, until `until`
/// or, if given, for exactly `limit` requests. A wrong, refused or
/// late reply is a failed request; a broken connection ends the loop.
pub fn closed_loop(
    client: &mut Client,
    script: &[Request],
    until: Instant,
    limit: Option<usize>,
) -> LoopOutcome {
    let mut out = LoopOutcome::default();
    out.latencies.reserve(limit.unwrap_or(1 << 17));
    loop {
        let done = match limit {
            Some(n) => out.sent >= n,
            None => Instant::now() >= until,
        };
        if done {
            return out;
        }
        let req = &script[out.sent % script.len()];
        out.sent += 1;
        let t = Instant::now();
        let verdict = client.request(&req.line).map(|reply| {
            if reply_matches(reply, &req.expect) {
                None
            } else {
                Some(format!("{} -> {reply} (want {:?})", req.line.trim_end(), req.expect))
            }
        });
        let nanos = t.elapsed().as_nanos() as u64;
        match verdict {
            Ok(None) => out.latencies.push((req.op as u8, nanos)),
            Ok(Some(wrong)) => {
                out.failed += 1;
                if out.failures.len() < 5 {
                    out.failures.push(wrong);
                }
            }
            Err(e) => {
                out.failed += 1;
                out.failures.push(format!("{} -> connection error: {e}", req.line.trim_end()));
                return out;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_fields_out_of_reply_lines() {
        let r = "{\"ok\":true,\"support\":17,\"present\":false}";
        assert_eq!(field_u64(r, "support"), Some(17));
        assert_eq!(field_u64(r, "triangles"), None);
        let stats = "{\"ok\":true,\"edges\":12,\"triangles\":3,\"full_recounts\":1,\"pending\":0}";
        assert_eq!(field_u64(stats, "full_recounts"), Some(1));
        assert_eq!(field_u64(stats, "edges"), Some(12));
    }

    #[test]
    fn wrong_refused_and_failed_replies_do_not_match() {
        let want = Expect::Support { support: 17, present: false };
        assert!(reply_matches("{\"ok\":true,\"support\":17,\"present\":false}", &want));
        assert!(!reply_matches("{\"ok\":true,\"support\":18,\"present\":false}", &want));
        assert!(!reply_matches("{\"ok\":true,\"support\":17,\"present\":true}", &want));
        assert!(!reply_matches("{\"ok\":false,\"error\":\"over_capacity\"}", &Expect::Ok));
        assert!(reply_matches("{\"ok\":true,\"queued\":8,\"pending\":8}", &Expect::Ok));
        assert!(reply_matches("{\"ok\":true,\"triangles\":5}", &Expect::Triangles(5)));
        assert!(!reply_matches("{\"ok\":true,\"triangles\":6}", &Expect::Triangles(5)));
    }
}
