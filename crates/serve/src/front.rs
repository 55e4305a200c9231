//! Rank 0's front door: one `poll(2)` loop over a nonblocking
//! listener and every client connection, run by the service thread
//! itself. Lines are framed and parsed here; a request is admitted
//! into the job queue ([`Front::pop`]) or refused at once, and
//! [`Front::reply`] writes its answer straight to the socket.
//!
//! A connection is read only when idle: no request in flight, nothing
//! left in its output buffer. So it costs at most one reply plus one
//! partial line, its replies come in request order, and a client that
//! never reads stalls only itself while the kernel pushes back. Each
//! turn moves every connection one step (at most one read and one
//! line), so a client that streams lines cannot hold the loop either.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::os::fd::AsRawFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::time::{Duration, Instant};

use tc_metrics::names as m;
use tc_mps::poll::{self, PollFd, POLLIN, POLLOUT};

use crate::proto::{self, Request};

/// Bytes asked for per `read` of a client socket.
const READ_CHUNK: usize = 8192;

/// One client connection.
struct Conn {
    stream: UnixStream,
    /// Bytes read but not yet framed into a line.
    input: Vec<u8>,
    /// `input[..scanned]` holds no `\n`, and `input[scanned]` is one
    /// when `scanned < input.len()`: each byte is searched once.
    scanned: usize,
    /// Reply bytes the socket has not taken yet.
    output: Vec<u8>,
    /// A request of this connection is admitted and not yet answered.
    busy: bool,
}

impl Conn {
    /// Idle, with a complete line buffered: it can move without
    /// waiting for the socket.
    fn ready(&self) -> bool {
        !self.busy && self.output.is_empty() && self.scanned < self.input.len()
    }

    /// Moves `scanned` to the next `\n`, or the end of the input.
    fn scan(&mut self) {
        let rest = &self.input[self.scanned..];
        self.scanned += rest.iter().position(|&b| b == b'\n').unwrap_or(rest.len());
    }

    /// Writes what the socket takes of the output buffer; false when
    /// the client is gone.
    fn flush(&mut self) -> bool {
        match self.stream.write(&self.output) {
            Ok(n) => drop(self.output.drain(..n)),
            Err(e) => return matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted),
        }
        true
    }
}

/// The listener, the client connections, and the queue of admitted
/// `(connection, request)` jobs.
#[derive(Default)]
pub(crate) struct Front {
    /// `None` once closed: every request is answered `shutting_down`.
    listener: Option<UnixListener>,
    /// Slab of connections; a job names its connection by slot. A busy
    /// slot is never freed, so the name stays valid until the reply.
    conns: Vec<Option<Conn>>,
    jobs: VecDeque<(usize, Request)>,
    /// Admission control: at most this many requests admitted and not
    /// yet answered.
    capacity: usize,
    /// Requests refused `over_capacity` so far.
    pub(crate) rejected: u64,
}

impl Front {
    /// Binds the listener at `path`, replacing a stale socket file.
    pub(crate) fn bind(path: &Path, capacity: usize) -> Front {
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)
            .and_then(|l| l.set_nonblocking(true).map(|()| l))
            .unwrap_or_else(|e| panic!("cannot listen on {}: {e}", path.display()));
        Front { listener: Some(listener), capacity, ..Front::default() }
    }

    /// Serves every connection until a request is admitted or
    /// `timeout` passes.
    pub(crate) fn pop(&mut self, timeout: Duration) -> Option<(usize, Request)> {
        let deadline = Instant::now() + timeout;
        while self.jobs.is_empty() && Instant::now() < deadline {
            self.turn(deadline.saturating_duration_since(Instant::now()));
        }
        self.jobs.pop_front()
    }

    /// Answers connection `conn`'s request with `line` and writes what
    /// the socket takes of it now; the rest goes out on later turns.
    pub(crate) fn reply(&mut self, conn: usize, line: &str) {
        let Some(c) = self.conns[conn].as_mut() else { return };
        c.busy = false;
        c.output.extend_from_slice(line.as_bytes());
        c.output.push(b'\n');
        if !c.flush() {
            self.conns[conn] = None;
        }
    }

    /// [`Front::reply`], then serves every connection until that reply
    /// is on the wire or `wait` passes: a `shutdown` reply reaches its
    /// client before the service returns, and a client that stopped
    /// reading holds it up for `wait` at most.
    pub(crate) fn reply_and_drain(&mut self, conn: usize, line: &str, wait: Duration) {
        self.reply(conn, line);
        let deadline = Instant::now() + wait;
        while self.conns[conn].as_ref().is_some_and(|c| !c.output.is_empty())
            && Instant::now() < deadline
        {
            self.turn(deadline.saturating_duration_since(Instant::now()));
        }
    }

    /// Stops admission for good. Every request admitted and not yet
    /// answered gets `shutting_down`; the connections still open move
    /// to a detached thread that runs the same loop, closed, until
    /// their clients hang up, so replies the socket has not taken yet
    /// still go out.
    pub(crate) fn close(mut self) {
        self.listener = None;
        self.jobs.clear();
        for conn in 0..self.conns.len() {
            if self.conns[conn].as_ref().is_some_and(|c| c.busy) {
                self.reply(conn, &proto::error_line(proto::ERR_SHUTTING_DOWN, ""));
            }
        }
        std::thread::spawn(move || {
            while self.conns.iter().any(Option::is_some) {
                self.turn(Duration::from_secs(60));
            }
        });
    }

    /// One `poll` over the listener and every waiting connection
    /// (without blocking when some connection is ready), then moves
    /// each connection that can.
    fn turn(&mut self, wait: Duration) {
        // The listener (while open), then one record per slot.
        let mut fds = Vec::with_capacity(self.conns.len() + 1);
        if let Some(l) = &self.listener {
            fds.push(PollFd { fd: l.as_raw_fd(), events: POLLIN, revents: 0 });
        }
        let mut ready = false;
        for c in &self.conns {
            // Nothing to wait for while a reply is being built or a line
            // is buffered; `poll` skips a negative fd.
            let events = match c {
                Some(c) if !c.output.is_empty() => POLLOUT,
                Some(c) if !c.busy && !c.ready() => POLLIN,
                _ => 0,
            };
            ready |= c.as_ref().is_some_and(Conn::ready);
            let fd = c.as_ref().filter(|_| events != 0).map_or(-1, |c| c.stream.as_raw_fd());
            fds.push(PollFd { fd, events, revents: 0 });
        }
        let wait = if ready { Duration::ZERO } else { wait };
        poll::wait(&mut fds, Some(wait)).expect("poll on the serve socket");
        let off = usize::from(self.listener.is_some());
        if off == 1 && fds[0].revents != 0 {
            self.accept();
        }
        for conn in 0..fds.len() - off {
            if fds[off + conn].revents != 0 || self.conns[conn].as_ref().is_some_and(Conn::ready) {
                self.advance(conn);
            }
        }
    }

    /// Accepts every pending connection into a free slot.
    fn accept(&mut self) {
        while let Some(Ok((stream, _))) = self.listener.as_ref().map(UnixListener::accept) {
            let Ok(()) = stream.set_nonblocking(true) else { continue };
            let conn =
                Some(Conn { stream, input: vec![], scanned: 0, output: vec![], busy: false });
            match self.conns.iter().position(Option::is_none) {
                Some(free) => self.conns[free] = conn,
                None => self.conns.push(conn),
            }
        }
    }

    /// Moves one connection one step without blocking: flush its
    /// reply, read once if no line is buffered, then frame one line.
    fn advance(&mut self, conn: usize) {
        let Some(c) = self.conns[conn].as_mut() else { return };
        if !c.output.is_empty() && !c.flush() {
            self.conns[conn] = None;
            return;
        }
        if c.busy || !c.output.is_empty() {
            return;
        }
        if c.scanned == c.input.len() {
            let len = c.input.len();
            c.input.resize(len + READ_CHUNK, 0);
            let got = c.stream.read(&mut c.input[len..]);
            c.input.truncate(len + got.as_ref().map_or(0, |&n| n));
            match got {
                Ok(0) if len == 0 => return self.conns[conn] = None,
                Err(e) if !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                    return self.conns[conn] = None;
                }
                // A final line without its `\n` still counts; the next
                // read sees the hang-up again with nothing buffered.
                Ok(0) => c.input.push(b'\n'),
                _ => {}
            }
            c.scan();
            if c.scanned == c.input.len() {
                return;
            }
        }
        let line: Vec<u8> = c.input.drain(..=c.scanned).collect();
        c.scanned = 0;
        c.scan();
        let line = &line[..line.len() - 1];
        match std::str::from_utf8(line.strip_suffix(b"\r").unwrap_or(line)) {
            Ok(line) if line.trim().is_empty() => {}
            Ok(line) => self.admit(conn, line),
            // As `BufRead::lines` would: a line that is not UTF-8 ends
            // its connection.
            Err(_) => self.conns[conn] = None,
        }
    }

    /// Admits one framed line, or answers it at once.
    fn admit(&mut self, conn: usize, line: &str) {
        let refusal = match proto::parse_request(line) {
            Err(detail) => proto::error_line(proto::ERR_BAD_REQUEST, &detail),
            Ok(_) if self.listener.is_none() => proto::error_line(proto::ERR_SHUTTING_DOWN, ""),
            Ok(_) if self.jobs.len() >= self.capacity => {
                self.rejected += 1;
                tc_metrics::counter_add(m::SERVE_REJECTED_QUERIES, 1);
                proto::error_line(proto::ERR_OVER_CAPACITY, "")
            }
            Ok(req) => {
                self.jobs.push_back((conn, req));
                self.conns[conn].as_mut().expect("admitting a live connection").busy = true;
                return;
            }
        };
        self.reply(conn, &refusal);
    }
}

#[cfg(test)]
mod tests {
    use std::io::{BufRead, BufReader};
    use std::net::Shutdown;
    use std::path::PathBuf;

    use proptest::prelude::*;

    use super::*;

    fn sock_path(label: &str) -> PathBuf {
        std::env::temp_dir().join(format!("tc-front-{}-{label}.sock", std::process::id()))
    }

    fn read_reply(reader: &mut impl BufRead) -> String {
        let mut line = String::new();
        reader.read_line(&mut line).expect("reply line");
        line.trim_end().to_string()
    }

    /// Two requests reach a one-slot front in the same turn: the first
    /// is admitted, the second refused `over_capacity` and tallied.
    #[test]
    fn rejects_over_capacity_and_counts_it() {
        let path = sock_path("capacity");
        let mut front = Front::bind(&path, 1);
        let count = proto::request_line(&Request::Count);
        let mut a = UnixStream::connect(&path).expect("connect a");
        let mut b = UnixStream::connect(&path).expect("connect b");
        writeln!(a, "{count}").expect("send a");
        writeln!(b, "{count}").expect("send b");
        let (conn, req) = front.pop(Duration::from_secs(30)).expect("a is admitted");
        assert_eq!(req, Request::Count);
        assert_eq!(
            read_reply(&mut BufReader::new(&b)),
            proto::error_line(proto::ERR_OVER_CAPACITY, "")
        );
        assert_eq!(front.rejected, 1);
        front.reply(conn, "{\"ok\":true}");
        assert_eq!(read_reply(&mut BufReader::new(&a)), "{\"ok\":true}");
        let _ = std::fs::remove_file(&path);
    }

    /// Closing answers every request in flight, popped or still queued,
    /// `shutting_down`; a connection left open keeps getting
    /// `shutting_down`, and no new connection is accepted.
    #[test]
    fn close_answers_everything_in_flight_shutting_down() {
        let path = sock_path("close");
        let mut front = Front::bind(&path, 4);
        let count = proto::request_line(&Request::Count);
        let a = UnixStream::connect(&path).expect("connect a");
        let b = UnixStream::connect(&path).expect("connect b");
        for mut c in [&a, &b] {
            writeln!(c, "{count}").expect("send");
        }
        front.pop(Duration::from_secs(30)).expect("a is admitted and never answered");
        front.close();
        let down = proto::error_line(proto::ERR_SHUTTING_DOWN, "");
        let mut a_replies = BufReader::new(&a);
        assert_eq!(read_reply(&mut a_replies), down);
        assert_eq!(read_reply(&mut BufReader::new(&b)), down);
        writeln!(&a, "{count}").expect("send after close");
        assert_eq!(read_reply(&mut a_replies), down);
        assert!(UnixStream::connect(&path).is_err(), "a closed front accepts nobody");
        let _ = std::fs::remove_file(&path);
    }

    /// One line of the framing fuzz input, drawn from `kind`.
    fn segment(kind: usize, seed: u64) -> Vec<u8> {
        match kind {
            0 => proto::request_line(&Request::Count).into_bytes(),
            1 => proto::request_line(&Request::Support {
                u: seed as u32 % 50,
                v: (seed >> 32) as u32,
            })
            .into_bytes(),
            2 => b"not json".to_vec(),
            3 => Vec::new(),
            4 => b" \t  ".to_vec(),
            5 => vec![b'{', 0xff, 0xfe, b'}'],
            6 => (0..seed % 64).map(|i| (seed.rotate_left(i as u32 * 7) >> 13) as u8).collect(),
            7 => vec![if seed % 2 == 0 { b'[' } else { b'a' }; 200_000],
            _ => (proto::request_line(&Request::Stats) + "\r").into_bytes(),
        }
    }

    /// What the front must answer `bytes` (which end in `\n`) with: one
    /// reply per non-blank line, in order, up to the first line that is
    /// not UTF-8.
    fn expected_replies(bytes: &[u8]) -> Vec<String> {
        let mut out = Vec::new();
        // `bytes` ends in `\n`, so the last piece is empty and blank.
        for raw in bytes.split(|&b| b == b'\n') {
            let raw = raw.strip_suffix(b"\r").unwrap_or(raw);
            let Ok(line) = std::str::from_utf8(raw) else { break };
            if !line.trim().is_empty() {
                out.push(match proto::parse_request(line) {
                    Ok(req) => proto::request_line(&req),
                    Err(detail) => proto::error_line(proto::ERR_BAD_REQUEST, &detail),
                });
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Arbitrary lines, split at arbitrary chunk boundaries, into a
        /// live front: it never panics or hangs, and answers exactly the
        /// replies `expected_replies` names (each job is answered with
        /// its own request line).
        #[test]
        fn framing_survives_arbitrary_bytes_and_chunks(
            segs in prop::collection::vec((0usize..9, any::<u64>()), 0..10),
            cuts in prop::collection::vec(1usize..3000, 1..8),
            terminated in any::<bool>(),
        ) {
            let mut bytes = Vec::new();
            for &(kind, seed) in &segs {
                bytes.extend(segment(kind, seed));
                bytes.extend_from_slice(if seed % 3 == 0 { b"\r\n" } else { b"\n" });
            }
            if !terminated {
                bytes.pop();
            }
            let mut model = bytes.clone();
            model.push(b'\n');
            let want = expected_replies(&model);

            let path = sock_path("fuzz");
            let mut front = Front::bind(&path, 4);
            let client = UnixStream::connect(&path).expect("connect");
            let mut w = client.try_clone().expect("writer half");
            let writer = std::thread::spawn(move || {
                let mut rest = &bytes[..];
                for &cut in cuts.iter().cycle() {
                    let (chunk, tail) = rest.split_at(cut.min(rest.len()));
                    // A dropped connection (not UTF-8) ends the writing.
                    if chunk.is_empty() || w.write_all(chunk).is_err() {
                        break;
                    }
                    rest = tail;
                }
                let _ = w.shutdown(Shutdown::Write);
            });
            let reader = std::thread::spawn(move || {
                let mut lines = BufReader::new(client).lines();
                std::iter::from_fn(|| lines.next()?.ok()).collect::<Vec<_>>()
            });
            let deadline = Instant::now() + Duration::from_secs(60);
            while !reader.is_finished() {
                prop_assert!(Instant::now() < deadline, "the front loop hung");
                if let Some((conn, req)) = front.pop(Duration::from_millis(10)) {
                    front.reply(conn, &proto::request_line(&req));
                }
            }
            let got = reader.join().expect("reader thread");
            writer.join().expect("writer thread");
            let _ = std::fs::remove_file(&path);
            prop_assert_eq!(got, want);
        }
    }
}
