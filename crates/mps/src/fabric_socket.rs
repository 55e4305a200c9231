//! The multi-process fabric backend over Unix-domain or TCP sockets.
//!
//! Each rank is its own OS process holding one [`SocketFabric`]: a
//! full mesh of nonblocking stream connections ("links") to every
//! peer, owned by one I/O thread.
//!
//! ## Threads
//!
//! The I/O thread runs a `poll(2)` loop ([`crate::poll`]) over every
//! link plus a wake socket, and reads every readable link on every
//! turn, whatever waits to be written: no write can stop a process
//! from reading, so two processes streaming large messages at each
//! other cannot stall. Each link has an outbound queue: senders (the
//! rank thread, or the I/O thread relaying a failure) append to it, and
//! only the loop writes, as much as the socket takes.
//! No thread ever blocks in a write. As it exits, the loop reads its own
//! CPU clock for `mps.fabric.io_cpu_ns`.
//!
//! ## Connection setup
//!
//! Every rank binds its own endpoint ([`crate::SocketConfig::peers`]),
//! dials every lower rank and accepts every higher one. Between
//! accepts it sleeps in `poll` on the listener until a dialer arrives
//! or the connect deadline passes; a dial retries every 2 ms, because a
//! peer that has not bound yet offers nothing to poll. A fixed-size
//! hello (magic, version, launch epoch, universe size, rank) must
//! match, so a stale process or a mis-wired endpoint list fails loudly
//! at startup instead of corrupting a run. An accepted dialer
//! that does not finish its hello within the handshake budget is
//! dropped, and the accept loop goes on.
//!
//! ## Wire format
//!
//! A message is one kind byte, a little-endian `u64` body length, and
//! the body:
//!
//! | kind | body | meaning |
//! |------|------|---------|
//! | `DATA` | frame: seq, tag, length, CRC32c, payload | one payload |
//! | `FIN`  | empty                    | orderly rank termination        |
//! | `FAIL` | `u32` rank + UTF-8 brief | first-failure broadcast         |
//! | `DOWN` | `u32` rank               | recoverable peer-loss broadcast |
//!
//! The sending rank's thread computes a frame's CRC32c
//! ([`tc_graph::io::Crc32c`], streamed over the header and the payload)
//! and queues the header in front of the payload, which is written from
//! the caller's `Bytes` as a second iovec and never copied. The I/O
//! thread checks the CRC over the bytes where they landed in the link's
//! inbound buffer, then copies the payload into the mailbox.
//!
//! ## A damaged stream is an error, not a retry
//!
//! A stream whose reader never stops does not lose, reorder or
//! duplicate bytes. The per-link sequence number and the CRC32c are
//! therefore a detector, not a repair kit: a gap or a damaged frame is
//! a typed [`MpsError::Protocol`] that ends the run (DESIGN §7). A
//! [`crate::FaultPlan`] only delays this process's sends, or crashes it.
//!
//! ## Shutdown
//!
//! A finishing rank queues `FIN` behind everything it sent and waits
//! for every peer's `FIN`; the I/O thread then writes out its queues
//! and the links close. On failure `FAIL` (or `DOWN`) is queued
//! instead, which wakes every peer's blocked receive.

use std::collections::VecDeque;
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, OwnedFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;

use tc_graph::io::Crc32c;

use crate::chaos::{Chaos, FaultPlan};
use crate::error::{MpsError, MpsResult};
use crate::fabric::{
    lock_recover, AwaitOutcome, BlockedOp, Fabric, Failure, Mailbox, Matcher, Packet,
};
use crate::poll::{self, PollFd, POLLIN, POLLOUT};
use crate::stats::SharedStats;
use crate::universe::SocketConfig;

/// Handshake magic: identifies this wire protocol.
const MAGIC: &[u8; 8] = b"TCMPSFB1";

/// Wire protocol version inside the handshake.
const VERSION: u32 = 3;

/// Handshake size: magic (8) + version (4) + epoch (8) + size (4) +
/// rank (4).
const HELLO_LEN: usize = 28;

/// Wire message header: kind (1) + body length (8).
const MSG_HEADER: usize = 9;

/// Frame header size: seq (8) + inner tag (8) + payload len (4) + CRC32c (4).
const FRAME_HEADER: usize = 24;

/// Largest payload one frame can carry (the header's length field is
/// 32 bits). Larger sends fail with a typed [`MpsError::Protocol`].
const MAX_FRAME_PAYLOAD: usize = u32::MAX as usize;

/// Most header bytes a queued message carries: the wire header and, on
/// the data path, the frame header behind it.
const HEAD_MAX: usize = MSG_HEADER + FRAME_HEADER;

/// Largest body a wire message may claim (one frame plus header
/// slack); a corrupt length prefix must not allocate terabytes.
const MAX_WIRE_BODY: u64 = MAX_FRAME_PAYLOAD as u64 + 64;

const KIND_DATA: u8 = 0;
const KIND_FIN: u8 = 1;
const KIND_FAIL: u8 = 2;
/// A recoverable-mode peer-loss notice: `u32` rank of the peer whose
/// connection dropped. Unlike `FAIL` it is typed [`MpsError::PeerDown`]
/// at every survivor, so session loops can rejoin instead of dying.
const KIND_DOWN: u8 = 3;

/// How often a dial retries and the shutdown waits re-check their
/// condition.
const POLL: Duration = Duration::from_millis(2);

/// Smallest inbound buffer; a larger message grows it to its size.
const READ_CHUNK: usize = 64 * 1024;

/// One rank's endpoint, parsed from its peer-list entry.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Endpoint {
    /// `unix:/path` or any entry containing `/`.
    Unix(PathBuf),
    /// `host:port`.
    Tcp(String),
}

/// Rejects payloads that cannot be framed (length field is u32).
/// Called on the send path *before* a sequence number is consumed, so
/// a rejected payload perturbs nothing.
fn check_frame_len(rank: usize, len: usize) -> MpsResult<()> {
    if len > MAX_FRAME_PAYLOAD {
        return Err(MpsError::Protocol {
            rank,
            msg: format!(
                "payload of {len} bytes exceeds the frame limit of {MAX_FRAME_PAYLOAD} bytes"
            ),
        });
    }
    Ok(())
}

/// The header of one frame: seq, tag and payload length, then the
/// CRC32c streamed over those 20 bytes and the payload. The payload
/// fits the length field ([`check_frame_len`]).
fn frame_header(seq: u64, tag: u64, payload: &[u8]) -> [u8; FRAME_HEADER] {
    let mut h = [0u8; FRAME_HEADER];
    h[..8].copy_from_slice(&seq.to_le_bytes());
    h[8..16].copy_from_slice(&tag.to_le_bytes());
    h[16..20].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    let mut crc = Crc32c::new();
    crc.update(&h[..20]);
    crc.update(payload);
    h[20..].copy_from_slice(&crc.finish().to_le_bytes());
    h
}

/// Verifies a frame where it lies and returns its seq, tag and
/// payload; `None` means the frame is damaged (truncated, extended, or
/// bit-flipped).
fn check_frame(b: &[u8]) -> Option<(u64, u64, &[u8])> {
    let (head, payload) = b.split_at_checked(FRAME_HEADER)?;
    let seq = u64::from_le_bytes(head[..8].try_into().unwrap());
    let tag = u64::from_le_bytes(head[8..16].try_into().unwrap());
    // Rebuilding the header checks the length field and the CRC at once.
    let intact = payload.len() <= MAX_FRAME_PAYLOAD && frame_header(seq, tag, payload) == *head;
    intact.then_some((seq, tag, payload))
}

fn parse_endpoint(rank: usize, spec: &str) -> MpsResult<Endpoint> {
    if let Some(path) = spec.strip_prefix("unix:") {
        return Ok(Endpoint::Unix(PathBuf::from(path)));
    }
    if spec.contains('/') {
        return Ok(Endpoint::Unix(PathBuf::from(spec)));
    }
    if spec.contains(':') {
        return Ok(Endpoint::Tcp(spec.to_string()));
    }
    Err(MpsError::Protocol {
        rank,
        msg: format!(
            "endpoint {spec:?} is neither a Unix socket path (contains '/' or 'unix:' \
             prefix) nor a TCP host:port"
        ),
    })
}

/// Carries a TCP connection as a [`UnixStream`]. Once dialed or
/// accepted, a link is only read, written, polled, timed out and shut
/// down, which are the same socket calls for both families.
fn tcp_link(stream: TcpStream) -> UnixStream {
    let _ = stream.set_nodelay(true);
    UnixStream::from(OwnedFd::from(stream))
}

/// Socket-wire counters (`mps.fabric.*`) of one process, fed into the
/// metrics registry by `Universe::try_run_socket`.
#[derive(Debug, Default)]
pub(crate) struct WireStats {
    pub(crate) connects: u64,
    pub(crate) accepts: u64,
    pub(crate) handshakes: u64,
    pub(crate) msgs_sent: u64,
    pub(crate) bytes_sent: u64,
    pub(crate) msgs_recv: u64,
    pub(crate) bytes_recv: u64,
    /// CPU time of the I/O thread, read by the thread as it exits.
    pub(crate) io_cpu_ns: u64,
}

/// One queued wire message: its header bytes and its body, written as
/// two iovecs so that a payload is never copied on its way out.
struct Queued {
    head: [u8; HEAD_MAX],
    head_len: usize,
    body: Bytes,
}

impl Queued {
    /// A message of `kind` whose body is `frame_head` (empty, or a
    /// data frame's header) followed by `body`.
    fn new(kind: u8, frame_head: &[u8], body: Bytes) -> Self {
        let head_len = MSG_HEADER + frame_head.len();
        let mut head = [0u8; HEAD_MAX];
        head[..MSG_HEADER].copy_from_slice(&wire_header(kind, frame_head.len() + body.len()));
        head[MSG_HEADER..head_len].copy_from_slice(frame_head);
        Self { head, head_len, body }
    }
}

/// One link's outbound queue: the wire messages its socket has not
/// taken yet.
#[derive(Default)]
struct Outbound {
    /// Every queued message, oldest first.
    queue: VecDeque<Queued>,
    /// Bytes of the front message already written.
    written: usize,
    /// Sequence number of the next frame on this link.
    next_seq: u64,
    /// The link failed: whatever is queued later is dropped.
    dead: bool,
}

impl Outbound {
    /// Writes what `link` takes of the queue now, without blocking,
    /// and counts every message that left whole. On an error the link
    /// is dead and its queue dropped.
    fn flush(&mut self, mut link: &UnixStream, wire: &mut WireStats) -> std::io::Result<()> {
        while let Some(msg) = self.queue.front() {
            let (head, body) = (&msg.head[..msg.head_len], msg.body.as_slice());
            let total = head.len() + body.len();
            let parts = if self.written < head.len() {
                [IoSlice::new(&head[self.written..]), IoSlice::new(body)]
            } else {
                [IoSlice::new(&[]), IoSlice::new(&body[self.written - head.len()..])]
            };
            match link.write_vectored(&parts) {
                Ok(0) => return self.fail(ErrorKind::WriteZero.into()),
                Ok(n) => self.written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return self.fail(e),
            }
            if self.written == total {
                self.queue.pop_front();
                self.written = 0;
                wire.msgs_sent += 1;
                wire.bytes_sent += total as u64;
            }
        }
        Ok(())
    }

    fn fail(&mut self, e: std::io::Error) -> std::io::Result<()> {
        self.dead = true;
        self.queue.clear();
        Err(e)
    }
}

/// One link's inbound side: bytes read and not yet decoded.
struct Inbound {
    buf: Vec<u8>,
    filled: usize,
    /// Sequence number the next frame must carry.
    next_seq: u64,
    /// EOF, an error, or a protocol violation ended reading.
    closed: bool,
}

impl Inbound {
    fn new() -> Self {
        Self { buf: vec![0; READ_CHUNK], filled: 0, next_seq: 0, closed: false }
    }

    /// Drops the first `used` bytes (decoded messages) and sizes the
    /// buffer for the whole of the partial message that follows them.
    fn consume(&mut self, used: usize) {
        self.buf.copy_within(used..self.filled, 0);
        self.filled -= used;
        let claimed = if self.filled >= MSG_HEADER {
            MSG_HEADER + u64::from_le_bytes(self.buf[1..MSG_HEADER].try_into().unwrap()) as usize
        } else {
            0
        };
        if self.filled == 0 && self.buf.len() > READ_CHUNK {
            self.buf = vec![0; READ_CHUNK];
        } else if self.buf.len() < claimed {
            self.buf.resize(claimed, 0);
        }
    }
}

/// One decoded wire message; a frame is still in the inbound buffer.
#[derive(Debug, PartialEq)]
enum Msg<'a> {
    Data(&'a [u8]),
    Fin,
    Fail { rank: usize, brief: String },
    Down(usize),
}

fn wire_header(kind: u8, len: usize) -> [u8; MSG_HEADER] {
    let mut h = [0u8; MSG_HEADER];
    h[0] = kind;
    h[1..].copy_from_slice(&(len as u64).to_le_bytes());
    h
}

/// Splits the complete wire messages off the front of `buf`, read
/// from `peer`'s link at `rank`: returns them and how many bytes they
/// span, and leaves a partial message at the end for the next call.
/// Pure. A frame is returned as a view into `buf`; a header claiming
/// more than [`MAX_WIRE_BODY`], an unknown kind, or a body of the wrong
/// size is a typed [`MpsError::Protocol`].
fn decode(rank: usize, peer: usize, buf: &[u8]) -> MpsResult<(Vec<Msg<'_>>, usize)> {
    let mut msgs = Vec::new();
    let mut at = 0;
    while buf.len() - at >= MSG_HEADER {
        let kind = buf[at];
        let len = u64::from_le_bytes(buf[at + 1..at + MSG_HEADER].try_into().unwrap());
        let malformed = || MpsError::Protocol {
            rank,
            msg: format!("malformed wire message from rank {peer}: kind {kind}, {len}-byte body"),
        };
        if len > MAX_WIRE_BODY {
            return Err(malformed());
        }
        let end = at + MSG_HEADER + len as usize;
        if end > buf.len() {
            break;
        }
        let body = &buf[at + MSG_HEADER..end];
        let u32_at = |i: usize| u32::from_le_bytes(body[i..i + 4].try_into().unwrap());
        msgs.push(match (kind, body.len()) {
            (KIND_DATA, _) => Msg::Data(body),
            (KIND_FIN, 0) => Msg::Fin,
            (KIND_FAIL, n) if n >= 4 => Msg::Fail {
                rank: u32_at(0) as usize,
                brief: String::from_utf8_lossy(&body[4..]).into_owned(),
            },
            (KIND_DOWN, 4) => Msg::Down(u32_at(0) as usize),
            _ => return Err(malformed()),
        });
        at = end;
    }
    Ok((msgs, at))
}

/// One rank process's endpoint of a multi-process universe.
pub(crate) struct SocketFabric {
    rank: usize,
    size: usize,
    timeout: Duration,
    /// The I/O thread pushes, the rank thread matches.
    mailbox: Mailbox,
    failure: Mutex<Option<Failure>>,
    /// FIN flags, indexed by rank (this rank's own entry included).
    finished: Vec<AtomicBool>,
    /// What this rank is blocked on (peers' are not observable).
    blocked: Mutex<Option<BlockedOp>>,
    stats: SharedStats,
    /// The installed fault plan's delays, if any.
    chaos: Option<Chaos>,
    /// The plan's crash point, when it names this process: abort at
    /// this send (1-based, counted by `sends`).
    crash_at: Option<u64>,
    sends: AtomicU64,
    /// One link per peer (`None` at this rank's own index). Only the
    /// I/O thread reads; writes go through `out`.
    links: Vec<Option<UnixStream>>,
    out: Vec<Mutex<Outbound>>,
    /// Write end of the I/O thread's wake socket.
    wake: UnixStream,
    /// Set by [`SocketFabric::shutdown`]: write out the queues and exit.
    closing: AtomicBool,
    io_thread: Mutex<Option<JoinHandle<WireStats>>>,
    /// Own Unix socket path, removed at shutdown.
    unix_path: Option<PathBuf>,
    /// Recoverable mode: a lost link is the restartable
    /// [`MpsError::PeerDown`] (respawn and rejoin), not `PeerFailed`.
    recoverable: bool,
}

impl SocketFabric {
    /// Binds this rank's endpoint, connects the full mesh, handshakes
    /// every peer, and starts the I/O thread.
    pub(crate) fn connect(config: &SocketConfig) -> MpsResult<Arc<Self>> {
        let rank = config.rank;
        let size = config.peers.len();
        let timeout = config.universe.effective_recv_timeout();
        let plan = config.universe.effective_chaos();
        let _span = tc_trace::span(tc_trace::names::FABRIC_CONNECT, tc_trace::Category::Comm)
            .arg("rank", rank)
            .arg("size", size);

        let endpoint = parse_endpoint(rank, &config.peers[rank])?;
        let (accept, listen_fd, unix_path) = bind(rank, &endpoint)?;

        let deadline = Instant::now() + timeout;
        let mut links: Vec<Option<UnixStream>> = (0..size).map(|_| None).collect();
        let mut wire = WireStats::default();
        let hello = |stream, expect, deadline| {
            handshake(rank, size, config.epoch, stream, expect, deadline)
        };

        // Dial every lower rank (they bound their listeners before
        // dialing anyone, so retry-until-deadline masks launch skew).
        for (peer, slot) in links.iter_mut().enumerate().take(rank) {
            let ep = parse_endpoint(rank, &config.peers[peer])?;
            let stream = dial(rank, peer, &ep, deadline)?;
            wire.connects += 1;
            *slot = Some(hello(stream, Some(peer), deadline)?.1);
            wire.handshakes += 1;
        }

        // Accept from every higher rank; the hello says who is calling.
        // Each accepted connection must complete its handshake within
        // the strict-parsed `MPS_HANDSHAKE_TIMEOUT_MS` budget: a
        // stalled or half-open dialer is dropped (typed Timeout) and
        // the accept loop keeps going instead of wedging forever.
        let hs_budget = config.effective_handshake_timeout();
        let mut missing = size - rank - 1;
        while missing > 0 {
            let raw = match accept() {
                Ok(s) => s,
                Err(e) if e.kind() == ErrorKind::WouldBlock && Instant::now() < deadline => {
                    // Sleep until a dialer is queued on the listener.
                    let mut fds = [PollFd { fd: listen_fd, events: POLLIN, revents: 0 }];
                    #[cfg(test)]
                    tests::ACCEPT_WAIT.with(|hook| {
                        if let Some(f) = hook.borrow_mut().as_mut() {
                            f();
                        }
                    });
                    poll::wait(&mut fds, Some(deadline.saturating_duration_since(Instant::now())))
                        .map_err(|e| io_error(rank, "accept poll", &e))?;
                    continue;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    let msg =
                        format!("timed out waiting for {missing} higher-rank peer(s) to connect");
                    return Err(MpsError::Protocol { rank, msg });
                }
                Err(e) => return Err(io_error(rank, "accept", &e)),
            };
            wire.accepts += 1;
            let (peer, stream) = match hello(raw, None, deadline.min(Instant::now() + hs_budget)) {
                Ok(hello) => hello,
                // Half-open/silent dialer: drop it and keep
                // accepting — the real peers are still due.
                Err(MpsError::Timeout { .. }) => continue,
                Err(e) => return Err(e),
            };
            wire.handshakes += 1;
            if peer <= rank || links[peer].is_some() {
                return Err(MpsError::Protocol {
                    rank,
                    msg: format!("unexpected or duplicate connection from rank {peer}"),
                });
            }
            links[peer] = Some(stream);
            missing -= 1;
        }

        let (wake, wake_rx) = UnixStream::pair().map_err(|e| io_error(rank, "wake pair", &e))?;
        for s in links.iter().flatten().chain([&wake, &wake_rx]) {
            s.set_read_timeout(None)
                .and_then(|()| s.set_nonblocking(true))
                .map_err(|e| io_error(rank, "stream setup", &e))?;
        }

        // A reconnect at a bumped epoch is a rejoin: every per-link
        // sequence restarts from zero. Recorded either way, so a
        // crash-free run reports both counters as zero rather than
        // leaving them out.
        let rejoin = config.recoverable && config.epoch > 0;
        tc_metrics::counter_add(tc_metrics::names::MPS_FABRIC_REJOINS, u64::from(rejoin));
        tc_metrics::counter_add(
            tc_metrics::names::MPS_REL_EPOCH_RESETS,
            if rejoin { (size - 1) as u64 } else { 0 },
        );

        // A planned crash fires in the launch epoch only: a respawned
        // rank runs at a bumped epoch with the same plan, so it does
        // not crash again.
        let crash_at = plan
            .as_ref()
            .and_then(FaultPlan::crash_point)
            .filter(|&(r, _)| r == rank && config.epoch == 0)
            .map(|(_, nth)| nth);

        let fabric = Arc::new(Self {
            rank,
            size,
            timeout,
            mailbox: Mailbox::default(),
            failure: Mutex::new(None),
            finished: (0..size).map(|_| AtomicBool::new(false)).collect(),
            blocked: Mutex::new(None),
            stats: SharedStats::default(),
            chaos: plan.map(|plan| Chaos::new(plan, size)),
            crash_at,
            sends: AtomicU64::new(0),
            links,
            out: (0..size).map(|_| Mutex::new(Outbound::default())).collect(),
            wake,
            closing: AtomicBool::new(false),
            io_thread: Mutex::new(None),
            unix_path,
            recoverable: config.recoverable,
        });
        let f = Arc::clone(&fabric);
        let io = std::thread::Builder::new()
            .name(format!("mps-io-r{rank}"))
            .spawn(move || f.io_loop(&wake_rx, wire))
            .map_err(|e| io_error(rank, "I/O thread spawn", &e))?;
        *lock_recover(&fabric.io_thread) = Some(io);
        Ok(fabric)
    }

    /// The I/O thread: one `poll` per turn over the wake socket and
    /// every link. It reads every readable link, writes what the
    /// queued links take, and returns the wire counters, its own CPU
    /// time included, once [`SocketFabric::shutdown`] asked it to stop
    /// and every queue is written (or the deadline passed).
    fn io_loop(&self, wake: &UnixStream, mut wire: WireStats) -> WireStats {
        self.io_turns(wake, &mut wire);
        wire.io_cpu_ns = tc_trace::thread_cpu_now().as_nanos() as u64;
        wire
    }

    fn io_turns(&self, mut wake: &UnixStream, wire: &mut WireStats) {
        let mut inbound: Vec<Inbound> = (0..self.size).map(|_| Inbound::new()).collect();
        let mut fds = Vec::with_capacity(self.size + 1);
        let mut deadline = None;
        loop {
            if self.closing.load(Ordering::SeqCst) {
                let d = *deadline.get_or_insert_with(|| Instant::now() + self.timeout);
                if Instant::now() >= d || self.out.iter().all(|o| lock_recover(o).queue.is_empty())
                {
                    return;
                }
            }
            fds.clear();
            fds.push(PollFd { fd: wake.as_raw_fd(), events: POLLIN, revents: 0 });
            for (peer, link) in self.links.iter().enumerate() {
                let mut events = if inbound[peer].closed { 0 } else { POLLIN };
                if !lock_recover(&self.out[peer]).queue.is_empty() {
                    events |= POLLOUT;
                }
                let fd = link.as_ref().filter(|_| events != 0).map_or(-1, |l| l.as_raw_fd());
                fds.push(PollFd { fd, events, revents: 0 });
            }
            let wait = deadline.map(|d: Instant| d.saturating_duration_since(Instant::now()));
            if let Err(e) = poll::wait(&mut fds, wait) {
                self.record_failure(self.rank, io_error(self.rank, "poll", &e));
                return;
            }
            // A wake-up means a queue that was empty has news: try every
            // link at once rather than poll for writability first.
            let woken = fds[0].revents != 0;
            while woken && matches!(wake.read(&mut [0u8; 64]), Ok(n) if n > 0) {}
            for (peer, inb) in inbound.iter_mut().enumerate() {
                let revents = fds[peer + 1].revents;
                // Anything but plain readability (writable, hang-up,
                // error) is news for the queue; the write reports it.
                if woken || revents & !POLLIN != 0 {
                    self.flush(peer, inb.closed, wire);
                }
                if revents & !POLLOUT != 0 && !inb.closed {
                    self.read_link(peer, inb, wire);
                }
            }
        }
    }

    /// Reads once from `peer`'s link and routes every complete message.
    /// EOF, an error, or a malformed message ends the link's reading.
    fn read_link(&self, peer: usize, inb: &mut Inbound, wire: &mut WireStats) {
        let Some(mut link) = self.links[peer].as_ref() else { return };
        let got = link.read(&mut inb.buf[inb.filled..]).and_then(|n| match n {
            0 => Err(ErrorKind::UnexpectedEof.into()),
            n => Ok(n),
        });
        match got {
            Ok(n) => {
                inb.filled += n;
                wire.bytes_recv += n as u64;
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => return,
            Err(e) => {
                inb.closed = true;
                return self.link_lost(peer, &e);
            }
        }
        // Messages are routed from where they landed, and only then
        // dropped from the buffer.
        let next_seq = &mut inb.next_seq;
        let routed = decode(self.rank, peer, &inb.buf[..inb.filled]).and_then(|(msgs, used)| {
            wire.msgs_recv += msgs.len() as u64;
            msgs.into_iter().try_for_each(|m| self.route(peer, m, next_seq))?;
            Ok(used)
        });
        match routed {
            Ok(used) => inb.consume(used),
            Err(e) => {
                inb.closed = true;
                self.record_failure(self.rank, e);
            }
        }
    }

    /// Acts on one message from `peer`; `next_seq` is the sequence
    /// number its next frame must carry.
    fn route(&self, peer: usize, msg: Msg<'_>, next_seq: &mut u64) -> MpsResult<()> {
        let protocol = |msg: String| MpsError::Protocol { rank: self.rank, msg };
        match msg {
            // A frame is checked in the inbound buffer, and only its
            // payload is copied out.
            Msg::Data(frame) => {
                let (seq, tag, payload) = check_frame(frame)
                    .ok_or_else(|| protocol(format!("damaged frame from rank {peer}")))?;
                if seq != *next_seq {
                    return Err(protocol(format!(
                        "frame from rank {peer} has seq {seq}, expected {next_seq}"
                    )));
                }
                *next_seq += 1;
                self.mailbox.push(Packet { src: peer, tag, data: Bytes::from(payload) });
            }
            Msg::Fin => {
                self.finished[peer].store(true, Ordering::SeqCst);
                self.mailbox.arrived.notify_all();
            }
            // Relayed failures: stored without re-broadcasting. A peer
            // loss stays the typed, restartable PeerDown everywhere.
            Msg::Fail { rank, brief } => self
                .store_failure(Failure { rank, error: MpsError::PeerFailed { rank, msg: brief } }),
            Msg::Down(rank) => {
                self.store_failure(Failure { rank, error: MpsError::PeerDown { rank } })
            }
        }
        Ok(())
    }

    /// Queues one wire message to `dst` for the I/O thread, waking it
    /// if the queue was empty. Never blocks; a dead link drops it.
    fn enqueue(&self, dst: usize, msg: Queued) {
        let mut out = lock_recover(&self.out[dst]);
        if !out.dead {
            out.queue.push_back(msg);
            if out.queue.len() == 1 {
                drop(out);
                self.wake_io();
            }
        }
    }

    /// Writes what `peer`'s link takes of its queue. A failed write
    /// means the peer closed its end, but what it sent before closing
    /// (a `FAIL` naming the rank that really failed, say) may still be
    /// unread: while the link is being read, the read that reaches EOF
    /// reports the loss.
    fn flush(&self, peer: usize, read_closed: bool, wire: &mut WireStats) {
        let Some(link) = &self.links[peer] else { return };
        let written = lock_recover(&self.out[peer]).flush(link, wire);
        if let Err(e) = written {
            if read_closed {
                self.link_lost(peer, &e);
            }
        }
    }

    fn wake_io(&self) {
        // A full wake socket already holds a pending wake-up.
        let _ = (&self.wake).write(&[1]);
    }

    /// EOF, or a read or write error, on `peer`'s link. Expected once
    /// the universe is ending; otherwise a restartable `PeerDown` in
    /// recoverable mode and the fatal `PeerFailed` if not.
    fn link_lost(&self, peer: usize, e: &std::io::Error) {
        if self.closing.load(Ordering::SeqCst)
            || self.finished[peer].load(Ordering::SeqCst)
            || self.failure().is_some()
        {
            return;
        }
        let error = if self.recoverable {
            MpsError::PeerDown { rank: peer }
        } else {
            MpsError::PeerFailed { rank: peer, msg: format!("connection to rank {peer} lost: {e}") }
        };
        self.record_failure(self.rank, error);
    }

    /// Stores the first failure and wakes the local rank; does not
    /// broadcast (used for failures relayed from other processes).
    fn store_failure(&self, fail: Failure) {
        lock_recover(&self.failure).get_or_insert(fail);
        self.mailbox.arrived.notify_all();
    }

    /// Queues one message to every peer.
    fn broadcast(&self, kind: u8, body: Bytes) {
        for dst in (0..self.size).filter(|&dst| dst != self.rank) {
            self.enqueue(dst, Queued::new(kind, &[], body.clone()));
        }
    }

    /// Blocks until every rank (including this one) has announced FIN,
    /// or a failure is recorded, or the deadline passes, which is
    /// recorded as a failure.
    pub(crate) fn await_peers(&self) {
        let deadline = Instant::now() + self.timeout;
        while self.failure().is_none() && !self.finished.iter().all(|f| f.load(Ordering::SeqCst)) {
            if Instant::now() >= deadline {
                let msg = "timed out waiting for peers to finish".to_string();
                let error = MpsError::Protocol { rank: self.rank, msg };
                return self.store_failure(Failure { rank: self.rank, error });
            }
            let queue = lock_recover(&self.mailbox.queue);
            drop(
                self.mailbox
                    .arrived
                    .wait_timeout(queue, POLL)
                    .unwrap_or_else(std::sync::PoisonError::into_inner),
            );
        }
    }

    /// Tears the mesh down: lets the I/O thread write out what is
    /// still queued (until the deadline), joins it, closes every link,
    /// removes this rank's Unix socket file, and returns the wire
    /// counters.
    pub(crate) fn shutdown(&self) -> WireStats {
        self.closing.store(true, Ordering::SeqCst);
        self.wake_io();
        let io = lock_recover(&self.io_thread).take();
        let wire = io.map_or_else(WireStats::default, |h| h.join().expect("socket I/O thread"));
        for link in self.links.iter().flatten() {
            let _ = link.shutdown(Shutdown::Both);
        }
        if let Some(path) = &self.unix_path {
            let _ = std::fs::remove_file(path);
        }
        wire
    }

    /// Sends one payload to a peer: one sequenced, checksummed frame
    /// whose header is queued in front of the caller's payload, which
    /// is not copied.
    fn send_frame(&self, src: usize, dst: usize, tag: u64, data: Bytes) -> MpsResult<()> {
        // Checked before a sequence number is taken, so a refused
        // payload leaves the link usable.
        check_frame_len(src, data.len())?;
        let seq = {
            let mut out = lock_recover(&self.out[dst]);
            out.next_seq += 1;
            out.next_seq - 1
        };
        let head = frame_header(seq, tag, data.as_slice());
        self.enqueue(dst, Queued::new(KIND_DATA, &head, data));
        Ok(())
    }
}

impl Fabric for SocketFabric {
    fn size(&self) -> usize {
        self.size
    }

    fn timeout(&self) -> Duration {
        self.timeout
    }

    fn backend(&self) -> &'static str {
        "socket"
    }

    fn shared_stats(&self, rank: usize) -> &SharedStats {
        assert_eq!(rank, self.rank, "only the local rank's counters exist in this process");
        &self.stats
    }

    fn send(&self, src: usize, dst: usize, tag: u64, data: Bytes) {
        debug_assert_eq!(src, self.rank);
        // Process-level chaos: abort at the nth send, before the frame
        // reaches the wire. Peers see a hard connection loss, exactly
        // like a SIGKILL mid-stream.
        let sent = self.sends.fetch_add(1, Ordering::Relaxed) + 1;
        if self.crash_at == Some(sent) {
            eprintln!("chaos: crashing rank {src} at send #{sent} (planned process fault)");
            std::process::abort();
        }
        if let Some(chaos) = &self.chaos {
            chaos.before_send(src, dst);
        }
        if dst == self.rank {
            self.mailbox.push(Packet { src, tag, data });
        } else if let Err(e) = self.send_frame(src, dst, tag, data) {
            self.record_failure(src, e);
        }
    }

    fn await_match_until(
        &self,
        rank: usize,
        src: usize,
        deadline: Instant,
        matcher: Matcher<'_>,
    ) -> AwaitOutcome {
        debug_assert_eq!(rank, self.rank);
        self.mailbox.await_match_until(
            deadline,
            || self.failure(),
            || self.finished[src].load(Ordering::SeqCst),
            matcher,
        )
    }

    fn record_failure(&self, rank: usize, error: MpsError) {
        // A peer loss broadcasts as typed DOWN (the rank number alone),
        // everything else as FAIL with the brief; either way peers
        // blocked in receives wake instead of running out their
        // deadline.
        let (kind, body) = match &error {
            MpsError::PeerDown { rank: down } => (KIND_DOWN, (*down as u32).to_le_bytes().to_vec()),
            _ => {
                let brief = Failure { rank, error: error.clone() }.brief();
                let mut body = Vec::with_capacity(4 + brief.len());
                body.extend_from_slice(&(rank as u32).to_le_bytes());
                body.extend_from_slice(brief.as_bytes());
                (KIND_FAIL, body)
            }
        };
        self.store_failure(Failure { rank, error });
        self.broadcast(kind, Bytes::from(body));
    }

    fn failure(&self) -> Option<Failure> {
        lock_recover(&self.failure).clone()
    }

    fn mark_finished(&self, rank: usize) {
        debug_assert_eq!(rank, self.rank);
        self.finished[rank].store(true, Ordering::SeqCst);
        self.broadcast(KIND_FIN, Bytes::new());
        self.mailbox.arrived.notify_all();
    }

    fn is_finished(&self, rank: usize) -> bool {
        self.finished[rank].load(Ordering::SeqCst)
    }

    fn set_blocked(&self, rank: usize, op: Option<BlockedOp>) {
        debug_assert_eq!(rank, self.rank);
        *lock_recover(&self.blocked) = op;
    }

    fn dump(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let state = match lock_recover(&self.blocked).as_ref() {
            Some(b) => format!(
                "blocked in {} from rank {} (tag {:#x}) for {:.1?}",
                b.op,
                b.src,
                b.tag,
                b.since.elapsed()
            ),
            None => "running".to_string(),
        };
        let s = self.stats.snapshot();
        let _ = writeln!(
            out,
            "  rank {} (socket backend, this process): {state}; sent {} msgs / {} B, \
             recvd {} msgs / {} B, {} undrained",
            self.rank,
            s.msgs_sent,
            s.bytes_sent,
            s.msgs_recv,
            s.bytes_recv,
            self.mailbox.backlog()
        );
        for r in 0..self.size {
            if r != self.rank {
                let fin = if self.finished[r].load(Ordering::SeqCst) { "FIN" } else { "live" };
                let queued = lock_recover(&self.out[r]).queue.len();
                let _ = writeln!(out, "  rank {r}: remote process, {fin}, {queued} msgs queued");
            }
        }
        out
    }
}

/// The accept call of a bound, nonblocking listener of either family.
type Accept = Box<dyn Fn() -> std::io::Result<UnixStream>>;

/// Binds this rank's nonblocking listener, replacing a stale Unix
/// socket file from a dead previous run (returned for removal). The
/// listener's fd, valid while the accept call lives, is what the
/// accept loop polls.
fn bind(rank: usize, ep: &Endpoint) -> MpsResult<(Accept, RawFd, Option<PathBuf>)> {
    let failed = |e: std::io::Error| io_error(rank, &format!("bind {ep:?}"), &e);
    match ep {
        Endpoint::Unix(path) => {
            let _ = std::fs::remove_file(path);
            let l = UnixListener::bind(path).map_err(failed)?;
            l.set_nonblocking(true).map_err(failed)?;
            let fd = l.as_raw_fd();
            Ok((Box::new(move || l.accept().map(|(s, _)| s)), fd, Some(path.clone())))
        }
        Endpoint::Tcp(addr) => {
            let l = TcpListener::bind(addr.as_str()).map_err(failed)?;
            l.set_nonblocking(true).map_err(failed)?;
            let fd = l.as_raw_fd();
            Ok((Box::new(move || l.accept().map(|(s, _)| tcp_link(s))), fd, None))
        }
    }
}

/// Dials `peer`'s endpoint, retrying until `deadline` (peers launch
/// with arbitrary skew).
fn dial(rank: usize, peer: usize, ep: &Endpoint, deadline: Instant) -> MpsResult<UnixStream> {
    loop {
        let attempt = match ep {
            Endpoint::Unix(path) => UnixStream::connect(path),
            Endpoint::Tcp(addr) => TcpStream::connect(addr.as_str()).map(tcp_link),
        };
        match attempt {
            Ok(s) => return Ok(s),
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(MpsError::Protocol {
                        rank,
                        msg: format!("could not connect to rank {peer}: {e}"),
                    });
                }
                std::thread::sleep(POLL);
            }
        }
    }
}

fn encode_hello(epoch: u64, size: usize, rank: usize) -> [u8; HELLO_LEN] {
    let mut h = [0u8; HELLO_LEN];
    h[..8].copy_from_slice(MAGIC);
    h[8..12].copy_from_slice(&VERSION.to_le_bytes());
    h[12..20].copy_from_slice(&epoch.to_le_bytes());
    h[20..24].copy_from_slice(&(size as u32).to_le_bytes());
    h[24..28].copy_from_slice(&(rank as u32).to_le_bytes());
    h
}

/// Verifies a peer's hello against this process's own view and returns
/// the peer's rank. Pure: any input, of any length, is a rank or a
/// typed [`MpsError::Protocol`].
fn check_hello(rank: usize, size: usize, epoch: u64, theirs: &[u8]) -> MpsResult<usize> {
    let fail = |msg: String| Err(MpsError::Protocol { rank, msg });
    if theirs.len() != HELLO_LEN || &theirs[..8] != MAGIC {
        return fail("handshake magic mismatch (not a tc-mps socket peer)".into());
    }
    let field = |at: usize, len: usize| {
        theirs[at..at + len].iter().rev().fold(0u64, |v, &b| v << 8 | u64::from(b))
    };
    let peer = field(24, 4) as usize;
    for (what, ours, theirs, hint) in [
        ("wire protocol version", u64::from(VERSION), field(8, 4), ""),
        ("epoch", epoch, field(12, 8), " (stale peer?)"),
        ("universe size", size as u64, field(20, 4), ""),
    ] {
        if ours != theirs {
            return fail(format!(
                "{what} mismatch with rank {peer}: ours {ours}, theirs {theirs}{hint}"
            ));
        }
    }
    if peer >= size {
        return fail(format!("peer announces rank {peer} outside universe of {size}"));
    }
    Ok(peer)
}

/// Exchanges hellos on a fresh connection and verifies them. The
/// *dialer* announces itself first and expects `expect_peer` back; the
/// acceptor (`expect_peer == None`) reads first and learns who called.
/// Returns the verified peer rank and the stream.
fn handshake(
    rank: usize,
    size: usize,
    epoch: u64,
    mut stream: UnixStream,
    expect_peer: Option<usize>,
    deadline: Instant,
) -> MpsResult<(usize, UnixStream)> {
    let _span = tc_trace::span(tc_trace::names::FABRIC_HANDSHAKE, tc_trace::Category::Comm)
        .arg("rank", rank);
    let started = Instant::now();
    let remaining = deadline.saturating_duration_since(started).max(POLL);
    stream.set_read_timeout(Some(remaining)).map_err(|e| io_error(rank, "handshake", &e))?;
    // A stalled peer (connected but silent, or half-open) surfaces as
    // a typed Timeout naming it, distinct from protocol mismatches —
    // the accept loop drops such dialers and keeps going.
    let stall = |what: &str, e: &std::io::Error| {
        if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) {
            let who = match expect_peer {
                Some(p) => format!("rank {p}"),
                None => "an unidentified dialer (half-open connection?)".to_string(),
            };
            MpsError::Timeout {
                rank,
                src: expect_peer.unwrap_or(rank),
                op: "handshake",
                tag: 0,
                waited: started.elapsed(),
                report: format!("  handshake with {who} stalled in {what}"),
            }
        } else {
            io_error(rank, &format!("handshake {what}"), e)
        }
    };
    let ours = encode_hello(epoch, size, rank);
    let mut theirs = [0u8; HELLO_LEN];
    if expect_peer.is_some() {
        // Dialer: speak first, then listen.
        stream.write_all(&ours).map_err(|e| stall("write", &e))?;
        stream.read_exact(&mut theirs).map_err(|e| stall("read", &e))?;
    } else {
        // Acceptor: listen first, then answer.
        stream.read_exact(&mut theirs).map_err(|e| stall("read", &e))?;
        stream.write_all(&ours).map_err(|e| stall("write", &e))?;
    }
    let peer = check_hello(rank, size, epoch, &theirs)?;
    if let Some(expected) = expect_peer.filter(|&p| p != peer) {
        return Err(MpsError::Protocol {
            rank,
            msg: format!("dialed rank {expected} but rank {peer} answered"),
        });
    }
    Ok((peer, stream))
}

fn io_error(rank: usize, what: &str, e: &std::io::Error) -> MpsError {
    MpsError::Protocol { rank, msg: format!("socket fabric {what} failed: {e}") }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::sync::mpsc;

    use proptest::prelude::*;

    use super::*;
    use crate::{Comm, Universe, UniverseConfig};

    thread_local! {
        /// Run on this thread each time its accept loop is about to
        /// wait in `poll`.
        pub(super) static ACCEPT_WAIT: RefCell<Option<Box<dyn FnMut()>>> =
            const { RefCell::new(None) };
    }

    /// Two fresh Unix endpoints named after `test`.
    fn endpoints(test: &str) -> Vec<String> {
        (0..2)
            .map(|r| {
                let name = format!("tcm-{test}-{}-{r}.sock", std::process::id());
                std::env::temp_dir().join(name).to_string_lossy().into_owned()
            })
            .collect()
    }

    #[test]
    fn endpoint_parsing() {
        assert_eq!(
            parse_endpoint(0, "unix:/tmp/r0.sock").unwrap(),
            Endpoint::Unix(PathBuf::from("/tmp/r0.sock"))
        );
        assert_eq!(
            parse_endpoint(0, "/tmp/r1.sock").unwrap(),
            Endpoint::Unix(PathBuf::from("/tmp/r1.sock"))
        );
        assert_eq!(
            parse_endpoint(0, "127.0.0.1:9000").unwrap(),
            Endpoint::Tcp("127.0.0.1:9000".into())
        );
        assert!(matches!(parse_endpoint(2, "garbage"), Err(MpsError::Protocol { rank: 2, .. })));
    }

    #[test]
    fn hello_roundtrip_fields() {
        let h = encode_hello(0xDEAD_BEEF, 16, 11);
        assert_eq!(&h[..8], MAGIC);
        assert_eq!(u32::from_le_bytes(h[8..12].try_into().unwrap()), VERSION);
        assert_eq!(u64::from_le_bytes(h[12..20].try_into().unwrap()), 0xDEAD_BEEF);
        assert_eq!(u32::from_le_bytes(h[20..24].try_into().unwrap()), 16);
        assert_eq!(u32::from_le_bytes(h[24..28].try_into().unwrap()), 11);
        assert_eq!(check_hello(3, 16, 0xDEAD_BEEF, &h), Ok(11));
        let err = check_hello(3, 16, 0xDEAD_BEEF + 1, &h).unwrap_err();
        assert!(err.to_string().contains("epoch mismatch"), "{err}");
    }

    /// One wire message, as a sender queues it.
    fn wire(kind: u8, body: &[u8]) -> Vec<u8> {
        let mut v = wire_header(kind, body.len()).to_vec();
        v.extend_from_slice(body);
        v
    }

    /// One frame of `payload`.
    fn frame(seq: u64, tag: u64, payload: &[u8]) -> Vec<u8> {
        [&frame_header(seq, tag, payload)[..], payload].concat()
    }

    /// One frame carrying `seq` as its payload.
    fn test_frame(seq: u64, tag: u64) -> Vec<u8> {
        frame(seq, tag, &seq.to_le_bytes())
    }

    #[test]
    fn crc32c_known_answer() {
        // Frames use the workspace's one CRC32c: its canonical check value.
        assert_eq!(tc_graph::io::crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(tc_graph::io::crc32c(b""), 0);
    }

    #[test]
    fn crc_pair_matches_concatenation() {
        // Streamed over header and payload, the header's CRC is the
        // CRC32c of the frame with the CRC field left out.
        let f = frame(5, 9, b"header and payload");
        let joined = [&f[..20], &f[FRAME_HEADER..]].concat();
        let crc = u32::from_le_bytes(f[20..24].try_into().unwrap());
        assert_eq!(crc, tc_graph::io::crc32c(&joined));
    }

    #[test]
    fn frame_roundtrip() {
        let payload: Vec<u8> = (0u8..200).collect();
        let f = frame(7, 0x1234, &payload);
        let (seq, tag, p) = check_frame(&f).expect("valid frame");
        assert_eq!((seq, tag), (7, 0x1234));
        assert_eq!(p, &payload[..]);
        // The payload is checked where it lies, not copied.
        assert_eq!(p.as_ptr() as usize, f.as_ptr() as usize + FRAME_HEADER);
    }

    #[test]
    fn empty_payload_roundtrip() {
        let f = frame(0, 1, &[]);
        let (seq, tag, p) = check_frame(&f).expect("valid frame");
        assert_eq!((seq, tag, p.len()), (0, 1, 0));
    }

    #[test]
    fn oversized_payload_is_a_typed_error() {
        // Boundary check without allocating 4 GiB: the length check is
        // the exact guard `send_frame` applies.
        assert!(check_frame_len(3, MAX_FRAME_PAYLOAD).is_ok());
        match check_frame_len(3, MAX_FRAME_PAYLOAD + 1) {
            Err(MpsError::Protocol { rank, msg }) => {
                assert_eq!(rank, 3);
                assert!(msg.contains("exceeds the frame limit"), "{msg}");
            }
            other => panic!("expected a Protocol error, got {other:?}"),
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let f = frame(3, 9, &[5u8; 64]);
        for keep in 0..f.len() {
            assert!(check_frame(&f[..keep]).is_none(), "truncation to {keep} bytes undetected");
        }
    }

    #[test]
    fn every_single_bitflip_is_detected() {
        let f = frame(11, 42, &[0xAB; 32]);
        for bit in 0..f.len() * 8 {
            let mut flipped = f.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert!(check_frame(&flipped).is_none(), "bit {bit} flip undetected");
        }
    }

    /// A stream with one message of every kind around `frame`, and what
    /// it decodes to.
    fn every_kind(frame: &[u8]) -> (Vec<u8>, Vec<Msg<'_>>) {
        let mut fail = 2u32.to_le_bytes().to_vec();
        fail.extend_from_slice(b"boom");
        let stream = [
            wire(KIND_DATA, frame),
            wire(KIND_FAIL, &fail),
            wire(KIND_DOWN, &5u32.to_le_bytes()),
            wire(KIND_FIN, &[]),
        ]
        .concat();
        let msgs = vec![
            Msg::Data(frame),
            Msg::Fail { rank: 2, brief: "boom".into() },
            Msg::Down(5),
            Msg::Fin,
        ];
        (stream, msgs)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arbitrary bytes: `decode` never panics, consumes only whole
        /// messages, and otherwise names a typed `Protocol` error.
        #[test]
        fn decode_survives_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
            match decode(4, 1, &bytes) {
                Ok((msgs, used)) => {
                    prop_assert!(used <= bytes.len());
                    prop_assert!(msgs.len() * MSG_HEADER <= used);
                }
                Err(e) => prop_assert!(matches!(e, MpsError::Protocol { rank: 4, .. }), "{e:?}"),
            }
        }

        /// A valid stream cut anywhere decodes to a prefix of its
        /// messages, and the partial one waits for more bytes.
        #[test]
        fn a_truncated_stream_decodes_to_a_prefix(seed in any::<u64>(), cut in 0usize..1000) {
            let frame = test_frame(seed, seed ^ 7);
            let (stream, all) = every_kind(&frame);
            let (got, used) = decode(0, 1, &stream).expect("valid stream");
            prop_assert_eq!(&got, &all);
            prop_assert_eq!(used, stream.len());
            let cut = cut % (stream.len() + 1);
            let (some, used) = decode(0, 1, &stream[..cut]).expect("a valid prefix");
            prop_assert!(used <= cut);
            prop_assert_eq!(&some[..], &all[..some.len()]);
            let (rest, _) = decode(0, 1, &stream[used..]).expect("the rest");
            prop_assert_eq!(&rest[..], &all[some.len()..]);
        }

        /// A header claiming more than `MAX_WIRE_BODY` fails typed as
        /// soon as it is in, before its body: nothing is allocated for it.
        #[test]
        fn an_oversized_claim_fails_typed(kind in any::<u8>(), len in (MAX_WIRE_BODY + 1)..u64::MAX) {
            let mut bytes = vec![kind];
            bytes.extend_from_slice(&len.to_le_bytes());
            prop_assert!(matches!(decode(0, 1, &bytes), Err(MpsError::Protocol { .. })));
        }

        /// Hello bytes of any length and content: a rank inside the
        /// universe or a typed `Protocol` error, never a panic.
        #[test]
        fn the_hello_parser_survives_arbitrary_input(
            bytes in prop::collection::vec(any::<u8>(), 0..64),
            at in 0usize..HELLO_LEN,
            byte in any::<u8>(),
            cut in 0usize..(HELLO_LEN + 8),
        ) {
            let mut near = encode_hello(9, 4, 2).to_vec();
            near[at] = byte;
            near.resize(cut, 0);
            for input in [&bytes[..], &near[..]] {
                match check_hello(0, 4, 9, input) {
                    Ok(peer) => prop_assert!(peer < 4),
                    Err(e) => prop_assert!(matches!(e, MpsError::Protocol { rank: 0, .. }), "{e:?}"),
                }
            }
        }
    }

    /// The send promise of [`Fabric::send`]: never wait for the receiver.
    /// A hand-driven fake rank 1 completes the hello, sends three
    /// frames, and never reads. Rank 0 must still return from sends
    /// totalling 4 MiB (four times the largest default Unix socket
    /// buffer) and receive all three frames.
    #[test]
    fn a_peer_that_never_reads_blocks_neither_sends_nor_receives() {
        let peers = endpoints("contract");
        let config = SocketConfig {
            universe: UniverseConfig::with_timeout(Duration::from_secs(30)),
            ..SocketConfig::new(0, peers.clone())
        };
        let (done, outcome) = mpsc::channel();
        std::thread::scope(|s| {
            let rank0 = s.spawn(|| {
                Universe::try_run_socket(&config, |c| {
                    for _ in 0..8 {
                        c.send_bytes(1, 1, Bytes::from(vec![7u8; 512 * 1024]));
                    }
                    let got: MpsResult<Vec<u64>> = (0..3).map(|_| c.recv_val(1, 2)).collect();
                    let _ = done.send(got);
                    Ok(())
                })
            });
            let deadline = Instant::now() + Duration::from_secs(10);
            let mut fake = loop {
                match UnixStream::connect(&peers[0]) {
                    Ok(s) => break s,
                    Err(e) if Instant::now() >= deadline => panic!("rank 0 never listened: {e}"),
                    Err(_) => std::thread::sleep(POLL),
                }
            };
            fake.write_all(&encode_hello(0, 2, 1)).expect("hello");
            fake.read_exact(&mut [0u8; HELLO_LEN]).expect("rank 0's hello");
            for seq in 0..3u64 {
                fake.write_all(&wire(KIND_DATA, &test_frame(seq, 2))).expect("frame");
            }
            let got = outcome.recv_timeout(Duration::from_secs(20));
            // Hang up either way, so rank 0 ends (with a lost peer)
            // instead of waiting out its deadline.
            let _ = fake.shutdown(Shutdown::Both);
            let _ = rank0.join();
            let got = got.expect("rank 0 stalled behind a peer that never reads");
            assert_eq!(got.expect("the fake peer's frames"), vec![0, 1, 2]);
        });
    }

    /// The wire's damage detector: a hand-driven fake rank 1 sends one
    /// good frame, then a bit-flipped one or one that skips a sequence
    /// number. Rank 0 gets the good payload, and its next receive fails
    /// with a typed `Protocol` error naming the fault — no retry.
    #[test]
    fn a_damaged_or_missing_frame_is_a_typed_protocol_error() {
        let mut flipped = test_frame(1, 2);
        flipped[FRAME_HEADER] ^= 0x10;
        for (case, bad, want) in [
            ("flip", flipped, "damaged frame from rank 1"),
            ("gap", test_frame(2, 2), "has seq 2, expected 1"),
        ] {
            let peers = endpoints(case);
            let config = SocketConfig {
                universe: UniverseConfig::with_timeout(Duration::from_secs(30)),
                ..SocketConfig::new(0, peers.clone())
            };
            std::thread::scope(|s| {
                let rank0 = s.spawn(|| {
                    Universe::try_run_socket(&config, |c| {
                        assert_eq!(c.recv_val::<u64>(1, 2)?, 0);
                        c.recv_val::<u64>(1, 2)
                    })
                });
                let deadline = Instant::now() + Duration::from_secs(10);
                let mut fake = loop {
                    match UnixStream::connect(&peers[0]) {
                        Ok(s) => break s,
                        Err(e) if Instant::now() >= deadline => panic!("no listener: {e}"),
                        Err(_) => std::thread::sleep(POLL),
                    }
                };
                fake.write_all(&encode_hello(0, 2, 1)).expect("hello");
                fake.read_exact(&mut [0u8; HELLO_LEN]).expect("rank 0's hello");
                fake.write_all(&wire(KIND_DATA, &test_frame(0, 2))).expect("good frame");
                fake.write_all(&wire(KIND_DATA, &bad)).expect("bad frame");
                let got = rank0.join().expect("rank 0 thread");
                let _ = fake.shutdown(Shutdown::Both);
                match got {
                    Err(MpsError::Protocol { rank: 0, msg }) => {
                        assert!(msg.contains(want), "{msg}")
                    }
                    other => panic!("{case}: expected a Protocol error, got {other:?}"),
                }
            });
        }
    }

    /// Rank 1 starts only once rank 0 sleeps in its accept `poll`: the
    /// dialer that arrives then must wake it, and the two ranks must
    /// exchange a payload.
    #[test]
    fn a_late_rank_still_connects() {
        let peers = endpoints("late");
        let config = |rank| SocketConfig {
            universe: UniverseConfig::with_timeout(Duration::from_secs(30)),
            ..SocketConfig::new(rank, peers.clone())
        };
        let exchange = |c: &Comm| {
            let peer = 1 - c.rank();
            c.send_bytes(peer, 5, Bytes::from(vec![c.rank() as u8 + 1; 3000]));
            c.recv_bytes(peer, 5).map(|b| b.to_vec())
        };
        let (waiting, rank0_waits) = mpsc::channel();
        let (config, exchange) = (&config, &exchange);
        std::thread::scope(|s| {
            let rank0 = s.spawn(move || {
                ACCEPT_WAIT.with(|hook| {
                    *hook.borrow_mut() = Some(Box::new(move || {
                        let _ = waiting.send(());
                    }))
                });
                Universe::try_run_socket(&config(0), exchange)
            });
            rank0_waits.recv_timeout(Duration::from_secs(10)).expect("rank 0 never waited");
            let rank1 = s.spawn(move || Universe::try_run_socket(&config(1), exchange));
            for (rank, res) in [rank0.join(), rank1.join()].into_iter().enumerate() {
                let (got, _) =
                    res.expect("rank thread").unwrap_or_else(|e| panic!("rank {rank}: {e}"));
                assert_eq!(got, vec![2 - rank as u8; 3000], "rank {rank} got its peer's payload");
            }
        });
    }
}
