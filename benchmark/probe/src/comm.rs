//! `mps.*` probes: what one message, one collective and one shift cost
//! on the in-process fabric, and what the wire adds when the ranks are
//! processes over Unix sockets.

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

use bytes::Bytes;
use tc_mps::{Comm, Grid, MpsResult, SocketConfig, Universe, UniverseConfig};

use crate::{emit, fail, scratch};

const PING_TAG: u64 = 7;

/// Runs `body` on `p` in-process ranks and returns the slowest rank's
/// seconds: a collective is over when its last rank leaves it.
fn slowest(p: usize, body: impl Fn(&Comm) -> MpsResult<()> + Sync) -> f64 {
    let (secs, _) = Universe::try_run_config(p, &UniverseConfig::default(), |comm| {
        comm.barrier()?;
        let t = Instant::now();
        body(comm)?;
        Ok(t.elapsed().as_secs_f64())
    })
    .unwrap_or_else(|e| fail(&format!("a {p}-rank comm probe failed: {e}")));
    secs.into_iter().fold(0.0, f64::max)
}

/// `rounds` round trips of an 8-byte message between ranks 0 and 1.
fn ping_pong(comm: &Comm, rounds: usize) -> MpsResult<()> {
    for i in 0..rounds as u64 {
        if comm.rank() == 0 {
            comm.send_val(1, PING_TAG, i);
            comm.recv_val::<u64>(1, PING_TAG)?;
        } else {
            let v = comm.recv_val::<u64>(0, PING_TAG)?;
            comm.send_val(0, PING_TAG, v);
        }
    }
    Ok(())
}

/// In-process fabric: small-message costs at 64 ranks (what `er-wide`
/// pays), large-message rates at 4 ranks (what `rmat-local` pays).
pub fn local_probes() {
    const ROUNDS: usize = 20_000;
    let secs = slowest(2, |comm| ping_pong(comm, ROUNDS));
    emit("mps.comm.msg_overhead_ns", "ns", secs * 1e9 / (2 * ROUNDS) as f64);

    const BARRIERS: usize = 200;
    let secs = slowest(64, |comm| (0..BARRIERS).try_for_each(|_| comm.barrier()));
    emit("mps.comm.barrier_us", "us", secs * 1e6 / BARRIERS as f64);

    const SMALL_ROUNDS: usize = 50;
    let secs = slowest(64, |comm| {
        // 128 bytes for every destination.
        let sends: Vec<Vec<u64>> = (0..comm.size()).map(|d| vec![d as u64; 16]).collect();
        (0..SMALL_ROUNDS).try_for_each(|_| comm.alltoallv(&sends).map(drop))
    });
    emit("mps.comm.alltoallv_small_us", "us", secs * 1e6 / SMALL_ROUNDS as f64);

    const LARGE_ROUNDS: usize = 20;
    const MIB: usize = 1 << 20;
    let secs = slowest(4, |comm| {
        // 1 MiB for every destination.
        let sends: Vec<Vec<u64>> = (0..comm.size()).map(|d| vec![d as u64; MIB / 8]).collect();
        (0..LARGE_ROUNDS).try_for_each(|_| comm.alltoallv(&sends).map(drop))
    });
    emit(
        "mps.comm.alltoallv_large_mb_per_s",
        "MB/s",
        (4 * 3 * MIB * LARGE_ROUNDS) as f64 / 1e6 / secs,
    );

    const SHIFTS: usize = 20;
    let secs = slowest(4, |comm| {
        // The Cannon operand movement: a 4 MiB blob to the left neighbour.
        let grid = Grid::new(comm);
        let mut blob = Bytes::from(vec![comm.rank() as u8; 4 * MIB]);
        for _ in 0..SHIFTS {
            blob = grid.shift_left(blob)?;
        }
        Ok(())
    });
    emit("mps.grid.shift_mb_per_s", "MB/s", (4 * 4 * MIB * SHIFTS) as f64 / 1e6 / secs);
}

const SOCKET_ROUNDS: usize = 5_000;
// The stream is many frames that each fit a socket buffer, acknowledged
// every few: at the seed commit a receive that waits on a peer busy
// with multi-megabyte frames exhausts its retransmit budget (README,
// "rmat-socket").
const STREAM_ROUNDS: usize = 16;
const STREAM_CHUNKS: usize = 8;
const STREAM_CHUNK: usize = 128 << 10;

/// One rank of the two-process socket universe. Rank 0 prints the
/// metric lines; the parent relays them.
pub fn socket_child(argv: &[String]) {
    let [rank, peers] = argv else { fail("socket-child takes RANK PEERS") };
    let rank: usize = rank.parse().unwrap_or_else(|_| fail("socket-child: bad rank"));
    let config = SocketConfig::new(rank, peers.split(',').map(str::to_string).collect());
    let launched = Instant::now();
    let result = Universe::try_run_socket(&config, |comm| {
        // Bind, dial, handshake: everything before the body runs.
        let connect_s = launched.elapsed().as_secs_f64();
        comm.barrier()?;
        let t = Instant::now();
        ping_pong(comm, SOCKET_ROUNDS)?;
        let pingpong_s = t.elapsed().as_secs_f64();
        comm.barrier()?;
        let t = Instant::now();
        let chunk = Bytes::from(vec![0x5a_u8; STREAM_CHUNK]);
        for _ in 0..STREAM_ROUNDS {
            if comm.rank() == 0 {
                for _ in 0..STREAM_CHUNKS {
                    comm.send_bytes(1, PING_TAG, chunk.clone());
                }
                comm.recv_val::<u64>(1, PING_TAG)?;
            } else {
                for _ in 0..STREAM_CHUNKS {
                    comm.recv_bytes(0, PING_TAG)?;
                }
                comm.send_val(0, PING_TAG, 1u64);
            }
        }
        Ok((connect_s, pingpong_s, t.elapsed().as_secs_f64()))
    });
    match result {
        Ok(((connect_s, pingpong_s, stream_s), _)) if rank == 0 => {
            emit("mps.socket.connect_s", "s", connect_s);
            emit("mps.socket.pingpong_us", "us", pingpong_s * 1e6 / (2 * SOCKET_ROUNDS) as f64);
            emit(
                "mps.socket.stream_mb_per_s",
                "MB/s",
                (STREAM_ROUNDS * STREAM_CHUNKS * STREAM_CHUNK) as f64 / 1e6 / stream_s,
            );
        }
        Ok(_) => {}
        Err(e) => fail(&format!("socket-child rank {rank}: {e}")),
    }
}

/// Re-executes this binary as the two ranks of a socket universe with
/// endpoints under `dir`, and relays rank 0's metric lines.
pub fn socket_probes(dir: &Path) {
    let peers = [scratch(dir, "probe-0.sock"), scratch(dir, "probe-1.sock")];
    for p in &peers {
        let _ = std::fs::remove_file(p);
    }
    let exe = std::env::current_exe().unwrap_or_else(|e| fail(&format!("cannot find myself: {e}")));
    let children: Vec<_> = (0..2)
        .map(|rank| {
            Command::new(&exe)
                .args(["socket-child", &rank.to_string(), &peers.join(",")])
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .spawn()
                .unwrap_or_else(|e| fail(&format!("cannot re-execute myself: {e}")))
        })
        .collect();
    // Both are waited for before either verdict, so no child outlives
    // this process.
    let outputs: Vec<_> = children.into_iter().map(|c| c.wait_with_output()).collect();
    for (rank, out) in outputs.into_iter().enumerate() {
        let out = out.unwrap_or_else(|e| fail(&format!("socket child {rank}: {e}")));
        if !out.status.success() {
            fail(&format!("socket child {rank} failed"));
        }
        print!("{}", String::from_utf8_lossy(&out.stdout));
    }
}
