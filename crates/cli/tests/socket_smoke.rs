//! Multi-process smoke test: `tricount serve-rank` as 16 **real OS
//! processes** over Unix-domain sockets must agree with the in-process
//! `tricount count` on the exact triangle count — flags on half the
//! mesh, the `MPS_FABRIC_*` environment on the other half, and once
//! more under an injected chaos plan.

use std::process::{Child, Command, Output};

fn tricount() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tricount"))
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Extracts `triangles     : N` from a rank's stdout.
fn triangles_of(out: &Output) -> u64 {
    stdout(out)
        .lines()
        .find_map(|l| {
            l.strip_prefix("triangles")?.trim_start().strip_prefix(':')?.trim().parse().ok()
        })
        .unwrap_or_else(|| panic!("no triangle count in output:\n{}\n{}", stdout(out), stderr(out)))
}

fn endpoints(p: usize, label: &str) -> Vec<String> {
    let pid = std::process::id();
    (0..p)
        .map(|r| {
            std::env::temp_dir()
                .join(format!("tcs-{pid}-{label}-{r}.sock"))
                .to_string_lossy()
                .into_owned()
        })
        .collect()
}

/// Launches the full mesh, waits for every process, and returns the
/// unanimous triangle count.
fn run_mesh(p: usize, label: &str, extra: &[&str], via_env_for_odd_ranks: bool) -> u64 {
    let peers = endpoints(p, label);
    let peer_list = peers.join(",");
    let children: Vec<Child> = (0..p)
        .map(|rank| {
            let mut cmd = tricount();
            cmd.arg("serve-rank").arg("g500-s6").args(extra);
            if via_env_for_odd_ranks && rank % 2 == 1 {
                // Half the mesh addresses itself via the environment,
                // proving both configuration paths interoperate.
                cmd.env("MPS_FABRIC_RANK", rank.to_string());
                cmd.env("MPS_FABRIC_PEERS", &peer_list);
            } else {
                cmd.args(["--rank", &rank.to_string(), "--peers", &peer_list]);
            }
            cmd.stdout(std::process::Stdio::piped()).stderr(std::process::Stdio::piped());
            cmd.spawn().unwrap_or_else(|e| panic!("spawn rank {rank}: {e}"))
        })
        .collect();
    let outputs: Vec<Output> = children
        .into_iter()
        .enumerate()
        .map(|(rank, c)| {
            c.wait_with_output().unwrap_or_else(|e| panic!("wait for rank {rank}: {e}"))
        })
        .collect();
    for (rank, out) in outputs.iter().enumerate() {
        assert_eq!(
            out.status.code(),
            Some(0),
            "rank {rank} failed:\n{}\n{}",
            stdout(out),
            stderr(out)
        );
    }
    let counts: Vec<u64> = outputs.iter().map(triangles_of).collect();
    assert!(counts.windows(2).all(|w| w[0] == w[1]), "ranks disagree: {counts:?}");
    counts[0]
}

/// The in-process reference count for the same graph and rank count.
fn reference(p: usize) -> u64 {
    let out = tricount()
        .args(["count", "g500-s6", "--ranks", &p.to_string()])
        .output()
        .expect("spawn reference count");
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    triangles_of(&out)
}

#[test]
fn sixteen_processes_match_in_process_count() {
    let expect = reference(16);
    let got = run_mesh(16, "clean", &[], true);
    assert_eq!(got, expect, "socket mesh diverged from the in-process count");
}

#[test]
fn sixteen_processes_exact_under_chaos() {
    let expect = reference(16);
    let got = run_mesh(16, "chaos", &["--chaos", "42"], false);
    assert_eq!(got, expect, "chaos over the socket wire changed the count");
}

#[test]
fn a_planned_crash_aborts_its_rank_and_fails_the_others_typed() {
    // Every process gets the same `MPS_CHAOS_CRASH_*` environment, as
    // under the supervisor. At the launch epoch rank 1 aborts at its
    // third send; the others must end with a lost-peer error, not hang.
    let peers = endpoints(4, "crash").join(",");
    let outputs: Vec<Output> = (0..4)
        .map(|rank| {
            tricount()
                .args(["serve-rank", "g500-s6", "--rank", &rank.to_string(), "--peers", &peers])
                .env("MPS_CHAOS_CRASH_RANK", "1")
                .env("MPS_CHAOS_CRASH_AT", "3")
                .env("MPS_RECV_TIMEOUT_MS", "30000")
                .stdout(std::process::Stdio::piped())
                .stderr(std::process::Stdio::piped())
                .spawn()
                .unwrap_or_else(|e| panic!("spawn rank {rank}: {e}"))
        })
        .collect::<Vec<Child>>()
        .into_iter()
        .map(|c| c.wait_with_output().expect("wait for a rank"))
        .collect();
    assert!(stderr(&outputs[1]).contains("chaos: crashing rank 1 at send #3"), "{outputs:?}");
    assert_eq!(outputs[1].status.code(), None, "rank 1 must die by its abort signal");
    for rank in [0, 2, 3] {
        let out = &outputs[rank];
        assert_eq!(out.status.code(), Some(1), "rank {rank}:\n{}", stderr(out));
        assert!(
            stderr(out).contains("rank 1"),
            "rank {rank} must name the lost peer:\n{}",
            stderr(out)
        );
    }
}
