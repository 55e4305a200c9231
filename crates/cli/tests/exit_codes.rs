//! End-to-end exit-code contract of the `tricount` binary:
//! 0 success, 1 runtime failure, 2 usage error, 3 invalid input graph.

use std::path::PathBuf;
use std::process::{Command, Output};

fn tricount() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tricount"))
}

fn run(args: &[&str]) -> Output {
    tricount().args(args).output().expect("spawn tricount")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("tricount-exit-{}-{name}", std::process::id()));
    p
}

#[test]
fn success_is_exit_zero() {
    let out = run(&["count", "g500-s5", "--ranks", "4"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(stdout(&out).contains("triangles"), "{}", stdout(&out));
}

#[test]
fn usage_error_is_exit_two() {
    let out = run(&["count", "g500-s5", "--bogus-flag"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("USAGE"), "{}", stderr(&out));
}

/// A peer list the algorithm cannot use is a usage error found before
/// any socket is bound: one `error:` line, exit 2, no panic.
#[test]
fn serve_rank_geometry_misfits_are_exit_two() {
    let cases: [&[&str]; 2] = [&[], &["--algorithm", "summa", "--grid", "2x2"]];
    for extra in cases {
        let mut args = vec!["serve-rank", "g500-s5", "--rank", "0", "--peers", "a,b,c"];
        args.extend(extra);
        let out = run(&args);
        let e = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {e}");
        assert!(!e.contains("panicked"), "{args:?}: {e}");
        let errors: Vec<&str> = e.lines().filter(|l| !l.starts_with('#')).collect();
        assert_eq!(errors.len(), 1, "{args:?}: {e}");
        assert!(errors[0].starts_with("error: cannot run on 3 ranks"), "{args:?}: {e}");
    }
}

/// A preset above the largest scale the generators can build with
/// `u32` ids is a usage error naming the limit, never a panic (101) or
/// a wrapped one-vertex graph written with exit 0.
#[test]
fn preset_scales_above_the_limit_are_exit_two() {
    let out_path = tmp("too-big.bin");
    let out_arg = out_path.to_str().unwrap();
    let cases: [&[&str]; 4] = [
        &["generate", "g500-s32", "--out", out_arg],
        &["generate", "friendster-like-33", "--out", out_arg],
        &["generate", "twitter-like-64", "--out", out_arg],
        &["count", "twitter-like-64"],
    ];
    for args in cases {
        let out = run(args);
        let e = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {e}");
        assert!(!e.contains("panicked"), "{args:?}: {e}");
        let errors: Vec<&str> = e.lines().filter(|l| l.starts_with("error:")).collect();
        assert_eq!(errors.len(), 1, "{args:?}: {e}");
        assert!(errors[0].contains("above 31"), "{args:?}: {e}");
        assert!(!out_path.exists(), "{args:?} wrote {}", out_path.display());
    }
}

#[test]
fn missing_input_file_is_exit_three() {
    let out = run(&["count", "/nonexistent/graph.bin"]);
    assert_eq!(out.status.code(), Some(3), "{}", stderr(&out));
    assert!(stderr(&out).contains("input error"), "{}", stderr(&out));
}

#[test]
fn truncated_binary_input_is_exit_three_with_offset() {
    let el = tc_graph::EdgeList::new(10, vec![(0, 1), (2, 3), (4, 5)]);
    let mut buf = Vec::new();
    tc_graph::io::write_binary_edges(&el, &mut buf).unwrap();
    buf.truncate(buf.len() - 3);
    let path = tmp("truncated.bin");
    std::fs::write(&path, &buf).unwrap();
    let out = run(&["count", path.to_str().unwrap()]);
    let _ = std::fs::remove_file(&path);
    assert_eq!(out.status.code(), Some(3), "{}", stderr(&out));
    let e = stderr(&out);
    assert!(e.contains("input error"), "{e}");
    assert!(e.contains("corrupt binary at byte"), "{e}");
    assert!(e.contains("edge 2 of 3"), "{e}");
}

#[test]
fn malformed_text_input_is_exit_three_with_line() {
    let path = tmp("bad.txt");
    std::fs::write(&path, "0 1\nnot an edge\n").unwrap();
    let out = run(&["count", path.to_str().unwrap()]);
    let _ = std::fs::remove_file(&path);
    assert_eq!(out.status.code(), Some(3), "{}", stderr(&out));
    assert!(stderr(&out).contains("line 2"), "{}", stderr(&out));
}

#[test]
fn canonical_and_messy_inputs_load_to_the_same_graph() {
    // `load` skips the re-sort for an already canonical list; a list
    // with reversed, duplicate and self-loop lines must still be
    // canonicalized to the very same graph.
    let triangles = |name: &str, text: &str| {
        let path = tmp(name);
        std::fs::write(&path, text).unwrap();
        let out = run(&["count", path.to_str().unwrap(), "--ranks", "4"]);
        let _ = std::fs::remove_file(&path);
        assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
        stdout(&out).lines().find(|l| l.starts_with("triangles")).map(str::to_owned)
    };
    let canonical = triangles("canonical.txt", "0 1\n0 2\n1 2\n1 3\n2 3\n");
    let messy = triangles("messy.txt", "3 2\n2 1\n0 1\n1 1\n2 0\n0 1\n3 1\n");
    assert!(canonical.as_deref().is_some_and(|l| l.ends_with(" 2")), "{canonical:?}");
    assert_eq!(canonical, messy);
}

#[test]
fn messy_binary_input_is_simplified_by_count_and_refused_by_serve_rank() {
    // Records 2 and 3 are a reversed pair and a duplicate: `count`
    // must notice from inside the ranks' stripes, fall back to
    // load + simplify and count the same graph as the canonical file;
    // `serve-rank` processes read only their own stripe, so every one
    // of them must exit 3 naming the record and its byte offset.
    let write = |name: &str, el: &tc_graph::EdgeList| {
        let path = tmp(name);
        tc_graph::io::write_binary_edges_path(el, &path).unwrap();
        path
    };
    let edges = vec![(0, 1), (0, 2), (2, 1), (2, 1), (1, 3), (2, 3), (3, 3)];
    let messy_el = tc_graph::EdgeList { num_vertices: 5, edges };
    let messy = write("messy.bin", &messy_el);
    let canonical = write("canonical.bin", &messy_el.clone().simplify());
    let line =
        |out: &Output| stdout(out).lines().find(|l| l.starts_with("triangles")).map(str::to_owned);
    for algorithm in [&["--ranks", "4"][..], &["--algorithm", "summa", "--grid", "2x3"]] {
        let want = run(&[&["count", canonical.to_str().unwrap()], algorithm].concat());
        assert_eq!(want.status.code(), Some(0), "{}", stderr(&want));
        assert!(stderr(&want).contains("# 5 vertices, 5 edges"), "{}", stderr(&want));
        let got = run(&[&["count", messy.to_str().unwrap()], algorithm].concat());
        assert_eq!(got.status.code(), Some(0), "{}", stderr(&got));
        assert!(stderr(&got).contains("not a canonical edge list"), "{}", stderr(&got));
        assert!(line(&want).is_some_and(|l| l.ends_with(" 2")), "{:?}", line(&want));
        assert_eq!(line(&got), line(&want));
    }

    let peers: Vec<String> =
        (0..4).map(|r| tmp(&format!("messy-{r}.sock")).to_string_lossy().into_owned()).collect();
    let ranks: Vec<_> = (0..4)
        .map(|r| {
            tricount()
                .args(["serve-rank", messy.to_str().unwrap(), "--rank", &r.to_string()])
                .args(["--peers", &peers.join(",")])
                .stdout(std::process::Stdio::piped())
                .stderr(std::process::Stdio::piped())
                .spawn()
                .expect("spawn a rank")
        })
        .collect();
    for (r, child) in ranks.into_iter().enumerate() {
        let out = child.wait_with_output().expect("wait for a rank");
        let e = stderr(&out);
        assert_eq!(out.status.code(), Some(3), "rank {r}: {e}");
        assert!(e.contains("input error") && e.contains("messy.bin"), "rank {r}: {e}");
        assert!(
            e.contains("corrupt binary at byte 40: edge 2: descending pair (2, 1)"),
            "rank {r}: {e}"
        );
    }
    let _ = std::fs::remove_file(&messy);
    let _ = std::fs::remove_file(&canonical);
}

#[test]
fn messy_binary_input_is_simplified_by_serve_and_refused_by_socket_serve() {
    // The file of the test above. In-process ranks share the process,
    // so `serve` falls back to load + simplify as `count` does and
    // serves the canonical graph's count; processes of a socket fleet
    // read only their own stripe, so every one must exit 3 naming the
    // file, the record and its byte offset, before binding a listener.
    let edges = vec![(0, 1), (0, 2), (2, 1), (2, 1), (1, 3), (2, 3), (3, 3)];
    let messy = tmp("serve-messy.bin");
    tc_graph::io::write_binary_edges_path(&tc_graph::EdgeList { num_vertices: 5, edges }, &messy)
        .unwrap();
    let messy_arg = messy.to_str().unwrap();

    let listen = tmp("serve-messy.sock");
    let fleet = tricount()
        .args(["serve", messy_arg, "--listen", listen.to_str().unwrap(), "--ranks", "4"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let query = |args: &[&str]| {
        let sock = listen.to_str().unwrap();
        run(&[&["query", sock][..], args, &["--timeout-ms", "60000"]].concat())
    };
    let count = query(&["count"]);
    assert_eq!(count.status.code(), Some(0), "{}", stderr(&count));
    assert_eq!(stdout(&count).trim(), r#"{"ok":true,"triangles":2}"#);
    assert_eq!(query(&["shutdown"]).status.code(), Some(0));
    let out = fleet.wait_with_output().expect("wait for serve");
    let e = stderr(&out);
    assert_eq!(out.status.code(), Some(0), "{e}");
    assert!(e.contains("# not a canonical edge list ("), "{e}");
    assert!(e.contains("edge 2: descending pair (2, 1)"), "{e}");
    assert!(e.contains("# serving 5 vertices, 5 edges"), "{e}");

    let peers: Vec<String> = (0..4)
        .map(|r| tmp(&format!("serve-messy-{r}.sock")).to_string_lossy().into_owned())
        .collect();
    let ranks: Vec<_> = (0..4)
        .map(|r| {
            tricount()
                .args(["serve", messy_arg, "--listen", listen.to_str().unwrap()])
                .args(["--rank", &r.to_string(), "--peers", &peers.join(",")])
                .stdout(std::process::Stdio::piped())
                .stderr(std::process::Stdio::piped())
                .spawn()
                .expect("spawn a rank")
        })
        .collect();
    for (r, child) in ranks.into_iter().enumerate() {
        let out = child.wait_with_output().expect("wait for a rank");
        let e = stderr(&out);
        assert_eq!(out.status.code(), Some(3), "rank {r}: {e}");
        assert!(e.contains("input error") && e.contains("serve-messy.bin"), "rank {r}: {e}");
        assert!(
            e.contains("corrupt binary at byte 40: edge 2: descending pair (2, 1)"),
            "rank {r}: {e}"
        );
    }
    assert!(!listen.exists(), "a refused fleet left its listener behind");
    let _ = std::fs::remove_file(&messy);
}

#[test]
fn chaos_flag_still_counts_exactly() {
    let clean = run(&["count", "g500-s5", "--ranks", "4", "--seed", "7"]);
    assert_eq!(clean.status.code(), Some(0), "{}", stderr(&clean));
    let chaotic = run(&["count", "g500-s5", "--ranks", "4", "--seed", "7", "--chaos", "3"]);
    assert_eq!(chaotic.status.code(), Some(0), "{}", stderr(&chaotic));
    let line = |s: &str| {
        s.lines().find(|l| l.starts_with("triangles")).map(str::to_string).expect("triangles line")
    };
    assert_eq!(line(&stdout(&chaotic)), line(&stdout(&clean)));
    assert!(stderr(&chaotic).contains("# chaos: seed 3"), "{}", stderr(&chaotic));
}

#[test]
fn kernel_strategies_all_count_exactly() {
    let line = |s: &str| {
        s.lines().find(|l| l.starts_with("triangles")).map(str::to_string).expect("triangles line")
    };
    let base = run(&["count", "g500-s5", "--ranks", "4", "--seed", "7", "--kernel", "hash"]);
    assert_eq!(base.status.code(), Some(0), "{}", stderr(&base));
    let auto = run(&["count", "g500-s5", "--ranks", "4", "--seed", "7", "--kernel", "auto"]);
    assert_eq!(auto.status.code(), Some(0), "--kernel auto: {}", stderr(&auto));
    assert_eq!(line(&stdout(&auto)), line(&stdout(&base)), "--kernel auto");
    // The deleted strategies are usage errors, not silent fallbacks.
    for gone in ["merge", "bitmap"] {
        let out = run(&["count", "g500-s5", "--ranks", "4", "--kernel", gone]);
        assert_eq!(out.status.code(), Some(2), "--kernel {gone}: {}", stderr(&out));
    }
}

#[test]
fn kernel_env_seeds_the_run_and_garbage_aborts_loudly() {
    // A valid TC_KERNEL is accepted and the run still counts exactly.
    let ok = tricount()
        .args(["count", "g500-s5", "--ranks", "4", "--seed", "7"])
        .env("TC_KERNEL", "hash")
        .output()
        .expect("spawn tricount");
    assert_eq!(ok.status.code(), Some(0), "{}", stderr(&ok));
    // Garbage — a deleted strategy included — must abort before any
    // work, naming the variable (the strict_env contract of the MPS_*
    // family).
    for garbage in ["warp-drive", "merge"] {
        let bad = tricount()
            .args(["count", "g500-s5", "--ranks", "4"])
            .env("TC_KERNEL", garbage)
            .output()
            .expect("spawn tricount");
        assert_ne!(bad.status.code(), Some(0), "TC_KERNEL={garbage}");
        assert!(stderr(&bad).contains("TC_KERNEL"), "{}", stderr(&bad));
    }
}

#[test]
fn dead_link_from_env_is_runtime_exit_one() {
    // An env plan that stalls the link 0 -> 1 past the receive deadline
    // is a runtime failure (exit 1) with a typed timeout, not a hang.
    let out = tricount()
        .args(["count", "g500-s5", "--ranks", "4"])
        .env("MPS_CHAOS_SEED", "1")
        .env("MPS_CHAOS_DELAY", "1.0")
        .env("MPS_CHAOS_DELAY_MAX_US", "1000000")
        .env("MPS_CHAOS_LINKS", "0->1")
        .env("MPS_RECV_TIMEOUT_MS", "300")
        .output()
        .expect("spawn tricount");
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(stderr(&out).contains("timed out"), "{}", stderr(&out));
}

#[test]
fn removed_chaos_var_is_usage_exit_two() {
    // A frame-fault knob of the deleted reliable layer is refused by
    // name before any work, never silently ignored.
    let out = tricount()
        .args(["count", "g500-s5", "--ranks", "4"])
        .env("MPS_CHAOS_SEED", "1")
        .env("MPS_CHAOS_DROP", "1.0")
        .output()
        .expect("spawn tricount");
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("MPS_CHAOS_DROP"), "{}", stderr(&out));
    assert!(stdout(&out).is_empty(), "{}", stdout(&out));
}

#[test]
fn help_after_any_subcommand_prints_usage() {
    let usage = stdout(&run(&["help"]));
    assert!(usage.contains("USAGE:"), "{usage}");
    for cmd in [
        &["count", "g500-s5"][..],
        &["serve-rank", "g500-s5"],
        &["serve", "g500-s5"],
        &["supervise", "g500-s5"],
        &["query", "/nonexistent.sock"],
        &["generate", "g500-s5"],
        &["info", "g500-s5"],
        &["truss", "g500-s5"],
        &["tracecheck", "t.json"],
        &["benchdiff", "a.jsonl"],
        &["count"],
    ] {
        for flag in ["--help", "-h"] {
            let out = run(&[cmd, &[flag]].concat());
            assert_eq!(out.status.code(), Some(0), "{cmd:?} {flag}: {}", stderr(&out));
            assert_eq!(stdout(&out), usage, "{cmd:?} {flag}");
        }
    }
    // Anywhere after the subcommand, too.
    let out = run(&["count", "--help", "g500-s5", "--ranks", "4"]);
    assert_eq!((out.status.code(), stdout(&out)), (Some(0), usage));
}

/// The one `error:` / `benchdiff:` line a failed command printed.
fn sole_error_line(out: &Output, prefix: &str) -> String {
    let e = stderr(out);
    assert!(!e.contains("overflowed its stack") && !e.contains("panicked"), "{e}");
    let lines: Vec<&str> = e.lines().collect();
    assert!(lines.len() == 1 && lines[0].starts_with(prefix), "want one {prefix:?} line: {e}");
    lines[0].to_string()
}

/// 200 kB of `[` in a file handed to the JSON-reading subcommands used
/// to overflow the stack (SIGABRT); it is a typed error now.
#[test]
fn deeply_nested_json_is_an_error_not_a_stack_overflow() {
    let path = tmp("deep.json");
    std::fs::write(&path, "[".repeat(200_000)).unwrap();
    let deep = path.to_str().unwrap();
    let check = run(&["tracecheck", deep]);
    let diff = run(&["benchdiff", deep, deep]);
    let _ = std::fs::remove_file(&path);
    assert_eq!(check.status.code(), Some(1), "{}", stderr(&check));
    assert!(sole_error_line(&check, "error:").contains("nesting deeper than 64"));
    assert_eq!(diff.status.code(), Some(2), "{}", stderr(&diff));
    assert!(sole_error_line(&diff, "benchdiff:").contains("nesting deeper than 64"));
}

fn run_row(dataset: &str, triangles: u64, counters: &str) -> String {
    format!(
        "{{\"schema\":\"tc-run-v2\",\"dataset\":\"{dataset}\",\"algorithm\":\"2d\",\"ranks\":4,\
         \"config\":\"default\",\"triangles\":{triangles},\"counters\":{counters},\
         \"timings_ns\":{{}}}}\n"
    )
}

/// A row whose `counters` is not an object used to diff as "nothing
/// to compare" and PASS; it does not parse now.
#[test]
fn benchdiff_row_without_counters_is_exit_two() {
    let (base, cand) = (tmp("nocounters-base.jsonl"), tmp("nocounters-cand.jsonl"));
    std::fs::write(&base, run_row("a", 7, "[1,2]")).unwrap();
    std::fs::write(&cand, run_row("a", 7, "{\"tct.ops\":5}")).unwrap();
    let out = run(&["benchdiff", base.to_str().unwrap(), cand.to_str().unwrap()]);
    let _ = (std::fs::remove_file(&base), std::fs::remove_file(&cand));
    assert_eq!(out.status.code(), Some(2), "{}{}", stdout(&out), stderr(&out));
    assert!(sole_error_line(&out, "benchdiff:").contains("no 'counters' object"));
}

/// `--refresh` takes counter names. `<run>` (with a run missing from
/// the candidate) used to panic on an index, `triangles` used to bless
/// a differing triangle count as "refreshed 0 values", exit 0.
#[test]
fn benchdiff_refresh_of_a_non_counter_is_exit_two() {
    let (base, cand) = (tmp("refresh-base.jsonl"), tmp("refresh-cand.jsonl"));
    let baseline = run_row("a", 7, "{\"tct.ops\":5}") + &run_row("b", 9, "{\"tct.ops\":6}");
    std::fs::write(&base, &baseline).unwrap();
    std::fs::write(&cand, run_row("a", 8, "{\"tct.ops\":5}")).unwrap();
    for name in ["<run>", "triangles", "tct.ops,tct.opz"] {
        let out =
            run(&["benchdiff", base.to_str().unwrap(), cand.to_str().unwrap(), "--refresh", name]);
        assert_eq!(out.status.code(), Some(2), "{name}: {}{}", stdout(&out), stderr(&out));
        let line = sole_error_line(&out, "benchdiff: --refresh names no counter of");
        assert!(line.ends_with(name.rsplit(',').next().unwrap()), "{name}: {line}");
        assert_eq!(std::fs::read_to_string(&base).unwrap(), baseline, "{name}: file untouched");
    }
    let _ = (std::fs::remove_file(&base), std::fs::remove_file(&cand));
}
