//! Runs a reduced version of every workload, untraced and traced, from
//! the repository root, and checks that each run succeeds, prints every
//! metric `BENCHMARK.json` names, and leaves the tracked result artifacts
//! byte-identical.

use std::path::{Path, PathBuf};
use std::process::Command;

const WORKLOADS: [&str; 3] = ["synth_cold", "serve_warm", "serve_mixed"];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root")
        .to_path_buf()
}

/// Every `"name": "..."` value in `text`, in order.
fn names(text: &str) -> Vec<String> {
    text.split("\"name\"")
        .skip(1)
        .filter_map(|rest| rest.split('"').nth(1).map(str::to_string))
        .collect()
}

/// The tracked artifacts a benchmark run must never touch.
fn artifacts(root: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let results = root.join("results");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&results)
        .expect("results/ exists")
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.file_name() == Some("costs.tsv".as_ref())
                || p.extension().is_some_and(|e| e == "json")
        })
        .collect();
    files.sort();
    files
        .into_iter()
        .map(|p| {
            let bytes = std::fs::read(&p).expect("readable artifact");
            (p, bytes)
        })
        .collect()
}

#[test]
fn reduced_workloads_pass_and_leave_results_alone() {
    let root = repo_root();
    let spec = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let (head, per_layer) = spec
        .split_once("\"per_layer\"")
        .expect("BENCHMARK.json lists per-layer metrics");
    let (workloads, end_to_end) = head
        .split_once("\"end_to_end\"")
        .expect("BENCHMARK.json lists end-to-end metrics");
    // `serve_mixed` runs and is tested here, but BENCHMARK.json leaves it
    // out (see README.md, *Workloads*).
    assert_eq!(names(workloads), ["synth_cold", "serve_warm"]);
    let before = artifacts(&root);
    for workload in WORKLOADS {
        for (trace, expected) in [("0", names(end_to_end)), ("1", names(per_layer))] {
            let out = Command::new(env!("CARGO_BIN_EXE_strsum-perfbench"))
                .current_dir(&root)
                .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
                .args(["--trace", trace, "--reduced"])
                .output()
                .expect("benchmark runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                out.status.success(),
                "{workload} --trace {trace} failed:\n{stderr}"
            );
            let last = stdout.lines().last().unwrap_or_default();
            assert!(
                last.starts_with("{\"correct\": true, ") && last.contains("\"failed\": 0, "),
                "{workload} --trace {trace}: {last}\n{stderr}"
            );
            for name in expected {
                assert!(
                    last.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{workload} --trace {trace} lacks {name}: {last}"
                );
            }
        }
    }
    assert!(
        before == artifacts(&root),
        "a benchmark run changed results/costs.tsv or results/*.json"
    );
    assert!(
        !root.join(".perfbench-tmp").exists(),
        "scratch stores were left behind"
    );
}

#[test]
fn bad_arguments_exit_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "synth_cold", "--trace", "2"][..],
        &["--seed", "1"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_strsum-perfbench"))
            .current_dir(repo_root())
            .args(args)
            .output()
            .expect("benchmark runs");
        assert!(!out.status.success(), "{args:?} should fail");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
