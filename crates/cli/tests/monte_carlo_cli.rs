//! `ldpc-tool simulate` and `sweep` end to end through the binary: both
//! run the chunk orchestrator, so their stdout depends only on
//! (scenario, seed, frames) — not on `--threads` — and a frame cap is
//! met exactly, whatever its size.

use std::process::{Command, Output};

fn ldpc_tool(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ldpc-tool"))
        .args(args)
        .output()
        .expect("ldpc-tool runs")
}

/// Stdout of a command that must succeed.
fn stdout_of(args: &[&str]) -> String {
    let out = ldpc_tool(args);
    assert!(
        out.status.success(),
        "{args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("UTF-8 CSV")
}

/// The `frames` column of every data row.
fn frames_column(csv: &str) -> Vec<u64> {
    csv.lines()
        .skip(1)
        .map(|row| row.split(',').nth(4).unwrap().parse().unwrap())
        .collect()
}

/// 700 frames span three chunks (256 + 256 + 188), so the runs below
/// spread one point over several workers.
#[test]
fn simulate_and_sweep_print_the_same_bytes_at_any_thread_count() {
    let simulate = |threads: &str| {
        stdout_of(&[
            "simulate",
            "--demo",
            "--decoder",
            "nms:1.25",
            "--ebn0",
            "2",
            "--frames",
            "700",
            "--seed",
            "5",
            "--threads",
            threads,
        ])
    };
    let sweep = |threads: &str| {
        stdout_of(&[
            "sweep",
            "--demo",
            "--decoders",
            "nms:1.25,fixed@pack=8",
            "--ebn0s",
            "2,3",
            "--frames",
            "700",
            "--seed",
            "5",
            "--threads",
            threads,
        ])
    };
    let (sim1, sweep1) = (simulate("1"), sweep("1"));
    for threads in ["2", "8"] {
        assert_eq!(simulate(threads), sim1, "simulate --threads {threads}");
        assert_eq!(sweep(threads), sweep1, "sweep --threads {threads}");
    }
    assert_eq!(frames_column(&sweep1), vec![700; 4]);
    // The simulate run is the sweep's first cell: same header, same row.
    let first_cell: Vec<&str> = sweep1.lines().take(2).collect();
    assert_eq!(sim1, format!("{}\n", first_cell.join("\n")));
}

#[test]
fn frame_cap_is_exact() {
    let out = stdout_of(&["simulate", "--demo", "--frames", "300", "--threads", "2"]);
    assert_eq!(frames_column(&out), vec![300]);
    let out = stdout_of(&[
        "sweep",
        "--demo",
        "--decoders",
        "gallager-b@bitslice",
        "--ebn0s",
        "4,5",
        "--frames",
        "500",
        "--chunk-frames",
        "64",
    ]);
    assert_eq!(frames_column(&out), vec![500, 500]);
}

/// Caps of 1e11 and `u64::MAX` one-frame chunks must not be allocated
/// for up front (a slot per chunk is 5.6 TB at 1e11); the error target
/// ends both after the first frame error.
#[test]
fn huge_frame_caps_run_without_preallocating() {
    for frames in ["100000000000", "18446744073709551615"] {
        let out = stdout_of(&[
            "sweep",
            "--demo",
            "--decoders",
            "nms",
            "--ebn0s",
            "4",
            "--target-errors",
            "1",
            "--frames",
            frames,
            "--chunk-frames",
            "1",
        ]);
        let rows: Vec<&str> = out.lines().skip(1).collect();
        assert_eq!(rows.len(), 1, "{out}");
        let fields: Vec<&str> = rows[0].split(',').collect();
        assert_eq!((fields[8], fields[11]), ("1", "target"), "{out}");
    }
}

/// A row without frame errors prints an exactly-zero lower PER bound.
#[test]
fn error_free_row_prints_an_exact_zero_per_lo() {
    let csv = stdout_of(&[
        "simulate",
        "--demo",
        "--decoder",
        "fixed@pack=8",
        "--ebn0",
        "8",
        "--frames",
        "2000",
    ]);
    let header: Vec<&str> = csv.lines().next().unwrap().split(',').collect();
    let row: Vec<&str> = csv.lines().nth(1).unwrap().split(',').collect();
    let field = |name: &str| row[header.iter().position(|&h| h == name).unwrap()];
    assert_eq!(field("frame_errors"), "0", "{csv}");
    assert_eq!(field("per_lo"), "0.000000e0", "{csv}");
}

/// Zero iterations decode nothing in any family: at -5 dB every frame's
/// channel decision is wrong, so every registry family reports PER 1
/// with 0 average iterations.
#[test]
fn zero_iterations_report_per_one_for_every_family() {
    for spec in ldpc_core::DecoderSpec::all_families() {
        let decoder = spec.to_string();
        let csv = stdout_of(&[
            "simulate",
            "--demo",
            "--ebn0",
            "-5",
            "--iters",
            "0",
            "--decoder",
            &decoder,
        ]);
        let header: Vec<&str> = csv.lines().next().unwrap().split(',').collect();
        let row: Vec<&str> = csv.lines().nth(1).unwrap().split(',').collect();
        let field = |name: &str| row[header.iter().position(|&h| h == name).unwrap()];
        assert_eq!(field("per"), "1.000000e0", "{decoder}: {csv}");
        assert_eq!(field("avg_iterations"), "0.00", "{decoder}: {csv}");
    }
}
