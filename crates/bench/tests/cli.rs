//! What the experiment binaries accept and what they print.
//!
//! A flag a binary would accept and then ignore is a usage error
//! (exit 2, before anything runs), and what a binary prints and
//! writes for its cells does not depend on `--jobs`.

use std::process::Command;

use rsdsm_apps::{Benchmark, Scale};
use rsdsm_bench::{sweep, Cell, ExpOpts, Variant};

/// Runs a binary with `args` and returns its exit code and stderr.
fn run(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin).args(args).output().expect("binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn figure_binaries_reject_bench_json() {
    let path = format!("{}/ignored-bench.json", env!("CARGO_TARGET_TMPDIR"));
    let args = [
        "--test-scale",
        "--nodes",
        "2",
        "--app",
        "SOR",
        "--bench-json",
        &path,
    ];
    for bin in [
        env!("CARGO_BIN_EXE_fig1"),
        env!("CARGO_BIN_EXE_fig2"),
        env!("CARGO_BIN_EXE_fig3"),
        env!("CARGO_BIN_EXE_fig4"),
        env!("CARGO_BIN_EXE_fig5"),
        env!("CARGO_BIN_EXE_table1"),
        env!("CARGO_BIN_EXE_table2"),
        env!("CARGO_BIN_EXE_ablations"),
    ] {
        let (code, stderr) = run(bin, &args);
        assert_eq!(code, Some(2), "{bin} accepted --bench-json:\n{stderr}");
        assert!(stderr.contains("unknown option --bench-json"), "{stderr}");
    }
    assert!(!std::path::Path::new(&path).exists(), "{path} was written");
}

#[test]
fn scaling_rejects_zero_nodes() {
    for (args, error) in [
        (["--nodes", "0"], "--nodes needs a positive number"),
        (["--tiers", "8,0"], "--tiers needs positive node counts"),
    ] {
        let (code, stderr) = run(env!("CARGO_BIN_EXE_scaling"), &args);
        assert_eq!(code, Some(2), "scaling {args:?} ran:\n{stderr}");
        assert!(stderr.contains(error), "{stderr}");
    }
}

#[test]
fn perf_takes_only_bench_json() {
    for args in [
        &["--fault-crash", "3@5"][..],
        &["--test-scale"],
        &["--seed", "7"],
    ] {
        let (code, stderr) = run(env!("CARGO_BIN_EXE_perf"), args);
        assert_eq!(code, Some(2), "perf accepted {args:?}:\n{stderr}");
        assert!(
            stderr.contains("usage: perf [--bench-json PATH]"),
            "{stderr}"
        );
    }
}

/// Every line a sweep renders for its cells — trace lines, trace
/// metrics, fault summaries — in the order the binary consumes them:
/// two apps × two variants under 5% loss, plus a tweaked config the
/// way `ablations` builds one.
fn rendering(jobs: usize) -> String {
    let opts = ExpOpts {
        scale: Scale::Test,
        nodes: 4,
        apps: vec![Benchmark::Sor, Benchmark::Fft],
        fault_loss: 0.05,
        trace_out: Some(format!("{}/sweep-trace.json", env!("CARGO_TARGET_TMPDIR"))),
        trace_metrics: true,
        jobs,
        ..ExpOpts::default()
    };
    let mut cells = opts.matrix(&[Variant::Original, Variant::Combined(2)]);
    let naive = Cell::variant(Benchmark::Sor, Variant::Combined(4), &opts);
    cells.push(naive.tweaked("naive", |cfg| cfg.threads.switch_on_memory = true));
    let mut runs = sweep(&opts, cells);
    let mut out = String::new();
    for _ in 0..5 {
        runs.render(&mut out);
    }
    out
}

#[test]
fn printed_cell_lines_do_not_depend_on_jobs() {
    let serial = rendering(1);
    assert_eq!(serial, rendering(4), "--jobs 4 printed differently");
    let names = [
        "SOR [O]",
        "SOR [2TP]",
        "FFT [O]",
        "FFT [2TP]",
        "SOR [4TP-naive]",
    ];
    for name in names {
        for what in ["trace metrics:", "faults:"] {
            let line = format!("  {name} {what}");
            assert!(serial.contains(&line), "no `{line}` line in:\n{serial}");
        }
    }
    let trace_lines: Vec<_> = names
        .iter()
        .map(|name| serial.find(&format!("  {name} trace:")))
        .collect();
    assert!(
        trace_lines.iter().all(Option::is_some) && trace_lines.windows(2).all(|w| w[0] < w[1]),
        "cells missing or out of list order:\n{serial}"
    );
}
