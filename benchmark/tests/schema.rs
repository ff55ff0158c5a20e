//! Smoke and schema test: the metric tables are well formed,
//! `BENCHMARK.json` is what the tables generate, and a `--quick` run
//! of the real binary prints exactly the metrics the manifest lists
//! (end to end and per layer), correct, for all five workloads.
//!
//! Needs `taskset` (util-linux), like the benchmark itself.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

use rsbench::json::{self, Json};
use rsbench::metrics::{self, END_TO_END, LAYERS};
use rsbench::surface::WORKLOADS;

fn well_formed_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn well_formed_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn tables_are_well_formed() {
    let workloads: BTreeSet<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert!((2..=8).contains(&workloads.len()));
    for w in &WORKLOADS {
        assert!(well_formed_name(w.name), "{}", w.name);
        assert!(
            w.why.len() <= 200 && !w.why.contains('\n'),
            "{}: why too long",
            w.name
        );
    }

    let end_to_end: BTreeSet<&str> = END_TO_END.iter().map(|m| m.name).collect();
    assert_eq!(
        end_to_end.len(),
        END_TO_END.len(),
        "duplicate end-to-end metric"
    );
    assert!(END_TO_END.len() <= 16);
    for m in &END_TO_END {
        assert!(
            well_formed_name(m.name) && well_formed_unit(m.unit),
            "{}",
            m.name
        );
        assert!(matches!(m.better, "lower" | "higher"));
        assert!(m.bound > 0.0 && m.bound <= 0.25);
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is required");
    assert_eq!((setup.unit, setup.better), ("s", "lower"));
    assert!(
        END_TO_END.iter().all(|m| m.bound <= setup.bound),
        "setup_s carries the largest bound"
    );

    let per_layer: Vec<_> = metrics::per_layer().collect();
    assert!(per_layer.len() <= 128);
    let mut names = end_to_end.clone();
    names.extend(workloads.iter());
    for (name, unit) in &per_layer {
        assert!(well_formed_name(name) && well_formed_unit(unit), "{name}");
        assert!(names.insert(name), "{name} is used twice");
    }

    // Every prediction names an end-to-end metric and a workload
    // that exist.
    for layer in LAYERS {
        for (metric, workload) in layer.moves {
            assert!(end_to_end.contains(metric), "{}: {metric}", layer.name);
            assert!(workloads.contains(workload), "{}: {workload}", layer.name);
        }
        for workload in layer.unchanged {
            assert!(workloads.contains(workload), "{}: {workload}", layer.name);
            assert!(
                !layer.moves.iter().any(|(_, w)| w == workload),
                "{}: {workload} both moves and stays",
                layer.name
            );
        }
    }
}

#[test]
fn benchmark_json_is_the_generated_manifest() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 << 10);
    assert_eq!(
        json::parse(&text).expect("BENCHMARK.json parses"),
        metrics::manifest(),
        "BENCHMARK.json is stale: regenerate it with `rsbench manifest`"
    );
}

/// Runs the built binary; returns `(exit code, standard output)`.
fn rsbench(args: &[&str]) -> (i32, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_rsbench"))
        .args(args)
        .output()
        .expect("rsbench starts");
    (
        output.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&output.stdout).into_owned(),
    )
}

/// The `workload metric value unit` lines of a run, comments dropped.
fn metric_lines(stdout: &str) -> Vec<[String; 4]> {
    stdout
        .lines()
        .filter(|l| !l.starts_with('#') && !l.starts_with('{'))
        .map(|l| {
            let fields: Vec<String> = l.split_whitespace().map(String::from).collect();
            fields
                .try_into()
                .unwrap_or_else(|_| panic!("malformed line {l:?}"))
        })
        .collect()
}

fn assert_prints_exactly(stdout: &str, expected: &[(&str, &str)]) {
    let lines = metric_lines(stdout);
    for w in &WORKLOADS {
        let printed: Vec<(&str, &str)> = lines
            .iter()
            .filter(|l| l[0] == w.name)
            .map(|l| (l[1].as_str(), l[3].as_str()))
            .collect();
        assert_eq!(
            printed, expected,
            "{}: printed metrics differ from the manifest",
            w.name
        );
    }
    assert_eq!(lines.len(), expected.len() * WORKLOADS.len());
    for l in &lines {
        let value: f64 = l[2]
            .parse()
            .unwrap_or_else(|_| panic!("{} {} = {:?}", l[0], l[1], l[2]));
        assert!(value.is_finite(), "{} {}", l[0], l[1]);
    }
}

#[test]
fn quick_run_prints_exactly_the_manifest() {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("quick");
    let out = out.to_str().expect("UTF-8 path");

    let started = Instant::now();
    let (code, stdout) = rsbench(&["--quick", "--seed", "7", "--out", out]);
    assert_eq!(code, 0, "quick run failed:\n{stdout}");
    assert!(
        started.elapsed() < Duration::from_secs(15),
        "quick run took {:?}",
        started.elapsed()
    );
    let end_to_end: Vec<_> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
    assert_prints_exactly(&stdout, &end_to_end);
    for l in metric_lines(&stdout) {
        assert!(
            l[2].parse::<f64>().unwrap() > 0.0,
            "{} {} is zero",
            l[0],
            l[1]
        );
    }

    // The same file agrees with itself, and a set with no failures
    // reports none.
    let results = format!("{out}/results.json");
    let (code, table) = rsbench(&["agree", &results, &results]);
    assert_eq!(code, 0, "{table}");
    assert!(
        !table.contains("worse") && !table.contains("DIFFERENT"),
        "{table}"
    );
    let document = json::parse(&std::fs::read_to_string(&results).unwrap()).unwrap();
    for (name, w) in document.get("workloads").unwrap().members() {
        assert_eq!(w.get("failed"), Some(&Json::Num(0.0)), "{name}");
    }

    let (code, stdout) = rsbench(&["--quick", "--layers", "--seed", "7", "--out", out]);
    assert_eq!(code, 0, "quick --layers run failed:\n{stdout}");
    assert_prints_exactly(&stdout, &metrics::per_layer().collect::<Vec<_>>());
    for w in &WORKLOADS {
        let spans = std::fs::read_to_string(format!("{out}/spans-{}.json", w.name)).unwrap();
        assert!(json::parse(&spans).unwrap().get("traceEvents").is_some());
    }
}

#[test]
fn a_single_workload_ends_with_the_result_line() {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("single");
    let (code, stdout) = rsbench(&[
        "--quick",
        "--workload",
        "scale64",
        "--seed",
        "3",
        "--seconds",
        "1",
        "--trace",
        "0",
        "--out",
        out.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "{stdout}");
    let result = json::parse(stdout.lines().last().unwrap()).expect("last line is JSON");
    let keys: Vec<&str> = result.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(result.get("failed"), Some(&Json::Num(0.0)));
    let reported: Vec<&str> = result
        .get("metrics")
        .unwrap()
        .members()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        reported,
        END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
    );
}
