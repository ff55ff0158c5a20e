//! `rsbench` command line. See `run.sh` for the wrapper that builds
//! and runs it, and `README.md` for what it measures.

use rsbench::driver::{self, Opts};
use rsbench::worker::{self, Task};
use rsbench::{agree, metrics};

const USAGE: &str = "\
usage: rsbench [--workload W]... [--seed S] [--seconds T] [--layers | --trace 0|1]
               [--quick] [--out DIR]
       rsbench agree A.json B.json
       rsbench manifest

  --workload W   paper8 | scale64 | storm1024 | faulted8 | observed8 (default: all
                 five, rounds interleaved); with exactly one, the last line of
                 standard output is the one-line JSON result
  --seed S       feeds every generated configuration (default 1998)
  --seconds T    seconds of timed passes per workload (default 8)
  --layers       the traced run: per-layer metrics, spans-<workload>.json
                 (--trace 1 means the same, --trace 0 the default timed run)
  --quick        smoke mode: Test scale, one round, one pass
  --out DIR      where result files go (default benchmark/out)
  agree          compare two result files under the benchmark's bounds
  manifest       print BENCHMARK.json as generated from the metric tables";

fn usage(error: &str) -> ! {
    eprintln!("rsbench: {error}\n{USAGE}");
    std::process::exit(2)
}

fn main() {
    let mut args = std::env::args().skip(1).peekable();
    let mut worker_mode = None;
    match args.peek().map(String::as_str) {
        Some("agree") => {
            let paths: Vec<String> = args.skip(1).collect();
            let [a, b] = paths.as_slice() else {
                usage("agree takes two result files")
            };
            match agree::run(a, b) {
                Ok(code) => std::process::exit(code),
                Err(e) => usage(&e),
            }
        }
        Some("manifest") => {
            print!("{}", metrics::manifest().pretty());
            return;
        }
        Some("worker") => {
            args.next();
            worker_mode = Some(args.next().unwrap_or_else(|| usage("worker needs a mode")));
        }
        Some("--help" | "-h") => {
            println!("{USAGE}");
            return;
        }
        _ => {}
    }

    let mut opts = Opts {
        workloads: Vec::new(),
        seed: 1998,
        seconds: metrics::RUN_SECONDS as f64,
        layers: false,
        quick: false,
        out_dir: "benchmark/out".into(),
    };
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .unwrap_or_else(|| usage(&format!("{arg} needs {what}")))
        };
        match arg.as_str() {
            "--workload" => opts.workloads.push(value("a name")),
            "--seed" => {
                opts.seed = value("a number")
                    .parse()
                    .unwrap_or_else(|_| usage("--seed needs a number"))
            }
            "--seconds" => {
                opts.seconds = value("a number")
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .unwrap_or_else(|| usage("--seconds needs a non-negative number"));
            }
            "--trace" => match value("0 or 1").as_str() {
                "0" => opts.layers = false,
                "1" => opts.layers = true,
                _ => usage("--trace needs 0 or 1"),
            },
            "--layers" => opts.layers = true,
            "--quick" => opts.quick = true,
            "--out" => opts.out_dir = value("a directory"),
            other => usage(&format!("unknown argument {other}")),
        }
    }
    if let Some(unknown) = opts.workloads.iter().find(|w| {
        !rsbench::surface::WORKLOADS
            .iter()
            .any(|k| k.name == w.as_str())
    }) {
        usage(&format!("unknown workload {unknown}"));
    }

    let Some(mode) = worker_mode else {
        std::process::exit(driver::run(&opts));
    };
    let task = Task {
        workload: opts.workloads.first().cloned().unwrap_or_default(),
        seed: opts.seed,
        seconds: opts.seconds,
        quick: opts.quick,
        out_dir: opts.out_dir,
    };
    let result = match mode.as_str() {
        "timed" => worker::timed(&task),
        "layers" => worker::layers(&task),
        "syscall" => Ok(worker::syscall(task.quick)),
        other => usage(&format!("unknown worker mode {other}")),
    };
    match result {
        Ok(json) => println!("{}", json.compact()),
        Err(e) => {
            eprintln!("rsbench worker: {e}");
            std::process::exit(1);
        }
    }
}
