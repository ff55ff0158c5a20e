//! Golden snapshots of the figure/table binaries' emitted rows.
//!
//! `fig1_row` and `table1_row` produce exactly the text the `fig1` and
//! `table1` binaries print per application; these tests pin an FNV-1a
//! digest of that text for a small deterministic configuration
//! (4 nodes, test scale, seed 1998), swept the way the binaries sweep
//! it. The simulation is fully deterministic, so the digests must
//! reproduce everywhere.
//!
//! When an intentional change moves a digest (a cost-model
//! recalibration, a new breakdown category, a formatting fix), the
//! failure message prints the full emitted text — eyeball it, then
//! re-pin the constant. Unexplained drift is a determinism bug.

use rsdsm_apps::{Benchmark, Scale};
use rsdsm_bench::{fig1_row, sweep, table1_row, ExpOpts, Variant};
use rsdsm_core::fnv1a_extend;
use rsdsm_simnet::FNV_OFFSET;

const FIG1_DIGEST: u64 = 0x46bc_ac07_1090_ad66;
const TABLE1_DIGEST: u64 = 0xbb13_541c_cc2e_4453;

fn snapshot_opts() -> ExpOpts {
    ExpOpts {
        scale: Scale::Test,
        nodes: 4,
        seed: 1998,
        ..ExpOpts::default()
    }
}

#[test]
fn fig1_rows_match_snapshot() {
    let opts = snapshot_opts();
    let mut runs = sweep(&opts, opts.matrix(&[Variant::Original]));
    let mut digest = FNV_OFFSET;
    let mut emitted = String::new();
    for bench in Benchmark::ALL {
        let row = fig1_row(bench, &runs.take());
        digest = fnv1a_extend(digest, row.as_bytes());
        emitted.push_str(&row);
    }
    assert_eq!(
        digest, FIG1_DIGEST,
        "fig1 output drifted; emitted rows were:\n{emitted}"
    );
}

#[test]
fn table1_rows_match_snapshot() {
    let opts = snapshot_opts();
    let mut runs = sweep(&opts, opts.matrix(&[Variant::Original, Variant::Prefetch]));
    let mut digest = FNV_OFFSET;
    let mut emitted = String::new();
    for bench in Benchmark::ALL {
        let (orig, pf) = (runs.take(), runs.take());
        let row = table1_row(bench, &orig, &pf).join("|");
        digest = fnv1a_extend(digest, row.as_bytes());
        emitted.push_str(&row);
        emitted.push('\n');
    }
    assert_eq!(
        digest, TABLE1_DIGEST,
        "table1 output drifted; emitted rows were:\n{emitted}"
    );
}

/// Sanity anchors on the row *content* so a digest re-pin cannot
/// silently bless nonsense: SOR's hand prefetching reaches full
/// coverage at this scale, and prefetching must not increase misses.
#[test]
fn table1_rows_are_sane() {
    let opts = ExpOpts {
        apps: vec![Benchmark::Sor, Benchmark::Fft, Benchmark::Radix],
        ..snapshot_opts()
    };
    let mut runs = sweep(&opts, opts.matrix(&[Variant::Original, Variant::Prefetch]));
    let rows: Vec<_> = opts
        .apps
        .iter()
        .map(|&bench| table1_row(bench, &runs.take(), &runs.take()))
        .collect();
    assert_eq!(rows[0][0], "SOR");
    assert_eq!(rows[0][2], "100.00%", "SOR coverage fell below full");
    for (bench, row) in opts.apps.iter().zip(&rows) {
        let misses_o: u64 = row[5].parse().expect("misses O");
        let misses_p: u64 = row[6].parse().expect("misses P");
        assert!(
            misses_p < misses_o,
            "{bench}: prefetching did not reduce misses ({misses_o} -> {misses_p})"
        );
    }
}
