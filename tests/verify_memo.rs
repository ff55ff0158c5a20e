//! A problem's verdict is remembered for the life of the process, and
//! remembering it changes neither a verdict nor a run: every
//! application under the paper's four techniques, swept twice in one
//! process, verifies both times, and the second sweep's reports digest
//! as the first's.

mod common;

use common::base;
use rsdsm::apps::{Benchmark, Scale};
use rsdsm_bench::Variant;

#[test]
fn a_second_sweep_verifies_and_digests_as_the_first() {
    let sweep = || -> Vec<u64> {
        let mut digests = Vec::new();
        for bench in Benchmark::ALL {
            for variant in [
                Variant::Original,
                Variant::Prefetch,
                Variant::Threads(2),
                Variant::Combined(2),
            ] {
                let cfg = variant.config_on(bench, base(4));
                let report = bench.run(Scale::Test, cfg).expect("the run completes");
                assert!(report.verified, "{bench} [{}]", variant.label());
                digests.push(report.digest());
            }
        }
        digests
    };
    let first = sweep();
    assert_eq!(sweep(), first);
}
