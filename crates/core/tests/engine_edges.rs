//! Integration tests for engine edge cases: garbage collection,
//! safety limits, barrier identifier reuse, and home policies.

use rsdsm_core::{
    BarrierId, Category, DsmConfig, DsmTask, Heap, HomePolicy, SharedVec, SimError, Simulation,
    TaskCtx, VerifyCtx,
};
use rsdsm_simnet::SimDuration;

/// Threads repeatedly rewrite their block and barrier, generating
/// diff storage that crosses the GC threshold.
struct Churner {
    rounds: usize,
}

impl DsmTask for Churner {
    type Handles = SharedVec<u64>;

    fn name(&self) -> String {
        "churner".into()
    }

    fn allocate(&self, heap: &mut Heap) -> Self::Handles {
        heap.alloc(4096, HomePolicy::Blocked)
    }

    async fn run(&self, ctx: &mut TaskCtx, data: &Self::Handles) {
        let t = ctx.thread_id();
        let n = ctx.num_threads();
        let chunk = data.len() / n;
        for round in 0..self.rounds {
            let vals: Vec<u64> = (0..chunk)
                .map(|i| (round * 1000 + t * 10 + i) as u64)
                .collect();
            ctx.write_slice(data, t * chunk, &vals).await;
            // Reuse two alternating barrier ids across all rounds.
            ctx.barrier(BarrierId(round as u32 % 2)).await;
            // Read a neighbour's chunk so diffs actually travel.
            let other = (t + 1) % n;
            let got = ctx.read_vec(data, other * chunk, chunk).await;
            assert_eq!(got[0], (round * 1000 + other * 10) as u64);
            ctx.barrier(BarrierId(2 + round as u32 % 2)).await;
        }
    }

    fn verify(&self, mem: &VerifyCtx, data: &Self::Handles) -> bool {
        mem.read(data, 0) == (self.rounds - 1) as u64 * 1000
    }
}

#[test]
fn garbage_collection_triggers_under_pressure() {
    let mut cfg = DsmConfig::paper_cluster(4).with_seed(5);
    cfg.gc_threshold_bytes = 1024; // far below the diff churn
    let report = Simulation::new(cfg)
        .run(&Churner { rounds: 8 })
        .expect("run");
    assert!(report.verified);
    assert!(report.gc_passes > 0, "GC must have run");
}

#[test]
fn barrier_ids_are_reusable_across_episodes() {
    // Churner already alternates two ids; many rounds stress reuse.
    let cfg = DsmConfig::paper_cluster(4).with_seed(6);
    let report = Simulation::new(cfg)
        .run(&Churner { rounds: 12 })
        .expect("run");
    assert!(report.verified);
}

#[test]
fn simulated_time_limit_aborts_cleanly() {
    let mut cfg = DsmConfig::paper_cluster(4).with_seed(7);
    cfg.max_sim_time = SimDuration::from_micros(50); // absurdly small
    let err = Simulation::new(cfg)
        .run(&Churner { rounds: 4 })
        .expect_err("must exceed the limit");
    assert!(matches!(err, SimError::TimeLimit), "got {err:?}");
}

/// Round-robin homed pages spread first-touch fetches across nodes.
struct RoundRobinReader;

impl DsmTask for RoundRobinReader {
    type Handles = SharedVec<u64>;

    fn name(&self) -> String {
        "rr-reader".into()
    }

    fn allocate(&self, heap: &mut Heap) -> Self::Handles {
        heap.alloc(4096, HomePolicy::RoundRobin)
    }

    async fn run(&self, ctx: &mut TaskCtx, data: &Self::Handles) {
        if ctx.thread_id() == 0 {
            let vals: Vec<u64> = (0..data.len() as u64).collect();
            ctx.write_slice(data, 0, &vals).await;
        }
        ctx.barrier(BarrierId(0)).await;
        let sum: u64 = ctx.read_vec(data, 0, data.len()).await.iter().sum();
        assert_eq!(sum, (data.len() as u64 - 1) * data.len() as u64 / 2);
        ctx.barrier(BarrierId(1)).await;
    }
}

#[test]
fn round_robin_homes_work() {
    let report = Simulation::new(DsmConfig::paper_cluster(4).with_seed(8))
        .run(&RoundRobinReader)
        .expect("run");
    assert!(report.verified);
    // The writer's first-touch fetches must hit several homes.
    assert!(report.misses.misses > 0);
}

/// A single-node run never touches the network.
#[test]
fn single_node_runs_offline() {
    let report = Simulation::new(DsmConfig::paper_cluster(1).with_seed(9))
        .run(&Churner { rounds: 2 })
        .expect("run");
    assert!(report.verified);
    assert_eq!(report.net.total_msgs, 0, "no cluster, no messages");
    assert_eq!(report.misses.misses, 0);
    assert_eq!(report.breakdown[Category::MemoryIdle], SimDuration::ZERO);
}

/// Accounting sanity at the report level: every node's per-category
/// total covers the whole run.
#[test]
fn per_node_accounts_cover_the_run() {
    let report = Simulation::new(DsmConfig::paper_cluster(4).with_seed(10))
        .run(&Churner { rounds: 4 })
        .expect("run");
    for (n, b) in report.node_breakdowns.iter().enumerate() {
        assert!(
            b.total() >= report.total_time,
            "node {n} categories ({}) below total ({})",
            b.total(),
            report.total_time
        );
    }
}
