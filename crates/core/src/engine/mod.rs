//! The simulation engine: the event loop and protocol handlers that
//! drive the application threads in deterministic lockstep.
//!
//! The engine is the meeting point of every substrate: it owns the
//! event queue and network from `rsdsm-simnet`, drives the LRC
//! machinery from `rsdsm-protocol` inside each [`NodeState`], executes
//! application threads as the driver of the
//! [`conductor`](crate::conductor)'s lockstep harness, and charges
//! every software cost from the [`CostModel`](crate::CostModel) to the
//! per-node accounts that become the paper's execution-time
//! breakdowns.
//!
//! This file holds the entry point ([`Simulation`]), the [`Event`]
//! vocabulary and the run loop. Everything an event does lives in one
//! submodule per subsystem — `sched`, `fetch`, `prefetch`, `sync`,
//! `wire`, `outage` — each a plain `impl Core` block next to the state
//! it owns, whose fields are private to that module. `DESIGN.md` §6m
//! tabulates what each owns, handles and keeps invariant.

mod fetch;
mod outage;
pub(crate) mod prefetch;
mod sched;
mod sync;
mod wire;

use std::ops::AddAssign;

use rsdsm_protocol::{PageId, PageIndex};
use rsdsm_simnet::{FaultStats, NodeId, QueueBackend, SimDuration, SimTime};

use crate::accounting::IdleReason;
use crate::conductor::{lockstep, ThreadLink};
use crate::config::{DsmConfig, RecoveryPlan, RunPlan};
use crate::heap::Heap;
use crate::node::{NodeMem, NodeState};
use crate::oracle::{digest_pages, OracleOutcome, OracleState};
use crate::program::{Runnable, VerifyCtx};
use crate::recovery::RecoveryStats;
use crate::report::{NetSummary, RunReport, SimError};
use crate::thread::ThreadId;
use crate::trace::{Trace, Tracer};
use crate::transport::{Packet, TransportSummary};

use self::fetch::materialize;
use self::outage::Recovery;
use self::prefetch::Prefetcher;
use self::sched::{Sched, ThreadPeer};
use self::sync::Barriers;
use self::wire::Wire;

/// Events processed by the engine.
#[derive(Debug)]
enum Event {
    /// Initial activation of a thread.
    Start(ThreadId),
    /// A running thread's compute burst matured into its syscall.
    SyscallReady(ThreadId),
    /// A transport frame arrived at its destination.
    Arrival(Packet),
    /// A reliable frame's retransmission timer fired. Stale timers
    /// (frame already acked) are lazily discarded.
    RetryTimeout {
        /// The frame's sender.
        src: NodeId,
        /// The frame's destination.
        dst: NodeId,
        /// The frame's per-link sequence number.
        seq: u64,
    },
    /// A scheduled crash from the fault plan: the node's NIC goes
    /// dead and its local activity freezes.
    Crash {
        /// The crashing node.
        node: NodeId,
        /// `Some(outage)` for crash-restart, `None` for crash-stop
        /// (the node only comes back if recovery provisions a
        /// replacement).
        restart_after: Option<SimDuration>,
    },
    /// A suspended node — crashed, or frozen on the minority side of
    /// a cut — comes back: its outage plus the modeled restore/replay
    /// cost has elapsed.
    Resume(NodeId),
    /// Periodic failure-detector tick at one node: checks peers'
    /// leases and sends explicit heartbeats on idle links. Only
    /// scheduled when recovery is enabled.
    HeartbeatTick(NodeId),
    /// The manager's grace period after a suspicion expired; decide
    /// whether the suspect is really down.
    ConfirmFailure(NodeId),
    /// A scheduled network cut from the fault plan activates
    /// (index into `FaultPlan::partitions`): nodes outside the
    /// manager-side component freeze and are marked unreachable.
    PartitionStart(usize),
    /// The cut heals: frozen minority nodes get their resume
    /// (checkpoint restore + replay) scheduled.
    PartitionHeal(usize),
}

/// A configured simulation, ready to run programs.
///
/// See [`DsmTask`](crate::DsmTask) for a complete end-to-end example.
#[derive(Debug, Clone)]
pub struct Simulation {
    cfg: DsmConfig,
    backend: QueueBackend,
}

impl Simulation {
    /// Creates a simulation with the given configuration.
    pub fn new(cfg: DsmConfig) -> Self {
        Simulation {
            cfg,
            backend: QueueBackend::default(),
        }
    }

    /// Selects the event-queue implementation the engine runs on.
    ///
    /// The timing wheel ([`QueueBackend::Wheel`]) is the default;
    /// the binary-heap reference exists for differential testing.
    /// Both produce identical results — same pop order, same report
    /// and trace digests — so this only affects wall-clock throughput.
    pub fn with_queue_backend(mut self, backend: QueueBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Runs `app` to completion and reports every measurement.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the configuration fails
    /// [`DsmConfig::validate`] (nothing is run), an application thread
    /// panics, the simulated-time safety limit is exceeded, the
    /// reliable transport gives up on a frame, or the protocol
    /// deadlocks (which indicates an application synchronization bug,
    /// e.g. mismatched barrier arrivals).
    pub fn run<B, P: Runnable<B>>(&self, app: &P) -> Result<RunReport, SimError> {
        self.run_inner(app, false).map(|(report, _)| report)
    }

    /// Runs `app` like [`Simulation::run`] while recording a
    /// structured [`Trace`] of every simulated event. Tracing is
    /// observation only: the report (and its digest) is identical to
    /// an untraced run, and the trace itself is deterministic — same
    /// seed + config ⇒ same [`Trace::digest`].
    ///
    /// # Errors
    ///
    /// Exactly as [`Simulation::run`].
    pub fn run_traced<B, P: Runnable<B>>(&self, app: &P) -> Result<(RunReport, Trace), SimError> {
        self.run_inner(app, true)
            .map(|(report, trace)| (report, trace.expect("traced run yields a trace")))
    }

    fn run_inner<B, P: Runnable<B>>(
        &self,
        app: &P,
        traced: bool,
    ) -> Result<(RunReport, Option<Trace>), SimError> {
        let cfg = &self.cfg;
        let (out, heap, handles) = self.run_engine(app, traced)?;

        // Verify first, then hand the one image on to the oracle's
        // outcome: nothing needs a second copy of it.
        let image = VerifyCtx::new(materialize(&heap, &out.nodes));
        let verified = app.verify(&image, &handles);
        let pages = image.into_pages();
        let oracle = out.oracle.map(|state| OracleOutcome {
            violations: state.violations,
            lock_trace: state.lock_trace,
            image_digest: digest_pages(&pages),
            final_image: pages,
        });

        let nodes = out.nodes;
        let node_breakdowns: Vec<_> = nodes.iter().map(|n| *n.account.breakdown()).collect();
        let mut breakdown = crate::accounting::Breakdown::new();
        for b in &node_breakdowns {
            breakdown.accumulate(b);
        }
        let misses = sum(&nodes, |n| n.misses);
        let locks = sum(&nodes, |n| n.lock_stats);
        let barriers = sum(&nodes, |n| n.barrier_stats);
        let mut mt = sum(&nodes, |n| n.mt);
        mt.stall_sum = misses.stall_sum + locks.stall_sum + barriers.stall_sum;
        mt.stall_count = misses.misses + locks.waits + barriers.waits;
        let adaptive = cfg.prefetch.mode.is_adaptive().then(|| {
            sum(&nodes, |n| {
                n.prefetcher
                    .adaptive()
                    .map(|ad| *ad.stats())
                    .unwrap_or_default()
            })
        });

        Ok((
            RunReport {
                app: app.name(),
                config: cfg.clone(),
                total_time: out.finish.saturating_since(SimTime::ZERO),
                node_breakdowns,
                breakdown,
                verified,
                net: out.net,
                misses,
                locks,
                barriers,
                prefetch: sum(&nodes, |n| n.mem.prefetch),
                mt,
                transport: out.transport,
                fault_injection: out.fault_injection,
                recovery: out.recovery,
                gc_passes: sum(&nodes, |n| n.gc_passes),
                directory: sum(&nodes, |n| n.directory),
                events_processed: out.events,
                oracle,
                adaptive,
            },
            traced.then_some(out.trace),
        ))
    }

    /// Validates the configuration, lays out the heap and drives the
    /// engine to completion: everything of a run up to the report.
    fn run_engine<B, P: Runnable<B>>(
        &self,
        app: &P,
        traced: bool,
    ) -> Result<(Outcome, Heap, P::Handles), SimError> {
        let cfg = &self.cfg;
        let plan = cfg.validate().map_err(SimError::Config)?;
        let mut heap = Heap::for_config(cfg);
        let handles = app.allocate(&mut heap);
        if let Some(policy) = cfg.directory.policy() {
            // Directory-sharded homes: override the application's
            // layout with the configured partition of the page space,
            // here and only here — the engine borrows the heap, so
            // homes are fixed for the run.
            let total = heap.page_count();
            for p in 0..total {
                let page = PageId::new(p as u32);
                heap.set_home(page, policy.static_home(p, total, cfg.nodes));
            }
        }
        let tpn = cfg.threads.threads_per_node;
        let out = lockstep(
            app,
            &handles,
            &cfg.costs,
            &cfg.prefetch,
            cfg.total_threads(),
            |t| t / tpn,
            |links| {
                let mut core = Core::new(&plan, &heap, links, traced, self.backend);
                // On error, returning drops the core and with it the
                // links, which unwinds any thread still parked.
                let finish = core.run_loop()?;
                Ok(core.into_outcome(finish))
            },
        )?;
        Ok((out, heap, handles))
    }
}

/// The run's total of one per-node count.
fn sum<T: AddAssign + Default>(nodes: &[NodeState], count: impl Fn(&NodeState) -> T) -> T {
    let mut total = T::default();
    for node in nodes {
        total += count(node);
    }
    total
}

/// What a completed run hands back to [`Simulation::run_engine`].
struct Outcome {
    finish: SimTime,
    nodes: Vec<NodeState>,
    net: NetSummary,
    transport: TransportSummary,
    fault_injection: FaultStats,
    oracle: Option<OracleState>,
    recovery: RecoveryStats,
    events: u64,
    trace: Trace,
}

/// The running engine. Fields are visible to the subsystem modules;
/// each subsystem's own state keeps its fields private to its module.
struct Core<'a> {
    cfg: &'a DsmConfig,
    /// The run's page homes, fixed before the engine starts.
    heap: &'a Heap,
    /// Events popped from the queue — the scaling suite's
    /// events-per-second numerator.
    events_processed: u64,
    nodes: Vec<NodeState>,
    /// Every interval sealed in the run, by the pages it names; read
    /// through a node's own log (`NodeState::intervals_naming`).
    page_index: PageIndex,
    sched: Sched<'a>,
    wire: Wire,
    barriers: Barriers,
    /// The consistency oracle (invariant violations, lock-grant
    /// trace); `None` unless the config turns it on.
    oracle: Option<OracleState>,
    /// Crash/partition suspension, failure detection, checkpoints and
    /// persistence; `None` when the plan's recovery is off.
    recovery: Option<Recovery>,
    /// Structured event tracing (see [`crate::trace`]); inert unless
    /// the run was started via [`Simulation::run_traced`].
    tracer: Tracer,
}

impl<'a> Core<'a> {
    /// Builds the engine for a plan, and schedules the run's initial
    /// events: thread starts, the fault plan's crashes and cuts, and
    /// the first heartbeat ticks.
    fn new(
        plan: &RunPlan<'a>,
        heap: &'a Heap,
        threads: Vec<ThreadLink<'a>>,
        traced: bool,
        backend: QueueBackend,
    ) -> Self {
        let cfg = plan.config();
        let tpn = cfg.threads.threads_per_node;
        let threads = threads.into_iter().map(ThreadPeer::new).collect();
        let extra = cfg.faults.crashes.len() + cfg.nodes + 64;
        let mut sched = Sched::new(backend, threads, cfg.nodes, extra);
        for crash in &cfg.faults.crashes {
            sched.push(
                crash.at,
                Event::Crash {
                    node: crash.node,
                    restart_after: crash.restart_after,
                },
            );
        }
        for (i, p) in cfg.faults.partitions.iter().enumerate() {
            sched.push(p.at, Event::PartitionStart(i));
        }
        if let RecoveryPlan::Detect { detection, .. } = plan.recovery() {
            for n in 0..cfg.nodes {
                sched.push(SimTime::ZERO + detection.heartbeat, Event::HeartbeatTick(n));
            }
        }
        let total_pages = heap.page_count();
        let nodes = (0..cfg.nodes)
            .map(|n| {
                let mem = NodeMem::new(total_pages, |p| heap.home(PageId::new(p as u32)) == n);
                let mut ns = NodeState::new(n, cfg.nodes, mem);
                ns.prefetcher = Prefetcher::for_config(&cfg.prefetch, tpn);
                ns
            })
            .collect();
        Core {
            cfg,
            heap,
            events_processed: 0,
            nodes,
            page_index: PageIndex::new(),
            sched,
            wire: Wire::new(cfg),
            barriers: Barriers::new(cfg.nodes),
            oracle: cfg.oracle.enabled().then(|| OracleState::new(cfg.nodes)),
            recovery: Recovery::for_plan(cfg.nodes, plan.recovery()),
            tracer: Tracer::new(traced, cfg.nodes as u32, tpn as u32),
        }
    }

    fn tpn(&self) -> usize {
        self.cfg.threads.threads_per_node
    }

    /// The run loop. Every iteration is the same five phases: pop the
    /// earliest event, enforce the run's limits, let the outage layer
    /// park or drop it, handle it, check the oracle's invariants.
    fn run_loop(&mut self) -> Result<SimTime, SimError> {
        let limit = SimTime::ZERO + self.cfg.max_sim_time;
        while !self.sched.all_done() {
            let Some((now, event)) = self.sched.pop() else {
                return Err(SimError::Deadlock(self.describe_blocked()));
            };
            self.events_processed += 1;
            if now > limit {
                return Err(SimError::TimeLimit);
            }
            let Some(event) = self.outage_filter(now, event) else {
                continue;
            };
            self.tracer.begin_event();
            self.handle(event, now)?;
            if let Some(oracle) = &mut self.oracle {
                oracle.check_event(&self.nodes, now);
            }
        }
        Ok(self.sched.finish())
    }

    /// Routes one event to the subsystem that handles it.
    fn handle(&mut self, event: Event, now: SimTime) -> Result<(), SimError> {
        match event {
            Event::Start(tid) => return self.on_start(tid, now),
            Event::SyscallReady(tid) => return self.on_syscall_ready(tid, now),
            Event::Arrival(pkt) => return self.on_arrival(pkt, now),
            Event::RetryTimeout { src, dst, seq } => {
                return self.on_retry_timeout(src, dst, seq, now)
            }
            Event::HeartbeatTick(node) => return self.on_heartbeat_tick(node, now),
            Event::Crash {
                node,
                restart_after,
            } => self.on_crash(node, restart_after, now),
            Event::Resume(node) => self.resume_node(node, now),
            Event::ConfirmFailure(node) => self.on_confirm_failure(node, now),
            Event::PartitionStart(idx) => self.on_partition_start(idx, now),
            Event::PartitionHeal(idx) => self.on_partition_heal(idx, now),
        }
        Ok(())
    }

    /// Closes every node's account at `finish` and takes the engine
    /// apart into what the report is built from.
    fn into_outcome(mut self, finish: SimTime) -> Outcome {
        for node in &mut self.nodes {
            node.account.finish(finish, IdleReason::Sync);
            debug_assert!(
                node.records.values().all(|record| !record.is_empty()),
                "node {} keeps a record that holds nothing",
                node.id
            );
            debug_assert_eq!(
                node.mem.prefetch_outstanding(),
                node.mem.pages.iter().map(|e| e.pf_inflight()).sum::<u32>(),
                "node {}'s prefetch total drifted from its slots",
                node.id
            );
        }
        let (net, transport, fault_injection) = self.wire.summaries();
        Outcome {
            finish,
            nodes: self.nodes,
            net,
            transport,
            fault_injection,
            oracle: self.oracle,
            recovery: self.recovery.map(|r| r.into_stats()).unwrap_or_default(),
            events: self.events_processed,
            trace: self.tracer.finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PrefetchConfig, PrefetchMode};

    fn core<'a>(cfg: &'a DsmConfig, heap: &'a Heap) -> Core<'a> {
        let plan = cfg.validate().expect("a valid config");
        Core::new(&plan, heap, Vec::new(), false, QueueBackend::default())
    }

    /// "Off means absent": the paper's configuration builds no
    /// recovery, failure-detector, persistence, oracle or adaptive
    /// state at all, at any cluster size — in particular none
    /// of the N×N lease tables a recovery-enabled run carries, nor the
    /// oracle's N clocks of N entries.
    #[test]
    fn paper_cluster_core_holds_no_recovery_state() {
        use crate::oracle::OracleConfig;

        let cfg = DsmConfig::paper_cluster(1024);
        let heap = Heap::new(cfg.nodes);
        let paper = core(&cfg, &heap);
        assert!(paper.recovery.is_none());
        assert!(paper.oracle.is_none());
        assert!(paper.nodes.iter().all(|n| n.records.is_empty()));
        let checked = cfg.clone().with_oracle(OracleConfig::full());
        assert!(core(&checked, &heap).oracle.is_some());
        assert!(paper
            .nodes
            .iter()
            .all(|n| matches!(n.prefetcher, Prefetcher::Off)));
        // Nor any of the N×N empty per-origin lists a dense interval
        // index would hold (measured: +9 % peak RSS at this size).
        assert!(paper
            .nodes
            .iter()
            .all(|n| n.interval_log().indexed_keys() == 0));
        // The prefetcher slot holds its mode's state and no other:
        // history only in history runs, the stride engine only in the
        // adaptive ones.
        for pf in [
            PrefetchConfig::off(),
            PrefetchConfig::hand(),
            PrefetchConfig::compiler(),
            PrefetchConfig::automatic(),
            PrefetchConfig::adaptive(),
            PrefetchConfig::adaptive_static(),
        ] {
            let mode = pf.mode;
            let cfg = DsmConfig::paper_cluster(4).with_prefetch(pf);
            let heap = Heap::new(cfg.nodes);
            for node in &core(&cfg, &heap).nodes {
                assert_eq!(
                    matches!(node.prefetcher, Prefetcher::History(_)),
                    mode == PrefetchMode::History,
                    "{mode:?}"
                );
                assert_eq!(
                    node.prefetcher.adaptive().is_some(),
                    mode.is_adaptive(),
                    "{mode:?}"
                );
            }
        }
    }

    /// A read-only run closes no interval, so at any cluster size
    /// every node's interval log and its indexes stay empty, and the
    /// piggyback query answers from nothing. The shape is the scaling
    /// suite's hot spot (`rsdsm_apps::HotSpot`): every node reads pages
    /// homed on node 0. It is restated here because this crate's unit
    /// tests cannot link `rsdsm-apps`, whose programs implement the
    /// `DsmTask` of the non-test build of this crate.
    #[test]
    fn read_only_run_grows_no_interval_state() {
        use crate::heap::{HomePolicy, SharedVec};
        use crate::msg::BarrierId;
        use crate::{DsmTask, TaskCtx};
        use rsdsm_protocol::{VectorClock, PAGE_SIZE};

        const WORDS: usize = PAGE_SIZE / 8;
        struct HotSpot;
        impl DsmTask for HotSpot {
            type Handles = SharedVec<u64>;
            fn name(&self) -> String {
                "hotspot".into()
            }
            fn allocate(&self, heap: &mut Heap) -> Self::Handles {
                heap.alloc(4 * WORDS, HomePolicy::Single(0))
            }
            async fn run(&self, ctx: &mut TaskCtx, v: &Self::Handles) {
                for p in 0..4 {
                    let _ = ctx.read(v, p * WORDS).await;
                }
                ctx.barrier(BarrierId(0)).await;
            }
        }

        let nodes = 256;
        let sim = Simulation::new(DsmConfig::paper_cluster(nodes));
        let (out, ..) = sim.run_engine(&HotSpot, false).expect("hot spot runs");
        let nobody = VectorClock::new(nodes);
        for node in &out.nodes {
            assert!(
                node.mem.pages.iter().all(|p| p.is_valid()),
                "every page was read"
            );
            assert!(node.intervals_unknown_to(&nobody).is_empty());
            assert!(node.interval_log().records().is_empty());
            assert_eq!(node.interval_log().indexed_keys(), 0);
        }
    }

    /// The oracle's per-event check follows what the event moved, not
    /// the size of the cluster's lock state. The shape is WATER-NSQ's
    /// force accumulation (restated for the reason above): 64 blocks,
    /// a lock per block, every thread adding its share to every block
    /// — so every node's lock table grows to 64 entries, and a check
    /// that walked them all after each event would do ~500 entry
    /// visits per event. Instead it sweeps the tokens only after an
    /// event that moved one, and compares a clock only after an event
    /// that wrote it.
    #[test]
    fn oracle_check_follows_what_moved() {
        use crate::heap::{HomePolicy, SharedVec};
        use crate::msg::{BarrierId, LockId};
        use crate::oracle::OracleConfig;
        use crate::{DsmTask, TaskCtx};

        const BLOCKS: usize = 64;
        /// Words between two blocks' sums: eight blocks to a page.
        const STRIDE: usize = 64;
        struct Accumulate;
        impl DsmTask for Accumulate {
            type Handles = SharedVec<u64>;
            fn name(&self) -> String {
                "accumulate".into()
            }
            fn allocate(&self, heap: &mut Heap) -> Self::Handles {
                heap.alloc(BLOCKS * STRIDE, HomePolicy::RoundRobin)
            }
            async fn run(&self, ctx: &mut TaskCtx, sums: &Self::Handles) {
                for i in 0..BLOCKS {
                    // Staggered, as the kernel's half-shell is: each
                    // thread starts at its own block.
                    let block = (ctx.thread_id() * 8 + i) % BLOCKS;
                    ctx.acquire(LockId(block as u32)).await;
                    let sum = ctx.read(sums, block * STRIDE).await;
                    ctx.write(sums, block * STRIDE, sum + 1).await;
                    ctx.release(LockId(block as u32)).await;
                }
                ctx.barrier(BarrierId(0)).await;
            }
            fn verify(&self, mem: &VerifyCtx, sums: &Self::Handles) -> bool {
                (0..BLOCKS).all(|b| mem.read(sums, b * STRIDE) == 8)
            }
        }

        let cfg = DsmConfig::paper_cluster(8).with_oracle(OracleConfig::full());
        let sim = Simulation::new(cfg);
        let (out, ..) = sim.run_engine(&Accumulate, false).expect("accumulate runs");
        let oracle = out.oracle.expect("oracle on");
        assert_eq!(oracle.violations, []);
        let token_moves: u64 = out.nodes.iter().map(|n| n.locks.token_moves()).sum();
        let clock_writes: u64 = out.nodes.iter().map(|n| n.clock_version()).sum();
        // Every token left seven nodes and arrived at seven.
        assert!(token_moves >= 2 * 7 * BLOCKS as u64);
        assert!(oracle.token_sweeps <= token_moves);
        assert!(oracle.token_sweeps * 4 < out.events);
        // Ticks plus joins: no event of this program writes one clock
        // twice, so each write is one compare.
        assert_eq!(oracle.clock_compares, clock_writes);
    }

    /// Pages cost nothing until touched: every node holds a slot for
    /// every page of the heap, but a fresh 1024-node engine over a
    /// 64-page heap owns no page buffer at all, and after the incast
    /// run (`rsdsm_apps::Incast`, restated here for the reason above,
    /// plus one write so that something does materialize) only slots
    /// that became valid somewhere along the way can own one.
    #[test]
    fn page_buffers_follow_what_a_node_touches() {
        use crate::heap::{HomePolicy, SharedVec};
        use crate::msg::BarrierId;
        use crate::{DsmTask, TaskCtx};
        use rsdsm_protocol::PAGE_SIZE;

        const WORDS: usize = PAGE_SIZE / 8;
        const PAGES: usize = 64;
        struct Incast;
        impl DsmTask for Incast {
            type Handles = SharedVec<u64>;
            fn name(&self) -> String {
                "incast".into()
            }
            fn allocate(&self, heap: &mut Heap) -> Self::Handles {
                heap.alloc(PAGES * WORDS, HomePolicy::RoundRobin)
            }
            async fn run(&self, ctx: &mut TaskCtx, v: &Self::Handles) {
                if ctx.node() == 0 {
                    ctx.prefetch(v, 0, v.len()).await;
                    for p in 0..PAGES {
                        let _ = ctx.read(v, p * WORDS).await;
                    }
                    ctx.write(v, WORDS, 7).await;
                }
                ctx.barrier(BarrierId(0)).await;
            }
        }
        let materialized = |nodes: &[NodeState]| -> usize {
            nodes
                .iter()
                .flat_map(|n| &n.mem.pages)
                .filter(|e| e.data.is_materialized())
                .count()
        };

        let nodes = 1024;
        let cfg = DsmConfig::paper_cluster(nodes).with_prefetch(PrefetchConfig::hand());
        let mut heap = Heap::new(nodes);
        DsmTask::allocate(&Incast, &mut heap);
        let fresh = core(&cfg, &heap);
        assert_eq!(fresh.nodes.len() * fresh.nodes[0].mem.pages.len(), 65_536);
        // A slot is 32 bytes however much the node knows about the
        // page, and the memory that changes hands twice per syscall
        // carries no hash table.
        #[cfg(target_pointer_width = "64")]
        {
            use crate::node::{NodeMem, PageEntry};
            assert_eq!(std::mem::size_of::<PageEntry>(), 32);
            assert!(std::mem::size_of::<NodeMem>() < 256);
        }
        assert_eq!(materialized(&fresh.nodes), 0);
        drop(fresh);

        let sim = Simulation::new(cfg);
        let (out, ..) = sim.run_engine(&Incast, false).expect("incast runs");
        let slots = || out.nodes.iter().flat_map(|n| &n.mem.pages);
        assert!(out.nodes[0].mem.pages.iter().all(|e| e.is_valid()));
        assert_eq!(slots().filter(|e| e.has_copy()).count(), 2 * PAGES - 1);
        assert!(slots().all(|e| e.has_copy() || !e.data.is_materialized()));
        // Node 0's written copy; every page it merely read arrived as
        // its home's unmaterialized copy and stayed that way.
        assert_eq!(materialized(&out.nodes), 1);
        assert_eq!(out.nodes[0].mem.pages[1].data.read_u64(0), 7);
    }

    /// The engine persists a node's live state through the encoder a
    /// `Checkpoint` value runs: after a crash-free durable run, both
    /// slots of every node classify `Committed`, re-encoding each
    /// restored checkpoint reproduces the bytes on its device, and the
    /// restore source the engine keeps for each slot has that image's
    /// epoch and read time. The program is restated here for the
    /// reason above.
    #[test]
    fn persisted_images_are_the_checkpoints_they_restore() {
        use crate::checkpoint::{
            classify_slot, commit_region, payload_region, CommitRecord, DiffRecord, SlotState,
            COMMIT_LEN,
        };
        use crate::heap::{HomePolicy, SharedVec};
        use crate::msg::BarrierId;
        use crate::recovery::RecoveryConfig;
        use crate::{DsmTask, TaskCtx};
        use rsdsm_protocol::PAGE_SIZE;
        use rsdsm_simnet::PersistConfig;

        const WORDS: usize = PAGE_SIZE / 8;
        const NODES: usize = 4;
        /// Six barrier phases; in each, every thread reads its
        /// neighbour's page and writes one word of a page that moves
        /// round the heap.
        struct Phases;
        impl DsmTask for Phases {
            type Handles = SharedVec<u64>;
            fn name(&self) -> String {
                "phases".into()
            }
            fn allocate(&self, heap: &mut Heap) -> Self::Handles {
                heap.alloc(2 * NODES * WORDS, HomePolicy::RoundRobin)
            }
            async fn run(&self, ctx: &mut TaskCtx, v: &Self::Handles) {
                let me = ctx.thread_id();
                for phase in 0..6 {
                    let _ = ctx.read(v, (me + 1) % NODES * WORDS).await;
                    let page = (me + phase) % (2 * NODES);
                    ctx.write(v, page * WORDS + me, phase as u64 + 1).await;
                    ctx.barrier(BarrierId(0)).await;
                }
            }
        }

        let device = PersistConfig::on();
        let cfg = DsmConfig::paper_cluster(NODES).with_recovery(RecoveryConfig {
            persist: device,
            ..RecoveryConfig::on(2)
        });
        let mut heap = Heap::new(NODES);
        let handles = DsmTask::allocate(&Phases, &mut heap);
        let tpn = cfg.threads.threads_per_node;
        let plan = cfg.validate().expect("a valid config");
        let devices = lockstep(
            &Phases,
            &handles,
            &cfg.costs,
            &cfg.prefetch,
            cfg.total_threads(),
            |t| t / tpn,
            |links| {
                let mut core = Core::new(&plan, &heap, links, false, QueueBackend::default());
                let finish = core.run_loop().expect("the run completes");
                let mut devices = core.persisted();
                for (dev, _) in &mut devices {
                    dev.settle(finish);
                }
                devices
            },
        );
        let (mut diffs, mut intervals) = (0, 0);
        for (node, (dev, slots)) in devices.iter().enumerate() {
            for (slot, kept) in slots.iter().enumerate() {
                let (payload, commit) = (
                    dev.read(payload_region(slot)),
                    dev.read(commit_region(slot)),
                );
                let SlotState::Committed { ckpt, .. } = classify_slot(payload, commit) else {
                    panic!("node {node} slot {slot} is not committed");
                };
                assert_eq!(ckpt.node as usize, node);
                let len = CommitRecord::decode(commit)
                    .expect("a committed slot's record decodes")
                    .payload_len as usize;
                // The restore source the engine keeps for the slot is
                // the one on the device: a crash restores from it
                // without decoding the commit record again.
                assert_eq!(
                    *kept,
                    (ckpt.epoch, device.read_time(len + COMMIT_LEN)),
                    "node {node} slot {slot}"
                );
                assert_eq!(
                    ckpt.encode_segmented(),
                    &payload[..len],
                    "node {node} slot {slot}"
                );
                // The node keeps its diffs in a hash map; the image
                // lists them in (page, seq) order, so equal state is
                // equal bytes.
                let order = |d: &DiffRecord| (d.page, d.seq);
                assert!(ckpt.diffs.windows(2).all(|w| order(&w[0]) < order(&w[1])));
                diffs = diffs.max(ckpt.diffs.len());
                intervals += ckpt.intervals.len();
            }
        }
        assert!(diffs > 1 && intervals > 0, "the images hold protocol state");
    }

    /// A node's notice board tracks only the pages it has a stake in:
    /// every other notice waits in its interval log. The shape is
    /// SOR's (restated for the reason above): the grid is homed on
    /// node 0, which writes it all; each node then relaxes its band of
    /// rows, reading its neighbours' halo rows, under O and under hand
    /// prefetching. After the run no node tracks a page it never
    /// homed, faulted or prefetched, and notices did arrive for pages
    /// no board tracks.
    #[test]
    fn boards_track_only_the_pages_a_node_uses() {
        use crate::heap::{HomePolicy, SharedVec};
        use crate::msg::BarrierId;
        use crate::trace::TraceEvent;
        use crate::{DsmTask, TaskCtx};
        use rsdsm_protocol::PAGE_SIZE;
        use std::collections::HashSet;

        const WORDS: usize = PAGE_SIZE / 8;
        const NODES: usize = 8;
        /// One page a row; two interior rows a node.
        const ROWS: usize = 2 * NODES + 2;
        struct Sor;
        impl DsmTask for Sor {
            type Handles = SharedVec<u64>;
            fn name(&self) -> String {
                "sor".into()
            }
            fn allocate(&self, heap: &mut Heap) -> Self::Handles {
                heap.alloc(ROWS * WORDS, HomePolicy::Single(0))
            }
            async fn run(&self, ctx: &mut TaskCtx, grid: &Self::Handles) {
                let me = ctx.thread_id();
                if me == 0 {
                    for row in 0..ROWS {
                        ctx.write(grid, row * WORDS, row as u64).await;
                    }
                }
                ctx.barrier(BarrierId(0)).await;
                let (first, last) = (1 + 2 * me, 2 + 2 * me);
                for sweep in 0..4u64 {
                    ctx.prefetch(grid, (first - 1) * WORDS, first * WORDS).await;
                    ctx.prefetch(grid, (last + 1) * WORDS, (last + 2) * WORDS)
                        .await;
                    for row in first..=last {
                        let above = ctx.read(grid, (row - 1) * WORDS).await;
                        let below = ctx.read(grid, (row + 1) * WORDS).await;
                        let value = above.wrapping_add(below).wrapping_add(sweep);
                        ctx.write(grid, row * WORDS, value).await;
                    }
                    ctx.barrier(BarrierId(0)).await;
                }
            }
        }

        for cfg in [
            DsmConfig::paper_cluster(NODES),
            DsmConfig::paper_cluster(NODES).with_prefetch(PrefetchConfig::hand()),
        ] {
            let sim = Simulation::new(cfg);
            let (out, heap, _) = sim.run_engine(&Sor, true).expect("sor runs");
            let mut used: HashSet<(usize, u32)> = HashSet::new();
            let mut noticed: HashSet<(usize, u32)> = HashSet::new();
            for rec in &out.trace.records {
                let node = rec.node as usize;
                match rec.event {
                    TraceEvent::FaultBegin { page, .. } | TraceEvent::PrefetchIssue { page } => {
                        used.insert((node, page));
                    }
                    TraceEvent::WriteNotice { page, .. } => {
                        noticed.insert((node, page));
                    }
                    _ => {}
                }
            }
            let tracks = |node: usize, page: u32| out.nodes[node].board.tracks(PageId::new(page));
            for node in 0..NODES {
                for page in 0..heap.page_count() as u32 {
                    let homed = heap.home(PageId::new(page)) == node;
                    assert!(
                        !tracks(node, page) || homed || used.contains(&(node, page)),
                        "node {node} tracks page {page} it never used"
                    );
                }
            }
            let untracked = noticed.iter().filter(|&&(n, p)| !tracks(n, p)).count();
            assert!(untracked > 0, "every noticed page was tracked");
        }
    }
}
