//! The SPMD program every rank runs: a closed loop of collective rounds,
//! each output checked against the root's seeded payload.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use mmpi_core::{BarrierAlgorithm, BcastAlgorithm, Communicator};
use mmpi_netsim::rng::SplitMix64;
use mmpi_wire::RepairStats;

use crate::host::{self, KernelNet, Usage};
use crate::traced::{wall_ns, CallStats, Probe, Traced};

/// One collective of a round.
#[derive(Clone, Copy, Debug)]
pub enum Coll {
    Bcast(BcastAlgorithm, usize),
    Barrier(BarrierAlgorithm),
}

impl Coll {
    /// The algorithm's name in the per-layer metric names.
    pub fn algo(self) -> &'static str {
        match self {
            Coll::Bcast(BcastAlgorithm::McastBinary, _) => "bcast_mcast",
            Coll::Bcast(BcastAlgorithm::MpichBinomial, _) => "bcast_mpich",
            Coll::Bcast(BcastAlgorithm::Gossip, _) => "bcast_gossip",
            Coll::Barrier(BarrierAlgorithm::McastBinary) => "barrier_mcast",
            Coll::Barrier(BarrierAlgorithm::Mpich) => "barrier_mpich",
            other => panic!("no metric name for {other:?}"),
        }
    }

    /// Application payload bytes this collective moves from the root.
    pub fn payload_bytes(self) -> usize {
        match self {
            Coll::Bcast(_, bytes) => bytes,
            Coll::Barrier(_) => 0,
        }
    }
}

/// The algorithms the per-layer metrics name, in report order.
pub const ALGOS: [&str; 5] = [
    "bcast_mcast",
    "bcast_mpich",
    "bcast_gossip",
    "barrier_mcast",
    "barrier_mpich",
];

/// Process-wide counters at one instant.
#[derive(Clone, Copy, Debug)]
pub struct Snap {
    pub at: Instant,
    pub usage: Usage,
    pub allocs: u64,
    pub net: Option<KernelNet>,
}

impl Snap {
    fn take() -> Snap {
        #[allow(clippy::disallowed_methods)] // bench harness: wall time is the measurement
        let at = Instant::now();
        Snap {
            at,
            usage: host::process_usage(),
            allocs: host::allocs(),
            net: KernelNet::read(),
        }
    }
}

/// Marks the timed phase of one world: the first rank to finish its
/// warm-up opens it, the last rank to finish its last round closes it.
pub struct PhaseClock {
    n: usize,
    state: Mutex<(usize, usize, Option<Snap>, Option<Snap>)>,
}

impl PhaseClock {
    pub fn new(n: usize) -> Self {
        PhaseClock {
            n,
            state: Mutex::new((0, 0, None, None)),
        }
    }

    fn enter(&self) {
        let mut s = self.state.lock().expect("phase clock poisoned");
        if s.0 == 0 {
            s.2 = Some(Snap::take());
        }
        s.0 += 1;
    }

    fn exit(&self) {
        let mut s = self.state.lock().expect("phase clock poisoned");
        s.1 += 1;
        if s.1 == self.n {
            s.3 = Some(Snap::take());
        }
    }

    /// The snapshots at the opening and the close of the timed phase.
    pub fn bounds(&self) -> (Option<Snap>, Option<Snap>) {
        let s = self.state.lock().expect("phase clock poisoned");
        (s.2, s.3)
    }
}

/// What one world asks of its ranks.
pub struct Plan<'a> {
    pub program: &'a [Coll],
    pub warmup: usize,
    /// Timed rounds; 0 for a world that only sets up and warms up.
    pub rounds: usize,
    /// Upper bound of the seeded per-round entry skew (virtual time).
    pub skew: Duration,
    pub seed: u64,
    /// `payloads[k][v]`: variant `v` of the root's buffer for collective
    /// `k` (empty for barriers); round `r` uses variant `r % len`.
    pub payloads: &'a [Vec<Vec<u8>>],
    pub traced: bool,
    pub clock: &'a PhaseClock,
}

/// One rank's span around one timed collective call.
#[derive(Clone, Debug)]
pub struct Span {
    pub rank: u32,
    pub round: u32,
    pub coll: u8,
    /// Wall start, nanoseconds since [`wall_ns`]'s base.
    pub start_ns: u64,
    pub wall_ns: u64,
    /// Wall time inside the transport, the span's children.
    pub child: CallStats,
}

/// What a rank hands back.
#[derive(Default)]
pub struct RankOut {
    /// Backend-clock entry and exit per timed collective, round-major.
    pub entry: Vec<u64>,
    pub exit: Vec<u64>,
    pub attempted: u64,
    /// Collectives that returned an error.
    pub errors: u64,
    /// Broadcast outputs that differ from the root's payload.
    pub mismatches: u64,
    /// This thread's own CPU over the timed phase.
    pub cpu: Usage,
    /// Repair counters over the timed phase.
    pub repair: RepairStats,
    /// Transport calls over the timed phase (traced worlds only).
    pub calls: CallStats,
    pub spans: Vec<Span>,
}

/// Run the plan on one rank's transport.
pub fn rank_main<C: Probe>(comm: C, plan: &Plan) -> RankOut {
    if plan.traced {
        run(Communicator::new(Traced::new(comm)), plan)
    } else {
        run(Communicator::new(comm), plan)
    }
}

fn run<C: Probe>(mut comm: Communicator<C>, plan: &Plan) -> RankOut {
    let rank = comm.rank();
    let mut out = RankOut::default();
    let mut skew =
        SplitMix64::new(plan.seed ^ (rank as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut cpu0 = Usage::default();
    let mut repair0 = RepairStats::default();
    let mut calls0 = CallStats::default();
    for round in 0..plan.warmup + plan.rounds {
        let timed = round >= plan.warmup;
        if round == plan.warmup {
            plan.clock.enter();
            cpu0 = host::thread_usage();
            repair0 = comm.transport().repair();
            calls0 = comm.transport().calls().cloned().unwrap_or_default();
        }
        let max = plan.skew.as_nanos() as u64;
        if max > 0 {
            let d = skew.next_below(max + 1);
            comm.transport_mut().compute(Duration::from_nanos(d));
        }
        for (k, &coll) in plan.program.iter().enumerate() {
            let expect = match coll {
                Coll::Bcast(..) => {
                    let variants = &plan.payloads[k];
                    Some(&variants[round % variants.len()])
                }
                Coll::Barrier(_) => None,
            };
            let mut buf = match expect {
                Some(p) if rank == 0 => p.clone(),
                _ => vec![0u8; coll.payload_bytes()],
            };
            let start_ns = wall_ns();
            let before = comm.transport().calls().cloned();
            let entry = comm.transport().clock_ns();
            let res = match coll {
                Coll::Bcast(algo, _) => comm.bcast_with(algo, 0, &mut buf),
                Coll::Barrier(algo) => comm.barrier_with(algo),
            };
            let exit = comm.transport().clock_ns();
            let end_ns = wall_ns();
            let ok = res.is_ok();
            if ok && expect.is_some_and(|p| buf != *p) {
                out.mismatches += 1;
            }
            out.attempted += 1;
            out.errors += u64::from(!ok);
            if !timed {
                continue;
            }
            out.entry.push(entry);
            out.exit.push(exit);
            if let (Some(before), Some(after)) = (before, comm.transport().calls()) {
                out.spans.push(Span {
                    rank: rank as u32,
                    round: (round - plan.warmup) as u32,
                    coll: k as u8,
                    start_ns,
                    wall_ns: end_ns - start_ns,
                    child: after.since(&before),
                });
            }
        }
    }
    if plan.rounds == 0 {
        // A base world: set-up and warm-up only.
        plan.clock.enter();
        return out;
    }
    out.cpu = host::thread_usage().since(&cpu0);
    out.repair = repair_since(&comm.transport().repair(), &repair0);
    if let Some(calls) = comm.transport().calls() {
        out.calls = calls.since(&calls0);
    }
    plan.clock.exit();
    out
}

/// `now - then` for the counters the report reads (the rest are
/// high-water marks or unused).
fn repair_since(now: &RepairStats, then: &RepairStats) -> RepairStats {
    RepairStats {
        nacks_sent: now.nacks_sent - then.nacks_sent,
        nacks_suppressed: now.nacks_suppressed - then.nacks_suppressed,
        retransmits_sent: now.retransmits_sent - then.retransmits_sent,
        unanswered_nacks: now.unanswered_nacks - then.unanswered_nacks,
        send_window_stalls: now.send_window_stalls - then.send_window_stalls,
        advrs_sent: now.advrs_sent - then.advrs_sent,
        wants_sent: now.wants_sent - then.wants_sent,
        pulls_answered: now.pulls_answered - then.pulls_answered,
        ..RepairStats::default()
    }
}
