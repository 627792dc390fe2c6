//! Deterministic co-simulation driver.
//!
//! [`run_cluster`] spawns one OS thread per MPI rank, each executing the
//! user's SPMD closure against a [`SimProcess`] handle, and interleaves
//! them with the discrete-event [`World`] so that the whole ensemble
//! executes in *virtual* time:
//!
//! 1. ranks run native code and queue their calls (send, compute, joins,
//!    ...) in a per-rank outbox, charging the LogP software overhead to
//!    their own local clocks; a rank parks only on a call that needs an
//!    answer (receive, bind), on a full outbox, or on exit;
//! 2. the driver takes **one** request from every running rank per pass,
//!    in rank order — waiting only on a rank whose outbox is empty — and
//!    applies them in rank order: a send enters the world at the rank's
//!    local time, a receive completes at once from a buffered datagram or
//!    is posted and blocks its rank;
//! 3. once every rank is blocked in a receive, the driver advances
//!    network events until one completes a receive, wakes exactly that
//!    rank, and goes back to 1.
//!
//! A rank's request sequence does not depend on *when* its queued
//! requests are applied (their only answer was the local time, which the
//! rank computes itself), so every world call happens in the same order
//! at the same virtual time as with a blocking handoff per request.
//!
//! Because ranks only interact through the driver and ties are broken by
//! rank id and event sequence number, a run is a pure function of
//! `(closure, config, seed)` — the property the figure harness relies on.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::error::SimError;
use crate::ids::{HostId, SocketId};
use crate::params::NetParams;
use crate::process::{ProcShared, Request, Response, SimProcess};
use crate::rng::SplitMix64;
use crate::stats::NetStats;
use crate::time::{SimDuration, SimTime};
use crate::world::{Completion, RunMode, StepOutcome, World};

/// Configuration for one simulated cluster run.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of ranks (== simulated hosts).
    pub n: usize,
    /// Network and host model parameters.
    pub params: NetParams,
    /// Seed for every random stream in the run (backoff, skew).
    pub seed: u64,
    /// Each rank starts at a uniform random offset in `[0, start_skew_max]`
    /// — models the OS scheduling skew responsible for the scatter in the
    /// paper's plots. Zero disables skew.
    pub start_skew_max: SimDuration,
    /// Deliver multicast datagrams back to the sending socket
    /// (IP_MULTICAST_LOOP). The paper's collectives do not rely on it.
    pub multicast_loopback: bool,
    /// Abort if virtual time passes this limit (livelock guard).
    pub time_limit: SimDuration,
    /// Which engine advances the world. `None` (the default) consults the
    /// `MMPI_SIM_WORKERS` environment variable: unset or `0` selects
    /// [`RunMode::EventLoop`], `w >= 1` selects [`RunMode::Frames`] with
    /// `w` workers. `Some(mode)` pins the engine regardless of the
    /// environment (tests asserting exact event-loop counters do this).
    pub run_mode: Option<RunMode>,
}

impl ClusterConfig {
    /// A cluster of `n` ranks with the given network parameters and seed,
    /// no start skew, loopback off, 60 s virtual time limit.
    pub fn new(n: usize, params: NetParams, seed: u64) -> Self {
        ClusterConfig {
            n,
            params,
            seed,
            start_skew_max: SimDuration::ZERO,
            multicast_loopback: false,
            time_limit: SimDuration::from_secs(60),
            run_mode: None,
        }
    }

    /// Builder-style: set the start skew.
    pub fn with_start_skew(mut self, max: SimDuration) -> Self {
        self.start_skew_max = max;
        self
    }

    /// Builder-style: set the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style: pin the execution engine (see
    /// [`ClusterConfig::run_mode`]).
    pub fn with_run_mode(mut self, mode: RunMode) -> Self {
        self.run_mode = Some(mode);
        self
    }

    /// The engine this config resolves to: the pinned mode if set, else
    /// the `MMPI_SIM_WORKERS` environment variable (unset, unparsable, or
    /// `0` → the event-loop engine).
    pub fn resolved_run_mode(&self) -> RunMode {
        if let Some(mode) = self.run_mode {
            return mode;
        }
        match std::env::var("MMPI_SIM_WORKERS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
        {
            Some(workers) if workers >= 1 => RunMode::Frames { workers },
            _ => RunMode::EventLoop,
        }
    }
}

/// Result of a successful cluster run.
#[derive(Debug)]
pub struct RunReport<R> {
    /// Per-rank local time at which the rank's closure returned.
    pub completion_times: Vec<SimTime>,
    /// The latest completion — the paper's metric ("the longest completion
    /// time of the collective operation among all processes").
    pub makespan: SimTime,
    /// Network statistics for the whole run.
    pub stats: NetStats,
    /// Per-rank return values of the SPMD closure.
    pub outputs: Vec<R>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum RankStatus {
    Running,
    BlockedRecv {
        socket: SocketId,
        timer: Option<u64>,
    },
    Done,
}

/// Run `f` as an SPMD program on a simulated cluster.
///
/// `f` is invoked once per rank on its own thread with a [`SimProcess`]
/// handle; its return values are collected into the report. Deterministic
/// for a fixed `(f, config)`.
pub fn run_cluster<F, R>(config: &ClusterConfig, f: F) -> Result<RunReport<R>, SimError>
where
    F: Fn(SimProcess) -> R + Sync,
    R: Send,
{
    assert!(config.n > 0, "cluster needs at least one rank");
    let mut world = World::with_mode(
        config.n,
        config.params.clone(),
        config.seed,
        config.resolved_run_mode(),
    );
    let mut rng = SplitMix64::new(config.seed ^ 0x5EED_5EED_5EED_5EED);
    let skews: Vec<SimTime> = (0..config.n)
        .map(|_| {
            let max = config.start_skew_max.as_nanos();
            SimTime::from_nanos(if max == 0 { 0 } else { rng.next_below(max + 1) })
        })
        .collect();

    let shareds: Vec<Arc<ProcShared>> = (0..config.n).map(|_| Arc::default()).collect();
    let outputs: Mutex<Vec<Option<R>>> = Mutex::new((0..config.n).map(|_| None).collect());

    let result: Result<(Vec<SimTime>, NetStats), SimError> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(config.n);
        for rank in 0..config.n {
            let shared = Arc::clone(&shareds[rank]);
            let start = skews[rank];
            let f = &f;
            let outputs = &outputs;
            let host = &config.params.host;
            handles.push(scope.spawn(move || {
                // Tell the driver about this rank's exit, also when it
                // unwinds (the guard fires during unwinding).
                struct FinishGuard(Arc<ProcShared>);
                impl Drop for FinishGuard {
                    fn drop(&mut self) {
                        self.0.finish(std::thread::panicking());
                    }
                }
                let _guard = FinishGuard(Arc::clone(&shared));
                let proc = SimProcess::new(shared, host.clone(), rank, start);
                let out = f(proc);
                outputs.lock()[rank] = Some(out);
            }));
        }
        let r = drive(config, &mut world, &shareds, skews);
        // Join every rank thread; panics were already converted into
        // driver-level errors (or are the expected abort unwinds).
        for h in handles {
            let _ = h.join();
        }
        r
    });

    let (completion_times, stats) = result?;
    let makespan = completion_times
        .iter()
        .copied()
        .fold(SimTime::ZERO, SimTime::max);
    let outputs: Vec<R> = outputs
        .into_inner()
        .into_iter()
        .map(|o| o.expect("every rank finished normally"))
        .collect();
    Ok(RunReport {
        completion_times,
        makespan,
        stats,
        outputs,
    })
}

/// Take rank `shared`'s next request, waiting while its outbox is empty.
/// `Err(panicked)` once the rank has finished and its outbox is drained.
fn next_request(shared: &ProcShared) -> Result<Request, bool> {
    let mut mb = shared.mailbox.lock();
    loop {
        if let Some(req) = mb.queue.pop_front() {
            if mb.rank_wants_space {
                mb.rank_wants_space = false;
                shared.to_proc.notify_one();
            }
            return Ok(req);
        }
        if let Some(panicked) = mb.finished {
            return Err(panicked);
        }
        mb.driver_waiting = true;
        shared.to_driver.wait(&mut mb);
    }
}

/// Answer rank `shared`'s blocking request; `at` is its new local time.
fn answer(shared: &ProcShared, resp: Response, at: SimTime) {
    shared.mailbox.lock().reply = Some((resp, at));
    shared.to_proc.notify_one();
}

#[allow(clippy::too_many_lines)]
fn drive(
    config: &ClusterConfig,
    world: &mut World,
    shareds: &[Arc<ProcShared>],
    skews: Vec<SimTime>,
) -> Result<(Vec<SimTime>, NetStats), SimError> {
    let n = config.n;
    let hp = &config.params.host;
    let mut status = vec![RankStatus::Running; n];
    let mut local = skews;
    let mut next_token: u64 = 0;
    let mut pending: Vec<Option<Request>> = (0..n).map(|_| None).collect();
    let time_limit = SimTime::ZERO + config.time_limit;

    let abort = loop {
        // Phase 1: take one request (or exit notice) from every running
        // rank, in rank order.
        let mut panicked_rank = None;
        for i in 0..n {
            if status[i] != RankStatus::Running || pending[i].is_some() {
                continue;
            }
            match next_request(&shareds[i]) {
                Ok(req) => pending[i] = Some(req),
                Err(panicked) => {
                    if panicked {
                        panicked_rank = Some(i);
                    }
                    status[i] = RankStatus::Done;
                }
            }
        }
        if let Some(rank) = panicked_rank {
            break Some(SimError::RankPanicked {
                rank,
                message: "rank closure panicked (see stderr)".into(),
            });
        }

        // Phase 2: apply the requests in rank order. The charges mirror
        // the ones the rank already applied to its own clock.
        for i in 0..n {
            let Some(req) = pending[i].take() else {
                continue;
            };
            let host = HostId(i as u32);
            match req {
                Request::Bind { port, at } => {
                    debug_assert_eq!(at, local[i], "rank {i} clock diverged from the driver's");
                    let sid = world.bind(host, port);
                    answer(&shareds[i], Response::Socket(sid), local[i]);
                }
                Request::JoinQuiet { socket, group } => {
                    world.join_group_quiet(host, socket, group);
                }
                Request::LeaveQuiet { socket, group } => {
                    world.leave_group_quiet(host, socket, group);
                }
                Request::JoinIgmp { socket, group } => {
                    local[i] += hp.o_send;
                    world.join_group_igmp(host, socket, group, local[i]);
                }
                Request::Compute { dur } => local[i] += dur,
                Request::Send {
                    socket,
                    dst,
                    dst_port,
                    payload,
                    kernel,
                } => {
                    local[i] += hp.send_cost(payload.len(), kernel);
                    let src_port = world.host(host).socket(socket).port;
                    world.send_datagram(
                        host,
                        src_port,
                        dst,
                        dst_port,
                        payload,
                        local[i],
                        config.multicast_loopback,
                        kernel,
                    );
                }
                Request::Recv {
                    socket,
                    timeout,
                    at,
                } => {
                    debug_assert_eq!(at, local[i], "rank {i} clock diverged from the driver's");
                    // Ranks only run while the world is paused, so any
                    // buffered datagram arrived at or before the rank's
                    // local time — it can complete the receive directly.
                    if let Some((_arrived, dg)) = world.try_pop_buffered(host, socket) {
                        local[i] += hp.recv_cost(dg.payload.len());
                        answer(&shareds[i], Response::Datagram(Some(dg)), local[i]);
                    } else {
                        // The receive becomes *posted* at the rank's local
                        // time, not at the (earlier) world time — crucial
                        // for the strict posted-receive loss model.
                        world.schedule_post_recv(host, socket, local[i]);
                        let timer = timeout.map(|t| {
                            let token = next_token;
                            next_token += 1;
                            world.schedule_timer(host, Some(socket), token, local[i] + t);
                            token
                        });
                        status[i] = RankStatus::BlockedRecv { socket, timer };
                    }
                }
            }
        }
        if status.contains(&RankStatus::Running) {
            continue;
        }
        if status.iter().all(|s| *s == RankStatus::Done) {
            break None;
        }

        // Phase 3: everyone alive is blocked; advance the network.
        match world.run_until_completion() {
            StepOutcome::Quiescent => {
                let detail: Vec<String> = status
                    .iter()
                    .enumerate()
                    .filter_map(|(i, s)| match s {
                        RankStatus::BlockedRecv { socket, .. } => {
                            Some(format!("rank {i} blocked in recv on socket {}", socket.0))
                        }
                        _ => None,
                    })
                    .collect();
                break Some(SimError::Deadlock {
                    at: world.now(),
                    detail: detail.join("; "),
                });
            }
            StepOutcome::Advanced { now, completions } => {
                if now > time_limit {
                    break Some(SimError::TimeLimitExceeded { limit: time_limit });
                }
                for c in completions {
                    match c {
                        Completion::RecvReady { host, socket, at } => {
                            let i = host.index();
                            let RankStatus::BlockedRecv { socket: s, timer } = status[i] else {
                                // Spurious: the rank is no longer blocked
                                // (cannot happen — deliveries only complete
                                // posted receives). Ignore defensively.
                                continue;
                            };
                            debug_assert_eq!(s, socket);
                            if let Some(tok) = timer {
                                world.cancel_timer(host, tok);
                            }
                            let (_arrived, dg) = world
                                .take_recv(host, socket)
                                .expect("completion implies a buffered datagram");
                            // Use the completion's event time, not `now`:
                            // under the frame engine the world clock is
                            // already at the frame boundary.
                            local[i] = local[i].max(at) + hp.recv_cost(dg.payload.len());
                            status[i] = RankStatus::Running;
                            answer(&shareds[i], Response::Datagram(Some(dg)), local[i]);
                        }
                        Completion::TimerFired {
                            host,
                            socket,
                            token,
                            at,
                        } => {
                            let i = host.index();
                            match status[i] {
                                RankStatus::BlockedRecv {
                                    socket: s,
                                    timer: Some(tok),
                                } if tok == token => {
                                    debug_assert_eq!(Some(s), socket);
                                    world.cancel_recv(host, s);
                                    local[i] = local[i].max(at);
                                    status[i] = RankStatus::Running;
                                    answer(&shareds[i], Response::Datagram(None), local[i]);
                                }
                                _ => {
                                    // Stale timer for an already-completed
                                    // receive; lazily cancelled.
                                }
                            }
                        }
                    }
                }
            }
        }
    };

    match abort {
        None => {
            // Let in-flight traffic settle so drop/delivery counters are
            // complete (e.g. datagrams still crossing the switch when the
            // last rank exited).
            while !matches!(world.step(), StepOutcome::Quiescent) {}
            Ok((local, world.stats().clone()))
        }
        Some(err) => {
            // Tear down: drop every unapplied request and post `Aborted`
            // to each rank that has not exited. A parked rank wakes on
            // it, a running one meets it at its next call; either way its
            // handle panics, which the finish guard reports.
            for shared in shareds {
                let mut mb = shared.mailbox.lock();
                mb.queue.clear();
                if mb.finished.is_some() {
                    continue;
                }
                mb.reply = Some((Response::Aborted, SimTime::ZERO));
                shared.to_proc.notify_one();
                while mb.finished.is_none() {
                    mb.driver_waiting = true;
                    shared.to_driver.wait(&mut mb);
                }
            }
            Err(err)
        }
    }
}
