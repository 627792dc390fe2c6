//! The API a simulated MPI process programs against.
//!
//! Each rank runs on its own OS thread and talks to the simulation driver
//! through a per-rank outbox. Calls that need no answer — sends, compute,
//! group joins and leaves — charge their LogP cost to the rank's own local
//! clock with the same [`HostParams`] formulas the driver applies, queue a
//! request, and return at once. Only the calls that need an answer
//! ([`SimProcess::bind`], [`SimProcess::recv`],
//! [`SimProcess::recv_timeout`]) park the rank until the driver posts an
//! answer stamped with its new local time. A rank also parks while
//! its outbox holds [`OUTBOX_CAP`] unapplied requests, so a rank running
//! ahead of the driver cannot grow memory. The driver applies the queued
//! requests in exactly the order and at exactly the virtual times a
//! blocking handoff would (see `docs/SIMULATOR.md`, "Rank↔driver
//! handoff"). The same collective-operation code therefore runs
//! unmodified here and on a real UDP transport — only the handle differs.

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::frame::{Datagram, SharedPayload};
use crate::ids::{DatagramDst, GroupId, SocketId, UdpPort};
use crate::params::HostParams;
use crate::time::{SimDuration, SimTime};

/// How many unapplied requests a rank may queue before it parks until
/// the driver catches up. Bounds both rank run-ahead and the payload
/// handles a queue can pin.
pub const OUTBOX_CAP: usize = 16;

/// What a rank asks the driver to do.
#[derive(Debug)]
pub(crate) enum Request {
    /// Bind a UDP socket (free: setup-time configuration). Blocking: the
    /// answer is the socket id.
    Bind {
        /// Local port to bind.
        port: UdpPort,
        /// The rank's local time when it posted (checked against the
        /// driver's copy).
        at: SimTime,
    },
    /// Join a multicast group without IGMP traffic (setup-time).
    JoinQuiet {
        /// Socket joining.
        socket: SocketId,
        /// Group to join.
        group: GroupId,
    },
    /// Leave a multicast group (setup-time).
    LeaveQuiet {
        /// Socket leaving.
        socket: SocketId,
        /// Group to leave.
        group: GroupId,
    },
    /// Join a multicast group with an IGMP membership report on the wire
    /// (charges `o_send`).
    JoinIgmp {
        /// Socket joining.
        socket: SocketId,
        /// Group to join.
        group: GroupId,
    },
    /// Send a datagram (charges [`HostParams::send_cost`]).
    Send {
        /// Sending socket.
        socket: SocketId,
        /// Destination host or group.
        dst: DatagramDst,
        /// Destination port.
        dst_port: UdpPort,
        /// Payload bytes (shared segments — never copied by the driver).
        payload: SharedPayload,
        /// Kernel-generated traffic (modelled TCP acks): cheaper host
        /// cost, separate statistics.
        kernel: bool,
    },
    /// Receive the next datagram on `socket`, optionally with a timeout.
    /// Blocking: the answer is the datagram (or `None` on timeout).
    Recv {
        /// Receiving socket.
        socket: SocketId,
        /// Give up after this long, if set.
        timeout: Option<SimDuration>,
        /// The rank's local time when it posted (checked against the
        /// driver's copy).
        at: SimTime,
    },
    /// Advance the local clock by `dur` (models application computation).
    Compute {
        /// Amount of virtual work.
        dur: SimDuration,
    },
}

/// What the driver answers to a blocking request.
#[derive(Debug)]
pub(crate) enum Response {
    /// Socket created.
    Socket(SocketId),
    /// Receive completed: `None` means the timeout elapsed first.
    Datagram(Option<Arc<Datagram>>),
    /// The run is being torn down (another rank panicked, deadlock, limit);
    /// the handle raises a panic to unwind this rank.
    Aborted,
}

/// The state one rank thread and the driver share.
#[derive(Debug, Default)]
pub(crate) struct Mailbox {
    /// Requests the rank posted that the driver has not taken yet, in
    /// program order.
    pub(crate) queue: VecDeque<Request>,
    /// The driver's answer to the rank's blocking request (or `Aborted`
    /// during teardown) and the rank's new local time.
    pub(crate) reply: Option<(Response, SimTime)>,
    /// `Some(panicked)` once the rank's closure returned or unwound.
    pub(crate) finished: Option<bool>,
    /// The driver is parked on `to_driver` waiting for this rank.
    pub(crate) driver_waiting: bool,
    /// The rank is parked on `to_proc` waiting for outbox space.
    pub(crate) rank_wants_space: bool,
}

/// Shared mailbox between one rank thread and the driver.
#[derive(Default)]
pub(crate) struct ProcShared {
    pub(crate) mailbox: Mutex<Mailbox>,
    /// Signalled by the rank when it posts or finishes while the driver
    /// waits on it.
    pub(crate) to_driver: Condvar,
    /// Signalled by the driver when it answers, frees outbox space the
    /// rank waits for, or aborts.
    pub(crate) to_proc: Condvar,
}

impl ProcShared {
    /// Rank side: record that the rank's closure returned or unwound.
    pub(crate) fn finish(&self, panicked: bool) {
        let mut mb = self.mailbox.lock();
        mb.finished = Some(panicked);
        self.wake_driver(&mut mb);
    }

    fn wake_driver(&self, mb: &mut Mailbox) {
        if mb.driver_waiting {
            mb.driver_waiting = false;
            self.to_driver.notify_one();
        }
    }
}

/// Marker payload used to unwind a rank thread during simulation teardown.
pub struct AbortUnwind;

fn abort_unwind() -> ! {
    // Unwind without invoking the panic hook (this is controlled
    // teardown, not a bug in the rank's code).
    std::panic::resume_unwind(Box::new(AbortUnwind))
}

/// Handle a rank uses to interact with the simulated network.
///
/// Receives and binds block the calling thread until the driver has
/// advanced virtual time far enough to answer; every other call returns
/// once its request is queued. Local time is monotone per rank and
/// reflects LogP-style software overheads.
pub struct SimProcess {
    shared: Arc<ProcShared>,
    host: HostParams,
    rank: usize,
    local_time: SimTime,
}

impl SimProcess {
    pub(crate) fn new(
        shared: Arc<ProcShared>,
        host: HostParams,
        rank: usize,
        start: SimTime,
    ) -> Self {
        SimProcess {
            shared,
            host,
            rank,
            local_time: start,
        }
    }

    /// This process's rank (== its simulated host id).
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Local virtual time.
    pub fn now(&self) -> SimTime {
        self.local_time
    }

    /// Queue `req`, parking only while the outbox is full. Returns the
    /// still-locked mailbox so a blocking call can park on its answer.
    fn post(&self, req: Request) -> MutexGuard<'_, Mailbox> {
        let mut mb = self.shared.mailbox.lock();
        while mb.queue.len() >= OUTBOX_CAP && mb.reply.is_none() {
            mb.rank_wants_space = true;
            self.shared.to_proc.wait(&mut mb);
        }
        // A running rank holds no unconsumed answer: a reply here is the
        // teardown's `Aborted`. Taking it leaves calls made while
        // unwinding to queue instead of panicking again.
        if mb.reply.take().is_some() {
            drop(mb);
            abort_unwind();
        }
        mb.queue.push_back(req);
        self.shared.wake_driver(&mut mb);
        mb
    }

    /// Queue a request that needs an answer and park until it arrives.
    fn call(&mut self, req: Request) -> Response {
        let mut mb = self.post(req);
        let (resp, at) = loop {
            if let Some(reply) = mb.reply.take() {
                break reply;
            }
            self.shared.to_proc.wait(&mut mb);
        };
        drop(mb);
        if matches!(resp, Response::Aborted) {
            abort_unwind();
        }
        self.local_time = at;
        resp
    }

    /// Bind a UDP socket on this host (setup-time, free).
    pub fn bind(&mut self, port: u16) -> SocketId {
        let at = self.local_time;
        match self.call(Request::Bind {
            port: UdpPort(port),
            at,
        }) {
            Response::Socket(s) => s,
            other => unreachable!("bad response {other:?}"),
        }
    }

    /// Join `group` on `socket` without emitting IGMP traffic (models a
    /// group set up before the timed region, like an MPI communicator).
    pub fn join_group(&mut self, socket: SocketId, group: GroupId) {
        self.post(Request::JoinQuiet { socket, group });
    }

    /// Leave `group` on `socket` (setup-time, free).
    pub fn leave_group(&mut self, socket: SocketId, group: GroupId) {
        self.post(Request::LeaveQuiet { socket, group });
    }

    /// Join `group` emitting a real IGMP membership report (costs a send
    /// overhead and a frame on the wire).
    pub fn join_group_igmp(&mut self, socket: SocketId, group: GroupId) {
        self.local_time += self.host.o_send;
        self.post(Request::JoinIgmp { socket, group });
    }

    /// Send `payload` as one UDP datagram to a unicast or multicast
    /// destination. Returns once the host stack has accepted the datagram
    /// (UDP semantics — no delivery guarantee). Accepts anything
    /// convertible into a [`SharedPayload`] (a `Vec<u8>`, a
    /// `bytes::Bytes`, or pre-built shared segments) — conversion never
    /// copies payload bytes.
    pub fn send(
        &mut self,
        socket: SocketId,
        dst: DatagramDst,
        dst_port: u16,
        payload: impl Into<SharedPayload>,
    ) {
        self.queue_send(socket, dst, dst_port, payload.into(), false);
    }

    /// Send kernel-generated traffic (e.g. a modelled TCP ack): the frame
    /// occupies the wire like any other, but the host is charged only the
    /// small `o_kernel_send` cost, and statistics count it separately.
    pub fn send_kernel(
        &mut self,
        socket: SocketId,
        dst: DatagramDst,
        dst_port: u16,
        payload: impl Into<SharedPayload>,
    ) {
        self.queue_send(socket, dst, dst_port, payload.into(), true);
    }

    fn queue_send(
        &mut self,
        socket: SocketId,
        dst: DatagramDst,
        dst_port: u16,
        payload: SharedPayload,
        kernel: bool,
    ) {
        self.local_time += self.host.send_cost(payload.len(), kernel);
        self.post(Request::Send {
            socket,
            dst,
            dst_port: UdpPort(dst_port),
            payload,
            kernel,
        });
    }

    /// Block until a datagram arrives on `socket`.
    pub fn recv(&mut self, socket: SocketId) -> Arc<Datagram> {
        match self.recv_inner(socket, None) {
            Some(d) => d,
            None => unreachable!("no timeout was set"),
        }
    }

    /// Block until a datagram arrives or `timeout` elapses.
    pub fn recv_timeout(
        &mut self,
        socket: SocketId,
        timeout: SimDuration,
    ) -> Option<Arc<Datagram>> {
        self.recv_inner(socket, Some(timeout))
    }

    fn recv_inner(
        &mut self,
        socket: SocketId,
        timeout: Option<SimDuration>,
    ) -> Option<Arc<Datagram>> {
        let at = self.local_time;
        match self.call(Request::Recv {
            socket,
            timeout,
            at,
        }) {
            Response::Datagram(d) => d,
            other => unreachable!("bad response {other:?}"),
        }
    }

    /// Model `dur` of local computation.
    pub fn compute(&mut self, dur: SimDuration) {
        self.local_time += dur;
        self.post(Request::Compute { dur });
    }
}
