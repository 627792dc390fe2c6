//! The transport seen from outside: [`Probe`] gives the benchmark a
//! backend's own clock and repair counters, and [`Traced`] is a `Comm`
//! decorator that times every trait call by kind.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

use mmpi_transport::{
    CancelSink, Comm, RecvError, RecvReq, SendReq, SendWindowFull, SimComm, Tag, UdpComm,
};
use mmpi_wire::{Bytes, Message, MsgKind, RepairStats};

/// A transport the benchmark can read a clock and counters from.
pub trait Probe: Comm {
    /// The backend's own clock in nanoseconds: virtual time on the
    /// simulator, wall time since [`wall_ns`]'s base on UDP.
    fn clock_ns(&self) -> u64;
    /// This endpoint's repair-plane counters so far.
    fn repair(&self) -> RepairStats;
    /// The call timings, when the transport is [`Traced`].
    fn calls(&self) -> Option<&CallStats> {
        None
    }
}

/// Wall nanoseconds since the first call in this process: one base that
/// every rank thread shares, so stamps from different ranks compare.
#[allow(clippy::disallowed_methods)] // bench harness: wall time is the measurement
pub fn wall_ns() -> u64 {
    static BASE: OnceLock<Instant> = OnceLock::new();
    BASE.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

impl Probe for SimComm {
    fn clock_ns(&self) -> u64 {
        self.now().as_nanos()
    }
    fn repair(&self) -> RepairStats {
        self.repair_stats()
    }
}

impl Probe for UdpComm {
    fn clock_ns(&self) -> u64 {
        wall_ns()
    }
    fn repair(&self) -> RepairStats {
        self.repair_stats()
    }
}

/// The call kinds the per-layer metrics are built from.
#[derive(Clone, Copy)]
pub enum Kind {
    /// Anything that puts a datagram on the wire.
    Send = 0,
    /// Blocking waits: `wait*` and `progress_block`.
    Wait = 1,
    /// Nonblocking progress passes: `progress` and `test`.
    Progress = 2,
    /// Posting, claiming, cancelling and modelled compute.
    Other = 3,
}

/// Number of [`Kind`]s.
pub const KINDS: usize = 4;

/// Calls and wall nanoseconds per [`Kind`].
#[derive(Clone, Debug, Default)]
pub struct CallStats {
    pub calls: [u64; KINDS],
    pub ns: [u64; KINDS],
}

impl CallStats {
    /// Wall nanoseconds spent inside the transport, all kinds.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// Add `other` into `self`.
    pub fn add(&mut self, other: &CallStats) {
        for k in 0..KINDS {
            self.calls[k] += other.calls[k];
            self.ns[k] += other.ns[k];
        }
    }

    /// `self - earlier`, kind by kind.
    pub fn since(&self, earlier: &CallStats) -> CallStats {
        let mut d = self.clone();
        for k in 0..KINDS {
            d.calls[k] -= earlier.calls[k];
            d.ns[k] -= earlier.ns[k];
        }
        d
    }
}

/// A `Comm` decorator that forwards every call to `inner` and records
/// its wall time under its [`Kind`]. Provided trait methods the backends
/// do not override (`post_send`, `recv_match`, ...) are left to their
/// defaults, which call back into the timed primitives.
pub struct Traced<C> {
    inner: C,
    stats: CallStats,
}

impl<C> Traced<C> {
    pub fn new(inner: C) -> Self {
        Traced {
            inner,
            stats: CallStats::default(),
        }
    }

    fn timed<R>(&mut self, kind: Kind, f: impl FnOnce(&mut C) -> R) -> R {
        #[allow(clippy::disallowed_methods)] // bench harness: wall time is the measurement
        let start = Instant::now();
        let out = f(&mut self.inner);
        let k = kind as usize;
        self.stats.calls[k] += 1;
        self.stats.ns[k] += start.elapsed().as_nanos() as u64;
        out
    }
}

impl<C: Probe> Probe for Traced<C> {
    fn clock_ns(&self) -> u64 {
        self.inner.clock_ns()
    }
    fn repair(&self) -> RepairStats {
        self.inner.repair()
    }
    fn calls(&self) -> Option<&CallStats> {
        Some(&self.stats)
    }
}

impl<C: Comm> Comm for Traced<C> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }
    fn size(&self) -> usize {
        self.inner.size()
    }
    fn context(&self) -> u32 {
        self.inner.context()
    }
    fn multicast_capable(&self) -> bool {
        self.inner.multicast_capable()
    }
    fn send_kind(&mut self, dst: usize, tag: Tag, kind: MsgKind, payload: &Bytes) -> u64 {
        self.timed(Kind::Send, |c| c.send_kind(dst, tag, kind, payload))
    }
    fn mcast_kind(&mut self, tag: Tag, kind: MsgKind, payload: &Bytes) -> u64 {
        self.timed(Kind::Send, |c| c.mcast_kind(tag, kind, payload))
    }
    fn mcast_resend(&mut self, tag: Tag, kind: MsgKind, payload: &Bytes, seq: u64) {
        self.timed(Kind::Send, |c| c.mcast_resend(tag, kind, payload, seq))
    }
    fn try_post_send(
        &mut self,
        dst: usize,
        tag: Tag,
        payload: &Bytes,
    ) -> Result<SendReq, SendWindowFull> {
        self.timed(Kind::Send, |c| c.try_post_send(dst, tag, payload))
    }
    fn try_post_mcast(&mut self, tag: Tag, payload: &Bytes) -> Result<SendReq, SendWindowFull> {
        self.timed(Kind::Send, |c| c.try_post_mcast(tag, payload))
    }
    fn tcp_ack_model(&mut self, dst: usize, count: u32) {
        self.timed(Kind::Send, |c| c.tcp_ack_model(dst, count))
    }
    fn post_recv(&mut self, src: Option<usize>, tag: Tag) -> RecvReq {
        self.timed(Kind::Other, |c| c.post_recv(src, tag))
    }
    fn progress(&mut self) {
        self.timed(Kind::Progress, |c| c.progress())
    }
    fn progress_block(&mut self) {
        self.timed(Kind::Wait, |c| c.progress_block())
    }
    fn wait_ready(&mut self, reqs: &[RecvReq]) {
        self.timed(Kind::Wait, |c| c.wait_ready(reqs))
    }
    fn test(&mut self, req: RecvReq) -> Option<Result<Message, RecvError>> {
        self.timed(Kind::Progress, |c| c.test(req))
    }
    fn test_claimed(&mut self, req: RecvReq) -> Option<Result<Message, RecvError>> {
        self.timed(Kind::Other, |c| c.test_claimed(req))
    }
    fn wait(&mut self, req: RecvReq) -> Result<Message, RecvError> {
        self.timed(Kind::Wait, |c| c.wait(req))
    }
    fn wait_deadline(
        &mut self,
        req: RecvReq,
        timeout: Duration,
    ) -> Result<Option<Message>, RecvError> {
        self.timed(Kind::Wait, |c| c.wait_deadline(req, timeout))
    }
    fn wait_any(&mut self, reqs: &[RecvReq]) -> Result<(usize, Message), RecvError> {
        self.timed(Kind::Wait, |c| c.wait_any(reqs))
    }
    fn cancel_recv(&mut self, req: RecvReq) {
        self.timed(Kind::Other, |c| c.cancel_recv(req))
    }
    fn cancel_sink(&self) -> CancelSink {
        self.inner.cancel_sink()
    }
    fn compute(&mut self, d: Duration) {
        self.timed(Kind::Other, |c| c.compute(d))
    }
    fn failed_peers(&self) -> Vec<usize> {
        self.inner.failed_peers()
    }
    fn departed_peers(&self) -> Vec<usize> {
        self.inner.departed_peers()
    }
    fn epoch(&self) -> u32 {
        self.inner.epoch()
    }
    fn leave(&mut self) {
        self.timed(Kind::Other, |c| c.leave())
    }
    fn rebase_epoch(&mut self, epoch: u32) {
        self.inner.rebase_epoch(epoch)
    }
    fn declare_failed(&mut self, rank: usize) {
        self.inner.declare_failed(rank)
    }
}
