//! The rank→driver outbox: calls that need no answer are queued and
//! charged on the rank's own clock, only receives and binds park, and
//! the driver applies queued requests in the order and at the virtual
//! times a blocking handoff per request would.

use std::sync::Barrier;

use mmpi_netsim::cluster::{run_cluster, ClusterConfig};
use mmpi_netsim::ids::{DatagramDst, GroupId, HostId};
use mmpi_netsim::params::NetParams;
use mmpi_netsim::process::OUTBOX_CAP;
use mmpi_netsim::time::{SimDuration, SimTime};
use mmpi_netsim::{RunMode, SimError};

const PORT: u16 = 5000;
const GROUP: GroupId = GroupId(1);

/// A rank that queues several outboxes' worth of sends, computes and
/// joins with no receive in between runs to completion, and its clock is
/// exactly the sum of the LogP charges — on the rank side (`now()`) and
/// on the driver side (the report's completion time).
#[test]
fn sends_past_the_cap_complete_at_the_summed_charges() {
    let params = NetParams::fast_ethernet_switch();
    let hp = params.host.clone();
    let count = 3 * OUTBOX_CAP + 5;
    let cfg = ClusterConfig::new(2, params, 3);
    let report = run_cluster(&cfg, |mut p| {
        let s = p.bind(PORT);
        if p.rank() == 0 {
            p.join_group_igmp(s, GROUP);
            for i in 0..count {
                p.send(s, DatagramDst::Unicast(HostId(1)), PORT, vec![i as u8; 100]);
                p.send_kernel(s, DatagramDst::Unicast(HostId(1)), PORT + 1, vec![0; 8]);
                p.compute(SimDuration::from_nanos(i as u64));
            }
            (p.now(), Vec::new())
        } else {
            let got: Vec<u8> = (0..count).map(|_| p.recv(s).payload[0]).collect();
            (p.now(), got)
        }
    })
    .unwrap();

    let mut expected = SimTime::ZERO + hp.o_send;
    for i in 0..count {
        expected += hp.send_cost(100, false) + hp.send_cost(8, true);
        expected += SimDuration::from_nanos(i as u64);
    }
    assert_eq!(report.outputs[0].0, expected, "rank-side clock");
    assert_eq!(report.completion_times[0], expected, "driver-side clock");
    assert_eq!(report.outputs[1].0, report.completion_times[1]);
    let in_order: Vec<u8> = (0..count).map(|i| i as u8).collect();
    assert_eq!(
        report.outputs[1].1, in_order,
        "queued sends keep program order"
    );
    assert_eq!(report.stats.kernel_datagrams_sent, count as u64);
}

/// A rank panicking while a peer sits parked on a full outbox (its queue
/// holding unapplied requests) is reported as `RankPanicked`, and the
/// teardown unwinds the parked peer instead of hanging.
#[test]
fn panic_while_a_peer_is_parked_on_a_full_outbox_aborts() {
    let cfg = ClusterConfig::new(2, NetParams::fast_ethernet_switch(), 1);
    let full = Barrier::new(2);
    let err = run_cluster(&cfg, |mut p| {
        let s = p.bind(PORT);
        if p.rank() == 0 {
            // The driver now waits on rank 0, so nothing drains rank 1:
            // once it has queued a full outbox, its next send parks.
            full.wait();
            panic!("intentional test panic");
        }
        for i in 0..10 * OUTBOX_CAP {
            if i == OUTBOX_CAP {
                full.wait();
            }
            p.send(s, DatagramDst::Unicast(HostId(0)), PORT, vec![1; 16]);
        }
    })
    .unwrap_err();
    assert!(
        matches!(err, SimError::RankPanicked { rank: 0, .. }),
        "{err}"
    );
}

/// Ranks that queued sends and then all block in `Recv` still get a
/// deadlock report naming every blocked rank — after the queued sends
/// were applied (they landed on a port nobody receives from).
#[test]
fn deadlock_after_queued_sends_names_every_blocked_rank() {
    let cfg = ClusterConfig::new(3, NetParams::fast_ethernet_switch(), 1);
    let err = run_cluster(&cfg, |mut p| {
        let listen = p.bind(PORT);
        let unread = p.bind(PORT + 1);
        let next = HostId(((p.rank() + 1) % 3) as u32);
        for _ in 0..5 {
            p.send(unread, DatagramDst::Unicast(next), PORT + 1, vec![2; 32]);
            p.compute(SimDuration::from_micros(3));
        }
        p.recv(listen);
    })
    .unwrap_err();
    match err {
        SimError::Deadlock { detail, .. } => {
            for r in 0..3 {
                assert!(
                    detail.contains(&format!("rank {r} blocked in recv")),
                    "{detail}"
                );
            }
        }
        other => panic!("expected deadlock, got {other}"),
    }
}

/// Eight ranks multicast at identical local times, then stagger by one
/// send cost per rank and multicast three more, so rank `r`'s `j`-th
/// staggered multicast leaves at the same instant as rank `r + 1`'s
/// `(j - 1)`-th — ties between requests at different queue depths. A
/// unicast and a kernel ack follow; everything is queued before any
/// receive, then each rank receives all of it. Same-instant events are
/// tie-broken by the order the driver applies requests in, so the digest
/// of what every rank saw (sources, lengths, local receive times), the
/// completion times and the fabric counters pins that order.
fn same_instant_digest(mode: RunMode) -> u64 {
    let n = 8usize;
    let params = NetParams::fast_ethernet_switch();
    let stagger = params.host.send_cost(200, false);
    let cfg = ClusterConfig::new(n, params, 0x7E_B0A7).with_run_mode(mode);
    let report = run_cluster(&cfg, |mut p| {
        let s = p.bind(PORT);
        p.join_group(s, GROUP);
        p.compute(SimDuration::from_micros(10));
        let me = p.rank();
        let next = HostId(((me + 1) % n) as u32);
        let prev = HostId(((me + n - 1) % n) as u32);
        p.send(s, DatagramDst::Multicast(GROUP), PORT, vec![me as u8; 1400]);
        p.compute(stagger * me as u64);
        for _ in 0..3 {
            p.send(s, DatagramDst::Multicast(GROUP), PORT, vec![me as u8; 200]);
        }
        p.send(s, DatagramDst::Unicast(next), PORT, vec![me as u8; 50]);
        p.send_kernel(s, DatagramDst::Unicast(prev), PORT, vec![me as u8; 8]);
        (0..4 * (n - 1) + 2)
            .map(|_| {
                let d = p.recv(s);
                (d.src_host.0, d.payload.len(), p.now().as_nanos())
            })
            .collect::<Vec<_>>()
    })
    .unwrap();
    let rendered = format!(
        "{:?}|{:?}|{:?}",
        report.outputs, report.completion_times, report.stats
    );
    // FNV-1a: stable across platforms, sensitive to any reordering.
    rendered.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Captured with the blocking per-request handoff the outbox replaced,
/// on the event-loop engine.
const SAME_INSTANT_EVENT_DIGEST: u64 = 0xfd01_bcd4_0189_9699;
/// The frame engine's digest of the same run, captured alongside. The
/// engines break some ties differently (`docs/SIMULATOR.md`), but the
/// frame engine is identical at any worker count.
const SAME_INSTANT_FRAMES_DIGEST: u64 = 0x16d0_16b2_d81e_06e9;

#[test]
fn same_instant_tie_breaks_match_the_blocking_handoff() {
    let event = same_instant_digest(RunMode::EventLoop);
    println!("event loop digest: {event:#018x}");
    assert_eq!(event, SAME_INSTANT_EVENT_DIGEST);
    for workers in [1, 4] {
        let frames = same_instant_digest(RunMode::Frames { workers });
        println!("frames w{workers} digest: {frames:#018x}");
        assert_eq!(frames, SAME_INSTANT_FRAMES_DIGEST, "{workers} workers");
    }
}
