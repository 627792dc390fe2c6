//! perfbench: the end-to-end and per-layer benchmark of the multicast
//! collectives.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//! ```
//!
//! A run builds one *base* world per phase (set-up and warm-up only, the
//! baseline the frame counts subtract), then runs *epochs* until
//! `--seconds` have passed. An epoch is one fresh world per phase, each
//! set up, warmed up and then timed over a fixed number of closed-loop
//! rounds. Inputs come from the seed alone, so on the simulator every
//! epoch of a run replays the first one exactly; a difference is
//! reported as a replay break. With `--trace 1` untraced and traced
//! epochs alternate: the traced ones give the per-layer metrics, the
//! pair gives the tracing overhead. The last line of standard output is
//! one JSON object; the lines before it state sample counts and host
//! facts. See README.md for the workloads and the metric map.

mod host;
mod rank;
mod traced;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use mmpi_core::{BarrierAlgorithm, BcastAlgorithm};
use mmpi_netsim::cluster::ClusterConfig;
use mmpi_netsim::params::NetParams;
use mmpi_netsim::rng::SplitMix64;
use mmpi_netsim::stats::NetStats;
use mmpi_netsim::time::SimDuration;
use mmpi_netsim::RunMode;
use mmpi_transport::{
    multicast_available, run_sim_world, run_udp_world, RepairConfig, SimCommConfig, UdpConfig,
};
use mmpi_wire::RepairStats;

use rank::{rank_main, Coll, PhaseClock, Plan, Span, ALGOS};
use traced::{CallStats, Kind};

#[global_allocator]
static GLOBAL: host::CountingAlloc = host::CountingAlloc;

/// Ports of the UDP worlds (multicast on the port below) and of the
/// multicast availability probe.
const UDP_BASE_PORT: u16 = 41_200;
const PROBE_BASE_PORT: u16 = 41_300;

/// Distinct seeded payloads per broadcast; round `r` sends variant
/// `r % PAYLOAD_VARIANTS`.
const PAYLOAD_VARIANTS: usize = 64;

/// Start skew of the simulated ranks (the experiment harness default).
const START_SKEW: SimDuration = SimDuration::from_micros(50);

#[derive(Clone, Copy)]
enum Backend {
    /// The simulated switched Fast Ethernet, engine pinned to the event
    /// loop. Repair is armed when `loss > 0` or `gossip`.
    Sim { loss: f64, gossip: bool },
    /// Live UDP with IP multicast over loopback, repair armed.
    Udp,
}

/// One world shape. A workload whose round needs two endpoint
/// configurations (the dissemination plane is chosen per endpoint) runs
/// one phase per configuration; a round spans every phase.
struct Phase {
    label: &'static str,
    n: usize,
    backend: Backend,
    program: &'static [Coll],
}

struct Workload {
    name: &'static str,
    phases: &'static [Phase],
    /// Untimed rounds before the timed phase of every world.
    warmup: usize,
    /// Timed rounds per world.
    rounds: usize,
    /// Upper bound of each rank's seeded entry skew per round (sim only).
    skew: Duration,
}

const KIB4: usize = 4096;

static PAPER_ROUND: [Coll; 4] = [
    Coll::Bcast(BcastAlgorithm::McastBinary, KIB4),
    Coll::Barrier(BarrierAlgorithm::McastBinary),
    Coll::Bcast(BcastAlgorithm::MpichBinomial, KIB4),
    Coll::Barrier(BarrierAlgorithm::Mpich),
];
static SRM_ROUND: [Coll; 2] = [
    Coll::Bcast(BcastAlgorithm::McastBinary, KIB4),
    Coll::Barrier(BarrierAlgorithm::McastBinary),
];
static GOSSIP_ROUND: [Coll; 2] = [
    Coll::Bcast(BcastAlgorithm::Gossip, KIB4),
    Coll::Barrier(BarrierAlgorithm::McastBinary),
];
static UDP_ROUND: [Coll; 2] = [
    Coll::Bcast(BcastAlgorithm::McastBinary, 1024),
    Coll::Barrier(BarrierAlgorithm::McastBinary),
];

static WORKLOADS: [Workload; 3] = [
    Workload {
        name: "paper_lossless",
        phases: &[Phase {
            label: "lossless",
            n: 64,
            backend: Backend::Sim {
                loss: 0.0,
                gossip: false,
            },
            program: &PAPER_ROUND,
        }],
        warmup: 5,
        rounds: 100,
        skew: Duration::from_micros(20),
    },
    Workload {
        name: "lossy_repair",
        phases: &[
            Phase {
                label: "srm",
                n: 16,
                backend: Backend::Sim {
                    loss: 0.10,
                    gossip: false,
                },
                program: &SRM_ROUND,
            },
            Phase {
                label: "gossip",
                n: 16,
                backend: Backend::Sim {
                    loss: 0.10,
                    gossip: true,
                },
                program: &GOSSIP_ROUND,
            },
        ],
        warmup: 10,
        rounds: 500,
        skew: Duration::from_micros(20),
    },
    Workload {
        name: "udp_loopback",
        phases: &[Phase {
            label: "udp",
            n: 2,
            backend: Backend::Udp,
            program: &UDP_ROUND,
        }],
        warmup: 500,
        rounds: 20_000,
        skew: Duration::ZERO,
    },
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    out_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out_dir = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or(format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|s| *s > 0)
                        .ok_or(format!("bad --seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}")),
                })
            }
            "--out-dir" => out_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out_dir,
    })
}

/// What a world records besides the end-to-end figures.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Tracing {
    Off,
    /// Time every transport call and collective; keep the aggregates.
    Counts,
    /// As `Counts`, and keep every collective span for the CSV.
    Spans,
}

/// One world's run, reduced to what the report reads.
struct World {
    /// World start to the first rank past its warm-up.
    setup: Duration,
    /// First rank past its warm-up to the last rank done.
    timed: Duration,
    colls: u64,
    /// `lat[k][r]`: backend-clock latency of collective `k` in round `r`,
    /// the latest rank exit minus the earliest rank entry.
    lat: Vec<Vec<u64>>,
    /// Per round: the latest exit of its last collective minus the
    /// earliest entry of its first.
    round_lat: Vec<u64>,
    usage: host::Usage,
    rank_cpu_ns: u64,
    allocs: u64,
    /// Simulated fabric counters for the whole world (sim only).
    net: Option<NetStats>,
    /// Kernel UDP and loopback counters over the timed phase.
    kernel: Option<host::KernelNet>,
    repair: RepairStats,
    calls: CallStats,
    /// `walls[k]`: every rank's wall time in collective `k` (traced).
    walls: Vec<Vec<u64>>,
    /// Span wall time minus the transport time inside it, all spans.
    self_ns: u64,
    spans: Vec<Span>,
    attempted: u64,
    errors: u64,
    mismatches: u64,
}

impl World {
    /// What must repeat exactly between worlds of one seed on the
    /// simulator, hashed (FNV-1a).
    fn fingerprint(&self) -> Option<u64> {
        let net = self.net.as_ref()?;
        let repair = format!("{:?}", self.repair);
        let words = self
            .lat
            .iter()
            .flatten()
            .copied()
            .chain([net.frames_sent, net.wire_bytes_sent, net.total_drops()])
            .chain(repair.bytes().map(u64::from));
        Some(words.fold(0xcbf2_9ce4_8422_2325, |h, w| {
            (h ^ w).wrapping_mul(0x0100_0000_01b3)
        }))
    }
}

fn payloads(seed: u64, phase: usize, program: &[Coll]) -> Vec<Vec<Vec<u8>>> {
    program
        .iter()
        .enumerate()
        .map(|(k, coll)| {
            let bytes = coll.payload_bytes();
            if bytes == 0 {
                return Vec::new();
            }
            let stream = ((phase as u64) << 32 | k as u64).wrapping_mul(0xA24B_AED4_963E_E407);
            let mut rng = SplitMix64::new(seed ^ stream);
            (0..PAYLOAD_VARIANTS)
                .map(|_| (0..bytes).map(|_| rng.next_u64() as u8).collect())
                .collect()
        })
        .collect()
}

fn run_world(
    w: &Workload,
    phase: &Phase,
    payloads: &[Vec<Vec<u8>>],
    seed: u64,
    rounds: usize,
    tracing: Tracing,
    world_id: u32,
) -> Result<World, String> {
    let traced = tracing != Tracing::Off;
    let clock = PhaseClock::new(phase.n);
    let plan = Plan {
        program: phase.program,
        warmup: w.warmup,
        rounds,
        skew: match phase.backend {
            Backend::Sim { .. } => w.skew,
            Backend::Udp => Duration::ZERO,
        },
        seed,
        payloads,
        traced,
        clock: &clock,
    };
    host::count_allocs(traced);
    #[allow(clippy::disallowed_methods)] // bench harness: wall time is the measurement
    let start = Instant::now();
    let result = match phase.backend {
        Backend::Sim { loss, gossip } => {
            let mut params = NetParams::fast_ethernet_switch();
            if loss > 0.0 {
                params = params.with_loss(loss);
            }
            let cluster = ClusterConfig::new(phase.n, params, seed)
                .with_start_skew(START_SKEW)
                .with_run_mode(RunMode::EventLoop);
            let mut cfg = SimCommConfig::default();
            if loss > 0.0 || gossip {
                let rc = RepairConfig::sim_default().with_seed(seed);
                cfg.repair = Some(if gossip { rc.with_gossip() } else { rc });
            }
            run_sim_world(&cluster, &cfg, |c| rank_main(c, &plan))
                .map(|r| (r.outputs, Some(r.stats)))
                .map_err(|e| format!("{} world aborted: {e}", phase.label))
        }
        Backend::Udp => {
            let mut cfg = UdpConfig::loopback(UDP_BASE_PORT);
            cfg.repair = Some(RepairConfig::udp_default().with_seed(seed));
            // A fresh context per world: a straggler from the previous
            // world's drain is foreign traffic, never a match.
            cfg.context = world_id;
            run_udp_world(phase.n, &cfg, |c| rank_main(c, &plan))
                .map(|outs| (outs, None))
                .map_err(|e| format!("{} world failed: {e}", phase.label))
        }
    };
    host::count_allocs(false);
    let (outs, net) = result?;
    let (open, close) = clock.bounds();
    let open = open.ok_or("no rank reached the timed phase")?;
    let setup = open.at - start;
    let mut world = World {
        setup,
        timed: Duration::ZERO,
        colls: (rounds * phase.program.len()) as u64,
        lat: vec![Vec::with_capacity(rounds); phase.program.len()],
        round_lat: Vec::with_capacity(rounds),
        usage: host::Usage::default(),
        rank_cpu_ns: outs.iter().map(|o| o.cpu.cpu_ns()).sum(),
        allocs: 0,
        net,
        kernel: None,
        repair: RepairStats::default(),
        calls: CallStats::default(),
        walls: vec![Vec::new(); phase.program.len()],
        self_ns: 0,
        spans: Vec::new(),
        attempted: outs.iter().map(|o| o.attempted).sum(),
        errors: outs.iter().map(|o| o.errors).sum(),
        mismatches: outs.iter().map(|o| o.mismatches).sum(),
    };
    if rounds == 0 {
        return Ok(world);
    }
    let close = close.ok_or("the timed phase never closed")?;
    world.timed = close.at - open.at;
    world.usage = close.usage.since(&open.usage);
    world.allocs = close.allocs - open.allocs;
    world.kernel = close.net.zip(open.net).map(|(c, o)| c.since(&o));
    let width = phase.program.len();
    for r in 0..rounds {
        for k in 0..width {
            let i = r * width + k;
            let first = outs.iter().map(|o| o.entry[i]).min().unwrap_or(0);
            let last = outs.iter().map(|o| o.exit[i]).max().unwrap_or(0);
            world.lat[k].push(last - first);
        }
        let first = outs.iter().map(|o| o.entry[r * width]).min().unwrap_or(0);
        let last = outs
            .iter()
            .map(|o| o.exit[r * width + width - 1])
            .max()
            .unwrap_or(0);
        world.round_lat.push(last - first);
    }
    for o in outs {
        world.repair.merge(&o.repair);
        world.calls.add(&o.calls);
        for span in &o.spans {
            world.walls[span.coll as usize].push(span.wall_ns);
            world.self_ns += span.wall_ns - span.child.total_ns().min(span.wall_ns);
        }
        if tracing == Tracing::Spans {
            world.spans.extend(o.spans);
        }
    }
    Ok(world)
}

/// An untraced epoch, reduced to what the end-to-end metrics read.
struct Plain {
    /// Set-up time, phases summed.
    setup: f64,
    /// Timed-phase wall time, phases summed.
    timed: f64,
    colls: u64,
    /// Nearest-rank percentiles of the epoch's round latencies.
    p50: u64,
    p90: u64,
    rounds: usize,
    frames: u64,
}

/// Everything a run measured.
struct Runs {
    /// Set-up time of the base set and of every untraced epoch.
    setups: Vec<f64>,
    /// The base worlds, one per phase.
    base: Vec<World>,
    plain: Vec<Plain>,
    traced: Vec<Vec<World>>,
    attempted: u64,
    failed: u64,
    mismatches: u64,
    replay_breaks: u64,
    aborts: Vec<String>,
}

/// Per round of an epoch: the phases' round latencies summed.
fn round_latencies(epoch: &[World]) -> Vec<u64> {
    (0..epoch[0].round_lat.len())
        .map(|r| epoch.iter().map(|x| x.round_lat[r]).sum())
        .collect()
}

/// Frames on the wire over an epoch's timed phases: the simulated
/// fabric's count minus the base world's, or the kernel's UDP datagram
/// count.
fn frames(epoch: &[World], base: &[World]) -> u64 {
    epoch
        .iter()
        .zip(base)
        .map(|(x, b)| match (&x.net, &b.net, &x.kernel) {
            (Some(n), Some(bn), _) => n.frames_sent.saturating_sub(bn.frames_sent),
            (None, _, Some(k)) => k.udp_out,
            _ => 0,
        })
        .sum()
}

fn measure(args: &Args) -> Result<Runs, String> {
    let w = args.workload;
    let budget = Duration::from_secs(args.seconds);
    let inputs: Vec<_> = w
        .phases
        .iter()
        .enumerate()
        .map(|(i, p)| payloads(args.seed, i, p.program))
        .collect();
    #[allow(clippy::disallowed_methods)] // bench harness: wall time is the measurement
    let start = Instant::now();
    let mut world_id = 1;
    let mut base = Vec::new();
    for (p, input) in w.phases.iter().zip(&inputs) {
        base.push(run_world(
            w,
            p,
            input,
            args.seed,
            0,
            Tracing::Off,
            world_id,
        )?);
        world_id += 1;
    }
    let mut runs = Runs {
        setups: vec![base.iter().map(|b| b.setup.as_secs_f64()).sum()],
        attempted: base.iter().map(|b| b.attempted).sum(),
        failed: base.iter().map(|b| b.errors + b.mismatches).sum(),
        mismatches: base.iter().map(|b| b.mismatches).sum(),
        base,
        plain: Vec::new(),
        traced: Vec::new(),
        replay_breaks: 0,
        aborts: Vec::new(),
    };
    let mut reference: Vec<Option<u64>> = Vec::new();
    let planned: u64 = w
        .phases
        .iter()
        .map(|p| ((w.warmup + w.rounds) * p.program.len() * p.n) as u64)
        .sum();
    loop {
        let traced = args.trace && runs.plain.len() > runs.traced.len();
        let tracing = match (traced, runs.traced.is_empty()) {
            (false, _) => Tracing::Off,
            (true, true) => Tracing::Spans,
            (true, false) => Tracing::Counts,
        };
        let epoch_start = start.elapsed();
        let mut epoch = Vec::new();
        for (p, input) in w.phases.iter().zip(&inputs) {
            match run_world(w, p, input, args.seed, w.rounds, tracing, world_id) {
                Ok(world) => epoch.push(world),
                Err(e) => {
                    runs.aborts.push(e);
                    break;
                }
            }
            world_id += 1;
        }
        let aborted = epoch.len() < w.phases.len();
        if aborted {
            runs.attempted += planned;
            runs.failed += planned;
        } else {
            let prints: Vec<_> = epoch.iter().map(World::fingerprint).collect();
            if reference.is_empty() {
                reference = prints;
            } else if prints != reference {
                runs.replay_breaks += 1;
            }
            for world in &epoch {
                runs.attempted += world.attempted;
                runs.failed += world.errors + world.mismatches;
                runs.mismatches += world.mismatches;
            }
            if traced {
                runs.traced.push(epoch);
            } else {
                let lat = round_latencies(&epoch);
                let plain = Plain {
                    setup: epoch.iter().map(|x| x.setup.as_secs_f64()).sum(),
                    timed: epoch.iter().map(|x| x.timed.as_secs_f64()).sum(),
                    colls: epoch.iter().map(|x| x.colls).sum(),
                    p50: percentile(&lat, 50.0),
                    p90: percentile(&lat, 90.0),
                    rounds: lat.len(),
                    frames: frames(&epoch, &runs.base),
                };
                runs.setups.push(plain.setup);
                runs.plain.push(plain);
            }
        }
        let complete = !runs.plain.is_empty() && (!args.trace || !runs.traced.is_empty());
        if aborted {
            // Inputs repeat, so the next epoch would abort the same way.
            return if complete {
                Ok(runs)
            } else {
                Err(runs.aborts.join("; "))
            };
        }
        // Stop at the epoch boundary nearest the budget.
        let elapsed = start.elapsed();
        if elapsed + (elapsed - epoch_start) / 2 >= budget && complete {
            return Ok(runs);
        }
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of unsorted samples.
fn percentile(samples: &[u64], p: f64) -> u64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut s = samples.to_vec();
    s.sort_unstable();
    let rank = (p / 100.0 * s.len() as f64).ceil().max(1.0) as usize;
    s[rank - 1]
}

fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Metrics in report order, with their units.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric value must be finite");
        self.0.push((name.into(), value, unit));
    }

    fn json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push('}');
        s
    }
}

fn median_u64(samples: impl Iterator<Item = u64>) -> f64 {
    median(&samples.map(|v| v as f64).collect::<Vec<_>>())
}

fn end_to_end(runs: &Runs, m: &mut Metrics, notes: &mut Vec<String>) {
    let plain = &runs.plain;
    let colls: u64 = plain.iter().map(|e| e.colls).sum();
    let timed: f64 = plain.iter().map(|e| e.timed).sum();
    m.put("setup_s", median(&runs.setups), "s");
    m.put("colls_per_s", ratio(colls as f64, timed), "1/s");
    m.put(
        "round_lat_us_p50",
        median_u64(plain.iter().map(|e| e.p50)) / 1e3,
        "us",
    );
    m.put(
        "round_lat_us_p90",
        median_u64(plain.iter().map(|e| e.p90)) / 1e3,
        "us",
    );
    let frames: u64 = plain.iter().map(|e| e.frames).sum();
    m.put(
        "frames_per_coll",
        ratio(frames as f64, colls as f64),
        "count",
    );
    m.put("peak_rss_mb", host::peak_rss_mb(), "MiB");
    m.put(
        "success_ratio",
        1.0 - ratio(runs.failed as f64, runs.attempted as f64),
        "ratio",
    );
    notes.push(format!(
        "setup_s: median of {} set-ups; colls_per_s: {colls} collectives over {} epochs \
         ({timed:.3} s timed); round_lat_us p50/p90: nearest rank over {} rounds per epoch, \
         median over {} epochs",
        runs.setups.len(),
        plain.len(),
        plain[0].rounds,
        plain.len(),
    ));
}

fn per_layer(w: &Workload, runs: &Runs, m: &mut Metrics, notes: &mut Vec<String>) {
    let tr = &runs.traced;
    let worlds: Vec<&World> = tr.iter().flatten().collect();
    let rounds = (tr.len() * w.rounds) as f64;
    let sum = |f: &dyn Fn(&World) -> f64| -> f64 { worlds.iter().map(|x| f(x)).sum() };
    let n = sum(&|x| x.colls as f64);
    let cpu = sum(&|x| x.usage.cpu_ns() as f64);
    let call = |k: Kind| sum(&|x| x.calls.calls[k as usize] as f64);
    let call_ns = |k: Kind| sum(&|x| x.calls.ns[k as usize] as f64);
    let base_net = |i: usize| runs.base[i].net.as_ref();
    let net_delta = |f: &dyn Fn(&NetStats) -> u64| -> f64 {
        tr.iter()
            .flat_map(|epoch| epoch.iter().enumerate())
            .map(|(i, x)| match (&x.net, base_net(i)) {
                (Some(a), Some(b)) => f(a).saturating_sub(f(b)) as f64,
                _ => 0.0,
            })
            .sum()
    };
    let repair = |f: &dyn Fn(&RepairStats) -> u64| sum(&|x| f(&x.repair) as f64);
    let payload_bytes: f64 = tr.len() as f64
        * w.rounds as f64
        * w.phases
            .iter()
            .flat_map(|p| p.program.iter())
            .map(|c| c.payload_bytes() as f64)
            .sum::<f64>();

    m.put(
        "netsim.driver_cpu_ms_per_round",
        (cpu - sum(&|x| x.rank_cpu_ns as f64)) / rounds / 1e6,
        "ms",
    );
    m.put(
        "netsim.sys_cpu_share",
        ratio(sum(&|x| x.usage.sys_ns as f64), cpu),
        "ratio",
    );
    m.put(
        "netsim.ctx_switches_per_coll",
        sum(&|x| x.usage.ctx_switches as f64) / n,
        "count",
    );
    let drops = net_delta(&|s| s.total_drops())
        + sum(&|x| {
            x.kernel
                .filter(|_| x.net.is_none())
                .map_or(0.0, |k| k.udp_in_errors as f64)
        });
    m.put("netsim.drops_per_coll", drops / n, "count");

    m.put(
        "transport.send_calls_per_coll",
        call(Kind::Send) / n,
        "count",
    );
    m.put(
        "transport.send_us_mean",
        ratio(call_ns(Kind::Send), call(Kind::Send)) / 1e3,
        "us",
    );
    m.put(
        "transport.wait_calls_per_coll",
        call(Kind::Wait) / n,
        "count",
    );
    m.put(
        "transport.wait_ms_per_round",
        call_ns(Kind::Wait) / rounds / 1e6,
        "ms",
    );
    m.put(
        "transport.progress_calls_per_coll",
        call(Kind::Progress) / n,
        "count",
    );

    m.put(
        "core.self_ms_per_round",
        sum(&|x| x.self_ns as f64) / rounds / 1e6,
        "ms",
    );
    for algo in ALGOS {
        let mut wall = Vec::new();
        let mut lat = Vec::new();
        for epoch in tr {
            for (x, phase) in epoch.iter().zip(w.phases) {
                for (k, coll) in phase.program.iter().enumerate() {
                    if coll.algo() != algo {
                        continue;
                    }
                    lat.extend(&x.lat[k]);
                    wall.extend(&x.walls[k]);
                }
            }
        }
        let p50 = |v: &[u64]| {
            if v.is_empty() {
                0.0
            } else {
                percentile(v, 50.0) as f64 / 1e3
            }
        };
        m.put(format!("core.{algo}.wall_us_p50"), p50(&wall), "us");
        m.put(format!("core.{algo}.lat_us_p50"), p50(&lat), "us");
        if !lat.is_empty() {
            notes.push(format!(
                "core.{algo}: wall p50 over {} rank spans, lat p50 over {} collectives",
                wall.len(),
                lat.len()
            ));
        }
    }

    let losses = net_delta(&|s| s.injected_frame_losses);
    m.put(
        "repair.nacks_per_coll",
        repair(&|r| r.nacks_sent) / n,
        "count",
    );
    m.put(
        "repair.nacks_suppressed_per_coll",
        repair(&|r| r.nacks_suppressed) / n,
        "count",
    );
    m.put(
        "repair.retx_per_coll",
        repair(&|r| r.retransmits_sent) / n,
        "count",
    );
    m.put(
        "repair.retx_per_loss",
        ratio(repair(&|r| r.retransmits_sent), losses),
        "ratio",
    );
    let epochs = tr.len() as f64;
    m.put(
        "repair.unanswered_nacks",
        repair(&|r| r.unanswered_nacks) / epochs,
        "count",
    );
    m.put(
        "repair.send_window_stalls",
        repair(&|r| r.send_window_stalls) / epochs,
        "count",
    );

    let advrs = repair(&|r| r.advrs_sent);
    m.put("gossip.advrs_per_coll", advrs / n, "count");
    m.put(
        "gossip.wants_per_coll",
        repair(&|r| r.wants_sent) / n,
        "count",
    );
    m.put(
        "gossip.pulls_per_advr",
        ratio(repair(&|r| r.pulls_answered), advrs),
        "ratio",
    );

    let wire = net_delta(&|s| s.wire_bytes_sent)
        + sum(&|x| {
            x.kernel
                .filter(|_| x.net.is_none())
                .map_or(0.0, |k| k.lo_tx_bytes as f64)
        });
    m.put(
        "wire.bytes_per_payload_byte",
        ratio(wire, payload_bytes),
        "ratio",
    );
    m.put(
        "process.allocs_per_coll",
        sum(&|x| x.allocs as f64) / n,
        "count",
    );
    m.put("process.cpu_ms_per_round", cpu / rounds / 1e6, "ms");
    let plain_cps = ratio(
        runs.plain.iter().map(|e| e.colls as f64).sum(),
        runs.plain.iter().map(|e| e.timed).sum(),
    );
    m.put(
        "trace.overhead",
        ratio(plain_cps, n / sum(&|x| x.timed.as_secs_f64())) - 1.0,
        "ratio",
    );
    notes.push(format!(
        "per-layer: {} traced epochs ({} collectives, {} rounds) against {} untraced; \
         unanswered_nacks and send_window_stalls are counts per epoch",
        tr.len(),
        n,
        rounds,
        runs.plain.len()
    ));
}

/// Write the first traced epoch's collective spans as CSV.
fn write_spans(args: &Args, runs: &Runs) -> Result<PathBuf, String> {
    let dir = args.out_dir.clone().unwrap_or_else(|| PathBuf::from("."));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("spans_{}_{}.csv", args.workload.name, args.seed));
    let mut csv = String::from(
        "phase,rank,round,coll,algo,start_ns,wall_ns,send_calls,send_ns,wait_calls,wait_ns,\
         progress_calls,progress_ns,other_calls,other_ns\n",
    );
    for (x, phase) in runs.traced[0].iter().zip(args.workload.phases) {
        for s in &x.spans {
            let c = &s.child;
            let _ = writeln!(
                csv,
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
                phase.label,
                s.rank,
                s.round,
                s.coll,
                phase.program[s.coll as usize].algo(),
                s.start_ns,
                s.wall_ns,
                c.calls[0],
                c.ns[0],
                c.calls[1],
                c.ns[1],
                c.calls[2],
                c.ns[2],
                c.calls[3],
                c.ns[3]
            );
        }
    }
    std::fs::write(&path, csv).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
                 [--out-dir <dir>]",
                WORKLOADS
                    .iter()
                    .map(|w| w.name)
                    .collect::<Vec<_>>()
                    .join("|")
            );
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mcast = multicast_available(PROBE_BASE_PORT);
    println!(
        "host: kernel={} usable_cpus={cpus} loopback_multicast={mcast}",
        kernel.trim()
    );
    let udp = w.phases.iter().any(|p| matches!(p.backend, Backend::Udp));
    if udp && !mcast {
        eprintln!(
            "perfbench: {}: FAILED: loopback IP multicast is unavailable on this host \
             (the availability probe got no datagram); no figures reported",
            w.name
        );
        return ExitCode::from(3);
    }
    if udp && host::KernelNet::read().is_none() {
        eprintln!(
            "perfbench: {}: FAILED: /proc/net/snmp or /proc/net/dev is unreadable, \
             so UDP frames cannot be counted; no figures reported",
            w.name
        );
        return ExitCode::from(3);
    }
    let runs = match measure(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: FAILED: {e}", w.name);
            return ExitCode::from(1);
        }
    };
    let mut metrics = Metrics::default();
    let mut notes = Vec::new();
    if args.trace {
        per_layer(w, &runs, &mut metrics, &mut notes);
        match write_spans(&args, &runs) {
            Ok(path) => notes.push(format!("spans: {}", path.display())),
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::from(1);
            }
        }
    } else {
        end_to_end(&runs, &mut metrics, &mut notes);
    }
    for abort in &runs.aborts {
        notes.push(format!("aborted world: {abort}"));
    }
    if runs.replay_breaks > 0 {
        notes.push(format!(
            "REPLAY BREAK: {} epochs differ from the first at the same seed",
            runs.replay_breaks
        ));
    }
    if runs.mismatches > 0 {
        notes.push(format!(
            "PAYLOAD MISMATCH: {} broadcast outputs differ from the root's payload",
            runs.mismatches
        ));
    }
    for note in notes {
        println!("{}: {note}", w.name);
    }
    let correct = runs.replay_breaks == 0 && runs.mismatches == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        runs.attempted,
        runs.failed,
        metrics.json()
    );
    ExitCode::SUCCESS
}
