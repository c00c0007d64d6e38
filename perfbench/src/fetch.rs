//! `peer_fetch`: a `PollServer` on loopback serving an `OutputStore` of
//! mixed objects to one open-loop generator thread.
//!
//! Most requests fetch a small object of a few KiB, where per-request
//! cost dominates (connect and accept, a poll tick, framing). About one
//! in ten fetches a map-output partition of at least 1 MiB, where
//! per-byte cost dominates (SHA-256 at serve and again at verify, plus
//! copies). Every request opens its own connection; at most two are in
//! flight. Requests are due on a seeded schedule at two fixed rates,
//! and latency is timed from each request's due time, so a stall also
//! counts against the requests queued behind it.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};
use vmr_obs::Obs;
use vmr_rtnet::poll::{fd_of, PollSet};
use vmr_rtnet::proto::{decode_response, encode_request, FrameDecoder};
use vmr_rtnet::{OutputStore, PollServer, PollServerConfig, Request, Response};

use crate::trace::Tracer;
use crate::{median, mix, peak_rss_mib, thread_cpu_s, Report, Tamper};

/// Objects, mix and rates of `peer_fetch`.
pub struct FetchGeom {
    pub small: usize,
    pub small_bytes: (usize, usize),
    pub large: usize,
    pub large_bytes: (usize, usize),
    /// The two open-loop rates, requests per second. Driven closed loop
    /// (two connections, always busy), the server completes about 430
    /// requests/s on a quiet 2-vCPU Xeon VM and about half that when
    /// the host is busy; both rates stay clear of overload either way,
    /// since a step near capacity made every latency unsteady.
    pub low_rps: f64,
    pub high_rps: f64,
}

impl FetchGeom {
    pub fn full() -> Self {
        FetchGeom {
            small: 256,
            small_bytes: (1 << 10, 8 << 10),
            large: 16,
            large_bytes: (1 << 20, (1 << 20) + (64 << 10)),
            low_rps: 50.0,
            high_rps: 100.0,
        }
    }
}

/// A request no response arrived for within this long is failed.
const ANSWER_TIMEOUT: Duration = Duration::from_secs(5);
const IN_FLIGHT: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 101;

/// A splitmix64 stream: the workload's only source of randomness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0, 0)
    }
    /// Uniform in [0, 1).
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo + 1) as u64) as usize
    }
}

/// The objects a store is filled with, drawn from the seed.
fn objects(geom: &FetchGeom, seed: u64) -> Objects {
    let mut rng = Rng(mix(seed, 0xF37C));
    let mut out = Vec::new();
    for i in 0..geom.small + geom.large {
        let large = i >= geom.small;
        let (lo, hi) = if large {
            geom.large_bytes
        } else {
            geom.small_bytes
        };
        let len = rng.range(lo, hi);
        let mut data = Vec::with_capacity(len + 8);
        while data.len() < len {
            data.extend_from_slice(&rng.next().to_le_bytes());
        }
        data.truncate(len);
        let data = Bytes::from(data);
        let name = if large {
            format!("mr0-map{}-part{}", i - geom.small, i % 4)
        } else {
            format!("obj{i}")
        };
        out.push((name, data, large));
    }
    out
}

/// One request of the schedule: which object, and when it is due,
/// as an offset from the start of its step.
struct Due {
    object: usize,
    at: Duration,
}

fn schedule(geom: &FetchGeom, rng: &mut Rng, rps: f64, seconds: f64) -> Vec<Due> {
    let mut out = Vec::new();
    let mut t = 0.0;
    let mut large_at = 0;
    for i in 0.. {
        // Inter-arrival times jitter ±50% around the mean interval.
        t += (0.5 + rng.unit()) / rps;
        if t >= seconds {
            break;
        }
        // One request in each block of ten is large, at a seeded offset
        // that keeps two large requests at least four apart: large
        // requests rarely overlap, so the tail measures a large fetch
        // rather than how often two happened to collide.
        if i % 10 == 0 {
            large_at = i + rng.range(2, 7);
        }
        let object = if i == large_at {
            geom.small + rng.range(0, geom.large - 1)
        } else {
            rng.range(0, geom.small - 1)
        };
        out.push(Due {
            object,
            at: Duration::from_secs_f64(t),
        });
    }
    out
}

/// What one request saw. Times are seconds; `latency_s` runs from the
/// due time to the verified payload and is infinite for a failure.
struct Outcome {
    large: bool,
    late_s: f64,
    connect_s: f64,
    service_s: f64,
    verify_s: f64,
    latency_s: f64,
}

/// A request on the wire.
struct Req {
    object: usize,
    due: Instant,
    sent: Instant,
    out: Outcome,
}

fn fail(errors: &mut Vec<String>, done: &mut Vec<Outcome>, req: Req, why: String) {
    let mut out = req.out;
    out.service_s = req.sent.elapsed().as_secs_f64();
    out.latency_s = f64::INFINITY;
    done.push(out);
    errors.push(why);
}

/// Drives one step's schedule open loop with at most [`IN_FLIGHT`]
/// connections open; returns every request's outcome and the errors.
/// A connection closes as soon as its response is in, and due requests
/// are launched before any received response is verified, so the
/// generator's own hashing delays launches as little as one thread
/// allows.
fn drive(addr: SocketAddr, objs: &Objects, sched: &[Due]) -> (Vec<Outcome>, Vec<String>) {
    let mut done = Vec::with_capacity(sched.len());
    let mut errors = Vec::new();
    let mut open: Vec<(TcpStream, FrameDecoder, Req)> = Vec::new();
    let mut received: VecDeque<(Req, BytesMut)> = VecDeque::new();
    let mut set = PollSet::new();
    let mut buf = vec![0u8; 256 << 10];
    let start = Instant::now();
    let mut next = 0;
    while next < sched.len() || !open.is_empty() || !received.is_empty() {
        while next < sched.len() && open.len() < IN_FLIGHT {
            let due = start + sched[next].at;
            let now = Instant::now();
            if due > now {
                break;
            }
            let object = sched[next].object;
            next += 1;
            let mut req = Req {
                object,
                due,
                sent: now,
                out: Outcome {
                    large: objs[object].2,
                    late_s: (now - due).as_secs_f64(),
                    connect_s: 0.0,
                    service_s: 0.0,
                    verify_s: 0.0,
                    latency_s: 0.0,
                },
            };
            let opened = TcpStream::connect(addr).and_then(|mut s| {
                req.out.connect_s = req.sent.elapsed().as_secs_f64();
                reset_on_close(&s)?;
                quick_ack(&s)?;
                s.set_nodelay(true)?;
                let mut frame = BytesMut::new();
                encode_request(&Request::Get(objs[object].0.clone()), &mut frame);
                s.write_all(&frame.to_vec())?;
                s.set_nonblocking(true)?;
                Ok(s)
            });
            match opened {
                Ok(stream) => open.push((stream, FrameDecoder::new(), req)),
                Err(e) => fail(&mut errors, &mut done, req, format!("connect/send: {e}")),
            }
        }
        if let Some((mut req, frame)) = received.pop_front() {
            let t = Instant::now();
            let resp = decode_response(frame);
            let end = Instant::now();
            req.out.verify_s = (end - t).as_secs_f64();
            let (name, want) = (&objs[req.object].0, &objs[req.object].1);
            let bad = match resp {
                Ok(Response::Data(body)) if body[..] == want[..] => None,
                Ok(Response::Data(_)) => Some(format!("payload of {name} differs from the store")),
                Ok(other) => Some(format!("{name}: answered {other:?}")),
                Err(e) => Some(format!("{name}: {e}")),
            };
            match bad {
                None => {
                    req.out.service_s = (end - req.sent).as_secs_f64();
                    req.out.latency_s = (end - req.due).as_secs_f64();
                    done.push(req.out);
                }
                Some(why) => fail(&mut errors, &mut done, req, why),
            }
            continue;
        }
        // Busy-poll rather than sleep: a sleeping generator would add
        // its own wake-up latency to every request it times.
        if open.is_empty() {
            std::hint::spin_loop();
            continue;
        }
        set.clear();
        for (i, (s, _, _)) in open.iter().enumerate() {
            set.register(fd_of(s), i as u64, true, false);
        }
        if let Err(e) = set.wait(Duration::ZERO) {
            assert!(e.kind() == io::ErrorKind::Interrupted, "poll failed: {e}");
        }
        let mut ready: Vec<usize> = set.ready().map(|(tok, _)| tok as usize).collect();
        let now = Instant::now();
        for (i, (_, _, req)) in open.iter().enumerate() {
            if now - req.sent > ANSWER_TIMEOUT && !ready.contains(&i) {
                ready.push(i);
            }
        }
        // Highest index first, so `swap_remove` leaves the rest valid.
        ready.sort_unstable_by(|a, b| b.cmp(a));
        for i in ready {
            let (stream, dec, _) = &mut open[i];
            let step: Option<Result<BytesMut, String>> = loop {
                match dec.next_frame() {
                    Ok(Some(frame)) => break Some(Ok(frame)),
                    Ok(None) => {}
                    Err(e) => break Some(Err(format!("framing: {e}"))),
                }
                match stream.read(&mut buf) {
                    Ok(0) => break Some(Err("closed before the response".to_string())),
                    Ok(n) => {
                        dec.push(&buf[..n]);
                        if let Err(e) = quick_ack(stream) {
                            break Some(Err(format!("setsockopt: {e}")));
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break None,
                    Err(e) => break Some(Err(format!("read: {e}"))),
                }
            };
            let step = match step {
                None if now - open[i].2.sent > ANSWER_TIMEOUT => {
                    Some(Err("unanswered".to_string()))
                }
                s => s,
            };
            if let Some(r) = step {
                let (_, _, req) = open.swap_remove(i);
                match r {
                    Ok(frame) => received.push_back((req, frame)),
                    Err(why) => fail(&mut errors, &mut done, req, why),
                }
            }
        }
    }
    (done, errors)
}

/// `setsockopt(2)` for the two socket options std does not expose.
#[cfg(target_os = "linux")]
fn set_opt<T>(s: &TcpStream, level: i32, name: i32, value: &T) -> io::Result<()> {
    use std::os::fd::AsRawFd;
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const u8, len: u32) -> i32;
    }
    // SAFETY: the descriptor belongs to `s`, which outlives the call;
    // `value` points to a live `T` and its exact size is passed.
    let rc = unsafe {
        setsockopt(
            s.as_raw_fd(),
            level,
            name,
            (value as *const T).cast(),
            std::mem::size_of::<T>() as u32,
        )
    };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// Makes closing `s` send a reset instead of a FIN (`SO_LINGER` with a
/// zero timeout; `[on, seconds]` has the layout of `struct linger`).
/// Each run opens thousands of short connections; closed normally, each
/// would leave a TIME_WAIT entry behind for a minute, and back-to-back
/// runs slowed as those piled up.
#[cfg(target_os = "linux")]
fn reset_on_close(s: &TcpStream) -> io::Result<()> {
    set_opt(s, 1, 13, &[1i32, 0i32])
}

/// Acknowledges received data at once (`TCP_QUICKACK`, which the
/// kernel clears again, so it is re-armed after every read). Without
/// it, some large responses stalled for a delayed-ACK timeout (about
/// 20 ms more per hit), a generator artefact that made the tail
/// latency bimodal.
#[cfg(target_os = "linux")]
fn quick_ack(s: &TcpStream) -> io::Result<()> {
    set_opt(s, 6, 12, &1i32)
}

#[cfg(not(target_os = "linux"))]
fn reset_on_close(_s: &TcpStream) -> io::Result<()> {
    Ok(())
}

#[cfg(not(target_os = "linux"))]
fn quick_ack(_s: &TcpStream) -> io::Result<()> {
    Ok(())
}

/// CPU seconds used so far by every thread of this process but the
/// main one: the server loop's, since the generator runs on the main
/// thread.
fn server_cpu_s() -> io::Result<f64> {
    let main = std::process::id().to_string();
    let mut ns = 0u64;
    for task in std::fs::read_dir("/proc/self/task")? {
        let task = task?;
        if task.file_name().to_str() == Some(main.as_str()) {
            continue;
        }
        let stat = std::fs::read_to_string(task.path().join("schedstat"))?;
        ns += stat
            .split_whitespace()
            .next()
            .and_then(|v| v.parse::<u64>().ok())
            .ok_or_else(|| io::Error::other(format!("unreadable schedstat: {stat}")))?;
    }
    Ok(ns as f64 / 1e9)
}

/// Nearest-rank quantile, milliseconds.
fn quantile_ms(mut v: Vec<f64>, q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1] * 1e3
}

/// The objects a store holds: `(name, bytes, large)`. The store and
/// the generator share each object's buffer.
type Objects = Vec<(String, Bytes, bool)>;

/// One set-up: fill a fresh store with the objects and start a server
/// on it. Returns the server, and the CPU seconds the whole set-up and
/// the fill took. The objects are drawn once, before any set-up, so
/// only the program's own work is timed.
fn start(objs: &Objects, obs: &Obs) -> io::Result<(PollServer, f64, f64)> {
    let c = thread_cpu_s();
    let store = Arc::new(OutputStore::new());
    for (name, data, _) in objs {
        store.put(name.clone(), data.clone());
    }
    let fill_s = thread_cpu_s() - c;
    let server = PollServer::start_with_obs(store, PollServerConfig::new(64), obs)?;
    Ok((server, thread_cpu_s() - c, fill_s))
}

pub fn peer_fetch(
    seed: u64,
    seconds: f64,
    geom: &FetchGeom,
    tamper: Tamper,
    tr: &mut Tracer,
) -> io::Result<Report> {
    let traced = tr.on();
    let mut rng = Rng(mix(seed, 0x5C4ED));
    let step_s = seconds / 2.0;
    let low = schedule(geom, &mut rng, geom.low_rps, step_s);
    let high = schedule(geom, &mut rng, geom.high_rps, step_s);
    tr.span("peer_fetch", |tr| {
        let obs = Obs::detached();
        let objs = tr.span("draw_objects", |_| objects(geom, seed));
        // [`SETUPS`] set-ups; the last one's server carries the load.
        let mut setups = Vec::new();
        let mut fills = Vec::new();
        let mut last: Option<PollServer> = None;
        tr.span("setup", |_| -> io::Result<()> {
            for _ in 0..SETUPS {
                let (server, setup_s, fill_s) = start(&objs, &obs)?;
                setups.push(setup_s);
                fills.push(fill_s);
                if let Some(old) = last.replace(server) {
                    old.shutdown();
                }
            }
            Ok(())
        })?;
        let server = last.expect("set-ups ran");
        if tamper == Tamper::Payload {
            let (name, data, _) = &objs[0];
            let mut bad = data.to_vec();
            bad[0] ^= 0xff;
            server.store().put(name.clone(), Bytes::from(bad));
        }
        let addr = server.addr();
        // Warm-up, untimed: every large object and a few small ones.
        let warm: Vec<Due> = (geom.small - 8.min(geom.small)..objs.len())
            .map(|object| Due {
                object,
                at: Duration::ZERO,
            })
            .collect();
        let (_, warm_errors) = tr.span("warm_up", |_| drive(addr, &objs, &warm));
        let mut baseline = None;
        let mut base_errors = Vec::new();
        let mut base_due = 0;
        if traced {
            // Profiling off: the baseline of the tracing overhead.
            let (out, errors) = tr.span("step_low_untraced", |_| drive(addr, &objs, &low));
            baseline = Some(quantile_ms(out.iter().map(|o| o.latency_s).collect(), 0.5));
            base_errors = errors;
            base_due = low.len();
            obs.set_profiling(true);
        }
        let before_served = obs.snapshot().histogram("rtnet.poll.serve_us").count;
        let cpu0 = server_cpu_s()?;
        let (low_out, low_errors) = tr.span("step_low", |_| drive(addr, &objs, &low));
        let (high_out, high_errors) = tr.span("step_high", |_| drive(addr, &objs, &high));
        let cpu = server_cpu_s()? - cpu0;
        let snap = obs.snapshot();
        server.shutdown();

        let violations: Vec<String> = warm_errors
            .iter()
            .chain(&base_errors)
            .chain(&low_errors)
            .chain(&high_errors)
            .map(|e| format!("peer_fetch: {e}"))
            .collect();
        let mut rep = Report {
            attempted: (warm.len() + base_due + low.len() + high.len()) as u64,
            failed: violations.len() as u64,
            violations,
            ..Report::default()
        };
        let lat = |v: &[Outcome]| v.iter().map(|o| o.latency_s).collect::<Vec<f64>>();
        let p50 = quantile_ms(lat(&low_out), 0.5);
        rep.e2e("setup_s", median(setups));
        // Server CPU per request served in the two timed steps: the
        // server's cost, steadier than any latency the generator sees.
        let served = snap.histogram("rtnet.poll.serve_us").count - before_served;
        rep.e2e("cpu_per_op_ms", cpu * 1e3 / served.max(1) as f64);
        rep.e2e("peak_rss_mib", peak_rss_mib());
        rep.layer("fetch_p50_ms", p50);
        rep.layer("fetch_p99_ms", quantile_ms(lat(&low_out), 0.99));
        rep.layer("fetch_p99_high_ms", quantile_ms(lat(&high_out), 0.99));

        let both = || low_out.iter().chain(&high_out);
        let ok_low = |large: bool| {
            low_out
                .iter()
                .filter(|o| o.large == large && o.latency_s.is_finite())
                .map(|o| o.service_s)
                .collect::<Vec<f64>>()
        };
        rep.layer(
            "fetch_fail_frac",
            (low_errors.len() + high_errors.len()) as f64 / (low.len() + high.len()).max(1) as f64,
        );
        rep.layer(
            "rtnet.connect_ms.p50",
            quantile_ms(both().map(|o| o.connect_s).collect(), 0.5),
        );
        rep.layer("rtnet.small_p50_ms", quantile_ms(ok_low(false), 0.5));
        rep.layer("rtnet.large_p50_ms", quantile_ms(ok_low(true), 0.5));
        rep.layer(
            "proto.verify_ms",
            quantile_ms(
                both().filter(|o| o.large).map(|o| o.verify_s).collect(),
                0.5,
            ),
        );
        rep.layer(
            "gen.late_p99_ms",
            quantile_ms(both().map(|o| o.late_s).collect(), 0.99),
        );
        let serve = snap.histogram("rtnet.poll.serve_us");
        rep.layer("rtnet.poll.serve_us.p50", serve.p50);
        rep.layer("rtnet.poll.serve_us.p99", serve.p99);
        for k in [
            "rtnet.served",
            "rtnet.poll.accepted",
            "rtnet.busy_rejections",
            "rtnet.poll.backpressure_stalls",
            "rtnet.poll.proto_errors",
        ] {
            rep.layer(k, snap.counter(k) as f64);
        }
        let prof = snap.histogram("prof.rtnet.serve_us");
        rep.layer("rtnet.serve_s", prof.mean * prof.count as f64 / 1e6);
        rep.layer("setup.store_fill_s", median(fills));
        if let Some(b) = baseline {
            rep.layer("obs.trace_overhead", p50 / b - 1.0);
        }
        Ok(rep)
    })
}
