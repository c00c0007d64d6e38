//! The repository's benchmark: four workloads over the BOINC-MR
//! simulator and the rtnet socket runtime.
//!
//! ```text
//! perfbench --workload <table1|volunteer2k|internet100k|peer_fetch>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are the end-to-end metrics; with `--trace 1`
//! they are the per-layer metrics, and the spans of the run are written
//! to `perfbench/out/trace-<workload>-<seed>.json`. See
//! `perfbench/README.md` for what each metric means.

mod fetch;
mod sim;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use trace::Tracer;

/// End-to-end metrics and their units. Every workload reports all of
/// them.
const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("cpu_per_op_ms", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics and their units. Every traced run reports all of
/// them; a layer a workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 63] = [
    ("wall_s", "s"),
    ("makespan_s", "s"),
    ("db.terminal_check_s", "s"),
    ("db.terminal_check_calls", "count"),
    ("policy.hook_s", "s"),
    ("policy.validated_s", "s"),
    ("policy.validated_max_s", "s"),
    ("policy.hook_calls", "count"),
    ("policy.submit_s", "s"),
    ("desim.events", "count"),
    ("desim.events_per_s", "1/s"),
    ("engine.other_s", "s"),
    ("engine.other_share", "ratio"),
    ("vcore.rpcs", "count"),
    ("vcore.empty_replies", "count"),
    ("vcore.grants", "count"),
    ("vcore.grants_per_rpc", "ratio"),
    ("vcore.reports", "count"),
    ("vcore.busy_deferrals", "count"),
    ("vcore.peer_failures", "count"),
    ("vcore.server_fallbacks", "count"),
    ("vcore.transitioner_s", "s"),
    ("vcore.report_delay_s.p50", "s"),
    ("vcore.report_delay_s.p99", "s"),
    ("netsim.realloc_s", "s"),
    ("netsim.realloc_waves", "count"),
    ("netsim.flows_started", "count"),
    ("netsim.bytes_delivered", "B"),
    ("net.coalesce_hits", "count"),
    ("net.aggregates_active", "count"),
    ("shuffle.bytes_p2p", "B"),
    ("shuffle.bytes_server_fallback", "B"),
    ("shuffle.p2p_share", "ratio"),
    ("shuffle.chunks_swarmed", "count"),
    ("shuffle.coded_sends", "count"),
    ("dur.wal_records", "count"),
    ("dur.wal_mib", "MiB"),
    ("dur.snapshots", "count"),
    ("dur.snapshot_s", "s"),
    ("dur.recover_s", "s"),
    ("setup.build_s", "s"),
    ("setup.calibrate_s", "s"),
    ("obs.trace_overhead", "ratio"),
    ("wu_fail_frac", "ratio"),
    ("fetch_fail_frac", "ratio"),
    ("fetch_p50_ms", "ms"),
    ("fetch_p99_ms", "ms"),
    ("fetch_p99_high_ms", "ms"),
    ("rtnet.connect_ms.p50", "ms"),
    ("rtnet.small_p50_ms", "ms"),
    ("rtnet.large_p50_ms", "ms"),
    ("proto.verify_ms", "ms"),
    ("gen.late_p99_ms", "ms"),
    ("rtnet.poll.serve_us.p50", "us"),
    ("rtnet.poll.serve_us.p99", "us"),
    ("rtnet.served", "count"),
    ("rtnet.poll.accepted", "count"),
    ("rtnet.busy_rejections", "count"),
    ("rtnet.poll.backpressure_stalls", "count"),
    ("rtnet.poll.proto_errors", "count"),
    ("rtnet.serve_s", "s"),
    ("desim.run_s", "s"),
    ("setup.store_fill_s", "s"),
];

/// A deliberate fault, injected only by the self-check tests to show
/// that the correctness gates fire.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Tamper {
    #[default]
    None,
    /// Build `table1`'s engines from a config `run_experiment` does not
    /// see.
    Table1Engine,
    /// Cut the tail off `volunteer2k`'s write-ahead log before recovery.
    TruncateWal,
    /// Overwrite one stored `peer_fetch` object after the store is
    /// filled.
    Payload,
}

/// What a workload run measured and checked.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    pub e2e: Vec<(&'static str, f64)>,
    pub layers: Vec<(&'static str, f64)>,
    pub fingerprint: Option<u64>,
}

impl Report {
    pub fn e2e(&mut self, name: &'static str, v: f64) {
        self.e2e.push((name, v));
    }

    pub fn layer(&mut self, name: &'static str, v: f64) {
        self.layers.push((name, v));
    }

    /// True when every gate held.
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    /// Every per-layer metric with its unit; 0 for a layer the workload
    /// did not exercise.
    fn per_layer(&self) -> Vec<(&'static str, f64, &'static str)> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = self
                    .layers
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |p| p.1);
                (name, v, unit)
            })
            .collect()
    }
}

/// The median of `v` (the mean of the middle two for even lengths).
pub fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Derives an independent 64-bit seed from the workload seed and a
/// stream tag (splitmix64 finalizer).
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Peak resident memory of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// CPU seconds the calling thread has run so far
/// (`CLOCK_THREAD_CPUTIME_ID`). Unlike wall time, it leaves out the
/// time the thread waited for a CPU, so a busy host moves it far less.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn thread_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux), which is all the call writes.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if rc == 0 {
        ts.sec as f64 + ts.nsec as f64 / 1e9
    } else {
        f64::NAN
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn thread_cpu_s() -> f64 {
    f64::NAN
}

/// Runs `f` and returns its result with the CPU seconds it took on the
/// calling thread.
pub fn cpu_time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let c = thread_cpu_s();
    let out = f();
    (out, thread_cpu_s() - c)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        workload: get("--workload")?.to_string(),
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not {other}")),
        },
    })
}

/// Runs one workload by name.
fn run_workload(args: &Args, tr: &mut Tracer) -> Result<Report, String> {
    let (seed, secs) = (args.seed, args.seconds);
    Ok(match args.workload.as_str() {
        "table1" => sim::table1(seed, secs, &sim::Table1Geom::full(), Tamper::None, tr),
        "volunteer2k" => sim::volunteer2k(seed, secs, &sim::FleetGeom::full(), Tamper::None, tr),
        "internet100k" => sim::internet100k(secs, &sim::InternetGeom::full(), tr),
        "peer_fetch" => fetch::peer_fetch(seed, secs, &fetch::FetchGeom::full(), Tamper::None, tr)
            .map_err(|e| format!("peer_fetch: {e}"))?,
        other => return Err(format!("unknown workload {other}")),
    })
}

/// The result line: the end-to-end metrics, or every per-layer metric
/// when traced.
fn result_json(rep: &Report, traced: bool) -> String {
    let mut metrics = Vec::new();
    let mut push = |name: &str, unit: &str, v: f64| {
        metrics.push(format!(
            "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        ));
    };
    if traced {
        for (name, v, unit) in rep.per_layer() {
            push(name, unit, v);
        }
    } else {
        for (name, unit) in END_TO_END {
            let v = rep
                .e2e
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |p| p.1);
            push(name, unit, v);
        }
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        rep.correct(),
        rep.attempted.max(1),
        rep.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut tr = Tracer::new(args.trace);
    let mut rep = match run_workload(&args, &mut tr) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    if !args.trace {
        for (name, _) in END_TO_END {
            if !rep.e2e.iter().any(|(n, _)| *n == name) {
                rep.violations
                    .push(format!("metric {name} was not measured"));
            }
        }
    }
    for (name, v) in rep.e2e.iter_mut().chain(rep.layers.iter_mut()) {
        if !v.is_finite() {
            rep.violations.push(format!("metric {name} is {v}"));
            *v = 0.0;
        }
    }
    if rep.failed == 0 && !rep.violations.is_empty() {
        rep.failed = 1;
    }
    for v in &rep.violations {
        eprintln!("perfbench: gate failed: {v}");
    }
    if let Some(fp) = rep.fingerprint {
        println!("sim_fingerprint {} {fp:016x}", args.workload);
    }
    if args.trace {
        let path = PathBuf::from(format!(
            "perfbench/out/trace-{}-{}.json",
            args.workload, args.seed
        ));
        match tr.write(&path, &rep.per_layer()) {
            Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
    }
    println!("{}", result_json(&rep, args.trace));
    ExitCode::SUCCESS
}

/// The self-check: a tiny geometry of each workload passes its gates,
/// and a deliberately broken run of it is counted as failed.
#[cfg(test)]
mod tests {
    use super::*;
    use vmr_core::MrMode;

    fn quiet() -> Tracer {
        Tracer::new(false)
    }

    fn assert_ok(rep: &Report) {
        assert!(rep.correct(), "gates failed: {:?}", rep.violations);
        assert!(rep.attempted > 0);
    }

    fn assert_caught(rep: &Report) {
        assert!(!rep.correct() && rep.failed > 0, "tampering went unnoticed");
    }

    fn tiny_table1() -> sim::Table1Geom {
        // One row of each scheduling mode, as `table1 --quick` runs.
        let rows = vmr_bench::table1_rows();
        let pick = |m: MrMode| *rows.iter().find(|r| r.mode == m).expect("mode has a row");
        sim::Table1Geom {
            rows: vec![pick(MrMode::ServerRelay), pick(MrMode::InterClient)],
            seeds: 1,
        }
    }

    #[test]
    fn table1_engine_must_match_run_experiment() {
        let g = tiny_table1();
        assert_ok(&sim::table1(7, 0.01, &g, Tamper::None, &mut quiet()));
        assert_caught(&sim::table1(
            7,
            0.01,
            &g,
            Tamper::Table1Engine,
            &mut quiet(),
        ));
    }

    #[test]
    fn truncated_wal_fails_the_recovery_gate() {
        let g = sim::FleetGeom {
            hosts: 20,
            wus_per_host: 5,
        };
        let ok = sim::volunteer2k(7, 0.01, &g, Tamper::None, &mut quiet());
        assert_ok(&ok);
        for (name, _) in END_TO_END {
            assert!(ok.e2e.iter().any(|(n, _)| *n == name), "{name} missing");
        }
        assert_caught(&sim::volunteer2k(
            7,
            0.01,
            &g,
            Tamper::TruncateWal,
            &mut quiet(),
        ));
    }

    #[test]
    fn internet_run_passes_its_audits() {
        let g = sim::InternetGeom {
            seed: 7,
            hosts: 2_000,
            maps: 6,
            reduces: 2,
            input_bytes: 24 << 20,
        };
        assert_ok(&sim::internet100k(0.01, &g, &mut quiet()));
    }

    fn tiny_fetch() -> fetch::FetchGeom {
        fetch::FetchGeom {
            small: 8,
            large: 2,
            low_rps: 40.0,
            high_rps: 40.0,
            ..fetch::FetchGeom::full()
        }
    }

    #[test]
    fn tampered_payload_fails_the_byte_compare() {
        let ok = fetch::peer_fetch(7, 0.5, &tiny_fetch(), Tamper::None, &mut quiet())
            .expect("loopback server starts");
        assert_ok(&ok);
        let bad = fetch::peer_fetch(7, 0.5, &tiny_fetch(), Tamper::Payload, &mut quiet())
            .expect("loopback server starts");
        assert_caught(&bad);
    }

    #[test]
    fn traced_run_reports_layers_and_spans() {
        let mut tr = Tracer::new(true);
        let rep = sim::table1(7, 0.01, &tiny_table1(), Tamper::None, &mut tr);
        assert_ok(&rep);
        let get = |k: &str| rep.layers.iter().find(|(n, _)| *n == k).map(|p| p.1);
        for (name, _) in PER_LAYER
            .iter()
            .filter(|(n, _)| n.starts_with("db.") || n.starts_with("netsim."))
        {
            assert!(get(name).is_some(), "{name} missing");
        }
        assert!(
            get("netsim.realloc_s").unwrap() > 0.0,
            "profiling scopes were off"
        );
        assert!(get("db.terminal_check_calls").unwrap() > 0.0);
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out/selfcheck-trace.json");
        tr.write(&path, &[]).expect("trace written");
        let text = std::fs::read_to_string(&path).expect("trace readable");
        std::fs::remove_file(&path).expect("trace removed");
        assert!(text.contains("\"name\":\"row1\"") && text.contains("\"name\":\"gate\""));
    }
}
