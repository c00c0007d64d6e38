//! The three simulation workloads: `table1`, `volunteer2k` and
//! `internet100k`. Each runs single-threaded on one shard, as
//! `run_experiment` does, and repeats identical passes until its time
//! is up; host times are medians over passes.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use vmr_bench::{row_config, table1_rows, Table1Row};
use vmr_core::{
    run_experiment, ExperimentConfig, MrJobConfig, MrMode, MrPolicy, Phase, RecoveredServerState,
    SizingModel,
};
use vmr_desim::SimTime;
use vmr_durable::{DurabilityPlan, Journal};
use vmr_mapreduce::apps::WordCount;
use vmr_mapreduce::{CorpusGen, CorpusSpec};
use vmr_netsim::HostLink;
use vmr_obs::{MetricValue, Snapshot};
use vmr_vcore::{
    Engine, FileSource, HostProfile, NullPolicy, PopulationSpec, Preset, ProjectConfig,
    WorkUnitSpec, WuState,
};

use crate::trace::{self, Layers, Tracer};
use crate::{cpu_time, median, mix, peak_rss_mib, Report, Tamper};

/// Geometry of `table1`: the rows, and how many seeds each pass runs
/// every row under.
pub struct Table1Geom {
    pub rows: Vec<Table1Row>,
    pub seeds: usize,
}

impl Table1Geom {
    /// The paper's nine Table I rows over eight seeds.
    pub fn full() -> Self {
        Table1Geom {
            rows: table1_rows(),
            seeds: 8,
        }
    }
}

/// Geometry of `volunteer2k`.
pub struct FleetGeom {
    pub hosts: u32,
    pub wus_per_host: u32,
}

impl FleetGeom {
    /// 2000 pc3001 hosts, 25 work units each.
    pub fn full() -> Self {
        FleetGeom {
            hosts: 2000,
            wus_per_host: 25,
        }
    }
}

/// Geometry of `internet100k`: the `BENCH_shuffle` smoke leg.
///
/// Its population and engine seed are pinned, not drawn from the
/// workload seed. A job on an internet population is straggler-bound:
/// over five workload seeds its makespan ranged from 1.3k to 12.4k
/// simulated seconds and its wall time from 8 to 14 s, a spread no
/// regression bound could hold. Pinned, the run repeats exactly and
/// its wall time varies only with the host.
pub struct InternetGeom {
    pub seed: u64,
    pub hosts: usize,
    pub maps: usize,
    pub reduces: usize,
    pub input_bytes: u64,
}

impl InternetGeom {
    pub fn full() -> Self {
        InternetGeom {
            seed: 0x5FF1E,
            hosts: 100_000,
            maps: 60,
            reduces: 12,
            input_bytes: 240 << 20,
        }
    }
}

/// Counters and histograms summed over the engines of one pass.
#[derive(Default)]
struct Counters {
    sums: BTreeMap<String, f64>,
    p50s: BTreeMap<String, Vec<f64>>,
    p99s: BTreeMap<String, f64>,
}

impl Counters {
    fn add(&mut self, snap: &Snapshot) {
        for (k, v) in &snap.entries {
            match v {
                MetricValue::Counter(n) => *self.sums.entry(k.clone()).or_default() += *n as f64,
                MetricValue::Gauge(g) => *self.sums.entry(k.clone()).or_default() += g,
                MetricValue::Histogram(h) if h.count > 0 => {
                    *self.sums.entry(format!("{k}.sum")).or_default() += h.mean * h.count as f64;
                    *self.sums.entry(format!("{k}.count")).or_default() += h.count as f64;
                    self.p50s.entry(k.clone()).or_default().push(h.p50);
                    let p99 = self.p99s.entry(k.clone()).or_default();
                    *p99 = p99.max(h.p99);
                }
                _ => {}
            }
        }
    }

    fn get(&self, k: &str) -> f64 {
        self.sums.get(k).copied().unwrap_or(0.0)
    }
}

/// What one pass of a simulation workload measured.
#[derive(Default)]
struct Pass {
    setup_s: f64,
    run_s: f64,
    /// CPU seconds of each timed piece of work, in a fixed order: every
    /// simulated run, and for `volunteer2k` each recovery.
    cpu_pieces: Vec<f64>,
    events: u64,
    makespans: Vec<f64>,
    wus: usize,
    wus_failed: usize,
    runs: u64,
    failed_runs: u64,
    violations: Vec<String>,
    layers: Layers,
    counters: Counters,
    fingerprint: u64,
    recover_s: Vec<f64>,
    /// Peak resident memory once the pass's simulations had run, before
    /// the benchmark's own checks allocated anything large.
    rss_mib: f64,
}

impl Pass {
    /// Folds one finished engine run into the pass: conservation
    /// audits, counters and the fingerprint.
    fn absorb(
        &mut self,
        label: &str,
        eng: &Engine,
        pol: Option<&MrPolicy>,
        events: u64,
        makespan: f64,
    ) {
        let before = self.violations.len();
        let snap = eng.obs.snapshot();
        audit(label, eng, pol, &snap, &mut self.violations);
        self.runs += 1;
        if self.violations.len() > before {
            self.failed_runs += 1;
        }
        self.events += events;
        self.makespans.push(makespan);
        self.wus += eng.db.n_wus();
        self.wus_failed += eng.db.count_state(WuState::Failed);
        let mut fp = Fnv(self.fingerprint ^ 0xcbf2_9ce4_8422_2325);
        fp.u64(makespan.to_bits());
        fp.u64(events);
        fp.u64(eng.now().as_micros());
        for k in FINGERPRINT_COUNTERS {
            fp.u64(snap.counter(k));
        }
        self.fingerprint = fp.0;
        self.counters.add(&snap);
    }
}

const FINGERPRINT_COUNTERS: [&str; 10] = [
    "vcore.rpcs",
    "vcore.grants",
    "vcore.reports",
    "vcore.empty_replies",
    "netsim.flows_started",
    "netsim.bytes_delivered",
    "shuffle.bytes_p2p",
    "shuffle.bytes_server_fallback",
    "dur.wal_records",
    "dur.wal_bytes",
];

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// The checks every simulated run must pass. Each is independent of
/// the model: a legitimate model change still passes them.
fn audit(label: &str, eng: &Engine, pol: Option<&MrPolicy>, snap: &Snapshot, v: &mut Vec<String>) {
    let n = eng.db.n_wus();
    let validated = eng.db.count_state(WuState::Validated);
    let failed = eng.db.count_state(WuState::Failed);
    let active = eng.db.count_state(WuState::Active);
    if validated + failed + active != n || active != 0 || !eng.db.all_wus_terminal() {
        v.push(format!(
            "{label}: {n} WUs, {validated} validated + {failed} failed + {active} active"
        ));
    }
    let (grants, reports) = (snap.counter("vcore.grants"), snap.counter("vcore.reports"));
    if reports > grants {
        v.push(format!("{label}: {reports} reports > {grants} grants"));
    }
    let Some(pol) = pol else { return };
    for (j, job) in pol.tracker.jobs.iter().enumerate() {
        if job.phase != Phase::Done {
            v.push(format!("{label}: job {j} ended in {:?}", job.phase));
        }
    }
    // Every peer-sourced reduce input is fetched once by each replica
    // that was sent, from a peer or from the server after peer attempts
    // failed; a replica that holds the file itself reads it locally.
    let mut planned = 0u64;
    for job in &pol.tracker.jobs {
        for &wu in &job.reduce_wus {
            let inputs = &eng.db.wu(wu).spec.inputs;
            for &rid in eng.db.results_of(wu) {
                let Some(client) = eng.db.result(rid).client else {
                    continue;
                };
                for f in inputs {
                    if let FileSource::Peers(holders) = &f.source {
                        if !holders.contains(&client) {
                            planned += f.bytes;
                        }
                    }
                }
            }
        }
    }
    let moved = snap.counter("shuffle.bytes_p2p") + snap.counter("shuffle.bytes_server_fallback");
    if moved != planned {
        v.push(format!(
            "{label}: shuffle moved {moved} B, reduce inputs planned {planned} B"
        ));
    }
}

/// Runs passes until `seconds` have gone by (at least one), after four
/// extra set-ups so `setup_s` is a median of at least five. In a traced
/// run, untraced and traced passes alternate.
fn repeat(
    seconds: f64,
    traced: bool,
    tr: &mut Tracer,
    mut setup_only: impl FnMut() -> f64,
    mut pass: impl FnMut(usize, bool, &mut Tracer) -> Pass,
) -> (Vec<f64>, Vec<Pass>, Vec<Pass>) {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut setups: Vec<f64> = tr.span("setup", |_| (0..4).map(|_| setup_only()).collect());
    let (mut plain, mut with_trace) = (Vec::new(), Vec::new());
    for k in 0.. {
        let p = tr.span("pass", |tr| pass(k, false, tr));
        setups.push(p.setup_s);
        plain.push(p);
        if traced {
            let p = tr.span("traced_pass", |tr| pass(k, true, tr));
            with_trace.push(p);
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    (setups, plain, with_trace)
}

/// How a simulation workload's CPU time per pass is read from its
/// untraced passes.
#[derive(Clone, Copy)]
enum PassCpu {
    /// The median over passes: for a few long passes, each of which
    /// sees the host's speed over seconds.
    Median,
    /// The sum over the pass's pieces of each piece's fastest repetition:
    /// for many passes of short pieces, where the host's dips of a
    /// second or two are then left out.
    FastestPieces,
}

/// Fills `rep` from the passes: end-to-end metrics from the untraced
/// passes, per-layer metrics from the last traced one. Every pass must
/// reproduce the first pass's simulated output exactly.
fn summarize(rep: &mut Report, setups: &[f64], plain: &[Pass], traced: &[Pass], pass_cpu: PassCpu) {
    let first = &plain[0];
    for (i, p) in plain.iter().chain(traced).enumerate() {
        rep.attempted += p.runs;
        rep.failed += p.failed_runs;
        rep.violations.extend(p.violations.iter().cloned());
        if p.fingerprint != first.fingerprint {
            rep.violations
                .push(format!("pass {i}: simulated output differs from pass 0"));
            rep.failed += 1;
        }
    }
    let wall = median(plain.iter().map(|p| p.run_s).collect());
    rep.fingerprint = Some(first.fingerprint);
    rep.e2e("setup_s", median(setups.to_vec()));
    let cpu_s = match pass_cpu {
        PassCpu::Median => median(plain.iter().map(|p| p.cpu_pieces.iter().sum()).collect()),
        // Every pass repeats the same work, so noise from the host only
        // adds time.
        PassCpu::FastestPieces => (0..first.cpu_pieces.len())
            .map(|i| {
                plain
                    .iter()
                    .map(|p| p.cpu_pieces[i])
                    .fold(f64::INFINITY, f64::min)
            })
            .sum(),
    };
    rep.e2e("cpu_per_op_ms", cpu_s * 1e3);
    rep.layer("wall_s", wall);
    rep.e2e("peak_rss_mib", first.rss_mib);
    rep.layer(
        "makespan_s",
        first.makespans.iter().sum::<f64>() / first.makespans.len() as f64,
    );
    rep.layer(
        "wu_fail_frac",
        first.wus_failed as f64 / first.wus.max(1) as f64,
    );
    rep.layer("desim.events", first.events as f64);
    rep.layer("desim.events_per_s", first.events as f64 / wall);
    let Some(t) = traced.last() else { return };
    let c = &t.counters;
    let l = &t.layers;
    let us = |k: &str| c.get(&format!("prof.{k}_us.sum")) / 1e6;
    let (realloc_s, transitioner_s, snapshot_s) = (
        us("netsim.realloc_wave"),
        us("vcore.transitioner_sweep"),
        c.get("dur.snapshot_us.sum") / 1e6,
    );
    let attributed = l.terminal_s + l.hook_s + realloc_s + transitioner_s + snapshot_s;
    let other = t.run_s - attributed;
    rep.layer("db.terminal_check_s", l.terminal_s);
    rep.layer("db.terminal_check_calls", l.terminal_calls as f64);
    rep.layer("policy.hook_s", l.hook_s);
    rep.layer("policy.validated_s", l.validated_s);
    rep.layer("policy.validated_max_s", l.validated_max_s);
    rep.layer("policy.hook_calls", l.hook_calls as f64);
    rep.layer("policy.submit_s", l.submit_s);
    rep.layer("desim.run_s", t.run_s);
    rep.layer("engine.other_s", other);
    rep.layer("engine.other_share", other / t.run_s);
    let (rpcs, grants) = (c.get("vcore.rpcs"), c.get("vcore.grants"));
    for k in [
        "vcore.rpcs",
        "vcore.empty_replies",
        "vcore.grants",
        "vcore.reports",
        "vcore.busy_deferrals",
        "vcore.peer_failures",
        "vcore.server_fallbacks",
        "netsim.realloc_waves",
        "netsim.flows_started",
        "netsim.bytes_delivered",
        "net.coalesce_hits",
        "net.aggregates_active",
        "shuffle.bytes_p2p",
        "shuffle.bytes_server_fallback",
        "shuffle.chunks_swarmed",
        "shuffle.coded_sends",
        "dur.wal_records",
    ] {
        rep.layer(k, c.get(k));
    }
    rep.layer("vcore.grants_per_rpc", grants / rpcs.max(1.0));
    rep.layer("vcore.transitioner_s", transitioner_s);
    let p50s = c
        .p50s
        .get("vcore.report_delay_s")
        .cloned()
        .unwrap_or_default();
    rep.layer(
        "vcore.report_delay_s.p50",
        if p50s.is_empty() { 0.0 } else { median(p50s) },
    );
    rep.layer(
        "vcore.report_delay_s.p99",
        c.p99s.get("vcore.report_delay_s").copied().unwrap_or(0.0),
    );
    rep.layer("netsim.realloc_s", realloc_s);
    let moved = c.get("shuffle.bytes_p2p") + c.get("shuffle.bytes_server_fallback");
    rep.layer(
        "shuffle.p2p_share",
        c.get("shuffle.bytes_p2p") / moved.max(1.0),
    );
    rep.layer("dur.wal_mib", c.get("dur.wal_bytes") / (1u64 << 20) as f64);
    rep.layer("dur.snapshots", c.get("dur.snapshot_us.count"));
    rep.layer("dur.snapshot_s", snapshot_s);
    rep.layer("dur.recover_s", t.recover_s.first().copied().unwrap_or(0.0));
    rep.layer("setup.build_s", l.build_s);
    rep.layer("setup.calibrate_s", l.calibrate_s);
    let traced_wall = median(traced.iter().map(|p| p.run_s).collect());
    rep.layer("obs.trace_overhead", traced_wall / wall - 1.0);
}

// ----- table1 ---------------------------------------------------------------

/// Builds a Table I testbed the way `run_experiment` does, from the
/// public builder: the benchmark times the pieces that function hides.
fn build_testbed(cfg: &ExperimentConfig, layers: &mut Layers) -> (Engine, MrPolicy) {
    let mut pc = ProjectConfig {
        backoff_max_s: cfg.backoff_max_s,
        report_results_immediately: cfg.mitigation.immediate_report,
        locality_scheduling: cfg.locality_scheduling,
        trust: cfg.trust.clone(),
        shuffle: cfg.shuffle.clone(),
        ..ProjectConfig::default()
    };
    pc.backoff_min_s = pc.backoff_min_s.min(cfg.backoff_max_s);
    let volunteers: Vec<_> = (0..cfg.nodes.total())
        .map(|i| {
            let mut prof = if i < cfg.nodes.pc3001 {
                HostProfile::pc3001()
            } else {
                HostProfile::pcr200()
            };
            prof.availability = cfg.availability;
            (prof, HostLink::symmetric_mbit(100.0, 0.000_5))
        })
        .collect();
    let journal = Journal::new(&cfg.durable).expect("a disabled journal opens no file");
    let builder = Engine::builder(cfg.seed)
        .config(pc)
        .shards(cfg.shards.max(1))
        .journal(journal)
        .clients(volunteers);
    let mut eng = trace::build(builder, layers);
    eng.obs.journal.set_enabled(false);
    eng.traversal = cfg.traversal.clone();
    eng.fault = cfg.fault.clone();
    let mut pol = MrPolicy::new();
    let mut jc = MrJobConfig::paper_wordcount(cfg.n_maps, cfg.n_reduces, cfg.mode);
    jc.input_bytes = cfg.input_bytes;
    jc.replication = cfg.replication;
    jc.quorum = cfg.quorum;
    jc.sizing = cfg.sizing;
    jc.mitigation = cfg.mitigation;
    jc.delay_bound_s = cfg.delay_bound_s;
    trace::submit(&mut pol, &mut eng, jc, layers);
    (eng, pol)
}

/// Table I's calibration: generate a 2 MiB word-count corpus from the
/// workload seed and measure the application on it.
fn calibrate(seed: u64, layers: &mut Layers) -> SizingModel {
    let t = Instant::now();
    let spec = CorpusSpec {
        seed: mix(seed, 0xC0),
        ..CorpusSpec::default()
    };
    let sample = CorpusGen::new(&spec).generate(2 << 20);
    let sizing = SizingModel::calibrate(&WordCount, &sample);
    layers.calibrate_s += t.elapsed().as_secs_f64();
    sizing
}

fn table1_configs(geom: &Table1Geom, seed: u64, sizing: SizingModel) -> Vec<ExperimentConfig> {
    let mut out = Vec::new();
    for k in 0..geom.seeds {
        for row in &geom.rows {
            let mut cfg = row_config(row, sizing);
            cfg.seed ^= mix(seed, k as u64);
            out.push(cfg);
        }
    }
    out
}

/// (map, reduce, total) seconds of a finished job.
fn phases(pol: &MrPolicy) -> [f64; 3] {
    let job = &pol.tracker.jobs[0];
    [
        job.map_time().unwrap_or(f64::NAN),
        job.reduce_time().unwrap_or(f64::NAN),
        job.total_time().unwrap_or(f64::NAN),
    ]
}

pub fn table1(
    seed: u64,
    seconds: f64,
    geom: &Table1Geom,
    tamper: Tamper,
    tr: &mut Tracer,
) -> Report {
    let mut rep = Report::default();
    let traced = tr.on();
    // The reference runs and the hand-built engines they are compared
    // with, from the first pass.
    let mut gate: Vec<(ExperimentConfig, [f64; 3], u64, u64)> = Vec::new();
    let (setups, plain, with_trace) = tr.span("table1", |tr| {
        let r = repeat(
            seconds,
            traced,
            tr,
            || {
                let mut layers = Layers::default();
                cpu_time(|| {
                    let sizing = calibrate(seed, &mut layers);
                    for cfg in table1_configs(geom, seed, sizing) {
                        drop(build_testbed(&cfg, &mut layers));
                    }
                })
                .1
            },
            |k, timed, tr| {
                let mut p = Pass::default();
                let (sizing, calibrate_s) = cpu_time(|| calibrate(seed, &mut p.layers));
                p.setup_s += calibrate_s;
                for (i, cfg) in table1_configs(geom, seed, sizing).into_iter().enumerate() {
                    tr.span(&format!("row{i}"), |_| {
                        let mut built = cfg.clone();
                        if tamper == Tamper::Table1Engine {
                            built.seed ^= 1;
                        }
                        let ((mut eng, mut pol), build_s) =
                            cpu_time(|| build_testbed(&built, &mut p.layers));
                        p.setup_s += build_s;
                        let layers = timed.then_some(&mut p.layers);
                        let (events, run_s, cpu_s) =
                            trace::run(&mut eng, &mut pol, horizon(), layers);
                        p.run_s += run_s;
                        p.cpu_pieces.push(cpu_s);
                        let ph = phases(&pol);
                        p.absorb(&format!("table1 row {i}"), &eng, Some(&pol), events, ph[2]);
                        if k == 0 && !timed {
                            gate.push((cfg, ph, eng.now().as_micros(), eng.stats.rpcs));
                        }
                    });
                }
                p.rss_mib = peak_rss_mib();
                p
            },
        );
        // Gate: the hand-built engines reproduce `run_experiment`.
        tr.span("gate", |_| {
            for (i, (cfg, ph, end_us, rpcs)) in gate.iter().enumerate() {
                let out = run_experiment(cfg).expect("table1 configurations are valid");
                let r = &out.reports[0];
                let same = [r.map_s, r.reduce_s, r.total_s]
                    .iter()
                    .zip(ph)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                if !same || out.finished_at.as_micros() != *end_us || out.stats.rpcs != *rpcs {
                    rep.violations.push(format!(
                        "table1 row {i}: engine differs from run_experiment \
                         ({:?} vs {:?})",
                        [r.map_s, r.reduce_s, r.total_s],
                        ph
                    ));
                    rep.failed += 1;
                }
            }
        });
        r
    });
    summarize(
        &mut rep,
        &setups,
        &plain,
        &with_trace,
        PassCpu::FastestPieces,
    );
    rep
}

/// The event horizon `run_experiment` uses.
fn horizon() -> SimTime {
    SimTime::from_secs(180_000)
}

// ----- volunteer2k ----------------------------------------------------------

fn build_fleet(geom: &FleetGeom, seed: u64, layers: &mut Layers) -> Engine {
    let builder = Engine::builder(mix(seed, 0xF1EE7))
        .config(ProjectConfig::default())
        .durability(DurabilityPlan::new(300.0))
        .clients((0..geom.hosts).map(|_| {
            (
                HostProfile::pc3001(),
                HostLink::symmetric_mbit(100.0, 0.000_5),
            )
        }));
    let mut eng = trace::build(builder, layers);
    eng.obs.journal.set_enabled(false);
    for i in 0..geom.hosts * geom.wus_per_host {
        let mut spec = WorkUnitSpec::basic(format!("w{i}"), "app", 2e9);
        spec.target_nresults = 2;
        spec.min_quorum = 2;
        eng.insert_workunit(spec);
    }
    eng
}

pub fn volunteer2k(
    seed: u64,
    seconds: f64,
    geom: &FleetGeom,
    tamper: Tamper,
    tr: &mut Tracer,
) -> Report {
    let mut rep = Report::default();
    let traced = tr.on();
    let (setups, plain, with_trace) = tr.span("volunteer2k", |tr| {
        repeat(
            seconds,
            traced,
            tr,
            || cpu_time(|| drop(build_fleet(geom, seed, &mut Layers::default()))).1,
            |_, timed, tr| {
                let mut p = Pass::default();
                let (mut eng, setup_s) = cpu_time(|| build_fleet(geom, seed, &mut p.layers));
                p.setup_s = setup_s;
                let layers = timed.then_some(&mut p.layers);
                let (events, run_s, cpu_s) = tr.span("run", |_| {
                    trace::run(
                        &mut eng,
                        &mut NullPolicy,
                        SimTime::from_secs(500_000),
                        layers,
                    )
                });
                p.run_s = run_s;
                p.cpu_pieces.push(cpu_s);
                // Read before the benchmark copies the log out: the
                // copy is the benchmark's, not the program's.
                p.rss_mib = peak_rss_mib();
                let makespan = eng.now().as_secs_f64();
                p.absorb("volunteer2k", &eng, None, events, makespan);
                eng.durable().flush_sink();
                let mut wal = eng.durable().log_bytes();
                if tamper == Tamper::TruncateWal {
                    wal.truncate(wal.len() * 9 / 10);
                }
                let live = eng.live_sections(&NullPolicy);
                // Recovery runs without the live engine, as after a crash.
                drop(eng);
                // Three timed recoveries; the first is also compared
                // with the live server state.
                for i in 0..3 {
                    let (rec, recover_s) = tr.span("recover", |_| {
                        cpu_time(|| RecoveredServerState::from_log(&wal))
                    });
                    p.recover_s.push(recover_s);
                    p.cpu_pieces.push(recover_s);
                    if i > 0 {
                        continue;
                    }
                    let bad = match rec {
                        Err(e) => Some(format!("recovery failed: {e}")),
                        Ok(rec) => {
                            let got = rec.encode_sections();
                            live.iter()
                                .find(|(name, bytes)| {
                                    got.iter().find(|(n, _)| n == name).map(|(_, b)| b)
                                        != Some(bytes)
                                })
                                .map(|(name, _)| {
                                    format!("recovered section {name} differs from live")
                                })
                        }
                    };
                    if let Some(msg) = bad {
                        p.violations.push(format!("volunteer2k: {msg}"));
                        p.failed_runs += 1;
                    }
                }
                p
            },
        )
    });
    summarize(&mut rep, &setups, &plain, &with_trace, PassCpu::Median);
    rep
}

// ----- internet100k ---------------------------------------------------------

fn build_internet(geom: &InternetGeom, layers: &mut Layers) -> (Engine, MrPolicy) {
    let builder = Engine::builder(geom.seed)
        .config(ProjectConfig::preset(Preset::Internet))
        .population(PopulationSpec::internet(geom.hosts, geom.seed));
    let mut eng = trace::build(builder, layers);
    eng.obs.journal.set_enabled(false);
    let mut pol = MrPolicy::new();
    let mut jc = MrJobConfig::paper_wordcount(geom.maps, geom.reduces, MrMode::InterClient);
    jc.input_bytes = geom.input_bytes;
    trace::submit(&mut pol, &mut eng, jc, layers);
    (eng, pol)
}

pub fn internet100k(seconds: f64, geom: &InternetGeom, tr: &mut Tracer) -> Report {
    let mut rep = Report::default();
    let traced = tr.on();
    let (setups, plain, with_trace) = tr.span("internet100k", |tr| {
        repeat(
            seconds,
            traced,
            tr,
            || cpu_time(|| drop(build_internet(geom, &mut Layers::default()))).1,
            |_, timed, tr| {
                let mut p = Pass::default();
                let ((mut eng, mut pol), setup_s) =
                    cpu_time(|| build_internet(geom, &mut p.layers));
                p.setup_s = setup_s;
                let layers = timed.then_some(&mut p.layers);
                let (events, run_s, cpu_s) = tr.span("run", |_| {
                    trace::run(&mut eng, &mut pol, SimTime::from_secs(400_000), layers)
                });
                p.run_s = run_s;
                p.cpu_pieces.push(cpu_s);
                p.rss_mib = peak_rss_mib();
                let makespan = phases(&pol)[2];
                p.absorb("internet100k", &eng, Some(&pol), events, makespan);
                p
            },
        )
    });
    summarize(&mut rep, &setups, &plain, &with_trace, PassCpu::Median);
    rep
}
