//! Shard-count invariance for the partitioned server core.
//!
//! Sharding is a pure performance refactor: every cross-shard
//! iteration merges in global id order, so for *any* seed, geometry,
//! transfer mode and fault plan, an experiment run on 2/4/8 shards
//! must be bit-identical to the single-shard (pre-sharding) engine —
//! the Table I row, the phase-time f64 bits, every engine counter,
//! the simulated finish time, and the full WAL byte stream. The O(1)
//! stop predicate is held to a full scan of the WU table at every
//! event of sharded, faulted runs.
//!
//! Full experiment runs are too slow for the default 256-case budget,
//! so this drives the property runner directly with a small budget;
//! the runner's seed is fixed, so the sampled configurations are the
//! same on every run.

use proptest::prelude::*;
use proptest::test_runner::{Config, TestCaseError, TestRunner};
use std::sync::atomic::{AtomicUsize, Ordering};
use vmr_core::{
    format_row, run_experiment, ExperimentConfig, ExperimentOutcome, MrJobConfig, MrMode, MrPolicy,
};
use vmr_desim::{SimDuration, SimTime};
use vmr_durable::DurabilityPlan;
use vmr_netsim::HostLink;
use vmr_vcore::{ClientId, Engine, FaultPlan, HostProfile, WuState};

/// Everything an outcome can disagree on, in comparable form.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    row: String,
    map_bits: u64,
    reduce_bits: u64,
    total_bits: u64,
    rpcs: u64,
    empty_replies: u64,
    grants: u64,
    reports: u64,
    finished_at: vmr_desim::SimTime,
    all_done: bool,
    wal: Vec<u8>,
}

fn fingerprint(out: &ExperimentOutcome, nodes: usize) -> Fingerprint {
    let r = &out.reports[0];
    Fingerprint {
        row: format_row(nodes, 3, 2, r),
        map_bits: r.map_s.to_bits(),
        reduce_bits: r.reduce_s.to_bits(),
        total_bits: r.total_s.to_bits(),
        rpcs: out.stats.rpcs,
        empty_replies: out.stats.empty_replies,
        grants: out.stats.grants,
        reports: out.stats.reports,
        finished_at: out.finished_at,
        all_done: out.all_done,
        wal: out.wal.clone().expect("durable run must carry a WAL"),
    }
}

#[test]
fn sharded_engine_is_bit_identical_for_any_seed_and_fault_plan() {
    let mut runner = TestRunner::new(Config { cases: 6 });
    let strat = (
        any::<u64>(),  // experiment seed
        4usize..7,     // volunteer nodes
        any::<bool>(), // inter-client vs server relay
        any::<bool>(), // inject a byzantine host + a dropout
        60u64..900,    // dropout arming time
    );
    runner
        .run(&strat, |(seed, nodes, interclient, faulty, dropout_s)| {
            let mode = if interclient {
                MrMode::InterClient
            } else {
                MrMode::ServerRelay
            };
            let mut cfg = ExperimentConfig::table1(nodes, 3, 2, mode);
            cfg.seed = seed;
            cfg.input_bytes = 8 << 20;
            // Journal every run so the WAL byte streams are compared too.
            cfg.durable = DurabilityPlan::new(120.0);
            if faulty {
                cfg.fault = FaultPlan {
                    byzantine: vec![ClientId((seed % nodes as u64) as u32)],
                    corruption_prob: 1.0,
                    dropouts: vec![(
                        ClientId(((seed >> 8) % nodes as u64) as u32),
                        SimDuration::from_secs(dropout_s),
                    )],
                    ..FaultPlan::none()
                };
            }
            let base = fingerprint(&run_experiment(&cfg).expect("valid config"), nodes);
            for shards in [2usize, 4, 8] {
                let mut sharded = cfg.clone();
                sharded.shards = shards;
                let got = fingerprint(&run_experiment(&sharded).expect("valid config"), nodes);
                if got != base {
                    return Err(TestCaseError::fail(format!(
                        "{shards} shards diverged from 1 shard: wal {} vs {} bytes, \
                         rpcs {} vs {}, row {:?} vs {:?}",
                        got.wal.len(),
                        base.wal.len(),
                        got.rpcs,
                        base.rpcs,
                        got.row,
                        base.row,
                    )));
                }
            }
            Ok(())
        })
        .unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn stop_predicate_matches_a_full_scan_at_every_event() {
    let mut runner = TestRunner::new(Config { cases: 6 });
    let strat = (
        (
            any::<u64>(),  // engine seed
            4usize..7,     // volunteer nodes
            any::<bool>(), // inter-client vs server relay
        ),
        (
            0.0f64..0.8,   // task error probability
            0u32..3,       // byzantine hosts
            any::<bool>(), // single replica: 4-result budget, so errors fail WUs
            60u64..900,    // dropout arming time
        ),
    );
    // Runs that ended with a failed WU: the Failed edge of the count
    // must be exercised, not just the Validated one.
    let failed_runs = AtomicUsize::new(0);
    runner
        .run(
            &strat,
            |((seed, nodes, interclient), (task_err, n_byzantine, single, dropout_s))| {
                let mode = if interclient {
                    MrMode::InterClient
                } else {
                    MrMode::ServerRelay
                };
                let mut finished = Vec::new();
                for shards in [1usize, 2, 4, 8] {
                    let mut eng = Engine::builder(seed)
                        .shards(shards)
                        .clients((0..nodes).map(|_| {
                            (
                                HostProfile::pc3001(),
                                HostLink::symmetric_mbit(100.0, 0.000_5),
                            )
                        }))
                        .build();
                    eng.obs.journal.set_enabled(false);
                    eng.fault = FaultPlan {
                        byzantine: (0..n_byzantine).map(ClientId).collect(),
                        corruption_prob: 1.0,
                        task_error_prob: task_err,
                        dropouts: vec![(
                            ClientId(((seed >> 8) % nodes as u64) as u32),
                            SimDuration::from_secs(dropout_s),
                        )],
                        ..FaultPlan::none()
                    };
                    let mut pol = MrPolicy::new();
                    let mut cfg = MrJobConfig::paper_wordcount(3, 2, mode);
                    cfg.input_bytes = 6_000_000;
                    if single {
                        cfg.replication = 1;
                        cfg.quorum = 1;
                    }
                    pol.submit_job(&mut eng, cfg);
                    let mut drift = None;
                    let mut checks = 0u64;
                    eng.run_until(&mut pol, SimTime::from_secs(100_000), |e| {
                        let fast = e.db.all_wus_terminal();
                        checks += 1;
                        if fast != (e.db.count_state(WuState::Active) == 0) && drift.is_none() {
                            drift = Some(checks);
                        }
                        fast
                    });
                    if let Some(at) = drift {
                        return Err(TestCaseError::fail(format!(
                            "{shards} shards: predicate drifted from the scan at check {at}"
                        )));
                    }
                    prop_assert!(checks > 10, "run too short to exercise the predicate");
                    if shards == 1 && eng.db.count_state(WuState::Failed) > 0 {
                        failed_runs.fetch_add(1, Ordering::Relaxed);
                    }
                    finished.push((eng.db.all_wus_terminal(), eng.now()));
                }
                prop_assert!(
                    finished.windows(2).all(|w| w[0] == w[1]),
                    "shard counts disagree on the end state: {finished:?}"
                );
                Ok(())
            },
        )
        .unwrap_or_else(|e| panic!("{e}"));
    assert!(
        failed_runs.load(Ordering::Relaxed) > 0,
        "no sampled run failed a WU"
    );
}
