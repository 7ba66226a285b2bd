//! The three workloads and the phases they share.
//!
//! Every workload is one client thread driving one file-backed
//! [`ClusterStore`] in a closed loop: a call is issued only after the
//! previous one returned. Each run is fixed work derived from `--seconds`
//! and the seed, so two runs with one seed make identical calls, and a
//! faster program finishes the same work sooner instead of doing more.
//!
//! Skeleton (every workload; the README has the details):
//!
//! 1. **setup** ×5 — fresh directory, cluster creation, bulk preload,
//!    `flush_all`, restart under the workload's fsync policy; the median is
//!    `setup_s`, the last cluster is kept.
//! 2. **main** — the workload's own traffic.
//! 3. **power loss #1** — every shard's log synced, `crash`,
//!    `recover_from_disk`, then a sweep of every key.
//! 4. **churn** — new-key puts and deletes of live keys, under
//!    `FsyncPolicy::Always` whatever the workload's own policy.
//! 5. **degraded reads** — `n − k` nodes failed in every shard.
//! 6. **repair** — every node of every shard replaced and repaired in turn,
//!    then a sweep with `n − k` *other* nodes failed.
//! 7. **power loss ×9** — as in 3, then the final sweep.

use std::hint::black_box;
use std::path::{Path, PathBuf};

use rain_cluster::{ClusterError, ClusterRecoveryReport, ClusterStore};
use rain_codes::CodeSpec;
use rain_sim::NodeId;
use rain_storage::{FsyncPolicy, GroupConfig, SelectionPolicy, StorageError};

use crate::oracle::{Ledger, Rng, Zipf, LARGE, SMALL};
use crate::stats::{peak_rss_mib, proc_io, Clocks, Cost, Samples};
use crate::trace::Trace;

/// Shards of the cluster.
pub const SHARDS: [usize; 4] = [0, 1, 2, 3];
/// Ring points per shard.
pub const VNODES: usize = 64;
/// Log records between automatic checkpoints (shard WALs and metalog).
pub const CHECKPOINT_EVERY: u64 = 2048;
/// Segment size of every log.
pub const SEGMENT_BYTES: usize = 256 * 1024;
/// Fsync policy of the set-up's bulk load. The set-up then restarts the
/// cluster under the workload's own policy; loading under it would make
/// set-up time mostly disk waits, which swing with the host's other
/// tenants.
pub const BULK_LOAD: FsyncPolicy = FsyncPolicy::EveryN(64);
/// Power losses back to back at the end of a run (one more follows the
/// main phase); `recover_cpu_s` is the median of these, which all replay the
/// same logs.
pub const FINAL_POWER_LOSSES: usize = 9;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Nodes failed in every shard for the degraded reads (`n − k` = 2).
pub const DEGRADED_NODES: [usize; 2] = [0, 1];
/// Nodes failed in every shard for the post-repair sweep: the other two
/// whose symbols were never rebuilt last, so the sweep reads repaired ones.
pub const SWEEP_FAILED_NODES: [usize; 2] = [4, 5];

/// The paper's (6,4) B-Code.
pub fn spec() -> CodeSpec {
    CodeSpec::bcode_6_4()
}

/// The workload names the command accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Durable writes: every ack waits on the disk.
    Ingest,
    /// Random reads over a set far larger than the decode cache, healthy
    /// and degraded.
    ReadCold,
    /// Zipf-skewed gets and overwrites with periodic compaction, under
    /// group commit.
    MixedHot,
}

impl Workload {
    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "ingest" => Some(Workload::Ingest),
            "read_cold" => Some(Workload::ReadCold),
            "mixed_hot" => Some(Workload::MixedHot),
            _ => None,
        }
    }

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Ingest => "ingest",
            Workload::ReadCold => "read_cold",
            Workload::MixedHot => "mixed_hot",
        }
    }
}

/// A workload's make-up. Counts scale with `--seconds`.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Which workload.
    pub workload: Workload,
    /// Fsync policy of every phase after the set-up's bulk load.
    pub policy: FsyncPolicy,
    /// Keys stored by set-up.
    pub preload: usize,
    /// Every `large_every`-th preloaded key is a 16 KiB object (0: none).
    pub preload_large_every: usize,
    /// Operations of the main phase.
    pub main_ops: usize,
    /// Durable new-key puts of the churn phase (as many deletes ride along),
    /// under `FsyncPolicy::Always` whatever `policy` is.
    pub churn_puts: usize,
    /// Random gets with `n − k` nodes failed.
    pub degraded_gets: usize,
    /// Rounds of replacing and repairing every node of every shard.
    pub repair_rounds: usize,
    /// `mixed_hot`: a `compact()` of every shard after this many ops.
    pub compact_every: usize,
    /// `mixed_hot`: Zipf exponent of key popularity.
    pub zipf: f64,
    /// `mixed_hot`: the main phase's keys are the first `hot_keys` ids.
    pub hot_keys: usize,
}

/// `ingest`: share of ops that overwrite a live key / delete a live key;
/// the rest put new keys. One put in ten is a 16 KiB whole object.
const INGEST_OVERWRITE: f64 = 0.12;
const INGEST_DELETE: f64 = 0.08;
const INGEST_LARGE: f64 = 0.10;
/// `mixed_hot`: share of ops that are gets; the rest overwrite.
const HOT_GET: f64 = 0.85;

impl Plan {
    /// The make-up of `workload` for a run of `seconds`.
    pub fn new(workload: Workload, seconds: u64) -> Plan {
        let s = seconds.max(1) as usize;
        match workload {
            Workload::Ingest => Plan {
                workload,
                policy: FsyncPolicy::Always,
                preload: 16_384,
                preload_large_every: 16,
                main_ops: 2_500 * s,
                churn_puts: 1_000,
                degraded_gets: 4_096,
                repair_rounds: 5,
                compact_every: 0,
                zipf: 0.0,
                hot_keys: 0,
            },
            Workload::ReadCold => Plan {
                workload,
                policy: FsyncPolicy::EveryN(8),
                preload: 16_384,
                preload_large_every: 0,
                main_ops: 30_000 * s,
                churn_puts: 5_000,
                degraded_gets: 8_000 * s,
                repair_rounds: 25,
                compact_every: 0,
                zipf: 0.0,
                hot_keys: 0,
            },
            Workload::MixedHot => Plan {
                workload,
                policy: FsyncPolicy::EveryN(8),
                preload: 16_384,
                preload_large_every: 0,
                main_ops: 20_000 * s,
                churn_puts: 5_000,
                degraded_gets: 4_096,
                repair_rounds: 25,
                compact_every: 20_000,
                zipf: 0.99,
                // 256 keys per shard, two 64 KiB groups of live data at
                // preload: the hot set stays inside the 4-block decode
                // cache while overwrites spread it over newer groups.
                hot_keys: 1_024,
            },
        }
    }

    /// A tiny make-up with every phase and check, for the smoke test.
    #[cfg(test)]
    pub fn smoke(workload: Workload) -> Plan {
        let mut p = Plan::new(workload, 1);
        p.preload = p.preload.min(600);
        p.main_ops = 400;
        p.churn_puts = 40;
        p.repair_rounds = 1;
        p.degraded_gets = 100;
        if p.compact_every > 0 {
            p.compact_every = 100;
        }
        p.hot_keys = p.hot_keys.min(p.preload);
        p
    }

    /// Key ids the ledger must hold: preload, every possible new key of
    /// the main phase, and the churn's new keys.
    fn key_capacity(&self) -> usize {
        self.preload + self.main_ops + self.churn_puts
    }
}

/// The group configuration of every shard under `policy`.
pub fn config(policy: FsyncPolicy) -> GroupConfig {
    GroupConfig::small_objects()
        .logged()
        .with_fsync(policy)
        .with_checkpoint_every(CHECKPOINT_EVERY)
        .with_segments(SEGMENT_BYTES)
}

/// Attempted / failed per operation class.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Calls made.
    pub attempted: u64,
    /// Calls that returned an error.
    pub failed: u64,
}

/// Operation classes counted in the run's accounting.
#[derive(Debug, Default, Clone, Copy)]
pub struct Accounting {
    /// `ClusterStore::store`.
    pub put: Tally,
    /// `ClusterStore::retrieve`, all nodes up.
    pub get: Tally,
    /// `ClusterStore::retrieve` with nodes failed.
    pub degraded_get: Tally,
    /// `ClusterStore::delete`.
    pub delete: Tally,
    /// `replace_node` + `repair_node`.
    pub repair: Tally,
    /// `crash` + `recover_from_disk`.
    pub recover: Tally,
}

impl Accounting {
    /// All classes, named.
    pub fn classes(&self) -> [(&'static str, Tally); 6] {
        [
            ("put", self.put),
            ("get", self.get),
            ("degraded_get", self.degraded_get),
            ("delete", self.delete),
            ("repair", self.repair),
            ("recover", self.recover),
        ]
    }

    /// Totals over every class.
    pub fn total(&self) -> Tally {
        self.classes()
            .iter()
            .fold(Tally::default(), |a, (_, t)| Tally {
                attempted: a.attempted + t.attempted,
                failed: a.failed + t.failed,
            })
    }
}

/// A wrong answer from the store: ends the run without a result.
#[derive(Debug)]
pub struct Wrong(pub String);

impl std::fmt::Display for Wrong {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Which latency collection a call lands in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Set-up preload.
    Preload,
    /// The workload's main phase.
    Main,
    /// Full sweep after power loss #1.
    Sweep,
    /// New-key puts and deletes after power loss #1.
    Churn,
    /// Reads with nodes failed.
    Degraded,
    /// Full sweep after the last power loss.
    Final,
    /// Full sweep after the repairs, with `n − k` other nodes failed.
    PostRepair,
    /// Anything else (repairs).
    Other,
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Main-phase puts.
    pub main_put: Samples,
    /// Main-phase gets.
    pub main_get: Samples,
    /// Main-phase deletes.
    pub main_delete: Samples,
    /// Main-phase `compact()` passes (all shards).
    pub compact: Samples,
    /// Preload puts of the kept set-up.
    pub preload_put: Samples,
    /// Gets of the sweep after power loss #1.
    pub sweep_get: Samples,
    /// Gets of the sweep after the last power loss.
    pub final_get: Samples,
    /// Churn-phase puts.
    pub churn_put: Samples,
    /// Churn-phase deletes.
    pub churn_delete: Samples,
    /// Gets with nodes failed.
    pub degraded_get: Samples,
    /// One `replace_node` + `repair_node` each.
    pub repair: Samples,
    /// Main-phase operations.
    pub main_ops: u64,
    /// Each set-up.
    pub setup: Samples,
    /// Each `crash` → `recover_from_disk`.
    pub recover: Samples,
    /// Recovery reports, in order.
    pub recoveries: Vec<ClusterRecoveryReport>,
    /// `(wchar, syscw)` deltas and user bytes acked over the write phase.
    pub write_phase: (u64, u64, u64),
    /// Mutations in the write phase.
    pub write_phase_ops: u64,
    /// Operation accounting.
    pub acct: Accounting,
    /// Bytes returned by healthy gets of the main phase / the sweep after
    /// power loss #1.
    pub get_bytes: [u64; 2],
    /// Gets of whole-placed objects in the main phase / that sweep.
    pub whole_gets: [u64; 2],
}

impl Measured {
    /// The `ops_per_s` of the main phase: operations over time inside the
    /// calls (compaction passes included).
    pub fn ops_per_s(&self) -> f64 {
        let t = self.main_put.total_s()
            + self.main_get.total_s()
            + self.main_delete.total_s()
            + self.compact.total_s();
        self.main_ops as f64 / t
    }

    /// Main-phase operations per second of process CPU time inside
    /// the calls (compaction passes included).
    pub fn ops_per_cpu_s(&self) -> f64 {
        let t = self.main_put.cpu_total_s()
            + self.main_get.cpu_total_s()
            + self.main_delete.cpu_total_s()
            + self.compact.cpu_total_s();
        self.main_ops as f64 / t
    }

    /// Median CPU time of one repair round: every node of every shard
    /// replaced and repaired, one at a time.
    pub fn repair_round_cpu_s(&self) -> f64 {
        let per_round = SHARDS.len() * spec().n;
        let mut rounds: Vec<f64> = self
            .repair
            .cpu_ns()
            .chunks(per_round)
            .map(|r| r.iter().sum::<u64>() as f64 / 1e9)
            .collect();
        rounds.sort_by(f64::total_cmp);
        rounds.get(rounds.len() / 2).copied().unwrap_or(0.0)
    }

    /// Median CPU time of one `crash` → `recover_from_disk` among the
    /// final power losses.
    pub fn final_recover_cpu_s(&self) -> f64 {
        let n = self.recover.len();
        self.recover
            .slice(n.saturating_sub(FINAL_POWER_LOSSES), n)
            .cpu_p50_us()
            / 1e6
    }

    /// Every latency collection with a name, for the informational table.
    pub fn collections(&self) -> [(&'static str, &Samples); 13] {
        [
            ("setup", &self.setup),
            ("recover", &self.recover),
            ("preload.put", &self.preload_put),
            ("main.put", &self.main_put),
            ("main.get", &self.main_get),
            ("main.delete", &self.main_delete),
            ("main.compact", &self.compact),
            ("sweep.get", &self.sweep_get),
            ("final.get", &self.final_get),
            ("churn.put", &self.churn_put),
            ("churn.delete", &self.churn_delete),
            ("degraded.get", &self.degraded_get),
            ("repair.node", &self.repair),
        ]
    }

    /// Every end-to-end metric: `(name, unit, value)`. Every time is the
    /// process's CPU time inside the calls: on a shared host, wall
    /// time also counts hypervisor steal and other tenants' journal
    /// commits (see the README); the wall figures are printed, not gated.
    pub fn end_to_end(&self, workload: Workload) -> Vec<(&'static str, &'static str, f64)> {
        let (put, del, get) = self.pooled(workload);
        let (wchar, _, user) = self.write_phase;
        vec![
            ("ops_per_cpu_s", "1/s", self.ops_per_cpu_s()),
            ("put_cpu_p50_us", "us", put.cpu_p50_us()),
            ("delete_cpu_p50_us", "us", del.cpu_p50_us()),
            ("get_cpu_p50_us", "us", get.cpu_p50_us()),
            (
                "degraded_get_cpu_p50_us",
                "us",
                self.degraded_get.cpu_p50_us(),
            ),
            ("repair_cpu_s", "s", self.repair_round_cpu_s()),
            ("recover_cpu_s", "s", self.final_recover_cpu_s()),
            ("setup_s", "s", self.setup.cpu_p50_us() / 1e6),
            (
                "write_bytes_per_user_byte",
                "B/B",
                wchar as f64 / user.max(1) as f64,
            ),
            ("peak_rss_mib", "MiB", peak_rss_mib()),
        ]
    }

    /// The puts, deletes and healthy gets the per-call metrics pool: puts
    /// and deletes of the main phase, or of the churn phase where the main
    /// phase makes none; cold gets, i.e. the sweeps after the first and the
    /// last power loss and, for `read_cold`, its main phase.
    /// `mixed_hot`'s main-phase gets are cache hits, a different operation
    /// whose cost shows in `ops_per_cpu_s`.
    pub fn pooled(&self, workload: Workload) -> (Samples, Samples, Samples) {
        let or_churn = |main: &Samples, churn: &Samples| {
            if main.is_empty() {
                churn.clone()
            } else {
                main.clone()
            }
        };
        let put = or_churn(&self.main_put, &self.churn_put);
        let del = or_churn(&self.main_delete, &self.churn_delete);
        let mut get = self.sweep_get.clone();
        get.extend(&self.final_get);
        if workload == Workload::ReadCold {
            get.extend(&self.main_get);
        }
        (put, del, get)
    }
}

/// One run of one workload.
pub struct Bench {
    /// The workload's make-up.
    pub plan: Plan,
    /// The run's directory (removed when the run ends).
    pub root: PathBuf,
    /// The cluster under test.
    pub cluster: Option<ClusterStore>,
    dir: PathBuf,
    /// The oracle.
    pub ledger: Ledger,
    /// Set when a call failed: its key's state is unknown, so it is left
    /// out of byte checks.
    uncertain: Vec<bool>,
    next_key: u32,
    epoch: u64,
    buf: Vec<u8>,
    /// What was measured.
    pub m: Measured,
    /// Spans and replay log, in a traced run.
    pub trace: Option<Trace>,
    /// The run seed.
    pub seed: u64,
}

fn is_unknown(e: &ClusterError) -> bool {
    matches!(e, ClusterError::Storage(StorageError::UnknownObject { .. }))
}

impl Bench {
    /// A run of `plan` seeded `seed` in the directory `root` (created
    /// fresh).
    pub fn new(plan: Plan, seed: u64, root: &Path, trace: Option<Trace>) -> Bench {
        let _ = std::fs::remove_dir_all(root);
        Bench {
            plan,
            root: root.to_path_buf(),
            cluster: None,
            dir: root.join("none"),
            ledger: Ledger::new(seed, plan.key_capacity()),
            uncertain: vec![false; plan.key_capacity()],
            next_key: 0,
            epoch: 1,
            buf: Vec::with_capacity(LARGE),
            m: Measured::default(),
            trace,
            seed,
        }
    }

    fn cluster(&mut self) -> &mut ClusterStore {
        self.cluster
            .as_mut()
            .expect("the cluster is up between phases")
    }

    /// Run every phase. A wrong byte or state ends it with `Err`.
    pub fn run(&mut self) -> Result<(), Wrong> {
        self.setup()?;
        self.main_phase()?;
        self.power_loss()?;
        self.sweep(Phase::Sweep, &[])?;
        self.churn()?;
        self.degraded()?;
        self.repair()?;
        self.sweep(Phase::PostRepair, &SWEEP_FAILED_NODES)?;
        for _ in 0..FINAL_POWER_LOSSES {
            self.power_loss()?;
        }
        self.sweep(Phase::Final, &[])?;
        Ok(())
    }

    /// Set up `SETUPS` times in fresh directories; keep the last cluster.
    /// A set-up's cost is that of the program's calls only: cluster
    /// creation, the preload puts, `flush_all`, and the restart's
    /// `sync_wal`, `crash` and `recover_from_disk`. Making payloads and
    /// checking the ledger are left out.
    pub fn setup(&mut self) -> Result<(), Wrong> {
        for i in 0..SETUPS {
            self.cluster = None;
            let _ = std::fs::remove_dir_all(&self.dir);
            self.dir = self.root.join(format!("setup-{i}"));
            std::fs::create_dir_all(&self.dir).map_err(|e| Wrong(format!("mkdir: {e}")))?;
            self.ledger = Ledger::new(self.seed, self.plan.key_capacity());
            self.next_key = 0;
            self.m.preload_put = Samples::default();
            if let Some(t) = &mut self.trace {
                t.reset_log();
            }
            let c = Clocks::start();
            let cluster =
                ClusterStore::with_wal_dir(spec(), config(BULK_LOAD), &SHARDS, VNODES, &self.dir)
                    .map_err(|e| Wrong(format!("cluster creation failed: {e}")))?;
            let create = c.stop();
            self.epoch = cluster.epoch();
            self.cluster = Some(cluster);
            for _ in 0..self.plan.preload {
                let id = self.new_key();
                let large = self.plan.preload_large_every > 0
                    && id as usize % self.plan.preload_large_every == 1;
                self.put(id, if large { LARGE } else { SMALL }, Phase::Preload);
            }
            let c = Clocks::start();
            self.cluster().flush_all();
            let flush = c.stop();
            let (_, sync, recover) = self.restart(self.plan.policy)?;
            let puts = &self.m.preload_put;
            self.m.setup.push((
                create.0 + puts.total_ns().0 + flush.0 + sync.0 + recover.0,
                create.1 + puts.total_ns().1 + flush.1 + sync.1 + recover.1,
            ));
        }
        Ok(())
    }

    fn new_key(&mut self) -> u32 {
        let id = self.next_key;
        self.next_key += 1;
        id
    }

    /// One timed `store`; the payload is made before the clock starts.
    fn put(&mut self, id: u32, len: usize, phase: Phase) {
        let version = self.ledger.next_payload(id, len, &mut self.buf);
        let cluster = self.cluster.as_mut().expect("cluster is up");
        let c = Clocks::start();
        let r = cluster.store(self.ledger.name(id), black_box(&self.buf), self.epoch);
        let cost = c.stop();
        self.m.acct.put.attempted += 1;
        match r {
            Ok(()) => self.ledger.put(id, version, len),
            Err(_) => {
                self.m.acct.put.failed += 1;
                self.uncertain[id as usize] = true;
            }
        }
        match phase {
            Phase::Preload => self.m.preload_put.push(cost),
            Phase::Main => self.m.main_put.push(cost),
            Phase::Churn => self.m.churn_put.push(cost),
            _ => {}
        }
        if let Some(tr) = &mut self.trace {
            tr.op(
                phase,
                crate::trace::Op::Put { id, version, len },
                c.wall,
                cost.0,
            );
        }
    }

    /// One timed `delete`.
    fn delete(&mut self, id: u32, phase: Phase) {
        let cluster = self.cluster.as_mut().expect("cluster is up");
        let c = Clocks::start();
        let r = cluster.delete(self.ledger.name(id), self.epoch);
        let cost = c.stop();
        self.m.acct.delete.attempted += 1;
        match r {
            Ok(()) => self.ledger.delete(id),
            Err(_) => {
                self.m.acct.delete.failed += 1;
                self.uncertain[id as usize] = true;
            }
        }
        match phase {
            Phase::Main => self.m.main_delete.push(cost),
            Phase::Churn => self.m.churn_delete.push(cost),
            _ => {}
        }
        if let Some(tr) = &mut self.trace {
            tr.op(phase, crate::trace::Op::Delete { id }, c.wall, cost.0);
        }
    }

    /// One timed `retrieve`, checked against the ledger after the clock
    /// stops. A live key must read back bit-exact; a deleted one must be
    /// unknown.
    fn get(&mut self, id: u32, phase: Phase) -> Result<(), Wrong> {
        let cluster = self.cluster.as_mut().expect("cluster is up");
        let c = Clocks::start();
        let r = cluster.retrieve(self.ledger.name(id), SelectionPolicy::FirstK, self.epoch);
        let cost = c.stop();
        let degraded = matches!(phase, Phase::Degraded | Phase::PostRepair);
        let tally = if degraded {
            &mut self.m.acct.degraded_get
        } else {
            &mut self.m.acct.get
        };
        tally.attempted += 1;
        // Latency is kept for reads of live keys only: a deleted key's
        // `UnknownObject` is a directory miss, a different operation.
        if r.is_ok() {
            match phase {
                Phase::Main => self.m.main_get.push(cost),
                Phase::Sweep => self.m.sweep_get.push(cost),
                Phase::Final => self.m.final_get.push(cost),
                Phase::Degraded | Phase::PostRepair => self.m.degraded_get.push(cost),
                _ => {}
            }
        }
        if let Some(tr) = &mut self.trace {
            tr.op(phase, crate::trace::Op::Get { id }, c.wall, cost.0);
        }
        if self.uncertain[id as usize] {
            return Ok(());
        }
        let entry = self.ledger.entry(id);
        match r {
            Ok(read) if entry.live => {
                let slot = match phase {
                    Phase::Main => Some(0),
                    Phase::Sweep => Some(1),
                    _ => None,
                };
                if let Some(i) = slot {
                    self.m.get_bytes[i] += read.bytes.len() as u64;
                    self.m.whole_gets[i] += u64::from(read.bytes.len() >= LARGE);
                }
                self.ledger.expected(id, &mut self.buf);
                if read.bytes != self.buf {
                    return Err(Wrong(format!(
                        "{} read back {} wrong bytes (want {} B, version {})",
                        self.ledger.name(id),
                        read.bytes.len(),
                        entry.len,
                        entry.version
                    )));
                }
                Ok(())
            }
            Ok(_) => Err(Wrong(format!(
                "deleted key {} came back",
                self.ledger.name(id)
            ))),
            Err(e) if !entry.live && is_unknown(&e) => Ok(()),
            Err(e) if !entry.live => Err(Wrong(format!(
                "deleted key {}: want UnknownObject, got {e}",
                self.ledger.name(id)
            ))),
            // The sweeps read every live key with at most `n − k` nodes
            // down: each must be served, so a failure is a lost object.
            Err(e) if matches!(phase, Phase::Sweep | Phase::Final | Phase::PostRepair) => {
                Err(Wrong(format!(
                    "live key {} failed to read in a sweep ({phase:?}): {e}",
                    self.ledger.name(id)
                )))
            }
            Err(_) => {
                tally_fail(&mut self.m.acct, degraded);
                Ok(())
            }
        }
    }

    /// The workload's own traffic.
    pub fn main_phase(&mut self) -> Result<(), Wrong> {
        let plan = self.plan;
        let mut rng = Rng::new(self.seed, 1);
        if let Some(tr) = &mut self.trace {
            tr.mark("main.start");
        }
        let (w0, c0) = proc_io();
        let mut user = 0u64;
        let mut writes = 0u64;
        match plan.workload {
            Workload::Ingest => {
                for _ in 0..plan.main_ops {
                    let r = rng.unit();
                    let live = self.ledger.live().len() as u64;
                    if r < INGEST_DELETE && live > 0 {
                        let id = self.ledger.live()[rng.below(live) as usize];
                        self.delete(id, Phase::Main);
                    } else if r < INGEST_DELETE + INGEST_OVERWRITE && live > 0 {
                        let id = self.ledger.live()[rng.below(live) as usize];
                        let len = self.ledger.entry(id).len as usize;
                        self.put(id, len, Phase::Main);
                        user += len as u64;
                    } else {
                        let id = self.new_key();
                        let len = if rng.unit() < INGEST_LARGE {
                            LARGE
                        } else {
                            SMALL
                        };
                        self.put(id, len, Phase::Main);
                        user += len as u64;
                    }
                    writes += 1;
                }
            }
            Workload::ReadCold => {
                let keys: Vec<u32> = self.ledger.live().to_vec();
                for _ in 0..plan.main_ops {
                    let id = keys[rng.below(keys.len() as u64) as usize];
                    self.get(id, Phase::Main)?;
                }
            }
            Workload::MixedHot => {
                let zipf = Zipf::new(plan.hot_keys, plan.zipf);
                for i in 0..plan.main_ops {
                    // Rank r is key r: preload stored keys in id order, so
                    // the hot keys share the first groups of every shard.
                    let id = zipf.sample(&mut rng) as u32;
                    if rng.unit() < HOT_GET {
                        self.get(id, Phase::Main)?;
                    } else {
                        let len = self.ledger.entry(id).len as usize;
                        self.put(id, len, Phase::Main);
                        user += len as u64;
                        writes += 1;
                    }
                    if (i + 1) % plan.compact_every == 0 {
                        self.compact_all();
                    }
                }
            }
        }
        let (w1, c1) = proc_io();
        self.m.main_ops = plan.main_ops as u64;
        if writes > 0 {
            self.m.write_phase = (w1 - w0, c1 - c0, user);
            self.m.write_phase_ops = writes;
        }
        if let Some(tr) = &mut self.trace {
            tr.mark("main.end");
            tr.main_done(self.cluster.as_ref().expect("cluster is up"));
        }
        Ok(())
    }

    /// One timed `compact()` of every shard.
    fn compact_all(&mut self) {
        let cluster = self.cluster.as_mut().expect("cluster is up");
        let c = Clocks::start();
        for s in SHARDS {
            if let Some(shard) = cluster.shard_mut(s) {
                // A failed pass leaves every group in place; nothing acked
                // is lost, so it is not an operation failure.
                let _ = shard.compact();
            }
        }
        let cost = c.stop();
        self.m.compact.push(cost);
        if let Some(tr) = &mut self.trace {
            tr.op(Phase::Main, crate::trace::Op::Compact, c.wall, cost.0);
        }
    }

    /// Power loss: sync every shard log, drop every coordinator, rebuild
    /// the cluster from disk, and check the directory against the ledger.
    pub fn power_loss(&mut self) -> Result<(), Wrong> {
        let (report, _, cost) = self.restart(self.plan.policy)?;
        self.m.recover.push(cost);
        self.m.recoveries.push(report);
        Ok(())
    }

    /// Sync every shard log, `crash`, and `recover_from_disk` under
    /// `policy`. The metalog's unsynced tail dies with the
    /// coordinators; recovery re-adopts what it lost from the shards.
    /// Returns the report, the cost of the syncs and that of `crash` +
    /// `recover_from_disk`.
    fn restart(
        &mut self,
        policy: FsyncPolicy,
    ) -> Result<(ClusterRecoveryReport, Cost, Cost), Wrong> {
        let mut cluster = self.cluster.take().expect("cluster is up");
        let c = Clocks::start();
        for s in SHARDS {
            if let Some(shard) = cluster.shard_mut(s) {
                shard
                    .sync_wal()
                    .map_err(|e| Wrong(format!("sync_wal shard {s}: {e}")))?;
            }
        }
        let sync = c.stop();
        self.m.acct.recover.attempted += 1;
        let c = Clocks::start();
        let survivors = cluster.crash();
        let r = ClusterStore::recover_from_disk(spec(), config(policy), &self.dir, survivors);
        let cost = c.stop();
        let (mut cluster, report) = match r {
            Ok(v) => v,
            Err(e) => {
                self.m.acct.recover.failed += 1;
                return Err(Wrong(format!("recover_from_disk failed: {e}")));
            }
        };
        let live = self.ledger.live().len();
        if cluster.num_objects() != live {
            return Err(Wrong(format!(
                "after power loss the cluster holds {} objects, the ledger {live}",
                cluster.num_objects()
            )));
        }
        if let Some(tr) = &self.trace {
            tr.attach(&mut cluster);
        }
        self.cluster = Some(cluster);
        Ok((report, sync, cost))
    }

    /// Read every key ever written, in a seeded random order, with `failed`
    /// nodes down in every shard.
    pub fn sweep(&mut self, phase: Phase, failed: &[usize]) -> Result<(), Wrong> {
        let mut keys = self.ledger.written();
        Rng::new(
            self.seed,
            2 + self.m.recover.len() as u64 + failed.len() as u64,
        )
        .shuffle(&mut keys);
        self.fail_nodes(failed)?;
        if let (Some(tr), Phase::Sweep) = (&mut self.trace, phase) {
            tr.mark("sweep.start");
        }
        for id in keys {
            self.get(id, phase)?;
        }
        if let (Some(tr), Phase::Sweep) = (&mut self.trace, phase) {
            tr.mark("sweep.end");
        }
        self.restore_nodes(failed)
    }

    fn fail_nodes(&mut self, nodes: &[usize]) -> Result<(), Wrong> {
        let cluster = self.cluster();
        for s in SHARDS {
            let shard = cluster.shard_mut(s).expect("member shard");
            for &n in nodes {
                shard
                    .fail_node(NodeId(n))
                    .map_err(|e| Wrong(format!("fail_node: {e}")))?;
            }
        }
        Ok(())
    }

    fn restore_nodes(&mut self, nodes: &[usize]) -> Result<(), Wrong> {
        let cluster = self.cluster();
        for s in SHARDS {
            let shard = cluster.shard_mut(s).expect("member shard");
            for &n in nodes {
                shard
                    .recover_node(NodeId(n))
                    .map_err(|e| Wrong(format!("recover_node: {e}")))?;
            }
        }
        Ok(())
    }

    /// Durable new-key puts interleaved with deletes of random live keys.
    /// A workload under group commit restarts into `FsyncPolicy::Always`
    /// for the phase and back out of it, so every workload's churn waits
    /// on the disk: its calls cost tens of µs, not the 2 µs of a buffered
    /// append, whose median no run repeats closely.
    pub fn churn(&mut self) -> Result<(), Wrong> {
        let switch = self.plan.policy != FsyncPolicy::Always;
        if switch {
            self.restart(FsyncPolicy::Always)?;
        }
        let mut rng = Rng::new(self.seed, 7);
        let (w0, c0) = proc_io();
        let mut user = 0u64;
        // Every tenth put is large, not a seeded tenth: the bytes acked,
        // and so `write_bytes_per_user_byte` where this phase measures it,
        // do not swing with the draw.
        let large_every = (1.0 / INGEST_LARGE).round() as usize;
        for i in 0..self.plan.churn_puts {
            let id = self.new_key();
            let len = if i % large_every == large_every - 1 {
                LARGE
            } else {
                SMALL
            };
            self.put(id, len, Phase::Churn);
            user += len as u64;
            let live = self.ledger.live();
            let victim = live[rng.below(live.len() as u64) as usize];
            self.delete(victim, Phase::Churn);
        }
        let (w1, c1) = proc_io();
        if self.m.write_phase_ops == 0 {
            self.m.write_phase = (w1 - w0, c1 - c0, user);
            self.m.write_phase_ops = 2 * self.plan.churn_puts as u64;
        }
        if switch {
            self.restart(self.plan.policy)?;
        }
        Ok(())
    }

    /// Random gets of live keys with `n − k` nodes failed in every shard.
    /// The nodes stay failed: the repair phase replaces them first.
    pub fn degraded(&mut self) -> Result<(), Wrong> {
        let mut rng = Rng::new(self.seed, 3);
        self.fail_nodes(&DEGRADED_NODES)?;
        let keys: Vec<u32> = self.ledger.live().to_vec();
        for _ in 0..self.plan.degraded_gets {
            let id = keys[rng.below(keys.len() as u64) as usize];
            self.get(id, Phase::Degraded)?;
        }
        Ok(())
    }

    /// Replace and repair every node of every shard, one at a time.
    pub fn repair(&mut self) -> Result<(), Wrong> {
        for (s, node) in (0..self.plan.repair_rounds)
            .flat_map(|_| SHARDS)
            .flat_map(|s| (0..spec().n).map(move |n| (s, n)))
        {
            {
                let cluster = self.cluster.as_mut().expect("cluster is up");
                let c = Clocks::start();
                let r = cluster
                    .shard_mut(s)
                    .expect("member shard")
                    .replace_node(NodeId(node))
                    .map_err(ClusterError::from)
                    .and_then(|()| cluster.repair_node(s, NodeId(node)));
                let cost = c.stop();
                self.m.acct.repair.attempted += 1;
                self.m.repair.push(cost);
                if let Some(tr) = &mut self.trace {
                    tr.op(Phase::Other, crate::trace::Op::Repair, c.wall, cost.0);
                }
                // With every other node up, a repair has all it needs:
                // a failure leaves the node's symbols lost.
                r.map_err(|e| Wrong(format!("repair of shard {s} node {node} failed: {e}")))?;
            }
        }
        Ok(())
    }

    /// Remove the run's directory.
    pub fn cleanup(&mut self) {
        self.cluster = None;
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

fn tally_fail(acct: &mut Accounting, degraded: bool) {
    if degraded {
        acct.degraded_get.failed += 1;
    } else {
        acct.get.failed += 1;
    }
}
