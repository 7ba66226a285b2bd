//! Per-layer metrics of the traced run.
//!
//! Each layer's public functions are timed from outside, on the calls the
//! traced workload itself made:
//!
//! * **shadow replays** — the run's puts, deletes and gets replayed, in
//!   order, into standalone `DistributedStore`s (one per shard, routed by
//!   `MembershipView::owner_of`, same configuration, own directory). A
//!   cluster call's self time is its median minus the shadow's median.
//! * **twin replays** — the same mutations over `FileLog::with_raw` on the
//!   in-memory `FaultySegFs` twin, whose handle counts fsyncs and bytes
//!   exactly.
//! * **probes** — the codec, the metalog, one WAL append + fsync, and the
//!   ring lookup, each alone on the workload's own inputs.
//!
//! Registry counters of the cluster come from the marks the traced run
//! took at its phase boundaries.

use std::collections::HashSet;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use rain_cluster::{MembershipView, MetaLog, MetaRecord};
use rain_codes::{build_code, ErasureCode, ShareSet, ShareView};
use rain_obs::Registry;
use rain_sim::NodeId;
use rain_storage::{
    DistributedStore, FaultSpec, FaultySegFs, FaultySegHandle, FileLog, LogBackend, SegmentedFile,
    SelectionPolicy,
};

use crate::oracle::{payload, LARGE, SMALL};
use crate::stats::{Clocks, Samples};
use crate::trace::{Op, Trace, ROOT};
use crate::workload::{
    config, spec, Bench, Phase, Workload, Wrong, DEGRADED_NODES, SEGMENT_BYTES, SHARDS, VNODES,
};

/// `(name, unit, value)`.
pub type Metric = (&'static str, &'static str, f64);

fn wrong<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> Wrong {
    move |e| Wrong(format!("{what}: {e}"))
}

/// Per-call timings of the shadow replay.
#[derive(Default)]
struct Shadow {
    put: Samples,
    get: Samples,
    degraded_get: Samples,
    repair: Samples,
    compact_ns: u64,
    attempts: u64,
    gets: u64,
}

/// Counts from the twin replay over the write source.
struct Twin {
    syncs: u64,
    mutations: u64,
    append_bytes: u64,
    seals: u64,
    puts: u64,
    user_bytes: u64,
}

/// Which phase a replay measures: the main phase when it holds such
/// calls, the fallback otherwise.
fn source(log: &[(Phase, Op)], want: fn(&Op) -> bool, fallback: Phase) -> Phase {
    if log.iter().any(|(p, op)| *p == Phase::Main && want(op)) {
        Phase::Main
    } else {
        fallback
    }
}

fn is_mutation(op: &Op) -> bool {
    matches!(op, Op::Put { .. } | Op::Delete { .. })
}

fn is_get(op: &Op) -> bool {
    matches!(op, Op::Get { .. })
}

/// Every per-layer metric of a finished traced run.
/// `untraced_ops_per_cpu_s` is the same workload's main phase with tracing
/// off. Self times subtract CPU-time medians: on a shared disk the wall
/// medians of fsync-bound calls swing with other tenants' traffic.
pub fn per_layer(b: &mut Bench, untraced_ops_per_cpu_s: f64) -> Result<Vec<Metric>, Wrong> {
    let mut tr = b.trace.take().expect("a traced run");
    let plan = b.plan;
    let dir = b.root.join("layers");
    let view = MembershipView::genesis(&SHARDS, VNODES);
    let write_src = source(&tr.log, is_mutation, Phase::Preload);
    let get_src = source(&tr.log, is_get, Phase::Sweep);

    let shadow = shadow_replay(b, &mut tr, &view, &dir.join("shadow"), get_src)?;
    let twin = twin_replay(b, &tr, &view, write_src)?;
    let (meta_append_us, meta_syncs, meta_bytes) = metalog_probe(b, &tr, &view, write_src, &dir)?;
    let fsync_us = fsync_probe(&dir.join("fsync-probe"))?;
    let owner_of_ns = owner_of_probe(b, &view);
    let codes = codes_probe(&mut tr)?;

    let m = &b.m;
    let cluster_put = if write_src == Phase::Main {
        &m.main_put
    } else {
        &m.preload_put
    };
    let (cluster_get, marks, slot) = if get_src == Phase::Main {
        (&m.main_get, tr.between("main.start", "main.end"), 0)
    } else {
        (&m.sweep_get, tr.between("sweep.start", "sweep.end"), 1)
    };
    let lookups = (marks.cache_hits + marks.cache_misses).max(1);
    let gets = cluster_get.len().max(1) as f64;
    let block = config(plan.policy).capacity as f64;
    let decoded = marks.cache_misses as f64 * block + m.whole_gets[slot] as f64 * LARGE as f64;
    let first = m.recoveries.first().cloned().unwrap_or_default();
    let (live, packed, checkpoints) = tr.main_end_groups;
    let (_, syscw, _) = m.write_phase;

    let spans =
        Path::new(".bench_work").join(format!("spans-{}-seed{}.tsv", plan.workload.name(), b.seed));
    tr.write_spans(&spans).map_err(wrong("writing spans"))?;
    println!("spans written to {}", spans.display());
    print_waterfall(plan.workload, cluster_put, cluster_get, &shadow, &codes);

    Ok(vec![
        ("cluster.view.owner_of_ns", "ns", owner_of_ns),
        (
            "cluster.store.put_self_us",
            "us",
            cluster_put.cpu_p50_us() - shadow.put.cpu_p50_us(),
        ),
        (
            "cluster.store.get_self_us",
            "us",
            cluster_get.cpu_p50_us() - shadow.get.cpu_p50_us(),
        ),
        ("cluster.metalog.append_us", "us", meta_append_us),
        ("cluster.metalog.fsyncs_per_op", "1/op", meta_syncs),
        ("cluster.metalog.bytes_per_op", "B/op", meta_bytes),
        (
            "cluster.recover.meta_records",
            "count",
            first.meta_records_replayed as f64,
        ),
        ("storage.store.put_us", "us", shadow.put.cpu_p50_us()),
        ("storage.store.get_us", "us", shadow.get.cpu_p50_us()),
        (
            "storage.store.degraded_get_us",
            "us",
            shadow.degraded_get.cpu_p50_us(),
        ),
        (
            "storage.store.repair_ms_per_node",
            "ms",
            shadow.repair.cpu_p50_us() / 1e3,
        ),
        (
            "storage.wal.fsyncs_per_op",
            "1/op",
            twin.syncs as f64 / twin.mutations.max(1) as f64,
        ),
        ("storage.wal.fsync_us", "us", fsync_us),
        (
            "storage.wal.bytes_per_user_byte",
            "B/B",
            twin.append_bytes as f64 / twin.user_bytes.max(1) as f64,
        ),
        (
            "storage.wal.write_calls_per_op",
            "1/op",
            syscw as f64 / m.write_phase_ops.max(1) as f64,
        ),
        ("storage.wal.checkpoints", "count", checkpoints as f64),
        (
            "storage.recover.records_replayed",
            "count",
            first
                .shard_reports
                .values()
                .map(|r| r.records_replayed)
                .sum::<usize>() as f64,
        ),
        (
            "storage.group.seals_per_kput",
            "1/kop",
            twin.seals as f64 * 1e3 / twin.puts.max(1) as f64,
        ),
        (
            "storage.group.cache_hit_ratio",
            "ratio",
            marks.cache_hits as f64 / lookups as f64,
        ),
        (
            "storage.group.decoded_bytes_per_get_byte",
            "B/B",
            decoded / m.get_bytes[slot].max(1) as f64,
        ),
        (
            "storage.group.live_fraction",
            "ratio",
            live as f64 / packed.max(1) as f64,
        ),
        (
            "storage.group.compact_ms",
            "ms",
            shadow.compact_ns as f64 / 1e6,
        ),
        (
            "storage.transport.attempts_per_get",
            "1/op",
            shadow.attempts as f64 / shadow.gets.max(1) as f64,
        ),
        ("codes.encode_group_mb_per_s", "MB/s", codes.encode_group),
        ("codes.encode_whole_mb_per_s", "MB/s", codes.encode_whole),
        ("codes.decode_mb_per_s", "MB/s", codes.decode),
        (
            "codes.degraded_decode_mb_per_s",
            "MB/s",
            codes.degraded_decode,
        ),
        ("codes.repair_mb_per_s", "MB/s", codes.repair),
        (
            "codes.decodes_per_kget",
            "1/kop",
            (marks.cache_misses + m.whole_gets[slot]) as f64 * 1e3 / gets,
        ),
        (
            "obs.traced_ops_ratio",
            "ratio",
            m.ops_per_cpu_s() / untraced_ops_per_cpu_s,
        ),
    ])
}

/// Replay the kept set-up and the main phase into one standalone store
/// per shard, timing the calls of the measured phases; then the get
/// source, the degraded gets with the same nodes failed, one compaction
/// pass, and the repair of every node of shard 0.
fn shadow_replay(
    b: &Bench,
    tr: &mut Trace,
    view: &MembershipView,
    dir: &Path,
    get_src: Phase,
) -> Result<Shadow, Wrong> {
    let code = build_code(spec()).map_err(wrong("build_code"))?;
    let mut stores = Vec::new();
    for s in SHARDS {
        stores.push(
            DistributedStore::with_wal_segments(
                code.clone(),
                config(b.plan.policy),
                dir.join(format!("shard-{s}")),
            )
            .map_err(wrong("shadow store"))?,
        );
    }
    let mut out = Shadow::default();
    let mut live: HashSet<u32> = HashSet::new();
    let mut buf = Vec::with_capacity(LARGE);
    let put_src = source(&tr.log, |op| matches!(op, Op::Put { .. }), Phase::Preload);
    let log = tr.log.clone();
    let mut replay = |tr: &mut Trace, req: usize, phase: Phase, op: Op, out: &mut Shadow| match op {
        Op::Put { id, version, len } => {
            payload(b.seed, id, version, len, &mut buf);
            let name = b.ledger.name(id);
            let s = view.owner_of(name).expect("a member owns every key");
            let c = Clocks::start();
            let r = stores[s].store(name, black_box(&buf));
            let cost = c.stop();
            if r.is_ok() {
                live.insert(id);
            }
            tr.span("storage.store", c.wall, cost.0, ROOT, req as u64);
            if phase == put_src {
                out.put.push(cost);
            }
        }
        Op::Delete { id } => {
            let name = b.ledger.name(id);
            let s = view.owner_of(name).expect("a member owns every key");
            let c = Clocks::start();
            let _ = stores[s].delete(name);
            tr.span("storage.delete", c.wall, c.stop().0, ROOT, req as u64);
            live.remove(&id);
        }
        Op::Get { id } if live.contains(&id) => {
            let name = b.ledger.name(id);
            let s = view.owner_of(name).expect("a member owns every key");
            let before = stores[s].transport_stats().attempts;
            let c = Clocks::start();
            let r = stores[s].retrieve(name, SelectionPolicy::FirstK);
            let cost = c.stop();
            black_box(&r);
            tr.span("storage.retrieve", c.wall, cost.0, ROOT, req as u64);
            if phase == get_src {
                out.get.push(cost);
                out.gets += 1;
                out.attempts += stores[s].transport_stats().attempts - before;
            } else if phase == Phase::Degraded {
                out.degraded_get.push(cost);
            }
        }
        Op::Compact => {
            for st in stores.iter_mut() {
                let _ = st.compact();
            }
        }
        _ => {}
    };
    for (req, &(phase, op)) in log.iter().enumerate() {
        if matches!(phase, Phase::Preload | Phase::Main) {
            replay(tr, req, phase, op, &mut out);
        }
    }
    if get_src == Phase::Sweep {
        for (req, &(phase, op)) in log.iter().enumerate() {
            if phase == Phase::Sweep {
                replay(tr, req, phase, op, &mut out);
            }
        }
    }
    let c = Clocks::start();
    for st in stores.iter_mut() {
        st.compact().map_err(wrong("shadow compact"))?;
    }
    out.compact_ns = c.stop().1;
    for st in stores.iter_mut() {
        for &n in &DEGRADED_NODES {
            st.fail_node(NodeId(n)).map_err(wrong("fail_node"))?;
        }
    }
    for (req, &(phase, op)) in log.iter().enumerate() {
        if let (Phase::Degraded | Phase::PostRepair, Op::Get { id }) = (phase, op) {
            if !live.contains(&id) {
                continue;
            }
            let name = b.ledger.name(id);
            let s = view.owner_of(name).expect("a member owns every key");
            let c = Clocks::start();
            let r = stores[s].retrieve(name, SelectionPolicy::FirstK);
            let cost = c.stop();
            black_box(&r);
            tr.span("storage.retrieve", c.wall, cost.0, ROOT, req as u64);
            out.degraded_get.push(cost);
        }
    }
    for n in 0..spec().n {
        let c = Clocks::start();
        stores[0]
            .replace_node(NodeId(n))
            .and_then(|()| stores[0].repair_node(NodeId(n)))
            .map_err(wrong("shadow repair"))?;
        let cost = c.stop();
        tr.span("storage.repair_node", c.wall, cost.0, ROOT, u64::MAX);
        out.repair.push(cost);
    }
    Ok(out)
}

/// A store over the in-memory segmented twin, and the twin's handle.
fn twin_store(
    code: Arc<dyn ErasureCode>,
    policy: rain_storage::FsyncPolicy,
    registry: &Registry,
) -> Result<(DistributedStore, FaultySegHandle), Wrong> {
    let (fs, handle) = FaultySegFs::new(FaultSpec::default());
    let seg = SegmentedFile::open(Box::new(fs), SEGMENT_BYTES).map_err(wrong("twin segments"))?;
    let log = FileLog::with_raw(Box::new(seg), policy).map_err(wrong("twin log"))?;
    let mut store = DistributedStore::with_wal(code, config(policy), Box::new(log));
    store.attach_registry(registry);
    Ok((store, handle))
}

/// Replay the kept set-up and the main phase's mutations over the twin and
/// count, over the write source, fsyncs, WAL bytes and seals.
fn twin_replay(
    b: &Bench,
    tr: &Trace,
    view: &MembershipView,
    write_src: Phase,
) -> Result<Twin, Wrong> {
    let code = build_code(spec()).map_err(wrong("build_code"))?;
    let registry = Registry::new();
    let mut stores = Vec::new();
    for _ in SHARDS {
        stores.push(twin_store(code.clone(), b.plan.policy, &registry)?);
    }
    let syncs = |stores: &[(DistributedStore, FaultySegHandle)]| {
        stores.iter().map(|(_, h)| h.syncs() as u64).sum::<u64>()
    };
    let mut buf = Vec::with_capacity(LARGE);
    let mut before = (0, 0, 0);
    let mut twin = Twin {
        syncs: 0,
        mutations: 0,
        append_bytes: 0,
        seals: 0,
        puts: 0,
        user_bytes: 0,
    };
    for phase in [Phase::Preload, Phase::Main] {
        if phase == write_src {
            before = (
                syncs(&stores),
                registry.counter_value("storage.wal.append_bytes"),
                registry.counter_value("storage.group.seals"),
            );
        }
        for &(p, op) in tr.log.iter().filter(|(p, _)| *p == phase) {
            let counted = p == write_src;
            match op {
                Op::Put { id, version, len } => {
                    payload(b.seed, id, version, len, &mut buf);
                    let name = b.ledger.name(id);
                    let s = view.owner_of(name).expect("a member owns every key");
                    stores[s].0.store(name, &buf).map_err(wrong("twin store"))?;
                    if counted {
                        twin.puts += 1;
                        twin.mutations += 1;
                        twin.user_bytes += len as u64;
                    }
                }
                Op::Delete { id } => {
                    let name = b.ledger.name(id);
                    let s = view.owner_of(name).expect("a member owns every key");
                    stores[s].0.delete(name).map_err(wrong("twin delete"))?;
                    if counted {
                        twin.mutations += 1;
                    }
                }
                Op::Compact => {
                    for (st, _) in stores.iter_mut() {
                        st.compact().map_err(wrong("twin compact"))?;
                    }
                }
                _ => {}
            }
        }
        if phase == write_src {
            twin.syncs = syncs(&stores) - before.0;
            twin.append_bytes = registry.counter_value("storage.wal.append_bytes") - before.1;
            twin.seals = registry.counter_value("storage.group.seals") - before.2;
        }
    }
    Ok(twin)
}

/// The metalog records the write source produced: `DirPut` on a key's
/// first write, `DirDel` on delete. When the main phase makes none (only
/// overwrites), the set-up's records stand in.
fn meta_records(b: &Bench, tr: &Trace, view: &MembershipView, write_src: Phase) -> Vec<MetaRecord> {
    let mut live: HashSet<u32> = HashSet::new();
    let mut by_phase: [Vec<MetaRecord>; 2] = [Vec::new(), Vec::new()];
    for &(phase, op) in &tr.log {
        let slot = match phase {
            Phase::Preload => 0,
            Phase::Main => 1,
            _ => continue,
        };
        match op {
            Op::Put { id, .. } if live.insert(id) => {
                let key = b.ledger.name(id).to_string();
                let shard = view.owner_of(&key).expect("a member owns every key");
                by_phase[slot].push(MetaRecord::DirPut { key, shard });
            }
            Op::Delete { id } if live.remove(&id) => {
                by_phase[slot].push(MetaRecord::DirDel {
                    key: b.ledger.name(id).to_string(),
                });
            }
            _ => {}
        }
    }
    let [preload, main] = by_phase;
    if write_src == Phase::Main && !main.is_empty() {
        main
    } else {
        preload
    }
}

/// Append the write source's metalog records to a real-file metalog (p50
/// append, µs) and to the in-memory twin (fsyncs and bytes per record).
fn metalog_probe(
    b: &Bench,
    tr: &Trace,
    view: &MembershipView,
    write_src: Phase,
    dir: &Path,
) -> Result<(f64, f64, f64), Wrong> {
    let records = meta_records(b, tr, view, write_src);
    let policy = b.plan.policy;
    let file = FileLog::open_segmented(dir.join("metalog-probe"), policy, SEGMENT_BYTES)
        .map_err(wrong("metalog probe"))?;
    let mut meta = MetaLog::new(Box::new(file));
    let mut timed = Samples::default();
    for r in records.iter().take(4_000) {
        let c = Clocks::start();
        meta.append(r).map_err(wrong("metalog append"))?;
        timed.push(c.stop());
    }
    let (fs, handle) = FaultySegFs::new(FaultSpec::default());
    let seg = SegmentedFile::open(Box::new(fs), SEGMENT_BYTES).map_err(wrong("twin segments"))?;
    let log = FileLog::with_raw(Box::new(seg), policy).map_err(wrong("twin log"))?;
    let mut twin = MetaLog::new(Box::new(log));
    for r in &records {
        twin.append(r).map_err(wrong("twin metalog append"))?;
    }
    let n = records.len().max(1) as f64;
    let bytes: usize = handle
        .accepted_files()
        .iter()
        .filter(|(name, _)| name.ends_with(".seg"))
        .map(|(_, data)| data.len())
        .sum();
    Ok((timed.p50_us(), handle.syncs() as f64 / n, bytes as f64 / n))
}

/// p50 of one put-sized frame appended to a `FileLog` under `Always`
/// (write + fsync) in the benchmark's directory: the disk's floor under a
/// durable put.
fn fsync_probe(dir: &Path) -> Result<f64, Wrong> {
    let mut log = FileLog::open_segmented(dir, rain_storage::FsyncPolicy::Always, SEGMENT_BYTES)
        .map_err(wrong("fsync probe"))?;
    let frame = vec![0x5Au8; SMALL + 64];
    let mut s = Samples::default();
    for _ in 0..1_000 {
        let c = Clocks::start();
        log.append(&frame).map_err(wrong("fsync probe append"))?;
        s.push(c.stop());
    }
    Ok(s.p50_us())
}

/// Mean ns of one ring lookup over every key the run wrote.
fn owner_of_probe(b: &Bench, view: &MembershipView) -> f64 {
    let names: Vec<&str> = b
        .ledger
        .written()
        .into_iter()
        .map(|id| b.ledger.name(id))
        .collect();
    let mut calls = 0u64;
    let c = Clocks::start();
    while c.wall.elapsed().as_millis() < 100 {
        for name in &names {
            black_box(view.owner_of(black_box(name)));
        }
        calls += names.len() as u64;
    }
    c.stop().1 as f64 / calls as f64
}

/// Codec throughputs, MB/s of data bytes.
struct Codes {
    encode_group: f64,
    encode_whole: f64,
    decode: f64,
    degraded_decode: f64,
    repair: f64,
}

/// Repeat `f` for at least 0.1 s; MB/s of `bytes` per call.
fn mb_per_s(
    tr: &mut Trace,
    name: &'static str,
    parent: u32,
    bytes: usize,
    mut f: impl FnMut(),
) -> f64 {
    let c = Clocks::start();
    let mut calls = 0u64;
    while c.wall.elapsed().as_millis() < 100 {
        for _ in 0..16 {
            f();
        }
        calls += 16;
    }
    let (wall, cpu) = c.stop();
    tr.span(name, c.wall, wall, parent, u64::MAX);
    (bytes as u64 * calls) as f64 / (cpu as f64 / 1e9) / 1e6
}

/// Time the (6,4) B-Code at the sealed-group size and the whole-object
/// frame size, checking `decode(encode(x)) == x` for every erasure
/// pattern timed.
fn codes_probe(tr: &mut Trace) -> Result<Codes, Wrong> {
    let code = build_code(spec()).map_err(wrong("build_code"))?;
    let unit = code.data_len_unit();
    let pad = |len: usize| len.div_ceil(unit) * unit;
    let group_len = pad(config(rain_storage::FsyncPolicy::Always).capacity);
    let whole_len = pad(8 + LARGE);
    let t0 = Instant::now();
    let probe = tr.span("layers.codes", t0, 0, ROOT, u64::MAX);
    let mut data = Vec::new();
    payload(0xC0DE, 0, 1, group_len, &mut data);
    let mut set = ShareSet::new();
    let encode_group = mb_per_s(tr, "codes.encode", probe, group_len, || {
        code.encode_into(black_box(&data), &mut set)
            .expect("valid length");
    });
    let mut whole = Vec::new();
    payload(0xC0DE, 1, 1, whole_len, &mut whole);
    let mut wset = ShareSet::new();
    let encode_whole = mb_per_s(tr, "codes.encode", probe, whole_len, || {
        code.encode_into(black_box(&whole), &mut wset)
            .expect("valid length");
    });
    code.encode_into(&data, &mut set).map_err(wrong("encode"))?;
    let shares: Vec<&[u8]> = set.iter().collect();
    let mut out = Vec::new();
    let mut patterns = Vec::new();
    for missing in [[4usize, 5], DEGRADED_NODES] {
        let mut view = ShareView::from_slices(&shares);
        for &m in &missing {
            view.clear(m);
        }
        code.decode_into(&view, &mut out).map_err(wrong("decode"))?;
        if out[..group_len] != data[..] {
            return Err(Wrong(format!(
                "codes: decode with shares {missing:?} missing is wrong"
            )));
        }
        patterns.push(mb_per_s(tr, "codes.decode", probe, group_len, || {
            code.decode_into(black_box(&view), &mut out)
                .expect("enough shares");
        }));
    }
    let mut view = ShareView::from_slices(&shares);
    view.clear(0);
    let mut lost = vec![0u8; set.share_len()];
    code.repair(&view, 0, &mut lost).map_err(wrong("repair"))?;
    if lost != set.share(0) {
        return Err(Wrong("codes: repaired share 0 is wrong".to_string()));
    }
    let repair = mb_per_s(tr, "codes.repair", probe, group_len, || {
        code.repair(black_box(&view), 0, &mut lost)
            .expect("enough shares");
    });
    let end = Instant::now().duration_since(t0).as_nanos() as u64;
    tr.spans[probe as usize].end_ns = tr.spans[probe as usize].start_ns + end;
    Ok(Codes {
        encode_group,
        encode_whole,
        decode: patterns[0],
        degraded_decode: patterns[1],
        repair,
    })
}

/// The codes → storage → cluster waterfall of one put and one get, in
/// CPU-time medians: each layer's own cost is one subtraction.
fn print_waterfall(w: Workload, put: &Samples, get: &Samples, shadow: &Shadow, codes: &Codes) {
    // MB/s is bytes per µs, so bytes / MB/s is µs.
    let group = config(rain_storage::FsyncPolicy::Always).capacity as f64;
    println!("waterfall ({}; CPU p50, us):", w.name());
    println!(
        "  put: cluster {:.2} = storage {:.2} + cluster self {:.2}; one group seal encode {:.2}",
        put.cpu_p50_us(),
        shadow.put.cpu_p50_us(),
        put.cpu_p50_us() - shadow.put.cpu_p50_us(),
        group / codes.encode_group
    );
    println!(
        "  get: cluster {:.2} = storage {:.2} + cluster self {:.2}; one group decode {:.2} (degraded {:.2})",
        get.cpu_p50_us(),
        shadow.get.cpu_p50_us(),
        get.cpu_p50_us() - shadow.get.cpu_p50_us(),
        group / codes.decode,
        group / codes.degraded_decode
    );
}
