//! The traced run's span log, replay log and registry marks.
//!
//! Spans are recorded from the benchmark's own files, around each call it
//! makes into a layer: name, start, end, parent span and request id. They
//! stay in memory and are written out when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use rain_cluster::ClusterStore;
use rain_obs::Registry;

use crate::workload::{Phase, SHARDS};

/// One call the benchmark made, as the traced run replays it.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    /// `store` of version `version` (`len` bytes) of key `id`.
    Put {
        /// Key id.
        id: u32,
        /// Version stored.
        version: u32,
        /// Payload length.
        len: usize,
    },
    /// `delete` of key `id`.
    Delete {
        /// Key id.
        id: u32,
    },
    /// `retrieve` of key `id`.
    Get {
        /// Key id.
        id: u32,
    },
    /// `compact()` of every shard.
    Compact,
    /// `replace_node` + `repair_node` of one node.
    Repair,
}

/// No parent span.
pub const ROOT: u32 = u32::MAX;

/// One completed span.
#[derive(Debug, Clone, Copy)]
pub struct SpanRec {
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Start, nanoseconds since the trace began.
    pub start_ns: u64,
    /// End, nanoseconds since the trace began.
    pub end_ns: u64,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// The request this span serves: the index of the cluster call in the
    /// replay log, shared by its shadow replays.
    pub req: u64,
}

/// Registry counters read at a phase boundary.
#[derive(Debug, Default, Clone, Copy)]
pub struct Mark {
    /// `storage.group.cache_hits`.
    pub cache_hits: u64,
    /// `storage.group.cache_misses`.
    pub cache_misses: u64,
}

impl Mark {
    fn read(reg: &Registry) -> Mark {
        Mark {
            cache_hits: reg.counter_value("storage.group.cache_hits"),
            cache_misses: reg.counter_value("storage.group.cache_misses"),
        }
    }

    /// `self - before`.
    pub fn since(&self, before: &Mark) -> Mark {
        Mark {
            cache_hits: self.cache_hits - before.cache_hits,
            cache_misses: self.cache_misses - before.cache_misses,
        }
    }
}

/// Spans, the replay log and registry marks of a traced run.
pub struct Trace {
    origin: Instant,
    /// Every span, in completion order.
    pub spans: Vec<SpanRec>,
    /// Every cluster call of the kept set-up and after, in order, with its
    /// phase. A call's index here is its request id.
    pub log: Vec<(Phase, Op)>,
    /// The registry attached to the cluster.
    pub registry: Registry,
    /// Registry marks by label.
    pub marks: Vec<(&'static str, Mark)>,
    /// `(live_bytes, packed_bytes, checkpoints)` summed over shards at the
    /// end of the main phase.
    pub main_end_groups: (u64, u64, u64),
}

impl Default for Trace {
    fn default() -> Self {
        Self::new()
    }
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
            log: Vec::new(),
            registry: Registry::new(),
            marks: Vec::new(),
            main_end_groups: (0, 0, 0),
        }
    }

    /// Forget the calls of a discarded set-up.
    pub fn reset_log(&mut self) {
        self.log.clear();
        self.spans.clear();
    }

    /// Nanoseconds from the trace origin to `t`.
    pub fn at(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Record a span of `ns` that began at `start`; returns its index.
    pub fn span(
        &mut self,
        name: &'static str,
        start: Instant,
        ns: u64,
        parent: u32,
        req: u64,
    ) -> u32 {
        let start_ns = self.at(start);
        self.spans.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns + ns,
            parent,
            req,
        });
        (self.spans.len() - 1) as u32
    }

    /// Record one cluster call: a root span and a replay-log entry.
    pub fn op(&mut self, phase: Phase, op: Op, start: Instant, ns: u64) {
        let name = match op {
            Op::Put { .. } => "cluster.store",
            Op::Delete { .. } => "cluster.delete",
            Op::Get { .. } => "cluster.retrieve",
            Op::Compact => "storage.compact",
            Op::Repair => "storage.repair_node",
        };
        let req = self.log.len() as u64;
        self.span(name, start, ns, ROOT, req);
        self.log.push((phase, op));
    }

    /// Attach the registry to a (new or recovered) cluster.
    pub fn attach(&self, cluster: &mut ClusterStore) {
        cluster.attach_registry(&self.registry);
    }

    /// Read the registry counters at a phase boundary.
    pub fn mark(&mut self, label: &'static str) {
        let m = Mark::read(&self.registry);
        self.marks.push((label, m));
    }

    /// The counters between marks `from` and `to`.
    pub fn between(&self, from: &str, to: &str) -> Mark {
        let get = |l: &str| {
            self.marks
                .iter()
                .find(|(n, _)| *n == l)
                .map(|(_, m)| *m)
                .unwrap_or_default()
        };
        get(to).since(&get(from))
    }

    /// The main phase ended: note the grouping state.
    pub fn main_done(&mut self, cluster: &ClusterStore) {
        let mut acc = (0u64, 0u64, 0u64);
        for s in SHARDS {
            if let Some(shard) = cluster.shard(s) {
                let g = shard.group_stats();
                acc.0 += g.live_bytes as u64;
                acc.1 += g.packed_bytes as u64;
                acc.2 += g.wal_checkpoints;
            }
        }
        self.main_end_groups = acc;
    }

    /// Write every span as tab-separated lines:
    /// `index name start_ns end_ns parent req`.
    pub fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index\tname\tstart_ns\tend_ns\tparent\treq")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        out.flush()
    }
}
