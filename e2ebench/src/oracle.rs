//! The independent oracle: a ledger of what every key should hold, and the
//! generator that turns a ledger entry back into its expected bytes.
//!
//! Nothing here reads the program under test. Expected bytes are a pure
//! function of the run seed, the key id and the key's version, so every
//! check compares the store's answer against bytes regenerated from the
//! ledger alone.

/// Byte length of a small object: it rides a coding group.
pub const SMALL: usize = 512;
/// Byte length of a large object: at or above the grouping threshold, so
/// it is placed whole.
pub const LARGE: usize = 16 * 1024;

/// One key's expected state.
#[derive(Debug, Clone, Copy, Default)]
pub struct Entry {
    /// 0 = never written; every acked put bumps it.
    pub version: u32,
    /// Payload length of the current version.
    pub len: u32,
    /// False once deleted (or never written).
    pub live: bool,
}

/// Key → expected state, plus a dense list of live keys for uniform picks.
#[derive(Debug)]
pub struct Ledger {
    seed: u64,
    names: Vec<String>,
    entries: Vec<Entry>,
    live: Vec<u32>,
    /// Position of each key in `live`, `u32::MAX` when not live.
    pos: Vec<u32>,
}

impl Ledger {
    /// An empty ledger over `capacity` key ids (`0..capacity`).
    pub fn new(seed: u64, capacity: usize) -> Self {
        Ledger {
            seed,
            names: (0..capacity).map(|i| format!("obj-{i:08}")).collect(),
            entries: vec![Entry::default(); capacity],
            live: Vec::new(),
            pos: vec![u32::MAX; capacity],
        }
    }

    /// The store key of id `id`.
    pub fn name(&self, id: u32) -> &str {
        &self.names[id as usize]
    }

    /// The expected state of `id`.
    pub fn entry(&self, id: u32) -> Entry {
        self.entries[id as usize]
    }

    /// Live keys, in no particular order.
    pub fn live(&self) -> &[u32] {
        &self.live
    }

    /// Keys ever written (live or deleted), in id order.
    pub fn written(&self) -> Vec<u32> {
        (0..self.entries.len() as u32)
            .filter(|&i| self.entries[i as usize].version > 0)
            .collect()
    }

    /// Fill `out` with the bytes a put of `id` at its *next* version
    /// carries, and return that version.
    pub fn next_payload(&self, id: u32, len: usize, out: &mut Vec<u8>) -> u32 {
        let version = self.entries[id as usize].version + 1;
        payload(self.seed, id, version, len, out);
        version
    }

    /// Fill `out` with the bytes `id` must read back as now.
    pub fn expected(&self, id: u32, out: &mut Vec<u8>) {
        let e = self.entries[id as usize];
        payload(self.seed, id, e.version, e.len as usize, out);
    }

    /// Record an acked put.
    pub fn put(&mut self, id: u32, version: u32, len: usize) {
        let e = &mut self.entries[id as usize];
        e.version = version;
        e.len = len as u32;
        if !e.live {
            e.live = true;
            self.pos[id as usize] = self.live.len() as u32;
            self.live.push(id);
        }
    }

    /// Record an acked delete.
    pub fn delete(&mut self, id: u32) {
        let e = &mut self.entries[id as usize];
        if !e.live {
            return;
        }
        e.live = false;
        let at = self.pos[id as usize] as usize;
        self.live.swap_remove(at);
        if let Some(&moved) = self.live.get(at) {
            self.pos[moved as usize] = at as u32;
        }
        self.pos[id as usize] = u32::MAX;
    }
}

/// SplitMix64: the payload and input generator's mixing step.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The bytes of version `version` of key `id` in a run seeded `seed`.
pub fn payload(seed: u64, id: u32, version: u32, len: usize, out: &mut Vec<u8>) {
    out.clear();
    let mut x = mix(seed ^ mix(((id as u64) << 32) | version as u64));
    while out.len() < len {
        x = mix(x);
        out.extend_from_slice(&x.to_le_bytes());
    }
    out.truncate(len);
}

/// A small deterministic generator for the workload's choices (which op,
/// which key, which size). The benchmark owns its generators (this one and
/// [`Zipf`]) instead of reusing `rain_sim::DetRng` and
/// `rain_storage::ZipfSampler`: a change to the program's samplers must not
/// change the benchmark's inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `stream` of the run seeded `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(mix(seed ^ mix(stream)))
    }

    /// The next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = mix(self.0);
        self.0
    }

    /// Uniform in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// Zipf-distributed ranks (rank 0 hottest), sampled by inverting a CDF.
#[derive(Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// A sampler over `n` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Self {
        let mut total = 0.0;
        let mut cdf = Vec::with_capacity(n);
        for i in 0..n {
            total += ((i + 1) as f64).powf(-s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// One rank in `0..n`.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}
