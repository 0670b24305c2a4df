//! The per-layer trace. The workload's own op stream (same seed, same
//! preload) is replayed in-process through each layer's public entry
//! points, one span around each call: the wire parser and encoders, the
//! server's `Store`, the CLOCK cache, the cuckoo table and the op log.
//! Each layer's figure is its span time per key (or per request for the
//! protocol layer), so it includes the layers it calls; the difference
//! between adjacent layers on the same inputs is the upper one's self
//! time. The clock reads of an empty span are subtracted from every span;
//! `trace.overhead_pct` is that cost as a share of the span time left.
//! A std-only echo server gives the loopback floor the wire adds.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cache::ClockCache;
use cuckoo::{CuckooMap, OptimisticCuckooMap};
use metrics::persist::PersistMetrics;
use persist::{PersistConfig, Persister};
use server::proto::{self, StoreVerb};
use server::store::{ClockStore, CuckooStore, ItemOut, Store, StoreCmd};

use crate::client::encode;
use crate::gen::{key_bytes, mix, push_value, Req, Stream, KEY_LEN};
use crate::spec::{Loop, Workload, DEFAULT_CLOCK_CAPACITY};
use crate::stats::percentile_of;

/// Requests replayed per workload (split across its connections).
const REPLAY_REQS: usize = 40_000;

/// The 256-byte item the CLOCK store keeps inline (24-byte header plus
/// 232 bytes of key and value).
type Item = [u64; 32];

/// The replayed stream: requests in connection round-robin order (each
/// connection's own order preserved) and the preloaded keys.
pub struct Replay {
    reqs: Vec<Req>,
    preload: Vec<u32>,
    /// Longest run of consecutive `set`s the server may coalesce.
    burst: usize,
}

impl Replay {
    pub fn new(w: &Workload, seed: u64, conns: u32) -> Replay {
        let mut streams: Vec<Stream> = (0..conns).map(|c| Stream::new(w, seed, c, conns)).collect();
        // Preloaded keys hottest first (rank order across connections).
        let mut preload = Vec::new();
        if w.preload {
            let owned: Vec<Vec<u32>> = streams
                .iter()
                .map(|s| s.model().map(|(k, _)| k).collect())
                .collect();
            for rank in 0..owned[0].len() {
                for (s, keys) in streams.iter_mut().zip(&owned) {
                    if let Some(&k) = keys.get(rank) {
                        s.bump(k);
                        preload.push(k);
                    }
                }
            }
        }
        let per = REPLAY_REQS / conns as usize;
        let mut reqs = Vec::with_capacity(REPLAY_REQS);
        for _ in 0..per {
            for s in &mut streams {
                reqs.push(s.next_req());
            }
        }
        let burst = match w.lp {
            Loop::Open { .. } => 1,
            Loop::Closed { depth } => depth,
        };
        Replay {
            reqs,
            preload,
            burst,
        }
    }

    /// Consecutive runs: a `get` alone, or up to `burst` `set`s.
    fn groups(&self) -> Vec<&[Req]> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < self.reqs.len() {
            let run = match self.reqs[i] {
                Req::Get { .. } => 1,
                Req::Set { .. } => self.reqs[i..]
                    .iter()
                    .take(self.burst)
                    .take_while(|r| matches!(r, Req::Set { .. }))
                    .count(),
            };
            out.push(&self.reqs[i..i + run]);
            i += run;
        }
        out
    }
}

/// Accumulated span time and work for one call kind.
#[derive(Default, Clone, Copy)]
struct Acc {
    ns: f64,
    units: f64,
}

impl Acc {
    fn add(&mut self, t0: Instant, units: usize, clock: &Clock) {
        let ns = t0.elapsed().as_nanos() as f64 - clock.empty_ns;
        self.ns += ns;
        self.units += units as f64;
        clock.spans.set(clock.spans.get() + 1);
        clock.net_ns.set(clock.net_ns.get() + ns);
    }

    fn per_unit(&self) -> f64 {
        if self.units == 0.0 {
            0.0
        } else {
            self.ns / self.units
        }
    }
}

/// The span clock: the cost of an empty span (two clock reads), which
/// every span subtracts, and the totals over all spans taken.
struct Clock {
    empty_ns: f64,
    spans: Cell<u64>,
    /// Span time after the subtraction.
    net_ns: Cell<f64>,
}

impl Clock {
    fn new() -> Clock {
        let mut v: Vec<u64> = (0..10_000)
            .map(|_| {
                let t0 = Instant::now();
                t0.elapsed().as_nanos() as u64
            })
            .collect();
        Clock {
            empty_ns: percentile_of(&mut v, 50.0) as f64,
            spans: Cell::new(0),
            net_ns: Cell::new(0.0),
        }
    }

    /// The clock's cost as a share of the time the spans measured.
    fn overhead_pct(&self) -> f64 {
        100.0 * self.empty_ns * self.spans.get() as f64 / self.net_ns.get()
    }
}

fn value_of(key: u32, version: u32) -> Vec<u8> {
    let mut v = Vec::new();
    push_value(key, version, &mut v);
    v
}

fn item_of(key: u32, version: u32) -> Item {
    let mut it = [0u64; 32];
    it[0] = u64::from(version);
    it[1] = u64::from(key);
    it
}

/// Runs every layer over the replay; returns `name → value` for the
/// span-timed per-layer metrics and `trace.overhead_pct`.
pub fn run(w: &Workload, r: &Replay, dir: &Path) -> Result<BTreeMap<&'static str, f64>, String> {
    let clock = &Clock::new();
    let mut out = BTreeMap::new();
    let (parse, enc) = proto_layer(r, clock)?;
    out.insert("proto.parse_ns", parse);
    out.insert("proto.encode_ns", enc);
    let clock_cap = w.server.capacity.unwrap_or(DEFAULT_CLOCK_CAPACITY);
    let store: Box<dyn Store> = if w.server.no_evict {
        Box::new(CuckooStore::new(clock_cap))
    } else {
        Box::new(ClockStore::new(clock_cap))
    };
    let (g, s) = store_layer(store.as_ref(), r, w.evicts(), clock)?;
    out.insert("store.get_ns", g);
    out.insert("store.set_ns", s);
    drop(store);
    // Where the server runs no CLOCK cache, the cache layer is measured
    // on the same stream with room for every key (reference only).
    let cache_cap = if w.server.no_evict {
        w.keyspace as usize
    } else {
        clock_cap
    };
    let (g, p) = cache_layer(cache_cap, r, clock);
    out.insert("cache.get_ns", g);
    out.insert("cache.put_ns", p);
    let (g, i) = if w.server.no_evict {
        cuckoo_general(clock_cap, r, clock)
    } else {
        cuckoo_optimistic(clock_cap, r, clock)
    };
    out.insert("cuckoo.get_ns", g);
    out.insert("cuckoo.insert_ns", i);
    let (append, commit, replay) = persist_layer(w, r, dir, clock)?;
    out.insert("persist.append_ns", append);
    out.insert("persist.group_commit_us", commit);
    out.insert("persist.replay_records_per_s", replay);
    out.insert("trace.overhead_pct", clock.overhead_pct());
    Ok(out)
}

/// Per request: `proto::parse` of the request bytes, and building the
/// reply with the `encode_*` functions.
fn proto_layer(r: &Replay, clock: &Clock) -> Result<(f64, f64), String> {
    let (mut parse, mut enc) = (Acc::default(), Acc::default());
    let mut buf = Vec::new();
    let mut reply = Vec::with_capacity(4096);
    for req in &r.reqs {
        buf.clear();
        encode(req, &mut buf);
        let t0 = Instant::now();
        let parsed = proto::parse(&buf);
        parse.add(t0, 1, clock);
        match parsed {
            proto::Parsed::Ok { consumed, .. } if consumed == buf.len() => {}
            other => {
                return Err(format!(
                    "proto::parse rejected a generated request: {other:?}"
                ))
            }
        }
        reply.clear();
        match req {
            Req::Get { keys, versions } => {
                let values: Vec<(u32, Vec<u8>)> = keys
                    .iter()
                    .zip(versions)
                    .filter(|(_, &v)| v > 0)
                    .map(|(&k, &v)| (k, value_of(k, v)))
                    .collect();
                let t0 = Instant::now();
                for (k, v) in &values {
                    proto::encode_value(&mut reply, &key_bytes(*k), 0, v, None);
                }
                proto::encode_end(&mut reply);
                enc.add(t0, 1, clock);
            }
            Req::Set { .. } => {
                let t0 = Instant::now();
                proto::encode_line(&mut reply, "STORED");
                enc.add(t0, 1, clock);
            }
        }
    }
    Ok((parse.per_unit(), enc.per_unit()))
}

fn check_item(item: &Option<ItemOut>, key: u32, version: u32, evicts: bool) -> Result<(), String> {
    match item {
        Some(it) if version == 0 || it.data != value_of(key, version) => {
            Err(format!("store replay: wrong value for key {key}"))
        }
        None if version != 0 && !evicts => Err(format!("store replay: key {key} missing")),
        _ => Ok(()),
    }
}

/// Per key: `Store::get`/`get_many` for each get request (as the server
/// calls them), `Store::store_many` for each run of sets.
fn store_layer(
    store: &dyn Store,
    r: &Replay,
    evicts: bool,
    clock: &Clock,
) -> Result<(f64, f64), String> {
    let now = server::store::now_secs();
    let mut outcomes = Vec::new();
    let keys: Vec<[u8; KEY_LEN]> = r.preload.iter().map(|&k| key_bytes(k)).collect();
    let vals: Vec<Vec<u8>> = r.preload.iter().map(|&k| value_of(k, 1)).collect();
    for chunk in keys.chunks(64).zip(vals.chunks(64)) {
        let cmds: Vec<StoreCmd> = chunk
            .0
            .iter()
            .zip(chunk.1)
            .map(|(k, v)| StoreCmd {
                verb: StoreVerb::Set,
                key: k,
                flags: 0,
                exptime: 0,
                data: v,
            })
            .collect();
        store.store_many(&cmds, now, &mut outcomes);
    }
    let (mut get, mut set) = (Acc::default(), Acc::default());
    let mut items = Vec::new();
    for group in r.groups() {
        match &group[0] {
            Req::Get { keys, versions } => {
                let kb: Vec<[u8; KEY_LEN]> = keys.iter().map(|&k| key_bytes(k)).collect();
                let refs: Vec<&[u8]> = kb.iter().map(|k| &k[..]).collect();
                let t0 = Instant::now();
                if refs.len() > 1 {
                    store.get_many(&refs, now, &mut items);
                } else {
                    items.clear();
                    items.push(store.get(refs[0], now));
                }
                get.add(t0, refs.len(), clock);
                for ((item, &k), &v) in items.iter().zip(keys).zip(versions) {
                    check_item(item, k, v, evicts)?;
                }
            }
            Req::Set { .. } => {
                let kv: Vec<([u8; KEY_LEN], Vec<u8>)> = group
                    .iter()
                    .map(|q| match q {
                        Req::Set { key, version } => (key_bytes(*key), value_of(*key, *version)),
                        Req::Get { .. } => unreachable!("groups keep gets alone"),
                    })
                    .collect();
                let cmds: Vec<StoreCmd> = kv
                    .iter()
                    .map(|(k, v)| StoreCmd {
                        verb: StoreVerb::Set,
                        key: k,
                        flags: 0,
                        exptime: 0,
                        data: v,
                    })
                    .collect();
                let t0 = Instant::now();
                store.store_many(&cmds, now, &mut outcomes);
                set.add(t0, cmds.len(), clock);
            }
        }
    }
    Ok((get.per_unit(), set.per_unit()))
}

fn set_pairs(group: &[Req]) -> impl Iterator<Item = (u32, u32)> + '_ {
    group.iter().filter_map(|q| match q {
        Req::Set { key, version } => Some((*key, *version)),
        Req::Get { .. } => None,
    })
}

/// Per key: `ClockCache::get`/`get_many` and `put_many` on hashed keys.
fn cache_layer(cap: usize, r: &Replay, clock: &Clock) -> (f64, f64) {
    let cache: ClockCache<Item> = ClockCache::new(cap);
    let pre: Vec<(u64, Item)> = r
        .preload
        .iter()
        .map(|&k| (mix(u64::from(k)), item_of(k, 1)))
        .collect();
    for chunk in pre.chunks(64) {
        cache.put_many(chunk);
    }
    let (mut get, mut put) = (Acc::default(), Acc::default());
    let mut out = Vec::new();
    for group in r.groups() {
        match &group[0] {
            Req::Get { keys, .. } => {
                let hk: Vec<u64> = keys.iter().map(|&k| mix(u64::from(k))).collect();
                let t0 = Instant::now();
                if hk.len() > 1 {
                    cache.get_many(&hk, &mut out);
                } else {
                    std::hint::black_box(cache.get(hk[0]));
                }
                get.add(t0, hk.len(), clock);
            }
            Req::Set { .. } => {
                let pairs: Vec<(u64, Item)> = set_pairs(group)
                    .map(|(k, v)| (mix(u64::from(k)), item_of(k, v)))
                    .collect();
                let t0 = Instant::now();
                cache.put_many(&pairs);
                put.add(t0, pairs.len(), clock);
            }
        }
    }
    (get.per_unit(), put.per_unit())
}

/// The table inside the CLOCK cache: `OptimisticCuckooMap` sized at
/// twice the capacity, keyed by the 64-bit key hash, holding the
/// hottest `cap` preloaded keys (the CLOCK hand bounds the population
/// there; this table has no hand, so sets that find it full are dropped).
fn cuckoo_optimistic(cap: usize, r: &Replay, clock: &Clock) -> (f64, f64) {
    let map: OptimisticCuckooMap<u64, (u32, Item), 8> = OptimisticCuckooMap::with_capacity(cap * 2);
    let pre: Vec<(u64, (u32, Item))> = r
        .preload
        .iter()
        .take(cap)
        .map(|&k| (mix(u64::from(k)), (k, item_of(k, 1))))
        .collect();
    for chunk in pre.chunks(64) {
        std::hint::black_box(map.upsert_many(chunk));
    }
    let (mut get, mut ins) = (Acc::default(), Acc::default());
    let mut out = Vec::new();
    for group in r.groups() {
        match &group[0] {
            Req::Get { keys, .. } => {
                let hk: Vec<u64> = keys.iter().map(|&k| mix(u64::from(k))).collect();
                out.clear();
                let t0 = Instant::now();
                if hk.len() > 1 {
                    map.get_many_into(&hk, &mut out);
                } else {
                    std::hint::black_box(map.get(&hk[0]));
                }
                get.add(t0, hk.len(), clock);
            }
            Req::Set { .. } => {
                let pairs: Vec<(u64, (u32, Item))> = set_pairs(group)
                    .map(|(k, v)| (mix(u64::from(k)), (k, item_of(k, v))))
                    .collect();
                let t0 = Instant::now();
                let res = map.upsert_many(&pairs);
                ins.add(t0, pairs.len(), clock);
                std::hint::black_box(res);
            }
        }
    }
    (get.per_unit(), ins.per_unit())
}

/// A `--no-evict` entry: owned key bytes and shared value bytes.
type Owned = (Box<[u8]>, Arc<[u8]>);

/// The table behind `--no-evict`: `CuckooMap` with byte-string keys,
/// starting at the server's initial capacity and growing.
fn cuckoo_general(cap: usize, r: &Replay, clock: &Clock) -> (f64, f64) {
    let map: CuckooMap<Box<[u8]>, Arc<[u8]>, 8> = CuckooMap::with_capacity(cap);
    let pre: Vec<Owned> = r
        .preload
        .iter()
        .map(|&k| (Box::from(&key_bytes(k)[..]), Arc::from(value_of(k, 1))))
        .collect();
    map.upsert_many(pre);
    let (mut get, mut ins) = (Acc::default(), Acc::default());
    for group in r.groups() {
        match &group[0] {
            Req::Get { keys, .. } => {
                let kb: Vec<Box<[u8]>> =
                    keys.iter().map(|&k| Box::from(&key_bytes(k)[..])).collect();
                let t0 = Instant::now();
                if kb.len() > 1 {
                    std::hint::black_box(map.get_many(&kb));
                } else {
                    std::hint::black_box(map.get(&kb[0]));
                }
                get.add(t0, kb.len(), clock);
            }
            Req::Set { .. } => {
                let pairs: Vec<Owned> = set_pairs(group)
                    .map(|(k, v)| (Box::from(&key_bytes(k)[..]), Arc::from(value_of(k, v))))
                    .collect();
                let n = pairs.len();
                let t0 = Instant::now();
                let res = map.upsert_many(pairs);
                ins.add(t0, n, clock);
                std::hint::black_box(res);
            }
        }
    }
    (get.per_unit(), ins.per_unit())
}

/// `Persister::append` per set (at the workload's fsync interval, or the
/// server default), the group-commit latency the writer measured, and
/// the replay rate of reopening a copy of the unclean log.
fn persist_layer(
    w: &Workload,
    r: &Replay,
    dir: &Path,
    clock: &Clock,
) -> Result<(f64, f64, f64), String> {
    let fsync_ms = w.server.durable.map_or(5, |(ms, _)| ms);
    let (a, b) = (dir.join("persist-a"), dir.join("persist-b"));
    let cfg = |d: &Path| {
        let mut c = PersistConfig::new(d);
        c.fsync_interval = Duration::from_millis(fsync_ms);
        c.snapshot_interval = Duration::ZERO;
        c
    };
    let io = |e: std::io::Error| format!("persist replay: {e}");
    let m = Arc::new(PersistMetrics::default());
    let (p, _) = Persister::open(cfg(&a), Arc::clone(&m)).map_err(io)?;
    let mut append = Acc::default();
    let mut records = 0u64;
    for (cas, (key, version)) in set_pairs(&r.reqs).enumerate() {
        let op = persist::Op::Set {
            key: key_bytes(key).to_vec(),
            flags: 0,
            expires_at: 0,
            cas: cas as u64 + 1,
            value: value_of(key, version),
        };
        let t0 = Instant::now();
        p.append(&op);
        append.add(t0, 1, clock);
        records += 1;
    }
    p.sync();
    let commit_us = m.group_commit_us.snapshot().mean();
    // A copy of the synced but not shut-down directory replays every
    // record on open, as after a crash.
    std::fs::create_dir_all(&b).map_err(io)?;
    for e in std::fs::read_dir(&a).map_err(io)? {
        let e = e.map_err(io)?;
        std::fs::copy(e.path(), b.join(e.file_name())).map_err(io)?;
    }
    let t0 = Instant::now();
    let (q, rec) = Persister::open(cfg(&b), Arc::new(PersistMetrics::default())).map_err(io)?;
    let secs = t0.elapsed().as_secs_f64();
    if rec.replayed != records {
        return Err(format!(
            "persist replay: {} of {records} records replayed",
            rec.replayed
        ));
    }
    p.shutdown().map_err(io)?;
    q.shutdown().map_err(io)?;
    let _ = std::fs::remove_dir_all(&a);
    let _ = std::fs::remove_dir_all(&b);
    Ok((append.per_unit(), commit_us, records as f64 / secs))
}

/// Round-trip p50 of a `get`-sized message through a std-only echo
/// server on loopback: the floor the wire adds to every request.
pub fn echo_p50_us(rounds: usize) -> Result<f64, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let msg = [&b"get "[..], &key_bytes(1), b"\r\n"].concat();
    std::thread::scope(|s| {
        let echo = s.spawn(move || -> std::io::Result<()> {
            let (mut c, _) = listener.accept()?;
            c.set_nodelay(true)?;
            let mut buf = [0u8; 4096];
            loop {
                let n = c.read(&mut buf)?;
                if n == 0 {
                    return Ok(());
                }
                c.write_all(&buf[..n])?;
            }
        });
        let rtts = (|| -> std::io::Result<Vec<u64>> {
            let mut c = TcpStream::connect(addr)?;
            c.set_nodelay(true)?;
            c.set_read_timeout(Some(Duration::from_secs(10)))?;
            let mut back = vec![0u8; msg.len()];
            let mut rtts = Vec::with_capacity(rounds);
            for _ in 0..rounds {
                let t0 = Instant::now();
                c.write_all(&msg)?;
                c.read_exact(&mut back)?;
                rtts.push(t0.elapsed().as_nanos() as u64);
            }
            Ok(rtts)
        })();
        let served = echo
            .join()
            .map_err(|_| "echo thread panicked".to_string())?;
        let mut rtts = rtts.map_err(|e| format!("echo client: {e}"))?;
        served.map_err(|e| format!("echo server: {e}"))?;
        Ok(percentile_of(&mut rtts, 50.0) as f64 / 1000.0)
    })
}
