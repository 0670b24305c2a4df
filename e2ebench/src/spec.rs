//! What the benchmark runs and what it reports: the three workloads and
//! the registry of metric names, units and directions. `BENCHMARK.json`
//! at the repository root must list exactly the names registered here
//! (a unit test holds the two together).

use std::time::Duration;

/// How the client offers load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Loop {
    /// One connection; requests are sent on a fixed schedule whatever
    /// the replies do, and each is timed from its due time.
    Open { rate_per_s: u32 },
    /// `conns` connections, each keeping `depth` requests in flight.
    Closed { depth: usize },
}

/// The `cuckood` configuration a workload runs against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerSpec {
    /// `-c`: resident-item bound (clock) or initial table size
    /// (no-evict). `None` keeps the server default.
    pub capacity: Option<usize>,
    pub no_evict: bool,
    /// Data dir with this fsync interval (ms) and snapshot interval (s).
    pub durable: Option<(u64, u64)>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub lp: Loop,
    /// Distinct keys the op stream addresses.
    pub keyspace: u32,
    /// Zipf exponent; `None` is uniform.
    pub zipf: Option<f64>,
    /// Share of requests that are `get`s, in percent.
    pub read_pct: u32,
    /// Keys per `get` request.
    pub get_keys: u32,
    /// `set` every key once before the run.
    pub preload: bool,
    /// Unmeasured traffic before the window opens.
    pub warmup: Duration,
    pub server: ServerSpec,
}

/// Fresh connection → first reply probe interval during an open loop.
pub const CONNECT_EVERY: Duration = Duration::from_millis(50);

/// The server's default CLOCK capacity (`cuckood -c` default).
pub const DEFAULT_CLOCK_CAPACITY: usize = 1 << 20;

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "paced_get",
        why: "open loop at 2000 req/s on resident keys: the server idles between requests, so wake-up, accept and the wire dominate, not the table",
        lp: Loop::Open { rate_per_s: 2000 },
        keyspace: 10_000,
        zipf: Some(0.99),
        read_pct: 90,
        get_keys: 1,
        preload: true,
        warmup: Duration::from_millis(500),
        server: ServerSpec { capacity: None, no_evict: false, durable: None },
    },
    Workload {
        name: "bulk_read",
        why: "closed loop, deep pipelines of multi-key gets over a keyspace twice the CLOCK capacity: parse, get_many, eviction and optimistic table reads do the work",
        lp: Loop::Closed { depth: 64 },
        keyspace: 1 << 18,
        zipf: Some(0.99),
        read_pct: 90,
        get_keys: 8,
        preload: true,
        warmup: Duration::from_millis(1000),
        server: ServerSpec { capacity: Some(1 << 17), no_evict: false, durable: None },
    },
    Workload {
        name: "durable_write",
        why: "closed loop, 90% uniform sets into a small no-evict table that doubles several times, with op log, group commit, snapshots and a clean restart",
        lp: Loop::Closed { depth: 64 },
        keyspace: 1 << 17,
        zipf: None,
        read_pct: 10,
        get_keys: 1,
        preload: false,
        warmup: Duration::ZERO,
        server: ServerSpec { capacity: Some(4096), no_evict: true, durable: Some((5, 18)) },
    },
];

impl Workload {
    /// A `get` may miss a key that was set: a CLOCK store holding fewer
    /// items than the keyspace evicts.
    pub fn evicts(&self) -> bool {
        !self.server.no_evict
            && self.keyspace as usize > self.server.capacity.unwrap_or(DEFAULT_CLOCK_CAPACITY)
    }
}

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Which run prints a metric: the untraced run (`--trace 0`) prints the
/// end-to-end set, the traced run (`--trace 1`) the per-layer set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    EndToEnd,
    Layer,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
    /// A guard: it should not move at all.
    Neither,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower | Better::Neither => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub kind: Kind,
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, kind: Kind, better: Better) -> Metric {
    Metric {
        name,
        unit,
        kind,
        better,
    }
}

use Better::{Higher as Hi, Lower as Lo, Neither as Guard};
use Kind::{EndToEnd as E2e, Layer as L};

/// Every metric the benchmark prints, in print order.
pub const METRICS: &[Metric] = &[
    m("throughput_kops", "kop/s", E2e, Hi),
    m("get_p50_us", "us", E2e, Lo),
    m("set_p50_us", "us", E2e, Lo),
    m("connect_p50_us", "us", E2e, Lo),
    m("hit_rate", "ratio", E2e, Hi),
    m("server_cpu_us_per_op", "us/op", E2e, Lo),
    m("server_rss_mb", "MB", E2e, Lo),
    m("setup_s", "s", E2e, Lo),
    m("restart_s", "s", E2e, Lo),
    // Tails that do not repeat within a tenth at this run length.
    m("get_p99_us", "us", L, Lo),
    m("set_p99_us", "us", L, Lo),
    m("disk_bytes_per_user_byte", "ratio", L, Lo),
    m("wire.echo_p50_us", "us", L, Guard),
    m("server.unattributed_p50_us", "us", L, Lo),
    m("conn.get_keys_per_batch", "keys", L, Hi),
    m("conn.set_keys_per_batch", "keys", L, Hi),
    m("proto.parse_ns", "ns", L, Lo),
    m("proto.encode_ns", "ns", L, Lo),
    m("store.get_ns", "ns", L, Lo),
    m("store.set_ns", "ns", L, Lo),
    m("store.hash_collisions", "count", L, Lo),
    m("cache.get_ns", "ns", L, Lo),
    m("cache.put_ns", "ns", L, Lo),
    m("cache.evictions_per_put", "ratio", L, Lo),
    m("cache.second_chances_per_eviction", "ratio", L, Lo),
    m("cuckoo.get_ns", "ns", L, Lo),
    m("cuckoo.read_retries_per_get", "ratio", L, Lo),
    m("cuckoo.insert_ns", "ns", L, Lo),
    m("cuckoo.path_searches_per_insert", "ratio", L, Lo),
    m("cuckoo.bfs_slots_per_search", "slots", L, Lo),
    m("cuckoo.path_stale_ratio", "ratio", L, Lo),
    m("cuckoo.lock_contended_ratio", "ratio", L, Lo),
    m("cuckoo.migration_chunks", "count", L, Lo),
    m("cuckoo.help_sweeps", "count", L, Lo),
    m("cuckoo.emergency_rebuilds", "count", L, Lo),
    m("persist.append_ns", "ns", L, Lo),
    m("persist.group_commit_us", "us", L, Lo),
    m("persist.fsyncs_per_s", "1/s", L, Lo),
    m("persist.backpressure_waits", "count", L, Lo),
    m("persist.snapshots", "count", L, Lo),
    m("persist.log_bytes_per_user_byte", "ratio", L, Lo),
    m("persist.replay_records_per_s", "1/s", L, Hi),
    m("client.gen_lag_p99_us", "us", L, Guard),
    m("client.cpu_share", "ratio", L, Guard),
    m("host.steal_pct", "%", L, Guard),
    m("trace.overhead_pct", "%", L, Guard),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_the_overcommitted_clock_store_evicts() {
        assert_eq!(WORKLOADS.map(|w| w.evicts()), [false, true, false]);
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
    }
}
