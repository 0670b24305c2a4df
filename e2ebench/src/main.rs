//! `e2ebench` — the end-to-end `cuckood` benchmark.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path e2ebench/Cargo.toml -- \
//!     --workload paced_get|bulk_read|durable_write --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the root of a checkout. It builds `cuckood` from that
//! checkout, starts it on an ephemeral loopback port as its own process,
//! drives it from one thread of this process (at most two
//! connections), checks every reply, and prints a provenance record and
//! then, as the last line, one JSON object: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. See README.md.

use e2ebench::{client, gen, json, layers, server, spec, sys};

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use client::{Conn, Recorder};
use e2ebench::stats::{median, percentile_of};
use gen::{Req, Stream, KEY_LEN, VALUE_LEN};
use server::{Delta, Server};
use spec::{Kind, Loop, Workload, CONNECT_EVERY, METRICS};

const USAGE: &str =
    "usage: e2ebench --workload <paced_get|bulk_read|durable_write> --seed <n> --seconds <s> --trace <0|1>";

/// Server starts per run; `setup_s` is their median.
const SETUPS: usize = 15;

/// Clean restarts after the window; `restart_s` is their median.
const RESTARTS: usize = 21;

/// Slices of the measured window.
const SLICES: u32 = 20;

/// Connect probes after each slice of a closed-loop window.
const PROBES_PER_SLICE: u32 = 25;

/// What one slice of the window measured.
struct Slice {
    kops: f64,
    get_p50_us: f64,
    set_p50_us: f64,
    cpu_us_per_op: f64,
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(spec::workload(&v).ok_or_else(|| format!("unknown workload {v}"))?)
            }
            "--seed" => seed = Some(v.parse().map_err(|_| format!("bad seed {v}"))?),
            "--seconds" => {
                seconds = Some(
                    v.parse::<u64>()
                        .ok()
                        .filter(|s| *s > 0)
                        .ok_or(format!("bad seconds {v}"))?,
                )
            }
            "--trace" => {
                trace = Some(match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {v}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(out) => {
            for line in out {
                println!("{line}");
            }
        }
        Err(e) => {
            eprintln!("e2ebench: run failed: {e}");
            std::process::exit(1);
        }
    }
}

/// A scratch directory inside the checkout, removed on every exit path.
struct TempDir(PathBuf);

impl TempDir {
    fn new(path: PathBuf) -> Result<TempDir, String> {
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(TempDir(path))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only succeeds once no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Drives the workload's traffic over `conns` (connection `i` sends
/// `streams[i]`) until `until`, from this one thread.
fn traffic(
    w: &Workload,
    conns: &mut [Conn],
    streams: &mut [Stream],
    addr: std::net::SocketAddr,
    until: Instant,
) -> Result<Recorder, String> {
    let mut rec = Recorder::default();
    match w.lp {
        Loop::Open { rate_per_s } => client::open_loop(
            &mut conns[0],
            &mut streams[0],
            (rate_per_s, CONNECT_EVERY),
            until,
            addr,
            &mut rec,
        )?,
        Loop::Closed { depth } => {
            let source = |i: usize| (Instant::now() < until).then(|| streams[i].next_req());
            client::closed_loop(conns, source, depth, w.evicts(), &mut rec)?
        }
    }
    Ok(rec)
}

/// Run-wide pass/fail tally across every phase.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    fn add(&mut self, rec: &Recorder) {
        self.attempted += rec.attempted;
        self.failed += rec.failed;
        for e in &rec.errors {
            if self.errors.len() < 5 {
                self.errors.push(e.clone());
            }
        }
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

fn source_digest(root: &Path) -> String {
    // FNV-1a over the program's sources, so a record names the code it
    // measured even where the checkout is not a git repository.
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.filter_map(Result::ok) {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for d in ["crates", "src"] {
        walk(&root.join(d), &mut files);
    }
    files.push(root.join("Cargo.toml"));
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in files {
        for b in f
            .strip_prefix(root)
            .unwrap_or(&f)
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(&f).unwrap_or_default())
        {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn git_rev(root: &Path) -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(root)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none".into())
}

fn run(args: &Args) -> Result<Vec<String>, String> {
    let w = args.workload;
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    if !root.join("crates/server").is_dir() {
        return Err(format!(
            "{} is not a checkout of the repository",
            root.display()
        ));
    }
    let bin = server::build(&root)?;
    let tmp = TempDir::new(root.join(".bench_tmp").join(format!(
        "{}-{}",
        w.name,
        std::process::id()
    )))?;
    let nproc = sys::nproc();
    let conns = match w.lp {
        Loop::Open { .. } => 1,
        Loop::Closed { .. } => nproc.clamp(1, 2) as u32,
    };
    // The client is one thread; the server's workers get the other cores.
    let workers = nproc.saturating_sub(1).max(1);
    let mut tally = Tally::default();
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();

    // Set-up: start the server several times; keep the last one.
    let mut setups = Vec::new();
    let mut kept = None;
    for i in 0..SETUPS {
        let data = w.server.durable.map(|_| tmp.0.join(format!("data-{i}")));
        let flags = server::flags(&w.server, workers, data.as_deref());
        let (srv, t) = Server::start(&bin, &flags, &tmp.0.join(format!("server-{i}.log")))?;
        setups.push(t.as_secs_f64());
        if i + 1 == SETUPS {
            kept = Some((srv, flags, data));
        } else {
            drop(srv);
            if let Some(d) = data {
                let _ = std::fs::remove_dir_all(d);
            }
        }
    }
    let (srv, flags, data) = kept.expect("SETUPS > 0");
    m.insert("setup_s", median(&setups));
    let addr = srv.addr;

    let mut streams: Vec<Stream> = (0..conns)
        .map(|c| Stream::new(w, args.seed, c, conns))
        .collect();
    let mut sockets: Vec<Conn> = (0..conns)
        .map(|_| Conn::open(addr))
        .collect::<Result<_, String>>()?;
    if w.preload {
        let mut keys: Vec<_> = streams
            .iter()
            .map(|s| s.model().map(|(k, _)| k).collect::<Vec<u32>>().into_iter())
            .collect();
        let source = |i: usize| {
            keys[i].next().map(|key| Req::Set {
                key,
                version: streams[i].bump(key),
            })
        };
        let mut rec = Recorder::default();
        client::closed_loop(&mut sockets, source, 64, w.evicts(), &mut rec)?;
        tally.add(&rec);
    }
    if !w.warmup.is_zero() {
        tally.add(&traffic(
            w,
            &mut sockets,
            &mut streams,
            addr,
            Instant::now() + w.warmup,
        )?);
    }

    // The measured window runs as equal slices; throughput, the p50s and
    // CPU per op are medians over slices, so a burst of interference
    // from outside moves few of them. Every slice is untraced: the
    // per-layer spans run in process after the window.
    let before = srv.scrape()?;
    let server_cpu =
        || sys::cpu_seconds(&srv.pid().to_string()).map_err(|e| format!("server cpu: {e}"));
    let (self0, host0) = (sys::cpu_seconds("self"), sys::host_jiffies());
    let t0 = Instant::now();
    let window = Duration::from_secs(args.seconds);
    let mut slices: Vec<Slice> = Vec::new();
    let mut rec = Recorder::default();
    let mut cpu_mark = server_cpu()?;
    for i in 1..=SLICES {
        let start = Instant::now();
        let until = t0 + window * i / SLICES;
        let mut r = traffic(w, &mut sockets, &mut streams, addr, until)?;
        let secs = start.elapsed().as_secs_f64();
        let cpu = server_cpu()?;
        let mut get_ns = r.get_ns.clone();
        slices.push(Slice {
            kops: r.key_ops as f64 / secs / 1000.0,
            get_p50_us: us(percentile_of(&mut get_ns, 50.0)),
            set_p50_us: us(percentile_of(&mut r.set_ns, 50.0)),
            cpu_us_per_op: server::ratio((cpu - cpu_mark) * 1e6, r.key_ops as f64),
        });
        if let Loop::Closed { .. } = w.lp {
            // Connect probes between slices, on the drained server, each
            // after a seeded pause so they sample every phase of its
            // accept poll.
            for p in 0..PROBES_PER_SLICE {
                let n = u64::from(i * PROBES_PER_SLICE + p);
                std::thread::sleep(Duration::from_micros(
                    500 + gen::mix(args.seed ^ n << 32) % 1500,
                ));
                client::connect_probe(addr, &mut r)?;
            }
        }
        cpu_mark = server_cpu()?;
        rec.merge(r);
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let (self1, host1) = (sys::cpu_seconds("self"), sys::host_jiffies());
    let after = srv.scrape()?;
    let rss = sys::peak_rss_mb(srv.pid()).map_err(|e| format!("server memory: {e}"))?;
    drop(sockets);
    let acked: Vec<(u32, u32)> = streams
        .iter()
        .flat_map(|s| s.model().filter(|&(_, v)| v > 0).collect::<Vec<_>>())
        .collect();

    tally.add(&rec);
    let over = |f: fn(&Slice) -> f64| median(&slices.iter().map(f).collect::<Vec<_>>());
    m.insert("throughput_kops", over(|s| s.kops));
    m.insert("get_p50_us", over(|s| s.get_p50_us));
    m.insert("set_p50_us", over(|s| s.set_p50_us));
    m.insert("server_cpu_us_per_op", over(|s| s.cpu_us_per_op));
    m.insert("get_p99_us", us(percentile_of(&mut rec.get_ns, 99.0)));
    m.insert("set_p99_us", us(percentile_of(&mut rec.set_ns, 99.0)));
    m.insert(
        "connect_p50_us",
        us(percentile_of(&mut rec.connect_ns, 50.0)),
    );
    m.insert(
        "hit_rate",
        server::ratio(rec.hits as f64, rec.get_keys as f64),
    );
    m.insert("server_rss_mb", rss);

    // Restart: a clean stop, then the time until the server answers
    // again. A durable server must bring back every acknowledged key.
    srv.stop()?;
    let user_bytes = (acked.len() * (KEY_LEN + VALUE_LEN)) as u64;
    let disk = data.as_deref().map_or(0, server::dir_bytes);
    m.insert(
        "disk_bytes_per_user_byte",
        server::ratio(disk as f64, user_bytes as f64),
    );
    let mut restarts = Vec::new();
    for i in 0..RESTARTS {
        let (srv, t) = Server::start(&bin, &flags, &tmp.0.join(format!("restart-{i}.log")))?;
        restarts.push(t.as_secs_f64());
        if i == 0 && w.server.durable.is_some() {
            let mut conn = Conn::open(srv.addr)?;
            let mut reread = Recorder::default();
            let mut chunks = acked.chunks(64);
            let source = |_| {
                chunks.next().map(|c| Req::Get {
                    keys: c.iter().map(|p| p.0).collect(),
                    versions: c.iter().map(|p| p.1).collect(),
                })
            };
            client::closed_loop(
                std::slice::from_mut(&mut conn),
                source,
                8,
                false,
                &mut reread,
            )?;
            // A missing or stale key fails its request (and so the run).
            tally.add(&reread);
        }
        srv.stop()?;
    }
    m.insert("restart_s", median(&restarts));

    if args.trace {
        let d = Delta {
            before: &before,
            after: &after,
        };
        let echo = layers::echo_p50_us(20_000)?;
        m.insert("wire.echo_p50_us", echo);
        let replay = layers::Replay::new(w, args.seed, conns);
        m.extend(layers::run(w, &replay, &tmp.0)?);
        let keys_per_get = server::ratio(rec.get_keys as f64, rec.get_ns.len() as f64);
        m.insert(
            "server.unattributed_p50_us",
            m["get_p50_us"]
                - echo
                - (m["proto.parse_ns"] + m["proto.encode_ns"]) / 1000.0
                - m["store.get_ns"] * keys_per_get / 1000.0,
        );
        m.insert(
            "conn.get_keys_per_batch",
            d.ratio("multiget_keys", "multiget_batches"),
        );
        m.insert(
            "conn.set_keys_per_batch",
            d.ratio("multiset_keys", "multiset_batches"),
        );
        m.insert("store.hash_collisions", d.get("hash_collisions"));
        m.insert("cache.evictions_per_put", d.ratio("evictions", "cmd_set"));
        m.insert(
            "cache.second_chances_per_eviction",
            d.ratio("second_chances", "evictions"),
        );
        m.insert(
            "cuckoo.read_retries_per_get",
            server::ratio(d.get("cuckoo_read_retries_total"), rec.get_keys as f64),
        );
        m.insert(
            "cuckoo.path_searches_per_insert",
            d.ratio("cuckoo_path_searches_total", "cmd_set"),
        );
        m.insert(
            "cuckoo.bfs_slots_per_search",
            d.ratio(
                "cuckoo_bfs_examined_slots_sum",
                "cuckoo_bfs_examined_slots_count",
            ),
        );
        m.insert(
            "cuckoo.path_stale_ratio",
            d.ratio("cuckoo_path_stale_total", "cuckoo_path_executions_total"),
        );
        m.insert(
            "cuckoo.lock_contended_ratio",
            d.ratio(
                "cuckoo_lock_contended_total",
                "cuckoo_lock_acquisitions_total",
            ),
        );
        m.insert(
            "cuckoo.migration_chunks",
            d.get("cuckoo_migration_chunks_total"),
        );
        m.insert("cuckoo.help_sweeps", d.get("cuckoo_help_sweeps_total"));
        m.insert(
            "cuckoo.emergency_rebuilds",
            d.get("cuckoo_emergency_rebuilds_total"),
        );
        m.insert(
            "persist.fsyncs_per_s",
            d.get("cuckoo_persist_fsyncs_total") / elapsed,
        );
        m.insert(
            "persist.backpressure_waits",
            d.get("cuckoo_persist_backpressure_waits_total"),
        );
        m.insert("persist.snapshots", d.get("cuckoo_persist_snapshots_total"));
        m.insert(
            "persist.log_bytes_per_user_byte",
            server::ratio(
                d.get("cuckoo_persist_log_bytes_total"),
                rec.user_bytes as f64,
            ),
        );
        m.insert(
            "client.gen_lag_p99_us",
            us(percentile_of(&mut rec.lag_ns, 99.0)),
        );
        let client_cpu = self0
            .and_then(|a| self1.map(|b| b - a))
            .map_err(|e| format!("client cpu: {e}"))?;
        m.insert("client.cpu_share", client_cpu / (elapsed * nproc as f64));
    }
    m.insert("host.steal_pct", sys::steal_pct(host0, host1));

    let mut out = Vec::new();
    let shown_flags: Vec<String> = flags
        .iter()
        .map(|f| {
            if data.as_deref().is_some_and(|d| Path::new(f) == d) {
                "<data-dir>".into()
            } else {
                f.clone()
            }
        })
        .collect();
    let flush = match w.server.durable {
        Some((ms, s)) => format!("fsync every {ms} ms, snapshot every {s} s"),
        None => "none (no data dir)".into(),
    };
    let provenance: Vec<(&str, String)> = vec![
        ("workload", w.name.into()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("git_rev", git_rev(&root)),
        ("source_digest", source_digest(&root)),
        ("server_flags", format!("cuckood {}", shown_flags.join(" "))),
        ("flush_policy", flush),
        ("client", format!("{conns} connection(s) on 1 thread")),
        ("nproc", nproc.to_string()),
        ("cpu_model", sys::cpu_model()),
        ("kernel", sys::kernel()),
        ("steal_pct", format!("{:.3}", m["host.steal_pct"])),
        (
            "samples",
            format!(
                "get={} set={} connect={}",
                rec.get_ns.len(),
                rec.set_ns.len(),
                rec.connect_ns.len()
            ),
        ),
        (
            "slice_kops",
            slices
                .iter()
                .map(|s| format!("{:.1}", s.kops))
                .collect::<Vec<_>>()
                .join(" "),
        ),
        ("attempted", tally.attempted.to_string()),
        ("failed", tally.failed.to_string()),
        (
            "failed_frac",
            (tally.failed as f64 / tally.attempted.max(1) as f64).to_string(),
        ),
    ];
    for (k, v) in &provenance {
        out.push(format!("# {k}: {v}"));
    }
    for e in &tally.errors {
        out.push(format!("# failure: {e}"));
    }
    // Every metric measured is shown; the result line carries exactly
    // the registered set for this mode.
    for metric in METRICS {
        if let Some(v) = m.get(metric.name) {
            out.push(format!(
                "# {:<36} {:>14.4} {:<10} ({} is better)",
                metric.name,
                v,
                metric.unit,
                metric.better.as_str()
            ));
        }
    }
    let kind = if args.trace {
        Kind::Layer
    } else {
        Kind::EndToEnd
    };
    let mut fields = Vec::new();
    for metric in METRICS.iter().filter(|x| x.kind == kind) {
        let v = *m
            .get(metric.name)
            .ok_or_else(|| format!("metric {} was not measured", metric.name))?;
        if !v.is_finite() {
            return Err(format!("metric {} is not a number ({v})", metric.name));
        }
        fields.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json::string(metric.name),
            json::number(v),
            json::string(metric.unit)
        ));
    }
    out.push(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed,
        fields.join(", ")
    ));
    Ok(out)
}
