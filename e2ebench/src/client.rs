//! The client half: request encoding, reply classification against the
//! model, and the open- and closed-loop load generators.
//!
//! Every reply is checked: a `get` hit must carry byte-for-byte the
//! value of the version the model expects, a miss is allowed only where
//! the store may evict (or the key was never set), a `set` must answer
//! `STORED`. Anything else — an error line, a refused write, a value
//! for a key not asked for — counts the request as failed. A reply that
//! cannot be framed at all ends the run.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use crate::gen::{key_bytes, push_value, Req, Stream, KEY_LEN, VALUE_LEN};
use crate::server::PATIENCE;
use crate::sys;

/// What one load generator observed.
#[derive(Default)]
pub struct Recorder {
    pub get_ns: Vec<u64>,
    pub set_ns: Vec<u64>,
    pub connect_ns: Vec<u64>,
    pub lag_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    /// `get` keys answered plus `set`s acknowledged.
    pub key_ops: u64,
    pub get_keys: u64,
    pub hits: u64,
    /// Key + value bytes of acknowledged `set`s.
    pub user_bytes: u64,
    pub errors: Vec<String>,
}

impl Recorder {
    pub fn merge(&mut self, o: Recorder) {
        self.get_ns.extend(o.get_ns);
        self.set_ns.extend(o.set_ns);
        self.connect_ns.extend(o.connect_ns);
        self.lag_ns.extend(o.lag_ns);
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.key_ops += o.key_ops;
        self.get_keys += o.get_keys;
        self.hits += o.hits;
        self.user_bytes += o.user_bytes;
        for e in o.errors {
            self.fail_note(e);
        }
    }

    fn fail_note(&mut self, e: String) {
        if self.errors.len() < 5 {
            self.errors.push(e);
        }
    }
}

/// Appends `req` in wire format.
pub fn encode(req: &Req, out: &mut Vec<u8>) {
    match req {
        Req::Get { keys, .. } => {
            out.extend_from_slice(b"get");
            for &k in keys {
                out.push(b' ');
                out.extend_from_slice(&key_bytes(k));
            }
            out.extend_from_slice(b"\r\n");
        }
        Req::Set { key, version } => {
            out.extend_from_slice(b"set ");
            out.extend_from_slice(&key_bytes(*key));
            out.extend_from_slice(format!(" 0 0 {VALUE_LEN}\r\n").as_bytes());
            push_value(*key, *version, out);
            out.extend_from_slice(b"\r\n");
        }
    }
}

/// How one complete reply judged its request.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Verdict {
    pub hits: u32,
    pub misses: u32,
    pub failure: Option<String>,
}

impl Verdict {
    fn fail(&mut self, why: String) {
        self.failure.get_or_insert(why);
    }
}

/// Classifies the reply at the front of `buf` for `req`. `Ok(None)`:
/// incomplete. `Ok(Some((consumed, verdict)))`: one reply. `Err`: the
/// stream cannot be framed any more.
pub fn take_reply(buf: &[u8], req: &Req, evicts: bool) -> Result<Option<(usize, Verdict)>, String> {
    let mut v = Verdict::default();
    let line_at = |pos: usize| -> Option<(&[u8], usize)> {
        let nl = buf[pos..].iter().position(|&b| b == b'\n')? + pos;
        let end = if nl > pos && buf[nl - 1] == b'\r' {
            nl - 1
        } else {
            nl
        };
        Some((&buf[pos..end], nl + 1))
    };
    match req {
        Req::Set { .. } => {
            let Some((line, next)) = line_at(0) else {
                return Ok(None);
            };
            if line != b"STORED" {
                v.fail(format!("set answered {:?}", String::from_utf8_lossy(line)));
            }
            Ok(Some((next, v)))
        }
        Req::Get { keys, versions } => {
            let mut pos = 0;
            let mut cursor = 0;
            let mut expect = Vec::new();
            loop {
                let Some((line, next)) = line_at(pos) else {
                    return Ok(None);
                };
                if line == b"END" {
                    pos = next;
                    break;
                }
                let Some(header) = line.strip_prefix(b"VALUE ") else {
                    // An error line answers the whole request.
                    v.fail(format!("get answered {:?}", String::from_utf8_lossy(line)));
                    return Ok(Some((next, v)));
                };
                let f: Vec<&[u8]> = header.split(|&b| b == b' ').collect();
                let len: usize = match f.as_slice() {
                    [_, _, len] => std::str::from_utf8(len).ok().and_then(|s| s.parse().ok()),
                    _ => None,
                }
                .ok_or_else(|| {
                    format!("malformed VALUE line {:?}", String::from_utf8_lossy(line))
                })?;
                if buf.len() < next + len + 2 {
                    return Ok(None);
                }
                if &buf[next + len..next + len + 2] != b"\r\n" {
                    return Err("VALUE data block not terminated by CRLF".into());
                }
                let data = &buf[next..next + len];
                pos = next + len + 2;
                match keys[cursor..]
                    .iter()
                    .position(|&k| key_bytes(k)[..] == *f[0])
                {
                    None => v.fail(format!(
                        "unrequested key {:?}",
                        String::from_utf8_lossy(f[0])
                    )),
                    Some(skip) => {
                        for i in cursor..cursor + skip {
                            miss(&mut v, keys[i], versions[i], evicts);
                        }
                        let (key, version) = (keys[cursor + skip], versions[cursor + skip]);
                        cursor += skip + 1;
                        v.hits += 1;
                        expect.clear();
                        push_value(key, version, &mut expect);
                        if version == 0 {
                            v.fail(format!("value for never-set key {key}"));
                        } else if data != expect.as_slice() {
                            v.fail(format!(
                                "wrong value for key {key} (want version {version})"
                            ));
                        }
                    }
                }
            }
            for i in cursor..keys.len() {
                miss(&mut v, keys[i], versions[i], evicts);
            }
            Ok(Some((pos, v)))
        }
    }
}

fn miss(v: &mut Verdict, key: u32, version: u32, evicts: bool) {
    v.misses += 1;
    if version != 0 && !evicts {
        v.fail(format!("acknowledged key {key} missing"));
    }
}

struct Pending {
    req: Req,
    /// Due time (open loop) or send time (closed loop).
    t0: Instant,
}

/// One client connection with its in-flight requests.
pub struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    pending: VecDeque<Pending>,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        // Both load generators wait in ppoll, not in read.
        stream.set_nonblocking(true).map_err(|e| e.to_string())?;
        Ok(Conn {
            stream,
            rbuf: Vec::with_capacity(1 << 16),
            wbuf: Vec::new(),
            pending: VecDeque::new(),
        })
    }

    fn flush(&mut self) -> Result<(), String> {
        let mut off = 0;
        let t0 = Instant::now();
        while off < self.wbuf.len() {
            if t0.elapsed() > PATIENCE {
                return Err("the server stopped reading requests".into());
            }
            match self.stream.write(&self.wbuf[off..]) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => off += n,
                Err(e)
                    if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::Interrupted =>
                {
                    std::thread::yield_now()
                }
                Err(e) => return Err(format!("write: {e}")),
            }
        }
        self.wbuf.clear();
        Ok(())
    }

    /// Reads what is available; false when nothing arrived.
    fn fill(&mut self) -> Result<bool, String> {
        let old = self.rbuf.len();
        self.rbuf.resize(old + (1 << 16), 0);
        let r = self.stream.read(&mut self.rbuf[old..]);
        match r {
            Ok(0) => {
                self.rbuf.truncate(old);
                Err("server closed the connection".into())
            }
            Ok(n) => {
                self.rbuf.truncate(old + n);
                Ok(true)
            }
            Err(e) if e.kind() == ErrorKind::Interrupted || e.kind() == ErrorKind::WouldBlock => {
                self.rbuf.truncate(old);
                Ok(false)
            }
            Err(e) => {
                self.rbuf.truncate(old);
                Err(format!("read: {e}"))
            }
        }
    }

    /// Sends requests from `next` until `depth` are in flight or it runs
    /// dry. `settled` is when replies last freed slots here: the gap to
    /// the send is the client's turnaround.
    fn top_up(
        &mut self,
        mut next: impl FnMut() -> Option<Req>,
        depth: usize,
        dry: &mut bool,
        settled: Option<Instant>,
        rec: &mut Recorder,
    ) -> Result<(), String> {
        let fresh = self.pending.len();
        while !*dry && self.pending.len() < depth {
            match next() {
                Some(req) => {
                    encode(&req, &mut self.wbuf);
                    // Stamped below, once the whole batch is encoded.
                    self.pending.push_back(Pending {
                        req,
                        t0: Instant::now(),
                    });
                }
                None => *dry = true,
            }
        }
        if self.pending.len() == fresh {
            return Ok(());
        }
        let t = Instant::now();
        for p in self.pending.range_mut(fresh..) {
            p.t0 = t;
        }
        if let Some(s) = settled {
            rec.lag_ns.push(t.duration_since(s).as_nanos() as u64);
        }
        self.flush()
    }

    /// Classifies every complete reply in the buffer, stamping each
    /// with `now`. Returns how many completed.
    fn settle(&mut self, now: Instant, evicts: bool, rec: &mut Recorder) -> Result<usize, String> {
        let mut off = 0;
        let mut done = 0;
        while let Some(p) = self.pending.front() {
            let Some((used, verdict)) = take_reply(&self.rbuf[off..], &p.req, evicts)? else {
                break;
            };
            off += used;
            let p = self.pending.pop_front().expect("front exists");
            done += 1;
            let ns = now.saturating_duration_since(p.t0).as_nanos() as u64;
            rec.attempted += 1;
            match &p.req {
                Req::Get { keys, .. } => {
                    rec.get_ns.push(ns);
                    rec.get_keys += keys.len() as u64;
                    rec.hits += u64::from(verdict.hits);
                    rec.key_ops += keys.len() as u64;
                }
                Req::Set { .. } => {
                    rec.set_ns.push(ns);
                    rec.key_ops += 1;
                    if verdict.failure.is_none() {
                        rec.user_bytes += (KEY_LEN + VALUE_LEN) as u64;
                    }
                }
            }
            if let Some(why) = verdict.failure {
                rec.failed += 1;
                rec.fail_note(why);
            }
        }
        if self.pending.is_empty() && off < self.rbuf.len() {
            return Err(format!("{} unexpected reply bytes", self.rbuf.len() - off));
        }
        self.rbuf.drain(..off);
        Ok(done)
    }
}

/// Closed loop over every connection in `conns`, from this one thread:
/// each keeps `depth` requests in flight, fed by `source(i)` for
/// connection `i`, until every source runs dry; then the rest are waited
/// for. The connections are served in turn: wait in `ppoll` on one,
/// settle every reply that has arrived, refill it, move to the next. So
/// while the client waits on one connection the server has the other's
/// batch to work on, and the client takes one core of the host, not one
/// per connection.
pub fn closed_loop(
    conns: &mut [Conn],
    mut source: impl FnMut(usize) -> Option<Req>,
    depth: usize,
    evicts: bool,
    rec: &mut Recorder,
) -> Result<(), String> {
    let mut dry = vec![false; conns.len()];
    let mut settled: Vec<Option<Instant>> = vec![None; conns.len()];
    for (i, conn) in conns.iter_mut().enumerate() {
        conn.top_up(|| source(i), depth, &mut dry[i], settled[i].take(), rec)?;
    }
    loop {
        let mut busy = false;
        for (i, conn) in conns.iter_mut().enumerate() {
            if conn.pending.is_empty() {
                continue;
            }
            busy = true;
            let fd = conn.stream.as_raw_fd();
            if !sys::wait_readable(&[fd], PATIENCE).map_err(|e| format!("ppoll: {e}"))?[0] {
                return Err("no reply within the time limit".into());
            }
            while conn.fill()? {}
            let now = Instant::now();
            if conn.settle(now, evicts, rec)? > 0 {
                settled[i] = Some(now);
            }
            conn.top_up(|| source(i), depth, &mut dry[i], settled[i].take(), rec)?;
        }
        if !busy {
            return Ok(());
        }
    }
}

/// Times a fresh connection: connect → first reply to `version`.
pub fn connect_probe(addr: SocketAddr, rec: &mut Recorder) -> Result<(), String> {
    let t0 = Instant::now();
    let mut s = TcpStream::connect(addr).map_err(|e| format!("probe connect: {e}"))?;
    s.set_nodelay(true).map_err(|e| e.to_string())?;
    s.set_read_timeout(Some(PATIENCE))
        .map_err(|e| e.to_string())?;
    s.write_all(b"version\r\n")
        .map_err(|e| format!("probe write: {e}"))?;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 256];
    while !buf.ends_with(b"\r\n") {
        match s.read(&mut chunk) {
            Ok(0) => return Err("probe connection closed".into()),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("probe read: {e}")),
        }
    }
    let ns = t0.elapsed().as_nanos() as u64;
    rec.attempted += 1;
    if buf.starts_with(b"VERSION ") {
        rec.connect_ns.push(ns);
    } else {
        rec.failed += 1;
        rec.fail_note(format!(
            "probe answered {:?}",
            String::from_utf8_lossy(&buf)
        ));
    }
    Ok(())
}

/// Open loop: one request every `1/rate` seconds until `until`, each
/// timed from its due time; meanwhile a fresh connection every
/// `connect_every` times connect → first reply to `version`.
pub fn open_loop(
    conn: &mut Conn,
    stream: &mut Stream,
    (rate_per_s, connect_every): (u32, Duration),
    until: Instant,
    addr: SocketAddr,
    rec: &mut Recorder,
) -> Result<(), String> {
    sys::tight_timer_slack();
    let interval = Duration::from_secs(1) / rate_per_s;
    let start = Instant::now();
    let mut next_due = start;
    let mut next_probe = start + connect_every / 2;
    let mut probe: Option<(TcpStream, Instant, Vec<u8>)> = None;
    loop {
        let now = Instant::now();
        let sending = now < until;
        if !sending && conn.pending.is_empty() && probe.is_none() {
            break Ok(());
        }
        if now > until + PATIENCE {
            break Err("replies still outstanding long after the window".into());
        }
        let mut fresh = 0;
        while next_due <= now && next_due < until {
            let req = stream.next_req();
            encode(&req, &mut conn.wbuf);
            conn.pending.push_back(Pending { req, t0: next_due });
            next_due += interval;
            fresh += 1;
        }
        if fresh > 0 {
            let sent = Instant::now();
            let n = conn.pending.len();
            for p in conn.pending.range(n - fresh..) {
                rec.lag_ns.push(sent.duration_since(p.t0).as_nanos() as u64);
            }
            conn.flush()?;
        }
        if probe.is_none() && sending && now >= next_probe {
            let t0 = Instant::now();
            let mut s = TcpStream::connect(addr).map_err(|e| format!("probe connect: {e}"))?;
            s.write_all(b"version\r\n")
                .map_err(|e| format!("probe write: {e}"))?;
            s.set_nonblocking(true).map_err(|e| e.to_string())?;
            probe = Some((s, t0, Vec::new()));
            next_probe += connect_every;
        }
        let mut wake = if sending {
            next_due.min(until)
        } else {
            now + Duration::from_millis(5)
        };
        if probe.is_none() && sending {
            wake = wake.min(next_probe);
        }
        let mut fds = vec![conn.stream.as_raw_fd()];
        if let Some((s, _, _)) = &probe {
            fds.push(s.as_raw_fd());
        }
        let ready = sys::wait_readable(&fds, wake.saturating_duration_since(Instant::now()))
            .map_err(|e| format!("ppoll: {e}"))?;
        let now = Instant::now();
        if ready[0] {
            while conn.fill()? {}
            conn.settle(now, false, rec)?;
        }
        if ready.get(1) == Some(&true) {
            let (s, t0, buf) = probe.as_mut().expect("probe polled");
            let mut chunk = [0u8; 256];
            match s.read(&mut chunk) {
                Ok(0) => break Err("probe connection closed".into()),
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(e) => break Err(format!("probe read: {e}")),
            }
            if buf.ends_with(b"\r\n") {
                rec.attempted += 1;
                if buf.starts_with(b"VERSION ") {
                    rec.connect_ns
                        .push(now.duration_since(*t0).as_nanos() as u64);
                } else {
                    rec.failed += 1;
                    rec.fail_note(format!("probe answered {:?}", String::from_utf8_lossy(buf)));
                }
                probe = None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(keys: &[u32], versions: &[u32]) -> Req {
        Req::Get {
            keys: keys.to_vec(),
            versions: versions.to_vec(),
        }
    }

    fn value_stanza(key: u32, version: u32) -> Vec<u8> {
        let mut v = Vec::new();
        push_value(key, version, &mut v);
        let mut out = format!(
            "VALUE {} 0 {}\r\n",
            String::from_utf8_lossy(&key_bytes(key)),
            v.len()
        )
        .into_bytes();
        out.extend_from_slice(&v);
        out.extend_from_slice(b"\r\n");
        out
    }

    #[test]
    fn hits_misses_and_wrong_values() {
        let req = get(&[1, 2, 3], &[4, 0, 2]);
        let mut reply = value_stanza(1, 4);
        reply.extend(value_stanza(3, 2));
        reply.extend_from_slice(b"END\r\n");
        let (used, v) = take_reply(&reply, &req, false).unwrap().unwrap();
        assert_eq!(used, reply.len());
        assert_eq!(
            v,
            Verdict {
                hits: 2,
                misses: 1,
                failure: None
            }
        );

        // A stale version is a failure; so is a missing acknowledged key
        // where the store may not evict.
        let mut stale = value_stanza(1, 3);
        stale.extend_from_slice(b"END\r\n");
        assert!(take_reply(&stale, &get(&[1], &[4]), false)
            .unwrap()
            .unwrap()
            .1
            .failure
            .is_some());
        let (_, v) = take_reply(b"END\r\n", &get(&[1], &[4]), false)
            .unwrap()
            .unwrap();
        assert!(v.failure.is_some());
        let (_, v) = take_reply(b"END\r\n", &get(&[1], &[4]), true)
            .unwrap()
            .unwrap();
        assert_eq!(
            v,
            Verdict {
                hits: 0,
                misses: 1,
                failure: None
            }
        );
    }

    #[test]
    fn incomplete_errors_and_sets() {
        let req = get(&[7], &[1]);
        let full = [value_stanza(7, 1), b"END\r\n".to_vec()].concat();
        for cut in 0..full.len() {
            assert_eq!(
                take_reply(&full[..cut], &req, false).unwrap(),
                None,
                "cut {cut}"
            );
        }
        let set = Req::Set { key: 7, version: 2 };
        assert_eq!(
            take_reply(b"STORED\r\nEND", &set, false)
                .unwrap()
                .unwrap()
                .0,
            8
        );
        let (_, v) = take_reply(b"SERVER_ERROR out of memory\r\n", &set, false)
            .unwrap()
            .unwrap();
        assert!(v.failure.is_some());
        let (_, v) = take_reply(b"SERVER_ERROR busy\r\n", &req, true)
            .unwrap()
            .unwrap();
        assert!(v.failure.is_some());
        assert!(take_reply(b"VALUE k000000007 0 x\r\n", &req, false).is_err());
    }

    #[test]
    fn requests_parse_as_the_server_reads_them() {
        let mut buf = Vec::new();
        encode(
            &Req::Set {
                key: 12,
                version: 3,
            },
            &mut buf,
        );
        encode(&get(&[12, 13], &[3, 0]), &mut buf);
        let server::proto::Parsed::Ok { request, consumed } = server::proto::parse(&buf) else {
            panic!()
        };
        let mut want = Vec::new();
        push_value(12, 3, &mut want);
        assert!(
            matches!(request, server::proto::Request::Store { data, .. } if data == want.as_slice())
        );
        let server::proto::Parsed::Ok { request, .. } = server::proto::parse(&buf[consumed..])
        else {
            panic!()
        };
        assert!(matches!(request, server::proto::Request::Get { keys, .. } if keys.len() == 2));
    }
}
