//! Deterministic op streams. The seed, the workload and the connection
//! index fix every request the server sees; each connection also keeps
//! the model of what the server must answer for its keys.
//!
//! Connection `c` of `n` owns the keys `k ≡ c (mod n)` and is the only
//! writer of them, and the server answers one connection's requests in
//! order, so the value a `get` must return is exactly the last value
//! this stream `set` before it — no cross-connection race to allow for.

use crate::spec::Workload;
use workload::keygen::{key_of, SplitMix64};
use workload::Zipf;

/// A request together with what the model says about it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Req {
    /// Keys and the version each must hold (0 = never set).
    Get { keys: Vec<u32>, versions: Vec<u32> },
    /// Key and the version this `set` writes.
    Set { key: u32, version: u32 },
}

/// One connection's request stream and its per-key version model.
pub struct Stream {
    rng: SplitMix64,
    zipf: Option<Zipf>,
    conn: u32,
    conns: u32,
    read_pct: u32,
    get_keys: u32,
    /// Version of each owned key, by rank (0 = never set).
    versions: Vec<u32>,
}

impl Stream {
    pub fn new(w: &Workload, seed: u64, conn: u32, conns: u32) -> Self {
        let owned = (w.keyspace - conn).div_ceil(conns);
        Stream {
            rng: SplitMix64::new(mix(seed ^ mix(u64::from(conn) + 1))),
            zipf: w.zipf.map(|s| Zipf::new(u64::from(owned), s)),
            conn,
            conns,
            read_pct: w.read_pct,
            get_keys: w.get_keys,
            versions: vec![0; owned as usize],
        }
    }

    fn key_of(&self, rank: u32) -> u32 {
        rank * self.conns + self.conn
    }

    fn rank_of(&self, key: u32) -> usize {
        (key / self.conns) as usize
    }

    fn key(&mut self) -> u32 {
        let rank = match &self.zipf {
            Some(z) => z.sample(&mut self.rng),
            None => self.rng.below(self.versions.len() as u64),
        };
        self.key_of(rank as u32)
    }

    /// Next request, with the versions it must observe or write.
    pub fn next_req(&mut self) -> Req {
        if (self.rng.below(100) as u32) < self.read_pct {
            let keys: Vec<u32> = (0..self.get_keys).map(|_| self.key()).collect();
            let versions = keys
                .iter()
                .map(|&k| self.versions[self.rank_of(k)])
                .collect();
            Req::Get { keys, versions }
        } else {
            let key = self.key();
            Req::Set {
                key,
                version: self.bump(key),
            }
        }
    }

    /// Records a `set` of `key` and returns its version.
    pub fn bump(&mut self, key: u32) -> u32 {
        let rank = self.rank_of(key);
        self.versions[rank] += 1;
        self.versions[rank]
    }

    /// Every owned key with its current version (0 = never set).
    pub fn model(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.versions
            .iter()
            .enumerate()
            .map(|(rank, &v)| (self.key_of(rank as u32), v))
    }
}

/// SplitMix64 finalizer.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Key and value shapes are those of the repository's network load
/// generator (`workload::net`): `k` plus 16 hex digits of the scrambled
/// key id (`write_key`), and `NetSpec::default().value_len` = 32 bytes.
pub const KEY_LEN: usize = 17;
pub const VALUE_LEN: usize = 32;

/// `k` followed by the 16 hex digits of `key_of(0, key)`, as
/// `workload::net` writes a key: always [`KEY_LEN`] bytes.
pub fn key_bytes(key: u32) -> [u8; KEY_LEN] {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let k = key_of(0, u64::from(key));
    let mut out = [b'k'; KEY_LEN];
    for (i, b) in out[1..].iter_mut().enumerate() {
        *b = HEX[((k >> ((15 - i) * 4)) & 0xf) as usize];
    }
    out
}

const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_";

/// Appends the value that version `version` of `key` carries.
pub fn push_value(key: u32, version: u32, out: &mut Vec<u8>) {
    let mut x = 0u64;
    let mut state = (u64::from(key) << 32) | u64::from(version);
    for i in 0..VALUE_LEN {
        if i % 8 == 0 {
            state = mix(state);
            x = state;
        }
        out.push(ALPHABET[(x & 63) as usize]);
        x >>= 8;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    fn stream(w: &Workload, seed: u64, conn: u32) -> Vec<Req> {
        let mut s = Stream::new(w, seed, conn, 2);
        (0..2000).map(|_| s.next_req()).collect()
    }

    #[test]
    fn same_seed_same_stream() {
        for w in &WORKLOADS {
            assert_eq!(stream(w, 7, 0), stream(w, 7, 0), "{}", w.name);
            assert_ne!(stream(w, 7, 0), stream(w, 8, 0), "{}", w.name);
            assert_ne!(stream(w, 7, 0), stream(w, 7, 1), "{}", w.name);
        }
    }

    #[test]
    fn connections_partition_the_keyspace() {
        for w in &WORKLOADS {
            let (a, b) = (Stream::new(w, 1, 0, 2), Stream::new(w, 1, 1, 2));
            assert_eq!(a.model().count() + b.model().count(), w.keyspace as usize);
            let mut s = Stream::new(w, 3, 1, 2);
            for _ in 0..500 {
                let keys = match s.next_req() {
                    Req::Get { keys, .. } => keys,
                    Req::Set { key, .. } => vec![key],
                };
                assert!(keys.iter().all(|k| k % 2 == 1 && *k < w.keyspace));
            }
        }
    }

    #[test]
    fn gets_expect_the_last_set() {
        let w = &WORKLOADS[2];
        let mut s = Stream::new(w, 5, 0, 1);
        let mut last = std::collections::HashMap::new();
        for _ in 0..20_000 {
            match s.next_req() {
                Req::Set { key, version } => {
                    assert_eq!(last.insert(key, version).unwrap_or(0) + 1, version);
                }
                Req::Get { keys, versions } => {
                    for (k, v) in keys.iter().zip(versions) {
                        assert_eq!(last.get(k).copied().unwrap_or(0), v);
                    }
                }
            }
        }
    }

    #[test]
    fn keys_and_values_are_fixed_shape() {
        assert_eq!(&key_bytes(0), b"k0000000000000000");
        assert_ne!(key_bytes(1), key_bytes(2));
        assert!(key_bytes(42)[1..].iter().all(u8::is_ascii_hexdigit));
        let (mut a, mut b) = (Vec::new(), Vec::new());
        push_value(9, 1, &mut a);
        push_value(9, 2, &mut b);
        assert_eq!((a.len(), b.len()), (VALUE_LEN, VALUE_LEN));
        assert_ne!(a, b);
    }
}
