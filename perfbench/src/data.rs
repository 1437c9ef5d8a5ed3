//! Seeded inputs and the correctness oracle.
//!
//! Each workload's database comes from `TpchGenerator { seed, .. }` and is
//! stored as an archive; its reference results come from the hand-built
//! plans under `Config::Dbx`, computed over the freshly generated data
//! before the archive is written. Both are made by a separate `--prepare`
//! process, so neither the generation nor the reference engine's memory
//! shows in the measured process, and both are cached under a key of scale
//! factor, seed and a hash of every source file that can change them.

use crate::stats::{fingerprint, Fnv};
use legobase::storage::{Date, RowTable, Tuple, Value};
use legobase::tpch::TpchGenerator;
use legobase::{Config, LegoBase, ResultTable};
use std::collections::{BTreeMap, HashMap};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Relative float tolerance of the oracle, as in the repository's SQL
/// equivalence suite.
pub const EPS: f64 = 1e-6;

/// Archives kept in the cache per scale factor before the oldest go.
const ARCHIVES_KEPT: usize = 4;

/// The repository checkout the benchmark was built from.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

pub fn cache_dir() -> PathBuf {
    repo_root().join("perfbench").join("cache")
}

/// Hash of every file under `crates/` and `vendor/`: the generator, the
/// archive format, the hand-built plans and the reference engine all live
/// there, so any edit that could change data or references changes the key.
pub fn source_hash() -> io::Result<u64> {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) -> io::Result<()> {
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "target") {
                    walk(&path, files)?;
                }
            } else {
                files.push(path);
            }
        }
        Ok(())
    }
    let root = repo_root();
    let mut files = Vec::new();
    for top in ["crates", "vendor"] {
        walk(&root.join(top), &mut files)?;
    }
    files.sort();
    let mut h = Fnv::default();
    for f in files {
        h.write(f.strip_prefix(&root).unwrap_or(&f).to_string_lossy().as_bytes());
        h.write(&std::fs::read(&f)?);
    }
    Ok(h.finish())
}

/// Where one workload's seeded inputs live.
pub struct Inputs {
    pub archive: PathBuf,
    pub refs: PathBuf,
}

impl Inputs {
    pub fn locate(workload: &str, sf: f64, seed: u64, hash: u64) -> Inputs {
        let dir = cache_dir();
        Inputs {
            archive: dir.join(format!("sf{sf}-seed{seed}-{hash:016x}.lbca")),
            refs: dir.join(format!("{workload}-seed{seed}-{hash:016x}.refs")),
        }
    }

    pub fn ready(&self) -> bool {
        self.archive.is_file() && self.refs.is_file()
    }

    /// Generates the database, computes the references, and writes both.
    /// Returns (generation seconds, reference seconds, archive seconds).
    pub fn prepare(&self, sf: f64, seed: u64, queries: &[usize]) -> io::Result<(f64, f64, f64)> {
        std::fs::create_dir_all(cache_dir())?;
        let t = Instant::now();
        let system = LegoBase::from_data(TpchGenerator { scale_factor: sf, seed }.generate());
        let gen_s = t.elapsed().as_secs_f64();

        // The reference engine runs one query per hardware thread at a time.
        let t = Instant::now();
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let refs: BTreeMap<usize, ResultTable> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|i| {
                    let system = &system;
                    s.spawn(move || {
                        let mine = queries.iter().skip(i).step_by(threads);
                        mine.map(|&n| (n, system.run(n, Config::Dbx).result)).collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().expect("reference thread")).collect()
        });
        let refs_s = t.elapsed().as_secs_f64();
        write_atomically(&self.refs, &encode_refs(&refs))?;

        let t = Instant::now();
        let tmp = self.archive.with_extension("tmp");
        system.write_archive(&tmp).map_err(|e| io::Error::other(e.to_string()))?;
        std::fs::rename(&tmp, &self.archive)?;
        let archive_s = t.elapsed().as_secs_f64();
        evict_old_archives(sf)?;
        Ok((gen_s, refs_s, archive_s))
    }
}

fn write_atomically(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    std::fs::rename(tmp, path)
}

fn evict_old_archives(sf: f64) -> io::Result<()> {
    let prefix = format!("sf{sf}-seed");
    let mut archives = Vec::new();
    for entry in std::fs::read_dir(cache_dir())? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with(&prefix) && name.ends_with(".lbca") {
            archives.push((entry.metadata()?.modified()?, entry.path()));
        }
    }
    archives.sort();
    let excess = archives.len().saturating_sub(ARCHIVES_KEPT);
    for (_, path) in archives.into_iter().take(excess) {
        std::fs::remove_file(path)?;
    }
    Ok(())
}

/// Serializes reference results: a count, then per query its number, row
/// count and values (tag byte + payload), then an FNV-1a checksum.
pub fn encode_refs(refs: &BTreeMap<usize, ResultTable>) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend((refs.len() as u64).to_le_bytes());
    for (n, table) in refs {
        out.extend((*n as u64).to_le_bytes());
        out.extend((table.len() as u64).to_le_bytes());
        for row in table.rows() {
            out.extend((row.len() as u64).to_le_bytes());
            for v in row {
                match v {
                    Value::Null => out.push(0),
                    Value::Int(i) => {
                        out.push(1);
                        out.extend(i.to_le_bytes());
                    }
                    Value::Float(f) => {
                        out.push(2);
                        out.extend(f.to_bits().to_le_bytes());
                    }
                    Value::Str(s) => {
                        out.push(3);
                        out.extend((s.len() as u64).to_le_bytes());
                        out.extend(s.as_bytes());
                    }
                    Value::Date(d) => {
                        out.push(4);
                        out.extend(d.0.to_le_bytes());
                    }
                    Value::Bool(b) => out.extend([5, u8::from(*b)]),
                }
            }
        }
    }
    let mut h = Fnv::default();
    h.write(&out);
    out.extend(h.finish().to_le_bytes());
    out
}

pub fn decode_refs(bytes: &[u8]) -> io::Result<HashMap<usize, ResultTable>> {
    let bad = |why: &str| io::Error::new(io::ErrorKind::InvalidData, format!("references: {why}"));
    let (body, sum) = bytes.split_at(bytes.len().checked_sub(8).ok_or_else(|| bad("short"))?);
    let mut h = Fnv::default();
    h.write(body);
    if h.finish().to_le_bytes() != sum {
        return Err(bad("checksum mismatch"));
    }
    let mut r = body;
    let mut take = |n: usize| -> io::Result<&[u8]> {
        if r.len() < n {
            return Err(bad("truncated"));
        }
        let (head, tail) = r.split_at(n);
        r = tail;
        Ok(head)
    };
    fn u64_of(b: &[u8]) -> u64 {
        u64::from_le_bytes(b.try_into().expect("8 bytes"))
    }
    let mut refs = HashMap::new();
    for _ in 0..u64_of(take(8)?) {
        let n = u64_of(take(8)?) as usize;
        let rows = u64_of(take(8)?) as usize;
        let mut table = RowTable::default();
        for _ in 0..rows {
            let arity = u64_of(take(8)?) as usize;
            let mut row: Tuple = Vec::with_capacity(arity.min(64));
            for _ in 0..arity {
                row.push(match take(1)?[0] {
                    0 => Value::Null,
                    1 => Value::Int(u64_of(take(8)?) as i64),
                    2 => Value::Float(f64::from_bits(u64_of(take(8)?))),
                    3 => {
                        let len = u64_of(take(8)?) as usize;
                        let s = std::str::from_utf8(take(len)?).map_err(|_| bad("utf-8"))?;
                        Value::Str(s.to_string())
                    }
                    4 => {
                        Value::Date(Date(i32::from_le_bytes(take(4)?.try_into().expect("4 bytes"))))
                    }
                    5 => Value::Bool(take(1)?[0] != 0),
                    _ => return Err(bad("unknown value tag")),
                });
            }
            table.rows.push(row);
        }
        refs.insert(n, ResultTable(table));
    }
    Ok(refs)
}

pub fn read_refs(path: &Path) -> io::Result<HashMap<usize, ResultTable>> {
    let mut bytes = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut bytes)?;
    decode_refs(&bytes)
}

/// Checks every response of one client against the references. The first
/// response of each query is compared with the reference in full
/// (`approx_eq`, order-insensitive); its bit-exact fingerprint is then
/// remembered, so an identical later response is checked by fingerprint
/// alone and the check stays cheap inside the closed loop.
pub struct Oracle<'a> {
    refs: &'a HashMap<usize, ResultTable>,
    verified: HashMap<usize, Vec<u64>>,
}

impl<'a> Oracle<'a> {
    pub fn new(refs: &'a HashMap<usize, ResultTable>) -> Oracle<'a> {
        Oracle { refs, verified: HashMap::new() }
    }

    /// `Ok` when `result` is the correct answer to query `n`.
    pub fn check(&mut self, n: usize, result: &ResultTable) -> Result<(), String> {
        let fp = fingerprint(result);
        let known = self.verified.entry(n).or_default();
        if known.contains(&fp) {
            return Ok(());
        }
        let reference = self.refs.get(&n).ok_or_else(|| format!("Q{n}: no reference"))?;
        match result.diff(reference, EPS) {
            None => {
                known.push(fp);
                Ok(())
            }
            Some(d) => Err(format!("Q{n}: wrong result: {d}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_refs() -> BTreeMap<usize, ResultTable> {
        let system = LegoBase::from_data(TpchGenerator { scale_factor: 0.001, seed: 3 }.generate());
        [1usize, 6, 13].iter().map(|&n| (n, system.run(n, Config::Dbx).result)).collect()
    }

    #[test]
    fn references_round_trip() {
        let refs = small_refs();
        let decoded = decode_refs(&encode_refs(&refs)).expect("decodes");
        for (n, t) in &refs {
            assert_eq!(fingerprint(t), fingerprint(&decoded[n]), "Q{n}");
        }
        let mut bytes = encode_refs(&refs);
        bytes[20] ^= 1;
        assert!(decode_refs(&bytes).is_err(), "a flipped byte fails the checksum");
    }

    #[test]
    fn tampered_reference_is_reported_as_failure() {
        let refs = small_refs();
        let system = LegoBase::from_data(TpchGenerator { scale_factor: 0.001, seed: 3 }.generate());
        let answer = system.run(6, Config::OptC).result;

        let good: HashMap<usize, ResultTable> = refs.into_iter().collect();
        assert!(Oracle::new(&good).check(6, &answer).is_ok());

        let mut tampered = good.clone();
        let t = tampered.get_mut(&6).expect("Q6 reference");
        match &mut t.0.rows[0][0] {
            Value::Float(f) => *f *= 1.001,
            other => panic!("Q6 revenue is a float, got {other:?}"),
        }
        let err = Oracle::new(&tampered).check(6, &answer).expect_err("tampered reference");
        assert!(err.contains("Q6"), "{err}");

        // A verified fingerprint does not vouch for a different result.
        let mut oracle = Oracle::new(&good);
        oracle.check(6, &answer).expect("correct");
        let mut wrong = answer.clone();
        wrong.0.rows.clear();
        assert!(oracle.check(6, &wrong).is_err());
        assert!(Oracle::new(&good).check(2, &answer).is_err(), "no reference is a failure");
    }
}
